"""The library's two-thread passes: each half runs in the caller's context, an error is raised
once both halves are done, a call never waits on itself, a forked child and the interpreter's
exit do not wait on the worker, small blocks never start it and a pass of one block hands it
nothing."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from swanopt import gradient_ops, matrixops, optimizers
from swanopt.gradient_ops import _BLOCK, GradNormConfig, WhiteningConfig
from swanopt.matrixops import _SPLIT_MIN, _in_blocks, random_matrix
from swanopt.optimizers import (
    OptimizerConfig,
    OptimizerState,
    adam_step,
    init_state,
    sgd_step,
    swan_step,
)
from swanopt.problems import MlpProblem, QuadraticProblem

SRC = Path(__file__).resolve().parents[1] / "src"
ADAM = OptimizerConfig(kind="adam", learning_rate=0.1)
SWAN = OptimizerConfig(kind="swan", learning_rate=0.1)
SGD = OptimizerConfig(kind="sgd", learning_rate=0.1)


@pytest.fixture(autouse=True)
def two_cpus(cpus):
    cpus(2)


def _wide(seed=0):
    return random_matrix(512, 2048, seed), random_matrix(512, 2048, seed + 1)


def _rows(count):
    """``_in_blocks``' arguments after ``fn, args`` for a pass of ``count`` one-row blocks above
    the split threshold, over a broadcast (no memory)."""
    return np.broadcast_to(0.0, (count, _SPLIT_MIN)), 0, 1, _SPLIT_MIN


def test_both_halves_run_in_the_callers_errstate():
    seen = {}

    def record(args, width, lo, hi):
        seen[lo] = (np.geterr()["over"], np.geterr()["invalid"], threading.get_ident())

    with np.errstate(over="ignore", invalid="raise"):
        _in_blocks(record, (), *_rows(3))
    assert seen[0][:2] == seen[2][:2] == ("ignore", "raise")
    assert seen[0][2] == threading.get_ident() != seen[2][2]


def test_an_overflow_in_the_worker_half_follows_the_callers_errstate():
    # loss ignores overflow; the second column half of H w, the worker's, overflows.
    # Under the suite's error::RuntimeWarning a warning there would fail the call
    problem = QuadraticProblem.seeded(512, 2048, 10.0, 0)
    w = random_matrix(512, 2048, 1)
    w[:, 1024:] = 1e308
    assert not np.isfinite(problem.loss(w))
    assert not np.isfinite(problem.loss_and_grad(w)[0])


def test_an_error_is_raised_after_both_halves_and_the_lower_ones_wins():
    ended = []

    def both_fail(args, width, lo, hi):
        if lo:
            time.sleep(0.2)
            ended.append(lo)
        raise ValueError(f"half from block {lo}")

    with pytest.raises(ValueError, match="half from block 0"):
        _in_blocks(both_fail, (), *_rows(4))
    assert ended == [2]

    def upper_fails(args, width, lo, hi):
        if lo:
            raise ValueError("upper")

    with pytest.raises(ValueError, match="upper"):
        _in_blocks(upper_fails, (), *_rows(4))


def test_split_steps_raise_todays_errors():
    w, g = _wide()
    g[[300, 40]] = 2.0  # zero-variance rows: the message names the first
    cfg = OptimizerConfig(kind="swan", grad_norm_cfg=GradNormConfig(epsilon=0.0))
    with pytest.raises(ValueError, match="zero-variance row 40 with epsilon=0"):
        swan_step(w, g, cfg)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        adam_step(w, np.full(w.shape, 1e200), init_state(ADAM, w.shape), ADAM)


def test_a_call_on_the_worker_thread_runs_serially():
    w, g = _wide()
    want = adam_step(w, g, init_state(ADAM, w.shape), ADAM)[0]
    got = {}

    def nested(args, width, lo, hi):  # each half makes a call that splits
        got[lo] = adam_step(w, g, init_state(ADAM, w.shape), ADAM)[0]

    caller = threading.Thread(target=_in_blocks, args=(nested, (), *_rows(2)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert sorted(got) == [0, 1]
    assert all(np.array_equal(a, want) for a in got.values())


def test_concurrent_callers_each_run_their_own_halves():
    # more calling threads than cores, switching often: each call returns once all of its
    # blocks have run, whether its upper half went to the worker or ran serially
    runs, early = {caller: [] for caller in range(4)}, []

    def record(args, width, lo, hi):
        time.sleep(0.0005)
        runs[args[0]].extend(range(lo, hi))

    def calls(caller):
        for i in range(50):
            _in_blocks(record, (caller,), *_rows(5))
            if sorted(runs[caller]) != sorted(list(range(5)) * (i + 1)):
                early.append((caller, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=calls, args=(c,), daemon=True) for c in runs]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert early == []


def _step_in_child(w, g, want):
    sys.exit(0 if np.array_equal(swan_step(w, g, SWAN), want) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_splits_without_the_parents_worker():
    w, g = _wide()
    want = swan_step(w, g, SWAN)  # the parent's worker is running
    child = multiprocessing.get_context("fork").Process(target=_step_in_child, args=(w, g, want))
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def test_the_cli_exits_promptly_after_split_steps(tmp_path):
    # `python -m swanopt` on a 2^17-entry quadratic, told it has two CPUs; the worker is
    # still running at exit
    script = (
        "import os, runpy, threading; os.sched_getaffinity = lambda pid: {0, 1}\n"
        "try: runpy.run_module('swanopt', run_name='__main__')\n"
        "finally: print(threading.active_count())"
    )
    argv = ["--out-dir", str(tmp_path), "--quiet", "quadratic", "--m", "128", "--n", "1024"]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, "--steps", "3"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]


def test_small_blocks_start_no_worker(monkeypatch):
    monkeypatch.setattr(matrixops, "_tasks", None)
    threads = threading.active_count()
    w, g = random_matrix(50, 50, 0), random_matrix(50, 50, 1)
    swan_step(w, g, SWAN)
    adam_step(w, g, init_state(ADAM, w.shape), ADAM)
    QuadraticProblem.seeded(50, 50, 1e4, 2).loss_and_grad(w)
    mlp = MlpProblem()
    params = mlp.initial_weights(3)
    _, grads = mlp.loss_and_grads(params, 4)
    for p, q in zip(params, grads):
        swan_step(p, q, SWAN)
        adam_step(p, q, init_state(ADAM, p.shape), ADAM)
    assert matrixops._tasks is None
    assert threading.active_count() == threads


def test_split_steps_keep_todays_working_set(warm_peak_bytes):
    # the bounds of tests/test_optimizers.py at 512 x 2048 and its transpose: Adam's two
    # half-size scratches take the place of one, and SWAN's column halves read g itself, so its
    # step is a warm SGD step's one m x n plus one k x k (Z''), the row statistics and the
    # spectrum (4 vectors of length k); GradNorm holds no squares, and V fits within that k x k
    (m, n), (w, g) = (512, 2048), _wide()
    moments = random_matrix(m, n, 2), np.ones((m, n))
    state = OptimizerState(step=1, first_moment=moments[0], second_moment=moments[1])
    rows = _BLOCK // n
    assert warm_peak_bytes(adam_step, w, g, state, ADAM) <= (3 * m * n + rows * n) * 8 + 4096
    k = min(m, n)
    for a, b in ((w, g), (w.T.copy(), g.T.copy())):
        sgd = warm_peak_bytes(sgd_step, a, b, SGD)
        assert warm_peak_bytes(swan_step, a, b, SWAN) <= sgd + (k * k + 4 * k) * 8 + 4096
    problem = QuadraticProblem.seeded(m, n, 10.0, 0)
    assert warm_peak_bytes(problem.grad, w) <= m * n * 8 + 4096


def test_a_one_block_pass_hands_the_worker_nothing(monkeypatch):
    # above the split threshold, a pass of one block (H w at 2048 x 64, Adam's rows at
    # 1 x 2^17) runs in the caller alone: the worker gets no empty half. The gradient's
    # subtraction after it is a pass of two row halves
    handed = []

    class Spy:  # the worker's queue, which runs each task at once
        def put(self, task):
            done, context, fn, args = task
            handed.append(args[1:])
            done.put(context.run(fn, *args))

    monkeypatch.setattr(matrixops, "_tasks", Spy())
    problem, w = QuadraticProblem.seeded(2048, 64, 10.0, 0), random_matrix(2048, 64, 1)
    problem.loss(w)
    row = random_matrix(1, _SPLIT_MIN, 2)
    adam_step(row, row, init_state(ADAM, row.shape), ADAM)
    assert handed == []
    problem.grad(w)
    assert handed == [(1024, 1, 2)]
    _in_blocks(lambda args, width, lo, hi: None, (), *_rows(2))  # two blocks: one each
    assert handed == [(1024, 1, 2), (1, 1, 2)]


def test_the_bench_block_keeps_the_split_widths(monkeypatch):
    # at 512 x 2048 the one rule gives: the Gram matrices of G~ and of V sqrt(phi) (Z') split
    # at row 368 = 512 / sqrt(2) on a multiple of 16, the columns of Z'' g in halves of 1024
    # (no scratch), H w's columns in halves of 1024 and then H w - C's rows in halves of 256,
    # and Adam's rows in blocks of 8
    widths = set()

    def spy(fn, args, x, axis, unit, cap):
        def record(args, width, lo, hi):
            widths.add((fn.__name__, axis, width))
            fn(args, width, lo, hi)

        in_blocks(record, args, x, axis, unit, cap)

    in_blocks = matrixops._in_blocks
    for module in (matrixops, gradient_ops, optimizers):
        monkeypatch.setattr(module, "_in_blocks", spy)
    w, g = _wide()
    swan_step(w, g, SWAN)
    adam_step(w, g, init_state(ADAM, w.shape), ADAM)
    QuadraticProblem.seeded(512, 2048, 10.0, 0).grad(w)
    swan = ("_gram_blocks", 0, 368), ("_descend_columns", 1, 1024)
    grad = ("_matmul_columns", 1, 1024), ("_subtract_rows", 0, 256)
    assert widths == {*swan, *grad, ("_adam_rows", 0, 8)}


@pytest.mark.parametrize("shape", [(512, 2048), (2048, 512), (512, 512), (300, 1001)])
def test_the_gram_matrix_and_the_spectral_step_keep_their_bits_on_one_cpu(shape, cpus):
    # the blocks, and so the bits, follow from the shape alone, whether or not the worker
    # takes one: the Gram matrix of the wide orientation, whole and symmetric, a step, a step
    # on offset rows (g centred into the result, read in place) and a paired b = 1 step (a
    # signed spectrum: the shifted Gram matrix)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    wide = g if shape[0] <= shape[1] else g.T
    offset = g.copy()
    rows = offset if shape[0] <= shape[1] else offset.T
    rows[::2] += 1e3
    rows[1::2] -= 1e3
    paired = OptimizerConfig(
        kind="swan", whitening_cfg=WhiteningConfig(step_size=1.0, update_order="paired")
    )
    got = {}
    for count in (1, 2):
        cpus(count)
        gram = gradient_ops._gram(wide, np.empty((len(wide), len(wide))))
        assert np.array_equal(gram, gram.T)
        steps = swan_step(w, g, SWAN), swan_step(w, offset, SWAN), swan_step(w, g, paired)
        got[count] = gram.tobytes(), *(step.tobytes() for step in steps)
    assert got[1] == got[2]
