"""The benchmark's three workloads, their seeds and their correctness gate.

Every workload is a closed loop: one caller in one process, each optimizer
step waiting for the previous one. A workload builds its inputs from one
workload seed (:func:`derive_seed`) in ``setup``, runs its body once per
``run_pass``, and checks every operation of a pass (one CLI call or one
optimizer run) against invariants that hold for any seed. ``compare`` checks
a pass against the values ``reference.json`` records for the seed.

The library is called through module attributes (``optimizers.swan_step``,
not a name imported into this file), so that the wrappers the traced run
installs on those attributes see every call.
"""

from __future__ import annotations

import json
import math
import signal
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from swanopt import cli, matrixops, optimizers, problems

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_ROLES = ("problem", "init", "batch")
_INDEX_SPAN = 1 << 20


def derive_seed(seed: int, role: str, index: int = 0) -> int:
    """Seed of one input of a workload, distinct for every (seed, role, index).

    The result is a mixed-radix encoding of the three, so no two arguments
    share a seed. It is even: ``QuadraticProblem.seeded(s)`` also draws C with
    seed ``s + 1``, and that odd seed is never handed to another input. (Were
    W0 drawn with C's seed, W0 would equal C, the gradient H W0 - C would be
    rank-deficient and exact whitening would raise.)
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= index < _INDEX_SPAN:
        raise ValueError(f"index must be in [0, {_INDEX_SPAN}), got {index}")
    return 2 * ((seed * len(_ROLES) + _ROLES.index(role)) * _INDEX_SPAN + index)


# --- time in reference seconds ---------------------------------------------
#
# On a shared machine the CPU runs markedly slower for spells of seconds to
# minutes (about 1.6x on the 2-vCPU Intel Xeon VM this benchmark was defined
# on), and pure Python and BLAS slow down alike. Every duration the benchmark
# reports is therefore scaled by how fast a fixed reference kernel runs at
# that moment, to what it would have been with the kernel taking REFERENCE_S.
# On that VM, in its fast state, the two agree.

REFERENCE_S = 1.45e-3
PROBE_EVERY_S = 0.1
_SMALL = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
_LARGE = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0


def machine_factor() -> float:
    """REFERENCE_S over the duration of the reference kernel now (fastest of 3).

    The kernel runs a pure-Python loop, small matrix products and one that
    spills out of the core's own caches: the kinds of work the workloads do.
    It takes about 5 ms.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i
        for _ in range(32):
            _SMALL @ _SMALL
        _LARGE @ _LARGE
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best


class Stopwatch:
    """Adds up durations in reference seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def call(self, fn: Callable, *args):
        """Call ``fn`` and add its duration in reference seconds.

        An interval timer interrupts the call every PROBE_EVERY_S to probe the
        machine. Each stretch between probes is scaled by the probe at its
        start; the probes' own time is left out.
        """
        clock = time.perf_counter
        stretch = {"factor": machine_factor(), "start": clock(), "seconds": 0.0}

        def probe(signum, frame):
            now = clock()
            stretch["seconds"] += (now - stretch["start"]) * stretch["factor"]
            stretch["factor"] = machine_factor()
            stretch["start"] = clock()

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.seconds += stretch["seconds"] + (clock() - stretch["start"]) * stretch["factor"]
        return out

    def add(self, run: "Run") -> "Run":
        self.seconds += sum(run.objective_s) + sum(run.update_s)
        return run


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference values recorded for ``workload`` at ``seed``, or None."""
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(seed))


# --- closed-loop optimizer runs ---------------------------------------------

# objective(params, t) -> (loss, gradients) at step t
Objective = Callable[[list, int], tuple[float, list]]


@dataclass
class Run:
    """One optimizer run.

    ``measure[t]`` is the quantity the target is tested on, at the iterate
    reached after t steps; ``steps`` is the number of steps taken and
    ``final`` the parameters they reached. ``objective_s[t]`` and
    ``update_s[t]`` are the durations, in reference seconds, of the objective
    call at that iterate and of the update that followed it.
    """

    measure: list[float]
    steps: int
    steps_to_target: int | None
    objective_s: list[float]
    update_s: list[float]
    final: list


def make_update(kind: str, lr: float, params: list) -> Callable[[list, list], list]:
    """Step every block of ``params`` with one optimizer; Adam keeps its state here."""
    cfg = optimizers.OptimizerConfig(kind=kind, learning_rate=lr)
    if kind == "adam":
        states = [optimizers.init_state(cfg, p.shape) for p in params]

        def update(ws, gs):
            out = []
            for i, (w, g) in enumerate(zip(ws, gs)):
                w, states[i] = optimizers.adam_step(w, g, states[i], cfg)
                out.append(w)
            return out

    elif kind == "swan":

        def update(ws, gs):
            return [optimizers.swan_step(w, g, cfg) for w, g in zip(ws, gs)]

    else:

        def update(ws, gs):
            return [optimizers.sgd_step(w, g, cfg) for w, g in zip(ws, gs)]

    return update


def closed_loop(
    objective: Objective,
    to_measure: Callable[[list[float]], float],
    update: Callable[[list, list], list],
    params: list,
    steps: int,
    target: float,
    stop_at_target: bool,
) -> Run:
    """Alternate ``objective`` and ``update`` for at most ``steps`` steps.

    ``to_measure`` maps the losses so far to the measure the target is tested
    on. Its cost, and that of the machine probe taken every ``PROBE_EVERY_S``,
    are not in the recorded durations.
    """
    clock = time.perf_counter
    losses: list[float] = []
    measure: list[float] = []
    objective_s: list[float] = []
    update_s: list[float] = []
    hit = None
    t = 0
    factor, probed = machine_factor(), clock()
    while True:
        if clock() - probed >= PROBE_EVERY_S:
            factor, probed = machine_factor(), clock()
        start = clock()
        loss, grads = objective(params, t)
        objective_s.append((clock() - start) * factor)
        losses.append(loss)
        measure.append(to_measure(losses))
        if hit is None and measure[-1] <= target:
            hit = t
            if stop_at_target:
                break
        if t == steps:
            break
        start = clock()
        params = update(params, grads)
        update_s.append((clock() - start) * factor)
        t += 1
    return Run(measure, t, hit, objective_s, update_s, params)


def warm_update(objective: Objective, kind: str, lr: float, params: list):
    """(update, parameters after one step): an optimizer past its first call."""
    update = make_update(kind, lr, params)
    _, grads = objective(params, 0)
    return update, update(params, grads)


def step_peak_mb(objective: Objective, kind: str, lr: float, params: list) -> float:
    """Peak MB one warm step (objective + update) allocates above what is live at its start.

    New Adam moments are allocated by the step and so are counted.
    """
    update, params = warm_update(objective, kind, lr, params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, grads = objective(params, 1)
        params = update(params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# --- passes ---------------------------------------------------------------


@dataclass
class Pass:
    """One run of a workload body; ``wall_s`` is in reference seconds.

    ``runs`` holds the optimizer runs by optimizer, one per problem instance.
    ``outputs`` holds what the program produced (files, losses), which every
    pass of one seed must reproduce bit for bit. ``failures`` maps each failed
    operation, of the ``operations`` attempted, to what failed.
    """

    wall_s: float
    runs: dict[str, list[Run]]
    outputs: dict
    operations: int
    failures: dict[str, str] = field(default_factory=dict)

    def quality(self) -> dict[str, float]:
        """The deterministic end-to-end metrics, as means over instances.

        ``swan_loss_ratio`` is SWAN's loss measure where its run ended over
        Adam's after the same number of steps. A run that missed its target
        counts with the steps it took (it has also failed its check).
        """
        swan, adam = self.runs["swan"], self.runs["adam"]
        ratios = [s.measure[-1] / a.measure[min(s.steps, a.steps)] for s, a in zip(swan, adam)]
        out = {"swan_loss_ratio": float(np.mean(ratios))}
        for kind, runs in (("swan", swan), ("adam", adam)):
            out[f"{kind}_steps_to_target"] = float(
                np.mean([r.steps if r.steps_to_target is None else r.steps_to_target for r in runs])
            )
        return out


def best_timings(passes: list[Pass]) -> dict[str, float]:
    """The timed end-to-end metrics, in reference seconds.

    ``wall_s`` is the fastest pass. Runs of one problem instance repeat the
    same steps in every pass, so each step is timed by its fastest repeat;
    a run's time is the sum of those, from the first objective call to the
    last (``*_steps_per_s``, which includes the objective) or to the one that
    showed the target met (``*_time_to_target_s``, a mean over instances).
    A run that missed its target counts with its whole time (it has also
    failed its check).
    """
    out = {"wall_s": min(p.wall_s for p in passes)}
    for kind in ("swan", "adam"):
        steps = seconds = 0.0
        to_target = []
        for runs in zip(*(p.runs[kind] for p in passes)):
            objective_s = np.min([r.objective_s for r in runs], axis=0)
            update_s = np.min([r.update_s for r in runs], axis=0)
            hit = runs[0].steps if runs[0].steps_to_target is None else runs[0].steps_to_target
            steps += runs[0].steps
            seconds += objective_s.sum() + update_s.sum()
            to_target.append(objective_s[: hit + 1].sum() + update_s[:hit].sum())
        out[f"{kind}_steps_per_s"] = steps / seconds
        out[f"{kind}_time_to_target_s"] = float(np.mean(to_target))
    return out


def check_runs(runs: dict[str, list[Run]], skip: int = 0) -> dict[str, str]:
    """Every run's measure is finite after ``skip`` steps and does not end
    above where it started; SWAN and Adam runs meet their target."""
    failures = {}
    for kind, group in runs.items():
        for i, run in enumerate(group):
            seen = run.measure[skip:]
            if not all(math.isfinite(v) for v in seen):
                failures[f"{kind}[{i}]"] = "non-finite loss"
            elif seen[-1] > seen[0]:
                failures[f"{kind}[{i}]"] = f"diverged, loss {seen[0]!r} -> {seen[-1]!r}"
            elif run.steps_to_target is None and kind != "sgd":
                failures[f"{kind}[{i}]"] = f"target not met in {run.steps} steps"
    return failures


def _quadratic_objective(problem) -> Objective:
    """(excess loss, [gradient]) of a quadratic problem.

    The loss is read off the gradient the step needs anyway:
    1/2 Tr(W^T H W) - Tr(C^T W) = 1/2 <W, G - C> with G = H W - C, one pass
    over W, where ``QuadraticProblem.loss`` forms W^T H W.
    """
    c, l_star = problem.c, problem.l_star

    def objective(params, t):
        (w,) = params
        g = problem.grad(w)
        return 0.5 * float(np.vdot(w, g - c)) - l_star, [g]

    return objective


def _measures(runs: dict[str, list[Run]]) -> dict[str, list[list[float]]]:
    return {kind: [r.measure for r in group] for kind, group in runs.items()}


# --- quadratic_tune ---------------------------------------------------------


@dataclass
class QuadraticTune:
    """The CLI's quadratic experiment, then SWAN and Adam on small quadratics.

    The CLI call tunes Adam's rate (about 19 ``run_experiment`` calls), runs
    the five-method comparison and writes its CSVs and ``summary.json`` to a
    temporary directory. The loops then run SWAN and Adam on ``instances``
    problems of the same kind, from random starts, for ``steps`` steps each;
    the target is an excess loss of ``target`` times the initial one.
    """

    name = "quadratic_tune"
    size: int = 50
    kappa: float = 1e4
    cli_steps: int = 500
    instances: int = 16
    steps: int = 40
    target: float = 0.6
    lrs: tuple = (("swan", 1e-2), ("adam", 3e-2))

    def setup(self, seed: int) -> dict:
        quads = [
            problems.QuadraticProblem.seeded(
                self.size, self.size, self.kappa, derive_seed(seed, "problem", 1 + i)
            )
            for i in range(self.instances)
        ]
        w0s = [
            matrixops.random_matrix(self.size, self.size, derive_seed(seed, "init", i))
            for i in range(self.instances)
        ]
        for kind, lr in self.lrs:
            warm_update(_quadratic_objective(quads[0]), kind, lr, [w0s[0]])
        return {"seed": seed, "problems": quads, "w0": w0s}

    def cli_argv(self, seed: int, out_dir: str) -> list[str]:
        return [
            "--seed", str(derive_seed(seed, "problem")), "--out-dir", out_dir, "--quiet",
            "quadratic", "--m", str(self.size), "--n", str(self.size),
            "--kappa", repr(self.kappa), "--steps", str(self.cli_steps),
        ]  # fmt: skip

    def run_pass(self, state: dict, scratch: Path) -> Pass:
        watch = Stopwatch()
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            code = watch.call(cli.main, self.cli_argv(state["seed"], out))
            files = {p.name: p.read_text() for p in sorted(Path(out).iterdir())}
        runs = {"swan": [], "adam": []}
        for problem, w0 in zip(state["problems"], state["w0"]):
            objective = _quadratic_objective(problem)
            initial = problem.excess_loss(w0)
            for kind, lr in self.lrs:
                runs[kind].append(
                    watch.add(
                        closed_loop(
                            objective,
                            lambda losses: losses[-1] / initial,
                            make_update(kind, lr, [w0]),
                            [w0],
                            self.steps,
                            self.target,
                            stop_at_target=False,
                        )
                    )
                )
        outputs = {"exit_code": code, "files": files, "runs": _measures(runs)}
        failures = check_runs(runs)
        if code != 0 or "summary.json" not in files:
            failures["cli"] = f"exit code {code}, wrote {sorted(files)}"
        else:
            problems_found = self._check_summary(json.loads(files["summary.json"])["optimizers"])
            if problems_found:
                failures["cli"] = "; ".join(problems_found)
        return Pass(watch.seconds, runs, outputs, 1 + 2 * self.instances, failures)

    def _check_summary(self, rows: dict) -> list[str]:
        """Invariants of the CLI summary.

        Newton at rate 1 and whitened descent from an orthogonal start solve
        the C = 0 quadratic in one step, whatever the seed.
        """
        expected = {"gd_optimal", "adam", "newton", "whitened", "whitened_ortho"}
        if set(rows) != expected:
            return [f"optimizers {sorted(rows)}, expected {sorted(expected)}"]
        failures = [
            f"{name} diverged at {row['diverged_at']}"
            for name, row in rows.items()
            if row["diverged"] or not math.isfinite(row["final_loss"])
        ]
        for name in ("newton", "whitened_ortho"):
            if rows[name]["steps_to_threshold"] != 1:
                failures.append(
                    f"{name} steps_to_threshold {rows[name]['steps_to_threshold']}, expected 1"
                )
        return failures

    def peak_mb(self, state: dict) -> dict[str, float]:
        objective = _quadratic_objective(state["problems"][0])
        return {
            f"{kind}_peak_mb": step_peak_mb(objective, kind, lr, [state["w0"][0]])
            for kind, lr in self.lrs
        }

    def reference_values(self, done: Pass) -> dict:
        rows = json.loads(done.outputs["files"]["summary.json"])["optimizers"]
        keys = ("steps_to_threshold", "diverged", "final_loss")
        return {"optimizers": {name: {k: row[k] for k in keys} for name, row in rows.items()}}

    def compare(self, values: dict, reference: dict) -> list[str]:
        """Per optimizer: steps to threshold and divergence exactly, final loss to 1e-6."""
        failures = []
        for name, ref in reference["optimizers"].items():
            row = values["optimizers"].get(name)
            if row is None:
                failures.append(f"cli {name}: missing from summary.json")
                continue
            for key in ("steps_to_threshold", "diverged"):
                if row[key] != ref[key]:
                    failures.append(f"cli {name}: {key} {row[key]} != reference {ref[key]}")
            if not _close(row["final_loss"], ref["final_loss"], 1e-6, 1e-9):
                failures.append(
                    f"cli {name}: final_loss {row['final_loss']!r} != reference {ref['final_loss']!r}"
                )
        return failures


# --- swan_wide --------------------------------------------------------------


@dataclass
class SwanWide:
    """SWAN, Adam and SGD on one wide quadratic from one shared W0.

    Each optimizer runs its fixed number of steps; the target is an excess
    loss of ``target`` times the initial one. ``QuadraticProblem.loss`` is
    called only at the start and the end, to check the loss read off the
    gradient at every step.
    """

    name = "swan_wide"
    m: int = 512
    n: int = 2048
    kappa: float = 100.0
    target: float = 0.05
    plan: tuple = (("swan", 0.1, 12), ("adam", 0.2, 24), ("sgd", 0.019, 12))

    def setup(self, seed: int) -> dict:
        problem = problems.QuadraticProblem.seeded(
            self.m, self.n, self.kappa, derive_seed(seed, "problem"), c_scale=1.0
        )
        w0 = matrixops.random_matrix(self.m, self.n, derive_seed(seed, "init"))
        for kind, lr, _ in self.plan:
            warm_update(_quadratic_objective(problem), kind, lr, [w0])
        return {"seed": seed, "problem": problem, "w0": w0}

    def run_pass(self, state: dict, scratch: Path) -> Pass:
        problem, w0 = state["problem"], state["w0"]
        objective = _quadratic_objective(problem)
        watch = Stopwatch()
        initial = watch.call(problem.excess_loss, w0)
        runs = {
            kind: [
                watch.add(
                    closed_loop(
                        objective,
                        lambda losses: losses[-1] / initial,
                        make_update(kind, lr, [w0]),
                        [w0],
                        steps,
                        self.target,
                        stop_at_target=False,
                    )
                )
            ]
            for kind, lr, steps in self.plan
        }
        final = {kind: watch.call(problem.excess_loss, group[0].final[0]) for kind, group in runs.items()}
        failures = check_runs(runs)
        for kind, excess in final.items():
            read_off = runs[kind][0].measure[-1] * initial
            if not _close(excess, read_off, 1e-6, 1e-9 * abs(problem.l_star)):
                failures.setdefault(
                    f"{kind}[0]", f"excess loss {excess!r}, {read_off!r} read off the gradient"
                )
        return Pass(watch.seconds, runs, {"runs": _measures(runs)}, len(self.plan), failures)

    def peak_mb(self, state: dict) -> dict[str, float]:
        objective = _quadratic_objective(state["problem"])
        return {
            f"{kind}_peak_mb": step_peak_mb(objective, kind, lr, [state["w0"]])
            for kind, lr, _ in self.plan
            if kind != "sgd"
        }

    def reference_values(self, done: Pass) -> dict:
        return {"swan_loss_ratio": done.quality()["swan_loss_ratio"]}

    def compare(self, values: dict, reference: dict) -> list[str]:
        """swan_loss_ratio to a relative 1e-3."""
        got, want = values["swan_loss_ratio"], reference["swan_loss_ratio"]
        if not _close(got, want, 1e-3):
            return [f"swan_loss_ratio {got!r} != reference {want!r}"]
        return []


# --- mlp_minibatch ------------------------------------------------------------


@dataclass
class MlpMinibatch:
    """SWAN, then Adam, training teacher-student MLPs on fresh minibatches.

    On each of ``instances`` problems (default dims 16-64-64-8, with one tall
    64x8 block; batch 64) each optimizer runs until the mean minibatch loss
    over the last ``window`` steps reaches ``target``, or for its cap of
    steps. Both optimizers see the same batch sequence.
    """

    name = "mlp_minibatch"
    instances: int = 6
    target: float = 0.03
    window: int = 50
    lr: float = 3e-3
    caps: tuple = (("swan", 2000), ("adam", 4000))
    layer_dims: tuple = (16, 64, 64, 8)

    def setup(self, seed: int) -> dict:
        mlps = [
            problems.MlpProblem(self.layer_dims, teacher_seed=derive_seed(seed, "problem", i))
            for i in range(self.instances)
        ]
        w0s = [p.initial_weights(derive_seed(seed, "init", i)) for i, p in enumerate(mlps)]
        state = {"seed": seed, "problems": mlps, "w0": w0s}
        for kind, _ in self.caps:
            warm_update(self._objective(state, 0), kind, self.lr, w0s[0])
        return state

    def _objective(self, state: dict, i: int) -> Objective:
        problem, seed = state["problems"][i], state["seed"]
        base = i * (_INDEX_SPAN // self.instances)

        def objective(params, t):
            return problem.loss_and_grads(params, derive_seed(seed, "batch", base + t))

        return objective

    def _running_mean(self, losses: list[float]) -> float:
        if len(losses) < self.window:
            return math.inf
        return sum(losses[-self.window :]) / self.window

    def run_pass(self, state: dict, scratch: Path) -> Pass:
        watch = Stopwatch()
        runs = {"swan": [], "adam": []}
        for i, w0 in enumerate(state["w0"]):
            objective = self._objective(state, i)
            for kind, cap in self.caps:
                runs[kind].append(
                    watch.add(
                        closed_loop(
                            objective,
                            self._running_mean,
                            make_update(kind, self.lr, w0),
                            w0,
                            cap,
                            self.target,
                            stop_at_target=True,
                        )
                    )
                )
        # the running mean is infinite until its first window has filled
        failures = check_runs(runs, skip=self.window - 1)
        return Pass(watch.seconds, runs, {"runs": _measures(runs)}, 2 * self.instances, failures)

    def peak_mb(self, state: dict) -> dict[str, float]:
        objective = self._objective(state, 0)
        return {
            f"{kind}_peak_mb": step_peak_mb(objective, kind, self.lr, state["w0"][0])
            for kind, _ in self.caps
        }

    def reference_values(self, done: Pass) -> dict:
        return {}

    def compare(self, values: dict, reference: dict) -> list[str]:
        """Nothing is recorded; the invariants of ``run_pass`` are the gate."""
        return []


WORKLOADS = {w.name: w for w in (QuadraticTune, SwanWide, MlpMinibatch)}
