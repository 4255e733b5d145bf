"""Per-call timing of one step rule in two or more ``swanopt`` source trees, in one process.

Each tree is imported as its own copy of the package, and the copies run in turn, in a
rotating order, so that they share the machine's state (clocks, caches, other load). A
third copy of the first tree, as an A/A control, shows how far two runs of the same code
drift apart: a difference smaller than the control's says nothing.

Run from the root of a checkout, with the parent commit in a second directory::

    git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
    python tools/ab_timing.py /tmp/parent/src src /tmp/parent/src

A tree may end in ``@1``: that copy then reads one CPU, so that no pass runs its upper half
on the library's worker thread (``src@1`` against ``src`` times the worker on and off).
``--op`` chooses the call: a GradNorm'd public ``swan_step`` (the default), ``adam_step`` or
``QuadraticProblem.grad``. For every shape and tree it prints the best and the median
per-call time over ``--rounds`` rounds, each the mean of ``--calls`` calls, then against the
first tree the difference of the bests and the median of the per-round (paired) differences.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def load(spec: str):
    """The package under ``spec`` (``SRC`` or ``SRC@1``) as its own module copy."""
    path, _, cpus = spec.partition("@")
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == "swanopt"}
    sys.path.insert(0, os.path.abspath(path))
    try:
        pkg = importlib.import_module("swanopt")  # which imports its modules
    finally:
        sys.path.pop(0)
        for k in [k for k in sys.modules if k.split(".")[0] == "swanopt"]:
            del sys.modules[k]
        sys.modules.update(saved)
    if cpus:
        pkg.matrixops._cpus = lambda pid, k=int(cpus): range(k)
    return pkg


def make_call(pkg, op: str, shape: tuple[int, int]):
    """A no-argument call of ``op`` at ``shape`` on the copy ``pkg``, with seeded inputs."""
    rng = np.random.default_rng(0)
    w, g = rng.standard_normal(shape), 3.0 * rng.standard_normal(shape) + 0.5
    opt = pkg.optimizers
    if op == "swan":
        cfg = opt.OptimizerConfig(kind="swan", learning_rate=0.037)
        return lambda: opt.swan_step(w, g, cfg)
    if op == "adam":
        cfg = opt.OptimizerConfig(kind="adam", learning_rate=0.037)
        state = opt.adam_step(w, g, opt.init_state(cfg, shape), cfg)[1]
        return lambda: opt.adam_step(w, g, state, cfg)
    problem = pkg.problems.QuadraticProblem.seeded(*shape, 100.0, 0)
    return lambda: problem.grad(w)


def per_call(fn, calls: int) -> float:
    """Mean seconds per call of ``fn`` over ``calls`` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", help="source directories, the first the baseline")
    parser.add_argument("--op", choices=("swan", "adam", "grad"), default="swan")
    parser.add_argument("--shapes", default="16x64,64x64,50x50,64x8")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    pkgs = [load(t) for t in args.trees]
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, op {args.op}, "
          f"{args.rounds} rounds of {args.calls} calls; times in microseconds per call")
    for text in args.shapes.split(","):
        shape = tuple(int(x) for x in text.split("x"))
        calls = [make_call(p, args.op, shape) for p in pkgs]
        for fn in calls:  # warm every copy before the first timed round
            per_call(fn, max(1, args.calls // 10))
        times = [[] for _ in calls]
        for r in range(args.rounds):
            for i in range(len(calls)):
                j = (i + r) % len(calls)
                times[j].append(per_call(calls[j], args.calls) * 1e6)
        print(f"{text}:")
        for tree, t in zip(args.trees, times):
            diff = [a - b for a, b in zip(t, times[0])]
            print(
                f"  {tree:>28}  best {min(t):9.2f}  median {statistics.median(t):9.2f}"
                f"  diff best {min(t) - min(times[0]):+8.2f}  diff median"
                f" {statistics.median(diff):+8.2f}"
            )


if __name__ == "__main__":
    main()
