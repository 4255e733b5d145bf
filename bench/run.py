"""Benchmark of swanopt: three closed-loop workloads, timed, checked and traced.

Run from the root of a checkout::

    python3 bench/run.py --workload swan_wide --seed 0 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced passes with passes in which every call into the public
functions of each swanopt layer records a span, and reports per-layer calls
and self time plus the tracing overhead. Either way the run prints one line
per metric and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. It also writes the results, with
a manifest of the machine, the BLAS build and the thread count, to
``bench/out/``. The workloads and their metrics are listed in
``BENCHMARK.json``; ``bench/workloads.py`` says what each one runs.

BLAS is pinned to one thread before numpy is imported: on a small shared
machine two threads made the timings of small matrix products bimodal. The
library is imported from ``src/`` of the checkout; without it the run fails
with exit code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("quadratic_tune", "swan_wide", "mlp_minibatch")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def pin_blas_threads() -> int:
    """Run BLAS on one thread; call before numpy is imported."""
    threads = 1
    for var in BLAS_THREAD_VARIABLES:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "swanopt" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import measure  # imports numpy, so only after the threads are pinned

    return measure.main(args, root, threads)


if __name__ == "__main__":
    sys.exit(main())
