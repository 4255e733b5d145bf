"""Measure one workload for one seed: set-up, timed passes, gate, trace, report.

A run sets the workload up ``SETUP_REPEATS`` times and for at least
``SETUP_SECONDS``, measures the peak memory of one optimizer step, then runs
passes of the workload body until the requested seconds have passed (at
least one). With tracing on, untraced and traced passes alternate.

Every duration is in reference seconds: scaled by the speed of a fixed
reference kernel probed around it (``workloads.machine_factor``), because on
a shared machine the CPU runs markedly slower for spells of seconds to
minutes. Each timing is then the fastest of its repeats: the fastest set-up,
the fastest pass, and for optimizer runs the fastest repeat of every step
(``workloads.best_timings``), which drops the short spells a probe misses.
The deterministic metrics (steps to target, loss ratio, peak memory) come
from the first pass, and every later pass, traced or not, must reproduce its
outputs bit for bit.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads
from swanopt import gradient_ops

SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MAX_UNUSABLE = 3  # passes that raised or did not repeat the first; then the run stops

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "swan_steps_per_s": "1/s",
    "adam_steps_per_s": "1/s",
    "swan_peak_mb": "MB",
    "adam_peak_mb": "MB",
    "swan_loss_ratio": "ratio",
    "swan_steps_to_target": "steps",
    "adam_steps_to_target": "steps",
    "swan_time_to_target_s": "s",
    "adam_time_to_target_s": "s",
}

# Public functions timed in the traced run, by the layer (module) they belong to.
# ``analysis`` is on no measured path and is not traced.
TRACED = (
    "cli.main",
    "harness.run_experiment",
    "harness.write_csv",
    "theory.tune_learning_rate",
    "theory.predict_whitened_contraction",
    "optimizers.swan_step",
    "optimizers.adam_step",
    "optimizers.sgd_step",
    "optimizers.whitened_optimal_learning_rate",
    "gradient_ops.grad_norm",
    "gradient_ops.grad_whitening",
    "gradient_ops.orthogonalize",
    "gradient_ops.rescale_update",
    "matrixops.as_matrix",
    "matrixops.sym_eig",
    "matrixops.schatten1_norm",
    "matrixops.make_spd",
    "problems.QuadraticProblem.grad",
    "problems.QuadraticProblem.loss",
    "problems.QuadraticProblem.seeded",
    "problems.MlpProblem.loss_and_grads",
)
NOT_TRACED = "analysis: on no measured path"


def _ns_gflop(g, cfg=None) -> float:
    """Matrix-product GFLOP of one Newton-Schulz whitening, computed from shapes.

    G is m x n: forming G G^T and Z G cost 2 m^2 n each, and each iteration
    costs 4 (chained) or 3 (paired) m x m products of 2 m^3. Exact-mode
    calls count 0.
    """
    cfg = cfg or gradient_ops.WhiteningConfig()
    if cfg.mode != "newton_schulz":
        return 0.0
    m, n = np.shape(g)
    products = 4 if cfg.update_order == "chained" else 3
    return (4.0 * m * m * n + cfg.iterations * products * 2.0 * m**3) / 1e9


WORK = {"gradient_ops.grad_whitening": _ns_gflop}

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TRACED for kind, unit in (("calls", "count"), ("self_pct", "%"))},
    "harness.steps": "count",
    "gradient_ops.grad_whitening.gflop": "GFLOP",
    "gradient_ops.grad_whitening.gflop_per_s": "GFLOP/s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _median(values) -> float:
    return float(statistics.median(values))


def _run_pass(workload, state, scratch: Path, tracing: tracer.Tracer | None):
    """One pass, or the message of the error it raised."""
    try:
        if tracing is None:
            return workload.run_pass(state, scratch)
        with tracer.patched(tracing, "swanopt", TRACED, WORK):
            return workload.run_pass(state, scratch)
    except Exception:  # a pass that raises is one failed operation; the run goes on
        return traceback.format_exc(limit=4)


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Run one workload and return its metrics, the gate's verdict and details."""
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        watch = workloads.Stopwatch()
        state = watch.call(workload.setup, seed)
        setups.append(watch.seconds)
    peaks = workload.peak_mb(state)

    passes, traced, failures = [], [], []
    attempted = unusable = 0
    start = time.perf_counter()
    while unusable < MAX_UNUSABLE:
        tracing = tracer.Tracer() if trace and len(traced) < len(passes) else None
        raw_start = time.perf_counter()
        done = _run_pass(workload, state, scratch, tracing)
        raw_wall = time.perf_counter() - raw_start
        if isinstance(done, str):
            attempted += 1
            unusable += 1
            failures.append(f"pass raised: {done}")
            continue
        attempted += done.operations
        failures += [f"{op}: {message}" for op, message in done.failures.items()]
        if passes:
            attempted += 1
            if done.outputs != passes[0].outputs:
                unusable += 1
                failures.append("pass outputs differ from the first pass's")
                continue
        if tracing is None:
            passes.append(done)
        else:
            traced.append((done, tracing, raw_wall))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    if not passes or (trace and not traced):
        raise RuntimeError("no pass completed:\n" + "\n".join(failures))

    reference = workloads.load_reference(workload.name, seed)
    if reference is not None:
        attempted += 1
        mismatch = workload.compare(workload.reference_values(passes[0]), reference)
        if mismatch:
            failures.append("; ".join(mismatch))

    values = {"setup_s": min(setups), **peaks, **passes[0].quality(), **workloads.best_timings(passes)}
    details = {
        "setup_s": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "reference": "recorded" if reference is not None else "none for this seed",
    }
    if trace:
        values, layer_details = _per_layer(passes, traced)
        details.update(layer_details)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "failures": failures,
        "details": details,
        "tracers": [t for _, t, _ in traced],
    }


def _per_layer(passes, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and the details behind them.

    Self time is a share of the traced pass's own (unscaled) wall time; the
    pass times are in reference seconds like the end-to-end metrics.
    """
    summaries = [t.summary() for _, t, _ in traced]
    walls = [p.wall_s for p, _, _ in traced]
    raw_walls = [raw for _, _, raw in traced]
    first, tracing = summaries[0], traced[0][1]
    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = first[name]["calls"]
        values[f"{name}.self_pct"] = _median(
            [100.0 * s[name]["self_s"] / w for s, w in zip(summaries, raw_walls)]
        )
    whiten = [s["gradient_ops.grad_whitening"] for s in summaries]
    steps = tracing.count_under("problems.QuadraticProblem.grad", "harness.run_experiment")
    values["harness.steps"] = steps
    values["gradient_ops.grad_whitening.gflop"] = whiten[0]["work"]
    values["gradient_ops.grad_whitening.gflop_per_s"] = _median(
        [w["work"] / w["work_self_s"] if w["work_self_s"] > 0 else 0.0 for w in whiten]
    )
    values["trace.spans"] = tracing.span_count
    values["trace.wall_s"] = min(walls)
    values["trace.overhead_s"] = min(walls) - min(p.wall_s for p in passes)
    run_self = _median([s["harness.run_experiment"]["self_s"] for s in summaries])
    details = {
        "layers": summaries,
        "traced_wall_s": walls,
        "traced_raw_wall_s": raw_walls,
        "harness_step_overhead_s": run_self / steps if steps else None,
        "not_traced": NOT_TRACED,
    }
    return values, details


def manifest(root: Path, threads: int, args) -> dict:
    """Versions, BLAS build and threads, machine and commit of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_variables": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "commit": commit,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(args, root: Path, threads: int) -> int:
    out_dir = Path(__file__).with_name("out")
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracers = result.pop("tracers")
    if tracers:
        tracers[0].write(stem.with_suffix(".spans.csv.gz"))
    failed_frac = result["failed"] / result["attempted"]
    result["failed_frac"] = failed_frac
    result["manifest"] = manifest(root, threads, args)
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")

    for message in result["failures"]:
        print(f"FAILED: {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']!r:>24} {metric['unit']}")
    print(f"{'failed_frac':48s} {failed_frac!r:>24} fraction")
    if args.trace:
        print(f"{'harness step overhead (self s / step)':48s} {result['details']['harness_step_overhead_s']!r:>24} s")
        print(NOT_TRACED)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0
