"""Command-line entry point.

Subcommands: ``run`` (config-file experiment), ``quadratic``, ``rastrigin``,
``mlp-kl``, ``stb``, ``ns-bench``, ``theory``, ``speedup``. Exit codes: 0
success; 1 when the library refuses a value from an argument, a config or an
input file, a run the arguments drive non-finite included ("config error:
..."); 2 for any other failure, such as a missing file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, theory
from .gradient_ops import WhiteningConfig, grad_whitening
from .matrixops import random_matrix, sample_stiefel
from .optimizers import OptimizerConfig, sgd_step
from .harness import (
    ConfigError,
    ExperimentSpec,
    OptimizerDescriptor,
    ProblemSpec,
    parse_config,
    read_curve_csv,
    run_experiment,
    write_csv,
    write_json,
)
from .problems import MlpProblem, StbSystem, hessian_block_divergence, stb_integrate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _int_at_least(lo: int):
    """An argparse type: an integer >= ``lo``."""

    def integer(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def _kappas(raw: str) -> list[float]:
    """An argparse type: comma-separated condition numbers, each finite and >= 1."""
    try:
        kappas = [float(k) for k in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {raw!r}") from None
    if not all(1.0 <= k < np.inf for k in kappas):
        raise argparse.ArgumentTypeError(f"each kappa must be finite and >= 1, got {raw!r}")
    return kappas


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _num(value, spec: str) -> str:
    """A summary number, or "none" for an optimizer stopped before its first record."""
    return "none" if value is None else format(value, spec)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    spec = parse_config(args.config)
    if spec.out_dir is None:
        spec = replace(spec, out_dir=args.out_dir, file_format=args.format)
    result = run_experiment(spec)
    for name, row in result.summary["optimizers"].items():
        loss = _num(row["final_loss"], ".6g")
        _say(args, f"{name}: final_loss={loss} diverged={row['diverged']}")
    return 0


def _spec(args, problem: ProblemSpec, descs) -> ExperimentSpec:
    """The comparison a subcommand runs and writes, before any rate is tuned."""
    return ExperimentSpec(
        problem=problem,
        optimizers=tuple(descs),
        steps=args.steps,
        record_every=args.record_every,
        seed=args.seed,
        out_dir=args.out_dir,
        file_format=args.format,
    )


def _tune(spec: ExperimentSpec, desc: OptimizerDescriptor, lo: float, grid_points: int):
    """Tune desc's rate in [lo, 1] for the lowest final loss of ``spec`` run
    with desc alone (a diverged run scores inf); returns (rate, final loss)."""

    def final_loss(eta: float) -> float:
        trial = _with_rate(desc, eta)
        run = replace(spec, optimizers=(trial,), record_every=spec.steps, out_dir=None)
        row = run_experiment(run).summary["optimizers"][desc.name]
        return row["final_loss"] if not row["diverged"] else float("inf")

    return theory.tune_learning_rate(final_loss, lo, 1.0, grid_points=grid_points)


def _with_rate(desc: OptimizerDescriptor, eta: float) -> OptimizerDescriptor:
    return replace(desc, config=replace(desc.config, learning_rate=eta))


def _quadratic_descriptors(adam_lr: float):
    whitened = OptimizerConfig(kind="whitened_gd_optimal", learning_rate=1.0)
    return (
        OptimizerDescriptor("gd_optimal", OptimizerConfig(kind="gd_optimal")),
        OptimizerDescriptor("adam", OptimizerConfig(kind="adam", learning_rate=adam_lr)),
        OptimizerDescriptor("newton", OptimizerConfig(kind="newton", learning_rate=1.0)),
        OptimizerDescriptor("whitened", whitened),
        OptimizerDescriptor("whitened_ortho", whitened, orthogonal_init=True),
    )


def _cmd_quadratic(args) -> int:
    problem = ProblemSpec(kind="quadratic", seed=args.seed, m=args.m, n=args.n, kappa=args.kappa)
    spec = _spec(args, problem, _quadratic_descriptors(1e-3))  # adam's rate is tuned next
    adam_lr, _ = _tune(spec, spec.optimizers[1], 1e-3, 8)
    tuned = replace(spec, optimizers=_quadratic_descriptors(adam_lr))
    rows = run_experiment(tuned).summary["optimizers"]
    _say(args, f"quadratic m={args.m} kappa={args.kappa:g}, adam lr {adam_lr:.4g}")
    for name, row in rows.items():
        _say(
            args,
            f"  {name}: final excess {_num(row['final_loss_minus_opt'], '.3e')} "
            f"steps_to_threshold={row['steps_to_threshold']}",
        )
    return 0


def _cmd_rastrigin(args) -> int:
    exact = WhiteningConfig(mode="exact_eig")
    whitened = OptimizerConfig(
        kind="swan", ablation="whiten_only", swan_rescale=False, whitening_cfg=exact
    )
    candidates = (
        OptimizerDescriptor("sgd", OptimizerConfig(kind="sgd")),
        OptimizerDescriptor("adam", OptimizerConfig(kind="adam")),
        OptimizerDescriptor("whitened", whitened),
        OptimizerDescriptor("swan", OptimizerConfig(kind="swan", whitening_cfg=exact)),
    )
    spec = _spec(args, ProblemSpec(kind="rastrigin", m=args.m, seed=args.seed), candidates)
    tuned = []
    for desc in candidates:
        eta, val = _tune(spec, desc, 1e-4, args.grid_points)
        _say(args, f"tuned {desc.name}: eta={eta:.4g} final={val:.4f}")
        tuned.append(_with_rate(desc, eta))
    tuned.append(replace(tuned[2], name="whitened_ortho", orthogonal_init=True))
    rows = run_experiment(replace(spec, optimizers=tuple(tuned))).summary["optimizers"]
    for name, row in rows.items():
        _say(args, f"  {name}: final loss {_num(row['final_loss'], '.4f')}")
    return 0


def _cmd_mlp_kl(args) -> int:
    if args.snapshot_every > args.steps:
        raise ConfigError(f"--snapshot-every {args.snapshot_every} exceeds --steps {args.steps}")
    sgd = OptimizerConfig(kind="sgd", learning_rate=args.lr)
    problem = MlpProblem(teacher_seed=args.seed)
    weights = problem.initial_weights(args.seed + 1)
    ref = {
        pre: analysis.snapshot_gradients(
            problem, weights, pre, args.n_batches, args.seed + 2, block=args.block
        )
        for pre in ("raw", "gradnorm")
    }
    rng = np.random.default_rng(args.seed + 3)
    rows = []
    for t in range(1, args.steps + 1):
        _, grads = problem.loss_and_grads(weights, int(rng.integers(0, 2**63 - 1)))
        weights = [sgd_step(w, g, sgd) for w, g in zip(weights, grads)]
        if t % args.snapshot_every == 0:
            kls = {}
            for pre in ("raw", "gradnorm"):
                snap = analysis.snapshot_gradients(
                    problem, weights, pre, args.n_batches, args.seed * 100003 + t, block=args.block
                )
                kls[pre] = analysis.kl_to_reference(snap, ref[pre])
            rows.append((t, kls["raw"], kls["gradnorm"]))
    write_csv(_out_dir(args) / "kl_trace.csv", "step,kl_raw,kl_gradnorm", rows)
    cut = 0.05 * args.steps
    avg_raw = float(np.mean([a for t, a, _ in rows if t > cut]))
    avg_gn = float(np.mean([b for t, _, b in rows if t > cut]))
    _say(args, f"time-averaged KL (skipping first 5%): raw={avg_raw:.4f} gradnorm={avg_gn:.4f}")
    return 0


def _cmd_stb(args) -> int:
    system = StbSystem.seeded(
        context_len=args.context_len, width=args.width, seed=args.seed, dt=args.dt
    )
    traj = stb_integrate(system, steps=args.steps, seed=args.seed)
    div = hessian_block_divergence(system, traj.final_state)
    summary = dict(aborted_at=traj.aborted_at, final_step=traj.final_step, block_divergence=div)
    write_json(_out_dir(args) / "stb_summary.json", summary)
    _say(
        args,
        f"stb: integrated to step {traj.final_step}"
        f"{f' (blow-up guard at {traj.aborted_at})' if traj.aborted_at else ''}, "
        f"normalized-block divergence {div:.3e}",
    )
    return 0


def _cmd_ns_bench(args) -> int:
    exact = WhiteningConfig(mode="exact_eig")
    cfg = WhiteningConfig(iterations=args.k, step_size=args.beta, update_order=args.update_order)
    rows = []
    for kappa in args.kappas:
        worst = 0.0
        for s in range(args.seeds):
            u = sample_stiefel(args.m, args.m, 3 * s + 1).T
            v = sample_stiefel(args.m, args.n, 3 * s + 2)
            sv = np.geomspace(1.0, np.sqrt(kappa), args.m)
            g = (u * sv) @ v
            g = g / np.linalg.norm(g)
            err = float(np.linalg.norm(grad_whitening(g, cfg) - grad_whitening(g, exact)))
            worst = max(worst, err)
        rows.append((args.beta, args.k, kappa, worst))
    write_csv(_out_dir(args) / "ns_bench.csv", "beta,k,kappa,max_whitening_error", rows)
    for b, k, ka, e in rows:
        _say(args, f"beta={b} k={k} kappa={ka:g}: max error vs exact {e:.3e}")
    return 0


def _cmd_theory(args) -> int:
    from .problems import QuadraticProblem

    reports = []
    rng = np.random.default_rng(args.seed)
    for i in range(20):
        m = (4, 20, 50)[i % 3]
        p = QuadraticProblem.seeded(m, m, 10.0 ** (1 + i % 4), args.seed + i)
        w = random_matrix(m, m, args.seed + 1000 + i)
        reports.append(theory.measure_whitened_contraction(p, w, context=f"m={m} i={i}"))
    worst_gap = max(r.abs_error for r in reports)

    stiefel_worst = 0.0
    for i, kappa in enumerate((10.0, 1e4) * 5):
        rel = theory.stiefel_one_step_relative_loss(50, kappa, args.seed + i, args.seed + 50 + i)
        stiefel_worst = max(stiefel_worst, rel)

    bound_rows = []
    for kappa in (10.0, 100.0, 1e4):
        loss_f, dist_f = theory.gd_adversarial_factors(kappa)
        bound_rows.append((kappa, theory.predict_gd_bound(kappa), loss_f, dist_f))

    qs = []
    for kappa in (1e1, 1e2, 1e4, 1e6):
        p = QuadraticProblem.seeded(20, 20, kappa, args.seed)
        qs.append((kappa, theory.robustness_q(p, np.eye(20))))

    table = [("whitened_contraction", r.context, r.predicted, r.measured) for r in reports]
    for kappa, bound, loss_f, dist_f in bound_rows:
        table.append(("gd_bound_distance", f"kappa={kappa:g}", bound, dist_f))
        table.append(("gd_bound_loss", f"kappa={kappa:g}", bound * bound, loss_f))
    table += [("robustness_q", f"kappa={kappa:g}", None, q) for kappa, q in qs]
    write_csv(_out_dir(args) / "theory_reports.csv", "check,context,predicted,measured", table)

    _say(args, f"whitened contraction: max |predicted - measured| = {worst_gap:.3e}")
    _say(args, f"stiefel one-step: worst relative excess loss = {stiefel_worst:.3e}")
    for kappa, bound, loss_f, dist_f in bound_rows:
        _say(
            args,
            f"gd kappa={kappa:g}: distance factor {dist_f:.8f} (bound {bound:.8f}), "
            f"loss factor {loss_f:.8f} (bound^2 {bound * bound:.8f})",
        )
    for kappa, q in qs:
        _say(args, f"robustness Q at kappa={kappa:g}: {q:.5f}")
    return 0


def _cmd_speedup(args) -> int:
    sa, va = read_curve_csv(args.baseline)
    sc, vc = read_curve_csv(args.candidate)
    base = analysis.PplCurve(steps=sa, values=va)
    cand = analysis.PplCurve(steps=sc, values=vc)
    result = analysis.counterfactual_additive(base, cand)
    out = _out_dir(args) / "speedup.csv"
    table = [
        (p.threshold, p.steps_baseline, p.steps_candidate, p.ratio, ra)
        for p, (_, ra) in zip(result.points, result.additive_ratio)
    ]
    write_csv(out, "threshold,steps_baseline,steps_candidate,ratio,ratio_additive", table)
    _say(args, f"delta = {result.delta:.4g} steps; table written to {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="swanopt", description=__doc__)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    parser.add_argument("--out-dir", default="runs")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("quadratic", help="five-method quadratic comparison")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--kappa", type=float, default=1e4)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--record-every", type=int, default=10)
    p.set_defaults(fn=_cmd_quadratic)

    p = sub.add_parser("rastrigin", help="tuned-rate comparison on matrix Rastrigin")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--grid-points", type=int, default=8)
    p.set_defaults(fn=_cmd_rastrigin)

    p = sub.add_parser("mlp-kl", help="gradient-distribution KL trace on the toy MLP")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--snapshot-every", type=_int_at_least(1), default=50)
    p.add_argument("--n-batches", type=int, default=16)
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.05)
    p.set_defaults(fn=_cmd_mlp_kl)

    p = sub.add_parser("stb", help="reduced transformer-block flow: final block divergence")
    p.add_argument("--context-len", type=int, default=10)
    p.add_argument("--width", type=int, default=12)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100000)
    p.set_defaults(fn=_cmd_stb)

    p = sub.add_parser("ns-bench", help="Newton-Schulz accuracy sweep vs the exact factor")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--kappas", type=_kappas, default="2,10,100")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--seeds", type=_int_at_least(1), default=20)
    p.add_argument("--update-order", choices=("chained", "paired"), default="paired")
    p.set_defaults(fn=_cmd_ns_bench)

    p = sub.add_parser("theory", help="run the convergence-theory check suites")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("speedup", help="speedup-ratio analysis of two trajectory CSVs")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.set_defaults(fn=_cmd_speedup)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # ConfigError and every library check
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
