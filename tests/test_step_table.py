"""The step table (``optimizers.make_step``) against the public step functions
and the harness, for every optimizer kind on a small C = 0 quadratic."""

from dataclasses import replace

import numpy as np
import pytest

from swanopt.gradient_ops import WhiteningConfig
from swanopt.harness import ExperimentSpec, OptimizerDescriptor, ProblemSpec, run_experiment
from swanopt.matrixops import random_matrix
from swanopt.optimizers import (
    ABLATIONS,
    KINDS,
    OptimizerConfig,
    OptimizerState,
    adam_step,
    gd_optimal_step,
    init_state,
    make_step,
    newton_step,
    sgd_step,
    signed_step,
    swan_step,
    whitened_gd_optimal_step,
    whitened_optimal_learning_rate,
)
from swanopt.problems import QuadraticProblem, RastriginProblem
from swanopt.theory import predict_whitened_contraction

PROBLEM = ProblemSpec(kind="quadratic", seed=4, m=6, n=9, kappa=50.0)
SEED = 7
LR = 0.05


def _config(kind):
    return OptimizerConfig(kind=kind, learning_rate=LR)


def _start():
    problem = PROBLEM.build()
    w = PROBLEM.init_scale * random_matrix(*problem.shape, SEED)
    return problem, w, problem.grad(w)


def _public_step(cfg, w, state, problem):
    """(w_next, state) from the public step of ``cfg.kind``."""
    g = problem.h @ w
    public = {
        "swan": lambda: (swan_step(w, g, cfg), state),
        "sgd": lambda: (sgd_step(w, g, cfg), state),
        "signed_sgd": lambda: (signed_step(w, g, cfg), state),
        "adam": lambda: adam_step(w, g, state, cfg),
        "gd_optimal": lambda: (gd_optimal_step(w, problem), state),
        "newton": lambda: (newton_step(w, problem, LR), state),
        "whitened_gd_optimal": lambda: (whitened_gd_optimal_step(w, problem), state),
    }
    assert set(public) == set(KINDS)
    return public[cfg.kind]()


# name -> (config, problem, steps): every kind for one step, then SWAN on a
# tall block (which it steps transposed) in each ablation and whitening mode,
# and Adam over consecutive steps with its state carried
TALL = replace(PROBLEM, m=9, n=6)
STEP_CASES = {kind: (_config(kind), PROBLEM, 1) for kind in KINDS}
STEP_CASES.update(
    {
        f"swan-{ablation}-{mode}-{name}": (
            replace(_config("swan"), ablation=ablation, whitening_cfg=WhiteningConfig(mode=mode)),
            spec,
            1,
        )
        for ablation in ABLATIONS
        for mode in ("newton_schulz", "exact_eig")
        for name, spec in (("wide", PROBLEM), ("tall", TALL))
    }
)
STEP_CASES["adam-3-steps"] = (_config("adam"), PROBLEM, 3)


@pytest.mark.parametrize("case", STEP_CASES)
def test_table_step_equals_public_step(case):
    cfg, spec, steps = STEP_CASES[case]
    problem = spec.build()
    step = make_step(cfg, problem)
    table = public = spec.init_scale * random_matrix(*problem.shape, SEED)
    table_state = public_state = init_state(cfg, problem.shape)
    for _ in range(steps):
        table, table_state, _, _ = step(table, problem.grad(table), table_state, LR)
        public, public_state = _public_step(cfg, public, public_state, problem)
        assert np.array_equal(table, public)
    assert table_state.step == public_state.step


@pytest.mark.parametrize("kind", KINDS)
def test_first_record_equals_table_step(kind):
    problem, w, g = _start()
    cfg = _config(kind)
    w_next, _, eta, info = make_step(cfg, problem)(w, g, init_state(cfg, w.shape), LR)
    rec = _first_record(cfg)
    assert rec.loss == problem.loss(w_next)
    assert rec.update_fro == float(np.linalg.norm(w_next - w))
    assert rec.eta == eta
    np.testing.assert_equal(rec.diag1, info)


def _first_record(cfg):
    spec = ExperimentSpec(
        problem=PROBLEM,
        optimizers=(OptimizerDescriptor("x", cfg),),
        steps=1,
        record_every=1,
        seed=SEED,
    )
    return run_experiment(spec).trajectories["x"][0]


def test_whitened_diag1_is_the_contraction_prediction():
    problem, w, _ = _start()
    rec = _first_record(_config("whitened_gd_optimal"))
    assert rec.diag1 == pytest.approx(predict_whitened_contraction(problem, w), rel=1e-10)


@pytest.mark.parametrize("c_scale", (0.0, 1.0))
def test_whitened_info_is_nan_unless_c_is_zero(c_scale):
    problem = ProblemSpec(kind="quadratic", seed=4, m=6, n=9, kappa=50.0, c_scale=c_scale).build()
    w = random_matrix(*problem.shape, SEED)
    step = make_step(_config("whitened_gd_optimal"), problem)
    _, _, _, info = step(w, problem.grad(w), OptimizerState(), 1.0)
    assert np.isfinite(info) == (c_scale == 0.0)


CURVATURE_CALLS = {
    "gd_optimal_step": lambda problem, w, g: gd_optimal_step(w, problem),
    "newton_step": lambda problem, w, g: newton_step(w, problem, LR),
    "whitened_gd_optimal_step": lambda problem, w, g: whitened_gd_optimal_step(w, problem),
    "whitened_optimal_learning_rate": lambda problem, w, g: whitened_optimal_learning_rate(
        problem, g
    ),
}


@pytest.mark.parametrize("name", sorted(CURVATURE_CALLS))
def test_curvature_step_builds_no_problem(name, monkeypatch):
    problem, w, g = _start()
    built = []
    init = QuadraticProblem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadraticProblem, "__init__", counting_init)
    CURVATURE_CALLS[name](problem, w, g)
    assert len(built) == 0


@pytest.mark.parametrize("kind", ("gd_optimal", "newton", "whitened_gd_optimal"))
def test_curvature_kinds_need_the_hessian(kind):
    for problem in (None, RastriginProblem(size=3)):
        with pytest.raises(ValueError, match="quadratic problem and its Hessian"):
            make_step(OptimizerConfig(kind=kind), problem)


def test_newton_at_rate_one_lands_on_the_optimum():
    problem = ProblemSpec(kind="quadratic", seed=4, m=6, n=9, kappa=50.0, c_scale=1.0).build()
    w = random_matrix(*problem.shape, SEED)
    step = make_step(_config("newton"), problem)
    w_next, _, _, _ = step(w, problem.grad(w), OptimizerState(), 1.0)
    assert np.array_equal(w_next, problem.w_star)
    again, _, _, _ = step(w_next, problem.grad(w_next), OptimizerState(), 1.0)
    assert np.array_equal(again, problem.w_star)


def test_newton_iterates_stay_normal():
    # swanopt quadratic's problem and start; subnormal iterates make every step slow
    spec = ProblemSpec(kind="quadratic", seed=0, m=50, n=50, kappa=1e4)
    problem = spec.build()
    w = spec.init_scale * random_matrix(*problem.shape, 0)
    step = make_step(_config("newton"), problem)
    for _ in range(30):
        w, _, _, _ = step(w, problem.grad(w), OptimizerState(), 1.0)
        assert not np.any((w != 0.0) & (np.abs(w) < np.finfo(np.float64).tiny))
