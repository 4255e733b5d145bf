"""Numerical checks of the quadratic-case convergence theory.

Predicted quantities (one-step contraction of whitened descent, the gradient
descent lower bound, the preconditioned Adam bound, the robustness ratio Q)
are computed from their closed forms and compared against factors measured
from actual optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gradient_ops import exact_polar
from .matrixops import as_matrix, sample_stiefel, schatten1_norm, sym_eig
from .optimizers import (
    OptimizerConfig,
    adam_step,
    gd_optimal_step,
    init_state,
    whitened_gd_optimal_step,
)
from .problems import QuadraticProblem

__all__ = [
    "ContractionReport",
    "predict_whitened_contraction",
    "measure_whitened_contraction",
    "predict_gd_bound",
    "predict_adam_bound",
    "robustness_q",
    "gd_adversarial_factors",
    "compare_blockwise",
    "golden_section",
    "tune_learning_rate",
]


@dataclass(frozen=True)
class ContractionReport:
    """Predicted vs measured one-step loss contraction for one configuration."""

    predicted: float
    measured: float
    context: str = ""

    @property
    def abs_error(self) -> float:
        return abs(self.predicted - self.measured)


def predict_whitened_contraction(problem: QuadraticProblem, w) -> float:
    """Closed-form one-step loss contraction of whitened descent at its
    optimal dynamic rate: 1 - ||H z||_*^2 / (Tr(z^T H z) Tr(H)), z = w - W*."""
    z = as_matrix(w, "w", problem.shape) - problem.w_star
    hz = problem.h @ z
    q = float(np.vdot(z, hz))
    if q == 0.0:
        raise ValueError("w equals the optimum; contraction is 0/0")
    s = schatten1_norm(hz)
    return 1.0 - s * s / (q * float(np.trace(problem.h)))


def measure_whitened_contraction(
    problem: QuadraticProblem, w, context: str = ""
) -> ContractionReport:
    """One actual whitened step vs the closed form, as a report."""
    if np.any(problem.c):
        raise ValueError("measurement assumes the C = 0 form")
    predicted = predict_whitened_contraction(problem, w)
    before = problem.excess_loss(w)
    w_next = whitened_gd_optimal_step(w, problem)
    measured = problem.excess_loss(w_next) / before
    return ContractionReport(predicted=predicted, measured=measured, context=context)


def predict_gd_bound(kappa: float) -> float:
    """Worst-case per-step contraction of optimally tuned gradient descent,
    1 - 2/(kappa + 1), which the distance to the optimum attains exactly from
    an adversarial start (the loss contracts by its square)."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    return 1.0 - 2.0 / (kappa + 1.0)


def predict_adam_bound(problem: QuadraticProblem, w0) -> float:
    """Contraction bound 1 - 2/(kappa' + 1) for Adam with beta1=0, beta2=1.

    That variant is gradient descent preconditioned by diag(|H w0|^-1) column
    by column; kappa' is the condition number of the preconditioned operator,
    assembled per column as diag(d)^{1/2} H diag(d)^{1/2} (similar, hence the
    same spectrum, but symmetric).
    """
    z0 = as_matrix(w0, "w", problem.shape) - problem.w_star
    g0 = problem.h @ z0
    if np.any(g0 == 0.0):
        idx = np.argwhere(g0 == 0.0)[0]
        raise ValueError(
            f"|H w0| has a zero entry at {tuple(int(i) for i in idx)}; "
            "the preconditioner is undefined"
        )
    lo, hi = np.inf, 0.0
    for j in range(g0.shape[1]):
        root = 1.0 / np.sqrt(np.abs(g0[:, j]))
        sym = (problem.h * root[None, :]) * root[:, None]
        vals = sym_eig(sym).eigenvalues
        hi = max(hi, vals[0])
        lo = min(lo, vals[-1])
    return predict_gd_bound(hi / lo)


def robustness_q(problem: QuadraticProblem, w) -> float:
    """Q = Tr(H z)^2 / (Tr(z^T H z) Tr(H)) with z = w - W*; square z only."""
    z = as_matrix(w, "w", problem.shape) - problem.w_star
    if z.shape[0] != z.shape[1]:
        raise ValueError("robustness_q needs a square parameter matrix")
    hz = problem.h @ z
    q = float(np.vdot(z, hz))
    if q == 0.0:
        raise ValueError("w equals the optimum; Q is undefined")
    tr_hz = float(np.trace(hz))
    return tr_hz**2 / (q * float(np.trace(problem.h)))


def gd_adversarial_factors(kappa: float, m: int = 50) -> tuple[float, float]:
    """Measured one-step (loss factor, distance factor) of optimally tuned GD
    from the classical worst-case start on a diagonal spectrum.

    The start mixes the extreme eigendirections with equal energy,
    w0 = (e_1 + e_m)/sqrt(2); the distance to the optimum then contracts by
    exactly 1 - 2/(kappa+1) and the loss by its square.
    """
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    lam = np.geomspace(1.0, kappa, m)
    problem = QuadraticProblem(np.diag(lam), np.zeros((m, 1)))
    w0 = np.zeros((m, 1))
    w0[0, 0] = 1.0 / np.sqrt(2.0)
    w0[-1, 0] = 1.0 / np.sqrt(2.0)
    w1 = gd_optimal_step(w0, problem)
    loss_factor = problem.loss(w1) / problem.loss(w0)
    dist_factor = float(np.linalg.norm(w1) / np.linalg.norm(w0))
    return loss_factor, dist_factor


def golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-6
) -> float:
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def tune_learning_rate(
    objective: Callable[[float], float],
    lo: float = 1e-4,
    hi: float = 1.0,
    grid_points: int = 10,
) -> tuple[float, float]:
    """Grid scan on a geometric grid, then golden-section between the
    neighbors of the best point, to 5% of that bracket. Returns (eta,
    objective value). ``grid_points`` must be >= 2."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = np.geomspace(lo, hi, grid_points)
    values = [objective(float(e)) for e in grid]
    i = int(np.argmin(values))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, grid_points - 1)])
    eta = golden_section(objective, a, b, tol=0.05 * (b - a))
    val = objective(eta)
    if values[i] < val:
        return float(grid[i]), values[i]
    return eta, val


def _adam_one_step_factor(problem: QuadraticProblem, w0, eta: float) -> float:
    cfg = OptimizerConfig(
        kind="adam",
        learning_rate=eta,
        adam_beta1=0.0,
        adam_beta2=1.0,
        adam_epsilon=1e-300,
    )
    w1, _ = adam_step(w0, problem.grad(w0), init_state(cfg, problem.shape), cfg)
    return problem.excess_loss(w1) / problem.excess_loss(w0)


def compare_blockwise(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[ContractionReport, ContractionReport]]:
    """Per-block one-step contraction: whitened descent with one shared rate
    vs Adam (beta1=0, beta2=1) with a per-block tuned rate.

    ``blocks`` holds (H_l, W0_l) pairs, each H_l SPD. The shared whitened rate
    is min_l ||H_l W_l||_* / Tr(H_l); each block's nuclear norm and polar
    factor come from one thin SVD of its gradient. Adam's per-block rate
    minimizes its own measured one-step ratio by golden-section search (to
    1e-6 in eta). Returns one (whitened, adam) report pair per block.
    """
    problems = [QuadraticProblem(h, np.zeros_like(w)) for h, w in blocks]
    grads = [p.grad(w) for p, (_, w) in zip(problems, blocks)]
    polars = [exact_polar(g) for g in grads]
    eta_global = min(float(s.sum()) / float(np.trace(p.h)) for p, (_, s) in zip(problems, polars))
    out = []
    for idx, (p, (_, w0), g, (polar, _)) in enumerate(zip(problems, blocks, grads, polars)):
        w0 = as_matrix(w0, "w0")
        w1 = w0 - eta_global * polar
        white = ContractionReport(
            predicted=predict_whitened_contraction(p, w0),
            measured=p.excess_loss(w1) / p.excess_loss(w0),
            context=f"block {idx} whitened, shared eta={eta_global:.6g}",
        )
        # the measured ratio is an exact parabola in eta; bracket its vertex
        direction = g / np.abs(g)
        vertex = float(np.sum(np.abs(g)) / np.vdot(direction, p.h @ direction))
        eta_adam = golden_section(
            lambda e: _adam_one_step_factor(p, w0, e),
            vertex / 100.0,
            vertex * 100.0,
            tol=1e-6,
        )
        adam = ContractionReport(
            predicted=predict_adam_bound(p, w0),
            measured=_adam_one_step_factor(p, w0, eta_adam),
            context=f"block {idx} adam, tuned eta={eta_adam:.6g}",
        )
        out.append((white, adam))
    return out


def stiefel_one_step_relative_loss(
    m: int, condition_number: float, h_seed: int, w_seed: int
) -> float:
    """Relative excess loss after one whitened step from a Stiefel start."""
    problem = QuadraticProblem.seeded(m, m, condition_number, h_seed)
    w0 = sample_stiefel(m, m, w_seed)
    w1 = whitened_gd_optimal_step(w0, problem)
    return problem.excess_loss(w1) / problem.excess_loss(w0)
