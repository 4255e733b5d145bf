"""Step rules: SWAN and the baselines it is compared against.

Every step function is pure: it takes the current weight matrix (plus, for
Adam, an explicit state value) and returns the updated weights. Only Adam
carries state; the remaining kinds are stateless by construction, which is
the point of the exercise.

:func:`make_step` is the one step table: for every kind in :data:`KINDS` it
returns ``step(w, g, state, lr) -> (w_next, state, eta, info)``, the form the
harness runs. Its SWAN, SGD, sign and Adam entries take the rate as ``lr``
and trust their arrays, which the harness owns and has checked; the public
:func:`swan_step`, :func:`adam_step`, :func:`sgd_step` and
:func:`signed_step` check their inputs, then call the same bodies. The
curvature kinds read their constants (the spectrum, W*, Tr H) from the
:class:`~swanopt.problems.QuadraticProblem` they are built for. The public
curvature steps take that problem too and are thin calls into the same
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gradient_ops import (
    GradNormConfig,
    WhiteningConfig,
    _ns_whiten,
    _rescale,
    exact_polar,
    grad_norm,
)
from .matrixops import as_matrix, schatten1_norm
from .problems import QuadraticProblem

__all__ = [
    "KINDS",
    "STATELESS_KINDS",
    "ABLATIONS",
    "OptimizerConfig",
    "OptimizerState",
    "init_state",
    "moment_buffer_count",
    "make_step",
    "swan_step",
    "adam_step",
    "sgd_step",
    "signed_step",
    "gd_optimal_step",
    "newton_step",
    "whitened_gd_optimal_step",
    "whitened_optimal_learning_rate",
    "linear_warmup_decay",
]

KINDS = (
    "swan",
    "sgd",
    "adam",
    "signed_sgd",
    "gd_optimal",
    "newton",
    "whitened_gd_optimal",
)
STATELESS_KINDS = tuple(k for k in KINDS if k != "adam")
ABLATIONS = ("full", "norm_only", "whiten_only")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "swan"
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    swan_rescale: bool = True
    grad_norm_cfg: GradNormConfig = field(default_factory=GradNormConfig)
    whitening_cfg: WhiteningConfig = field(default_factory=WhiteningConfig)
    ablation: str = "full"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.adam_beta1 < 1.0:
            raise ValueError(f"adam_beta1 must be in [0, 1), got {self.adam_beta1}")
        if not 0.0 <= self.adam_beta2 <= 1.0:
            raise ValueError(f"adam_beta2 must be in [0, 1], got {self.adam_beta2}")
        if not 0.0 < self.adam_epsilon < np.inf:
            raise ValueError(f"adam_epsilon must be finite and > 0, got {self.adam_epsilon}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


@dataclass(frozen=True)
class OptimizerState:
    """Step counter plus (for Adam only) the two EMA moment buffers."""

    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def init_state(cfg: OptimizerConfig, shape: tuple[int, int]) -> OptimizerState:
    """Fresh state: zero moment buffers for adam, none for stateless kinds."""
    if cfg.kind == "adam":
        return OptimizerState(
            step=0,
            first_moment=np.zeros(shape),
            second_moment=np.zeros(shape),
        )
    return OptimizerState(step=0)


def moment_buffer_count(state: OptimizerState) -> int:
    return int(state.first_moment is not None) + int(state.second_moment is not None)


def _checked(name: str, kind: str, w, g, cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The input rule of the public step ``name``: a ``kind`` config, and ``w``
    and ``g`` finite matrices of one shape."""
    if cfg.kind != kind:
        raise ValueError(f"{name} called with kind={cfg.kind!r}")
    g = as_matrix(g, "g")
    return as_matrix(w, "w", g.shape), g


def swan_step(w, g, cfg: OptimizerConfig) -> np.ndarray:
    """One stateless SWAN step: normalize rows, whiten, optionally rescale.

    Inputs with more rows than columns are handled by transposing the whole
    step (through views, not copies). Ablations: ``norm_only`` skips
    whitening, ``whiten_only`` skips the row normalization. ``w`` and ``g``
    are never written.

    Working set beyond its inputs, for an m x n block at the Newton-Schulz
    default: 2 m x n + min(m, n)^2, against SGD's 2 m x n. The step owns two
    m x n buffers. G~ is divided by its norm in place in the first (under
    ``whiten_only``, that buffer is the step's own copy of ``g``). Z G~ goes
    into the second, where the rescale, the rate and the subtraction from
    ``w`` are applied in place. The min(m, n)^2 is Z. While Newton-Schulz
    runs, more such squares sit beside G~: below 128 rows, the Gram matrix
    and the loop's four buffers; from 128 rows, the Gram matrix, ``eigh``'s
    eigenvectors, their scaled copy and Z, plus about 2 min(m, n)^2 doubles of
    LAPACK workspace inside ``eigh``, which numpy allocates outside its
    array memory (tracemalloc does not count it). Exact mode keeps its SVD
    and its buffers.
    """
    w, g = _checked("swan_step", "swan", w, g, cfg)
    if w.shape[0] > w.shape[1]:
        return swan_step(w.T, g.T, cfg).T
    return _swan(w, g, cfg, cfg.learning_rate)


def _swan(w: np.ndarray, g: np.ndarray, cfg: OptimizerConfig, lr: float) -> np.ndarray:
    """:func:`swan_step` at rate ``lr`` on checked arrays; a tall block is
    stepped transposed."""
    if w.shape[0] > w.shape[1]:
        return _swan(w.T, g.T, cfg, lr).T
    g_tilde = g if cfg.ablation == "whiten_only" else grad_norm(g, cfg.grad_norm_cfg)
    if cfg.ablation == "norm_only":
        delta = g_tilde
    else:
        if cfg.whitening_cfg.mode == "exact_eig":
            delta, scale = exact_polar(g_tilde)[0], float(np.linalg.norm(g_tilde))
        else:
            delta, scale = _ns_whiten(g_tilde, cfg.whitening_cfg, overwrite=g_tilde is not g)
        if cfg.swan_rescale:
            _rescale(delta, scale, out=delta)
    np.multiply(delta, lr, out=delta)
    return np.subtract(w, delta, out=delta)


def adam_step(
    w, g, state: OptimizerState, cfg: OptimizerConfig
) -> tuple[np.ndarray, OptimizerState]:
    """One Adam step with bias correction; returns updated weights and state.

    The theoretical beta2 = 1 variant freezes the second moment at the first
    squared gradient (its bias correction would divide by zero) so the update
    becomes gradient descent preconditioned by diag(|G^0|^-1).
    """
    w, g = _checked("adam_step", "adam", w, g, cfg)
    if state.step > 0 and (state.first_moment is None or state.second_moment is None):
        raise ValueError(f"uninitialized adam state at step {state.step}")
    m = state.first_moment if state.first_moment is not None else np.zeros_like(w)
    nu = state.second_moment if state.second_moment is not None else np.zeros_like(w)
    if m.shape != w.shape or nu.shape != w.shape:
        raise ValueError("adam state buffers do not match the parameter shape")
    return _adam(w, g, state.step, m, nu, cfg, cfg.learning_rate)


def _adam(
    w: np.ndarray,
    g: np.ndarray,
    step: int,
    m: np.ndarray,
    nu: np.ndarray,
    cfg: OptimizerConfig,
    lr: float,
) -> tuple[np.ndarray, OptimizerState]:
    """:func:`adam_step` at rate ``lr`` on checked arrays and moment buffers."""
    t = step + 1
    m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * g
    if cfg.adam_beta2 == 1.0:
        nu = g * g if step == 0 else nu
        nu_hat = nu
    else:
        nu = cfg.adam_beta2 * nu + (1.0 - cfg.adam_beta2) * g * g
        nu_hat = nu / (1.0 - cfg.adam_beta2**t)
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    w_new = w - lr * m_hat / (np.sqrt(nu_hat) + cfg.adam_epsilon)
    return w_new, OptimizerState(step=t, first_moment=m, second_moment=nu)


def sgd_step(w, g, cfg: OptimizerConfig) -> np.ndarray:
    w, g = _checked("sgd_step", "sgd", w, g, cfg)
    return _sgd(w, g, cfg.learning_rate)


def _sgd(w: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    return w - lr * g


def signed_step(w, g, cfg: OptimizerConfig) -> np.ndarray:
    """Sign descent; sign(0) = 0 so exact zeros get no direction bias."""
    w, g = _checked("signed_step", "signed_sgd", w, g, cfg)
    return _signed(w, g, cfg.learning_rate)


def _signed(w: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    return w - lr * np.sign(g)


_NAN = float("nan")


def make_step(cfg: OptimizerConfig, problem) -> Callable:
    """The step of ``cfg.kind``: ``step(w, g, state, lr) -> (w_next, state, eta, info)``.

    ``lr`` is the rate of this step (it overrides ``cfg.learning_rate``) and
    ``eta`` the rate actually applied: the GD-optimal and whitened kinds set
    their own. The SWAN, SGD, sign and Adam entries pass ``lr`` straight to
    the bodies of the public steps and check nothing: ``w`` and ``g`` must be
    finite float64 arrays of one shape, and ``state`` must come from
    :func:`init_state` or an earlier step, as in the harness, which owns them.
    The curvature kinds need a quadratic ``problem`` (this is the
    one place that rejects any other) and ``g`` its gradient at ``w``; they
    read its closed forms: ``gd_optimal`` its spectrum, ``newton`` W* (it
    steps to W* + (1 - lr)(w - W*), so lr = 1 lands on W* exactly),
    ``whitened_gd_optimal`` Tr H. ``info`` is NaN except for
    ``whitened_gd_optimal`` on a problem with C = 0, the only form for which
    it holds: there it is the closed-form one-step loss contraction
    1 - ||g||_*^2 / (<w, g> Tr H). The whitened step takes the polar factor
    and ||g||_* from one thin SVD.
    """
    kind = cfg.kind
    if kind == "swan":
        return lambda w, g, state, lr: (_swan(w, g, cfg, lr), state, lr, _NAN)
    if kind == "sgd":
        return lambda w, g, state, lr: (_sgd(w, g, lr), state, lr, _NAN)
    if kind == "signed_sgd":
        return lambda w, g, state, lr: (_signed(w, g, lr), state, lr, _NAN)
    if kind == "adam":

        def adam(w, g, state, lr):
            w_next, state = _adam(
                w, g, state.step, state.first_moment, state.second_moment, cfg, lr
            )
            return w_next, state, lr, _NAN

        return adam
    if not isinstance(problem, QuadraticProblem):
        raise ValueError(f"{kind} steps need a quadratic problem and its Hessian")
    if kind == "gd_optimal":
        eta = 2.0 / (problem.eigenvalues[0] + problem.eigenvalues[-1])
        return lambda w, g, state, lr: (w - eta * g, state, eta, _NAN)
    if kind == "newton":
        w_star = problem.w_star
        return lambda w, g, state, lr: (w_star + (1.0 - lr) * (w - w_star), state, lr, _NAN)
    trace_h = float(np.trace(problem.h))
    predicts = not np.any(problem.c)

    def whitened(w, g, state, lr):
        g = as_matrix(g, "g")
        w = as_matrix(w, "w", g.shape)
        polar, s = exact_polar(g)
        nuclear = s.sum()
        eta = float(nuclear) / trace_h
        info = float(1.0 - nuclear * nuclear / (np.vdot(w, g) * trace_h)) if predicts else _NAN
        return w - eta * polar, state, eta, info

    return whitened


def _quadratic_step(kind: str, w, problem: QuadraticProblem, lr: float = 1.0) -> np.ndarray:
    """One ``kind`` step at ``w`` on ``problem``; its ``grad`` checks ``w``."""
    step = make_step(OptimizerConfig(kind=kind), problem)
    return step(w, problem.grad(w), OptimizerState(), lr)[0]


def gd_optimal_step(w, problem: QuadraticProblem) -> np.ndarray:
    """Gradient descent on ``problem`` at the optimal constant rate
    2 / (lambda_max + lambda_min) of its Hessian."""
    return _quadratic_step("gd_optimal", w, problem)


def newton_step(w, problem: QuadraticProblem, eta: float) -> np.ndarray:
    """Damped Newton step on ``problem``: W* + (1 - eta)(w - W*)."""
    return _quadratic_step("newton", w, problem, eta)


def whitened_optimal_learning_rate(problem: QuadraticProblem, g) -> float:
    """Dynamic rate ||g||_* / Tr(H) of whitened descent on ``problem``."""
    return schatten1_norm(g) / float(np.trace(problem.h))


def whitened_gd_optimal_step(w, problem: QuadraticProblem) -> np.ndarray:
    """Whitened gradient descent on ``problem`` with its optimal dynamic rate.

    The gradient g = H w - C is replaced by its orthogonal polar factor and
    scaled by ||g||_* / Tr(H); when C = 0 this reaches the optimum in a single
    step from a row-orthonormal start.
    """
    return _quadratic_step("whitened_gd_optimal", w, problem)


def linear_warmup_decay(
    step: int, total_steps: int, base_lr: float, warmup_fraction: float = 0.0
) -> float:
    """Linear warmup to ``base_lr`` then linear decay to ``0.1 * base_lr``.

    ``step`` is 0-based. With ``warmup_fraction=0`` this is plain linear decay
    to the floor, the schedule shape used when comparing against warmup runs.
    """
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    warm = warmup_fraction * total_steps
    if warm > 0 and step < warm:
        return base_lr * (step + 1) / warm
    if total_steps == warm:
        return base_lr
    frac = (step - warm) / (total_steps - warm)
    frac = min(max(frac, 0.0), 1.0)
    return base_lr * (1.0 - 0.9 * frac)

