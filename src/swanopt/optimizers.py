"""Step rules: SWAN and the baselines it is compared against.

Every step function is pure: it takes the current weight matrix (plus, for
Adam, an explicit state value) and returns the updated weights. Only Adam
carries state; the remaining kinds are stateless by construction, which is
the point of the exercise.

:func:`make_step` is the one step table: for every kind in :data:`KINDS` it
returns ``step(w, g, state, lr) -> (w_next, state, eta, info)``, the form the
harness runs. Its entries trust their arrays, which the harness owns and
has checked; the SWAN, SGD, sign and Adam entries take the rate as ``lr``.
The public :func:`swan_step`, :func:`adam_step`, :func:`sgd_step` and
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
    _BLOCK,
    GradNormConfig,
    WhiteningConfig,
    _descend,
    _exact_polar,
    _fro,
    _grad_norm,
    _ns_whiten,
    _rescale,
    exact_polar,
)
from .matrixops import _in_blocks, _one_block, as_matrix, schatten1_norm
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
# Public: the kinds that keep no state between steps, for which moment_buffer_count reads 0.
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
    """Public: how many m x n moment buffers ``state`` holds, 2 for Adam and 0 for the rest."""
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

    Inputs with more rows than columns are handled by transposing the whole step (through views,
    not copies) before the one input check. Ablations: ``norm_only`` skips whitening,
    ``whiten_only`` skips the row normalization. ``w`` and ``g`` are never written.

    Working set beyond its inputs, at the Newton-Schulz default and k = min(m, n): one m x n array
    (G~, in GradNorm's centred copy, then the returned weights) and one k x k (the Gram matrix of
    G~, then Z'', into which the rescale, the rate and GradNorm's row statistics fold), beside,
    below 128 rows, the loop's two more k x k arrays (a square block peaks at 3 k^2), from 128 V,
    whose buffer holds V sqrt(phi + c) at any step size, and ``eigh``'s uncounted LAPACK
    workspace. The rule is ``gradient_ops._ns_whiten``'s, the numbers CHANGES.md's. Exact mode
    keeps its SVD and buffers.
    """
    w, g = np.asarray(w), np.asarray(g)
    if w.ndim == 2 and w.shape == g.shape and w.shape[0] > w.shape[1]:  # checked once, transposed
        return swan_step(w.T, g.T, cfg).T
    w, g = _checked("swan_step", "swan", w, g, cfg)
    return _swan(w, g, cfg, cfg.learning_rate)


def _swan(w: np.ndarray, g: np.ndarray, cfg: OptimizerConfig, lr: float) -> np.ndarray:
    """:func:`swan_step` at rate ``lr`` on checked arrays; a tall block is
    stepped transposed."""
    if w.shape[0] > w.shape[1]:
        return _swan(w.T, g.T, cfg, lr).T
    norm = None if cfg.ablation == "whiten_only" else cfg.grad_norm_cfg
    if cfg.ablation != "norm_only" and cfg.whitening_cfg.mode == "newton_schulz":
        return _ns_whiten(g, cfg.whitening_cfg, norm, cfg.swan_rescale, lr, w)  # G~'s one owner
    g_tilde = g if norm is None else _grad_norm(g, norm)[0]  # a new array but whiten-only
    if cfg.ablation == "norm_only":
        return _descend(w, g_tilde, lr)
    delta = _exact_polar(g_tilde)[0]
    if cfg.swan_rescale:
        _rescale(delta, _fro(g_tilde))
    return _descend(w, delta, lr)


def adam_step(
    w, g, state: OptimizerState, cfg: OptimizerConfig
) -> tuple[np.ndarray, OptimizerState]:
    """One Adam step with bias correction; returns updated weights and state.

    The theoretical beta2 = 1 variant freezes the second moment at the first
    squared gradient (its bias correction would divide by zero) so the update
    becomes gradient descent preconditioned by diag(|G^0|^-1).

    Working set beyond its inputs, for an m x n block: the three returned arrays (m', nu', weights)
    plus one scratch row block of at most ``_BLOCK`` entries (all m x n if that fits in one). ``w``,
    ``g`` and the state are never written; with beta2 = 1 after the first step, nu' is the state's
    own second moment.
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
    m_new, w_new = np.empty(w.shape), np.empty(w.shape)
    nu_new = nu if cfg.adam_beta2 == 1.0 and step > 0 else np.empty(w.shape)
    if _one_block(w.size, _BLOCK):
        _adam_block(w, g, m, nu, m_new, nu_new, w_new, np.empty(w.shape), t, cfg, lr)
    else:
        _in_blocks(_adam_rows, (w, g, m, nu, m_new, nu_new, w_new, t, cfg, lr), w, 0, 1, _BLOCK)
    return w_new, OptimizerState(step=t, first_moment=m_new, second_moment=nu_new)


def _adam_rows(args, rows, lo, hi) -> None:
    """:func:`_adam_block` of ``args`` on blocks lo .. hi - 1 of ``rows`` rows, via one scratch."""
    w, g, m, nu, m_new, nu_new, w_new, t, cfg, lr = args
    scratch = np.empty((rows, w.shape[1]))
    for i in range(lo * rows, min(hi * rows, len(w)), rows):
        b = slice(i, i + rows)
        s = scratch[: len(w[b])]
        _adam_block(w[b], g[b], m[b], nu[b], m_new[b], nu_new[b], w_new[b], s, t, cfg, lr)


def _adam_block(w, g, m, nu, m_new, nu_new, w_new, s, t, cfg, lr) -> None:
    """Adam's step ``t`` on one row block into ``m_new``, ``nu_new``, ``w_new`` via the
    scratch ``s``, in whole-array order: m' = b1 m + (1 - b1) g, nu' = b2 nu + ((1 -
    b2) g) g, w - (lr (m' / (1 - b1^t))) / (sqrt(nu' / (1 - b2^t)) + eps)."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    np.multiply(m, b1, out=m_new)
    np.add(m_new, np.multiply(g, 1.0 - b1, out=s), out=m_new)
    if b2 == 1.0:
        nu_hat = nu_new if t > 1 else np.multiply(g, g, out=nu_new)
    else:
        np.multiply(nu, b2, out=nu_new)
        np.multiply(g, 1.0 - b2, out=s)
        np.add(nu_new, np.multiply(s, g, out=s), out=nu_new)
        nu_hat = np.divide(nu_new, 1.0 - b2**t, out=s)
    np.add(np.sqrt(nu_hat, out=s), cfg.adam_epsilon, out=s)
    np.divide(m_new, 1.0 - b1**t, out=w_new)
    np.multiply(w_new, lr, out=w_new)
    np.divide(w_new, s, out=w_new)
    np.subtract(w, w_new, out=w_new)


def sgd_step(w, g, cfg: OptimizerConfig) -> np.ndarray:
    w, g = _checked("sgd_step", "sgd", w, g, cfg)
    return _sgd(w, g, cfg.learning_rate)


def _sgd(w: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """w - lr g in one new buffer; ``w`` and ``g`` are not written."""
    s = np.multiply(g, lr)
    return np.subtract(w, s, out=s)


def signed_step(w, g, cfg: OptimizerConfig) -> np.ndarray:
    """Sign descent; sign(0) = 0 so exact zeros get no direction bias."""
    w, g = _checked("signed_step", "signed_sgd", w, g, cfg)
    return _signed(w, g, cfg.learning_rate)


def _signed(w: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """w - lr sign(g) in one new buffer; ``w`` and ``g`` are not written."""
    s = np.sign(g)
    return np.subtract(w, np.multiply(s, lr, out=s), out=s)


_NAN = float("nan")


def make_step(cfg: OptimizerConfig, problem) -> Callable:
    """The step of ``cfg.kind``: ``step(w, g, state, lr) -> (w_next, state, eta, info)``.

    ``lr`` is the rate of this step (it overrides ``cfg.learning_rate``) and
    ``eta`` the rate actually applied: the GD-optimal and whitened kinds set
    their own. Every entry trusts its arrays: ``w`` and ``g`` must be finite
    float64 arrays of one shape, and ``state`` must come from
    :func:`init_state` or an earlier step, as in the harness, which owns and
    has checked them. The SWAN, SGD, sign and Adam entries pass ``lr``
    straight to the bodies of the public steps. The curvature kinds need a
    quadratic ``problem`` (this is the one place that rejects any other) and
    ``g`` its gradient at ``w``; they read its closed forms: ``gd_optimal``
    its spectrum, ``newton`` W* (it steps to W* + (1 - lr)(w - W*), so lr = 1
    lands on W* exactly), ``whitened_gd_optimal`` Tr H. ``info`` is NaN
    except for ``whitened_gd_optimal`` on a problem with C = 0, the only form
    for which it holds: there it is the closed-form one-step loss contraction
    1 - ||g||_*^2 / (<w, g> Tr H). The whitened step takes the polar factor,
    ||g||_* and its rate from one thin SVD (:func:`_whitened`), whose
    :func:`~swanopt.gradient_ops.exact_polar` still checks ``g``.
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
        return lambda w, g, state, lr: (_sgd(w, g, eta), state, eta, _NAN)
    if kind == "newton":
        w_star = problem.w_star
        return lambda w, g, state, lr: (w_star + (1.0 - lr) * (w - w_star), state, lr, _NAN)
    trace_h = float(np.trace(problem.h))
    predicts = not np.any(problem.c)

    def whitened(w, g, state, lr):
        polar, nuclear, eta = _whitened(g, trace_h)
        info = float(1.0 - nuclear * nuclear / (np.vdot(w, g) * trace_h)) if predicts else _NAN
        return _sgd(w, polar, eta), state, eta, info

    return whitened


def _whitened(g, trace_h: float) -> tuple[np.ndarray, float, float]:
    """Whitened descent's direction and rate on a quadratic with trace ``trace_h``:
    the polar factor of ``g``, ||g||_* and the rate ||g||_* / Tr H, from one
    :func:`~swanopt.gradient_ops.exact_polar` (which checks ``g``)."""
    polar, s = exact_polar(g)
    nuclear = float(s.sum())
    return polar, nuclear, nuclear / trace_h


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

