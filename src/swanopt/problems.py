"""Differentiable benchmark objectives.

Four problem families:

* matrix quadratic 1/2 Tr(W^T H W) - Tr(C^T W) with SPD H and known optimum,
* matrix Rastrigin, a separable non-convex surface with a lattice of local
  minima and global minimum 0 at W = 0,
* a seeded teacher-student regression MLP providing minibatch-noisy
  gradients,
* the reduced transformer-block gradient flow over V = U_C^T W, whose columns
  evolve as Vdot[:, j] = exp(z) * mu[:, j] with per-row z_l = 1/2 sum_s
  V[l, s]^2. It is integrated in one pass to its final state; its analytic
  Hessian comes dense or, overflow-safe, as the normalized diagonals of its
  diagonal blocks, one row per block.

All gradients are exact and every stochastic quantity takes an explicit seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrixops import _matmul_blocks, _spd_factors, as_matrix, random_matrix

__all__ = [
    "QuadraticProblem",
    "RastriginProblem",
    "MlpProblem",
    "StbSystem",
    "StbTrajectory",
    "stb_integrate",
    "stb_hessian",
    "normalized_hessian_blocks",
    "hessian_block_divergence",
]


class QuadraticProblem:
    """1/2 Tr(W^T H W) - Tr(C^T W) with H symmetric positive definite.

    The closed forms come from H = Q diag(lam) Q^T: the spectrum is lam, L* = -1/2 ||lam^{-1/2}
    Q^T C||_F^2, and the optimum W* = Q diag(1/lam) Q^T C is formed when first read; the curvature
    steps read them from the problem. The constructor takes Q and lam from one ``eigh`` of the
    symmetrized H, which is also its check. A :meth:`seeded` problem keeps the factors
    :func:`make_spd` builds H from, so its spectrum is exactly the constructed lam. C defaults to
    the square zero matrix. The loss is <W, 1/2 H W - C>, one matrix product (by blocks,
    CHANGES.md); :meth:`loss_and_grad` shares that product with the gradient H W - C."""

    def __init__(self, h, c=None):
        h = as_matrix(h, "h")
        if h.shape[0] != h.shape[1] or not h.size:  # an empty h has no spectrum to check
            raise ValueError(f"h must be square and non-empty, got shape {h.shape}")
        h = 0.5 * (h + h.T)
        lam, q = np.linalg.eigh(h)
        if lam[0] <= 0.0:
            raise ValueError(f"h is not positive definite (min eigenvalue {lam[0]:.3e})")
        self._factored(h, c, q, lam)

    def _factored(self, h, c, q, lam) -> "QuadraticProblem":
        """Set H, C and the closed forms from H = Q diag(lam) Q^T, lam ascending and > 0."""
        m = h.shape[0]
        c = np.zeros((m, m)) if c is None else as_matrix(c, "c")
        if c.shape[0] != m:
            raise ValueError(f"c must have {m} rows, got {c.shape[0]}")
        self.h, self.c, self._q, self._lam = h, c, q, lam
        self.eigenvalues = lam[::-1].copy()
        x = _matmul_blocks(q.T, c, 1)
        x /= np.sqrt(lam)[:, None]
        self.l_star = -0.5 * float(np.vdot(x, x))
        return self

    @functools.cached_property
    def w_star(self) -> np.ndarray:
        x = _matmul_blocks(self._q.T, self.c, 1)
        x /= self._lam[:, None]
        return _matmul_blocks(self._q, x, 1)

    @classmethod
    def seeded(
        cls, m: int, n: int, condition_number: float, seed: int, c_scale: float = 0.0
    ) -> "QuadraticProblem":
        h, q, lam = _spd_factors(m, condition_number, seed)  # H exactly symmetric, lam > 0
        c = random_matrix(m, n, seed + 1, scale=c_scale) if c_scale else np.zeros((m, n))
        return cls.__new__(cls)._factored(h, c, q, lam)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.h.shape[0], self.c.shape[1])

    def loss(self, w) -> float:
        w = as_matrix(w, "w", self.shape)
        # a non-finite loss from overflow on runaway iterates is the divergence signal
        with np.errstate(over="ignore", invalid="ignore"):
            return self._loss(w, _matmul_blocks(self.h, w, 1))

    def grad(self, w) -> np.ndarray:
        w = as_matrix(w, "w", self.shape)
        hw = _matmul_blocks(self.h, w, 1)
        return np.subtract(hw, self.c, out=hw)

    def loss_and_grad(self, w) -> tuple[float, np.ndarray]:
        """``(loss(w), grad(w))``, bit for bit, from one check of ``w`` and one
        product H w. Where the loss is finite, so is the gradient."""
        w = as_matrix(w, "w", self.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            hw = _matmul_blocks(self.h, w, 1)
            loss = self._loss(w, hw)
            return loss, np.subtract(hw, self.c, out=hw)

    def _loss(self, w, hw) -> float:
        return float(np.vdot(w, 0.5 * hw - self.c))

    def excess_loss(self, w) -> float:
        return self.loss(w) - self.l_star


@dataclass(frozen=True)
class RastriginProblem:
    """m x m matrix Rastrigin surface.

    loss(W) = m^2 A + 1/2 Tr(W^T W) - A sum_ij cos(2 pi W_ij); the constant
    term makes loss(0) = 0 the global minimum. Overflow on runaway iterates
    gives a non-finite loss, the divergence signal, and no warning.
    """

    amplitude: float = 10.0
    size: int = 50
    l_star = 0.0  # loss(0), the global minimum

    def __post_init__(self):
        if not 0.0 < self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def loss(self, w) -> float:
        w = as_matrix(w, "w", self.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._loss(w, 2.0 * np.pi * w)

    def grad(self, w) -> np.ndarray:
        w = as_matrix(w, "w", self.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grad(w, 2.0 * np.pi * w)

    def loss_and_grad(self, w) -> tuple[float, np.ndarray]:
        """``(loss(w), grad(w))``, bit for bit, from one check of ``w`` and one
        2 pi W. Where the loss is finite, so is the gradient."""
        w = as_matrix(w, "w", self.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            two_pi_w = 2.0 * np.pi * w
            return self._loss(w, two_pi_w), self._grad(w, two_pi_w)

    def _loss(self, w, two_pi_w) -> float:
        return float(
            self.size**2 * self.amplitude
            + 0.5 * np.sum(w * w)
            - self.amplitude * np.sum(np.cos(two_pi_w))
        )

    def _grad(self, w, two_pi_w) -> np.ndarray:
        return w + 2.0 * np.pi * self.amplitude * np.sin(two_pi_w)


class MlpProblem:
    """Seeded teacher-student regression with tanh hidden layers.

    Synthetic data comes from a fixed teacher network of the same
    architecture: x ~ N(0, I), y = teacher(x), without label noise. The
    student starts at ``student_scale`` times the teacher's initialization
    scale; small values put training in the feature-learning regime where
    gradient magnitudes grow substantially before converging, the regime in
    which row-wise gradient standardization has something to stabilize.

    ``loss_and_grads(weights, batch_seed)`` draws one minibatch and returns
    the mean squared-error loss (with the conventional 1/2) and exact
    backpropagated gradients per weight block, deterministically per
    (weights, batch_seed).
    """

    def __init__(
        self,
        layer_dims: tuple[int, ...] = (16, 64, 64, 8),
        batch_size: int = 64,
        teacher_seed: int = 0,
        student_scale: float = 0.1,
    ):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.batch_size = int(batch_size)
        self.teacher_seed = int(teacher_seed)
        self.student_scale = float(student_scale)
        self.teacher = self._init_weights(np.random.default_rng(teacher_seed), 1.0)

    @property
    def n_blocks(self) -> int:
        return len(self.layer_dims) - 1

    def _init_weights(self, rng, scale: float) -> list[np.ndarray]:
        dims = self.layer_dims
        return [
            scale * rng.normal(size=(dims[i], dims[i + 1])) / np.sqrt(dims[i])
            for i in range(len(dims) - 1)
        ]

    def initial_weights(self, seed: int) -> list[np.ndarray]:
        return self._init_weights(np.random.default_rng(seed), self.student_scale)

    def sample_batch(self, batch_seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(batch_seed)
        x = rng.normal(size=(self.batch_size, self.layer_dims[0]))
        return x, self._forward(self.teacher, x)[-1]

    @staticmethod
    def _forward(weights, x) -> list[np.ndarray]:
        activations = [x]
        for i, w in enumerate(weights):
            z = activations[-1] @ w
            activations.append(z if i == len(weights) - 1 else np.tanh(z, out=z))
        return activations

    def loss_and_grads(
        self, weights, batch_seed: int
    ) -> tuple[float, list[np.ndarray]]:
        self._check_weights(weights)
        x, y = self.sample_batch(batch_seed)
        # overflow on runaway weights reaches the step, whose check on g reports it. Activations
        # are overwritten once read (the output with the residual, a hidden one with 1 - a^2)
        with np.errstate(over="ignore", invalid="ignore"):
            *acts, delta = self._forward(weights, x)
            np.subtract(delta, y, out=delta)
            loss = 0.5 * float(np.add.reduce(np.add.reduce(delta * delta, axis=1)) / x.shape[0])
            np.divide(delta, x.shape[0], out=delta)
            grads: list[np.ndarray] = [np.empty(0)] * len(weights)
            for i in reversed(range(len(weights))):
                grads[i] = acts[i].T @ delta
                if i > 0:
                    np.subtract(1.0, np.multiply(acts[i], acts[i], out=acts[i]), out=acts[i])
                    delta = delta @ weights[i].T
                    np.multiply(delta, acts.pop(), out=delta)
        return loss, grads

    def _check_weights(self, weights):
        dims = self.layer_dims
        if len(weights) != self.n_blocks:
            raise ValueError(f"expected {self.n_blocks} weight blocks, got {len(weights)}")
        for i, w in enumerate(weights):
            if w.shape != (dims[i], dims[i + 1]):
                raise ValueError(
                    f"block {i} must be {(dims[i], dims[i + 1])}, got {w.shape}"
                )


@dataclass(frozen=True)
class StbSystem:
    """Reduced transformer-block gradient flow in V-space.

    The state V is the context embedding U_C (d x M_C) transposed times the
    feedforward weights W (d x n), an M_C x n matrix; only its dynamics are
    integrated, from ``v0``. ``mu`` holds the stationary backpropagated
    gradient statistics (entry [l, j] pairs input activation l with hidden
    unit j). The velocity of entry (l, j) is ``exp(z_l) * mu[l, j]`` with
    z_l = 1/2 sum_s V[l, s]^2 (the exponent carries no constant offset), so
    each row of V moves along its own mu row with a growing scalar rate.
    """

    mu: np.ndarray
    v0: np.ndarray
    dt: float = 1e-3

    def __post_init__(self):
        mu = as_matrix(self.mu, "mu")
        v0 = as_matrix(self.v0, "v0")
        if mu.shape != v0.shape:
            raise ValueError(f"mu {mu.shape} and v0 {v0.shape} must match")
        if mu.size == 0:
            raise ValueError(f"mu must be non-empty, got shape {mu.shape}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v0", v0)

    @classmethod
    def seeded(
        cls, context_len: int = 10, width: int = 12, seed: int = 0, dt: float = 1e-3
    ) -> "StbSystem":
        mu = random_matrix(context_len, width, seed)
        return cls(mu=mu, v0=np.zeros((context_len, width)), dt=dt)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mu.shape

    def velocity(self, v) -> np.ndarray:
        """Time derivative of V at state ``v``, which must be ``shape``."""
        return self._velocity(as_matrix(v, "v", self.shape))

    def _velocity(self, v: np.ndarray) -> np.ndarray:
        """:meth:`velocity` on a checked ``v``."""
        with np.errstate(over="ignore"):
            rate = np.exp(0.5 * np.sum(v * v, axis=1))
        return rate[:, None] * self.mu


@dataclass(frozen=True)
class StbTrajectory:
    """The end of an :func:`stb_integrate` run: the last accepted step, the
    state after it, and the step the blow-up guard rejected (None if none)."""

    final_step: int
    final_state: np.ndarray
    aborted_at: int | None = None


def stb_integrate(system: StbSystem, steps: int) -> StbTrajectory:
    """Explicit Euler integration of the V-dynamics with a blow-up guard.

    The flow has finite-time blow-up (the exponent grows with ||V||), so the
    integrator stops at the first step that would produce a non-finite entry
    or push ``max |V|`` past 1e30, and returns the state before it. The run
    is deterministic: the same system and step count give the same bits.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    v = system.v0.copy()
    for t in range(1, steps + 1):
        candidate = v + system.dt * system._velocity(v)
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > 1e30:
            return StbTrajectory(final_step=t - 1, final_state=v, aborted_at=t)
        v = candidate
    return StbTrajectory(final_step=steps, final_state=v)


def stb_hessian(system: StbSystem, v) -> np.ndarray:
    """Analytic loss Hessian at state v, assembled as a dense matrix.

    Entry ((l, k), (l', k')) equals vdot[l, k] * v[l', k'] * delta_{l l'};
    indices are laid out column-major in V (index = k * M_C + l) so the k-th
    M_C x M_C diagonal block is contiguous. Entries overflow for states with
    huge row exponents; use :func:`normalized_hessian_blocks` for those.
    """
    v = as_matrix(v, "v", system.shape)
    mc, n = system.shape
    vdot = system._velocity(v)
    h = np.zeros((mc * n, mc * n))
    # h[k * mc + l, k' * mc + l] = vdot[l, k] * v[l, k'], indexed [l, k, k']
    diag = np.arange(mc)
    h.reshape(n, mc, n, mc)[:, diag, :, diag] = vdot[:, :, None] * v[:, None, :]
    return h


def normalized_hessian_blocks(system: StbSystem, v) -> np.ndarray:
    """Diagonals of the Hessian's diagonal blocks, each divided by its sum,
    as an n x M_C array: row k is the normalized diagonal of block k.

    Block k of the analytic Hessian is diag(exp(z_l) * mu[l, k] * v[l, k]);
    dividing by the block sum cancels the common scale, so the computation is
    done in log magnitude with each block's max exponent factored out. Valid
    whenever V is finite, even when exp(z_l) itself would overflow.
    """
    v = as_matrix(v, "v", system.shape)
    # a C-ordered (n, M_C) copy, so each block's sum runs over contiguous entries
    raw = (system.mu * v).T.copy()
    z = 0.5 * np.sum(v * v, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = z + np.log(np.abs(raw))
        finite = np.isfinite(log_mag)
        shift = np.max(log_mag, axis=1, keepdims=True, where=finite, initial=-np.inf)
        entries = np.where(finite, np.sign(raw) * np.exp(log_mag - shift), 0.0)
    totals = entries.sum(axis=1, keepdims=True)
    if not np.all(totals):
        k = int(np.argmax(totals[:, 0] == 0.0))  # the first zero sum
        what = "sums to zero" if finite[k].any() else "is identically zero"
        raise ValueError(f"block {k} {what}; cannot normalize")
    return entries / totals


def hessian_block_divergence(system: StbSystem, v) -> float:
    """Largest max-abs difference between two normalized diagonal blocks."""
    return float(np.max(np.ptp(normalized_hessian_blocks(system, v), axis=0)))
