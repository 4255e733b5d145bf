"""Differentiable benchmark objectives.

Four problem families:

* matrix quadratic 1/2 Tr(W^T H W) - Tr(C^T W) with SPD H and known optimum,
* matrix Rastrigin, a separable non-convex surface with a lattice of local
  minima and global minimum 0 at W = 0,
* a seeded teacher-student regression MLP providing minibatch-noisy
  gradients,
* the reduced transformer-block gradient flow over V = U_C^T W, whose columns
  evolve as Vdot[:, j] = exp(z + c) * mu[:, j] with per-row z_l = 1/2 sum_s
  V[l, s]^2, together with its analytic Hessian.

All gradients are exact and every stochastic quantity takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrixops import as_matrix, make_spd, random_matrix

__all__ = [
    "QuadraticProblem",
    "RastriginProblem",
    "MlpProblem",
    "StbSystem",
    "StbTrajectory",
    "stb_integrate",
    "stb_hessian",
    "stb_hessian_blocks",
    "normalized_hessian_blocks",
    "hessian_block_divergence",
]


class QuadraticProblem:
    """1/2 Tr(W^T H W) - Tr(C^T W) with H symmetric positive definite.

    H is checked once, here, where its spectrum, the optimum W* = H^{-1} C and
    L* = -1/2 <C, W*> are computed; the curvature steps take the problem and
    read them from it. C defaults to the square zero matrix. The loss is
    <W, 1/2 H W - C>, one matrix product.
    """

    def __init__(self, h, c=None):
        h = as_matrix(h, "h")
        if h.shape[0] != h.shape[1]:
            raise ValueError("h must be square")
        self.h = 0.5 * (h + h.T)
        vals = np.linalg.eigvalsh(self.h)
        if vals[0] <= 0.0:
            raise ValueError(f"h is not positive definite (min eigenvalue {vals[0]:.3e})")
        m = h.shape[0]
        if c is None:
            c = np.zeros((m, m))
        c = as_matrix(c, "c")
        if c.shape[0] != m:
            raise ValueError(f"c must have {m} rows, got {c.shape[0]}")
        self.c = c
        self.w_star = np.linalg.solve(self.h, self.c)
        self.l_star = float(-0.5 * np.vdot(self.c, self.w_star))
        self.eigenvalues = vals[::-1].copy()

    @classmethod
    def seeded(
        cls,
        m: int,
        n: int,
        condition_number: float,
        seed: int,
        c_scale: float = 0.0,
    ) -> "QuadraticProblem":
        h = make_spd(m, condition_number, seed)
        c = random_matrix(m, n, seed + 1, scale=c_scale) if c_scale else np.zeros((m, n))
        return cls(h, c)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.h.shape[0], self.c.shape[1])

    def loss(self, w) -> float:
        w = as_matrix(w, "w", self.shape)
        # a non-finite loss from overflow on runaway iterates is the divergence signal
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.vdot(w, 0.5 * (self.h @ w) - self.c))

    def grad(self, w) -> np.ndarray:
        w = as_matrix(w, "w", self.shape)
        return self.h @ w - self.c

    def excess_loss(self, w) -> float:
        return self.loss(w) - self.l_star


@dataclass(frozen=True)
class RastriginProblem:
    """m x m matrix Rastrigin surface.

    loss(W) = m^2 A + 1/2 Tr(W^T W) - A sum_ij cos(2 pi W_ij); the constant
    term makes loss(0) = 0 the global minimum.
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
        return float(
            self.size**2 * self.amplitude
            + 0.5 * np.sum(w * w)
            - self.amplitude * np.sum(np.cos(2.0 * np.pi * w))
        )

    def grad(self, w) -> np.ndarray:
        w = as_matrix(w, "w", self.shape)
        return w + 2.0 * np.pi * self.amplitude * np.sin(2.0 * np.pi * w)


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
        return x, self._forward(self.teacher, x)[0]

    @staticmethod
    def _forward(weights, x):
        h = x
        activations = [x]
        last = len(weights) - 1
        for i, w in enumerate(weights):
            z = h @ w
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return h, activations

    def loss_and_grads(
        self, weights, batch_seed: int
    ) -> tuple[float, list[np.ndarray]]:
        self._check_weights(weights)
        x, y = self.sample_batch(batch_seed)
        # non-finite values from overflow on runaway weights reach the step,
        # whose check on g reports the divergence
        with np.errstate(over="ignore", invalid="ignore"):
            out, acts = self._forward(weights, x)
            diff = out - y
            loss = 0.5 * float(np.mean(np.sum(diff * diff, axis=1)))
            grads: list[np.ndarray] = [np.empty(0)] * len(weights)
            delta = diff / x.shape[0]
            for i in reversed(range(len(weights))):
                grads[i] = acts[i].T @ delta
                if i > 0:
                    delta = (delta @ weights[i].T) * (1.0 - acts[i] * acts[i])
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

    ``mu`` holds the stationary backpropagated gradient statistics (entry
    [l, j] pairs input activation l with hidden unit j); ``noise_std`` perturbs
    mu with fresh seeded Gaussian noise at every integration step. The
    velocity of entry (l, j) is ``exp(z_l) * mu[l, j]`` with
    z_l = 1/2 sum_s V[l, s]^2 (the exponent carries no constant offset), so
    each row of V moves along its own mu row with a growing scalar rate.

    The un-reparameterized construction from transformer quantities (context
    embedding U_C in R^{d x M_C}, feedforward weights W in R^{d x n}, per-unit
    backprop statistics) enters through :meth:`from_transformer_parts`, which
    maps them to this V = U_C^T W coordinate system. Only the V-space dynamics
    are integrated.
    """

    mu: np.ndarray
    v0: np.ndarray
    dt: float = 1e-3
    noise_std: float = 0.0

    def __post_init__(self):
        mu = as_matrix(self.mu, "mu")
        v0 = as_matrix(self.v0, "v0")
        if mu.shape != v0.shape:
            raise ValueError(f"mu {mu.shape} and v0 {v0.shape} must match")
        if mu.size == 0:
            raise ValueError(f"mu must be non-empty, got shape {mu.shape}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v0", v0)

    @classmethod
    def seeded(
        cls,
        context_len: int = 10,
        width: int = 12,
        seed: int = 0,
        dt: float = 1e-3,
        noise_std: float = 0.0,
    ) -> "StbSystem":
        mu = random_matrix(context_len, width, seed)
        return cls(
            mu=mu,
            v0=np.zeros((context_len, width)),
            dt=dt,
            noise_std=noise_std,
        )

    @classmethod
    def from_transformer_parts(
        cls, u_c, w, mu, dt: float = 1e-3, noise_std: float = 0.0
    ) -> "StbSystem":
        """Build the V-space system from embedding and feedforward matrices."""
        u_c = as_matrix(u_c, "u_c")
        w = as_matrix(w, "w")
        v0 = u_c.T @ w
        return cls(mu=mu, v0=v0, dt=dt, noise_std=noise_std)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mu.shape

    def row_exponents(self, v) -> np.ndarray:
        v = as_matrix(v, "v")
        return 0.5 * np.sum(v * v, axis=1)

    def velocity(self, v, mu=None) -> np.ndarray:
        """Time derivative of V at state v (optionally with a perturbed mu)."""
        v = as_matrix(v, "v")
        mu = self.mu if mu is None else mu
        z = self.row_exponents(v)
        with np.errstate(over="ignore"):
            rate = np.exp(z)
        return rate[:, None] * mu


@dataclass(frozen=True)
class StbTrajectory:
    steps: list[int]
    states: list[np.ndarray]
    aborted_at: int | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def stb_integrate(
    system: StbSystem,
    steps: int,
    seed: int = 0,
    record_every: int = 1,
) -> StbTrajectory:
    """Explicit Euler integration of the V-dynamics with a blow-up guard.

    The flow has finite-time blow-up (the exponent grows with ||V||), so the
    integrator rejects any step that would produce a non-finite entry or push
    ``max |V|`` past 1e30, recording the step index at which it
    stopped. Noise (when ``noise_std > 0``) is a fresh seeded Gaussian added
    to mu at every step; with ``noise_std == 0`` the run is deterministic and
    the seed is unused.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    rng = np.random.default_rng(seed)
    v = system.v0.copy()
    rec_steps = [0]
    rec_states = [v.copy()]
    aborted = None
    completed = 0
    for t in range(1, steps + 1):
        mu = system.mu
        if system.noise_std > 0.0:
            mu = mu + system.noise_std * rng.normal(size=mu.shape)
        candidate = v + system.dt * system.velocity(v, mu)
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > 1e30:
            aborted = t
            break
        v = candidate
        completed = t
        if t % record_every == 0:
            rec_steps.append(t)
            rec_states.append(v.copy())
    if rec_steps[-1] != completed:
        rec_steps.append(completed)
        rec_states.append(v.copy())
    return StbTrajectory(steps=rec_steps, states=rec_states, aborted_at=aborted)


def stb_hessian(system: StbSystem, v) -> np.ndarray:
    """Analytic loss Hessian at state v, assembled as a dense matrix.

    Entry ((l, k), (l', k')) equals vdot[l, k] * v[l', k'] * delta_{l l'};
    indices are laid out column-major in V (index = k * M_C + l) so the k-th
    M_C x M_C diagonal block is contiguous. Entries overflow for states with
    huge row exponents; use :func:`normalized_hessian_blocks` for those.
    """
    v = as_matrix(v, "v", system.shape)
    mc, n = system.shape
    vdot = system.velocity(v)
    h = np.zeros((mc * n, mc * n))
    for k in range(n):
        for kp in range(n):
            block = np.diag(vdot[:, k] * v[:, kp])
            h[k * mc : (k + 1) * mc, kp * mc : (kp + 1) * mc] = block
    return h


def stb_hessian_blocks(system: StbSystem, v) -> list[np.ndarray]:
    """The n diagonal M_C x M_C blocks of :func:`stb_hessian`."""
    v = as_matrix(v, "v")
    vdot = system.velocity(v)
    return [np.diag(vdot[:, k] * v[:, k]) for k in range(system.shape[1])]


def normalized_hessian_blocks(system: StbSystem, v) -> list[np.ndarray]:
    """Diagonal Hessian blocks normalized by their entry sum, overflow-safe.

    Block k of the analytic Hessian is diag(exp(z_l) * mu[l, k] * v[l, k]);
    dividing by the block sum cancels the common scale, so the computation is
    done in log magnitude with the max exponent factored out. Valid whenever
    V is finite, even when exp(z_l) itself would overflow.
    """
    v = as_matrix(v, "v", system.shape)
    mc, n = system.shape
    z = system.row_exponents(v)
    blocks = []
    for k in range(n):
        raw = system.mu[:, k] * v[:, k]
        with np.errstate(divide="ignore"):
            log_mag = z + np.log(np.abs(raw))
        sign = np.sign(raw)
        finite = np.isfinite(log_mag)
        if not np.any(finite):
            raise ValueError(f"block {k} is identically zero; cannot normalize")
        shift = np.max(log_mag[finite])
        entries = np.where(finite, sign * np.exp(log_mag - shift), 0.0)
        total = entries.sum()
        if total == 0.0:
            raise ValueError(f"block {k} sums to zero; cannot normalize")
        blocks.append(np.diag(entries / total))
    return blocks


def hessian_block_divergence(system: StbSystem, v) -> float:
    """Largest pairwise max-abs difference between normalized diagonal blocks."""
    blocks = normalized_hessian_blocks(system, v)
    worst = 0.0
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            worst = max(worst, float(np.max(np.abs(blocks[i] - blocks[j]))))
    return worst
