"""The two stateless gradient pre-processing operators and update rescaling.

``grad_norm`` standardizes a gradient matrix row-wise (each row gets mean 0
and population std 1 across its columns). ``grad_whitening`` maps a gradient
G to its nearest row-orthogonal matrix (G G^T)^{-1/2} G, either exactly
through an SVD or approximately through a multiplication-only Newton-Schulz
iteration. ``rescale_update`` restores the Frobenius norm of a reference
matrix onto a computed update direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixops import as_matrix, frobenius_norm

__all__ = [
    "GradNormConfig",
    "WhiteningConfig",
    "grad_norm",
    "grad_whitening",
    "exact_polar",
    "newton_schulz_inverse_sqrt",
    "rescale_update",
    "orthogonalize",
]

_MODES = ("newton_schulz", "exact_eig")
_UPDATE_ORDERS = ("chained", "paired")


@dataclass(frozen=True)
class GradNormConfig:
    """Row standardization settings.

    ``subtract_mean=False`` drops the per-row mean (taking it as 0) and uses
    the per-row root-mean-square in place of the standard deviation, a cheaper
    variant that behaves identically when row means are small. ``epsilon`` is
    added to the std denominator to guard zero-variance rows.
    """

    subtract_mean: bool = True
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class WhiteningConfig:
    """Whitening settings.

    ``mode="exact_eig"`` computes the orthogonal polar factor from a thin SVD
    and serves as the oracle for the ``"newton_schulz"`` mode. ``iterations``
    and ``step_size`` parameterize the Newton-Schulz loop; ``pre_normalize``
    divides the input by its Frobenius norm first, which places the spectrum
    of G G^T inside (0, 1] where the iteration is well behaved.

    ``update_order`` selects how the coupled Y/Z recursions advance:

    * ``"chained"``: Y is overwritten first and the Z update reads the new Y
      (the two assignments executed in order). At step_size 0.8 this contracts
      to a stable near-orthogonal limit, which is what makes step sizes above
      0.5 useful in the first place.
    * ``"paired"``: both updates read the previous (Y, Z) pair. At step_size
      0.5 this is the classical Newton-Schulz coupling with Z_k -> Y_0^{-1/2},
      but for step sizes above 2/3 its fixed point turns unstable and the
      iterate oscillates.
    """

    iterations: int = 10
    step_size: float = 0.8
    mode: str = "newton_schulz"
    pre_normalize: bool = True
    update_order: str = "chained"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError(f"step_size must be in (0, 1], got {self.step_size}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.update_order not in _UPDATE_ORDERS:
            raise ValueError(
                f"update_order must be one of {_UPDATE_ORDERS}, got {self.update_order!r}"
            )


def grad_norm(g, cfg: GradNormConfig = GradNormConfig()) -> np.ndarray:
    """Standardize each row of ``g`` across its columns.

    Returns ``(g - mean) / (std + epsilon)`` with per-row population
    statistics. A zero-variance row with ``epsilon == 0`` is rejected with the
    offending row index; with a positive epsilon such a row maps to zeros.
    """
    g = as_matrix(g, "g")
    n = g.shape[1]
    if cfg.subtract_mean:
        if n < 2:
            raise ValueError(f"grad_norm with subtract_mean needs >= 2 columns, got {n}")
        mean = g.mean(axis=1, keepdims=True)
        std = g.std(axis=1, keepdims=True)
    else:
        if n < 1:
            raise ValueError("grad_norm needs at least one column")
        mean = np.zeros((g.shape[0], 1))
        std = np.sqrt(np.mean(g * g, axis=1, keepdims=True))
    if cfg.epsilon == 0.0:
        dead = np.flatnonzero(std.ravel() == 0.0)
        if dead.size:
            raise ValueError(
                f"zero-variance row {int(dead[0])} with epsilon=0 (division by zero)"
            )
    return (g - mean) / (std + cfg.epsilon)


def exact_polar(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal polar factor U V^T of ``g`` and its singular values (descending),
    from one thin SVD. All-zero and rank-deficient input are rejected."""
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    if s[-1] <= 1e-12 * s[0]:
        raise ValueError(
            f"rank-deficient input in exact_eig mode: smallest singular value "
            f"{s[-1]:.3e} vs largest {s[0]:.3e}"
        )
    return u @ vt, s


def newton_schulz_inverse_sqrt(
    a,
    iterations: int,
    step_size: float,
    update_order: str = "chained",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the coupled Newton-Schulz recursion from Y=a, Z=I; return (Y, Z).

    Each iteration applies ``Y <- b Y (3I - Z Y)`` and ``Z <- b (3I - Z Y) Z``
    with b = ``step_size``; see :class:`WhiteningConfig` for the two possible
    orderings. With ``step_size=0.5``, ``update_order="paired"`` and the
    spectrum of ``a`` inside (0, 2), Z converges to ``a^{-1/2}``.
    """
    a = as_matrix(a, "a")
    m = a.shape[0]
    if a.shape[1] != m:
        raise ValueError("newton_schulz_inverse_sqrt needs a square matrix")
    eye3 = 3.0 * np.eye(m)
    y = a.copy()
    z = np.eye(m)
    b = step_size
    for _ in range(iterations):
        if update_order == "paired":
            t = eye3 - z @ y
            y, z = b * (y @ t), b * (t @ z)
        else:
            y = b * (y @ (eye3 - z @ y))
            z = b * ((eye3 - z @ y) @ z)
    return y, z


def grad_whitening(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Map ``g`` (rows <= cols) to (an approximation of) ``(g g^T)^{-1/2} g``.

    In ``exact_eig`` mode the orthogonal polar factor U V^T is returned from a
    thin SVD and rank-deficient input is rejected. In ``newton_schulz`` mode
    the input is optionally Frobenius-normalized, the coupled recursion is run
    for ``cfg.iterations`` steps, and ``Z @ g`` is returned *at the normalized
    scale*; downstream rescaling (see :func:`rescale_update`) restores
    magnitude. Rank deficiency is tolerated here: the iteration contracts
    toward the orthogonal factor on the row space.
    """
    g = as_matrix(g, "g")
    m, n = g.shape
    if m > n:
        raise ValueError(f"grad_whitening needs rows <= cols, got {m}x{n}")
    if cfg.mode == "exact_eig":
        return exact_polar(g)[0]
    scale = frobenius_norm(g)
    if scale == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    gn = g / scale if cfg.pre_normalize else g
    _, z = newton_schulz_inverse_sqrt(
        gn @ gn.T, cfg.iterations, cfg.step_size, cfg.update_order
    )
    return z @ gn


def orthogonalize(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Shape-agnostic whitening: transposes tall inputs and transposes back."""
    g = as_matrix(g, "g")
    if g.shape[0] > g.shape[1]:
        return grad_whitening(g.T, cfg).T
    return grad_whitening(g, cfg)


def rescale_update(delta, reference) -> np.ndarray:
    """Scale ``delta`` so its Frobenius norm matches that of ``reference``."""
    delta = as_matrix(delta, "delta")
    reference = as_matrix(reference, "reference")
    norm = frobenius_norm(delta)
    if norm == 0.0:
        raise ValueError("rescale_update: zero-norm delta has no direction")
    return delta * (frobenius_norm(reference) / norm)
