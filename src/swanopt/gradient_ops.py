"""The two stateless gradient pre-processing operators and update rescaling.

``grad_norm`` standardizes a gradient matrix row-wise (each row gets mean 0
and population std 1 across its columns). ``grad_whitening`` maps a gradient
G to its nearest row-orthogonal matrix (G G^T)^{-1/2} G, either exactly
through an SVD or approximately through a Newton-Schulz iteration, run as
matrix products on a small Gram matrix G G^T and on its eigenvalues from 128
rows on. ``rescale_update`` restores the Frobenius norm of a reference
matrix onto a computed update direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixops import as_matrix

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

# Gram matrices with at least this many rows run Newton-Schulz on their
# spectrum. Matrix-loop time over spectral time (float64, k = 10 chained,
# OpenBLAS 0.3.31 on 1 thread of a Xeon): 0.67 at m = 50, 0.74 at 64, 1.00
# at 96, 1.5 at 128, 2.6 at 256 and 3.5 at 512. The threshold sits above the
# break-even at 96 so that the spectral path is only taken where it clearly wins.
_SPECTRAL_MIN_ROWS = 128


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
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class WhiteningConfig:
    """Whitening settings.

    ``mode="exact_eig"`` computes the orthogonal polar factor from a thin SVD
    and serves as the oracle for the ``"newton_schulz"`` mode. ``iterations``
    and ``step_size`` parameterize the Newton-Schulz loop, which always runs on
    the input divided by its Frobenius norm: that places the spectrum of
    G G^T inside (0, 1], where the iteration is well behaved.

    ``update_order`` selects how the coupled Y/Z recursions advance (both
    track Z and P = Z Y, as m x m products below 128 rows and on the
    eigenvalues of G G^T from 128 rows on, see
    :func:`newton_schulz_inverse_sqrt`):

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
    if cfg.subtract_mean and n < 2:
        raise ValueError(f"grad_norm with subtract_mean needs >= 2 columns, got {n}")
    if n < 1:
        raise ValueError("grad_norm needs at least one column")
    c = g - g.mean(axis=1, keepdims=True) if cfg.subtract_mean else g.copy()
    std = np.sqrt(np.mean(c * c, axis=1, keepdims=True))
    if cfg.epsilon == 0.0:
        dead = np.flatnonzero(std.ravel() == 0.0)
        if dead.size:
            raise ValueError(
                f"zero-variance row {int(dead[0])} with epsilon=0 (division by zero)"
            )
    return np.divide(c, std + cfg.epsilon, out=c)


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
) -> np.ndarray:
    """Run the coupled Newton-Schulz recursion from Y=a, Z=I; return Z.

    Each iteration applies ``Y <- b Y (3I - Z Y)`` and ``Z <- b (3I - Z Y) Z``
    with b = ``step_size``, in either order of :class:`WhiteningConfig`. With
    ``step_size=0.5``, ``update_order="paired"`` and the spectrum of ``a`` inside
    (0, 2), Z converges to ``a^{-1/2}``. The iterates are polynomials in ``a`` and
    commute, so the recursion tracks P = Z Y for Y: with T = b (3I - P),
    ``paired`` sets Z <- T Z, P <- T (P T), and ``chained`` sets Z <- S Z,
    P <- S Q with Q = P T and S = b (3I - Q).

    ``a`` is a Gram matrix (symmetric positive semidefinite). The recursion is
    evaluated one of two ways, picked by the size of ``a``:

    * below 128 rows, on matrices: 3 m x m products per iteration (2 while
      Z = I), in four reused m x m buffers; ``a`` is not copied.
    * from 128 rows on, on the spectrum. Z is a polynomial f_k(a), so one
      ``eigh`` of ``a`` (which reads its lower triangle) gives
      Z = V f_k(lambda) V^T, with the same recursion run elementwise on the
      eigenvalues. They are clamped at 0 first: ``a`` is PSD by construction,
      and on a rank-deficient ``a`` the round-off negatives are what the
      recursion grows by about 9 b^2 per iteration. Agrees with the matrix
      loop to round-off (within 2e-11 relative on the tested cases at m = 128).
    """
    a = as_matrix(a, "a")
    m = a.shape[0]
    if a.shape[1] != m:
        raise ValueError("newton_schulz_inverse_sqrt needs a square matrix")
    if m < _SPECTRAL_MIN_ROWS:
        return _ns_recursion(a, iterations, step_size, update_order, np.matmul, m + 1)
    lam, v = np.linalg.eigh(a)
    np.maximum(lam, 0.0, out=lam)
    z = _ns_recursion(lam, iterations, step_size, update_order, np.multiply, 1)
    return (v * z) @ v.T


def _ns_recursion(p0, iterations, step_size, update_order, product, stride):
    """Z of :func:`newton_schulz_inverse_sqrt` from P = ``p0``, Z = I.

    ``p0`` is either the Gram matrix, with ``product=np.matmul`` and the
    identity's diagonal every ``stride = m + 1`` flat entries, or its
    eigenvalues, with ``product=np.multiply`` and ``stride=1``. ``p0`` is
    not written.
    """

    def shifted(x, out):
        """b (3I - x), with 3b added on the diagonal (no identity matrix)."""
        out = np.multiply(x, -step_size, out=out)
        out.flat[::stride] += 3.0 * step_size
        return out

    p, z, t, u = p0, None, None, None
    for _ in range(iterations):
        t = shifted(p, t)  # T
        u = product(p, t, out=u)  # P T, which is Q = Z Y' when chained
        if update_order == "chained":
            shifted(u, t)  # S takes T's buffer
        p = product(t, u, out=None if p is p0 else p)  # T (P T) or S Q
        if z is None:  # Z = I: the new Z is T or S itself
            z, t, u = t, u, None
        else:  # T Z or S Z into Q's buffer; the old Z's becomes the spare
            z, u = product(t, z, out=u), z
    if z is None:
        z = np.zeros_like(p0)
        z.flat[::stride] = 1.0
    return z


def _ns_whiten(g: np.ndarray, cfg: WhiteningConfig, overwrite: bool = False):
    """Newton-Schulz whitening of a wide ``g``: ``(Z @ (g / s), s)`` with s = ||g||_F.

    The one Newton-Schulz path of :func:`grad_whitening` and
    :func:`~swanopt.optimizers.swan_step`. With ``overwrite`` the division
    happens in ``g`` itself (same bits as ``g / s``), for a caller that owns
    ``g``. The Gram matrix and the loop's buffers are freed before ``Z @ g``
    is formed, so beside ``g`` the product needs one fresh m x n buffer and Z.
    """
    scale = float(np.linalg.norm(g))
    if scale == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    gn = np.divide(g, scale, out=g if overwrite else None)
    z = newton_schulz_inverse_sqrt(
        gn @ gn.T, cfg.iterations, cfg.step_size, cfg.update_order
    )
    return z @ gn, scale


def grad_whitening(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Map ``g`` (rows <= cols) to (an approximation of) ``(g g^T)^{-1/2} g``.

    In ``exact_eig`` mode the orthogonal polar factor U V^T is returned from a
    thin SVD and rank-deficient input is rejected. In ``newton_schulz`` mode
    the input is divided by its Frobenius norm, the coupled recursion is run
    for ``cfg.iterations`` steps, and ``Z @ g`` is returned *at the normalized
    scale*; downstream rescaling (see :func:`rescale_update`) restores
    magnitude. This mode and :func:`~swanopt.optimizers.swan_step` run the
    same Newton-Schulz code, so their outputs agree bit for bit. Rank
    deficiency is not rejected here. From 128 rows it is safe: the recursion
    runs on the Gram spectrum clamped at 0. Below 128 rows it is unsafe: on
    square GradNorm'd input the chained default turns non-finite from ~28
    iterations.
    """
    g = as_matrix(g, "g")
    m, n = g.shape
    if m > n:
        raise ValueError(f"grad_whitening needs rows <= cols, got {m}x{n}")
    if cfg.mode == "exact_eig":
        return exact_polar(g)[0]
    return _ns_whiten(g, cfg)[0]


def orthogonalize(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Shape-agnostic whitening: transposes tall inputs and transposes back."""
    g = as_matrix(g, "g")
    if g.shape[0] > g.shape[1]:
        return grad_whitening(g.T, cfg).T
    return grad_whitening(g, cfg)


def _rescale(delta: np.ndarray, target_norm: float, out=None) -> np.ndarray:
    """``delta`` scaled to Frobenius norm ``target_norm``, into ``out`` if given."""
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        raise ValueError("rescale_update: zero-norm delta has no direction")
    return np.multiply(delta, target_norm / norm, out=out)


def rescale_update(delta, reference) -> np.ndarray:
    """Scale ``delta`` so its Frobenius norm matches that of ``reference``."""
    delta = as_matrix(delta, "delta")
    reference = as_matrix(reference, "reference")
    return _rescale(delta, float(np.linalg.norm(reference)))
