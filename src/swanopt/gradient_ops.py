"""The two stateless gradient pre-processing operators and update rescaling.

``grad_norm`` standardizes a gradient matrix row-wise (each row gets mean 0
and population std 1 across its columns). ``grad_whitening`` maps a gradient
G to its nearest row-orthogonal matrix (G G^T)^{-1/2} G, either exactly
through an SVD or approximately through a Newton-Schulz iteration, run as
matrix products on a small Gram matrix G G^T and on its eigenvalues from 128
rows on; ``orthogonalize`` is the exact factor for either shape.
``rescale_update`` restores the Frobenius norm of a reference matrix onto a
computed update direction. The Newton-Schulz and rescale kernels write their
input: their public entries hand them a copy.
"""

from __future__ import annotations

import math
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

# Gram matrices with at least this many rows run Newton-Schulz on their spectrum:
# the break-even with the matrix loop lies between 96 and 128 rows (CHANGES.md).
# Moving the threshold changes the bits of the blocks it moves.
_SPECTRAL_MIN_ROWS = 128

# Elementwise passes over a large matrix run on row blocks of at most this many
# entries, so a block's operands stay in L2 (Adam's block sweep is in CHANGES.md).
_BLOCK = 32768


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
    track Z and P = Z Y, see :func:`newton_schulz_inverse_sqrt`):

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
    return _grad_norm(as_matrix(g, "g"), cfg)


def _grad_norm(g: np.ndarray, cfg: GradNormConfig, stats: list | None = None) -> np.ndarray:
    """:func:`grad_norm` of a checked ``g`` into a new array, beside a row block of squares (m x n
    for one block) and a broadcast buffer of min(block size, 8192) entries. Each block's (rows,
    mean, std + epsilon) goes into an empty list ``stats``; a filled one rebuilds the same bits."""
    m, n = g.shape
    if cfg.subtract_mean and n < 2:
        raise ValueError(f"grad_norm with subtract_mean needs >= 2 columns, got {n}")
    if n < 1:
        raise ValueError("grad_norm needs at least one column")
    # c, in the memory order of ``g - mean`` or ``g.copy()``, is the one m x n buffer. A C-ordered
    # g runs by blocks of whole rows, squared into one scratch (sliced for a short last block, as
    # Adam's); another order (a tall block's view, strided by rows) as one block, as c * c.
    c = np.empty_like(g) if cfg.subtract_mean else np.empty(g.shape)
    for rows, mean, std in stats or ():  # a small wide g in halves: its broadcast buffer < Z G~n
        h = -(-m // 2) if n > m and g.size <= np.getbufsize() and g.flags.c_contiguous else len(std)
        for i in range(0, len(std), h):
            r, b = slice(rows.start + i, rows.start + i + h), slice(i, i + h)
            cb = np.subtract(g[r], mean[b] if cfg.subtract_mean else mean, out=c[r])
            np.divide(cb, std[b], out=cb)
    if stats:
        return c
    rows = max(1, min(m, _BLOCK // n) if g.flags.c_contiguous else m)
    sq = np.empty_like(c[:rows]) if rows < m else None
    for i in range(0, m, rows):
        gb, cb = g[i : i + rows], c[i : i + rows]
        sqb = None if sq is None else sq[: len(cb)]
        mean = np.add.reduce(gb, axis=1, keepdims=True) / n if cfg.subtract_mean else 0.0
        np.subtract(gb, mean, out=cb)  # x - 0.0 is x, bit for bit
        std = np.sqrt(np.add.reduce(np.square(cb, out=sqb), axis=1, keepdims=True) / n)
        if cfg.epsilon == 0.0 and not std.all():
            dead = i + int(np.flatnonzero(std.ravel() == 0.0)[0])
            raise ValueError(f"zero-variance row {dead} with epsilon=0 (division by zero)")
        np.divide(cb, np.add(std, cfg.epsilon, out=std), out=cb)
        if stats is not None:
            stats.append((slice(i, i + rows), mean, std))
    return c


def exact_polar(g) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal polar factor U V^T of ``g`` and its singular values (descending),
    from one thin SVD. ``g`` must be a finite matrix (LAPACK's SVD does not
    return on +inf); all-zero and rank-deficient input are rejected."""
    return _exact_polar(as_matrix(g, "g"))


def _exact_polar(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exact_polar` of a checked matrix ``g``."""
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    if not s.size or s[0] == 0.0:  # an empty matrix is all-zero
        raise ValueError("cannot whiten an all-zero matrix")
    if s[-1] <= 1e-12 * s[0]:
        raise ValueError(
            f"rank-deficient input in exact_eig mode: smallest singular value "
            f"{s[-1]:.3e} vs largest {s[0]:.3e}"
        )
    return u @ vt, s


def newton_schulz_inverse_sqrt(
    a, iterations: int, step_size: float, update_order: str = "chained"
) -> np.ndarray:
    """Run the coupled Newton-Schulz recursion from Y=a, Z=I; return Z.

    Each iteration applies ``Y <- b Y (3I - Z Y)`` and ``Z <- b (3I - Z Y) Z`` with b =
    ``step_size``, in either order of :class:`WhiteningConfig`. With ``step_size=0.5``,
    ``update_order="paired"`` and the spectrum of ``a`` inside (0, 2), Z converges to
    ``a^{-1/2}``. The iterates are polynomials in ``a`` and commute, so the recursion tracks
    P = Z Y for Y: with T = b (3I - P), ``paired`` sets Z <- T Z, P <- T (P T), and
    ``chained`` sets Z <- S Z, P <- S Q with Q = P T and S = b (3I - Q).

    ``a`` is a Gram matrix (symmetric positive semidefinite) and is not written. Below 128 rows
    the recursion runs on matrices: 3k - 2 m x m products chained and 3k - 3 paired (Z_1 is T_1
    or S_1 itself; the last P, and paired its P T, are not read), in 4 m x m arrays beside ``a``
    (a copy of it, which holds P, and T, Q, Z). From 128 rows it runs on the spectrum: Z is a
    polynomial f_k(a), so one ``eigh`` of ``a`` (which reads its lower triangle) gives Z = V
    f_k(lambda) V^T, in 3 m x m arrays beside ``a`` (the copy, holding V f_k(lambda), and V, Z).
    The eigenvalues are clamped at 0 first: on a rank-deficient ``a`` the round-off negatives are
    what the recursion grows by about 9 b^2 per iteration. Agrees with the matrix loop to round-off.
    """
    a = as_matrix(a, "a")
    if a.shape[1] != a.shape[0]:
        raise ValueError("newton_schulz_inverse_sqrt needs a square matrix")
    return _ns_inverse_sqrt(a.copy(), iterations, step_size, update_order)


def _ns_inverse_sqrt(a: np.ndarray, iterations, step_size, update_order):
    """:func:`newton_schulz_inverse_sqrt` of a square ``a``, which it writes: P, or V f(lambda),
    goes into ``a``, beside 3 m x m arrays below 128 rows (T, Q, Z) and 2 from 128 (V, Z); if m
    is a multiple of 64, Z too, beside V and a scratch."""
    m = len(a)
    if m < _SPECTRAL_MIN_ROWS:
        return _ns_recursion(a, iterations, step_size, update_order, np.matmul, m + 1)
    lam, v = np.linalg.eigh(a)
    np.maximum(lam, 0.0, out=lam)
    f = _ns_recursion(lam, iterations, step_size, update_order, np.multiply, 1)
    z = np.multiply(v, f, out=a)  # V f(lambda)
    if m % 64:
        return z @ v.T
    rows = min(m, _BLOCK // m) // 16 * 16 or 16  # blocks off multiples of 16 changed bits
    out = np.empty((rows, m))
    for i in range(0, m, rows):  # row i of Z reads only row i of V f(lambda)
        b = z[i : i + rows]
        np.copyto(b, np.matmul(b, v.T, out=out[: len(b)]))
    return z


def _ns_recursion(p0, iterations, step_size, update_order, product, stride):
    """Z of :func:`newton_schulz_inverse_sqrt` from P = ``p0``, Z = I; each new P goes into
    ``p0``, which it writes. ``p0`` is either the Gram matrix, with ``product=np.matmul`` and the
    identity's diagonal every ``stride = m + 1`` flat entries, or its eigenvalues, with
    ``product=np.multiply`` and ``stride=1``. T and S share one buffer, shifted through one
    diagonal view."""
    t = np.empty(p0.shape)  # T, then S when chained
    diag = t.reshape(-1)[::stride]
    chained = update_order == "chained"

    def shift(x):  # b (3I - x) into t: 3b is added on the diagonal (no identity matrix)
        np.multiply(x, -step_size, out=t)
        np.add(diag, 3.0 * step_size, out=diag)

    z = u = None
    for i in range(1, iterations + 1):
        last = i == iterations
        shift(p0)  # T
        if chained or not last:  # paired, P T only feeds the next P
            u = product(p0, t, out=u)  # P T, which is Q = Z Y' when chained
        if chained:
            shift(u)  # S
        if not last:
            product(t, u, out=p0)  # T (P T) or S Q
        if z is None:  # Z = I: the new Z is a copy of T or S
            z = t.copy()
        else:  # T Z or S Z into Q's buffer; the old Z's becomes the spare
            z, u = product(t, z, out=u), z
    if z is None:  # no iterations: Z = I
        t.fill(0.0)
        diag.fill(1.0)
        z = t
    return z


def _ns_whiten(g: np.ndarray, cfg: WhiteningConfig, norm: GradNormConfig | None = None):
    """Newton-Schulz whitening of a wide ``g``: ``(Z @ G~n, s)``, with G~ the GradNorm of ``g``
    under ``norm`` (``g`` itself without it), s = ||G~||_F and G~n = G~ / s.

    The one Newton-Schulz path of :func:`grad_whitening` and :func:`~swanopt.optimizers.swan_step`,
    and the one owner of G~n. Below 128 rows (k = m) the working set is max(4 k^2, 2 m n + k^2): if
    n < 3m, G~n is not held across the loop (the Gram matrix, reused for P, T, Q and Z) but built
    again after it from ``g``, s and GradNorm's row statistics by the first pass's operations, so
    with its bits; then G~n, Z and Z G~n. From 128 rows G~n stays beside the Gram matrix and
    :func:`_ns_inverse_sqrt`'s arrays; a C-ordered G~n with n > 2m a multiple of 64 is
    overwritten with Z G~n by the fewest even column blocks of <= m on multiples of 64, through one
    scratch, else Z G~n is a new array (in an F-ordered, tall, G~n its norm would change). No BLAS
    promises that row or column blocks keep a product's bits: these kept them on one build
    (CHANGES.md). Re-measure before widening them.
    """
    # below 128 rows G~n is dropped for the loop if n < 3m (from 3m, Z G~n sets the peak anyway)
    stats = [] if len(g) < _SPECTRAL_MIN_ROWS and g.shape[1] < 3 * len(g) else None
    gn = g if norm is None else _grad_norm(g, norm, stats)
    scale = _fro(gn)
    if scale == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    gn = np.divide(gn, scale, out=None if gn is g else gn)
    gram, gn = gn @ gn.T, None if stats is not None else gn
    z = _ns_inverse_sqrt(gram, cfg.iterations, cfg.step_size, cfg.update_order)
    del gram  # P's buffer, or Z's
    if gn is None:  # G~n again; the statistics are not held for Z G~n
        gn = g if norm is None else _grad_norm(g, norm, stats)
        gn, stats = np.divide(gn, scale, out=None if gn is g else gn), None
    m, n = gn.shape
    if m < 128 or n % 64 or n <= 2 * m or not gn.flags.c_contiguous:
        return z @ gn, scale
    units, count = n // 64, -(-n // (m // 64 * 64))  # the fewest blocks of <= m columns
    out = np.empty((m, 64 * -(-units // count)))
    for i in range(count):
        b = gn[:, 64 * (units * i // count) : 64 * (units * (i + 1) // count)]
        np.copyto(b, np.matmul(z, b, out=out[:, : b.shape[1]]))
    return gn, scale


def grad_whitening(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Map ``g`` (rows <= cols) to (an approximation of) ``(g g^T)^{-1/2} g``.

    In ``exact_eig`` mode the orthogonal polar factor U V^T is returned from a thin SVD and
    rank-deficient input is rejected. In ``newton_schulz`` mode the input is divided by its
    Frobenius norm, the coupled recursion is run for ``cfg.iterations`` steps, and ``Z @ g`` is
    returned *at the normalized scale*; downstream rescaling (see :func:`rescale_update`) restores
    magnitude. This mode and :func:`~swanopt.optimizers.swan_step` run the same code, so their
    outputs agree bit for bit; below 128 rows it holds max(4 m^2, 2 m n + m^2), as g / s is not kept
    across the loop where n < 3m. Rank deficiency is not rejected here: from 128 rows the recursion
    runs on the Gram spectrum clamped at 0, but below, on square GradNorm'd input, the chained
    default turns non-finite from ~28 iterations.
    """
    g = as_matrix(g, "g")
    if g.shape[0] > g.shape[1]:
        raise ValueError(f"grad_whitening needs rows <= cols, got {g.shape[0]}x{g.shape[1]}")
    return _exact_polar(g)[0] if cfg.mode == "exact_eig" else _ns_whiten(g, cfg)[0]


def orthogonalize(g) -> np.ndarray:
    """The orthogonal polar factor U V^T of ``g`` of either shape, from one thin SVD of ``g``
    or, if tall, of ``g^T``; the input rule of :func:`exact_polar`."""
    g = as_matrix(g, "g")
    return _exact_polar(g.T)[0].T if g.shape[0] > g.shape[1] else _exact_polar(g)[0]


def _fro(x: np.ndarray) -> float:
    """Frobenius norm of ``x``: the bits of ``np.linalg.norm(x)``, at less call overhead."""
    f = x.ravel(order="K")  # a view in memory order, also for a transposed ``x``
    return math.sqrt(f @ f)


def _rescale(delta: np.ndarray, target_norm: float) -> np.ndarray:
    """``delta``, which it writes, scaled to Frobenius norm ``target_norm``."""
    norm = _fro(delta)
    if norm == 0.0:
        raise ValueError("rescale_update: zero-norm delta has no direction")
    return np.multiply(delta, target_norm / norm, out=delta)


def rescale_update(delta, reference) -> np.ndarray:
    """A copy of ``delta`` scaled so its Frobenius norm matches that of ``reference``."""
    delta = as_matrix(delta, "delta")
    reference = as_matrix(reference, "reference")
    return _rescale(delta.copy(order="K"), _fro(reference))
