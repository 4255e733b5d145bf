"""The two stateless gradient pre-processing operators and update rescaling.

``grad_norm`` standardizes a gradient matrix row-wise (each row gets mean 0
and population std 1 across its columns). ``grad_whitening`` maps a gradient
G to its nearest row-orthogonal matrix (G G^T)^{-1/2} G, either exactly
through an SVD or approximately through a Newton-Schulz iteration, run as
matrix products on a small Gram matrix G G^T and on its eigenvalues from 128
rows on; ``orthogonalize`` is the exact factor for either shape.
``rescale_update`` restores the Frobenius norm of a reference matrix onto a
computed update direction. The Newton-Schulz and rescale kernels write their
input: their public entries hand them a copy. At every size GradNorm's row
statistics, the rescale and the rate fold into Z'', whose last product reads the
gradient itself: SWAN's step holds one m x n array beside the k x k Gram matrix,
and below 128 rows beside the loop's two more k x k arrays, so a square block
peaks at 3 k^2 (:func:`_ns_whiten` states the rule, the working set and the rule
for offset rows; CHANGES.md has the numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrixops import _SPLIT_MIN, _in_blocks, _matmul_blocks, _one_block, as_matrix

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

# numpy's default ufunc buffer, in entries, and its smallest, for the elementwise passes that
# run better without one (numpy's getbufsize() takes about 0.5 us a call)
_BUFFER, _SMALL_BUFFER = 8192, 16

# Below this ||G~||_F^2 the Gram matrix's products lose bits to subnormals; the spectral path then
# takes it of G~ scaled by a power of two, as it does where the squares overflow
_TINY = 1e-280

# From 128 rows a GradNorm'd step centres g before its last product where some row's |mean| / (std
# + epsilon) exceeds this: above it, folding the means into Z'' G - u cancels too many bits
_OFFSET = 64.0

# The chained recursion carries Z's scale (3b)^k as a float and folds it into Z where it leaves
# (1 / _SIGMA, _SIGMA): unfolded it would overflow from k ~ 810 at the default b = 0.8
_SIGMA = 1e150


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
    return _grad_norm(as_matrix(g, "g"), cfg)[0]


def _grad_norm(g: np.ndarray, cfg: GradNormConfig) -> tuple:
    """:func:`grad_norm` of a checked ``g`` into a new array (``g``'s memory order with
    ``subtract_mean``, C order without), and its row statistics as m x 1 columns: the mean (0.0
    without ``subtract_mean``) and std + epsilon, which Newton-Schulz whitening folds into Z''.
    Beside the output it holds one block of squares (:func:`_square_sums`) and, on C-ordered
    blocks, no ufunc buffer."""
    m, n = g.shape
    if cfg.subtract_mean and n < 2:
        raise ValueError(f"grad_norm with subtract_mean needs >= 2 columns, got {n}")
    if n < 1:
        raise ValueError("grad_norm needs at least one column")
    # c, in the memory order of ``g - mean`` or ``g.copy()``, is the one m x n buffer. A C-ordered
    # c runs by blocks of whole rows, squared into one scratch (sliced for a short last block, as
    # Adam's); an F-ordered one (a tall block's view, strided by rows) as one block, whose squares
    # _square_sums takes by blocks of columns.
    c, stats = np.empty_like(g) if cfg.subtract_mean else np.empty(g.shape), []
    rows = max(1, min(m, _BLOCK // n)) if c.flags.c_contiguous else m
    sq = np.empty_like(c[:rows]) if rows < m else None
    small = rows * n >= _BUFFER > n and c.flags.c_contiguous  # rows shorter than a buffer
    for i in range(0, max(m, 1), rows):  # an empty g has one (empty) block of statistics
        gb, cb = g[i : i + rows], c[i : i + rows]
        mean = np.add.reduce(gb, axis=1, keepdims=True) / n if cfg.subtract_mean else 0.0
        _unbuffered(small, np.subtract, gb, mean, cb)  # x - 0.0 is x, bit for bit
        std = np.sqrt(_square_sums(cb, None if sq is None else sq[: len(cb)]) / n)
        if cfg.epsilon == 0.0 and not std.all():
            dead = i + int(np.flatnonzero(std.ravel() == 0.0)[0])
            raise ValueError(f"zero-variance row {dead} with epsilon=0 (division by zero)")
        _unbuffered(small, np.divide, cb, np.add(std, cfg.epsilon, out=std), cb)
        stats.append((mean, std))
    if len(stats) == 1:
        return c, *stats[0]
    means, stds = zip(*stats)
    return c, np.concatenate(means) if cfg.subtract_mean else 0.0, np.concatenate(stds)


def _square_sums(c: np.ndarray, sq: np.ndarray | None) -> np.ndarray:
    """The row sums of ``c * c`` as an m x 1 array, with the bits of the whole reduction: pairwise
    along the rows of a C-ordered ``c`` (squared into ``sq``, a new array if None), in sequence
    along an F-ordered one. From 2^17 entries the latter runs by blocks of columns through one
    scratch of at most ``_BLOCK`` entries, whose first row holds the running sums."""
    if c.flags.c_contiguous or c.size < _SPLIT_MIN:
        return np.add.reduce(np.square(c, out=sq), axis=1, keepdims=True)
    m, n = c.shape
    rows, ct = max(1, _BLOCK // m - 1), c.T  # the rows of the C-ordered c^T are c's columns
    s = np.zeros((rows + 1, m))
    for j in range(0, n, rows):
        block = ct[j : j + rows]
        np.square(block, out=s[1 : len(block) + 1])
        np.add.reduce(s[: len(block) + 1], axis=0, out=s[0])  # s[0] + each row, in order
    return s[:1].T.copy()


def _unbuffered(on: bool, op, x: np.ndarray, y, out: np.ndarray) -> np.ndarray:
    """``op(x, y, out=out)``, elementwise; if ``on``, at numpy's smallest ufunc buffer. Numpy
    buffers a broadcast or strided operand by min(size, 8192) entries, and on lines shorter than
    that the copy is slower than the plain loop (CHANGES.md); an elementwise result has the same
    bits either way. Reductions are left at the default buffer."""
    if not on:
        return op(x, y, out=out)
    with np.errstate():  # which also restores the buffer size
        np.setbufsize(_SMALL_BUFFER)
        return op(x, y, out=out)


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
    the recursion runs on matrices: 3k - 2 m x m products chained and 3k - 3 paired (Z_1 is I + N_1
    or T_1 itself; the last P, and paired its P T, are not read), chained in 3 m x m arrays (a copy
    of ``a``, which holds P / 3, and N and Z, whose scale (3b)^k is carried as a float;
    :func:`_ns_recursion`), paired in 4 (P, T, P T and Z). From 128 rows it runs on the spectrum: Z
    is a polynomial f_k(a), so one ``eigh`` of ``a`` (which reads its lower triangle) gives Z = V
    f_k(lambda) V^T in the copy of ``a`` beside V (:func:`_v_diag_vt`; one row block more where f is
    signed, as paired on eigenvalues above 3). The eigenvalues are clamped at 0 first: on a
    rank-deficient ``a`` the round-off negatives are what the recursion grows by about 9 b^2 per
    iteration. Agrees with the matrix loop to round-off.
    """
    a = as_matrix(a, "a")
    if a.shape[1] != a.shape[0]:
        raise ValueError("newton_schulz_inverse_sqrt needs a square matrix")
    return _ns_inverse_sqrt(a.copy(), iterations, step_size, update_order)


def _ns_inverse_sqrt(a: np.ndarray, iterations, step_size, update_order):
    """:func:`newton_schulz_inverse_sqrt` of a square ``a``, which it writes: P goes into ``a``
    beside 2 m x m arrays below 128 rows (N and Z; paired 3: T, P T and Z), and from 128 Z
    beside V (:func:`_v_diag_vt`)."""
    m = len(a)
    if m < _SPECTRAL_MIN_ROWS:
        z, sigma = _ns_recursion(a, iterations, step_size, update_order, np.matmul, m + 1)
        return np.multiply(z, sigma, out=z)
    lam, v = np.linalg.eigh(a)
    np.maximum(lam, 0.0, out=lam)
    f, sigma = _ns_recursion(lam, iterations, step_size, update_order, np.multiply, 1)
    return _v_diag_vt(v, np.multiply(f, sigma, out=f), a)


def _v_diag_vt(v: np.ndarray, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """V diag(``d``) V^T into the k x k ``out``, writing V and ``d``: where ``d`` >= 0 the Gram
    matrix of V sqrt(d) in V's buffer (:func:`_gram`: half the flops, no row scratch), else V d
    there, times V^T by row blocks through one scratch (:func:`_matmul_blocks`)."""
    if d.min() >= 0.0:
        return _gram(_unbuffered(True, np.multiply, v, np.sqrt(d, out=d), v), out)
    return _matmul_blocks(np.multiply(v, d, out=out), v.T, 0, _BLOCK)


def _ns_recursion(p0, iterations, step_size, update_order, product, stride, s2=1.0):
    """Z of :func:`newton_schulz_inverse_sqrt` from P = ``p0`` / ``s2`` and Z = I, as (Z / sigma,
    sigma); each new P goes into ``p0``, which it writes. ``p0`` is either the Gram matrix, with
    ``product=np.matmul`` and the identity's diagonal every ``stride = m + 1`` flat entries, or its
    eigenvalues, with ``product=np.multiply`` and ``stride=1``.

    Paired, T = b (3I - P) gives Z <- T Z and P <- T (P T) in four arrays (P, T, P T, Z), and
    sigma = 1. Chained, with P~ = P / 3 and N = 3b (P~^2 - P~), the half-steps are Q = P T = -3N and
    S = b (3I - Q) = 3b (I + N), so Z <- S Z = 3b (Z + N Z) and P~ <- S Q / 3 = -3b (N + N^2): three
    arrays (P~, N, Z), and the scale sigma = (3b)^k carried as a float, folded into Z where it
    leaves (1 / ``_SIGMA``, ``_SIGMA``)."""
    b, shape, z, sigma = step_size, p0.shape, None, 1.0
    if update_order == "paired":
        p, t = np.divide(p0, s2, out=p0), np.empty(shape)  # T
        diag, u = t.reshape(-1)[::stride], None
        for i in range(1, iterations + 1):
            np.multiply(p, -b, out=t)  # b (3I - P): 3b is added on the diagonal
            np.add(diag, 3.0 * b, out=diag)
            if i < iterations:  # P T only feeds the next P
                u = product(p, t, out=u)
                product(t, u, out=p)
            if z is None:  # Z = I: the new Z is a copy of T
                z = t.copy()
            else:  # T Z into P T's buffer; the old Z's becomes the spare
                z, u = product(t, z, out=u), z
    else:
        p, n = np.divide(p0, 3.0 * s2, out=p0), np.empty(shape)  # P~, N
        for i in range(1, iterations + 1):
            np.multiply(np.subtract(product(p, p, out=n), p, out=n), 3.0 * b, out=n)
            sigma *= 3.0 * b
            if z is not None:  # N Z through P~'s buffer
                np.add(z, product(n, z, out=p), out=z)
            if i < iterations:
                np.multiply(np.add(product(n, n, out=p), n, out=p), -3.0 * b, out=p)
            if z is None:  # Z = I: the new Z is I + N, in N's buffer
                z, n = n, np.empty(shape) if i < iterations else None
                z.reshape(-1)[::stride] += 1.0
            if not 1.0 / _SIGMA < sigma < _SIGMA:
                z, sigma = np.multiply(z, sigma, out=z), 1.0
    if z is None:  # no iterations: Z = I
        z = np.zeros(shape)
        z.reshape(-1)[::stride] = 1.0
    return z, sigma


def _ns_whiten(
    g: np.ndarray,
    cfg: WhiteningConfig,
    norm: GradNormConfig | None = None,
    rescale: bool = False,
    lr: float = 1.0,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """Newton-Schulz whitening of a wide ``g``: ``w - lr D`` in a new array, or D without ``w``.
    D = Z G~n, scaled to Frobenius norm s if ``rescale``, where G~ is the GradNorm of ``g`` under
    ``norm`` (``g`` itself without it), s = ||G~||_F, G~n = G~ / s, and Z the recursion on
    G~n G~n^T. The one Newton-Schulz path of :func:`grad_whitening` and
    :func:`~swanopt.optimizers.swan_step`, and the one owner of G~.

    The Gram matrix of G~ itself is formed (:func:`_gram`) and G~ freed; s^2 = tr G~ G~^T. Where
    s^2 is outside (``_TINY``, inf), as for a whiten-only ``g`` near 1e+-155, it is the Gram matrix
    of G~ scaled by a power of two, in one more m x n array. Z is then made in one of two ways:

    * below 128 rows (k = m) by the matrix loop on P = G~n G~n^T, written over the Gram matrix, as
      Z / sigma (:func:`_ns_recursion`; 3 k x k arrays chained, 4 paired). Without ``rescale``,
      Z' = lr sigma / s (Z / sigma), so that lr D = Z' G~; with it Z' = Z / sigma, and the rescale
      and ``lr`` are read off D = Z' G~ after the pass below, by ||D||_F.
    * from 128 rows from the spectrum: one ``eigh`` gives V and lambda, and lambda_n = lambda / s^2,
      clamped at 0. As ||Z G~n||_F^2 = sum f^2 lambda_n with f = f_k(lambda_n), the rescale, s and
      ``lr`` fold into Z' = V diag(phi) V^T, with phi = lr f / sqrt(sum f^2 lambda_n) if ``rescale``
      and lr f / s if not, so that lr D = Z' G~. Z' is the Gram matrix of V sqrt(phi) where phi >= 0
      (:func:`_v_diag_vt`), as for every chained step size and paired up to 2/3.

    GradNorm's G~ = S^-1 (G - mu 1^T), S = diag(std + epsilon), folds in too: Z' G~ = Z'' G - u 1^T,
    with Z'' = Z' S^-1 (the columns of Z' scaled) and u = Z'' mu. One pass
    (:func:`_descend_columns`) on the column halves of :func:`~swanopt.matrixops._in_blocks` then
    reads ``g`` itself and writes ``w - (Z'' g - u)`` (or D, to be rescaled) into the returned
    array, in ``g``'s memory order. The fold cancels in floating point, by about 2e-15 (1 + r) with
    r = max |mu_i| / S_i, so where r > ``_OFFSET`` the pass centres ``g`` into the returned array
    first, by GradNorm's own subtract, and multiplies it in place by column blocks of
    min(``_BLOCK``, k^2) entries, or 64 columns if more, through one scratch per thread. Working
    set: one m x n array (G~, then the result) and the k x k Gram matrix, then Z'' (over it from 128
    rows), beside GradNorm's squares, the loop's N and Z below 128 rows (a square block peaks at 3
    k^2), V from 128 (its buffer holds V sqrt(phi); no row scratch) and on offset rows the column
    scratch. ``eigh``'s LAPACK workspace is outside numpy; CHANGES.md has the measurements."""
    gt, mean, std = (g, 0.0, None) if norm is None else _grad_norm(g, norm)
    with np.errstate(over="ignore", invalid="ignore"):  # s^2 is checked below
        gram, e = _gram(gt, np.empty((len(gt), len(gt)))), 0
    s2 = gram.trace()  # ||G~||_F^2
    if s2 == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    if not _TINY < s2 < np.inf:  # squares out of range (a whiten-only g): the Gram of 2^e G~
        e = -math.frexp(max(-gt.min(), gt.max()))[1]
        s2 = _gram(np.ldexp(gt, e), gram).trace()
    del gt  # G~, if GradNorm made it
    s = math.ldexp(math.sqrt(s2), -e)  # ||G~||_F
    it, small = (cfg.iterations, cfg.step_size, cfg.update_order), len(gram) < _SPECTRAL_MIN_ROWS
    late = small and rescale  # the rescale and lr read off D after the pass, not folded into Z'
    if small:
        z, sigma = _ns_recursion(gram, *it, np.matmul, len(gram) + 1, s2)
        if not late:
            np.multiply(z, lr * sigma / s, out=z)
    else:
        lam, v = np.linalg.eigh(gram)
        np.divide(np.maximum(lam, 0.0, out=lam), s2, out=lam)
        f, sigma = _ns_recursion(lam.copy(), *it, np.multiply, 1)
        norm_d = math.sqrt(np.dot(f * f, lam)) if rescale else s / sigma
        if norm_d == 0.0:
            raise ValueError("rescale_update: zero-norm delta has no direction")
        z = _v_diag_vt(v, np.multiply(f, lr / norm_d, out=f), gram)  # Z', over the Gram matrix
        del v, lam, f  # a signed Z' in one block is a new array
    del gram
    centre = u = None
    if std is not None:  # Z'' = Z' S^-1; then u = Z'' mu, or on offset rows g centred first
        np.divide(z, std.T, out=z)
        if norm.subtract_mean and (abs(mean) > _OFFSET * std).any():
            centre = mean
        elif norm.subtract_mean:
            u = z @ mean
    out = np.empty_like(g)
    args = (z, g, centre, u, None if late else w, out)
    if centre is None and _one_block(out.size, None):
        _descend_columns(args, out.shape[1], 0, 1)
    else:  # column halves from g, or if centred column blocks through one scratch per thread
        cap = None if centre is None else min(_BLOCK, z.size)
        _in_blocks(_descend_columns, args, out, 1, 64, cap)
    if not late:
        return out
    _rescale(out, lr * s)  # lr D from D = Z'' g - u
    return out if w is None else np.subtract(w, out, out=out)


def _descend_columns(args, width, lo, hi) -> None:
    """Blocks lo .. hi - 1 of ``width`` columns of :func:`_ns_whiten`'s pass: ``w - (Z'' g - u)``,
    or ``Z'' g - u`` without ``w``, into ``out``, read from ``g`` itself; or with a ``centre``,
    ``g - centre`` into ``out`` first and Z'' times it into one scratch. The elementwise passes run
    at numpy's smallest ufunc buffer (:func:`_unbuffered`)."""
    z, g, centre, u, w, out = args
    x = None if centre is None else np.empty_like(g[:, :width])
    with np.errstate():  # which also restores the buffer size
        np.setbufsize(_SMALL_BUFFER)
        for i in range(lo * width, min(hi * width, out.shape[1]), width):
            b = slice(i, i + width)
            if x is None:
                d = np.matmul(z, g[:, b], out=out[:, b])
                if u is not None:
                    np.subtract(d, u, out=d)
            else:
                c = np.subtract(g[:, b], centre, out=out[:, b])
                d = np.matmul(z, c, out=x[:, : c.shape[1]])
            if w is not None:
                np.subtract(w[:, b], d, out=out[:, b])
            elif x is not None:
                np.copyto(out[:, b], d)


def _gram(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x x^T of a wide ``x``, whole and symmetric, into the m x m ``out``: one product below 2^17
    entries, from there :func:`~swanopt.matrixops._in_blocks` on the rows A over B split at
    m / sqrt(2) on a multiple of 16, each block half the work: block 0 the symmetric A A^T, block 1
    B A^T below it, its mirror above and B B^T; the second runs on the worker if free."""
    if _one_block(x.size, None):
        return np.matmul(x, x.T, out=out)
    _in_blocks(_gram_blocks, (x, out), x, 0, 16 * max(1, round(len(x) / math.sqrt(512))), None)
    return out


def _gram_blocks(args, h, lo, hi) -> None:
    """Blocks lo .. hi - 1 of :func:`_gram` of ``args``, split at row ``h``."""
    x, gram = args
    top, low = x[:h], x[h:]
    if lo == 0:
        np.matmul(top, top.T, out=gram[:h, :h])
    if hi == 2:
        np.matmul(low, top.T, out=gram[h:, :h])
        gram[:h, h:] = gram[h:, :h].T
        np.matmul(low, low.T, out=gram[h:, h:])


def _descend(w: np.ndarray, delta: np.ndarray, lr: float) -> np.ndarray:
    """``w - lr delta`` into ``delta``, which it writes."""
    np.multiply(delta, lr, out=delta)
    return np.subtract(w, delta, out=delta)


def grad_whitening(g, cfg: WhiteningConfig = WhiteningConfig()) -> np.ndarray:
    """Map ``g`` (rows <= cols) to (an approximation of) ``(g g^T)^{-1/2} g``.

    In ``exact_eig`` mode the orthogonal polar factor U V^T is returned from a thin SVD and
    rank-deficient input is rejected. In ``newton_schulz`` mode the input is divided by its
    Frobenius norm, the coupled recursion is run for ``cfg.iterations`` steps, and ``Z @ g`` is
    returned *at the normalized scale*; downstream rescaling (see :func:`rescale_update`) restores
    magnitude. This mode is :func:`~swanopt.optimizers.swan_step`'s whitening, run by the same
    code (:func:`_ns_whiten`), where the step folds its rate into Z', so
    ``w - lr * grad_whitening(g)`` is its ``whiten_only`` step without rescale up to round-off.
    Rank deficiency is not rejected
    here: from 128 rows the recursion runs on the Gram spectrum clamped at 0, but below, on square
    GradNorm'd input, the chained default turns non-finite from 29-30 iterations (on 5, 2 and 4
    of seeds 0-5 at 50, 64 and 100 rows; finite to 60 on the others).
    """
    g = as_matrix(g, "g")
    if g.shape[0] > g.shape[1]:
        raise ValueError(f"grad_whitening needs rows <= cols, got {g.shape[0]}x{g.shape[1]}")
    return _exact_polar(g)[0] if cfg.mode == "exact_eig" else _ns_whiten(g, cfg)


def orthogonalize(g) -> np.ndarray:
    """The orthogonal polar factor U V^T of ``g`` of either shape, from one thin SVD of ``g``
    or, if tall, of ``g^T``; the input rule of :func:`exact_polar`."""
    g = as_matrix(g, "g")
    return _exact_polar(g.T)[0].T if g.shape[0] > g.shape[1] else _exact_polar(g)[0]


def _fro(x: np.ndarray) -> float:
    """Frobenius norm of ``x``: the bits of ``np.linalg.norm(x)``, at less call overhead, where the
    sum of squares s^2 lies in (``_TINY``, inf). Outside, as near 1e+-155, s^2 would overflow or
    lose its bits to subnormals: it is then taken of ``x`` scaled by a power of two."""
    f = x.ravel(order="K")  # a view in memory order, also for a transposed ``x``
    s2 = np.vdot(f, f)  # f @ f's bits, with no overflow warning
    if _TINY < s2 < np.inf:
        return math.sqrt(s2)
    e = -math.frexp(max(-f.min(initial=0.0), f.max(initial=0.0)))[1]  # 0 for an all-zero x
    f = np.ldexp(f, e)
    return math.ldexp(math.sqrt(f @ f), -e)


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
