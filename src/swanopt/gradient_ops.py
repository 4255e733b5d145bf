"""The two stateless gradient pre-processing operators and update rescaling.

``grad_norm`` standardizes a gradient matrix row-wise (each row gets mean 0
and population std 1 across its columns). ``grad_whitening`` maps a gradient
G to its nearest row-orthogonal matrix (G G^T)^{-1/2} G, either exactly
through an SVD or approximately through a Newton-Schulz iteration, run as
matrix products on a small Gram matrix G G^T and on its eigenvalues from 128
rows on; ``orthogonalize`` is the exact factor for either shape.
``rescale_update`` restores the Frobenius norm of a reference matrix onto a
computed update direction. The rescale kernel writes its input: its public
entry hands it a copy. GradNorm is one rule: one centred copy of g divided in
place by its row statistics (:func:`_grad_norm`). Whitening takes its Gram
matrix and frees it, and folds the statistics into the one pass that reads g
(:func:`_ns_whiten`, the one place that decides how Z is made).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matrixops import _in_blocks, _one_block, as_matrix

__all__ = [
    "GradNormConfig",
    "WhiteningConfig",
    "grad_norm",
    "grad_whitening",
    "exact_polar",
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

# Below this ||G~||_F^2 the Gram matrix's products lose bits to subnormals; whitening then takes it
# of G~ scaled by a power of two, as it does where the squares overflow
_TINY = 1e-280

# From 128 rows a GradNorm'd step centres g before its last product where some row's |mean| / (std
# + epsilon) exceeds this: above it, folding the means into Z'' G - u cancels too many bits
_OFFSET = 64.0

# The chained recursion carries Z's scale (3b)^k as a float and folds it into Z where it leaves
# (1 / _SIGMA, _SIGMA): unfolded it would overflow from k ~ 810 at the default b = 0.8
_SIGMA = 1e150


@dataclass(frozen=True)
class GradNormConfig:
    """GradNorm's one setting: ``epsilon`` is added to each row's std to guard constant rows."""

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
    track Z and P = Z Y, see :func:`_ns_recursion`):

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
        if isinstance(self.iterations, bool) or not isinstance(self.iterations, numbers.Integral):
            raise ValueError(f"iterations must be an integer, got {self.iterations!r}")
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


def _unbuffered(fn):
    """``fn`` at a ufunc buffer of 64 entries, in the worker too (it runs in the caller's context).
    Numpy buffers a broadcast operand, as GradNorm's m x 1 statistics, by min(size, 8192) entries:
    slower on rows shorter than that, as large as a small array, with the same bits; at 16, numpy's
    smallest, the 8-entry lines of a 64 x 8 block's view run slower (CHANGES.md). GradNorm,
    V sqrt(phi) and each column block of SWAN's last pass run so. :func:`_ns_whiten` runs GradNorm's
    body (``__wrapped__``) and the Gram matrix in one such block, and the Newton-Schulz loop, on
    contiguous operands, without it, so that the loop's peak holds no context and no buffer."""

    @functools.wraps(fn)
    def unbuffered(*args):
        with np.errstate():  # which also restores the buffer size
            np.setbufsize(64)
            return fn(*args)

    return unbuffered


@_unbuffered
def _grad_norm(g: np.ndarray, cfg: GradNormConfig) -> tuple:
    """GradNorm's one rule, for a checked ``g``: (G~, mu, S), with the m x 1 row means mu and
    S = std + epsilon, which whitening folds into Z''. One centred copy C = g - mu 1^T in ``g``'s
    memory order gives std by one row-wise dot of its rows, which allocates no m x n buffer, and
    is divided in place: G~ = C / S. Rows whose squares overflow, or with epsilon = 0 whose std is
    below sqrt(``_TINY``), take it from :func:`_fro`: scale-free at both ends, so that a row is dead
    with epsilon = 0 only if its norm is 0."""
    n = g.shape[1]
    if n < 2:
        raise ValueError(f"grad_norm needs >= 2 columns, got {n}")
    mean = np.add.reduce(g, axis=1, keepdims=True) / n
    c = np.subtract(g, mean, out=np.empty_like(g))
    std = np.einsum("ij,ij->i", c, c)  # row sums of squares, by a dot
    np.sqrt(np.divide(std, n, out=std), out=std)
    low = math.sqrt(_TINY) if cfg.epsilon == 0.0 else 0.0  # below, subnormal squares set std
    if std.dot(std) == np.inf or low and std.min(initial=low) < low:  # out of range: _fro's rescue
        for i in np.flatnonzero((std == np.inf) | (std < low)):
            std[i] = _fro(c[i]) / math.sqrt(n)
    if cfg.epsilon == 0.0 and not std.all():  # name the first zero
        raise ValueError(f"zero-variance row {np.argmin(std)} with epsilon=0 (division by zero)")
    std = np.add(std[:, None], cfg.epsilon)  # new, not a view: one object held across the loop
    return np.divide(c, std, out=c), mean, std


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


@_unbuffered
def _v_diag_vt(v: np.ndarray, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Z' = V diag(``d``) V^T of :func:`_ns_whiten` into the k x k ``out``, writing V and ``d``. V
    is orthogonal, so this is the Gram matrix of V sqrt(d + c) (in V's buffer, :func:`_gram`: half
    the flops, no row scratch) less c I, with c = max(0, -min d): 0 unless ``d`` is signed, which
    only the paired order above b = 2/3 makes (then about 1e-14 of round-off)."""
    c = max(0.0, -d.min())
    np.sqrt(np.add(d, c, out=d), out=d)
    z = _gram(np.multiply(v, d, out=v), out)
    z.reshape(-1)[:: len(z) + 1] -= c
    return z


def _ns_recursion(p0, iterations, step_size, update_order, product, stride, s2=1.0):
    """Z of the coupled Newton-Schulz recursion from Y = a = ``p0`` / ``s2`` and Z = I, as (Z /
    sigma, sigma): each iteration applies Y <- b Y (3I - Z Y) and Z <- b (3I - Z Y) Z with b =
    ``step_size``, in either order of :class:`WhiteningConfig`; paired at b = 0.5 with the spectrum
    of a inside (0, 2), Z -> a^{-1/2}. The iterates are polynomials in a and commute, so P = Z Y
    stands for Y, each new P into ``p0``, which it writes. ``p0`` is either the Gram matrix, with
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
    return z, sigma


def _ns_whiten(
    g: np.ndarray,
    cfg: WhiteningConfig,
    norm: GradNormConfig | None = None,
    rescale: bool = False,
    lr: float = 1.0,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """Newton-Schulz whitening of a wide ``g``: ``w - lr D`` in a new array, or D without ``w``,
    which ``rescale`` needs. D = Z G~n, scaled to Frobenius norm s if ``rescale``, where G~ is the
    GradNorm of ``g`` under ``norm`` (:func:`_grad_norm`; ``g`` itself without it), s = ||G~||_F,
    G~n = G~ / s, and Z the recursion on G~n G~n^T. The one Newton-Schulz path of
    :func:`grad_whitening` and :func:`~swanopt.optimizers.swan_step`, and the one owner of G~.

    The Gram matrix of G~ itself is formed (:func:`_gram`) and G~ freed; s^2 = tr G~ G~^T. Where
    s^2 is outside (``_TINY``, inf), as for a whiten-only ``g`` near 1e+-155 or where epsilon
    dominates std near 1e-160, it is the Gram matrix of G~ scaled by a power of two, in G~'s buffer
    (a new one if G~ is ``g``). Z is then made in one of two ways:

    * below 128 rows (k = m) by the matrix loop on P = G~n G~n^T, written over the Gram matrix, as
      Z / sigma (:func:`_ns_recursion`; 3 k x k arrays chained, 4 paired). Without ``rescale``,
      Z' = lr sigma / s (Z / sigma), so that lr D = Z' G~; with it Z' = Z / sigma, and the rescale
      and ``lr`` are read off D = Z' G~ after the pass below, by ||D||_F.
    * from 128 rows from the spectrum: one ``eigh`` gives V and lambda, and lambda_n = lambda / s^2,
      clamped at 0. As ||Z G~n||_F^2 = sum f^2 lambda_n with f = f_k(lambda_n), the rescale, s and
      ``lr`` fold into Z' = V diag(phi) V^T, with phi = lr f / sqrt(sum f^2 lambda_n) if ``rescale``
      and lr f / s if not, so that lr D = Z' G~. Z' is the Gram matrix of V sqrt(phi + c) less c I
      (:func:`_v_diag_vt`); c = max(0, -min phi) is 0 chained and paired up to b = 2/3.

    GradNorm's G~ = S^-1 (G - mu 1^T), S = diag(std + epsilon), folds in too: Z' G~ = Z'' G - u 1^T,
    with Z'' = Z' S^-1 (the columns of Z' scaled) and u = Z'' mu. One pass
    (:func:`_descend_columns`) on the column halves of :func:`~swanopt.matrixops._in_blocks` then
    reads ``g`` itself and writes ``w - (Z'' g - u)`` (or D, to be rescaled) into the returned
    array, in ``g``'s memory order. The fold cancels in floating point, by about 2e-15 (1 + r) with
    r = max |mu_i| / S_i, so where r > ``_OFFSET`` G - mu 1^T goes into the returned array first
    and the pass reads it in place by column blocks of min(``_BLOCK``, k^2) entries, or 64 columns
    if more, each copied by numpy's matmul. Working set: one m x n array (G~, GradNorm's centred
    copy, then the result) and the k x k Gram matrix, then Z'' (over it from 128 rows), beside the
    loop's N and Z below 128 rows (a square block peaks at 3 k^2), V from 128 (its buffer holds
    V sqrt(phi + c)) and on offset rows one column block per thread. GradNorm holds no squares, and
    no context or ufunc buffer is held across the loop (:func:`_unbuffered`). ``eigh``'s LAPACK
    workspace is outside numpy; CHANGES.md has the numbers."""
    quiet = None if norm else "ignore"  # only a whiten-only g's squares leave the range
    with np.errstate(over=quiet, invalid=quiet):  # s^2 is checked below
        np.setbufsize(64)  # GradNorm at _unbuffered's buffer, restored before the loop
        gt, mean, std = (g, 0.0, None) if norm is None else _grad_norm.__wrapped__(g, norm)
        gram, e = _gram(gt, np.empty((len(gt), len(gt)))), 0
    s2 = gram.trace()  # ||G~||_F^2
    if s2 == 0.0:
        raise ValueError("cannot whiten an all-zero matrix")
    if not _TINY < s2 < np.inf:  # squares out of range: the Gram matrix of 2^e G~
        e = -math.frexp(max(-gt.min(), gt.max()))[1]
        s2 = _gram(np.ldexp(gt, e, out=None if gt is g else gt), gram).trace()
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
        del v, lam, f  # V's buffer, before the result is allocated
    del gram
    out = u = None
    if std is not None:  # Z'' = Z' S^-1; then u = Z'' mu, or on offset rows g - mu into the result
        np.divide(z, std.T, out=z)
        if (abs(mean) > _OFFSET * std).any():
            g = out = _unbuffered(np.subtract)(g, mean, np.empty_like(g))
        else:
            u = z @ mean
    out = np.empty_like(g) if out is None else out
    args, cap = (z, g, u, None if late else w, out), min(_BLOCK, z.size) if g is out else None
    if _one_block(out.size, cap):
        _descend_columns(args, out.shape[1], 0, 1)
    else:  # column halves from g, or capped column blocks from the centred result
        _in_blocks(_descend_columns, args, out, 1, 64, cap)
    return np.subtract(w, _rescale(out, lr * s), out=out) if late else out  # late: w - lr D


@_unbuffered
def _descend_columns(args, width, lo, hi) -> None:
    """Blocks lo .. hi - 1 of ``width`` columns of :func:`_ns_whiten`'s pass: ``w - (Z'' g - u)``,
    or ``Z'' g - u`` without ``w`` (u = 0 if None), into ``out``. ``g`` may be ``out`` itself, each
    block of which numpy's matmul copies before it writes it."""
    z, g, u, w, out = args
    for i in range(lo * width, min(hi * width, out.shape[1]), width):
        b = slice(i, i + width)
        d = np.matmul(z, g[:, b], out=out[:, b])
        if u is not None:
            np.subtract(d, u, out=d)
        if w is not None:
            np.subtract(w[:, b], d, out=d)


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
    Rank deficiency is not rejected here: from 128 rows the recursion runs on the Gram spectrum
    clamped at 0, but below, on square GradNorm'd input, the chained default turns non-finite
    from 28-30 iterations (on 5, 3 and 4 of seeds 0-5 at 50, 64 and 100 rows; finite to 60 on
    the others).
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
