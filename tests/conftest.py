"""Helpers shared by the test modules."""

import os
import tracemalloc

import numpy as np
import pytest

from swanopt import matrixops


def _warm_peak_bytes(fn, *args) -> int:
    """Peak bytes ``fn(*args)`` allocates above what is live at its start, after a
    warm-up call (tracemalloc counts numpy arrays, not LAPACK's own workspace)."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def warm_peak_bytes():
    """:func:`_warm_peak_bytes`, for the working-set tests."""
    return _warm_peak_bytes


def _where() -> str:
    """The BLAS build and thread count, for the failure messages of the bit tests."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"BLAS {blas}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def _assert_close(got: np.ndarray, whole: np.ndarray, rtol: float = 1e-12) -> None:
    """Assert ``got`` within ``rtol`` of ``whole`` in the max norm, relative to the largest entry
    (the largest errors measured on these tests: 7.6e-16 for H w at 1001 x 300, 6.5e-16 for a
    SWAN step on the spectrum)."""
    assert got.shape == whole.shape
    error = np.max(np.abs(got - whole), initial=0.0) / np.max(np.abs(whole), initial=1.0)
    if not error <= rtol:
        pytest.fail(f"wrong: {error:.3g} from the whole products, above {rtol:g}; {_where()}")


@pytest.fixture
def assert_close():
    """:func:`_assert_close`, for results whose bits are their own."""
    return _assert_close


def _assert_same_bits(got: np.ndarray, want: np.ndarray, whole=None, rtol: float = 1e-12) -> None:
    """Assert ``got`` has ``want``'s memory order and bits. With ``whole``, the same values from
    whole products, first assert ``got`` within ``rtol`` of it (:func:`_assert_close`), so that a
    failure says whether the result is wrong or only its bits moved. Blocked products keep their
    blocked expressions' bits only on the BLAS build, kernel and thread count they were measured on
    (OpenBLAS 0.3.31, AVX-512, 1 thread): a failure names them."""
    if whole is not None:
        _assert_close(got, whole, rtol)
    same = got.flags.f_contiguous == want.flags.f_contiguous
    if not (same and got.tobytes(order="A") == want.tobytes(order="A")):
        close = "" if whole is None else f", within {rtol:g} of the whole products"
        pytest.fail(f"bits differ{close}; {_where()}")


@pytest.fixture
def assert_same_bits():
    """:func:`_assert_same_bits`, for the bit-identity tests of the blocked kernels."""
    return _assert_same_bits


def _blocked_product(a, b, order: str = "C") -> np.ndarray:
    """``a @ b`` as :func:`swanopt.matrixops._matmul_blocks` forms it, restated in plain numpy:
    blocks of columns on multiples of 64, each a whole product written into an ``order``-ordered
    result, the last one ragged. A product below 2^17 entries is one block; from there a block is
    half the columns."""
    out = np.empty((len(a), b.shape[1]), order=order)
    n = out.shape[1]
    width = 64 * -(-n // 64 // 2) if out.size >= 1 << 17 else n
    for i in range(0, n, width):
        out[:, i : i + width] = a @ b[:, i : i + width]
    return out


@pytest.fixture
def blocked_product():
    """:func:`_blocked_product`, the oracle of the blocked products' bits."""
    return _blocked_product


def _blocked_gram(x: np.ndarray) -> np.ndarray:
    """x x^T as :func:`swanopt.gradient_ops._gram` forms it, restated in plain numpy: whole below
    2^17 entries; from there with the rows A over B split at h, m / sqrt(2) on a multiple of 16,
    as the whole products A A^T, B A^T below it and B B^T, and the transpose of B A^T above."""
    if x.size < 1 << 17:
        return x @ x.T
    m = len(x)
    h = 16 * max(1, round(m / np.sqrt(512)))  # sqrt(512) = 16 sqrt(2)
    top, low, out = x[:h], x[h:], np.empty((m, m))
    out[:h, :h] = top @ top.T
    out[h:, :h] = low @ top.T
    out[:h, h:] = out[h:, :h].T
    out[h:, h:] = low @ low.T
    return out


@pytest.fixture
def blocked_gram():
    """:func:`_blocked_gram`, the oracle of the Gram matrices' bits."""
    return _blocked_gram


@pytest.fixture
def blocked_spectral():
    """``blocked(v, d)``: V diag(d) V^T as :func:`swanopt.gradient_ops._v_diag_vt` forms it: the
    Gram matrix of V sqrt(d + c) (:func:`_blocked_gram`) less c on its diagonal, with
    c = max(0, -min d), 0 unless d is signed."""

    def blocked(v: np.ndarray, d: np.ndarray) -> np.ndarray:
        c = max(0.0, -d.min())
        z = _blocked_gram(v * np.sqrt(d + c))
        z[np.diag_indices(len(z))] -= c
        return z

    return blocked


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` sets the CPU count the library reads before it runs a pass in two halves:
    1 runs every pass on the calling thread, 2 hands half of a large one to the worker."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(matrixops, "_cpus", lambda pid: range(k))

    return set_count


def _ns_loop(p: np.ndarray, k: int, b: float, order: str, s2: float = 1.0) -> tuple:
    """(Z / sigma, sigma) of :func:`swanopt.gradient_ops._ns_recursion` on an m x m ``p`` whose P
    is ``p`` / ``s2``, restated in plain numpy with each product into a new array (``p`` is not
    written). Paired: T = b (3I - P), then P <- T (P T) and Z <- T Z, with sigma = 1. Chained, in
    the three-buffer form: P~ = P / 3 and N = 3b (P~^2 - P~), then Z <- Z + N Z (Z_1 = I + N) and
    P~ <- -3b (N + N^2), with sigma = (3b)^k, folded into Z where it leaves (1e-150, 1e150)."""
    diagonal = slice(None, None, len(p) + 1)
    z, sigma = None, 1.0
    if order == "paired":
        p = p / s2
        for i in range(1, k + 1):
            t = np.multiply(p, -b)
            t.reshape(-1)[diagonal] += 3.0 * b
            if i < k:
                p = t @ (p @ t)
            z = t.copy() if z is None else t @ z
        return z, sigma
    p = p / (3.0 * s2)
    for i in range(1, k + 1):
        n = (p @ p - p) * (3.0 * b)
        sigma *= 3.0 * b
        if z is not None:
            z = z + n @ z
        if i < k:
            p = (n @ n + n) * (-3.0 * b)
        if z is None:
            z = n.copy()
            z.reshape(-1)[diagonal] += 1.0
        if not 1e-150 < sigma < 1e150:
            z, sigma = z * sigma, 1.0
    return z, sigma


@pytest.fixture
def ns_loop():
    """:func:`_ns_loop`, the oracle of the matrix loop's bits."""
    return _ns_loop


def _width(n: int, cap: int | None, m: int) -> int:
    """The width in columns of :func:`swanopt.matrixops._in_blocks`' blocks over the columns of an
    m x ``n`` pass on multiples of 64: all of them in one block within ``cap`` entries, or without
    a cap below 2^17; else the most that fit in ``cap`` entries (halved from 2^17), or without a cap
    half of them."""
    split = m * n >= 1 << 17
    if cap is None:
        return 64 * -(-n // 64 // 2) if split else n
    return n if m * n <= cap else 64 * max(1, cap // m // 64 >> split)


def _grad_norm_whole(g, norm) -> tuple:
    """GradNorm's (G~, mu, S) under GradNormConfig ``norm``, restated in plain numpy: mu the row
    means (0.0 without ``subtract_mean``), C = g - mu in ``g``'s memory order, S = std + epsilon
    with C's row sums of squares as one row-wise dot (einsum), and G~ = C / S."""
    n = g.shape[1]
    mean = np.add.reduce(g, axis=1, keepdims=True) / n if norm.subtract_mean else 0.0
    c = g - mean if norm.subtract_mean else g
    std = np.sqrt(np.einsum("ij,ij->i", c, c)[:, None] / n) + norm.epsilon
    return c / std, mean, std


def _folded_tail(w, g, norm, cfg, rescale: bool = False, lr: float = 1.0) -> np.ndarray:
    """:func:`swanopt.gradient_ops._ns_whiten` of a wide ``g`` below 128 rows, restated in plain
    numpy: G~ with its row statistics (:func:`_grad_norm_whole` under GradNormConfig ``norm``, or
    ``g`` itself without), s^2 = tr G~ G~^T (of 2^e G~ where out of (1e-280, inf)), Z / sigma from
    :func:`_ns_loop` on the Gram matrix over s^2, then Z'' = c (Z / sigma) S^-1 with
    c = lr sigma / s, or 1 with ``rescale``, u = Z'' mu, and one pass by the column blocks of the
    library: ``w - (Z'' g - u)``, or where some |mu_i| > 64 (std_i + epsilon) ``w - Z'' (g - mu)``,
    g - mu formed whole first. With ``rescale`` the pass writes D = Z'' g - u, and the step is
    w - lr s D / ||D||_F. Without ``w``, D."""
    gt, mean, std = (g, 0.0, None) if norm is None else _grad_norm_whole(g, norm)
    gram, e = _blocked_gram(gt), 0
    s2 = np.trace(gram)
    if not 1e-280 < s2 < np.inf:
        e = -np.frexp(max(-gt.min(), gt.max()))[1]
        gram = _blocked_gram(np.ldexp(gt, e))
        s2 = np.trace(gram)
    s = np.ldexp(np.sqrt(s2), -e)
    z, sigma = _ns_loop(gram, cfg.iterations, cfg.step_size, cfg.update_order, s2)
    if not rescale:
        z = z * (lr * sigma / s)
    centre = u = None
    if std is not None:
        z = z / std.T
        if norm.subtract_mean and np.any(np.abs(mean) > 64.0 * std):
            centre = mean
        elif norm.subtract_mean:
            u = z @ mean
    out, m, n = np.empty_like(g), *g.shape
    x = g if centre is None else g - centre
    width = _width(n, None if centre is None else min(1 << 15, z.size), m)
    for i in range(0, n, width):
        b = slice(i, i + width)
        d = np.matmul(z, x[:, b], out=out[:, b])
        if u is not None:
            d -= u
        if w is not None and not rescale:
            out[:, b] = w[:, b] - d
        else:
            out[:, b] = d
    if rescale:
        out *= lr * s / np.linalg.norm(out)
        if w is not None:
            out = np.subtract(w, out, out=out)
    return out


@pytest.fixture
def folded_tail():
    """:func:`_folded_tail`, the oracle of the bits of Newton-Schulz whitening below 128 rows."""
    return _folded_tail
