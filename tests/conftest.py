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


def _blocked_product(a, b, axis: int, cap: int | None = None, order: str = "C") -> np.ndarray:
    """``a @ b`` as :func:`swanopt.matrixops._matmul_blocks` forms it, restated in plain numpy:
    blocks of rows (``axis`` 0) on multiples of 16 or of columns (1) on multiples of 64, each a
    whole product written into an ``order``-ordered result, the last one ragged. A product within
    ``cap`` entries, or without a cap below 2^17, is one block. Otherwise a block is the most
    lines that fit in ``cap`` entries (from 2^17 entries, half of them), or without a cap half
    the lines."""
    out = np.empty((len(a), b.shape[1]), order=order)
    length, span, unit = out.shape[axis], out.shape[1 - axis], 64 if axis else 16
    split = out.size >= 1 << 17
    if (out.size <= cap) if cap else not split:
        width = length
    elif cap is None:
        width = unit * -(-length // unit // 2)
    else:
        width = unit * max(1, cap // span // unit >> split)
    for i in range(0, length, width):
        if axis:
            out[:, i : i + width] = a @ b[:, i : i + width]
        else:
            out[i : i + width] = a[i : i + width] @ b
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
    """``blocked(v, d)``: V diag(d) V^T as :func:`swanopt.gradient_ops._v_diag_vt` forms it, with
    V's memory order: where d >= 0 the Gram matrix of V sqrt(d) (:func:`_blocked_gram`), else
    (V d) V^T by row blocks of at most 2^15 entries (:func:`_blocked_product`)."""

    def blocked(v: np.ndarray, d: np.ndarray) -> np.ndarray:
        if d.min() >= 0.0:
            return _blocked_gram(v * np.sqrt(d))
        return _blocked_product(v * d, v.T, 0, 1 << 15)

    return blocked


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` sets the CPU count the library reads before it runs a pass in two halves:
    1 runs every pass on the calling thread, 2 hands half of a large one to the worker."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(matrixops, "_cpus", lambda pid: range(k))

    return set_count
