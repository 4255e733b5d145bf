"""Helpers shared by the test modules."""

import os
import tracemalloc

import numpy as np
import pytest


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


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Assert ``got`` has ``want``'s memory order and bits. The column-blocked Z G~ and
    the row-blocked Z = (V f) V^T are known to keep the bits of the whole products
    ``z @ gn`` and ``np.multiply(v, f) @ v.T`` only on the BLAS build, kernel and thread
    count they were measured on (OpenBLAS 0.3.31, AVX-512, 1 thread): a failure names them."""
    same = got.flags.f_contiguous == want.flags.f_contiguous
    if not (same and got.tobytes(order="A") == want.tobytes(order="A")):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
        pytest.fail(f"bits differ; BLAS {blas}, OPENBLAS_NUM_THREADS={threads}")


@pytest.fixture
def assert_same_bits():
    """:func:`_assert_same_bits`, for the bit-identity tests of the blocked kernels."""
    return _assert_same_bits
