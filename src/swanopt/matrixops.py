"""Dense float64 matrix primitives: validation, decompositions, norms, sampling.

All matrices are 2-D ``numpy.ndarray`` of float64. Every operation here is a
pure function; sampling operations take an explicit integer seed and are
bit-reproducible within a fixed numpy/BLAS build. ``_in_blocks`` holds the
library's one rule for blocked passes, and runs the large ones on two threads.

The library-wide shape convention is "wide": operators that care about
orientation expect ``rows <= cols``; their callers transpose tall inputs and
transpose back.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "SymEigDecomp",
    "sym_eig",
    "schatten1_norm",
    "sample_stiefel",
    "make_spd",
    "random_matrix",
]


def as_matrix(a, name: str = "matrix", shape: tuple[int, int] | None = None) -> np.ndarray:
    """Validate and convert real input to a finite 2-D float64 array (of ``shape``, if given)."""
    m = np.asarray(a)
    if m.dtype.kind == "c":  # float64 conversion would drop the imaginary part with a warning
        raise ValueError(f"{name} must be real, got dtype {m.dtype}")
    m = m.astype(np.float64, copy=False)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if shape is not None and m.shape != shape:
        raise ValueError(f"{name} must be {shape}, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


_SPLIT_MIN = 1 << 17  # passes of this many entries split in two (break-even in CHANGES.md)
_tasks, _busy = None, threading.Lock()  # the worker's queue, made with it by the first split
_cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))


def _in_blocks(fn, args: tuple, x: np.ndarray, axis: int, unit: int, cap: int | None) -> None:
    """The library's one blocking rule: a pass over the lines of ``x`` (rows for ``axis`` 0, columns
    for 1) runs as ``fn(args, width, lo, hi)`` on blocks lo .. hi - 1 of ``width`` lines, the last
    one ragged. A pass of one block (:func:`_one_block`) is its caller's to run whole. Otherwise a
    block is the most lines on a multiple of ``unit`` (at least one unit) that fit in ``cap``
    entries, halved from ``_SPLIT_MIN`` entries, or without a cap half the lines: the blocks, and so
    the bits, depend on the shape alone. If a pass splits and two CPUs are free, its upper half runs
    meanwhile on the worker thread, in this thread's context (numpy's errstate is a context
    variable); an error is raised once both halves have ended, the lower half's first. A call that
    finds ``_busy`` held (made by a half, or by another thread) runs serially, so no call waits on
    itself."""
    global _tasks
    split = x.size >= _SPLIT_MIN
    per = cap // x.shape[1 - axis] // unit >> split if cap else -(-x.shape[axis] // unit // 2)
    width = unit * max(per, 1)  # per: units of lines per block
    count = -(-x.shape[axis] // width)
    if count < 2 or not split or len(_cpus(0)) < 2 or not _busy.acquire(blocking=False):
        return fn(args, width, 0, count)
    if _tasks is None:  # if the thread fails to start, _busy stays held and later calls are serial
        _tasks = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_tasks,), daemon=True).start()
    half, done = -(-count // 2), queue.SimpleQueue()
    _tasks.put((done, contextvars.copy_context(), fn, (args, width, half, count)))
    try:
        fn(args, width, 0, half)
    finally:
        error = done.get()
        _busy.release()
    if error is not None:
        raise error


def _one_block(size: int, cap: int | None) -> bool:
    """Whether a pass of ``size`` entries is one block: within ``cap``, or without it below 2^17."""
    return size < _SPLIT_MIN if cap is None else size <= cap


def _matmul_blocks(a, b) -> np.ndarray:
    """``a @ b`` into a new array by the blocks of :func:`_in_blocks` on multiples of 64 columns
    of ``b``. Blocks need not keep the whole product's bits (CHANGES.md lists the shapes whose bits
    moved)."""
    if _one_block(len(a) * b.shape[1], None):
        return a @ b
    out = np.empty((len(a), b.shape[1]))
    _in_blocks(_matmul_columns, (a, b, out), out, 1, 64, None)
    return out


def _subtract(a, c) -> np.ndarray:
    """``a - c`` into ``a``, whole in one block, else on row halves (contiguous: unbuffered)."""
    if _one_block(a.size, None):
        return np.subtract(a, c, out=a)
    _in_blocks(_subtract_rows, (a, c), a, 0, 1, None)
    return a


def _subtract_rows(args, width, lo, hi) -> None:
    """Blocks lo .. hi - 1 of ``width`` rows of :func:`_subtract` of ``args``."""
    (a, c), rows = args, slice(lo * width, hi * width)
    np.subtract(a[rows], c[rows], out=a[rows])


def _matmul_columns(args, width, lo, hi) -> None:
    """Blocks lo .. hi - 1 of ``width`` columns of :func:`_matmul_blocks` of ``args``."""
    a, b, out = args
    for i in range(lo * width, min(hi * width, out.shape[1]), width):
        np.matmul(a, b[:, i : i + width], out=out[:, i : i + width])


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        done, context, fn, args = tasks.get()
        try:
            done.put(context.run(fn, *args))  # None
        except BaseException as error:
            done.put(error)
        del done, context, fn, args  # a task's arrays die with it, not at the next task


def _forget_worker() -> None:  # in a forked child, which has no worker thread
    global _tasks, _busy
    _tasks, _busy = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


@dataclass(frozen=True)
class SymEigDecomp:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns, so
    ``eigenvectors @ diag(eigenvalues) @ eigenvectors.T`` reconstructs the
    (symmetrized) input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a) -> SymEigDecomp:
    """Eigendecomposition of ``(a + a.T) / 2``, eigenvalues descending.

    Non-square input is rejected. Deterministic for a fixed input and numpy
    build (LAPACK ``syevd`` under the hood).
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eig needs a square matrix, got {a.shape[0]}x{a.shape[1]}")
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    return SymEigDecomp(eigenvalues=vals[::-1].copy(), eigenvectors=vecs[:, ::-1].copy())


def schatten1_norm(a) -> float:
    """Nuclear norm: sum of singular values.

    Computed from the eigenvalues alone of the Gram matrix (the smaller of
    ``a a.T`` / ``a.T a``, exactly symmetric) by ``np.linalg.eigvalsh``; tests
    cross-check it against an independent bidiagonalization SVD.
    """
    a = as_matrix(a, "a")
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))))


def random_matrix(rows: int, cols: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded i.i.d. Gaussian matrix times ``scale``, scaled in place: one array per draw."""
    x = np.random.default_rng(seed).normal(size=(rows, cols))
    if scale != 1.0:
        x *= scale
    return x


def sample_stiefel(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded matrix with orthonormal rows (``W W.T = I``), 1 <= rows <= cols.

    A Gaussian draw is orthogonalized by QR; the sign of each R diagonal is
    folded into Q so the result is unique and reproducible per seed.
    """
    if not 1 <= rows <= cols:
        raise ValueError(f"sample_stiefel needs 1 <= rows <= cols, got {rows}x{cols}")
    g = random_matrix(cols, rows, seed)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def make_spd(size: int, condition_number: float, seed: int) -> np.ndarray:
    """Seeded symmetric positive definite matrix with a prescribed condition number.

    Built as ``Q diag(lam) Q.T``, symmetrized, with log-uniformly spaced eigenvalues spanning
    ``[1, condition_number]`` and a random orthogonal Q from :func:`sample_stiefel`; the product
    scales Q's columns, with no dense diagonal. ``QuadraticProblem.seeded`` keeps Q and lam."""
    return _spd_factors(size, condition_number, seed)[0]


def _spd_factors(size: int, condition_number: float, seed: int):
    """(H, Q, lam) of :func:`make_spd`: H exactly symmetric, lam ascending from 1."""
    if not 1.0 <= condition_number < np.inf:
        raise ValueError(f"condition_number must be finite and >= 1, got {condition_number}")
    lam = np.geomspace(1.0, condition_number, size)
    q = sample_stiefel(size, size, seed).T
    h = (q * lam) @ q.T
    return 0.5 * (h + h.T), q, lam
