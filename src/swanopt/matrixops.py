"""Dense float64 matrix primitives: validation, decompositions, norms, sampling.

All matrices are 2-D ``numpy.ndarray`` of float64. Every operation here is a
pure function; sampling operations take an explicit integer seed and are
bit-reproducible within a fixed numpy/BLAS build. ``_in_halves`` runs the
library's large blocked passes on two threads.

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
    """Validate and convert input to a finite 2-D float64 array (of ``shape``, if given)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if shape is not None and m.shape != shape:
        raise ValueError(f"{name} must be {shape}, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


# Blocked passes over at least _SPLIT_MIN entries take blocks of half their serial size, so that
# the blocks and the bits depend on the shape alone (break-even in CHANGES.md).
_SPLIT_MIN = 1 << 17
_tasks, _busy = None, threading.Lock()  # the worker's queue, made with it by the first split
_cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))


def _in_halves(fn, split: bool, count: int, *args) -> None:
    """``fn(*args, 0, count)``, where ``fn(*args, lo, hi)`` runs blocks lo .. hi - 1 of a pass. If
    ``split`` and two CPUs are free, blocks from ceil(count / 2) on run meanwhile on the worker
    thread, in this thread's context (numpy's errstate is a context variable); an error is raised
    once both halves have ended, the lower half's first. A call that finds ``_busy`` held (made by
    a half, or by another thread) runs serially, so no call waits on itself."""
    global _tasks
    if not split or len(_cpus(0)) < 2 or not _busy.acquire(blocking=False):
        return fn(*args, 0, count)
    if _tasks is None:  # if the thread fails to start, _busy stays held and later calls are serial
        _tasks = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_tasks,), daemon=True).start()
    half, done = -(-count // 2), queue.SimpleQueue()
    _tasks.put((done, contextvars.copy_context(), fn, (*args, half, count)))
    try:
        fn(*args, 0, half)
    finally:
        error = done.get()
        _busy.release()
    if error is not None:
        raise error


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

    Computed from the eigenvalues of the Gram matrix (the smaller of
    ``a a.T`` / ``a.T a``) through :func:`sym_eig`; tests cross-check it
    against an independent bidiagonalization SVD.
    """
    a = as_matrix(a, "a")
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    vals = sym_eig(gram).eigenvalues
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def random_matrix(rows: int, cols: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded i.i.d. Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(rows, cols))


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

    Built as ``Q diag(lam) Q.T`` with log-uniformly spaced eigenvalues spanning
    ``[1, condition_number]`` and a random orthogonal Q from :func:`sample_stiefel`.
    """
    if not 1.0 <= condition_number < np.inf:
        raise ValueError(f"condition_number must be finite and >= 1, got {condition_number}")
    lam = np.geomspace(1.0, condition_number, size)
    q = sample_stiefel(size, size, seed).T
    h = q @ np.diag(lam) @ q.T
    return 0.5 * (h + h.T)

