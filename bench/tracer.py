"""In-memory call spans around the public functions of a package.

A :class:`Tracer` wraps functions so that every call records one span: the
function's name, its start and end on ``time.perf_counter``, the span that was
open when it was called (its parent) and, optionally, the work it did as a
number computed from its arguments. Spans stay in memory until
:meth:`Tracer.write` is called. :func:`patched` installs the wrappers for the
length of a ``with`` block and puts the originals back afterwards.

Modules that bind a function with ``from module import name`` hold their own
reference to it, so patching only the defining module would miss their calls.
:func:`patched` therefore rebinds every name, in every loaded module of the
package, that refers to the original function object.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


class Tracer:
    """Collects spans of wrapped calls; one tracer per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._work = array("d")
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span named ``name``.

        ``work(*args, **kwargs)``, when given, computes the work of one call
        from its arguments; it is recorded with the span.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = work(*args, **kwargs) if work is not None else 0.0
            span = len(self._start)
            self._name.append(name_id)
            self._parent.append(open_spans[-1] if open_spans else -1)
            self._work.append(done)
            self._end.append(0.0)
            open_spans.append(span)
            self._start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[span] = time.perf_counter()
                open_spans.pop()

        return traced

    @property
    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, total and self seconds, and recorded work.

        Self time is a span's duration minus the durations of its child spans.
        ``work_self_s`` is the self time of the spans that recorded work > 0,
        the time a work rate should be computed from.
        """
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        work = np.frombuffer(self._work, dtype=np.float64)
        child = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        own = duration - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        work_sum = np.bincount(names, weights=work, minlength=k)
        work_self = np.bincount(names, weights=np.where(work > 0, own, 0.0), minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "work": float(work_sum[i]),
                "work_self_s": float(work_self[i]),
            }
            for i, name in enumerate(self.names)
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        target, anc = self._name_ids[name], self._name_ids[ancestor]
        inside = array("b", bytes(self.span_count))
        count = 0
        for i in range(self.span_count):
            p = self._parent[i]
            inside[i] = p >= 0 and (inside[p] or self._name[p] == anc)
            count += inside[i] and self._name[i] == target
        return count

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV, times relative to creation."""
        with gzip.open(path, "wt") as out:
            out.write("span,name,parent,start_s,end_s,work\n")
            for i in range(self.span_count):
                out.write(
                    "%d,%s,%d,%.9f,%.9f,%.17g\n"
                    % (
                        i,
                        self.names[self._name[i]],
                        self._parent[i],
                        self._start[i] - self._origin,
                        self._end[i] - self._origin,
                        self._work[i],
                    )
                )


def _package_modules(package: str) -> list:
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == package or modname.startswith(package + "."))
    ]


@contextmanager
def patched(
    tracer: Tracer,
    package: str,
    targets: tuple[str, ...],
    work: dict[str, Callable] | None = None,
) -> Iterator[None]:
    """Wrap each target of ``package`` with ``tracer`` inside the block.

    A target is ``"module.function"`` or ``"module.Class.method"``. Functions
    are rebound wherever the package binds them; methods (including class
    methods) are replaced on their class, which every call looks up.
    """
    work = work or {}
    undo: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            modname, _, attr = target.partition(".")
            module = importlib.import_module(f"{package}.{modname}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(target, raw.__func__, work.get(target)))
                else:
                    wrapped = tracer.wrap(target, raw, work.get(target))
                undo.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(target, original, work.get(target))
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
