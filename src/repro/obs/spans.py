"""Timing spans: wall-time histograms plus a lightweight trace tree.

Usage, as a context manager or a decorator::

    with span("engine.run_to_fixpoint"):
        ...

    @span("fastpath.propagate")
    def propagate_fastpath(...):
        ...

Each completed span observes its wall-clock duration into the
histogram ``span.<name>.seconds`` of the process-wide metrics
registry (resolved at *exit* time, so :func:`repro.obs.use_registry`
isolation works even around already-entered spans).

Spans nest: entering a span inside another makes it a child, and the
completed roots form a trace tree (:func:`finished_roots`) whose
nodes carry name, start offset, and duration — enough to see where a
``reproduce`` run spends its time without a tracing backend
(``--trace-out`` writes it, ``repro profile`` tabulates it).  The
stack is thread-local; trees from different threads never interleave.
The retained-roots buffer is bounded so long-lived processes do not
leak; histograms are unaffected by the bound.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, List, Optional

from .metrics import DEFAULT_TIME_BUCKETS, get_registry

__all__ = ["SpanRecord", "span", "finished_roots", "reset_trace",
           "current_span", "detached_trace", "attach_completed"]

#: Retain at most this many completed root spans per thread.
MAX_FINISHED_ROOTS = 256

class SpanRecord:
    """One completed (or in-flight) span."""

    __slots__ = ("name", "started_at", "duration", "children")

    def __init__(self, name: str, started_at: float) -> None:
        self.name = name
        self.started_at = started_at
        self.duration: Optional[float] = None
        self.children: List["SpanRecord"] = []

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "started_at": self.started_at,
            "duration": self.duration,
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        record = cls(data["name"], float(data.get("started_at", 0.0)))
        record.duration = data.get("duration")
        record.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanRecord(%r, duration=%r, children=%d)" % (
            self.name, self.duration, len(self.children)
        )


class _TraceState(threading.local):
    def __init__(self) -> None:
        self.stack: List[SpanRecord] = []
        self.roots: List[SpanRecord] = []


_state = _TraceState()


def current_span() -> Optional[SpanRecord]:
    """The innermost open span on this thread, if any."""
    return _state.stack[-1] if _state.stack else None


def finished_roots() -> List[SpanRecord]:
    """Completed top-level spans on this thread, oldest first."""
    return list(_state.roots)


def reset_trace() -> None:
    """Drop this thread's completed trace tree (open spans survive)."""
    del _state.roots[:]


@contextlib.contextmanager
def detached_trace():
    """Run a block against a fresh, empty span stack.

    Pooled cell workers wrap their cell in this so their spans never nest
    under (or corrupt) whatever stack the caller — or, under ``fork``,
    the parent process at fork time — had open.  The previous stack and
    roots are restored on exit; the block's completed roots are
    discarded (the worker exports them explicitly via
    :meth:`SpanRecord.as_dict`).
    """
    saved_stack, saved_roots = _state.stack, _state.roots
    _state.stack, _state.roots = [], []
    try:
        yield
    finally:
        _state.stack, _state.roots = saved_stack, saved_roots


def attach_completed(tree: dict) -> SpanRecord:
    """Graft a completed span tree (a :meth:`SpanRecord.as_dict` export
    from another process) under this thread's innermost open span, or
    as a root if none is open.

    Histograms are *not* observed — the exporting process already
    recorded its durations into its own registry, which is merged
    separately — so attaching never double-counts.
    """
    record = SpanRecord.from_dict(tree)
    if _state.stack:
        _state.stack[-1].children.append(record)
    else:
        _state.roots.append(record)
        if len(_state.roots) > MAX_FINISHED_ROOTS:
            del _state.roots[: len(_state.roots) - MAX_FINISHED_ROOTS]
    return record


class span:
    """Context manager *and* decorator timing one named section."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._record: Optional[SpanRecord] = None
        self._t0 = 0.0

    # -- context manager ----------------------------------------------

    def __enter__(self) -> SpanRecord:
        record = SpanRecord(self.name, time.perf_counter())
        self._record = record
        self._t0 = record.started_at
        _state.stack.append(record)
        return record

    def __exit__(self, *exc_info) -> None:
        record = self._record
        self._record = None
        duration = time.perf_counter() - self._t0
        record.duration = duration
        stack = _state.stack
        # Tolerate exotic unwinding: pop through anything above us.
        while stack and stack[-1] is not record:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(record)
        else:
            roots = _state.roots
            roots.append(record)
            if len(roots) > MAX_FINISHED_ROOTS:
                del roots[: len(roots) - MAX_FINISHED_ROOTS]
        get_registry().histogram(
            "span.%s.seconds" % self.name, DEFAULT_TIME_BUCKETS
        ).observe(duration)

    # -- decorator ----------------------------------------------------

    def __call__(self, func: Callable) -> Callable:
        name = self.name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with span(name):
                return func(*args, **kwargs)

        return wrapper
