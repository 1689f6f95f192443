"""Exporter: Chrome trace-event JSON.

``chrome_trace`` turns :class:`~repro.obs.spans.SpanRecord` trees (by
default, this thread's :func:`~repro.obs.spans.finished_roots`) into
the Trace Event Format's object form::

    {"traceEvents": [{"name": ..., "ph": "X", "ts": ..., "dur": ...,
                      "pid": 1, "tid": 1, "cat": "repro"}, ...],
     "displayTimeUnit": "ms"}

which loads directly in ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev — "Open trace file").  Every span becomes one
complete ("X") event; ``ts``/``dur`` are microseconds, as the format
requires.

Timestamps are normalised so the earliest root starts at ``ts=0``:
span ``started_at`` values are ``perf_counter`` readings, meaningful
only relative to each other within one process.  Cell-worker
subtrees re-attached by
:func:`~repro.obs.spans.attach_completed` carry a *foreign*
``perf_counter`` base; any child that appears to start before its
parent is re-based to its parent's start, preserving the subtree's
internal offsets — so merged traces stay well-nested instead of
flying off the timeline.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .spans import SpanRecord, finished_roots

__all__ = ["chrome_trace", "write_chrome_trace"]

_CATEGORY = "repro"
_MICROSECONDS = 1_000_000.0


def _emit(
    node: SpanRecord,
    origin: float,
    events: List[dict],
    pid: int,
    tid: int,
) -> None:
    """Append *node*'s event (ts relative to *origin*) and recurse.

    *origin* is the ``perf_counter`` value this subtree maps to
    ``ts=0``; children on a foreign clock (started before their
    parent — impossible on one clock) get a fresh origin aligning
    their start with the parent's.
    """
    ts_seconds = node.started_at - origin
    events.append({
        "name": node.name,
        "cat": _CATEGORY,
        "ph": "X",
        "ts": round(ts_seconds * _MICROSECONDS, 3),
        "dur": round((node.duration or 0.0) * _MICROSECONDS, 3),
        "pid": pid,
        "tid": tid,
    })
    for child in node.children:
        if child.started_at < node.started_at:
            child_origin = child.started_at - ts_seconds
        else:
            child_origin = origin
        _emit(child, child_origin, events, pid, tid)


def chrome_trace(
    roots: Optional[List[SpanRecord]] = None,
    pid: int = 1,
) -> dict:
    """Build a Chrome trace-event document from completed span trees.

    *roots* defaults to this thread's finished root spans.  Returns a
    JSON-serialisable dict (the object form, so metadata keys can ride
    along).
    """
    if roots is None:
        roots = finished_roots()
    events: List[dict] = []
    if roots:
        base = min(root.started_at for root in roots)
        for root in roots:
            _emit(root, base, events, pid, tid=1)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export"},
    }


def write_chrome_trace(
    path: str,
    roots: Optional[List[SpanRecord]] = None,
) -> int:
    """Write :func:`chrome_trace` to *path*; returns the event count."""
    document = chrome_trace(roots)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return len(document["traceEvents"])

