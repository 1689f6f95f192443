"""Chrome trace-event JSON: the exporter, and the span table read back
from it.

``chrome_trace`` turns :class:`~repro.obs.spans.SpanRecord` trees (by
default, this thread's :func:`~repro.obs.spans.finished_roots`) into
the Trace Event Format's object form::

    {"traceEvents": [{"name": ..., "ph": "X", "ts": ..., "dur": ...,
                      "pid": 1, "tid": 1, "cat": "repro"}, ...],
     "displayTimeUnit": "ms"}

which loads directly in ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev — "Open trace file").  Every span becomes one
complete ("X") event, in preorder; ``ts``/``dur`` are microseconds, as
the format requires.

Timestamps are normalised so the earliest root starts at ``ts=0``:
span ``started_at`` values are ``perf_counter`` readings, meaningful
only relative to each other within one process.  Cell-worker
subtrees re-attached by
:func:`~repro.obs.spans.attach_completed` carry a *foreign*
``perf_counter`` base; any child that appears to start before its
parent is re-based to its parent's start, preserving the subtree's
internal offsets — so merged traces stay well-nested instead of
flying off the timeline.  Events on one track (``tid``) must nest, so
a subtree that overlaps an earlier sibling — a pooled worker's cell,
run concurrently with another — is emitted on a track of its own.

The read side answers "where did the time go?" from a written trace
(``repro profile TRACE.json``): :func:`load_chrome_trace` reads the
complete events back, :func:`span_table` rebuilds each track's nesting
from the preorder events' ``ts``/``dur`` and totals calls, inclusive
and self seconds per span name, and :func:`render_span_table` prints
the table.  Function-level hotspots are ``python -m cProfile``'s job.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Iterator, List, Optional, Tuple

from .spans import SpanRecord, finished_roots

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "span_table",
    "render_span_table",
    "DEFAULT_TOP_N",
]

_CATEGORY = "repro"
_MICROSECONDS = 1_000_000.0

#: Rows :func:`render_span_table` prints by default.
DEFAULT_TOP_N = 20

#: Slack (microseconds) when testing whether one event nests inside
#: another: ``ts`` and ``dur`` are each rounded to the nanosecond.
_NEST_SLACK_US = 0.01


def _emit(
    node: SpanRecord,
    origin: float,
    events: List[dict],
    pid: int,
    tid: int,
    tracks: Iterator[int],
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
    _emit_siblings(
        [
            (
                child,
                child.started_at - ts_seconds
                if child.started_at < node.started_at else origin,
            )
            for child in node.children
        ],
        events, pid, tid, tracks,
    )


def _emit_siblings(
    nodes: List[Tuple[SpanRecord, float]],
    events: List[dict],
    pid: int,
    tid: int,
    tracks: Iterator[int],
) -> None:
    """Emit sibling subtrees, each with its origin, in order: on *tid*
    while they follow one another, on a fresh track from *tracks* when
    one starts before the previous sibling on *tid* ended."""
    busy_until: Optional[float] = None
    for node, origin in nodes:
        start = node.started_at - origin
        if busy_until is not None and start < busy_until:
            _emit(node, origin, events, pid, next(tracks), tracks)
            continue
        busy_until = start + (node.duration or 0.0)
        _emit(node, origin, events, pid, tid, tracks)


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
        _emit_siblings(
            [(root, base) for root in roots],
            events, pid, 1, itertools.count(2),
        )
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


# -- the read side ----------------------------------------------------


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_chrome_trace(path: str) -> List[dict]:
    """The complete (``"X"``) events of the trace document at *path*,
    in file order.  Raises ``OSError`` when the file cannot be read and
    ``ValueError`` when it is not a trace-event JSON document."""
    with open(path, "r", encoding="utf-8") as stream:
        try:
            document = json.load(stream)
        except (ValueError, RecursionError) as error:
            raise ValueError("%s: not JSON (%s)" % (path, error)) from None
    events = (
        document.get("traceEvents") if isinstance(document, dict) else None
    )
    if not isinstance(events, list):
        raise ValueError(
            "%s: not a trace-event document (no traceEvents list)" % path
        )
    complete = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        if not (
            isinstance(event.get("name"), str)
            and _number(event.get("ts"))
            and _number(event.get("dur"))
        ):
            raise ValueError(
                "%s: malformed complete event %r" % (path, event)
            )
        complete.append(event)
    return complete


def span_table(events: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``seconds`` and ``self``
    seconds (inclusive minus the direct children's).

    *events* are complete events in preorder, as
    :func:`chrome_trace` writes them.  Each track's nesting is rebuilt
    with a stack: an event is a child of the innermost open event on
    its track that encloses it.
    """
    stacks: Dict[tuple, List[Tuple[int, float, float]]] = {}
    selfs: List[float] = []
    for index, event in enumerate(events):
        start = float(event["ts"])
        duration = float(event["dur"])
        end = start + duration
        stack = stacks.setdefault((event.get("pid"), event.get("tid")), [])
        while stack and not (
            start >= stack[-1][1] - _NEST_SLACK_US
            and end <= stack[-1][2] + _NEST_SLACK_US
        ):
            stack.pop()
        if stack:
            selfs[stack[-1][0]] -= duration
        selfs.append(duration)
        stack.append((index, start, end))
    table: Dict[str, Dict[str, float]] = {}
    for event, self_us in zip(events, selfs):
        row = table.setdefault(
            event["name"], {"calls": 0, "seconds": 0.0, "self": 0.0}
        )
        row["calls"] += 1
        row["seconds"] += float(event["dur"]) / _MICROSECONDS
        row["self"] += max(0.0, self_us) / _MICROSECONDS
    return table


def render_span_table(
    table: Dict[str, Dict[str, float]], top: int = DEFAULT_TOP_N
) -> str:
    """The *top* span names by self seconds, with calls, inclusive and
    self seconds and each name's share of all self time."""
    total = sum(row["self"] for row in table.values())
    lines = [
        "span profile: %d span name(s), %d span(s), %.6f s of self time"
        % (len(table), sum(row["calls"] for row in table.values()), total),
        "",
        "%-44s %8s %12s %12s %6s"
        % ("span", "calls", "seconds", "self", "share"),
    ]
    ranked = sorted(
        table.items(), key=lambda item: (-item[1]["self"], item[0])
    )
    for name, row in ranked[:top]:
        lines.append("%-44s %8d %12.6f %12.6f %5.1f%%" % (
            name[:44], row["calls"], row["seconds"], row["self"],
            100.0 * row["self"] / total if total else 0.0,
        ))
    if len(ranked) > top:
        lines.append("... %d more span name(s)" % (len(ranked) - top))
    return "\n".join(lines)
