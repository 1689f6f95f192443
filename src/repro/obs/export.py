"""Exporters: Chrome trace-event JSON and OpenMetrics text.

``to_openmetrics`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot (or any dict shaped like one — a ``--metrics-out`` file, a
telemetry sample) as the OpenMetrics text exposition format Prometheus
tooling scrapes: counters as ``<name>_total``, gauges verbatim,
histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum`` /
``_count``, ``# EOF`` terminated.  Instrument names are sanitised
(``engine.messages_delivered`` → ``repro_engine_messages_delivered``)
so the output drops straight into ``promtool check metrics`` and
node-exporter-style textfile collectors.

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
import re
from typing import List, Optional

from .metrics import get_registry
from .spans import SpanRecord, finished_roots

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "to_openmetrics",
    "write_openmetrics",
    "lint_openmetrics",
]

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


# ---------------------------------------------------------------------
# OpenMetrics text exposition

_METRIC_PREFIX = "repro_"
_BAD_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """An instrument name as a legal, ``repro_``-prefixed OpenMetrics
    metric name (dots and other separators become underscores)."""
    cleaned = _BAD_METRIC_CHARS.sub("_", name).strip("_")
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return _METRIC_PREFIX + cleaned


def _format_value(value: float) -> str:
    """Numbers the exposition format accepts: integral values without
    a trailing ``.0`` (counters are conceptually integers here)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return "%d" % int(number)
    return repr(number)


def to_openmetrics(snapshot: Optional[dict] = None) -> str:
    """Render *snapshot* (default: the process-wide registry's) as
    OpenMetrics text.

    Accepts any dict with ``counters`` / ``gauges`` / ``histograms``
    keys shaped like :meth:`MetricsRegistry.snapshot` — including a
    parsed ``--metrics-out`` file.  Telemetry samples compact their
    histograms to ``{count, sum}``; those render as the ``_sum`` /
    ``_count`` series without buckets.
    """
    if snapshot is None:
        snapshot = get_registry().snapshot()
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = metric_name(name)
        lines.append("# TYPE %s counter" % metric)
        lines.append(
            "%s_total %s"
            % (metric, _format_value(snapshot["counters"][name]))
        )
    for name in sorted(snapshot.get("gauges", {})):
        metric = metric_name(name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append(
            "%s %s" % (metric, _format_value(snapshot["gauges"][name]))
        )
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = metric_name(name)
        lines.append("# TYPE %s histogram" % metric)
        buckets = data.get("buckets") or []
        cumulative = 0
        saw_inf = False
        for bound, count in buckets:
            cumulative += int(count)
            if bound == "+Inf":
                saw_inf = True
                label = "+Inf"
            else:
                label = _format_value(float(bound))
            lines.append(
                '%s_bucket{le="%s"} %d' % (metric, label, cumulative)
            )
        if buckets and not saw_inf:
            lines.append(
                '%s_bucket{le="+Inf"} %d'
                % (metric, int(data.get("count", cumulative)))
            )
        lines.append(
            "%s_sum %s" % (metric, _format_value(data.get("sum", 0.0)))
        )
        lines.append(
            "%s_count %d" % (metric, int(data.get("count", 0)))
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: \S+)?$"
)


def lint_openmetrics(text: str) -> List[str]:
    """Check *text* against the OpenMetrics text-format rules this
    exporter promises; returns problem descriptions (empty = clean).

    Covers the properties scrapers actually depend on — a ``# EOF``
    terminator on the final line, parseable sample lines, ``# TYPE``
    declared before (and only once for) each family, histogram bucket
    series that are cumulative with a ``+Inf`` bucket equal to
    ``_count`` — so CI can gate exported ``metrics.prom`` files
    without ``promtool``.
    """
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing '# EOF' terminator on the final line")
    types: dict = {}
    buckets: dict = {}
    counts: dict = {}
    for number, line in enumerate(lines, 1):
        if line == "# EOF":
            if number != len(lines):
                problems.append(
                    "line %d: '# EOF' before the final line" % number
                )
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                family, kind = parts[2], parts[3]
                if family in types:
                    problems.append(
                        "line %d: duplicate TYPE for %s" % (number, family)
                    )
                types[family] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append("line %d: unparseable sample %r" % (number, line))
            continue
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                "line %d: non-numeric value %r"
                % (number, match.group("value"))
            )
            continue
        family = name
        for suffix in ("_bucket", "_total", "_sum", "_count"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in types and name not in types:
            problems.append(
                "line %d: sample %s before any TYPE declaration"
                % (number, name)
            )
        if name.endswith("_bucket"):
            labels = match.group("labels") or ""
            if 'le="' not in labels:
                problems.append(
                    "line %d: histogram bucket without an le label"
                    % number
                )
                continue
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            series = buckets.setdefault(family, [])
            if series and value < series[-1][1]:
                problems.append(
                    "%s: bucket counts not cumulative (le=%r)"
                    % (name, le)
                )
            series.append((le, value))
        elif name.endswith("_count") and types.get(family) == "histogram":
            counts[family] = value
    for family, series in sorted(buckets.items()):
        les = [le for le, _ in series]
        if "+Inf" not in les:
            problems.append("%s: histogram without a +Inf bucket" % family)
            continue
        inf_value = dict(series)["+Inf"]
        if family in counts and counts[family] != inf_value:
            problems.append(
                "%s: +Inf bucket (%g) != _count (%g)"
                % (family, inf_value, counts[family])
            )
    return problems


def write_openmetrics(path: str, snapshot: Optional[dict] = None) -> int:
    """Write :func:`to_openmetrics` to *path*; returns the number of
    metric families rendered."""
    if snapshot is None:
        snapshot = get_registry().snapshot()
    text = to_openmetrics(snapshot)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)
    return sum(
        len(snapshot.get(kind, {}))
        for kind in ("counters", "gauges", "histograms")
    )
