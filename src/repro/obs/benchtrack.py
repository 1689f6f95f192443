"""Benchmark trajectory: append-only history plus regression diffs.

Every benchmark already emits a machine-readable ``BENCH_<name>.json``
artifact (PR 3).  Those are point-in-time files — each CI run
overwrites the last, so the repo has no *trajectory*: no way to ask
"did ``bench_sweep`` get slower since last week?" without archaeology
through artifact archives.

This module seeds that trajectory:

- :func:`append_history` — fold one ``BENCH_<name>.json`` payload into
  a ``BENCH_HISTORY.jsonl`` (one run per line, append-only, sorted
  keys).  ``benchmarks/conftest.py`` calls it automatically after
  every emit, so any benchmark run grows the series for free.
- :func:`diff_latest` — compare each benchmark's most recent run
  against its recorded baseline (the median of all prior runs —
  robust to one noisy CI machine) and flag wall-time regressions
  beyond a threshold.
- ``repro bench-diff`` (see :mod:`repro.cli`) renders the diff and
  exits non-zero when anything regressed, making the trajectory a CI
  gate rather than a report.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BenchDelta",
    "append_history",
    "load_history",
    "diff_latest",
    "render_diff",
    "render_diff_json",
    "history_path",
    "HISTORY_FILENAME",
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_THRESHOLD_PCT",
]

#: Bumped when the history line layout changes.
HISTORY_SCHEMA_VERSION = 1

#: Default history file name, next to the ``BENCH_*.json`` artifacts.
HISTORY_FILENAME = "BENCH_HISTORY.jsonl"

#: Default regression threshold: latest more than 20% over baseline.
DEFAULT_THRESHOLD_PCT = 20.0


def history_path(directory: Optional[str] = None) -> str:
    """The history file inside *directory* (default: the bench output
    dir — ``REPRO_BENCH_OUT`` or the working directory)."""
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_OUT", os.getcwd())
    return os.path.join(directory, HISTORY_FILENAME)


def append_history(
    payload: dict,
    path: Optional[str] = None,
    recorded_at: Optional[float] = None,
) -> str:
    """Append one benchmark payload (a ``BENCH_<name>.json`` body with
    at least ``bench`` and ``wall_seconds``) to the history at *path*;
    returns the path written."""
    if "bench" not in payload or "wall_seconds" not in payload:
        raise ValueError(
            "bench history entries need 'bench' and 'wall_seconds'"
        )
    if path is None:
        path = history_path()
    entry = dict(payload)
    entry["schema"] = HISTORY_SCHEMA_VERSION
    entry["recorded_at"] = round(
        time.time() if recorded_at is None else recorded_at, 3
    )
    # Stamp the machine so the diff never compares runs across hosts
    # (a laptop's wall time against a CI runner's is noise, not a
    # regression).  Entries predating the stamp form their own group.
    entry.setdefault("host", platform.node() or "unknown")
    entry.setdefault("cpu_count", os.cpu_count() or 0)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(entry, sort_keys=True))
        stream.write("\n")
    return path


def load_history(path: str) -> List[dict]:
    """Parse a history file into entries, oldest first.

    Unparseable or wrong-schema lines are skipped (an interrupted
    append must not poison every later diff); missing files raise
    ``FileNotFoundError`` so the CLI can report them distinctly.
    """
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != HISTORY_SCHEMA_VERSION
                or "bench" not in entry
                or "wall_seconds" not in entry
            ):
                continue
            entries.append(entry)
    return entries


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark's latest run against its recorded baseline."""

    bench: str
    runs: int
    baseline_seconds: Optional[float]
    latest_seconds: float
    delta_pct: Optional[float]
    regressed: bool
    #: The host the compared runs executed on ("" for entries written
    #: before host stamping existed).
    host: str = ""


def diff_latest(
    entries: List[dict],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[BenchDelta]:
    """Each benchmark's latest run vs the median of its prior runs
    *on the same host*.

    Series are keyed by (bench, host), so a trajectory grown across
    machines never flags a slower machine as a regression; pre-stamp
    entries (no ``host`` field) form their own group.  A benchmark
    with a single recorded run in its group has no baseline yet (its
    delta is ``None`` and it can never regress — it *seeds* the
    trajectory).  A regression is ``latest > baseline * (1 + t/100)``.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    series: Dict[Tuple[str, str], List[float]] = {}
    for entry in entries:
        key = (str(entry["bench"]), str(entry.get("host", "")))
        series.setdefault(key, []).append(float(entry["wall_seconds"]))
    deltas: List[BenchDelta] = []
    for bench, host in sorted(series):
        walls = series[(bench, host)]
        latest = walls[-1]
        if len(walls) < 2:
            deltas.append(BenchDelta(
                bench=bench, runs=len(walls), baseline_seconds=None,
                latest_seconds=latest, delta_pct=None, regressed=False,
                host=host,
            ))
            continue
        baseline = median(walls[:-1])
        delta_pct = (
            (latest - baseline) / baseline * 100.0 if baseline > 0 else 0.0
        )
        deltas.append(BenchDelta(
            bench=bench,
            runs=len(walls),
            baseline_seconds=baseline,
            latest_seconds=latest,
            delta_pct=delta_pct,
            regressed=baseline > 0 and delta_pct > threshold_pct,
            host=host,
        ))
    return deltas


def render_diff(
    deltas: List[BenchDelta],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> str:
    """A fixed-width report of :func:`diff_latest` output."""
    lines = [
        "benchmark trajectory (threshold: +%.0f%%)" % threshold_pct,
        "%-32s %5s %12s %12s %9s  %s"
        % ("bench", "runs", "baseline s", "latest s", "delta", "status"),
    ]
    for delta in deltas:
        if delta.baseline_seconds is None:
            baseline = "-"
            change = "-"
            status = "seeded"
        else:
            baseline = "%.4f" % delta.baseline_seconds
            change = "%+.1f%%" % delta.delta_pct
            status = "REGRESSED" if delta.regressed else "ok"
        lines.append(
            "%-32s %5d %12s %12.4f %9s  %s"
            % (delta.bench, delta.runs, baseline,
               delta.latest_seconds, change, status)
        )
    regressed = sum(1 for d in deltas if d.regressed)
    lines.append(
        "%d benchmark(s), %d regressed" % (len(deltas), regressed)
    )
    return "\n".join(lines)


def render_diff_json(
    deltas: List[BenchDelta],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> str:
    """:func:`diff_latest` output as one JSON document (sorted keys) —
    the machine-readable twin of :func:`render_diff` for dashboards
    and scripted gates."""
    payload = {
        "schema": HISTORY_SCHEMA_VERSION,
        "threshold_pct": threshold_pct,
        "benchmarks": [asdict(delta) for delta in deltas],
        "regressed": sum(1 for d in deltas if d.regressed),
    }
    return json.dumps(payload, indent=1, sort_keys=True)
