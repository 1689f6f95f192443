"""Deterministic phase profiler: where wall time goes, per phase.

The span layer (:mod:`repro.obs.spans`) already names every
interesting section of a run — ``engine.run_to_fixpoint``,
``runner.round.4-0``, ``runner.shard.3``, ``campaign.cell.surf-s0`` —
so profiling does not need its own vocabulary: a
:class:`PhaseProfiler` observes span enter/exit through a hook in the
span layer and aggregates per-phase call counts and wall seconds.
When cProfile is available (stdlib) and enabled, each phase
additionally collects **exclusive** function-level hotspots: entering
a nested phase pauses the outer phase's collector and resumes it on
exit, so a function's samples land in the innermost named phase that
executed it.  With cProfile off, the same tables fall back to
counter-based phase attribution (calls + inclusive wall seconds).

Aggregation is per phase *name*, and the span names carry the
(config, round, shard) context; the profiler adds ``labels`` (e.g.
the campaign cell) for the remaining axes.  The profiler is the
``profiler`` channel of a :class:`~repro.obs.capture.Capture`: shard
and campaign-cell workers profile into a child capture whose payload
ships back and is folded in with :meth:`PhaseProfiler.merge_payload`
in task order, so a pooled run's tables cover the whole fleet.

Profiling is **opt-in** and *execution metadata*: payloads contain
wall-clock timings and so live outside every byte-identity surface
(like ``wall_seconds`` and :class:`~repro.experiment.records.DegradationRecord`).
Disabled, the whole layer costs one module-global ``None`` check per
span (guarded by ``benchmarks/bench_profile.py``).
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import threading
from typing import Dict, List, Optional

from . import spans

__all__ = [
    "PhaseProfiler",
    "render_profile",
    "load_profile",
    "export_profile",
    "PROFILE_SCHEMA_VERSION",
    "DEFAULT_TOP_N",
]

#: Bumped when the payload layout changes; consumers should check it.
PROFILE_SCHEMA_VERSION = 1

#: Hotspot rows retained per phase and rendered per table.
DEFAULT_TOP_N = 20


def _func_key(func) -> str:
    """One pstats function tuple as a stable display string."""
    filename, lineno, name = func
    if filename == "~":
        return name  # built-ins print as "<built-in ...>"
    return "%s:%d(%s)" % (os.path.basename(filename), lineno, name)


class _ProfilerThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Optional[cProfile.Profile]] = []


class PhaseProfiler:
    """Aggregates span phases (and optional cProfile hotspots).

    Parameters
    ----------
    use_cprofile:
        Collect function-level hotspots with :mod:`cProfile`.  Off,
        the profiler still attributes calls and wall seconds per phase
        (the "counter-based" mode — cheap enough for always-on use).
    top_n:
        Hotspot rows kept per phase in the payload.
    """

    def __init__(
        self, use_cprofile: bool = True, top_n: int = DEFAULT_TOP_N
    ) -> None:
        if top_n < 1:
            raise ValueError("profiler top_n must be >= 1")
        self.use_cprofile = use_cprofile
        self.top_n = top_n
        self.labels: Dict[str, str] = {}
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: phase name -> {"calls", "seconds"}
        self._phases: Dict[str, Dict[str, float]] = {}
        #: phase name -> {func display -> {"calls","tottime","cumtime"}}
        self._hotspots: Dict[str, Dict[str, Dict[str, float]]] = {}
        self._profiles: Dict[str, cProfile.Profile] = {}
        self._stats_cache: Optional[pstats.Stats] = None
        self._threads = _ProfilerThreadState()

    # -- span-layer observer interface --------------------------------

    def owns_process(self) -> bool:
        """False in a forked child that inherited this profiler (the
        child must not mutate the parent's aggregates — see
        :meth:`repro.obs.capture.Capture.child`)."""
        return os.getpid() == self._pid

    def phase_enter(self, record: spans.SpanRecord) -> None:
        if not self.use_cprofile or not self.owns_process():
            return
        stack = self._threads.stack
        if stack and stack[-1] is not None:
            stack[-1].disable()  # pause the outer phase's collector
        with self._lock:
            profile = self._profiles.get(record.name)
            if profile is None:
                profile = self._profiles[record.name] = cProfile.Profile()
        stack.append(profile)
        try:
            profile.enable()
        except ValueError:
            # Re-entered phase (recursive span): the collector is
            # already running for an outer frame; track it as inactive
            # so exit pairing stays balanced.
            stack[-1] = None

    def phase_exit(self, record: spans.SpanRecord) -> None:
        if not self.owns_process():
            return
        if self.use_cprofile:
            stack = self._threads.stack
            if stack:
                profile = stack.pop()
                if profile is not None:
                    profile.disable()
            if stack and stack[-1] is not None:
                try:
                    stack[-1].enable()  # resume the outer phase
                except ValueError:
                    stack[-1] = None
        self._note_phase(record.name, 1, record.duration or 0.0)

    def _note_phase(self, name: str, calls: int, seconds: float) -> None:
        with self._lock:
            entry = self._phases.get(name)
            if entry is None:
                entry = self._phases[name] = {"calls": 0, "seconds": 0.0}
            entry["calls"] += calls
            entry["seconds"] += seconds

    # -- fold-in from worker processes ---------------------------------

    def merge_payload(self, payload: Optional[dict]) -> None:
        """Fold another profiler's :meth:`as_payload` export (a pooled
        campaign cell's profile) into this one.  Associative, so cells
        merge in cell order without ordering artifacts."""
        if not payload:
            return
        with self._lock:
            for key, value in payload.get("labels", {}).items():
                mine = self.labels.get(key)
                if mine is None:
                    self.labels[key] = value
                elif value not in mine.split(","):
                    self.labels[key] = ",".join(
                        sorted(set(mine.split(",")) | {value})
                    )
        for name, data in payload.get("phases", {}).items():
            self._note_phase(
                name, int(data.get("calls", 0)),
                float(data.get("seconds", 0.0)),
            )
            with self._lock:
                table = self._hotspots.setdefault(name, {})
                for row in data.get("hotspots", ()):
                    entry = table.setdefault(
                        row["func"],
                        {"calls": 0, "tottime": 0.0, "cumtime": 0.0},
                    )
                    entry["calls"] += int(row.get("calls", 0))
                    entry["tottime"] += float(row.get("tottime", 0.0))
                    entry["cumtime"] += float(row.get("cumtime", 0.0))

    # -- export -------------------------------------------------------

    def _harvest_hotspots(self) -> None:
        """Snapshot every phase's cProfile data into the mergeable
        hotspot tables (idempotent: collectors are drained)."""
        with self._lock:
            profiles = dict(self._profiles)
            self._profiles = {}
        for name, profile in profiles.items():
            profile.create_stats()
            stats = pstats.Stats(profile, stream=io.StringIO())
            with self._lock:
                table = self._hotspots.setdefault(name, {})
                rows = stats.stats.items()  # type: ignore[attr-defined]
                for func, (cc, nc, tt, ct, _callers) in rows:
                    entry = table.setdefault(
                        _func_key(func),
                        {"calls": 0, "tottime": 0.0, "cumtime": 0.0},
                    )
                    entry["calls"] += nc
                    entry["tottime"] += tt
                    entry["cumtime"] += ct
            if self._stats_cache is None:
                self._stats_cache = stats
            else:
                self._stats_cache.add(profile)

    def as_payload(self) -> dict:
        """The JSON-safe profile artifact (``--profile-out`` body)."""
        self._harvest_hotspots()
        with self._lock:
            phases = {}
            for name in sorted(self._phases):
                entry = dict(self._phases[name])
                table = self._hotspots.get(name, {})
                top = sorted(
                    table.items(),
                    key=lambda item: (-item[1]["tottime"], item[0]),
                )[: self.top_n]
                entry["hotspots"] = [
                    {
                        "func": func,
                        "calls": int(row["calls"]),
                        "tottime": round(row["tottime"], 6),
                        "cumtime": round(row["cumtime"], 6),
                    }
                    for func, row in top
                ]
                phases[name] = entry
            return {
                "schema": PROFILE_SCHEMA_VERSION,
                "kind": "phase_profile",
                "cprofile": self.use_cprofile,
                "labels": dict(sorted(self.labels.items())),
                "phases": phases,
            }

    def dump_pstats(self, path: str) -> bool:
        """Write the accumulated cProfile data as a binary pstats file
        (loadable with ``pstats.Stats(path)``); returns False when no
        cProfile data was collected in this process."""
        self._harvest_hotspots()
        stats = self._stats_cache
        if stats is None:
            return False
        stats.dump_stats(path)
        return True


# -- artifacts and rendering ------------------------------------------


def export_profile(profiler: PhaseProfiler, path: str) -> dict:
    """Write *profiler*'s JSON payload to *path* (and, when cProfile
    data exists in this process, a binary twin at ``<path>.pstats``);
    returns the payload."""
    payload = profiler.as_payload()
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if profiler.use_cprofile:
        profiler.dump_pstats(path + ".pstats")
    return payload


def load_profile(path: str) -> dict:
    """Load profile artifacts from *path* — one payload file, or a
    directory whose ``*.json`` files are scanned for payloads (a
    campaign's per-cell profiles) and merged."""
    if os.path.isdir(path):
        merged = PhaseProfiler(use_cprofile=False)
        found = 0
        for name in sorted(os.listdir(path)):
            candidate = os.path.join(path, name)
            if name.endswith(".json") and os.path.isfile(candidate):
                try:
                    payload = _read_payload(candidate)
                except ValueError:
                    continue
                merged.merge_payload(payload)
                found += 1
        if not found:
            raise ValueError("no profile payloads under %s" % path)
        return merged.as_payload()
    return _read_payload(path)


def _read_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as stream:
        try:
            payload = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ValueError("%s: not JSON (%s)" % (path, exc)) from None
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != "phase_profile"
    ):
        raise ValueError("%s: not a phase-profile payload" % path)
    if payload.get("schema") != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            "%s: profile schema %r not supported (this build reads %d)"
            % (path, payload.get("schema"), PROFILE_SCHEMA_VERSION)
        )
    return payload


def render_profile(payload: dict, top: int = DEFAULT_TOP_N) -> str:
    """Human-readable top-N tables for one (possibly merged) payload."""
    lines: List[str] = []
    mode = "cProfile" if payload.get("cprofile") else "counters"
    lines.append("phase profile (%s)" % mode)
    labels = payload.get("labels", {})
    if labels:
        lines.append("labels: " + ", ".join(
            "%s=%s" % (key, value) for key, value in sorted(labels.items())
        ))
    phases = payload.get("phases", {})
    total = sum(d.get("seconds", 0.0) for d in phases.values()) or 1.0
    lines.append("")
    lines.append("%-44s %8s %12s %6s" % ("phase", "calls", "seconds", "%"))
    ranked = sorted(
        phases.items(),
        key=lambda item: (-item[1].get("seconds", 0.0), item[0]),
    )
    for name, data in ranked[:top]:
        seconds = data.get("seconds", 0.0)
        lines.append("%-44s %8d %12.6f %5.1f%%" % (
            name[:44], data.get("calls", 0), seconds,
            100.0 * seconds / total,
        ))
    if len(ranked) > top:
        lines.append("... %d more phase(s)" % (len(ranked) - top))
    merged: Dict[str, Dict[str, float]] = {}
    for data in phases.values():
        for row in data.get("hotspots", ()):
            entry = merged.setdefault(
                row["func"], {"calls": 0, "tottime": 0.0, "cumtime": 0.0}
            )
            entry["calls"] += row.get("calls", 0)
            entry["tottime"] += row.get("tottime", 0.0)
            entry["cumtime"] += row.get("cumtime", 0.0)
    if merged:
        lines.append("")
        lines.append("%-52s %10s %10s %10s" % (
            "hotspot", "calls", "tottime", "cumtime"
        ))
        hot = sorted(
            merged.items(),
            key=lambda item: (-item[1]["tottime"], item[0]),
        )
        for func, row in hot[:top]:
            lines.append("%-52s %10d %10.4f %10.4f" % (
                func[:52], row["calls"], row["tottime"], row["cumtime"]
            ))
    return "\n".join(lines)
