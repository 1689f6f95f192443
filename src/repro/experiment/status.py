"""Campaign heartbeats and the ``repro status`` data model.

A running campaign is opaque from the outside: cell checkpoints under
``cells/`` appear only when a cell *finishes*, so a grid that takes
minutes-to-hours per cell looks frozen — or dead — until the very
moment it is not.  This module gives every cell a pulse:

- **Heartbeats** — each executing cell atomically maintains
  ``status/<digest>.json`` next to the ``cells/<digest>.json``
  checkpoints: phase, rounds completed, injected faults, PID, and a
  last-update wall-clock timestamp.  The runner's progress hook
  refreshes it as rounds complete (pooled cell workers
  write their own file — digest-keyed names mean any
  ``--campaign-workers`` count merges cleanly, no file is ever shared
  between writers).
- **Grid manifest** — ``grid.json`` records the full planned grid at
  campaign start, so an observer knows what "complete" means without
  reconstructing specs.
- **:class:`CampaignStatus`** — the read side: folds manifest,
  checkpoints, and heartbeats into per-cell states (``done`` /
  ``running`` / ``stale`` / ``failed`` / ``pending``) plus grid-level
  completion and throughput.  A ``running`` heartbeat older than
  ``stale_after`` seconds is flagged **stale** — the candidate-dead
  signal a multi-host work queue needs before it can reclaim a cell.

Everything here is observability plumbing, deliberately *outside* the
byte-identity contract: heartbeat and manifest files live beside the
identity surfaces (checkpoints, ``campaign_summary.json``) and never
feed back into them.  Heartbeat writes are best-effort — a full disk
degrades the console, never the campaign.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs import get_logger, get_registry

__all__ = [
    "CellHeartbeat",
    "CellStatus",
    "CampaignStatus",
    "write_grid_manifest",
    "load_grid_manifest",
    "HEARTBEAT_SCHEMA_VERSION",
    "GRID_SCHEMA_VERSION",
    "DEFAULT_STALE_AFTER_SECONDS",
    "STATUS_DIRNAME",
]

_log = get_logger("repro.status")

#: Bumped when the heartbeat layout changes; unknown-schema heartbeats
#: are ignored by the reader, never reinterpreted.
HEARTBEAT_SCHEMA_VERSION = 1

#: Bumped when the grid manifest layout changes.
GRID_SCHEMA_VERSION = 1

#: A ``running`` heartbeat older than this is reported stale
#: (candidate-dead) by default.  Cells refresh at least once per
#: probing round, so minutes of silence means a hung or killed worker.
DEFAULT_STALE_AFTER_SECONDS = 120.0

#: Heartbeats live in ``<campaign dir>/status/``.
STATUS_DIRNAME = "status"

#: Counters a heartbeat mirrors from the active registry at each
#: refresh (per-process, so a pooled cell worker reports its own);
#: heartbeat field name -> instrument name.
_MIRRORED_COUNTERS = {
    "faults_injected": "runner.faults_injected",
}


def _atomic_write_json(path: str, payload: dict) -> None:
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)


class CellHeartbeat:
    """The write side of one cell's ``status/<digest>.json``.

    Usage (the campaign cell path does exactly this)::

        heartbeat = CellHeartbeat(status_dir, spec.digest(), spec.label())
        heartbeat.begin(rounds_total=spec.num_rounds)
        runner.progress_hook = heartbeat.progress
        ...
        heartbeat.done(wall_seconds=elapsed)

    Writes are atomic (tmp + rename) and best-effort: an ``OSError``
    is swallowed after a warning, because a telemetry surface must
    never fail a cell that would otherwise complete.
    """

    def __init__(
        self,
        status_dir: str,
        digest: str,
        label: str,
        backend: Optional[str] = None,
    ) -> None:
        self.status_dir = status_dir
        self.digest = digest
        self.label = label
        self.path = os.path.join(status_dir, "%s.json" % digest)
        self._state: Dict[str, object] = {
            "schema": HEARTBEAT_SCHEMA_VERSION,
            "digest": digest,
            "label": label,
            # The scheduler backend executing this cell ("inline" /
            # "fork"), stamped by the dispatcher so mixed campaigns
            # are debuggable from the status console.
            "backend": backend,
            "phase": "pending",
            "config": None,
            "rounds_completed": 0,
            "rounds_total": None,
            # Convergence detail mirrored from the runner's per-round
            # engine stats (engine_iterations = messages delivered).
            "engine_iterations": 0,
            "best_changes": 0,
            "messages_dropped": 0,
            "faults_injected": 0,
            "resumed": False,
            "error": None,
            "wall_seconds": None,
            "pid": os.getpid(),
            "started_at": None,
        }

    # -- lifecycle ----------------------------------------------------

    def begin(self, rounds_total: Optional[int] = None) -> None:
        self._state["phase"] = "running"
        self._state["pid"] = os.getpid()
        self._state["started_at"] = round(time.time(), 3)
        if rounds_total is not None:
            self._state["rounds_total"] = int(rounds_total)
        self._write()

    def progress(self, **fields) -> None:
        """The runner progress hook: merge *fields* (``phase``,
        ``rounds_completed`` ...) and refresh the
        mirrored counters and timestamp."""
        for key, value in fields.items():
            if key in self._state and key not in ("digest", "schema"):
                self._state[key] = value
        self._write()

    def done(
        self,
        wall_seconds: Optional[float] = None,
        resumed: bool = False,
    ) -> None:
        self._state["phase"] = "done"
        self._state["resumed"] = bool(resumed)
        if wall_seconds is not None:
            self._state["wall_seconds"] = round(float(wall_seconds), 3)
        total = self._state.get("rounds_total")
        if total is not None:
            self._state["rounds_completed"] = total
        self._write()

    def failed(self, error: str) -> None:
        self._state["phase"] = "failed"
        self._state["error"] = str(error)
        self._write()

    # -- I/O ----------------------------------------------------------

    def _write(self) -> None:
        counters = get_registry().snapshot()["counters"]
        for field_name, instrument in _MIRRORED_COUNTERS.items():
            self._state[field_name] = int(counters.get(instrument, 0))
        record = dict(self._state)
        record["updated_at"] = round(time.time(), 3)
        try:
            os.makedirs(self.status_dir, exist_ok=True)
            _atomic_write_json(self.path, record)
        except OSError as error:
            _log.warning(
                "heartbeat write failed",
                cell=self.label, path=self.path, error=str(error),
            )


# ---------------------------------------------------------------------
# Grid manifest


def write_grid_manifest(directory: str, specs: Sequence) -> str:
    """Persist the planned grid as ``<directory>/grid.json`` (atomic);
    returns the path.  *specs* are :class:`~repro.api.ExperimentSpec`
    values."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "grid.json")
    payload = {
        "schema": GRID_SCHEMA_VERSION,
        "total": len(specs),
        "cells": [
            {
                "digest": spec.digest(),
                "label": spec.label(),
                "experiment": spec.experiment,
                "seed": spec.seed,
                "scenario": spec.scenario,
            }
            for spec in specs
        ],
    }
    _atomic_write_json(path, payload)
    return path


def load_grid_manifest(directory: str) -> Optional[dict]:
    path = os.path.join(directory, "grid.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != GRID_SCHEMA_VERSION
        or not isinstance(manifest.get("cells"), list)
    ):
        return None
    return manifest


# ---------------------------------------------------------------------
# The read side


@dataclass(frozen=True)
class CellStatus:
    """One cell's observed state, folded from checkpoint + heartbeat."""

    digest: str
    label: str
    state: str                      # done / running / stale / failed / pending
    phase: str = "pending"
    #: Scheduler backend that executed (or is executing) the cell, as
    #: stamped on its heartbeat; None for pre-scheduler heartbeats or
    #: cells that never ran.
    backend: Optional[str] = None
    rounds_completed: int = 0
    rounds_total: Optional[int] = None
    engine_iterations: int = 0
    best_changes: int = 0
    messages_dropped: int = 0
    age_seconds: Optional[float] = None
    wall_seconds: Optional[float] = None
    resumed: bool = False
    error: Optional[str] = None
    pid: Optional[int] = None

    @property
    def rounds_text(self) -> str:
        total = "?" if self.rounds_total is None else str(self.rounds_total)
        return "%d/%s" % (self.rounds_completed, total)

    @property
    def convergence_text(self) -> str:
        """``delivered/changed/dropped`` engine totals, or ``-`` when
        the cell has not reported convergence detail yet."""
        if not (
            self.engine_iterations
            or self.best_changes
            or self.messages_dropped
        ):
            return "-"
        return "%d/%d/%d" % (
            self.engine_iterations,
            self.best_changes,
            self.messages_dropped,
        )


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


@dataclass
class CampaignStatus:
    """Everything ``repro status`` knows about one campaign directory."""

    directory: str
    cells: List[CellStatus] = field(default_factory=list)
    has_manifest: bool = False
    summary_present: bool = False

    # -- derived ------------------------------------------------------

    def count(self, state: str) -> int:
        return sum(1 for cell in self.cells if cell.state == state)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.count("done") == self.total

    @property
    def stale_cells(self) -> List[CellStatus]:
        return [cell for cell in self.cells if cell.state == "stale"]

    def cells_per_minute(self) -> Optional[float]:
        """Completed-cell throughput from recorded wall times (compute
        time, so pooled campaigns report aggregate worker throughput)."""
        walls = [
            cell.wall_seconds
            for cell in self.cells
            if cell.state == "done"
            and not cell.resumed
            and cell.wall_seconds
        ]
        if not walls or sum(walls) <= 0:
            return None
        return 60.0 * len(walls) / sum(walls)

    # -- loading ------------------------------------------------------

    @classmethod
    def load(
        cls,
        directory: str,
        now: Optional[float] = None,
        stale_after: float = DEFAULT_STALE_AFTER_SECONDS,
    ) -> "CampaignStatus":
        """Fold ``grid.json`` + ``cells/*.json`` + ``status/*.json``
        under *directory* into per-cell states.

        *now* (default: wall clock) and *stale_after* parameterise
        staleness, keeping the classification a pure function for
        tests.  Precedence per digest: a checkpoint means ``done``
        whatever the heartbeat says (checkpoints are the identity
        surface; heartbeats only narrate), then the heartbeat's
        ``failed`` / ``running``-vs-stale, then ``pending``.
        """
        if now is None:
            now = time.time()
        manifest = load_grid_manifest(directory)
        cells_dir = os.path.join(directory, "cells")
        status_dir = os.path.join(directory, STATUS_DIRNAME)

        checkpoints: Dict[str, dict] = {}
        if os.path.isdir(cells_dir):
            for name in sorted(os.listdir(cells_dir)):
                if not name.endswith(".json"):
                    continue
                record = _read_json(os.path.join(cells_dir, name))
                if record is not None and "digest" in record:
                    checkpoints[str(record["digest"])] = record

        heartbeats: Dict[str, dict] = {}
        if os.path.isdir(status_dir):
            for name in sorted(os.listdir(status_dir)):
                if not name.endswith(".json"):
                    continue
                beat = _read_json(os.path.join(status_dir, name))
                if (
                    beat is not None
                    and beat.get("schema") == HEARTBEAT_SCHEMA_VERSION
                    and "digest" in beat
                ):
                    heartbeats[str(beat["digest"])] = beat

        if manifest is not None:
            planned = [
                (str(cell["digest"]), str(cell.get("label", cell["digest"])))
                for cell in manifest["cells"]
                if isinstance(cell, dict) and "digest" in cell
            ]
        else:
            # No manifest (pre-telemetry campaign dir): the observable
            # universe is whatever left a checkpoint or heartbeat.
            digests = sorted(set(checkpoints) | set(heartbeats))
            planned = [
                (
                    digest,
                    str(
                        (heartbeats.get(digest) or {}).get("label")
                        or digest
                    ),
                )
                for digest in digests
            ]

        status = cls(
            directory=directory,
            has_manifest=manifest is not None,
            summary_present=os.path.exists(
                os.path.join(directory, "campaign_summary.json")
            ),
        )
        for digest, label in planned:
            status.cells.append(_fold_cell(
                digest, label,
                checkpoints.get(digest), heartbeats.get(digest),
                now=now, stale_after=stale_after,
            ))
        return status

    # -- rendering ----------------------------------------------------

    def render(self, verbose: bool = True) -> str:
        """The operator console text."""
        lines: List[str] = []
        done = self.count("done")
        header = "campaign %s: %d/%d cell(s) complete" % (
            self.directory, done, self.total
        )
        if self.total:
            header += " (%.0f%%)" % (100.0 * done / self.total)
        lines.append(header)
        state_counts = []
        for state in ("running", "stale", "failed", "pending"):
            count = self.count(state)
            if count:
                state_counts.append("%d %s" % (count, state))
        if state_counts:
            lines.append("  " + ", ".join(state_counts))
        throughput = self.cells_per_minute()
        if throughput is not None:
            lines.append("  throughput: %.1f cells/minute" % throughput)
        if verbose and self.cells:
            lines.append("")
            lines.append(
                "  %-34s %-8s %-8s %-7s %7s %6s %8s %16s"
                % ("cell", "state", "phase", "backend", "rounds", "age",
                   "wall", "msgs/chg/drop")
            )
            for cell in self.cells:
                age = (
                    "%.0fs" % cell.age_seconds
                    if cell.age_seconds is not None else "-"
                )
                wall = (
                    "%.1fs" % cell.wall_seconds
                    if cell.wall_seconds is not None else "-"
                )
                marker = " <- candidate dead" if cell.state == "stale" else ""
                if cell.state == "failed" and cell.error:
                    marker = " <- %s" % cell.error
                lines.append(
                    "  %-34s %-8s %-8s %-7s %7s %6s %8s %16s%s"
                    % (cell.label[:34], cell.state, cell.phase[:8],
                       (cell.backend or "-")[:7], cell.rounds_text, age,
                       wall, cell.convergence_text, marker)
                )
        for cell in self.stale_cells:
            lines.append(
                "stale heartbeat: cell %s (%s) silent for %.0fs — "
                "worker may be dead; a re-invoked sweep will resume it"
                % (cell.label, cell.digest, cell.age_seconds or 0.0)
            )
        if self.complete and self.summary_present:
            lines.append("all cells complete; summary written")
        return "\n".join(lines)


def _fold_cell(
    digest: str,
    label: str,
    checkpoint: Optional[dict],
    heartbeat: Optional[dict],
    now: float,
    stale_after: float,
) -> CellStatus:
    beat = heartbeat or {}
    rounds_total = beat.get("rounds_total")
    updated_at = beat.get("updated_at")
    age = (
        max(0.0, now - float(updated_at))
        if isinstance(updated_at, (int, float)) else None
    )
    common = {
        "rounds_completed": int(beat.get("rounds_completed") or 0),
        "rounds_total": (
            int(rounds_total) if rounds_total is not None else None
        ),
        "engine_iterations": int(beat.get("engine_iterations") or 0),
        "best_changes": int(beat.get("best_changes") or 0),
        "messages_dropped": int(beat.get("messages_dropped") or 0),
        "backend": beat.get("backend"),
        "age_seconds": age,
        "resumed": bool(beat.get("resumed")),
        "error": beat.get("error"),
        "pid": beat.get("pid"),
    }
    if checkpoint is not None:
        wall = beat.get("wall_seconds")
        if wall is None:
            wall = checkpoint.get("wall_seconds")
        rounds_done = common["rounds_total"]
        return CellStatus(
            digest=digest, label=label, state="done", phase="done",
            wall_seconds=float(wall) if wall else None,
            **{
                **common,
                "rounds_completed": (
                    rounds_done
                    if rounds_done is not None
                    else common["rounds_completed"]
                ),
            },
        )
    if heartbeat is None:
        return CellStatus(digest=digest, label=label, state="pending")
    phase = str(beat.get("phase", "pending"))
    if phase == "failed":
        state = "failed"
    elif phase == "done":
        # Heartbeat says done but no checkpoint: mid-write or a
        # cleaned cells/ dir — report done, the checkpoint precedence
        # above takes over as soon as the file lands.
        state = "done"
    elif phase == "running" and age is not None and age > stale_after:
        state = "stale"
    elif phase == "running":
        state = "running"
    else:
        state = "pending"
    wall = beat.get("wall_seconds")
    return CellStatus(
        digest=digest, label=label, state=state, phase=phase,
        wall_seconds=float(wall) if wall else None,
        **common,
    )
