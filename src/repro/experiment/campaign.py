"""repro.campaign — sweep orchestration over (seed × scenario ×
experiment) cells with resumable checkpoints.

One **cell** is one full nine-configuration experiment, fully
described by an :class:`~repro.api.ExperimentSpec`.  A cell's network —
its ecosystem and probe-seed plan (:func:`repro.api.network_of`) —
depends only on ``(spec.seed, spec.ecosystem_config())``, never on the
experiment, fault plan or probing rate, so the pending cells that share
that key form one **network group**.  The group is the unit of work
and the one parallel level: a group task builds its network once, runs
its cells on it in grid order, and drops it before the next group
starts.  This module runs grids three ways that all produce
byte-identical cell results:

- **inline** — groups run one after another in this process (the
  scheduler's :class:`~repro.experiment.scheduler.InlineBackend`),
  each cell exactly as a standalone :func:`repro.api.run_experiment`
  of its spec would;
- **pooled** — a campaign-level
  :class:`~repro.experiment.scheduler.ForkPoolBackend` dispatches
  whole groups as scheduler tasks.  Each cell in a worker runs with
  isolated observability state and ships back its metrics snapshot,
  completed span tree, and :class:`~repro.obs.capture.Capture`
  payload, which the parent merges in the inline execution order
  (group by group, cells in grid order inside a group) so the merged
  streams match the inline ones;
- **resumed** — each completed cell persists a JSON record keyed by
  its spec digest under ``<campaign dir>/cells/``; re-invoking the
  campaign skips every cell whose checkpoint is present and groups
  only the rest, so a fully checkpointed network is never built.  The
  summary is a pure function of the cell records, so an
  interrupted-then-resumed campaign writes a ``campaign_summary.json``
  byte-identical to an uninterrupted run's.

The identity contract: a cell's
:class:`~repro.experiment.records.ExperimentResult` — responses,
classifications, report text, exported provenance — is byte-identical
to a standalone ``run_experiment`` of the same spec, whatever the
campaign pool size or the grid's order.  ``run_experiment_pair`` runs
the classic surf/internet2 pair as one group on the caller's
ecosystem, with one probe-seed plan object shared by both halves.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..api import (
    ExperimentSpec,
    attach_capture,
    build_runner,
    network_of,
    spec_capture,
)
from ..core.classify import (
    TABLE1_ORDER,
    InferenceCategory,
    classify_experiment,
    origin_map,
)
from ..core.sweep import CampaignSummary, build_campaign_summary
from ..errors import ExperimentError
from ..faults import FaultPlan
from ..obs import MetricsRegistry, get_logger, get_registry, span, use_registry
from ..obs.capture import active_capture, use_capture
from ..obs.spans import attach_completed, detached_trace
from ..seeds.selection import SeedPlan
from ..topology.re_config import SCENARIO_PRESETS
from ..topology.re_ecosystem import Ecosystem
from .records import ExperimentResult
from .schedule import ExperimentSchedule
from .scheduler import (
    ForkPoolBackend,
    InlineBackend,
    Scheduler,
    Task,
    fork_available,
    in_worker_process,
    task_backend_name,
    task_context,
)
from .status import STATUS_DIRNAME, CellHeartbeat, write_grid_manifest

__all__ = [
    "CellWork",
    "CellOutcome",
    "CellFailure",
    "NetworkGroup",
    "CampaignRunner",
    "CampaignResult",
    "cell_record",
    "identity_view",
    "dispatch_cells",
    "group_cells",
    "plan_grid",
    "run_experiment_pair",
    "RECORD_SCHEMA_VERSION",
]

_log = get_logger("repro.campaign")

#: Bumped when the checkpoint record layout changes; stale-schema
#: checkpoints are recomputed, never reinterpreted.
RECORD_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------
# Cells


@dataclass
class CellWork:
    """One cell: its spec, optional overrides of the spec's derived
    schedule and fault plan, and what to hand back.

    A cell carries no network.  The ecosystem and probe-seed plan
    belong to its :class:`NetworkGroup`, which builds them once for
    every cell sharing them (or receives them from the caller, as the
    surf/internet2 pair does).
    """

    spec: ExperimentSpec
    schedule: Optional[ExperimentSchedule] = None
    fault_plan: Optional[FaultPlan] = None
    #: Ship the full :class:`ExperimentResult` back (pickled, in
    #: pooled mode).  The pair dispatcher needs it; grid cells only
    #: need the record.
    keep_result: bool = False
    #: Build the classification checkpoint record.
    build_record: bool = True


#: An ecosystem and the probe-seed plan drawn from it.
Network = Tuple[Ecosystem, SeedPlan]


@dataclass
class NetworkGroup:
    """The cells that run on one network, and one scheduler task.

    ``cells`` index the dispatched work list, in grid order.
    ``network`` is a caller-supplied ``(ecosystem, seed_plan)``; when
    it is ``None`` the task builds the network once from its first
    cell's spec (:func:`repro.api.network_of`) and drops it when the
    group is done.
    """

    cells: List[int]
    network: Optional[Network] = None


def group_cells(works: Sequence[CellWork]) -> List[NetworkGroup]:
    """Group *works* by network key ``(spec.seed,
    spec.ecosystem_config())``: groups in the order of their first
    cell, cells in their given order inside a group."""
    keys: list = []
    groups: List[NetworkGroup] = []
    for index, work in enumerate(works):
        key = (work.spec.seed, work.spec.ecosystem_config())
        if key in keys:
            groups[keys.index(key)].cells.append(index)
        else:
            keys.append(key)
            groups.append(NetworkGroup(cells=[index]))
    return groups


@dataclass
class CellOutcome:
    """What one executed cell hands back to the dispatcher."""

    index: int
    digest: str
    label: str
    record: Optional[dict] = None
    wall_seconds: float = 0.0
    result: Optional[ExperimentResult] = None
    #: Worker-side registry snapshot / completed span tree (pooled
    #: mode only; inline cells wrote straight into the parent's).
    metrics: Optional[dict] = None
    trace: Optional[dict] = None
    #: The cell's :meth:`~repro.obs.capture.Capture.shipped` payload:
    #: the provenance its spec captured run-locally (the per-cell
    #: artifact) or, pooled, a copy of the parent's channel — which
    #: the dispatcher merges in cell order and removes.
    capture: Optional[dict] = None


@dataclass(frozen=True)
class CellFailure:
    """One cell whose execution raised (kept, not fatal mid-campaign:
    the other cells still complete and checkpoint)."""

    index: int
    digest: str
    label: str
    error: str


def cell_record(
    spec: ExperimentSpec,
    result: ExperimentResult,
    ecosystem: Ecosystem,
) -> dict:
    """The checkpoint record of one completed cell.

    Everything except ``wall_seconds`` is a pure function of the
    spec's simulation fields — the digest-keyed record *is* the cell's
    identity surface, and :func:`identity_view` strips the one
    execution-metadata field for comparisons.
    """
    inference = classify_experiment(result, origin_map(ecosystem))
    characterized = inference.characterized()
    counts = {
        category.value: len(inference.of_category(category))
        for category in TABLE1_ORDER
    }
    fractions = {
        name: (count / len(characterized) if characterized else 0.0)
        for name, count in counts.items()
    }
    lines = sorted(
        "%s\t%s" % (prefix, item.category.value)
        for prefix, item in inference.inferences.items()
    )
    classification_sha = sha256(
        "\n".join(lines).encode("utf-8")
    ).hexdigest()
    return {
        "schema": RECORD_SCHEMA_VERSION,
        "digest": spec.digest(),
        "spec": spec.as_dict(),
        "experiment": spec.experiment,
        "seed": spec.seed,
        "scenario": spec.scenario,
        "probed": len(result.probed_prefixes()),
        "responses": sum(r.response_count() for r in result.rounds),
        "characterized": len(characterized),
        "excluded_loss": len(
            inference.of_category(InferenceCategory.EXCLUDED_LOSS)
        ),
        "categories": counts,
        "fractions": fractions,
        "classification_sha256": classification_sha,
        "updates": len(result.update_log),
        "outages": len(result.outages_applied),
        "wall_seconds": 0.0,
    }


#: The scalar fields :func:`cell_record` writes, with their types; the
#: two per-category mappings are checked separately.
_RECORD_FIELDS = {
    "schema": int,
    "digest": str,
    "spec": dict,
    "experiment": str,
    "seed": int,
    "scenario": str,
    "probed": int,
    "responses": int,
    "characterized": int,
    "excluded_loss": int,
    "classification_sha256": str,
    "updates": int,
    "outages": int,
    "wall_seconds": (int, float),
}


def _typed(value, kind) -> bool:
    # JSON true/false load as bool, which isinstance counts as int.
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_cell_record(record, spec: ExperimentSpec) -> bool:
    """Whether *record* is a complete :func:`cell_record` of *spec*:
    this schema and cell, every field present with its type, and
    ``categories``/``fractions`` keyed by exactly the Table 1
    categories (int counts, numeric fractions)."""
    if not isinstance(record, dict) or not all(
        _typed(record.get(name), kind)
        for name, kind in _RECORD_FIELDS.items()
    ):
        return False
    if (
        record["schema"] != RECORD_SCHEMA_VERSION
        or record["digest"] != spec.digest()
        or record["experiment"] != spec.experiment
        or record["seed"] != spec.seed
        or record["scenario"] != spec.scenario
    ):
        return False
    names = {category.value for category in TABLE1_ORDER}
    for name, kind in (("categories", int), ("fractions", (int, float))):
        mapping = record.get(name)
        if (
            not isinstance(mapping, dict)
            or set(mapping) != names
            or not all(_typed(value, kind) for value in mapping.values())
        ):
            return False
    return True


def identity_view(record: dict) -> dict:
    """*record* minus execution metadata (``wall_seconds``) — the part
    covered by the byte-identity contract."""
    return {k: v for k, v in record.items() if k != "wall_seconds"}


def _run_cell(
    work: CellWork,
    index: int,
    network: Network,
    heartbeat: Optional[CellHeartbeat] = None,
) -> CellOutcome:
    """Execute one cell on its group's *network* under the active
    capture — a pooled worker's child, or inline the parent's own,
    exactly like a standalone run — plus a run-local capture for
    whatever else its spec asks for.  *heartbeat*, when given, tracks
    the cell's phase/round progress in ``status/<digest>.json``
    (purely observational — results are identical with or without
    it)."""
    spec = work.spec
    started = time.perf_counter()
    ecosystem, seed_plan = network
    runner = build_runner(
        spec, ecosystem, seed_plan,
        schedule=work.schedule, fault_plan=work.fault_plan,
    )
    if heartbeat is not None:
        heartbeat.begin(rounds_total=spec.num_rounds)
        runner.progress_hook = heartbeat.progress
    active = active_capture()
    local = spec_capture(spec, active)
    with use_capture(local.over(active)):
        result = runner.run()
    attach_capture(result, local)
    record = None
    if work.build_record:
        record = cell_record(spec, result, ecosystem)
        record["wall_seconds"] = time.perf_counter() - started
    if heartbeat is not None:
        heartbeat.done(wall_seconds=time.perf_counter() - started)
    return CellOutcome(
        index=index,
        digest=spec.digest(),
        label=spec.label(),
        record=record,
        wall_seconds=time.perf_counter() - started,
        result=result if work.keep_result else None,
        capture=local.shipped(),
    )


# ---------------------------------------------------------------------
# Dispatch

def _make_heartbeat(
    spec: ExperimentSpec,
    status_dir: Optional[str],
    backend: Optional[str] = None,
) -> Optional[CellHeartbeat]:
    if status_dir is None:
        return None
    return CellHeartbeat(
        status_dir, spec.digest(), spec.label(), backend=backend
    )


def _cell_task(
    work: CellWork,
    index: int,
    network: Network,
    status_dir: Optional[str],
) -> CellOutcome:
    """Run one cell of a group task.

    The executing backend's name is stamped on the cell's heartbeat so
    mixed inline/fork campaigns are debuggable from ``repro status``.
    In a pool worker the cell runs under isolated obs state — a fresh
    registry (so the heartbeat's mirrored counters are strictly this
    cell's) and a child of the inherited capture — and ships both back
    for in-order merging; inline it records straight into the parent's
    obs state, exactly like a standalone run.
    """
    isolate = in_worker_process()
    heartbeat = _make_heartbeat(
        work.spec, status_dir, backend=task_backend_name()
    )
    if not isolate:
        try:
            with span("campaign.cell.%s" % work.spec.label()):
                outcome = _run_cell(work, index, network, heartbeat)
        except Exception as error:
            if heartbeat is not None:
                heartbeat.failed(str(error))
            raise
        get_registry().counter("campaign.cells_completed").inc()
        return outcome
    registry = MetricsRegistry()
    parent = active_capture()
    capture = parent.child() if parent is not None else None
    with use_registry(registry), detached_trace(), use_capture(capture):
        with span("campaign.cell.%s" % work.spec.label()) as record:
            try:
                outcome = _run_cell(work, index, network, heartbeat)
            except Exception as error:
                if heartbeat is not None:
                    heartbeat.failed(str(error))
                raise
        registry.counter("campaign.cells_completed").inc()
        outcome.trace = record.as_dict()
    outcome.metrics = registry.snapshot()
    if capture is not None and capture.provenance is not None:
        outcome.capture = capture.shipped()
    return outcome


def _group_task(number: int) -> List[Union[CellOutcome, CellFailure]]:
    """Scheduler task entry point: run one network group.

    The work list, the groups and the status directory arrive as the
    backend context (:func:`task_context`).  The group's network is
    built once here (unless the group carries one) and is dropped when
    the task returns.  A cell that raises becomes a
    :class:`CellFailure` and its group-mates still run; the result is
    one outcome or failure per cell, in the group's cell order.
    """
    context = task_context()
    if context is None:
        raise ExperimentError("group task used outside a scheduler backend")
    works, groups, status_dir = context
    group = groups[number]
    network = group.network or network_of(works[group.cells[0]].spec)
    settled: List[Union[CellOutcome, CellFailure]] = []
    for index in group.cells:
        work = works[index]
        try:
            settled.append(_cell_task(work, index, network, status_dir))
        except Exception as error:
            settled.append(CellFailure(
                index, work.spec.digest(), work.spec.label(), str(error)
            ))
    return settled


def _will_fork(
    pool_workers: int, count: int, backend: Optional[str] = None
) -> bool:
    """Whether group dispatch runs on a fork pool: forced by *backend*,
    or resolved from the worker count, the number of group tasks and
    the platform."""
    if backend == "fork":
        return True
    if backend == "inline":
        return False
    return pool_workers > 1 and count > 1 and fork_available()


def dispatch_cells(
    works: Sequence[CellWork],
    pool_workers: int = 1,
    on_outcome: Optional[Callable[[CellOutcome], None]] = None,
    status_dir: Optional[str] = None,
    backend: Optional[str] = None,
    network: Optional[Network] = None,
) -> Tuple[List[Optional[CellOutcome]], List[CellFailure]]:
    """Run *works* as network groups (:func:`group_cells`), one
    scheduler task per group, on a fork pool when ``pool_workers > 1``
    and there is more than one group (and ``fork`` exists), inline
    otherwise; *backend* (``"fork"`` / ``"inline"``) forces the choice,
    so tests can run a single group on a fork worker.  *network*, when
    given, is the one network every cell runs on: all of *works* then
    form a single group that builds nothing.

    Returns outcomes in cell order (``None`` where a cell failed) plus
    the failures.  *on_outcome* fires as each cell's result is merged
    — the campaign checkpoints there, so cells finished before a crash
    are never recomputed.  Results merge in the inline execution
    order: group by group, and each group's cells in grid order.  In
    pooled mode the parent merges worker metrics snapshots, re-attaches
    span trees, and merges shipped captures into its active capture in
    that order, reproducing the inline observability streams.  With
    *status_dir*, every executing cell — inline or pooled — maintains a
    ``<status_dir>/<digest>.json`` heartbeat stamped with the executing
    backend's name (see :mod:`repro.experiment.status`).
    """
    works = list(works)
    outcomes: List[Optional[CellOutcome]] = [None] * len(works)
    failures: List[CellFailure] = []
    if not works:
        return outcomes, failures
    if network is not None:
        groups = [NetworkGroup(list(range(len(works))), network)]
    else:
        groups = group_cells(works)
    context = (tuple(works), tuple(groups), status_dir)
    pooled = _will_fork(pool_workers, len(groups), backend)
    execution = (
        ForkPoolBackend(
            context, workers=max(1, min(pool_workers, len(groups)))
        )
        if pooled else InlineBackend(context)
    )
    tasks = [
        Task(key=number, fn=_group_task, args=(number,))
        for number in range(len(groups))
    ]
    capture = active_capture()

    def fail(failure: CellFailure) -> None:
        failures.append(failure)
        get_registry().counter("campaign.cells_failed").inc()

    def collect(task: Task, result) -> None:
        cells = groups[task.key].cells
        if result.error is not None:
            # The whole task died: its network failed to build, or a
            # pool worker crashed.  No cell of it reported back, so
            # mark each one's heartbeat "failed" from here (a crashed
            # worker never did), not eternal "running".
            for index in cells:
                spec = works[index].spec
                beat = _make_heartbeat(
                    spec, status_dir, backend=execution.name
                )
                if beat is not None:
                    beat.failed(str(result.error))
                fail(CellFailure(
                    index, spec.digest(), spec.label(), str(result.error)
                ))
            return
        # Only pooled outcomes carry worker metrics, span trees and
        # copies of the parent capture's channels (inline cells wrote
        # straight into the parent's).
        for outcome in result.value:
            if isinstance(outcome, CellFailure):
                fail(outcome)
                continue
            if outcome.metrics:
                get_registry().merge_snapshot(outcome.metrics)
            if outcome.trace is not None:
                attach_completed(outcome.trace)
            if capture is not None:
                outcome.capture = capture.merge(outcome.capture)
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    # Cells are never retried: a failed cell is recorded as a
    # CellFailure and reported after the rest of the grid completes
    # (checkpointing means a re-run only recomputes the failures).
    scheduler = Scheduler(execution)
    try:
        scheduler.run(tasks, on_result=collect)
    finally:
        scheduler.shutdown()
    failures.sort(key=lambda failure: failure.index)
    return outcomes, failures


# ---------------------------------------------------------------------
# The surf/internet2 pair as one network group


def run_experiment_pair(
    ecosystem: Ecosystem,
    seed: int = 0,
    schedule: Optional[ExperimentSchedule] = None,
    pps: int = 100,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Run the SURF and Internet2 experiments with shared probe seeds,
    as the paper did one week apart — as one inline network group on
    *ecosystem*, with the *same* seed-plan object handed to both
    runners."""
    works = [
        CellWork(
            spec=ExperimentSpec(experiment=experiment, seed=seed, pps=pps),
            schedule=schedule, fault_plan=fault_plan,
            keep_result=True, build_record=False,
        )
        for experiment in ("surf", "internet2")
    ]
    outcomes, failures = dispatch_cells(
        works, network=network_of(works[0].spec, ecosystem)
    )
    if failures:
        raise ExperimentError(
            "experiment pair failed: "
            + "; ".join("%s: %s" % (f.label, f.error) for f in failures)
        )
    surf, internet2 = outcomes[0].result, outcomes[1].result
    assert surf is not None and internet2 is not None
    return surf, internet2


# ---------------------------------------------------------------------
# Grids and the campaign runner


def plan_grid(
    seeds: Iterable[int],
    scenarios: Iterable[str] = ("baseline",),
    experiments: Iterable[str] = ("surf", "internet2"),
    scale: float = 0.1,
    pps: int = 100,
    fault_spec: str = "",
    provenance_capacity: Optional[int] = None,
) -> List[ExperimentSpec]:
    """The (seed × scenario × experiment) grid, in deterministic
    seed-major order.  Unknown scenario names fail here, before any
    cell runs."""
    specs = [
        ExperimentSpec(
            experiment=experiment, seed=seed, scale=scale,
            scenario=scenario, pps=pps,
            fault_spec=fault_spec,
            provenance_capacity=provenance_capacity,
        )
        for seed in seeds
        for scenario in scenarios
        for experiment in experiments
    ]
    digests = [spec.digest() for spec in specs]
    if len(set(digests)) != len(digests):
        raise ExperimentError("campaign grid contains duplicate cells")
    return specs


@dataclass
class CampaignResult:
    """What one campaign invocation did."""

    summary: CampaignSummary
    records: Dict[str, dict] = field(default_factory=dict)
    completed: int = 0
    skipped: int = 0
    failures: List[CellFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    @property
    def cells_per_minute(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return 60.0 * self.completed / self.wall_seconds


class CampaignRunner:
    """Run a grid of cells with digest-keyed resumable checkpoints.

    Parameters
    ----------
    specs:
        The grid (see :func:`plan_grid`); digests must be unique.
    directory:
        Campaign state root.  Completed cells persist under
        ``cells/<digest>.json`` (plus ``cells/<digest>.provenance.jsonl``
        for specs requesting provenance); the aggregate lands in
        ``campaign_summary.json``.
    pool_workers:
        Campaign-level group processes (1: groups run inline, one after
        another).
    resume:
        Skip cells whose checkpoint is already present (the default).
        ``False`` recomputes everything.
    keep_results:
        Retain full :class:`ExperimentResult` objects on the
        :class:`CampaignResult` (memory-heavy; tests use it).

    Pending cells run as network groups (:func:`group_cells`), one
    scheduler task each; groups run on a fork pool when there is more
    than one worker, more than one group, and ``fork`` exists; inline
    otherwise.
    """

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        directory: str,
        pool_workers: int = 1,
        resume: bool = True,
        keep_results: bool = False,
    ) -> None:
        digests = [spec.digest() for spec in specs]
        if len(set(digests)) != len(digests):
            raise ExperimentError("campaign grid contains duplicate cells")
        self.specs = list(specs)
        self.directory = directory
        self.pool_workers = max(1, int(pool_workers))
        self.resume = resume
        self.keep_results = keep_results

    # -- checkpoint I/O ------------------------------------------------

    @property
    def cells_dir(self) -> str:
        return os.path.join(self.directory, "cells")

    @property
    def status_dir(self) -> str:
        return os.path.join(self.directory, STATUS_DIRNAME)

    def cell_path(self, digest: str) -> str:
        return os.path.join(self.cells_dir, "%s.json" % digest)

    @property
    def summary_path(self) -> str:
        return os.path.join(self.directory, "campaign_summary.json")

    def _load_checkpoint(self, spec: ExperimentSpec) -> Optional[dict]:
        path = self.cell_path(spec.digest())
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError, RecursionError):
            return None
        # A checkpoint only counts if it is a complete record of this
        # schema and really is this cell; anything else is recomputed.
        return record if _is_cell_record(record, spec) else None

    def _write_checkpoint(self, record: dict) -> None:
        _write_atomic(
            self.cell_path(record["digest"]),
            json.dumps(record, indent=1, sort_keys=True) + "\n",
        )

    def _write_cell_capture(self, outcome: CellOutcome) -> None:
        """The per-cell artifact for provenance the cell's spec
        captured run-locally: ``<digest>.provenance.jsonl``."""
        if outcome.capture is not None:
            _write_atomic(
                os.path.join(
                    self.cells_dir, "%s.provenance.jsonl" % outcome.digest
                ),
                "".join(
                    json.dumps(event, sort_keys=True) + "\n"
                    for event in outcome.capture["events"]
                ),
            )

    # -- execution -----------------------------------------------------

    def run(self) -> CampaignResult:
        started = time.perf_counter()
        # The observable grid: a manifest so `repro status` knows what
        # "complete" means, and a total gauge so the --metrics-out
        # snapshot reads `campaign.cells_completed` against the grid.
        write_grid_manifest(self.directory, self.specs)
        get_registry().gauge("campaign.cells_total").set(len(self.specs))
        records: Dict[str, dict] = {}
        pending: List[ExperimentSpec] = []
        skipped = 0
        for spec in self.specs:
            checkpoint = self._load_checkpoint(spec) if self.resume else None
            if checkpoint is not None:
                records[spec.digest()] = checkpoint
                skipped += 1
                # Resumed cells are done without executing; give them
                # a heartbeat so the console shows the whole grid.
                heartbeat = _make_heartbeat(spec, self.status_dir)
                heartbeat.begin(rounds_total=spec.num_rounds)
                heartbeat.done(
                    wall_seconds=checkpoint.get("wall_seconds"),
                    resumed=True,
                )
            else:
                pending.append(spec)
        get_registry().counter("campaign.cells_skipped").inc(skipped)
        _log.info(
            "campaign start",
            cells=len(self.specs), skipped=skipped,
            pending=len(pending), pool_workers=self.pool_workers,
        )

        works = [
            CellWork(spec=spec, keep_result=self.keep_results)
            for spec in pending
        ]
        result = CampaignResult(
            summary=CampaignSummary(), skipped=skipped
        )

        def checkpoint_outcome(outcome: CellOutcome) -> None:
            assert outcome.record is not None
            self._write_checkpoint(outcome.record)
            self._write_cell_capture(outcome)
            records[outcome.digest] = outcome.record
            get_registry().histogram(
                "campaign.cell_wall_seconds"
            ).observe(outcome.wall_seconds)
            if self.keep_results and outcome.result is not None:
                result.results[outcome.digest] = outcome.result
            _log.info(
                "cell complete",
                cell=outcome.label, digest=outcome.digest,
                wall_seconds=round(outcome.wall_seconds, 3),
            )

        with span("campaign.run"):
            _, failures = dispatch_cells(
                works,
                pool_workers=self.pool_workers,
                on_outcome=checkpoint_outcome,
                status_dir=self.status_dir,
            )

        result.completed = len(records) - skipped
        result.failures = failures
        result.wall_seconds = time.perf_counter() - started
        if failures:
            _log.info(
                "campaign failed",
                failed=len(failures),
                completed=result.completed,
            )
            raise ExperimentError(
                "%d campaign cell(s) failed (completed cells are "
                "checkpointed; re-run to resume): %s"
                % (
                    len(failures),
                    "; ".join(
                        "%s: %s" % (f.label, f.error) for f in failures
                    ),
                )
            )
        ordered = [records[spec.digest()] for spec in self.specs]
        result.records = {r["digest"]: r for r in ordered}
        result.summary = build_campaign_summary(ordered)
        self._write_summary(result.summary)
        _log.info(
            "campaign complete",
            completed=result.completed, skipped=skipped,
            wall_seconds=round(result.wall_seconds, 3),
        )
        return result

    def _write_summary(self, summary: CampaignSummary) -> None:
        _write_atomic(self.summary_path, summary.to_json(indent=1) + "\n")


def _write_atomic(path: str, text: str) -> None:
    """Write *text* to *path* via a temp file and rename, so readers
    (and resumed campaigns) never see a partial file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temp, path)


def known_scenarios() -> List[str]:
    """Scenario preset names, for CLI help and validation."""
    return sorted(SCENARIO_PRESETS)
