"""repro.campaign — sweep orchestration over (seed × scenario ×
experiment) cells with resumable checkpoints.

One **cell** is one full nine-configuration experiment, fully
described by an :class:`~repro.api.ExperimentSpec`.  A cell's network —
its ecosystem and probe-seed plan (:func:`repro.api.network_of`) —
depends only on ``(spec.seed, spec.ecosystem_config())``, never on the
experiment, fault plan or probing rate, so the pending cells that share
that key form one **network group**.  The group is the unit of work
and the one parallel level: a group builds its network once, runs
its cells on it in grid order, and drops it before the next group
starts.  This module runs grids three ways that all produce
byte-identical cell results:

- **inline** — a plain loop runs the groups one after another in this
  process, each cell exactly as a standalone
  :func:`repro.api.run_experiment` of its spec would, and checkpoints
  each group before the next one starts;
- **pooled** — one campaign-level ``fork`` process pool runs whole
  groups, one submitted call each.  Each cell in a worker runs with
  isolated observability state and ships back its metrics snapshot,
  completed span tree, and provenance ``(events, dropped)``, which the
  parent merges in the inline execution order
  (group by group, cells in grid order inside a group) so the merged
  streams match the inline ones;
- **resumed** — each completed cell persists a JSON record keyed by
  its spec digest under ``<campaign dir>/cells/``; re-invoking the
  campaign skips every cell whose checkpoint is present and groups
  only the rest, so a fully checkpointed network is never built.  The
  summary is a pure function of the cell records, so an
  interrupted-then-resumed campaign writes a ``campaign_summary.json``
  byte-identical to an uninterrupted run's.

A campaign's progress is read from the same files: ``grid.json`` lists
the planned cells when the campaign starts, and :class:`CampaignStatus`
(behind ``repro status``) counts a cell done exactly when a resumed
campaign would skip it — one checkpoint predicate serves both.

The identity contract: a cell's
:class:`~repro.experiment.records.ExperimentResult` — responses,
classifications, report text — and the provenance it records are
byte-identical to a standalone ``run_experiment`` of the same spec,
whatever the campaign pool size or the grid's order.
``run_experiment_pair`` runs the classic surf/internet2 pair as one
group on the caller's ecosystem, with one probe-seed plan object
shared by both halves.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from hashlib import sha256
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..api import ExperimentSpec, build_runner, network_of
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
from ..obs.capture import EventRing, active_ring, use_ring
from ..obs.spans import attach_completed, detached_trace
from ..seeds.selection import SeedPlan
from ..topology.re_config import SCENARIO_PRESETS
from ..topology.re_ecosystem import Ecosystem
from .records import ExperimentResult
from .schedule import ExperimentSchedule

__all__ = [
    "CellWork",
    "CellOutcome",
    "CellFailure",
    "NetworkGroup",
    "CampaignRunner",
    "CampaignResult",
    "CampaignStatus",
    "CellStatus",
    "cell_record",
    "identity_view",
    "dispatch_cells",
    "group_cells",
    "plan_grid",
    "run_experiment_pair",
    "load_checkpoint",
    "load_grid_manifest",
    "write_grid_manifest",
    "GRID_SCHEMA_VERSION",
    "RECORD_SCHEMA_VERSION",
]

_log = get_logger("repro.campaign")

#: Bumped when the checkpoint record layout changes; stale-schema
#: checkpoints are recomputed, never reinterpreted.
RECORD_SCHEMA_VERSION = 2

#: Bumped when the grid manifest layout changes.
GRID_SCHEMA_VERSION = 1

#: The fields that name a cell: the grid manifest lists them per cell,
#: and a checkpoint must carry the same values to be that cell's.
_CELL_KEY = ("digest", "experiment", "seed", "scenario")


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
    """The cells that run on one network: one unit of dispatch.

    ``cells`` index the dispatched work list, in grid order.
    ``network`` is a caller-supplied ``(ecosystem, seed_plan)``; when
    it is ``None`` the group builds the network once from its first
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
    result: Optional[ExperimentResult] = None
    #: Worker-side registry snapshot / completed span tree (pooled
    #: mode only; inline cells wrote straight into the parent's).
    metrics: Optional[dict] = None
    trace: Optional[dict] = None
    #: A pooled cell's provenance ``(events, dropped)``, recorded into
    #: a fresh ring with the parent ring's settings; the dispatcher
    #: folds it into the parent's ring in cell order.
    provenance: Optional[Tuple[List[dict], int]] = None


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


def _cell_key(spec: ExperimentSpec) -> dict:
    """The :data:`_CELL_KEY` fields of *spec*'s cell."""
    return {
        "digest": spec.digest(),
        "experiment": spec.experiment,
        "seed": spec.seed,
        "scenario": spec.scenario,
    }


def _is_cell_record(record, cell: dict) -> bool:
    """Whether *record* is a complete :func:`cell_record` of *cell* (a
    :func:`_cell_key`, or a ``grid.json`` entry): this schema and
    cell, every field present with its type, and
    ``categories``/``fractions`` keyed by exactly the Table 1
    categories (int counts, numeric fractions)."""
    if not isinstance(record, dict) or not all(
        _typed(record.get(name), kind)
        for name, kind in _RECORD_FIELDS.items()
    ):
        return False
    if record["schema"] != RECORD_SCHEMA_VERSION or any(
        record[name] != cell.get(name) for name in _CELL_KEY
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


def _run_cell(work: CellWork, index: int, network: Network) -> CellOutcome:
    """Execute one cell on its group's *network* under the active ring
    — a pooled worker's own, or inline the parent's, exactly like a
    standalone run."""
    spec = work.spec
    started = time.perf_counter()
    ecosystem, seed_plan = network
    result = build_runner(
        spec, ecosystem, seed_plan,
        schedule=work.schedule, fault_plan=work.fault_plan,
    ).run()
    record = None
    if work.build_record:
        record = cell_record(spec, result, ecosystem)
        record["wall_seconds"] = time.perf_counter() - started
    return CellOutcome(
        index=index,
        digest=spec.digest(),
        label=spec.label(),
        record=record,
        result=result if work.keep_result else None,
    )


# ---------------------------------------------------------------------
# Dispatch

def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _cell_task(
    work: CellWork, index: int, network: Network, forked: bool = False
) -> CellOutcome:
    """Run one cell of a network group.

    In a pool worker (*forked*) the cell runs under isolated obs state
    — a fresh registry and, when the parent records provenance, a
    fresh ring with the parent ring's settings — and ships both back
    for in-order merging; the ``campaign.cells_forked``
    counter it ships proves the cell ran there.  Inline it records
    straight into the parent's obs state, exactly like a standalone
    run.
    """
    if not forked:
        with span("campaign.cell.%s" % work.spec.label()):
            outcome = _run_cell(work, index, network)
        get_registry().counter("campaign.cells_completed").inc()
        return outcome
    registry = MetricsRegistry()
    ring = active_ring()
    if ring is not None:
        ring = EventRing(ring.capacity, ring.prefix_filter)
    with use_registry(registry), detached_trace(), use_ring(ring):
        with span("campaign.cell.%s" % work.spec.label()) as record:
            outcome = _run_cell(work, index, network)
        registry.counter("campaign.cells_completed").inc()
        registry.counter("campaign.cells_forked").inc()
        outcome.trace = record.as_dict()
    outcome.metrics = registry.snapshot()
    if ring is not None:
        outcome.provenance = (ring.events(), ring.dropped)
    return outcome


def _group_task(
    works: Sequence[CellWork], group: NetworkGroup, forked: bool = False
) -> List[Union[CellOutcome, CellFailure]]:
    """Run one network group: build its network once (unless the group
    carries one), run its cells on it, and drop it on return.  A cell
    that raises becomes a :class:`CellFailure` and its group-mates
    still run; the result is one outcome or failure per cell, in the
    group's cell order."""
    network = group.network or network_of(works[group.cells[0]].spec)
    settled: List[Union[CellOutcome, CellFailure]] = []
    for index in group.cells:
        work = works[index]
        try:
            settled.append(_cell_task(work, index, network, forked))
        except Exception as error:
            settled.append(CellFailure(
                index, work.spec.digest(), work.spec.label(), str(error)
            ))
    return settled


#: A pool worker's ``(works, groups)``, set once by the pool initializer.
_POOL_WORK: Optional[Tuple[List[CellWork], List[NetworkGroup]]] = None


def _init_pool_worker(
    works: List[CellWork], groups: List[NetworkGroup]
) -> None:
    global _POOL_WORK
    _POOL_WORK = (works, groups)


def _pooled_group(number: int) -> List[Union[CellOutcome, CellFailure]]:
    """Pool entry point: run group *number* of the initializer's
    work list."""
    works, groups = _POOL_WORK
    return _group_task(works, groups[number], forked=True)


def _will_fork(
    pool_workers: int, count: int, backend: Optional[str] = None
) -> bool:
    """Whether group dispatch runs on a fork pool: forced by *backend*,
    or resolved from the worker count, the number of groups and the
    platform."""
    if backend == "fork":
        return True
    if backend == "inline":
        return False
    return pool_workers > 1 and count > 1 and fork_available()


def dispatch_cells(
    works: Sequence[CellWork],
    pool_workers: int = 1,
    on_outcome: Optional[Callable[[CellOutcome], None]] = None,
    backend: Optional[str] = None,
    network: Optional[Network] = None,
) -> Tuple[List[Optional[CellOutcome]], List[CellFailure]]:
    """Run *works* as network groups (:func:`group_cells`): on one fork
    pool when ``pool_workers > 1`` and there is more than one group
    (and ``fork`` exists), in a plain loop otherwise; *backend*
    (``"fork"`` / ``"inline"``) forces the choice, so tests can run a
    single group on a fork worker.  *network*, when given, is the one
    network every cell runs on: all of *works* then form a single group
    that builds nothing.

    Returns outcomes in cell order (``None`` where a cell failed) plus
    the failures.  *on_outcome* fires as each cell's result is merged
    — the campaign checkpoints there, so cells finished before a crash
    are never recomputed.  Results merge in the inline execution
    order: group by group, and each group's cells in grid order.  In
    pooled mode the parent merges worker metrics snapshots, re-attaches
    span trees, and folds shipped provenance into its active ring in
    that order, reproducing the inline observability streams.
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
    ring = active_ring()

    def fail(failure: CellFailure) -> None:
        failures.append(failure)
        get_registry().counter("campaign.cells_failed").inc()

    def collect(
        group: NetworkGroup,
        run: Callable[[], List[Union[CellOutcome, CellFailure]]],
    ) -> None:
        try:
            settled = run()
        except Exception as error:
            # The whole group died: its network failed to build, or a
            # pool worker crashed.  No cell of it reported back.
            for index in group.cells:
                spec = works[index].spec
                fail(CellFailure(
                    index, spec.digest(), spec.label(), str(error)
                ))
            return
        # Only pooled outcomes carry worker metrics, span trees and
        # provenance (inline cells wrote straight into the parent's).
        for outcome in settled:
            if isinstance(outcome, CellFailure):
                fail(outcome)
                continue
            if outcome.metrics:
                get_registry().merge_snapshot(outcome.metrics)
            if outcome.trace is not None:
                attach_completed(outcome.trace)
            if outcome.provenance is not None:
                ring.extend(*outcome.provenance)
                outcome.provenance = None
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    # Groups are never retried: a failed cell is recorded as a
    # CellFailure and reported after the rest of the grid completes
    # (checkpointing means a re-run only recomputes the failures).
    if not _will_fork(pool_workers, len(groups), backend):
        # Each group runs, and checkpoints, before the next one starts.
        for group in groups:
            collect(group, partial(_group_task, works, group))
    else:
        if not fork_available():
            raise ExperimentError(
                "fork start method unavailable on this platform"
            )
        # The work list reaches each worker once, through the
        # initializer; every group is submitted up front and resolved
        # in group order.
        with ProcessPoolExecutor(
            max_workers=max(1, min(pool_workers, len(groups))),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_pool_worker,
            initargs=(works, groups),
        ) as pool:
            futures = [
                pool.submit(_pooled_group, number)
                for number in range(len(groups))
            ]
            for group, future in zip(groups, futures):
                collect(group, future.result)
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
) -> List[ExperimentSpec]:
    """The (seed × scenario × experiment) grid, in deterministic
    seed-major order.  Unknown scenario names fail here, before any
    cell runs."""
    specs = [
        ExperimentSpec(
            experiment=experiment, seed=seed, scale=scale,
            scenario=scenario, pps=pps,
            fault_spec=fault_spec,
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
        Campaign state root.  The planned grid lands in ``grid.json``
        (:func:`write_grid_manifest`); completed cells persist under
        ``cells/<digest>.json``; the aggregate lands in
        ``campaign_summary.json``.  Provenance goes to the active
        ring, not to per-cell files.
    pool_workers:
        Campaign-level group processes (1: groups run inline, one after
        another).
    resume:
        Skip cells whose checkpoint is already present (the default).
        ``False`` recomputes everything.
    keep_results:
        Retain full :class:`ExperimentResult` objects on the
        :class:`CampaignResult` (memory-heavy; tests use it).

    Pending cells run as network groups (:func:`group_cells`) through
    :func:`dispatch_cells`: on one fork pool when there is more than
    one worker, more than one group, and ``fork`` exists; one after
    another in this process otherwise.
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
    def summary_path(self) -> str:
        return os.path.join(self.directory, "campaign_summary.json")

    def _write_checkpoint(self, record: dict) -> None:
        _write_atomic(
            _checkpoint_path(self.directory, record["digest"]),
            json.dumps(record, indent=1, sort_keys=True) + "\n",
        )

    # -- execution -----------------------------------------------------

    def run(self) -> CampaignResult:
        started = time.perf_counter()
        # The observable grid: a manifest so `repro status` knows what
        # "complete" means; its `total` is what the --metrics-out
        # snapshot's `campaign.cells_completed` reads against.
        write_grid_manifest(self.directory, self.specs)
        records: Dict[str, dict] = {}
        pending: List[ExperimentSpec] = []
        skipped = 0
        for spec in self.specs:
            checkpoint = (
                load_checkpoint(self.directory, _cell_key(spec))
                if self.resume else None
            )
            if checkpoint is not None:
                records[spec.digest()] = checkpoint
                skipped += 1
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
            records[outcome.digest] = outcome.record
            if self.keep_results and outcome.result is not None:
                result.results[outcome.digest] = outcome.result
            _log.info(
                "cell complete",
                cell=outcome.label, digest=outcome.digest,
                wall_seconds=round(outcome.record["wall_seconds"], 3),
            )

        with span("campaign.run"):
            _, failures = dispatch_cells(
                works,
                pool_workers=self.pool_workers,
                on_outcome=checkpoint_outcome,
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


# ---------------------------------------------------------------------
# Campaign files: checkpoints, the grid manifest, and the status fold


def _write_atomic(path: str, text: str) -> None:
    """Write *text* to *path* via a temp file and rename, so readers
    (and resumed campaigns) never see a partial file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temp, path)


def _read_json(path: str):
    """The JSON value in *path*, or None if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError):
        return None


def _checkpoint_path(directory: str, digest: str) -> str:
    return os.path.join(directory, "cells", "%s.json" % digest)


def load_checkpoint(directory: str, cell: dict) -> Optional[dict]:
    """*cell*'s checkpoint under campaign *directory*, or None unless
    it is a complete record of this schema and really is that cell
    (:func:`_is_cell_record`).  A resumed campaign skips exactly the
    cells this returns a record for, and ``repro status`` counts
    exactly those as done."""
    record = _read_json(_checkpoint_path(directory, str(cell.get("digest"))))
    return record if _is_cell_record(record, cell) else None


def write_grid_manifest(
    directory: str, specs: Sequence[ExperimentSpec]
) -> str:
    """Persist the planned grid as ``<directory>/grid.json`` (atomic):
    each cell's :data:`_CELL_KEY` fields and label.  Returns the
    path."""
    path = os.path.join(directory, "grid.json")
    payload = {
        "schema": GRID_SCHEMA_VERSION,
        "total": len(specs),
        "cells": [
            dict(_cell_key(spec), label=spec.label()) for spec in specs
        ],
    }
    _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_grid_manifest(directory: str) -> Optional[dict]:
    manifest = _read_json(os.path.join(directory, "grid.json"))
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != GRID_SCHEMA_VERSION
        or not isinstance(manifest.get("cells"), list)
    ):
        return None
    return manifest


@dataclass(frozen=True)
class CellStatus:
    """One planned cell: ``done`` when its checkpoint is one a resumed
    campaign would skip, ``pending`` otherwise."""

    digest: str
    label: str
    state: str
    #: The compute time recorded in a done cell's checkpoint.
    wall_seconds: Optional[float] = None


@dataclass
class CampaignStatus:
    """What ``repro status`` reports: ``grid.json`` folded with the
    ``cells/`` checkpoints."""

    directory: str
    cells: List[CellStatus] = field(default_factory=list)
    summary_present: bool = False

    @classmethod
    def load(cls, directory: str) -> "CampaignStatus":
        """Fold *directory*'s grid manifest and checkpoints.  A
        directory without ``grid.json`` (a campaign older than the
        manifest) reports the cells that left a checkpoint, each
        checked against its own key fields."""
        manifest = load_grid_manifest(directory)
        if manifest is not None:
            planned = [
                cell for cell in manifest["cells"] if isinstance(cell, dict)
            ]
        else:
            cells_dir = os.path.join(directory, "cells")
            names = (
                sorted(os.listdir(cells_dir))
                if os.path.isdir(cells_dir) else []
            )
            planned = []
            for name in names:
                if name.endswith(".json"):
                    record = _read_json(os.path.join(cells_dir, name))
                    cell = dict(record) if isinstance(record, dict) else {}
                    cell.update(digest=name[: -len(".json")], label=None)
                    planned.append(cell)
        status = cls(
            directory=directory,
            summary_present=os.path.exists(
                os.path.join(directory, "campaign_summary.json")
            ),
        )
        for cell in planned:
            digest = str(cell.get("digest"))
            record = load_checkpoint(directory, cell)
            status.cells.append(CellStatus(
                digest=digest,
                label=str(cell.get("label") or digest),
                state="pending" if record is None else "done",
                wall_seconds=(
                    None if record is None else float(record["wall_seconds"])
                ),
            ))
        return status

    def count(self, state: str) -> int:
        return sum(1 for cell in self.cells if cell.state == state)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.count("done") == self.total

    def cells_per_minute(self) -> Optional[float]:
        """Done-cell throughput from the checkpoints' recorded compute
        times (so a pooled campaign reports aggregate worker
        throughput)."""
        walls = [
            cell.wall_seconds for cell in self.cells if cell.state == "done"
        ]
        if sum(walls) <= 0:
            return None
        return 60.0 * len(walls) / sum(walls)

    def render(self, verbose: bool = True) -> str:
        """The console text of ``repro status``."""
        done = self.count("done")
        header = "campaign %s: %d/%d cell(s) complete" % (
            self.directory, done, self.total
        )
        if self.total:
            header += " (%.0f%%)" % (100.0 * done / self.total)
        lines = [header]
        throughput = self.cells_per_minute()
        if throughput is not None:
            lines.append("  throughput: %.1f cells/minute" % throughput)
        if verbose and self.cells:
            lines.append("")
            lines.append("  %-34s %-8s %8s" % ("cell", "state", "wall"))
            for cell in self.cells:
                wall = (
                    "%.1fs" % cell.wall_seconds
                    if cell.wall_seconds is not None else "-"
                )
                lines.append(
                    "  %-34s %-8s %8s" % (cell.label[:34], cell.state, wall)
                )
        if self.complete and self.summary_present:
            lines.append("all cells complete; summary written")
        return "\n".join(lines)


def known_scenarios() -> List[str]:
    """Scenario preset names, for CLI help and validation."""
    return sorted(SCENARIO_PRESETS)
