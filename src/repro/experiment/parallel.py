"""Parallel sharded experiment execution.

The experiment's BGP control plane is one global, order-dependent state
machine, so announcements, convergence, outages, and feeder-view
capture stay serial in the parent process.  The data plane is not:
every probing round probes thousands of targets against a *converged*
(frozen) RIB — an embarrassingly parallel workload by prefix.

:class:`ShardedRunner` exploits exactly that split.  At each probing
round it captures a :class:`~repro.probing.forwarding.RibSnapshot` of
the converged forwarding state and resolves it, once, into a
:class:`~repro.probing.forwarding.Catchment` (every AS's return walk),
partitions the prefix-sorted target set into contiguous shards, and
fans the per-shard probing out through the unified
:class:`~repro.experiment.scheduler.Scheduler`: each shard is a
:class:`~repro.experiment.scheduler.Task` executed by the resolved
backend (a ``fork`` pool when ``workers > 1`` and the platform allows
it, the inline backend otherwise).  Shard results are merged back in
shard order, which — the shards being contiguous blocks of the same
sorted prefix order the serial prober uses — reproduces the serial
round byte for byte.

Determinism contract
--------------------
Results are a pure function of the experiment seed:

- every prefix's probe stream derives from the round's
  :class:`~repro.rng.SeedTree` node keyed by the *prefix* (never by
  worker id, shard boundary, or wall clock), so any partition of the
  prefix set draws identical values;
- probe transmit times are computed from each probe's global index in
  the round (``now + index / pps``), shipped to shards as a start
  offset, so pacing does not depend on execution order;
- the serial prober and the shard workers both read return paths from
  a catchment resolved from the same snapshot, through the same
  :func:`~repro.probing.prober.probe_one`, so the data plane cannot
  drift between the serial and sharded paths.

Hence ``ShardedRunner(workers=k, shard_size=s)`` produces the same
:class:`~repro.experiment.records.ExperimentResult` as the serial
:class:`~repro.experiment.runner.ExperimentRunner` for every ``k`` and
``s`` — the property ``tests/test_differential.py`` enforces.

Observability: each shard worker runs under an isolated metrics
registry, a detached span stack and a child of the active
:class:`~repro.obs.capture.Capture`; its registry snapshot and shipped
capture are merged into the parent's in shard order and its completed
``runner.shard.<n>`` span tree is re-attached under the parent's
``runner.round.<config>`` span.

Fault tolerance
---------------
Shard execution is a pure function of ``(spec, catchment, worker
state)``, so a shard that dies can always be re-executed without
changing results.  Recovery — bounded retries with exponential backoff
(rebuilding a broken pool), then inline re-execution in the parent as
a last resort — lives in the scheduler's
:class:`~repro.experiment.scheduler.RetryPolicy`; each shard task
carries ``retry_args`` with the execution-fault directive stripped so
an *injected* failure cannot recur while the environment directive
(lossy prefixes) survives.  A recovered run is therefore
byte-identical to a fault-free one; what happened is recorded in
:class:`~repro.experiment.records.DegradationRecord` entries,
``runner.shard_retries`` / ``runner.shard_fallbacks`` /
``runner.faults_injected`` counters, and ``kind="degradation"``
provenance events (excluded from JSONL export by default).  Faults
can be injected deterministically from the experiment seed via a
:class:`~repro.faults.FaultPlan`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ExperimentError
from ..faults import FaultDirective, FaultKind, InjectedFault
from ..netutil import Prefix
from ..obs import (
    MetricsRegistry,
    get_logger,
    get_registry,
    span,
    use_registry,
)
from ..obs.capture import active_capture, use_capture
from ..obs.provenance import (
    degradation_event,
    round_signal_summary,
    signal_event,
)
from ..obs.spans import attach_completed, detached_trace
from ..probing.forwarding import Catchment
from ..probing.prober import (
    Prober,
    RoundResult,
    prefix_stream_rng,
    probe_one,
    response_from_row,
    response_row,
)
from ..seeds.selection import ProbeTarget
from ..topology.re_config import SystemPlan
from .records import DegradationRecord, ShardOutcome, ShardSpec
from .runner import ExperimentRunner
from .scheduler import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_MAX_RETRIES,
    ResourceClaim,
    RetryPolicy,
    Scheduler,
    Task,
    TaskResult,
    crash_kills_process,
    resolve_backend,
    task_context,
)

__all__ = [
    "ShardedRunner",
    "DEFAULT_SHARDS_PER_WORKER",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_BACKOFF_BASE",
]

#: Default oversubscription: shards per worker when ``shard_size`` is
#: not given.  More shards than workers smooths load imbalance from
#: prefixes with different hop counts; the value never affects results.
DEFAULT_SHARDS_PER_WORKER = 4

_log = get_logger("repro.parallel")


@dataclass(frozen=True)
class _WorkerState:
    """Round-invariant probing state, shipped to each worker once (as
    the scheduler backend's context) rather than with every shard."""

    targets: Dict[Prefix, List[ProbeTarget]]
    systems: Dict[int, SystemPlan]
    interface_kinds: Dict[int, str]   # announcement origin -> VLAN kind
    pps: int


def _probe_shard(
    state: _WorkerState,
    spec: ShardSpec,
    catchment: Catchment,
    lossy_prefixes: frozenset = frozenset(),
) -> List[Optional[tuple]]:
    """Probe one shard's prefixes against the round's catchment.

    Mirrors :meth:`repro.probing.prober.Prober.probe_round` exactly:
    same prefix order (the spec carries a contiguous slice of the
    round's sorted order), same per-prefix streams, same global-index
    pacing, and the shared :func:`probe_one` semantics.  Returns one
    compact wire row per probe (:func:`response_row`), in probe order
    (the parent rebuilds :class:`ProbeResponse` objects from them).
    Provenance signal events go to the active (worker) capture — one
    per prefix, built from the same aggregation the serial prober
    uses, so the merged stream matches the serial stream exactly.
    """
    lookup = catchment.lookup
    interface_kind_of = state.interface_kinds.__getitem__
    interval = 1.0 / state.pps
    index = spec.start_index
    rows: List[Optional[tuple]] = []
    capture = active_capture()
    recorder = capture.provenance if capture is not None else None

    for prefix in spec.prefixes:
        rng = prefix_stream_rng(spec.round_seed, prefix)
        collect = recorder is not None and recorder.wants(prefix)
        responses = [] if collect else None
        blanked = prefix in lossy_prefixes
        for target in state.targets[prefix]:
            response = probe_one(
                state.systems.get(target.address),
                target, lookup, interface_kind_of, rng,
                spec.started_at + index * interval,
                force_loss=blanked,
            )
            if responses is not None:
                responses.append(response)
            rows.append(response_row(response))
            index += 1
        if collect:
            recorder.record(signal_event(
                prefix, spec.round_index, spec.config,
                **round_signal_summary(responses),
            ))
    return rows


def _run_shard(
    spec: ShardSpec,
    catchment: Catchment,
    fault: Optional[FaultDirective] = None,
) -> ShardOutcome:
    """Task entry point: probe one shard under isolated obs state.

    The round-invariant :class:`_WorkerState` arrives as the scheduler
    backend's context (:func:`task_context`), installed once per pool
    worker or around each inline execution.

    *fault* is the shard's injection directive.  Execution faults fire
    before any probing: a crash kills the worker process outright
    (``os._exit`` — the parent sees ``BrokenProcessPool``) when
    :func:`crash_kills_process` allows it, and otherwise — inline
    execution, including an inline shard inside a campaign cell
    worker — raises a recoverable :class:`InjectedFault`; a hang
    sleeps past the scheduler policy's ``timeout``.  The environment
    fault — ``lossy_prefixes`` — blanks those prefixes' probes and
    *does* survive retries, since it is part of the simulated world,
    not the machinery.
    """
    state = task_context()
    if state is None:
        raise ExperimentError("shard task used outside a scheduler backend")
    # The active capture is the parent's (inherited across fork, or
    # shared inline): record into a fresh child and ship it back.
    parent = active_capture()
    capture = parent.child() if parent is not None else None
    lossy: frozenset = frozenset()
    if fault is not None:
        if fault.crash:
            if crash_kills_process():
                os._exit(1)
            raise InjectedFault(
                "injected worker crash in shard %d" % spec.shard_id
            )
        if fault.hang_seconds > 0.0:
            time.sleep(fault.hang_seconds)
        lossy = fault.lossy_prefixes
    registry = MetricsRegistry()
    started = time.perf_counter()
    with use_registry(registry), detached_trace(), use_capture(capture):
        with span("runner.shard.%d" % spec.shard_id) as record:
            rows = _probe_shard(state, spec, catchment, lossy)
        registry.counter("parallel.shard_probes").inc(len(rows))
        registry.counter("parallel.shards_completed").inc()
        trace = record.as_dict()
    return ShardOutcome(
        shard_id=spec.shard_id,
        rows=rows,
        probe_count=len(rows),
        wall_seconds=time.perf_counter() - started,
        metrics=registry.snapshot(),
        trace=trace,
        capture=capture.shipped() if capture is not None else None,
    )


class ShardedRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` whose probing rounds fan out across
    shards of the prefix set.

    Parameters
    ----------
    workers:
        Parallel slot count.  ``1`` (the default) runs shards through
        the inline backend in-process.
    shard_size:
        Prefixes per shard.  Defaults to splitting the prefix set into
        ``workers * DEFAULT_SHARDS_PER_WORKER`` shards.  Neither knob
        ever changes results — only wall-clock time.
    shard_timeout:
        Seconds to wait for one shard before treating it as hung and
        recovering (None — the default — waits indefinitely).
    max_retries:
        Resubmissions per failed shard before inline fallback.
    backoff_base:
        Exponential-backoff base between retries (seconds).
    fault_plan:
        Scripted faults (:mod:`repro.faults`).  Execution faults are
        injected into shard submissions and must be recovered without
        changing results; environment faults are applied exactly as
        the serial runner applies them.
    backend:
        Force the execution backend (``"inline"`` / ``"fork"``); None
        resolves fork → inline from ``workers`` and the platform.
    """

    def __init__(
        self,
        ecosystem,
        experiment: str,
        seed: int = 0,
        schedule=None,
        seed_plan=None,
        pps: int = 100,
        workers: int = 1,
        shard_size: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        fault_plan=None,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(
            ecosystem, experiment, seed=seed, schedule=schedule,
            seed_plan=seed_plan, pps=pps, fault_plan=fault_plan,
        )
        if workers < 1:
            raise ExperimentError("workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ExperimentError("shard_size must be >= 1")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ExperimentError("shard_timeout must be positive")
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if backoff_base < 0:
            raise ExperimentError("backoff_base must be >= 0")
        if backend not in (None, "inline", "fork"):
            raise ExperimentError(
                "unknown execution backend %r" % (backend,)
            )
        self.workers = workers
        self.shard_size = shard_size
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backend = backend
        self._scheduler: Optional[Scheduler] = None
        self._worker_state: Optional[_WorkerState] = None

    # ------------------------------------------------------------------

    def run(self):
        try:
            return super().run()
        finally:
            self._shutdown_scheduler()

    # ----- scheduler lifecycle ----------------------------------------

    def _ensure_scheduler(self, prober: Prober) -> Scheduler:
        if self._scheduler is not None:
            return self._scheduler
        self._worker_state = _WorkerState(
            targets=self.seed_plan.targets,
            systems=prober.systems_by_address,
            interface_kinds={
                asn: prober.host.interface_for_origin(asn).kind
                for asn in prober.host.origin_asns()
            },
            pps=prober.pps,
        )
        execution = resolve_backend(
            self._worker_state, workers=self.workers, force=self.backend
        )
        self._scheduler = Scheduler(
            execution,
            RetryPolicy(
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                timeout=self.shard_timeout,
            ),
            on_retry=self._count_shard_retry,
            on_fallback=self._count_shard_fallback,
        )
        _log.info(
            "shard scheduler ready",
            backend=execution.name,
            workers=self.workers,
            experiment=self.experiment,
        )
        return self._scheduler

    def _shutdown_scheduler(self) -> None:
        if self._scheduler is not None:
            self._scheduler.shutdown(wait=True)
            self._scheduler = None

    def _count_shard_retry(self, task, attempt, failures) -> None:
        get_registry().counter("runner.shard_retries").inc()

    def _count_shard_fallback(self, task, failures) -> None:
        get_registry().counter("runner.shard_fallbacks").inc()

    # ----- sharding ----------------------------------------------------

    def _shard_specs(
        self, index: int, config_label: str, now: float
    ) -> List[ShardSpec]:
        """Partition the round's sorted prefix order into contiguous
        shards, each carrying its global probe-index offset."""
        prefixes = self.seed_plan.responsive_prefixes()
        shard_size = self.shard_size
        if shard_size is None:
            shard_count = max(1, self.workers * DEFAULT_SHARDS_PER_WORKER)
            shard_size = max(1, math.ceil(len(prefixes) / shard_count))
        round_seed = self._round_seed_tree(index).seed
        specs: List[ShardSpec] = []
        start_index = 0
        for shard_id, begin in enumerate(range(0, len(prefixes), shard_size)):
            block = tuple(prefixes[begin:begin + shard_size])
            specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    round_index=index,
                    config=config_label,
                    prefixes=block,
                    start_index=start_index,
                    round_seed=round_seed,
                    started_at=now,
                )
            )
            start_index += sum(
                len(self.seed_plan.targets[prefix]) for prefix in block
            )
        return specs

    def _shard_directives(
        self, index: int, specs: List[ShardSpec]
    ) -> Dict[int, FaultDirective]:
        """Build each shard's fault directive for round *index*: the
        scripted execution fault (if the plan's slot maps to this
        shard) plus the shard's share of the round's lossy prefixes."""
        lossy = self._round_lossy_prefixes(index)
        if not self.fault_plan and not lossy:
            return {}
        directives: Dict[int, FaultDirective] = {}
        for spec in specs:
            event = self.fault_plan.execution_fault(
                index, spec.shard_id, len(specs)
            )
            directive = FaultDirective(
                crash=(
                    event is not None
                    and event.kind is FaultKind.WORKER_CRASH
                ),
                hang_seconds=(
                    event.hang_seconds
                    if event is not None
                    and event.kind is FaultKind.SHARD_HANG
                    else 0.0
                ),
                lossy_prefixes=(
                    lossy.intersection(spec.prefixes)
                    if lossy else frozenset()
                ),
            )
            if directive:
                directives[spec.shard_id] = directive
        return directives

    # ----- degradation bookkeeping ------------------------------------

    def _note_degradation(
        self,
        spec: ShardSpec,
        action: str,
        attempts: int,
        failures: List[str],
    ) -> None:
        detail = "; ".join(failures)
        record = DegradationRecord(
            round_index=spec.round_index,
            config=spec.config,
            shard_id=spec.shard_id,
            action=action,
            attempts=attempts,
            recovered=True,
            detail=detail,
        )
        self._degradations.append(record)
        capture = active_capture()
        if capture is not None and capture.provenance is not None:
            capture.provenance.record(degradation_event(
                round_index=spec.round_index,
                config=spec.config,
                shard_id=spec.shard_id,
                action=action,
                attempts=attempts,
                recovered=True,
                detail=detail,
            ))
        _log.warning(
            "shard recovered",
            shard=spec.shard_id,
            round=spec.round_index,
            experiment=self.experiment,
            action=action,
            attempts=attempts,
            failures=detail,
        )
        # Refresh any heartbeat so its mirrored retry/fallback
        # counters surface while the round is still running.
        self._report_progress(phase="probing")

    # ----- the probing round, sharded ---------------------------------

    def _probe_round(
        self, engine, prober: Prober, rib, index: int, config_label: str
    ) -> RoundResult:
        scheduler = self._ensure_scheduler(prober)
        with span("runner.snapshot"):
            catchment = prober.host.catchment(self.ecosystem.topology, rib)
        specs = self._shard_specs(index, config_label, engine.now)
        capture = active_capture()
        registry = get_registry()
        directives = self._shard_directives(index, specs)
        injected = sum(
            1 for directive in directives.values()
            if directive.has_execution_fault
        )
        if injected:
            registry.counter("runner.faults_injected").inc(injected)
        tasks: List[Task] = []
        for spec in specs:
            fault = directives.get(spec.shard_id)
            clean = (
                fault.without_execution_faults()
                if fault is not None else None
            )
            tasks.append(Task(
                key=spec.shard_id,
                fn=_run_shard,
                args=(spec, catchment, fault),
                retry_args=(spec, catchment, clean),
                claim=ResourceClaim(cpu_slots=1),
            ))
        result = RoundResult(config=config_label, started_at=engine.now)
        state = self._worker_state
        kind_of = state.interface_kinds.__getitem__
        interval = 1.0 / prober.pps
        merged = {"shards": 0, "probes": 0}

        def merge(task: Task, task_result: TaskResult) -> None:
            # Merge in shard order: shards are contiguous blocks of the
            # sorted prefix order, so insertion order — and therefore
            # every downstream iteration — matches the serial round.
            # Workers send compact rows; responses are rebuilt here
            # against the parent's own target table, with transmit
            # times recomputed from the same global probe indices the
            # workers used.
            if task_result.error is not None:
                raise task_result.error
            spec = specs[task.key]
            if task_result.recovered_by is not None:
                self._note_degradation(
                    spec, task_result.recovered_by,
                    task_result.attempts, task_result.failures,
                )
            outcome: ShardOutcome = task_result.value
            merged["shards"] += 1
            self._report_progress(
                phase="probing",
                shards_completed=merged["shards"],
                shards_total=len(specs),
            )
            row_iter = iter(outcome.rows)
            probe_index = spec.start_index
            for prefix in spec.prefixes:
                rebuilt = []
                for target in state.targets[prefix]:
                    rebuilt.append(
                        response_from_row(
                            next(row_iter), target,
                            spec.started_at + probe_index * interval,
                            kind_of,
                        )
                    )
                    probe_index += 1
                if rebuilt:
                    result.responses[prefix] = rebuilt
            merged["probes"] += outcome.probe_count
            if capture is not None:
                # Shard order == serial prefix order (contiguous
                # blocks), so the capture receives the serial stream.
                capture.merge(outcome.capture)
            registry.merge_snapshot(outcome.metrics)
            if outcome.trace is not None:
                attach_completed(outcome.trace)
            registry.histogram("runner.shard_wall_seconds").observe(
                outcome.wall_seconds
            )

        with span("runner.merge"):
            scheduler.run(tasks, on_result=merge)
        result.duration = merged["probes"] * (1.0 / prober.pps)
        registry.counter("runner.rounds_sharded").inc()
        registry.gauge("runner.shards_per_round").set(len(specs))
        registry.gauge("runner.shard_workers").set(self.workers)
        prober._flush_metrics(result)
        if _log.is_enabled_for("debug"):
            _log.debug(
                "sharded round merged",
                round=index,
                config=config_label,
                shards=len(specs),
                probes=merged["probes"],
                backend=scheduler.backend.name,
            )
        return result
