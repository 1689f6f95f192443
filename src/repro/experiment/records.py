"""Result containers for experiment runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.engine import ConvergenceStats, UpdateEvent
from ..netutil import Prefix
from ..probing.prober import RoundResult
from ..seeds.selection import SeedPlan
from .schedule import ExperimentSchedule


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a probing round: a contiguous block of the round's
    prefix order, plus everything a worker needs to probe it
    deterministically.

    ``start_index`` is the global index of the shard's first probe in
    the round's prefix-sorted target sequence (transmit pacing).
    ``round_seed`` is the round's seed-tree node value; the worker
    derives each prefix's probe stream from it, so results depend only
    on (seed, prefix) — never on shard boundaries or worker identity.
    """

    shard_id: int
    round_index: int
    config: str
    prefixes: Tuple[Prefix, ...]
    start_index: int
    round_seed: int
    started_at: float


@dataclass
class ShardOutcome:
    """What one shard worker sends back to be merged.

    ``rows`` carries one compact wire row per probe
    (:func:`repro.probing.prober.response_row`) in the shard's global
    probe order; the parent rehydrates :class:`ProbeResponse` objects
    against its own target table, so neither targets nor response
    objects are pickled across the process boundary.

    ``metrics`` is the worker's isolated registry snapshot
    (:meth:`repro.obs.MetricsRegistry.snapshot`), merged into the
    parent registry; ``trace`` is the shard's completed span tree
    (:meth:`repro.obs.SpanRecord.as_dict`), re-attached under the
    parent's round span.

    ``capture`` is the worker's :meth:`~repro.obs.capture.Capture.shipped`
    payload when the parent had a capture active (e.g. the shard's
    ``kind="signal"`` provenance events, in the shard's prefix order);
    the parent merges it in shard order, reproducing the serial event
    streams byte for byte.
    """

    shard_id: int
    rows: List[Optional[tuple]]
    probe_count: int
    wall_seconds: float
    metrics: dict = field(default_factory=dict)
    trace: Optional[dict] = None
    capture: Optional[dict] = None


@dataclass
class FeederObservation:
    """What one collector-feeding member AS exported for the measurement
    prefix at one probing round (Table 3's public-view signal)."""

    round_index: int
    config: str
    origin_asn: Optional[int]   # None: feeder exported no route
    tag: str = ""
    path: Tuple[int, ...] = ()


@dataclass
class OutageRecord:
    """An outage the runner actually injected.

    ``action`` is ``"down"``/``"up"`` for scheduled outages and
    ``"flap-down"``/``"flap-up"`` for fault-plan link flaps
    (:mod:`repro.faults`), which fail and restore a link between
    rounds beyond the scheduled outage ground truth."""

    round_index: int
    action: str   # "down" / "up" / "flap-down" / "flap-up"
    a: int
    b: int
    victim_asn: int


@dataclass(frozen=True)
class DegradationRecord:
    """How one shard execution failed and was recovered.

    Emitted by the hardened :class:`~repro.experiment.parallel.ShardedRunner`
    whenever a shard needed more than its first attempt — an injected
    or genuine worker crash (``BrokenProcessPool``), a shard timeout,
    or an in-process :class:`~repro.faults.InjectedFault`.  ``action``
    says how recovery succeeded: ``"retry"`` (a resubmission within
    the bounded backoff loop) or ``"fallback"`` (inline re-execution
    in the parent after retries were exhausted).  ``attempts`` counts
    every execution of the shard including the first and the one that
    succeeded; ``detail`` lists the failure seen at each lost attempt.

    Degradations describe how a run *executed*, never what it
    measured: they are excluded from the byte-identity contract, so a
    recovered run still compares equal to a fault-free one on
    classifications, report text, and exported provenance.
    """

    round_index: int
    config: str
    shard_id: int
    action: str   # "retry" or "fallback"
    attempts: int
    recovered: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "round": self.round_index,
            "config": self.config,
            "shard": self.shard_id,
            "action": self.action,
            "attempts": self.attempts,
            "recovered": self.recovered,
            "detail": self.detail,
        }


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment: str                       # "surf" or "internet2"
    schedule: ExperimentSchedule
    re_origin: int
    commodity_origin: int
    seed_plan: SeedPlan
    rounds: List[RoundResult] = field(default_factory=list)
    round_times: List[Tuple[float, float]] = field(default_factory=list)
    config_change_times: List[Tuple[float, str]] = field(default_factory=list)
    update_log: List[UpdateEvent] = field(default_factory=list)
    feeder_views: Dict[int, List[FeederObservation]] = field(
        default_factory=dict
    )
    convergence: List[ConvergenceStats] = field(default_factory=list)
    #: Per probing round: the convergence stats of every fixpoint run
    #: that round triggered (its configuration change plus any outages
    #: fired after it).  ``round_convergence[i]`` pairs with
    #: ``rounds[i]``; entries also appear in ``convergence``.
    round_convergence: List[List[ConvergenceStats]] = field(
        default_factory=list
    )
    outages_applied: List[OutageRecord] = field(default_factory=list)
    #: Shard executions that needed recovery (retries / inline
    #: fallbacks).  Execution metadata only — explicitly *excluded*
    #: from the determinism/identity contract: a run that survived a
    #: worker crash is byte-identical to a fault-free run everywhere
    #: except this list (asserted in tests/test_differential.py).
    degradations: List[DegradationRecord] = field(default_factory=list)
    #: Provenance events captured by a spec-requested local recorder
    #: (:func:`repro.api.run_experiment` with ``provenance_capacity``
    #: / ``provenance_prefixes`` set and no recorder already active).
    #: None when the run recorded into a caller-managed recorder or
    #: recorded nothing.  Deterministic like everything else here.
    provenance_events: Optional[List[dict]] = None
    #: Frontier events captured by a spec-requested local trace
    #: (:func:`repro.api.run_experiment` with ``frontier_capacity``
    #: set and no trace already active).  None when the run recorded
    #: into a caller-managed trace or recorded nothing.  Inside the
    #: identity contract: byte-identical across workers / shard size
    #: (asserted in tests/test_differential.py).
    frontier_events: Optional[List[dict]] = None
    #: Phase-profile payload from a spec-requested local profiler
    #: (``profile=True``).  Execution metadata like ``degradations`` —
    #: explicitly *excluded* from the identity contract (timings vary
    #: run to run).
    profile: Optional[dict] = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def round_messages_delivered(self, index: int) -> int:
        """BGP messages delivered converging round *index*'s
        configuration change (the engine-side churn behind Figure 3)."""
        return sum(
            stats.messages_delivered
            for stats in self.round_convergence[index]
        )

    def probed_prefixes(self) -> List[Prefix]:
        return self.seed_plan.responsive_prefixes()

    def responses_for(self, prefix: Prefix) -> List[List]:
        """Per-round response lists for one prefix."""
        return [
            round_result.responses.get(prefix, [])
            for round_result in self.rounds
        ]

    def commodity_phase_start(self) -> Optional[float]:
        """Time of the first configuration change that touched the
        commodity announcement (the Figure 3 phase boundary)."""
        from .schedule import parse_prepend_config

        for when, config in self.config_change_times:
            if parse_prepend_config(config)[1] > 0:
                return when
        return None
