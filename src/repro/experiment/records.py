"""Result containers for experiment runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.engine import ConvergenceStats, UpdateEvent
from ..netutil import Prefix
from ..probing.prober import RoundResult
from ..seeds.selection import SeedPlan
from .schedule import ExperimentSchedule


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


@dataclass
class ExperimentResult:
    """Everything one experiment produced.  Its provenance events are
    not part of it: they go to the active ring, if any
    (:func:`repro.obs.capture.use_ring`)."""

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

    def commodity_phase_start(self) -> Optional[float]:
        """Time of the first configuration change that touched the
        commodity announcement (the Figure 3 phase boundary)."""
        from .schedule import parse_prepend_config

        for when, config in self.config_change_times:
            if parse_prepend_config(config)[1] > 0:
                return when
        return None
