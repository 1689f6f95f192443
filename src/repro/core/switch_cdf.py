"""§B / Figure 8: when did ASes switch to R&E routes?

The analysis selects prefixes that switched from commodity to R&E in
*both* experiments, takes the first configuration at which each AS
switched (so multi-prefix ASes that switch in unison count once), and
builds per-population CDFs over the configuration sequence for the
Participant (U.S. domestic) and Peer-NREN (international) classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiment.schedule import PREPEND_SEQUENCE
from ..topology.graph import MemberSide
from .classify import ExperimentInference, InferenceCategory


@dataclass
class SwitchCDF:
    """CDF of first-switch configurations for one population."""

    side: MemberSide
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def cdf(self, configs: Tuple[str, ...] = PREPEND_SEQUENCE) -> List[Tuple[str, float]]:
        total = self.total
        cumulative = 0
        out: List[Tuple[str, float]] = []
        for config in configs:
            cumulative += self.counts.get(config, 0)
            out.append((config, cumulative / total if total else 0.0))
        return out


@dataclass
class Figure8:
    """Per-experiment switch CDFs for both populations."""

    experiment: str
    participant: SwitchCDF = field(
        default_factory=lambda: SwitchCDF(MemberSide.PARTICIPANT)
    )
    peer_nren: SwitchCDF = field(
        default_factory=lambda: SwitchCDF(MemberSide.PEER_NREN)
    )
    configs: Tuple[str, ...] = PREPEND_SEQUENCE

    def render(self) -> str:
        lines = [
            "Figure 8 (%s): CDF of first switch to R&E" % self.experiment,
            "%-8s %12s %12s" % ("config", "Peer-NREN", "Participant"),
        ]
        nren_cdf = dict(self.peer_nren.cdf(self.configs))
        part_cdf = dict(self.participant.cdf(self.configs))
        for config in self.configs:
            lines.append(
                "%-8s %11.1f%% %11.1f%%"
                % (config, 100.0 * nren_cdf[config],
                   100.0 * part_cdf[config])
            )
        lines.append(
            "N: Peer-NREN=%d Participant=%d"
            % (self.peer_nren.total, self.participant.total)
        )
        return "\n".join(lines)


def switched_in_both(
    surf: ExperimentInference, internet2: ExperimentInference
) -> List:
    """Prefixes classified switch-to-R&E in both experiments (the
    paper's 859)."""
    out = []
    for prefix, a in surf.inferences.items():
        b = internet2.inferences.get(prefix)
        if (
            b is not None
            and a.category is InferenceCategory.SWITCH_TO_RE
            and b.category is InferenceCategory.SWITCH_TO_RE
        ):
            out.append(prefix)
    return out


def build_figure8(
    ecosystem,
    surf: ExperimentInference,
    internet2: ExperimentInference,
    experiment: str,
) -> Figure8:
    """Build the switch CDF for one experiment over the prefixes that
    switched in both."""
    chosen = (surf if experiment == "surf" else internet2)
    figure = Figure8(experiment=experiment)
    # First switch configuration per AS, over the shared switch set.
    first_switch: Dict[Tuple[int, MemberSide], int] = {}
    for prefix in switched_in_both(surf, internet2):
        item = chosen.inferences[prefix]
        if item.switch_round is None:
            continue
        plan = ecosystem.prefix_plans.get(prefix)
        side = plan.side if plan is not None else MemberSide.PEER_NREN
        key = (item.origin_asn, side)
        if key not in first_switch or item.switch_round < first_switch[key]:
            first_switch[key] = item.switch_round
    for (asn, side), round_index in first_switch.items():
        config = figure.configs[round_index]
        cdf = (
            figure.participant
            if side is MemberSide.PARTICIPANT
            else figure.peer_nren
        )
        cdf.counts[config] = cdf.counts.get(config, 0) + 1
    return figure


def population_lag(figure: Figure8) -> float:
    """Mean switch-round difference (Participant minus Peer-NREN) — the
    §B observation that U.S. domestic ASes switched one configuration
    later in the SURF experiment."""
    def mean_round(cdf: SwitchCDF) -> Optional[float]:
        total = cdf.total
        if not total:
            return None
        indexed = {c: i for i, c in enumerate(figure.configs)}
        return sum(
            indexed[config] * count for config, count in cdf.counts.items()
        ) / total

    participant = mean_round(figure.participant)
    peer_nren = mean_round(figure.peer_nren)
    if participant is None or peer_nren is None:
        return 0.0
    return participant - peer_nren
