"""Cross-seed aggregation for campaign sweeps.

One campaign cell is one full nine-configuration experiment; this
module turns a grid of completed cell records into the robustness
report the single-seed reproduction cannot give: per-category prefix
fractions with mean/min/max and bootstrap confidence intervals across
seeds, grouped by (experiment, scenario) and compared against the
paper's published Table 1 shares.  The summary is a pure function of
the cell records — no wall clocks, no ordering dependence — so an
interrupted-then-resumed campaign renders and serialises the summary
byte-identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..rng import derive_seed
from .classify import TABLE1_ORDER, InferenceCategory

__all__ = [
    "CategoryStats",
    "GroupSummary",
    "CampaignSummary",
    "build_campaign_summary",
    "bootstrap_ci",
    "PAPER_TABLE1_SHARES",
    "PREPEND_INSENSITIVE",
]

#: Derived metric: the share of prefixes whose inference never moved
#: under prepending (always R&E + always commodity) — the paper's
#: "~88% of prefixes are insensitive to prepending" headline.
PREPEND_INSENSITIVE = "Prepend-insensitive"

#: Published Table 1 prefix shares (fractions of characterized
#: prefixes) per experiment — the targets the sweep distributions are
#: compared against.  Surf = Table 1a, Internet2 = Table 1b.
PAPER_TABLE1_SHARES: Dict[str, Dict[str, float]] = {
    "surf": {
        InferenceCategory.ALWAYS_RE.value: 0.818,
        InferenceCategory.ALWAYS_COMMODITY.value: 0.070,
        InferenceCategory.SWITCH_TO_RE.value: 0.080,
        InferenceCategory.SWITCH_TO_COMMODITY.value: 0.000,
        InferenceCategory.MIXED.value: 0.031,
        InferenceCategory.OSCILLATING.value: 0.000,
        PREPEND_INSENSITIVE: 0.888,
    },
    "internet2": {
        InferenceCategory.ALWAYS_RE.value: 0.808,
        InferenceCategory.ALWAYS_COMMODITY.value: 0.070,
        InferenceCategory.SWITCH_TO_RE.value: 0.091,
        InferenceCategory.SWITCH_TO_COMMODITY.value: 0.000,
        InferenceCategory.MIXED.value: 0.031,
        InferenceCategory.OSCILLATING.value: 0.000,
        PREPEND_INSENSITIVE: 0.878,
    },
}

#: Bootstrap resamples for the CI of the mean.  Fixed (and seeded
#: deterministically per group) so summaries are reproducible.
BOOTSTRAP_RESAMPLES = 2000


def bootstrap_ci(
    values: List[float],
    rng: random.Random,
    resamples: int = BOOTSTRAP_RESAMPLES,
    alpha: float = 0.05,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of the mean of *values*.

    Deterministic given *rng*'s state.  With a single value the
    interval collapses to that value (no resampling draws), which is
    the honest answer for a one-seed campaign.
    """
    if not values:
        raise ValueError("bootstrap_ci needs at least one value")
    if len(values) == 1:
        return values[0], values[0]
    n = len(values)
    # rng.randrange(n), inlined: CPython's own rejection loop over
    # getrandbits, so the index stream and the final state match it.
    getrandbits = rng.getrandbits
    k = n.bit_length()
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            index = getrandbits(k)
            while index >= n:
                index = getrandbits(k)
            total += values[index]
        means.append(total / n)
    means.sort()
    lo_index = int((alpha / 2.0) * resamples)
    hi_index = min(resamples - 1, int((1.0 - alpha / 2.0) * resamples))
    return means[lo_index], means[hi_index]


@dataclass
class CategoryStats:
    """One inference category's per-seed fractions within one
    (experiment, scenario) group."""

    category: str
    fractions: List[float]
    ci_low: float = 0.0
    ci_high: float = 0.0
    paper: Optional[float] = None

    @property
    def mean(self) -> float:
        return sum(self.fractions) / len(self.fractions)

    @property
    def minimum(self) -> float:
        return min(self.fractions)

    @property
    def maximum(self) -> float:
        return max(self.fractions)

    def as_dict(self) -> dict:
        out = {
            "category": self.category,
            "fractions": list(self.fractions),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "ci95": [self.ci_low, self.ci_high],
        }
        if self.paper is not None:
            out["paper"] = self.paper
        return out


@dataclass
class GroupSummary:
    """Aggregated stats for one (experiment, scenario) over its seeds."""

    experiment: str
    scenario: str
    seeds: List[int]
    cell_digests: List[str]
    stats: List[CategoryStats] = field(default_factory=list)
    mean_characterized: float = 0.0
    mean_excluded_loss: float = 0.0

    def stat(self, category: str) -> CategoryStats:
        for entry in self.stats:
            if entry.category == category:
                return entry
        raise KeyError(category)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "cells": list(self.cell_digests),
            "mean_characterized": self.mean_characterized,
            "mean_excluded_loss": self.mean_excluded_loss,
            "categories": [s.as_dict() for s in self.stats],
        }


@dataclass
class CampaignSummary:
    """The whole campaign, aggregated — rendered as the sweep's
    summary table and serialised as ``campaign_summary.json``."""

    groups: List[GroupSummary] = field(default_factory=list)
    total_cells: int = 0

    def group(self, experiment: str, scenario: str) -> GroupSummary:
        for entry in self.groups:
            if (
                entry.experiment == experiment
                and entry.scenario == scenario
            ):
                return entry
        raise KeyError((experiment, scenario))

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "total_cells": self.total_cells,
            "groups": [g.as_dict() for g in self.groups],
            "paper_targets": PAPER_TABLE1_SHARES,
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        lines = [
            "Campaign summary: %d cells, %d (experiment, scenario) "
            "group(s)" % (self.total_cells, len(self.groups)),
        ]
        for group in self.groups:
            lines.append("")
            lines.append(
                "%s / %s  (%d seed%s)"
                % (
                    group.experiment, group.scenario, len(group.seeds),
                    "" if len(group.seeds) == 1 else "s",
                )
            )
            lines.append(
                "  %-26s %7s %7s %7s %15s %7s"
                % ("category", "mean", "min", "max", "95% CI", "paper")
            )
            for stat in group.stats:
                paper = (
                    "%6.1f%%" % (100.0 * stat.paper)
                    if stat.paper is not None else "     --"
                )
                lines.append(
                    "  %-26s %6.1f%% %6.1f%% %6.1f%% [%5.1f%%,%5.1f%%] %s"
                    % (
                        stat.category,
                        100.0 * stat.mean,
                        100.0 * stat.minimum,
                        100.0 * stat.maximum,
                        100.0 * stat.ci_low,
                        100.0 * stat.ci_high,
                        paper,
                    )
                )
            lines.append(
                "  mean characterized prefixes: %.1f "
                "(excluded for loss: %.1f)"
                % (group.mean_characterized, group.mean_excluded_loss)
            )
        return "\n".join(lines)


def _cell_fraction(record: dict, category: str) -> float:
    return float(record.get("fractions", {}).get(category, 0.0))


def _prepend_insensitive_fraction(record: dict) -> float:
    return _cell_fraction(
        record, InferenceCategory.ALWAYS_RE.value
    ) + _cell_fraction(record, InferenceCategory.ALWAYS_COMMODITY.value)


def build_campaign_summary(records: Iterable[dict]) -> CampaignSummary:
    """Aggregate completed cell records into a :class:`CampaignSummary`.

    Pure function of the records: cells are grouped by (experiment,
    scenario) and ordered by seed then digest inside each group, the
    bootstrap RNG is seeded from the group key alone, and no timing
    fields are read — so resumed and uninterrupted campaigns summarise
    byte-identically.
    """
    by_group: Dict[Tuple[str, str], List[dict]] = {}
    for record in records:
        key = (str(record["experiment"]), str(record["scenario"]))
        by_group.setdefault(key, []).append(record)

    summary = CampaignSummary()
    for (experiment, scenario) in sorted(by_group):
        cells = sorted(
            by_group[(experiment, scenario)],
            key=lambda r: (int(r["seed"]), str(r["digest"])),
        )
        group = GroupSummary(
            experiment=experiment,
            scenario=scenario,
            seeds=[int(r["seed"]) for r in cells],
            cell_digests=[str(r["digest"]) for r in cells],
            mean_characterized=(
                sum(int(r["characterized"]) for r in cells) / len(cells)
            ),
            mean_excluded_loss=(
                sum(int(r["excluded_loss"]) for r in cells) / len(cells)
            ),
        )
        targets = PAPER_TABLE1_SHARES.get(experiment, {})
        rng = random.Random(
            derive_seed(0, "campaign-bootstrap:%s:%s" % (experiment, scenario))
        )
        names = [c.value for c in TABLE1_ORDER] + [PREPEND_INSENSITIVE]
        for name in names:
            if name == PREPEND_INSENSITIVE:
                fractions = [
                    _prepend_insensitive_fraction(r) for r in cells
                ]
            else:
                fractions = [_cell_fraction(r, name) for r in cells]
            ci_low, ci_high = bootstrap_ci(fractions, rng)
            group.stats.append(CategoryStats(
                category=name,
                fractions=fractions,
                ci_low=ci_low,
                ci_high=ci_high,
                paper=targets.get(name),
            ))
        summary.groups.append(group)
        summary.total_cells += len(cells)
    return summary
