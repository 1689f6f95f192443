"""Per-prefix route-preference classification (§4).

Each probing round yields a *signal* for a prefix: did responses arrive
over R&E, commodity, both ("mixed"), or not at all.  The sequence of
signals across the nine configurations maps to the paper's six
inference categories:

- **always R&E / always commodity** — no transitions;
- **switch to R&E** — exactly one commodity→R&E transition, the
  equal-localpref signature given the prepend ordering (§3.3);
- **switch to commodity** — one R&E→commodity transition, which the
  ordering makes unexpected (an outage signature, §4);
- **mixed** — at least one round with both route types;
- **oscillating** — two or more transitions;
- prefixes missing a response in any round are excluded (packet loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..experiment.records import ExperimentResult
from ..netutil import Prefix
from ..obs.provenance import SIGNAL_LABELS


class RoundSignal(Enum):
    """What one probing round showed for one prefix."""

    RE = "re"
    COMMODITY = "commodity"
    BOTH = "both"
    NONE = "none"


class InferenceCategory(Enum):
    """The paper's Table 1 categories, plus the loss exclusion."""

    ALWAYS_RE = "Always R&E"
    ALWAYS_COMMODITY = "Always commodity"
    SWITCH_TO_RE = "Switch to R&E"
    SWITCH_TO_COMMODITY = "Switch to commodity"
    MIXED = "Mixed R&E + commodity"
    OSCILLATING = "Oscillating"
    EXCLUDED_LOSS = "Excluded (packet loss)"

    def __str__(self) -> str:
        return self.value


#: Table 1's row order.
TABLE1_ORDER = (
    InferenceCategory.ALWAYS_RE,
    InferenceCategory.ALWAYS_COMMODITY,
    InferenceCategory.SWITCH_TO_RE,
    InferenceCategory.SWITCH_TO_COMMODITY,
    InferenceCategory.MIXED,
    InferenceCategory.OSCILLATING,
)


@dataclass
class SignalTransition:
    """One signal change between consecutive rounds — the unit of
    evidence behind every switch/oscillation classification."""

    round_index: int          # round where the *new* signal appeared
    config: str               # that round's prepend configuration
    from_signal: RoundSignal
    to_signal: RoundSignal


@dataclass
class PrefixInference:
    """Classification of one prefix in one experiment."""

    prefix: Prefix
    origin_asn: int
    category: InferenceCategory
    signals: List[RoundSignal] = field(default_factory=list)
    switch_round: Optional[int] = None   # round index of the transition
    switch_config: Optional[str] = None  # its prepend configuration
    #: Every round-to-round signal change, in round order — the full
    #: justification chain for the category (switch categories have
    #: exactly one entry; oscillating two or more).
    transitions: List[SignalTransition] = field(default_factory=list)

    @property
    def characterized(self) -> bool:
        return self.category is not InferenceCategory.EXCLUDED_LOSS


def classify_signals(signals: Sequence[RoundSignal]) -> InferenceCategory:
    """Map a signal sequence to a category (see module docstring)."""
    if not signals:
        raise AnalysisError("cannot classify an empty signal sequence")
    if any(signal is RoundSignal.NONE for signal in signals):
        return InferenceCategory.EXCLUDED_LOSS
    if any(signal is RoundSignal.BOTH for signal in signals):
        return InferenceCategory.MIXED
    transitions = sum(
        1 for a, b in zip(signals, signals[1:]) if a is not b
    )
    if transitions == 0:
        if signals[0] is RoundSignal.RE:
            return InferenceCategory.ALWAYS_RE
        return InferenceCategory.ALWAYS_COMMODITY
    if transitions == 1:
        if signals[-1] is RoundSignal.RE:
            return InferenceCategory.SWITCH_TO_RE
        return InferenceCategory.SWITCH_TO_COMMODITY
    return InferenceCategory.OSCILLATING


#: Round signal code -> :class:`RoundSignal`.  The codes' labels are
#: the table shared with the provenance stream, so signal events and
#: classifications can never disagree on a round.
_SIGNAL_OF_CODE = tuple(RoundSignal(label) for label in SIGNAL_LABELS)


def round_signals(
    result: ExperimentResult, prefix: Prefix
) -> List[RoundSignal]:
    """*prefix*'s signal in each round of *result*."""
    return [
        _SIGNAL_OF_CODE[round_result.signal_code(prefix)]
        for round_result in result.rounds
    ]


def classify_prefix_rounds(
    prefix: Prefix,
    origin_asn: int,
    signals: Sequence[RoundSignal],
    configs: Sequence[str],
) -> PrefixInference:
    """Classify one prefix from its per-round signals."""
    if len(signals) != len(configs):
        raise AnalysisError("round count does not match config count")
    signals = list(signals)
    category = classify_signals(signals)
    transitions = [
        SignalTransition(
            round_index=index + 1,
            config=configs[index + 1],
            from_signal=a,
            to_signal=b,
        )
        for index, (a, b) in enumerate(zip(signals, signals[1:]))
        if a is not b
    ]
    inference = PrefixInference(
        prefix=prefix,
        origin_asn=origin_asn,
        category=category,
        signals=signals,
        transitions=transitions,
    )
    if category in (
        InferenceCategory.SWITCH_TO_RE,
        InferenceCategory.SWITCH_TO_COMMODITY,
    ):
        inference.switch_round = transitions[0].round_index
        inference.switch_config = transitions[0].config
    return inference


@dataclass
class ExperimentInference:
    """All prefix classifications for one experiment."""

    experiment: str
    inferences: Dict[Prefix, PrefixInference] = field(default_factory=dict)

    def characterized(self) -> List[PrefixInference]:
        return [i for i in self.inferences.values() if i.characterized]

    def of_category(self, category: InferenceCategory) -> List[PrefixInference]:
        return [
            i for i in self.inferences.values() if i.category is category
        ]

    def by_as(self) -> Dict[int, List[PrefixInference]]:
        out: Dict[int, List[PrefixInference]] = {}
        for inference in self.inferences.values():
            out.setdefault(inference.origin_asn, []).append(inference)
        return out


def classify_experiment(
    result: ExperimentResult,
    origin_of: Dict[Prefix, int],
) -> ExperimentInference:
    """Classify every probed prefix of an experiment.

    ``origin_of`` maps prefixes to their origin ASN (from the
    ecosystem's topology).  A run probes every round over one plan, so
    a prefix's signal codes are one row across the rounds' ``signal``
    columns.  Prefixes share few distinct rows (~60 among ~13K
    prefixes at scale 1.0): each row is classified once, and every
    prefix gets its own ``signals`` and ``transitions`` lists.
    """
    configs = list(result.schedule.configs)
    out = ExperimentInference(experiment=result.experiment)
    rounds = result.rounds
    index_of = rounds[0].plan.index_of if rounds else {}
    rows = list(zip(*(round_result.signal for round_result in rounds)))
    classified: Dict[Tuple[int, ...], PrefixInference] = {}
    for prefix in result.seed_plan.targets:
        origin_asn = origin_of.get(prefix)
        if origin_asn is None:
            # A bare KeyError here named nothing, while the runner's
            # provenance capture silently skipped the same mismatch —
            # fail loudly and say which prefix fell between the
            # probing plan and the origin map.
            raise AnalysisError(
                "probed prefix %s has no origin in the ecosystem's "
                "origin map; the seed plan and origin_of disagree"
                % prefix
            )
        index = index_of.get(prefix)
        codes = (0,) * len(rounds) if index is None else rows[index]
        shared = classified.get(codes)
        if shared is None:
            shared = classified[codes] = classify_prefix_rounds(
                prefix, origin_asn,
                [_SIGNAL_OF_CODE[code] for code in codes], configs,
            )
        out.inferences[prefix] = PrefixInference(
            prefix=prefix,
            origin_asn=origin_asn,
            category=shared.category,
            signals=list(shared.signals),
            switch_round=shared.switch_round,
            switch_config=shared.switch_config,
            transitions=list(shared.transitions),
        )
    return out


def origin_map(ecosystem) -> Dict[Prefix, int]:
    """Prefix -> origin ASN for an ecosystem's studied prefixes."""
    return {
        plan.prefix: plan.origin_asn
        for plan in ecosystem.studied_prefixes()
    }
