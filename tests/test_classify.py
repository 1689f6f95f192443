"""Tests for the per-prefix classification state machine."""

import pytest
from hypothesis import given, strategies as st

from repro import REEcosystemConfig, build_ecosystem
from repro.core.classify import (
    InferenceCategory,
    RoundSignal,
    classify_experiment,
    classify_prefix_rounds,
    classify_signals,
    origin_map,
    round_signals,
)
from repro.errors import AnalysisError
from repro.experiment import run_experiment_pair
from repro.netutil import Prefix
from repro.obs.provenance import round_signal_summary

PFX = Prefix.parse("198.51.100.0/24")
CONFIGS = ("4-0", "3-0", "2-0", "1-0", "0-0", "0-1", "0-2", "0-3", "0-4")

R = RoundSignal.RE
C = RoundSignal.COMMODITY
B = RoundSignal.BOTH
N = RoundSignal.NONE


def seq(text):
    table = {"R": R, "C": C, "B": B, "N": N}
    return [table[ch] for ch in text]


class TestClassifySignals:
    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            classify_signals([])

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("RRRRRRRRR", InferenceCategory.ALWAYS_RE),
            ("CCCCCCCCC", InferenceCategory.ALWAYS_COMMODITY),
            ("CCCCCRRRR", InferenceCategory.SWITCH_TO_RE),
            ("CRRRRRRRR", InferenceCategory.SWITCH_TO_RE),
            ("CCCCCCCCR", InferenceCategory.SWITCH_TO_RE),
            ("RRRRRRCCC", InferenceCategory.SWITCH_TO_COMMODITY),
            ("RRCCRRRRR", InferenceCategory.OSCILLATING),
            ("CRCRCRCRC", InferenceCategory.OSCILLATING),
            ("RRRBRRRRR", InferenceCategory.MIXED),
            ("CCCCBCCCC", InferenceCategory.MIXED),
            ("RRRRNRRRR", InferenceCategory.EXCLUDED_LOSS),
            ("NNNNNNNNN", InferenceCategory.EXCLUDED_LOSS),
            ("R", InferenceCategory.ALWAYS_RE),
        ],
    )
    def test_classification_table(self, text, expected):
        assert classify_signals(seq(text)) is expected

    def test_loss_takes_precedence_over_mixed(self):
        assert classify_signals(seq("BBNBBBBBB")) is (
            InferenceCategory.EXCLUDED_LOSS
        )

    def test_mixed_takes_precedence_over_switch(self):
        assert classify_signals(seq("CCBCRRRRR")) is InferenceCategory.MIXED


def signals_of(rounds):
    """Per-round response lists -> per-round signals, through the
    provenance stream's single signal mapping."""
    return [
        RoundSignal(round_signal_summary(responses)["signal"])
        for responses in rounds
    ]


class TestClassifyPrefixRounds:
    class _Resp:
        def __init__(self, responded, kind=None):
            self.responded = responded
            self.interface_kind = kind
            self.origin_asn = None

    def test_full_pipeline(self):
        rounds = [[self._Resp(True, "commodity")]] * 5 + [
            [self._Resp(True, "re")]
        ] * 4
        inference = classify_prefix_rounds(PFX, 42, signals_of(rounds), CONFIGS)
        assert inference.category is InferenceCategory.SWITCH_TO_RE
        assert inference.switch_round == 5
        assert inference.switch_config == "0-1"
        assert inference.origin_asn == 42

    def test_mixed_round_detection(self):
        rounds = [
            [self._Resp(True, "re"), self._Resp(True, "commodity")]
        ] + [[self._Resp(True, "re")]] * 8
        inference = classify_prefix_rounds(PFX, 42, signals_of(rounds), CONFIGS)
        assert inference.category is InferenceCategory.MIXED

    def test_unresponsive_round_excludes(self):
        rounds = [[self._Resp(True, "re")]] * 4 + [[self._Resp(False)]] + [
            [self._Resp(True, "re")]
        ] * 4
        inference = classify_prefix_rounds(PFX, 42, signals_of(rounds), CONFIGS)
        assert inference.category is InferenceCategory.EXCLUDED_LOSS
        assert not inference.characterized

    def test_partial_loss_within_round_tolerated(self):
        rounds = [
            [self._Resp(False), self._Resp(True, "re")]
        ] * 9
        inference = classify_prefix_rounds(PFX, 42, signals_of(rounds), CONFIGS)
        assert inference.category is InferenceCategory.ALWAYS_RE

    def test_round_config_mismatch(self):
        with pytest.raises(AnalysisError):
            classify_prefix_rounds(PFX, 42, signals_of([[]]), CONFIGS)

    def test_no_switch_round_for_always(self):
        rounds = [[self._Resp(True, "re")]] * 9
        inference = classify_prefix_rounds(PFX, 42, signals_of(rounds), CONFIGS)
        assert inference.switch_round is None


class TestClassifyExperiment:
    def test_missing_origin_raises_error_naming_the_prefix(self):
        """A probed prefix absent from the origin map must fail loudly
        with the offending prefix in the message, not a bare KeyError."""
        from types import SimpleNamespace

        result = SimpleNamespace(
            experiment="surf",
            schedule=SimpleNamespace(configs=CONFIGS),
            seed_plan=SimpleNamespace(targets={PFX: []}),
            rounds=[],
        )
        with pytest.raises(AnalysisError, match=r"198\.51\.100\.0/24"):
            classify_experiment(result, {})


def test_experiment_classification_matches_the_per_prefix_path():
    """Classifying each distinct signal vector once gives every prefix
    what classifying it alone gives, in its own lists."""
    ecosystem = build_ecosystem(REEcosystemConfig(scale=0.25), seed=20250605)
    origins = origin_map(ecosystem)
    for result in run_experiment_pair(ecosystem, seed=20250605):
        configs = list(result.schedule.configs)
        inferences = classify_experiment(result, origins).inferences
        assert list(inferences) == list(result.seed_plan.targets)
        for prefix, inference in inferences.items():
            assert inference == classify_prefix_rounds(
                prefix, origins[prefix], round_signals(result, prefix),
                configs,
            ), prefix
        assert len({id(i.signals) for i in inferences.values()}) == len(
            inferences
        )
        assert len({id(i.transitions) for i in inferences.values()}) == len(
            inferences
        )


# Property tests on the signal state machine.

signals = st.lists(st.sampled_from([R, C, B, N]), min_size=1, max_size=12)
clean_signals = st.lists(st.sampled_from([R, C]), min_size=1, max_size=12)


@given(signals)
def test_every_sequence_classifies(seq_):
    category = classify_signals(seq_)
    assert isinstance(category, InferenceCategory)


@given(signals)
def test_loss_iff_none_present(seq_):
    category = classify_signals(seq_)
    assert (category is InferenceCategory.EXCLUDED_LOSS) == (
        N in seq_
    )


@given(clean_signals)
def test_transition_count_semantics(seq_):
    category = classify_signals(seq_)
    transitions = sum(1 for a, b in zip(seq_, seq_[1:]) if a is not b)
    if transitions == 0:
        assert category in (
            InferenceCategory.ALWAYS_RE,
            InferenceCategory.ALWAYS_COMMODITY,
        )
    elif transitions == 1:
        assert category in (
            InferenceCategory.SWITCH_TO_RE,
            InferenceCategory.SWITCH_TO_COMMODITY,
        )
    else:
        assert category is InferenceCategory.OSCILLATING


@given(clean_signals)
def test_reversal_swaps_switch_direction(seq_):
    category = classify_signals(seq_)
    reversed_category = classify_signals(list(reversed(seq_)))
    mapping = {
        InferenceCategory.SWITCH_TO_RE: InferenceCategory.SWITCH_TO_COMMODITY,
        InferenceCategory.SWITCH_TO_COMMODITY: InferenceCategory.SWITCH_TO_RE,
    }
    if category in mapping:
        assert reversed_category is mapping[category]
    else:
        assert reversed_category is category


@given(clean_signals, st.sampled_from([R, C]))
def test_appending_same_signal_is_stable(seq_, last):
    """Extending a run with its final signal never changes the class."""
    category = classify_signals(seq_)
    extended = classify_signals(seq_ + [seq_[-1]])
    assert extended is category
