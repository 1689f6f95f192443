"""Tests for :mod:`repro.faults`: the plan / spec layer, plus
end-to-end runs on a small ecosystem showing that probe-loss bursts
and link flaps change results deterministically, in a standalone run
and in a pooled campaign cell alike.
"""

import pytest

from repro import REEcosystemConfig, build_ecosystem
from repro.api import ExperimentSpec, run_experiment
from repro.experiment.campaign import CellWork, dispatch_cells, fork_available
from repro.experiment.runner import ExperimentRunner
from repro.faults import (
    DEFAULT_LOSS_FRACTION,
    FaultError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    parse_fault_spec,
)
from repro.faults.plan import SLOT_SPACE

SEED = 11
SCALE = 0.06


def loss_plan(round_index=2, slot=0):
    return FaultPlan(events=(
        FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=round_index,
                   slot=slot),
    ))


@pytest.fixture(scope="module")
def small_ecosystem():
    return build_ecosystem(REEcosystemConfig(scale=SCALE), seed=SEED)


@pytest.fixture(scope="module")
def baseline(small_ecosystem):
    """Fault-free run every fault test compares against."""
    return ExperimentRunner(small_ecosystem, "surf", seed=SEED).run()


def round_keys(result):
    return [
        (r.config, r.started_at, r.duration,
         {prefix: r.responses_of(prefix) for prefix in r.plan.prefixes})
        for r in result.rounds
    ]


def convergence_keys(result):
    return [
        [stats.replay_key() for stats in round_stats]
        for round_stats in result.round_convergence
    ]


class TestParseFaultSpec:
    def test_parses_counts(self):
        assert parse_fault_spec("flap=2,loss=1") == {"loss": 1, "flap": 2}

    def test_whitespace_and_empty_parts_tolerated(self):
        assert parse_fault_spec(" flap = 1 , , loss=3 ") == {
            "loss": 3, "flap": 1,
        }

    def test_repeated_names_accumulate(self):
        assert parse_fault_spec("flap=1,flap=2")["flap"] == 3

    def test_unknown_name_rejected(self):
        for text in ("explode=1", "crash=1", "hang=1"):
            with pytest.raises(FaultError, match="unknown fault kind"):
                parse_fault_spec(text)

    def test_bad_count_rejected(self):
        with pytest.raises(FaultError, match="bad count"):
            parse_fault_spec("loss=lots")

    def test_negative_count_rejected(self):
        with pytest.raises(FaultError, match="negative"):
            parse_fault_spec("loss=-1")

    @pytest.mark.parametrize(
        "text", ["loss=\u0663", "loss= 1_0", "loss=+2", "loss=1\u0660",
                 "flap=\uff11"],
    )
    def test_count_must_be_ascii_digits(self, text):
        with pytest.raises(FaultError, match="bad count"):
            parse_fault_spec(text)

    def test_count_is_bounded_by_the_slot_space(self):
        assert parse_fault_spec("loss=%d" % SLOT_SPACE)["loss"] == SLOT_SPACE
        assert parse_fault_spec("loss=" + "0" * 5000 + "1")["loss"] == 1
        for text in ("loss=%d" % (SLOT_SPACE + 1),
                     "flap=%d,flap=1" % SLOT_SPACE,
                     "loss=" + "9" * 5000):
            with pytest.raises(FaultError, match="more than 65536"):
                parse_fault_spec(text)


class TestFaultPlanConstruction:
    def test_from_seed_is_deterministic(self):
        kwargs = dict(probe_loss_bursts=2, link_flaps=1)
        assert (FaultPlan.from_seed(5, **kwargs)
                == FaultPlan.from_seed(5, **kwargs))

    def test_different_seeds_differ(self):
        assert (FaultPlan.from_seed(5, link_flaps=3)
                != FaultPlan.from_seed(6, link_flaps=3))

    def test_rounds_stay_in_range(self):
        plan = FaultPlan.from_seed(
            0, rounds=4, probe_loss_bursts=5, link_flaps=5
        )
        assert all(0 <= e.round_index < 4 for e in plan.events)

    def test_from_spec_matches_from_seed(self):
        assert FaultPlan.from_spec("loss=1,flap=2", 9) == \
            FaultPlan.from_seed(9, probe_loss_bursts=1, link_flaps=2)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.from_seed(0, link_flaps=1)

    def test_counts(self):
        plan = FaultPlan.from_seed(0, link_flaps=2, probe_loss_bursts=1)
        assert plan.counts() == {"link_flap": 2, "probe_loss": 1}

    def test_bad_rounds_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_seed(0, rounds=0)


class TestLossyPrefixes:
    PREFIXES = tuple("abcdefghij")

    def test_block_wraps_from_slot(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=0, slot=8,
                       fraction=0.25),
        ))
        # ceil(10 * 0.25) = 3 prefixes starting at index 8, wrapping.
        assert plan.lossy_prefixes(0, self.PREFIXES) == {"i", "j", "a"}

    def test_full_fraction_blanks_everything(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=0, slot=3,
                       fraction=1.0),
        ))
        assert plan.lossy_prefixes(0, self.PREFIXES) == set(self.PREFIXES)

    def test_other_rounds_unaffected(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=0, slot=0),
        ))
        assert plan.lossy_prefixes(1, self.PREFIXES) == frozenset()

    def test_empty_prefix_list(self):
        assert loss_plan().lossy_prefixes(2, ()) == frozenset()

    def test_default_fraction_used(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=0, slot=0),
        ))
        expected = -(-len(self.PREFIXES) * DEFAULT_LOSS_FRACTION // 1)
        assert len(plan.lossy_prefixes(0, self.PREFIXES)) == int(expected)

    def test_flaps_after_filters_by_round(self):
        flap = FaultEvent(kind=FaultKind.LINK_FLAP, round_index=4, slot=2)
        plan = FaultPlan(events=(
            flap,
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=4, slot=0),
        ))
        assert plan.flaps_after(4) == (flap,)
        assert plan.flaps_after(3) == ()


class TestEnvironmentFaultDeterminism:
    """Faults attack the simulated world; results change, but
    deterministically."""

    ENV_PLAN_EVENTS = (
        FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=3, slot=5,
                   fraction=0.3),
        FaultEvent(kind=FaultKind.LINK_FLAP, round_index=5, slot=4),
    )

    def test_environment_plan_is_deterministic(self, small_ecosystem,
                                               baseline):
        plan = FaultPlan(events=self.ENV_PLAN_EVENTS)
        first, second = (
            ExperimentRunner(
                small_ecosystem, "surf", seed=SEED, fault_plan=plan
            ).run()
            for _ in range(2)
        )
        assert round_keys(first) == round_keys(second)
        assert convergence_keys(first) == convergence_keys(second)
        assert first.outages_applied == second.outages_applied
        # ... and the plan genuinely changed the run.
        assert round_keys(first) != round_keys(baseline)

    def test_loss_burst_blanks_only_the_block(self, small_ecosystem,
                                              baseline):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=3, slot=5,
                       fraction=0.3),
        ))
        result = ExperimentRunner(
            small_ecosystem, "surf", seed=SEED, fault_plan=plan
        ).run()
        lossy = plan.lossy_prefixes(
            3, result.seed_plan.responsive_prefixes()
        )
        assert lossy
        round_result = result.rounds[3]
        clean_round = baseline.rounds[3]
        for prefix in round_result.plan.prefixes:
            responses = round_result.responses_of(prefix)
            if prefix in lossy:
                assert not any(r.responded for r in responses), prefix
            else:
                # Draws are positional: the blanked block shifts no
                # other prefix's responses in the faulted round.
                assert responses == clean_round.responses_of(prefix), prefix
        # Untouched rounds stay byte-identical to the fault-free run.
        for index in (0, 1, 2, 4):
            assert round_keys(result)[index] == round_keys(baseline)[index]

    def test_flap_records_outage_actions(self, small_ecosystem):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.LINK_FLAP, round_index=5, slot=4),
        ))
        result = ExperimentRunner(
            small_ecosystem, "surf", seed=SEED, fault_plan=plan
        ).run()
        actions = [o.action for o in result.outages_applied
                   if o.action.startswith("flap-")]
        assert actions == ["flap-down", "flap-up"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pooled_cell_applies_plan_like_standalone_run(self):
        spec = ExperimentSpec(
            seed=SEED, scale=SCALE, fault_spec="loss=2,flap=1"
        )
        standalone = run_experiment(spec)
        works = [CellWork(spec=spec, keep_result=True, build_record=False)]
        outcomes, failures = dispatch_cells(works, backend="fork")
        assert not failures
        # Only a cell run in a fork worker ships a span tree back.
        assert outcomes[0].trace is not None
        pooled = outcomes[0].result
        assert round_keys(pooled) == round_keys(standalone)
        assert pooled.outages_applied == standalone.outages_applied
        assert any(
            o.action.startswith("flap-") for o in pooled.outages_applied
        )
