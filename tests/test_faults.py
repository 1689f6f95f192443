"""Tests for :mod:`repro.faults` and the hardened sharded runner.

Unit coverage for the plan / spec / directive layer, plus end-to-end
recovery on a small ecosystem: injected crashes and hangs must be
survived with results identical to a fault-free run, while environment
faults must change results identically in serial and sharded
execution.  The full serial-vs-sharded grid (including provenance
byte-identity) lives in ``test_differential.py``.
"""

import io

import pytest

from repro import REEcosystemConfig, build_ecosystem
from repro.core.classify import InferenceCategory, PrefixInference, RoundSignal
from repro.core.explain import render_explanation
from repro.errors import ExperimentError
from repro.experiment.parallel import ShardedRunner
from repro.experiment.records import DegradationRecord
from repro.experiment.runner import ExperimentRunner
from repro.faults import (
    DEFAULT_LOSS_FRACTION,
    FaultDirective,
    FaultError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    parse_fault_spec,
)
from repro.netutil import Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.obs.capture import Capture, EventRing, use_capture
from repro.obs.provenance import degradation_event

SEED = 11
SCALE = 0.06


def crash_plan(round_index=2, slot=0):
    return FaultPlan(events=(
        FaultEvent(kind=FaultKind.WORKER_CRASH, round_index=round_index,
                   slot=slot),
    ))


@pytest.fixture(scope="module")
def small_ecosystem():
    return build_ecosystem(REEcosystemConfig(scale=SCALE), seed=SEED)


@pytest.fixture(scope="module")
def baseline(small_ecosystem):
    """Fault-free serial run every recovery test compares against."""
    return ExperimentRunner(small_ecosystem, "surf", seed=SEED).run()


def round_keys(result):
    return [
        (r.config, r.started_at, r.duration, r.responses)
        for r in result.rounds
    ]


def convergence_keys(result):
    return [
        [stats.replay_key() for stats in round_stats]
        for round_stats in result.round_convergence
    ]


class TestParseFaultSpec:
    def test_parses_counts(self):
        assert parse_fault_spec("crash=2,loss=1") == {
            "crash": 2, "hang": 0, "loss": 1, "flap": 0,
        }

    def test_whitespace_and_empty_parts_tolerated(self):
        assert parse_fault_spec(" crash = 1 , , hang=3 ") == {
            "crash": 1, "hang": 3, "loss": 0, "flap": 0,
        }

    def test_repeated_names_accumulate(self):
        assert parse_fault_spec("flap=1,flap=2")["flap"] == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            parse_fault_spec("explode=1")

    def test_bad_count_rejected(self):
        with pytest.raises(FaultError, match="bad count"):
            parse_fault_spec("crash=lots")

    def test_negative_count_rejected(self):
        with pytest.raises(FaultError, match="negative"):
            parse_fault_spec("loss=-1")


class TestFaultPlanConstruction:
    def test_from_seed_is_deterministic(self):
        kwargs = dict(worker_crashes=2, shard_hangs=1, probe_loss_bursts=1,
                      link_flaps=1)
        assert (FaultPlan.from_seed(5, **kwargs)
                == FaultPlan.from_seed(5, **kwargs))

    def test_different_seeds_differ(self):
        assert (FaultPlan.from_seed(5, worker_crashes=3)
                != FaultPlan.from_seed(6, worker_crashes=3))

    def test_rounds_stay_in_range(self):
        plan = FaultPlan.from_seed(
            0, rounds=4, worker_crashes=5, link_flaps=5
        )
        assert all(0 <= e.round_index < 4 for e in plan.events)

    def test_from_spec_matches_from_seed(self):
        assert FaultPlan.from_spec("crash=1,flap=2", 9) == \
            FaultPlan.from_seed(9, worker_crashes=1, link_flaps=2)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.from_seed(0, worker_crashes=1)

    def test_counts(self):
        plan = FaultPlan.from_seed(0, worker_crashes=2, probe_loss_bursts=1)
        assert plan.counts() == {"worker_crash": 2, "probe_loss": 1}

    def test_bad_rounds_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_seed(0, rounds=0)


class TestSlotMapping:
    def test_slot_wraps_onto_shard_count(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.SHARD_HANG, round_index=1, slot=7),
        ))
        # The same plan targets shard 7 % count at any scale.
        assert plan.execution_fault(1, 1, 3) is plan.events[0]
        assert plan.execution_fault(1, 2, 5) is plan.events[0]
        assert plan.execution_fault(1, 0, 5) is None

    def test_wrong_round_does_not_match(self):
        plan = crash_plan(round_index=2, slot=0)
        assert plan.execution_fault(3, 0, 4) is None

    def test_environment_kinds_never_match(self):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=1, slot=0),
        ))
        assert plan.execution_fault(1, 0, 1) is None

    def test_zero_shards_returns_none(self):
        assert crash_plan().execution_fault(2, 0, 0) is None


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
        assert crash_plan().lossy_prefixes(0, ()) == frozenset()

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
            FaultEvent(kind=FaultKind.WORKER_CRASH, round_index=4, slot=0),
        ))
        assert plan.flaps_after(4) == (flap,)
        assert plan.flaps_after(3) == ()


class TestFaultDirective:
    def test_stripping_keeps_environment_faults(self):
        directive = FaultDirective(
            crash=True, hang_seconds=1.5, lossy_prefixes=frozenset({"p"})
        )
        clean = directive.without_execution_faults()
        assert not clean.has_execution_fault
        assert clean.lossy_prefixes == {"p"}
        assert clean  # still truthy: the environment fault remains

    def test_empty_directive_is_falsy(self):
        assert not FaultDirective()
        assert FaultDirective(crash=True)
        assert FaultDirective(hang_seconds=0.1).has_execution_fault


class TestShardedRunnerValidation:
    def test_rejects_bad_shard_timeout(self, small_ecosystem):
        with pytest.raises(ExperimentError):
            ShardedRunner(small_ecosystem, "surf", seed=SEED,
                          shard_timeout=0.0)

    def test_rejects_negative_retries(self, small_ecosystem):
        with pytest.raises(ExperimentError):
            ShardedRunner(small_ecosystem, "surf", seed=SEED,
                          max_retries=-1)

    def test_rejects_negative_backoff(self, small_ecosystem):
        with pytest.raises(ExperimentError):
            ShardedRunner(small_ecosystem, "surf", seed=SEED,
                          backoff_base=-0.1)


class TestExecutionFaultRecovery:
    """Execution faults attack the machinery; results must not move."""

    def test_inline_crash_recovered_by_retry(self, small_ecosystem,
                                             baseline):
        runner = ShardedRunner(
            small_ecosystem, "surf", seed=SEED, workers=1,
            fault_plan=crash_plan(), backoff_base=0.0,
        )
        result = runner.run()
        assert round_keys(result) == round_keys(baseline)
        assert convergence_keys(result) == convergence_keys(baseline)
        assert len(result.degradations) == 1
        record = result.degradations[0]
        assert record.action == "retry"
        assert record.attempts == 2
        assert record.recovered
        assert record.round_index == 2
        assert "injected-crash" in record.detail

    def test_inline_fallback_when_retries_exhausted(self, small_ecosystem,
                                                    baseline):
        runner = ShardedRunner(
            small_ecosystem, "surf", seed=SEED, workers=1,
            fault_plan=crash_plan(), max_retries=0, backoff_base=0.0,
        )
        result = runner.run()
        assert round_keys(result) == round_keys(baseline)
        assert [r.action for r in result.degradations] == ["fallback"]

    def test_process_crash_rebuilds_pool(self, small_ecosystem, baseline):
        with use_registry(MetricsRegistry()) as registry:
            runner = ShardedRunner(
                small_ecosystem, "surf", seed=SEED, workers=2,
                fault_plan=crash_plan(), backoff_base=0.0,
            )
            result = runner.run()
        assert round_keys(result) == round_keys(baseline)
        assert convergence_keys(result) == convergence_keys(baseline)
        assert result.degradations
        assert all(r.recovered for r in result.degradations)
        snap = registry.snapshot()["counters"]
        assert snap.get("runner.faults_injected", 0) >= 1
        assert snap.get("runner.shard_retries", 0) >= 1

    def test_hang_recovered_via_timeout(self, small_ecosystem, baseline):
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.SHARD_HANG, round_index=1, slot=0,
                       hang_seconds=5.0),
        ))
        runner = ShardedRunner(
            small_ecosystem, "surf", seed=SEED, workers=2,
            fault_plan=plan, shard_timeout=0.5, backoff_base=0.0,
        )
        result = runner.run()
        assert round_keys(result) == round_keys(baseline)
        assert any("timeout" in r.detail for r in result.degradations)

    def test_degradations_excluded_from_identity_surfaces(
        self, small_ecosystem, baseline
    ):
        """A recovered run's exported provenance stream is byte-equal
        to the fault-free stream: degradation events stay in the ring
        (for ``repro explain``) but out of the default export."""
        recorder = EventRing()
        with use_capture(Capture(provenance=recorder)):
            ShardedRunner(
                small_ecosystem, "surf", seed=SEED, workers=1,
                fault_plan=crash_plan(), backoff_base=0.0,
            ).run()
        ring = recorder.events(kind="degradation")
        assert ring and ring[0]["action"] == "retry"
        default = io.StringIO()
        recorder.export_jsonl(default)
        assert '"degradation"' not in default.getvalue()
        included = io.StringIO()
        recorder.export_jsonl(included, include_degradations=True)
        assert '"degradation"' in included.getvalue()
        assert len(included.getvalue().splitlines()) == \
            len(default.getvalue().splitlines()) + len(ring)


class TestEnvironmentFaultDeterminism:
    """Environment faults attack the simulated world; results change,
    but identically in serial and sharded execution."""

    ENV_PLAN_EVENTS = (
        FaultEvent(kind=FaultKind.PROBE_LOSS, round_index=3, slot=5,
                   fraction=0.3),
        FaultEvent(kind=FaultKind.LINK_FLAP, round_index=5, slot=4),
    )

    def test_serial_equals_sharded_under_plan(self, small_ecosystem,
                                              baseline):
        plan = FaultPlan(events=self.ENV_PLAN_EVENTS)
        serial = ExperimentRunner(
            small_ecosystem, "surf", seed=SEED, fault_plan=plan
        ).run()
        sharded = ShardedRunner(
            small_ecosystem, "surf", seed=SEED, workers=2, fault_plan=plan
        ).run()
        assert round_keys(serial) == round_keys(sharded)
        assert convergence_keys(serial) == convergence_keys(sharded)
        assert serial.outages_applied == sharded.outages_applied
        # ... and the plan genuinely changed the run.
        assert round_keys(serial) != round_keys(baseline)

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
        for prefix, responses in result.rounds[3].responses.items():
            if prefix in lossy:
                assert not any(r.responded for r in responses), prefix
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


class TestDegradationSurfaces:
    def test_degradation_event_shape(self):
        event = degradation_event(
            round_index=4, config="0-1", shard_id=3, action="retry",
            attempts=2, recovered=True, detail="worker-crash",
        )
        assert event == {
            "kind": "degradation", "round": 4, "config": "0-1",
            "shard": 3, "action": "retry", "attempts": 2,
            "recovered": True, "detail": "worker-crash",
        }

    def test_degradation_record_as_dict(self):
        record = DegradationRecord(
            round_index=1, config="4-0", shard_id=0, action="fallback",
            attempts=4, recovered=True, detail="timeout; timeout",
        )
        assert record.as_dict()["action"] == "fallback"
        assert record.as_dict()["shard"] == 0

    def test_explain_narrates_recoveries(self):
        inference = PrefixInference(
            prefix=Prefix.parse("198.51.100.0/24"), origin_asn=42,
            category=InferenceCategory.ALWAYS_RE,
            signals=[RoundSignal.RE],
        )
        record = DegradationRecord(
            round_index=2, config="2-0", shard_id=3, action="retry",
            attempts=2, recovered=True, detail="worker-crash",
        )
        text = render_explanation(inference, "surf", [], [],
                                  degradations=[record])
        assert "Execution notes:" in text
        assert "shard 3 survived worker-crash" in text
        assert "results unaffected" in text
        # A fault-free run passes no degradations: narrative unchanged.
        clean = render_explanation(inference, "surf", [], [])
        assert "Execution notes" not in clean
        assert text.startswith(clean)
