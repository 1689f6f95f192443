"""Convergence-frontier analytics (repro.obs.frontier): the frontier
ring (the shared suite in test_obs_capture.py), the engine/fastpath
window accumulators, per-round signal
diffs, the ExperimentSpec/run_experiment integration, and campaign
cell artifacts.

The cross-mode byte-identity of the stream is asserted in
tests/test_differential.py; these tests pin the event shapes and the
plumbing around them.
"""

import json

import pytest

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.api import ExperimentSpec, run_experiment
from repro.bgp.engine import PropagationEngine
from repro.errors import ExperimentError
from repro.experiment.campaign import CampaignRunner, plan_grid
from repro.netutil import Prefix
from repro.obs.capture import Capture, EventRing, active_capture, use_capture
from repro.obs.frontier import (
    ENGINE_WINDOW,
    FASTPATH_WINDOW,
    FRONTIER_COUNT_BUCKETS,
    SAMPLE_LIMIT,
    flush_round_frontier_metrics,
    round_frontier_event,
    signal_rows,
)
from repro.obs.metrics import MetricsRegistry, use_registry

from .test_obs_capture import RingContract, SlotContract

SCALE = 0.04


def _tracing():
    """Install a capture holding only a frontier ring."""
    return use_capture(Capture(frontier=EventRing()))


# ---------------------------------------------------------------------
# The trace ring


class TestFrontierTrace(RingContract):
    channel = "frontier"


class TestSingleton(SlotContract):
    channel = "frontier"


# ---------------------------------------------------------------------
# Engine and fastpath accumulators


def _small_world(seed=0):
    ecosystem = build_ecosystem(REEcosystemConfig(scale=SCALE), seed=seed)
    prefix = ecosystem.measurement_prefix
    return ecosystem, prefix


class TestEngineFrontier:
    def test_run_events_recorded(self):
        from repro.rng import SeedTree

        ecosystem, prefix = _small_world()
        with _tracing() as capture:
            engine = PropagationEngine(ecosystem.topology, SeedTree(0))
            engine.announce(
                ecosystem.commodity_origin, prefix, tag="commodity"
            )
            engine.run_to_fixpoint()
            engine.announce(ecosystem.internet2_origin, prefix, tag="re")
            engine.run_to_fixpoint()
        trace = capture.frontier
        runs = trace.events(kind="engine_run")
        assert [event["run"] for event in runs] == [0, 1]
        for event in runs:
            assert event["count"] >= event["changed"] >= 0
            assert event["windows"] == len(event["quiescence"]) + \
                event["truncated"]
            assert sum(event["quiescence"]) <= event["changed"]
            assert event["peak_causal_depth"] >= 1
        windows = trace.events(kind="engine_window")
        # Window deliveries re-sum to the run totals.
        for run_event in runs:
            mine = [w for w in windows if w["run"] == run_event["run"]]
            assert sum(w["count"] for w in mine) == run_event["count"]
            assert all(w["count"] <= ENGINE_WINDOW for w in mine)
            for w in mine:
                assert w["frontier"] >= len(w["sample"])
                assert len(w["sample"]) <= SAMPLE_LIMIT
                assert w["sample"] == sorted(w["sample"])

    def test_causal_depth_counts_the_triggering_chain(self):
        """On a provider chain 1 <- 2 <- ... <- n the route climbs one
        AS per delivery, so causality depth grows by one per hop: the
        origin's first message is depth 0, and the deepest delivery is
        the top AS's export back down to n - 1.  A withdraw retraces
        the same chain."""
        from repro.rng import SeedTree
        from repro.topology.graph import Topology

        n = 6
        prefix = Prefix.parse("192.0.2.0/24")
        topology = Topology()
        for asn in range(1, n + 1):
            topology.add_as(asn, "as%d" % asn)
        for asn in range(1, n):
            topology.add_provider(asn, asn + 1)
        with _tracing() as capture:
            engine = PropagationEngine(topology, SeedTree(0))
            engine.announce(1, prefix, tag="x")
            engine.run_to_fixpoint()
            engine.withdraw(1, prefix)
            engine.run_to_fixpoint()
        runs = capture.frontier.events(kind="engine_run")
        assert [event["peak_causal_depth"] for event in runs] == [
            n - 1, n - 1,
        ]

    def test_disabled_records_nothing(self):
        from repro.rng import SeedTree

        ecosystem, prefix = _small_world()
        trace = EventRing()
        engine = PropagationEngine(ecosystem.topology, SeedTree(0))
        engine.announce(ecosystem.commodity_origin, prefix, tag="re")
        engine.run_to_fixpoint()
        assert len(trace) == 0
        assert active_capture() is None


class TestFastpathFrontier:
    def test_run_event_carries_prefix(self):
        ecosystem, prefix = _small_world()
        announcements = [
            Announcement(prefix, ecosystem.internet2_origin, tag="re"),
            Announcement(
                prefix, ecosystem.commodity_origin, tag="commodity"
            ),
        ]
        with _tracing() as capture:
            propagate_fastpath(ecosystem.topology, announcements)
        trace = capture.frontier
        runs = trace.events(kind="fastpath_run")
        assert len(runs) == 1
        assert runs[0]["prefix"] == str(prefix)
        assert runs[0]["count"] > 0
        windows = trace.events(kind="fastpath_window")
        assert all(w["prefix"] == str(prefix) for w in windows)
        assert all(w["count"] <= FASTPATH_WINDOW for w in windows)
        assert sum(w["count"] for w in windows) == runs[0]["count"]

    def test_run_ids_advance_with_stream(self):
        ecosystem, prefix = _small_world()
        announcements = [
            Announcement(prefix, ecosystem.internet2_origin, tag="re"),
        ]
        with _tracing() as capture:
            trace = capture.frontier
            propagate_fastpath(ecosystem.topology, announcements)
            first = trace.events(kind="fastpath_run")[-1]["run"]
            propagate_fastpath(ecosystem.topology, announcements)
            second = trace.events(kind="fastpath_run")[-1]["run"]
        # Ids derive from the trace position — deterministic because
        # the stream itself is — so a later run has a larger id.
        assert second > first


# ---------------------------------------------------------------------
# Per-round signal diffs


class TestRoundFrontier:
    def test_signal_rows(self):
        rows = signal_rows([("10.0.0.0/24", 1), ("10.0.1.0/24", 0)])
        assert rows == [("10.0.0.0/24", "re"), ("10.0.1.0/24", "none")]

    def test_first_round_counts_appearances(self):
        rows = [("a", "re"), ("b", "none"), ("c", "both")]
        event = round_frontier_event(0, "4-0", rows, previous=None)
        assert event["kind"] == "round_frontier"
        assert event["round"] == 0
        assert event["config"] == "4-0"
        assert event["prefixes"] == 3
        assert event["changed"] == 2
        assert event["sample"] == ["a", "c"]
        assert event["signals"] == {"both": 1, "none": 1, "re": 1}

    def test_diff_against_previous_round(self):
        previous = {"a": "re", "b": "re", "c": "none"}
        rows = [("a", "re"), ("b", "both"), ("c", "none"), ("d", "re")]
        event = round_frontier_event(3, "2-2", rows, previous)
        assert event["changed"] == 2  # b flipped, d appeared
        assert event["sample"] == ["b", "d"]

    def test_sample_is_bounded_and_sorted(self):
        rows = [("p%02d" % n, "re") for n in reversed(range(20))]
        event = round_frontier_event(0, "0-0", rows, previous=None)
        assert event["changed"] == 20
        assert len(event["sample"]) == SAMPLE_LIMIT
        assert event["sample"] == sorted(event["sample"])

    def test_metrics_flush(self):
        event = round_frontier_event(
            1, "0-0", [("a", "re"), ("b", "none")], {"a": "none"}
        )
        with use_registry(MetricsRegistry()) as registry:
            flush_round_frontier_metrics(event)
            snapshot = registry.snapshot()
        assert snapshot["counters"]["frontier.rounds_captured"] == 1
        # "a" flipped none->re; "b" is new to the map: both changed.
        assert snapshot["gauges"]["frontier.round_changed"] == 2
        assert snapshot["gauges"]["frontier.round_prefixes"] == 2
        histogram = snapshot["histograms"][
            "frontier.round_changed_prefixes"
        ]
        assert histogram["count"] == 1


# ---------------------------------------------------------------------
# Spec / run_experiment / campaign integration


class TestSpecIntegration:
    def test_frontier_capacity_validated(self):
        with pytest.raises(ExperimentError, match="frontier_capacity"):
            ExperimentSpec(scale=SCALE, frontier_capacity=0)

    def test_wants_flags(self):
        spec = ExperimentSpec(scale=SCALE)
        assert not spec.wants_frontier
        spec = ExperimentSpec(scale=SCALE, frontier_capacity=1024)
        assert spec.wants_frontier

    def test_spec_round_trips_new_fields(self):
        spec = ExperimentSpec(scale=SCALE, frontier_capacity=2048)
        clone = ExperimentSpec.from_dict(spec.as_dict())
        assert clone.frontier_capacity == 2048
        assert clone.digest() == spec.digest()

    def test_run_experiment_attaches_streams(self):
        spec = ExperimentSpec(scale=SCALE, frontier_capacity=4096)
        result = run_experiment(spec)
        assert result.frontier_events
        kinds = {event["kind"] for event in result.frontier_events}
        assert "round_frontier" in kinds
        # The installed ring was run-local.
        assert active_capture() is None

    def test_run_experiment_defaults_attach_nothing(self):
        result = run_experiment(ExperimentSpec(scale=SCALE))
        assert result.frontier_events is None


class TestCampaignFrontier:
    @pytest.fixture(scope="class")
    def campaign_dirs(self, tmp_path_factory):
        specs = plan_grid(
            [0], scenarios=["baseline"], experiments=("surf",),
            scale=SCALE, frontier_capacity=8192,
        )
        inline = str(tmp_path_factory.mktemp("inline"))
        pooled = str(tmp_path_factory.mktemp("pooled"))
        CampaignRunner(specs, inline, pool_workers=1).run()
        CampaignRunner(specs, pooled, pool_workers=2).run()
        return specs, inline, pooled

    def _frontier_text(self, directory, digest):
        path = "%s/cells/%s.frontier.jsonl" % (directory, digest)
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    def test_cell_frontier_artifact_written(self, campaign_dirs):
        specs, inline, _ = campaign_dirs
        text = self._frontier_text(inline, specs[0].digest())
        assert text
        kinds = {json.loads(line)["kind"] for line in text.splitlines()}
        assert "round_frontier" in kinds

    def test_inline_and_pooled_artifacts_identical(self, campaign_dirs):
        specs, inline, pooled = campaign_dirs
        digest = specs[0].digest()
        assert self._frontier_text(pooled, digest) == \
            self._frontier_text(inline, digest)


class TestMetricsBuckets:
    def test_bucket_bounds_are_sorted(self):
        assert list(FRONTIER_COUNT_BUCKETS) == \
            sorted(FRONTIER_COUNT_BUCKETS)
