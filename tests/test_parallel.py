"""Unit tests for the sharded execution machinery: shard partitioning,
the compact response wire format, snapshots and their catchments, obs
merging, and the inline scheduler backend.  End-to-end serial-vs-sharded
equality lives in ``test_differential.py``; scheduler-core unit tests
live in ``test_scheduler.py``."""

import pytest

from repro import Announcement, Prefix, propagate_fastpath
from repro.errors import ExperimentError
from repro.experiment.parallel import (
    DEFAULT_SHARDS_PER_WORKER,
    ShardedRunner,
    _WorkerState,
)
from repro.experiment.scheduler import InlineBackend, task_context
from repro.experiment.records import ShardOutcome, ShardSpec
from repro.obs import MetricsRegistry, span, use_registry
from repro.obs.spans import (
    SpanRecord,
    attach_completed,
    detached_trace,
    finished_roots,
    reset_trace,
)
from repro.probing import ForwardingOutcome, RibSnapshot, forwarding
from repro.probing.prober import (
    ProbeResponse,
    response_from_row,
    response_row,
)
from repro.rng import SeedTree
from repro.seeds.selection import ProbeMethod, ProbeTarget
from repro.topology.graph import Topology

MEAS = Prefix.parse("163.253.63.0/24")
TARGET_PREFIX = Prefix.parse("198.51.100.0/24")

TARGET = ProbeTarget(
    address=TARGET_PREFIX.address_at(10), prefix=TARGET_PREFIX,
    method=ProbeMethod.ICMP_ECHO,
)


def _kind_of(origin_asn: int) -> str:
    return {1: "re", 2: "commodity"}[origin_asn]


class TestResponseWireFormat:
    def test_no_response_round_trips(self):
        response = ProbeResponse(target=TARGET, tx_time=3.5, responded=False)
        row = response_row(response)
        assert row is None
        assert response_from_row(row, TARGET, 3.5, _kind_of) == response

    def test_forwarding_failure_round_trips(self):
        for outcome in (ForwardingOutcome.NO_ROUTE, ForwardingOutcome.LOOP):
            response = ProbeResponse(
                target=TARGET, tx_time=1.0, responded=False,
                outcome=outcome, hops=4,
            )
            row = response_row(response)
            assert row is not None and len(row) == 2
            assert response_from_row(row, TARGET, 1.0, _kind_of) == response

    def test_delivered_round_trips(self):
        response = ProbeResponse(
            target=TARGET, tx_time=2.25, responded=True,
            interface_kind="commodity", origin_asn=2, rtt_ms=17.125,
            outcome=ForwardingOutcome.DELIVERED, hops=3,
        )
        row = response_row(response)
        assert response_from_row(row, TARGET, 2.25, _kind_of) == response

    def test_rows_are_primitives(self):
        """Rows must stay cheap to pickle: no objects, only primitives."""
        response = ProbeResponse(
            target=TARGET, tx_time=0.0, responded=True,
            interface_kind="re", origin_asn=1, rtt_ms=9.0,
            outcome=ForwardingOutcome.DELIVERED, hops=2,
        )
        assert all(
            isinstance(value, (int, float))
            for value in response_row(response)
        )


class TestRibSnapshot:
    def _topology(self):
        topo = Topology()
        for asn in (1, 2, 3, 5):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(5, 1)
        topo.add_provider(5, 3)
        topo.add_provider(3, 2)
        return topo

    def test_snapshot_walk_matches_live_walk(self):
        topo = self._topology()
        topo.node(3).policy.default_route_via = 2
        result = propagate_fastpath(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
        )
        snapshot = RibSnapshot.capture(topo, result.route_at, MEAS)

        def live_step(asn):
            # The live RIB's forwarding state, classified as _walk wants.
            route = result.route_at(asn)
            if route is None:
                default_via = topo.node(asn).policy.default_route_via
                if default_via is None:
                    return forwarding._NONE, None
                return forwarding._DEFAULT, default_via
            if route.learned_from is None:
                return forwarding._LOCAL, None
            return forwarding._ROUTE, route.learned_from

        for origins in ({1, 2}, {2}, {99}):
            catchment = snapshot.resolve(origins)
            for start in (1, 2, 3, 5):
                live = forwarding._walk(live_step, start, origins)
                snap = snapshot.walk(start, origins)
                assert (live.outcome, live.origin_asn, live.hops,
                        live.used_default) == \
                       (snap.outcome, snap.origin_asn, snap.hops,
                        snap.used_default)
                assert catchment.lookup(start) == \
                    (live.outcome, live.origin_asn, len(live.hops))

    def test_snapshot_is_compact(self):
        """The per-round payload must not drag the topology along."""
        import pickle

        topo = self._topology()
        result = propagate_fastpath(topo, [Announcement(MEAS, 1, tag="re")])
        snapshot = RibSnapshot.capture(topo, result.route_at, MEAS)
        assert len(pickle.dumps(snapshot)) < 4096
        catchment = snapshot.resolve({1})
        assert len(pickle.dumps(catchment)) < 4096


@pytest.fixture(scope="module")
def seed_plan(ecosystem):
    from repro.rng import SeedTree as _SeedTree
    from repro.seeds import select_seeds

    tree = _SeedTree(0).child("experiment-surf").child("seeds")
    return select_seeds(ecosystem, seed_tree=tree)


class TestShardSpecs:
    @pytest.fixture(autouse=True)
    def _plan(self, seed_plan):
        self.seed_plan = seed_plan

    def _runner(self, ecosystem, **kwargs):
        return ShardedRunner(
            ecosystem, "surf", seed=0, seed_plan=self.seed_plan, **kwargs
        )

    def test_rejects_bad_workers(self, ecosystem):
        with pytest.raises(ExperimentError):
            self._runner(ecosystem, workers=0)

    def test_rejects_bad_shard_size(self, ecosystem):
        with pytest.raises(ExperimentError):
            self._runner(ecosystem, workers=2, shard_size=0)

    def test_specs_cover_prefixes_exactly_once(self, ecosystem):
        runner = self._runner(ecosystem, workers=2, shard_size=13)
        specs = runner._shard_specs(0, "0-0", now=50.0)
        flattened = [p for spec in specs for p in spec.prefixes]
        assert flattened == runner.seed_plan.responsive_prefixes()
        assert all(len(s.prefixes) <= 13 for s in specs)
        assert [s.shard_id for s in specs] == list(range(len(specs)))

    def test_start_index_is_cumulative_target_count(self, ecosystem):
        runner = self._runner(ecosystem, workers=2, shard_size=20)
        specs = runner._shard_specs(3, "1-0", now=0.0)
        expected = 0
        for spec in specs:
            assert spec.start_index == expected
            expected += sum(
                len(runner.seed_plan.targets[p]) for p in spec.prefixes
            )
        assert spec.round_index == 3
        assert spec.config == "1-0"

    def test_round_seed_comes_from_seed_tree(self, ecosystem):
        runner = self._runner(ecosystem, workers=2)
        specs = runner._shard_specs(2, "0-0", now=0.0)
        expected = runner._round_seed_tree(2).seed
        assert all(s.round_seed == expected for s in specs)
        # Different rounds draw from different seed-tree nodes.
        other = runner._shard_specs(4, "0-0", now=0.0)
        assert other[0].round_seed != expected

    def test_default_shard_count_scales_with_workers(self, ecosystem):
        runner = self._runner(ecosystem, workers=2)
        specs = runner._shard_specs(0, "0-0", now=0.0)
        assert len(specs) <= 2 * DEFAULT_SHARDS_PER_WORKER
        assert len(specs) >= 2 * DEFAULT_SHARDS_PER_WORKER - 1


class TestInlineBackend:
    def _state(self):
        return _WorkerState(
            targets={}, systems={}, interface_kinds={}, pps=100
        )

    def test_submit_runs_eagerly_and_restores_state(self):
        state = self._state()
        backend = InlineBackend(state)
        seen = []
        future = backend.submit(
            lambda value: seen.append(task_context()) or value, 42
        )
        assert future.result() == 42
        assert seen[0] is state
        assert task_context() is None

    def test_submit_captures_exceptions(self):
        backend = InlineBackend(self._state())

        def boom():
            raise ValueError("shard failed")

        future = backend.submit(boom)
        with pytest.raises(ValueError, match="shard failed"):
            future.result()


class TestMetricsMerge:
    def test_counters_add_and_gauges_overwrite(self):
        worker = MetricsRegistry()
        worker.counter("parallel.shard_probes").inc(7)
        worker.gauge("depth").set(3)
        parent = MetricsRegistry()
        parent.counter("parallel.shard_probes").inc(5)
        parent.gauge("depth").set(9)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("parallel.shard_probes") == 12
        assert parent.gauge_value("depth") == 3

    def test_histograms_merge_buckets_and_extrema(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        for value in (0.01, 0.2):
            first.histogram("h", (0.1, 1.0)).observe(value)
        second.histogram("h", (0.1, 1.0)).observe(5.0)
        first.merge_snapshot(second.snapshot())
        merged = first.histogram("h", (0.1, 1.0)).as_dict()
        assert merged["count"] == 3
        assert merged["min"] == 0.01
        assert merged["max"] == 5.0
        assert merged["buckets"][-1] == ["+Inf", 1]

    def test_merge_is_associative(self):
        snapshots = []
        for count in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("c").inc(count)
            registry.histogram("h", (1.0,)).observe(count)
            snapshots.append(registry.snapshot())
        left = MetricsRegistry()
        for snap in snapshots:
            left.merge_snapshot(snap)
        right = MetricsRegistry()
        for snap in reversed(snapshots):
            right.merge_snapshot(snap)
        assert left.counter_value("c") == right.counter_value("c") == 6
        assert left.histogram("h", (1.0,)).as_dict() == \
               right.histogram("h", (1.0,)).as_dict()

    def test_mismatched_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (0.1,)).observe(0.05)
        donor = MetricsRegistry()
        donor.histogram("h", (0.5,)).observe(0.05)
        with pytest.raises(ValueError):
            registry.histogram("h", (0.1,)).merge_dict(
                donor.snapshot()["histograms"]["h"]
            )

    def test_disabled_registry_ignores_merge(self):
        donor = MetricsRegistry()
        donor.counter("c").inc()
        disabled = MetricsRegistry(enabled=False)
        disabled.merge_snapshot(donor.snapshot())  # must not raise


class TestSpanReattachment:
    def test_detached_trace_isolates_and_restores(self):
        with use_registry(MetricsRegistry()):
            reset_trace()
            with span("outer"):
                with detached_trace():
                    with span("inner"):
                        pass
                    inner_roots = finished_roots()
                assert [r.name for r in inner_roots] == ["inner"]
            assert [r.name for r in finished_roots()] == ["outer"]
            assert finished_roots()[0].children == []
            reset_trace()

    def test_attach_completed_grafts_under_open_span(self):
        with use_registry(MetricsRegistry()) as registry:
            reset_trace()
            worker_tree = {
                "name": "runner.shard.0", "started_at": 0.0,
                "duration": 0.5,
                "children": [{"name": "walks", "started_at": 0.1,
                              "duration": 0.4, "children": []}],
            }
            with span("runner.round"):
                attached = attach_completed(worker_tree)
            assert isinstance(attached, SpanRecord)
            root = finished_roots()[-1]
            assert [c.name for c in root.children] == ["runner.shard.0"]
            assert root.children[0].children[0].name == "walks"
            # Attaching must not re-observe the worker's histograms.
            names = registry.snapshot()["histograms"]
            assert "span.runner.shard.0.seconds" not in names
            reset_trace()

    def test_attach_completed_as_root_when_no_span_open(self):
        reset_trace()
        attach_completed({"name": "orphan", "started_at": 0.0,
                          "duration": 0.1, "children": []})
        assert [r.name for r in finished_roots()] == ["orphan"]
        reset_trace()


class TestShardedRoundMetrics:
    def test_sharded_run_reports_shard_metrics(self, ecosystem):
        with use_registry(MetricsRegistry()) as registry:
            runner = ShardedRunner(ecosystem, "surf", seed=0, workers=1)
            result = runner.run()
        assert result.num_rounds > 0
        snap = registry.snapshot()
        rounds = snap["counters"]["runner.rounds_sharded"]
        assert rounds == result.num_rounds
        assert snap["counters"]["parallel.shards_completed"] > 0
        assert snap["counters"]["parallel.shard_probes"] == sum(
            r.probe_count() for r in result.rounds
        )
        assert snap["gauges"]["runner.shard_workers"] == 1
        assert snap["histograms"]["runner.shard_wall_seconds"]["count"] == \
            snap["counters"]["parallel.shards_completed"]

    def test_scheduler_shut_down_after_run(self, ecosystem):
        runner = ShardedRunner(ecosystem, "surf", seed=0, workers=1)
        runner.run()
        assert runner._scheduler is None


class TestOutcomeRecords:
    def test_shard_outcome_probe_count_matches_rows(self):
        outcome = ShardOutcome(
            shard_id=0, rows=[None, (1, 9.5, 2)], probe_count=2,
            wall_seconds=0.0,
        )
        assert outcome.probe_count == len(outcome.rows)

    def test_shard_spec_is_frozen(self):
        spec = ShardSpec(
            shard_id=0, round_index=0, config="0-0", prefixes=(),
            start_index=0, round_seed=1, started_at=0.0,
        )
        with pytest.raises(AttributeError):
            spec.shard_id = 1


class TestCliValidation:
    def test_workers_must_be_positive(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_shard_size_must_be_positive(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "--shard-size", "0"]) == 2
        assert "shard-size" in capsys.readouterr().err


def test_prefix_streams_are_independent_of_partition():
    """The same (round seed, prefix) pair yields the same stream no
    matter which shard asks."""
    from repro.probing.prober import prefix_stream_rng

    draws = [
        prefix_stream_rng(1234, TARGET_PREFIX).random() for _ in range(3)
    ]
    assert draws[0] == draws[1] == draws[2]
    other = prefix_stream_rng(1234, MEAS).random()
    assert other != draws[0]
