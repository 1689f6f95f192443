"""Tests for repro.obs: metrics registry, spans, structured logging,
and the engine/runner/CLI instrumentation built on them."""

import io
import json
import os

import pytest

from repro import (
    PropagationEngine,
    REEcosystemConfig,
    SeedTree,
    build_ecosystem,
)
from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    configure_logging,
    finished_roots,
    get_logger,
    get_registry,
    reset_logging,
    reset_trace,
    span,
    use_registry,
)
from repro.obs.export import load_chrome_trace, span_table
from repro.obs.metrics import Counter
from repro.obs.spans import (
    SpanRecord,
    attach_completed,
    detached_trace,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Logging silent and trace buffer empty around every test."""
    reset_logging()
    reset_trace()
    yield
    reset_logging()
    reset_trace()


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(5)
        assert registry.snapshot() == {"counters": {}}

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("x.count").inc(3)
        assert json.loads(registry.to_json()) == registry.snapshot() == {
            "counters": {"x.count": 3},
        }

    def test_use_registry_isolates_and_restores(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry is not before
            registry.counter("only.here").inc()
        assert get_registry() is before

    def test_reset_clears_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestSpans:
    def test_records_duration_in_trace_only(self):
        with use_registry() as registry:
            with span("unit.work"):
                pass
            assert registry.snapshot() == {"counters": {}}
        (root,) = finished_roots()
        assert root.name == "unit.work"
        assert root.duration >= 0.0

    def test_nesting_builds_trace_tree(self):
        with use_registry():
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        roots = finished_roots()
        assert [r.name for r in roots][-1] == "outer"
        outer = roots[-1]
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.duration >= sum(c.duration for c in outer.children)
        tree = outer.as_dict()
        assert tree["name"] == "outer"
        assert len(tree["children"]) == 2

    def test_decorator_form(self):
        @span("unit.decorated")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert [r.name for r in finished_roots()] == ["unit.decorated"]

    def test_exception_still_records(self):
        with pytest.raises(RuntimeError):
            with span("unit.fails"):
                raise RuntimeError("boom")
        (root,) = finished_roots()
        assert root.name == "unit.fails"
        assert root.duration is not None

    def test_reset_trace_drops_roots(self):
        with use_registry():
            with span("gone"):
                pass
        reset_trace()
        assert finished_roots() == []


class TestLogging:
    def test_silent_by_default(self, capsys):
        get_logger("repro.test").info("should not appear", x=1)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_kv_lines(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        get_logger("repro.test").info("hello world", count=3)
        line = stream.getvalue().strip()
        assert 'msg="hello world"' in line
        assert "logger=repro.test" in line
        assert "count=3" in line
        assert "level=info" in line

    def test_json_lines(self):
        stream = io.StringIO()
        configure_logging(level="debug", json_lines=True, stream=stream)
        get_logger("repro.test").debug("hi", a=1, b="two")
        record = json.loads(stream.getvalue())
        assert record["msg"] == "hi"
        assert record["a"] == 1
        assert record["b"] == "two"
        assert record["level"] == "debug"

    def test_json_lines_have_sorted_keys(self):
        """JSON log lines are deterministic: keys serialise sorted, so
        the same event always yields the same bytes (regression — the
        emitter used ``sort_keys=False``)."""
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("repro.test").info("hi", zebra=1, alpha=2, mid=3)
        line = stream.getvalue().strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        assert line.index('"alpha"') < line.index('"zebra"')

    def test_level_threshold_filters(self):
        stream = io.StringIO()
        configure_logging(level="warning", stream=stream)
        logger = get_logger("repro.test")
        logger.info("dropped")
        logger.warning("kept")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "kept" in lines[0]
        assert logger.is_enabled_for("error")
        assert not logger.is_enabled_for("debug")

    def test_bind_adds_context_fields(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        get_logger("repro.test").bind(experiment="surf").info("go")
        assert "experiment=surf" in stream.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="verbose")


class TestLoggingEdgeCases:
    def test_json_mode_stringifies_unserialisable_values(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)

        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        get_logger("repro.test").info(
            "payload", obj=Opaque(), exc=ValueError("nope"),
        )
        record = json.loads(stream.getvalue())
        assert record["msg"] == "payload"
        assert record["obj"] == "<opaque thing>"
        assert record["exc"] == "nope"

    def test_kv_mode_quotes_awkward_values(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        get_logger("repro.test").info(
            "q", spaced="a b", eq="k=v", quoted='say "hi"',
        )
        line = stream.getvalue().strip()
        assert 'spaced="a b"' in line
        assert 'eq="k=v"' in line
        assert '\\"hi\\"' in line

    def test_off_level_silences_after_enabling(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        logger = get_logger("repro.test")
        logger.info("first")
        configure_logging(level="off", stream=stream)
        logger.error("second")
        assert "first" in stream.getvalue()
        assert "second" not in stream.getvalue()
        assert not logger.is_enabled_for("error")

    def test_concurrent_emit_keeps_lines_intact(self):
        import threading

        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        logger = get_logger("repro.test")

        def worker(tag):
            for index in range(100):
                logger.info("tick", tag=tag, n=index)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 400
        seen = set()
        for line in lines:
            record = json.loads(line)   # every line parses whole
            seen.add((record["tag"], record["n"]))
        assert len(seen) == 400


class TestEngineInstrumentation:
    @pytest.fixture(scope="class")
    def small_ecosystem(self):
        return build_ecosystem(REEcosystemConfig(scale=0.04), seed=7)

    def test_messages_sent_matches_session_counts(self, small_ecosystem):
        eco = small_ecosystem
        with use_registry() as registry:
            engine = PropagationEngine(eco.topology, SeedTree(7))
            engine.announce(eco.commodity_origin, eco.measurement_prefix,
                            tag="commodity")
            first = engine.run_to_fixpoint()
            engine.announce(eco.re_origin_for("surf"),
                            eco.measurement_prefix, tag="re",
                            default_prepends=2)
            second = engine.run_to_fixpoint()
            snapshot = registry.snapshot()
        # Each run ends with nothing in flight, so every message sent
        # (by announce() or during a run) was delivered or dropped.
        assert snapshot["counters"]["engine.messages_sent"] == sum(
            stats.messages_delivered + stats.messages_dropped
            for stats in (first, second)
        )
        assert snapshot["counters"]["engine.messages_sent"] > sum(
            stats.messages_sent for stats in (first, second)
        )
        assert snapshot["counters"]["engine.runs"] == 2
        assert snapshot["counters"]["engine.messages_delivered"] > 0

    def test_last_stats_retained(self, small_ecosystem):
        eco = small_ecosystem
        with use_registry():
            engine = PropagationEngine(eco.topology, SeedTree(7))
            assert engine.last_stats is None
            engine.announce(eco.commodity_origin, eco.measurement_prefix,
                            tag="commodity")
            stats = engine.run_to_fixpoint()
        assert engine.last_stats is stats
        assert stats.peak_heap_depth > 0
        assert stats.messages_sent > 0
        assert stats.wall_seconds > 0
        assert 0.0 < stats.limit_proximity < 1.0

    def test_convergence_duration_in_stats(self, small_ecosystem):
        eco = small_ecosystem
        with use_registry() as registry:
            engine = PropagationEngine(eco.topology, SeedTree(7))
            engine.announce(eco.commodity_origin, eco.measurement_prefix,
                            tag="commodity")
            stats = engine.run_to_fixpoint()
            assert registry.counter_value("engine.runs") == 1
        # The simulated time to fixpoint lives on the run's stats (and
        # so in ExperimentResult.convergence), not in the registry.
        assert stats.duration == stats.converged_at - stats.started_at > 0


class TestRunnerInstrumentation:
    def test_per_round_convergence_exposed(self, internet2_result):
        result = internet2_result
        assert len(result.round_convergence) == result.num_rounds
        # Round 0 converges the initial R&E announcement.
        assert result.round_messages_delivered(0) > 0
        for per_round in result.round_convergence:
            for stats in per_round:
                assert stats in result.convergence

    def test_outage_stats_retained(self, internet2_result):
        result = internet2_result
        if not result.outages_applied:
            pytest.skip("no outages scheduled in this ecosystem")
        # Outage-triggered runs are folded into their round's stats:
        # those rounds have more entries than announce alone produces.
        outage_rounds = {o.round_index for o in result.outages_applied}
        for index in outage_rounds:
            assert len(result.round_convergence[index]) >= 2


class TestMetricsSnapshotIntegration:
    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("obs")
        metrics = directory / "metrics.json"
        trace = directory / "trace.json"
        with use_registry():
            code = main([
                "reproduce", "--scale", "0.04", "--seed", "5",
                "--metrics-out", str(metrics), "--trace-out", str(trace),
            ])
            assert code == 0
        return metrics, trace

    @pytest.fixture(scope="class")
    def snapshot(self, outputs):
        with open(outputs[0], "r", encoding="utf-8") as stream:
            return json.load(stream)

    def test_snapshot_holds_only_counters(self, snapshot):
        assert list(snapshot) == ["counters"]

    def test_engine_prober_runner_metrics_present(self, snapshot):
        counters = snapshot["counters"]
        assert counters["engine.messages_delivered"] > 0
        assert counters["engine.messages_sent"] > 0
        assert counters["prober.probes_sent"] > 0
        assert counters["prober.responses"] > 0
        assert counters["collector.events_consumed"] > 0
        # Two experiments x nine prepend configurations.
        assert counters["runner.rounds_completed"] == 18

    def test_span_trace_covers_all_nine_rounds(self, outputs):
        table = span_table(load_chrome_trace(str(outputs[1])))
        configs = ("4-0", "3-0", "2-0", "1-0", "0-0",
                   "0-1", "0-2", "0-3", "0-4")
        for config in configs:
            name = "runner.round.%s" % config
            assert name in table, name
            assert table[name]["calls"] == 2  # surf + internet2
        assert "engine.run_to_fixpoint" in table


class TestCliFlagDefaults:
    def test_default_output_has_no_metrics_or_logs(self, capsys, tmp_path):
        # No flags: nothing on stderr, no snapshot line on stdout.
        assert main([
            "reproduce", "--scale", "0.04", "--seed", "5",
            "--export", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "metrics snapshot" not in captured.out
        assert "log" not in captured.err
        assert {
            "surf_probes.jsonl", "internet2_probes.jsonl",
        } <= set(os.listdir(tmp_path))


class TestMetricsMerge:
    def test_counters_add(self):
        worker = MetricsRegistry()
        worker.counter("parallel.shard_probes").inc(7)
        worker.counter("worker.only").inc(2)
        parent = MetricsRegistry()
        parent.counter("parallel.shard_probes").inc(5)
        parent.merge_snapshot(worker.snapshot())
        assert parent.snapshot() == {"counters": {
            "parallel.shard_probes": 12, "worker.only": 2,
        }}

    def test_merge_is_associative(self):
        snapshots = []
        for count in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("c").inc(count)
            snapshots.append(registry.snapshot())
        left = MetricsRegistry()
        for snap in snapshots:
            left.merge_snapshot(snap)
        right = MetricsRegistry()
        for snap in reversed(snapshots):
            right.merge_snapshot(snap)
        assert left.snapshot() == right.snapshot() == {"counters": {"c": 6}}

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
        with use_registry(MetricsRegistry()):
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
            reset_trace()

    def test_attach_completed_as_root_when_no_span_open(self):
        reset_trace()
        attach_completed({"name": "orphan", "started_at": 0.0,
                          "duration": 0.1, "children": []})
        assert [r.name for r in finished_roots()] == ["orphan"]
        reset_trace()
