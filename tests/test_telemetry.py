"""Live telemetry (PR 6): the registry sampler, OpenMetrics export,
campaign heartbeats, ``repro status``, and the benchmark trajectory.

The load-bearing guarantees:

- telemetry is strictly observational — a pooled sweep with
  ``--telemetry-out`` produces cell records and a
  ``campaign_summary.json`` byte-identical to a serial sweep without
  telemetry;
- the sampler never runs in fork children (campaign-cell workers), so
  the JSONL stream is single-writer;
- heartbeat files are digest-keyed and per-cell, so any
  ``--campaign-workers`` count merges cleanly;
- ``repro bench-diff`` exits non-zero on an injected >= 20%% wall-time
  regression.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.experiment.campaign import (
    CampaignRunner,
    identity_view,
    plan_grid,
)
from repro.experiment.status import (
    CampaignStatus,
    CellHeartbeat,
    HEARTBEAT_SCHEMA_VERSION,
    STATUS_DIRNAME,
    load_grid_manifest,
    write_grid_manifest,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.benchtrack import (
    append_history,
    diff_latest,
    load_history,
    render_diff,
    render_diff_json,
)
from repro.obs.export import (
    lint_openmetrics,
    metric_name,
    to_openmetrics,
    write_openmetrics,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetrySampler,
    build_sample,
    validate_sample,
)

SCALE = 0.05
SEEDS = (0, 3)


def _registry_with_data() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("engine.messages_sent").inc(7)
    registry.gauge("runner.rounds_total").set(9)
    hist = registry.histogram("round.duration", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 100.0):
        hist.observe(value)
    return registry


# ---------------------------------------------------------------------
# Samples


class TestSample:
    def test_build_sample_shape(self):
        sample = build_sample(_registry_with_data(), seq=3, elapsed=1.25)
        validate_sample(sample)
        assert sample["schema"] == TELEMETRY_SCHEMA_VERSION
        assert sample["seq"] == 3
        assert sample["elapsed"] == 1.25
        assert sample["pid"] == os.getpid()
        assert sample["counters"]["engine.messages_sent"] == 7
        assert sample["gauges"]["runner.rounds_total"] == 9
        # Histograms ride compacted — no bucket vectors in a tick.
        assert sample["histograms"]["round.duration"] == {
            "count": 3, "sum": pytest.approx(105.5),
        }

    def test_validate_rejects_bad_shapes(self):
        good = build_sample(MetricsRegistry(), seq=0, elapsed=0.0)
        with pytest.raises(ValueError):
            validate_sample([])
        for key in ("seq", "counters"):
            broken = dict(good)
            del broken[key]
            with pytest.raises(ValueError):
                validate_sample(broken)
        broken = dict(good)
        broken["schema"] = 999
        with pytest.raises(ValueError):
            validate_sample(broken)
        broken = dict(good)
        broken["gauges"] = 3
        with pytest.raises(ValueError):
            validate_sample(broken)


# ---------------------------------------------------------------------
# The sampler


class TestTelemetrySampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval=0)
        with pytest.raises(ValueError):
            TelemetrySampler(capacity=0)

    def test_ring_is_bounded_and_seq_monotonic(self):
        sampler = TelemetrySampler(
            registry=_registry_with_data(), interval=60, capacity=3
        )
        for _ in range(5):
            sampler.sample_now()
        samples = sampler.samples()
        assert len(samples) == 3
        assert [s["seq"] for s in samples] == [2, 3, 4]
        assert sampler.latest()["seq"] == 4

    def test_background_thread_samples_and_stop_reports_lines(
        self, tmp_path
    ):
        out = tmp_path / "telemetry.jsonl"
        sampler = TelemetrySampler(
            registry=MetricsRegistry(), interval=0.02, out_path=str(out)
        )
        assert not sampler.running
        sampler.start()
        assert sampler.running
        deadline = time.time() + 10
        while len(sampler.samples()) < 2 and time.time() < deadline:
            time.sleep(0.01)
        written = sampler.stop()
        assert not sampler.running
        assert written >= 3  # >= 2 ticks plus the terminal sample.
        lines = out.read_text().splitlines()
        assert len(lines) == written
        for line in lines:
            validate_sample(json.loads(line))

    def test_jsonl_is_append_only_across_sampler_lifetimes(self, tmp_path):
        """A resumed run (new sampler, same path) extends the series."""
        out = tmp_path / "telemetry.jsonl"
        registry = MetricsRegistry()
        first = TelemetrySampler(
            registry=registry, interval=60, out_path=str(out)
        )
        first.sample_now()
        assert first.stop(final_sample=False) == 1
        second = TelemetrySampler(
            registry=registry, interval=60, out_path=str(out)
        )
        second.sample_now()
        second.sample_now()
        assert second.stop(final_sample=False) == 2
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            validate_sample(json.loads(line))

    def test_counter_rate(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry=registry, interval=60)
        assert sampler.counter_rate("engine.messages_sent") is None
        sampler.sample_now()
        registry.counter("engine.messages_sent").inc(10)
        time.sleep(0.01)
        sampler.sample_now()
        rate = sampler.counter_rate("engine.messages_sent")
        assert rate is not None and rate > 0
        assert sampler.counter_rate("no.such.counter") == 0

    def test_context_manager_runs_and_stops(self):
        with TelemetrySampler(
            registry=MetricsRegistry(), interval=60
        ) as sampler:
            assert sampler.running
        assert not sampler.running
        # The __exit__ stop took the terminal sample.
        assert len(sampler.samples()) >= 1

    def test_fork_child_cannot_sample(self, tmp_path):
        """The sampler is parent-only: a fork child (what
        campaign-cell workers are) can neither sample nor write."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        out = tmp_path / "telemetry.jsonl"
        sampler = TelemetrySampler(
            registry=MetricsRegistry(), interval=60, out_path=str(out)
        )
        sampler.start()
        sampler.sample_now()
        queue = context.SimpleQueue()

        def child():
            queue.put({
                "running": sampler.running,
                "sample": sampler.sample_now(),
                "running_after_start": sampler.start().running,
                "stop_lines": sampler.stop(),
            })

        process = context.Process(target=child)
        process.start()
        process.join(30)
        report = queue.get()
        written = sampler.stop()
        assert report == {
            "running": False,
            "sample": None,
            "running_after_start": False,
            "stop_lines": 0,
        }
        # Every line in the file came from the parent process.
        lines = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert len(lines) == written
        assert {line["pid"] for line in lines} == {os.getpid()}


# ---------------------------------------------------------------------
# OpenMetrics


class TestOpenMetrics:
    def test_metric_name_sanitised_and_prefixed(self):
        assert metric_name("engine.messages_sent") == (
            "repro_engine_messages_sent"
        )
        assert metric_name("round-7 duration!") == "repro_round_7_duration"
        assert metric_name("9lives") == "repro__9lives"

    def test_counters_and_gauges(self):
        text = to_openmetrics(_registry_with_data().snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_engine_messages_sent counter" in lines
        assert "repro_engine_messages_sent_total 7" in lines
        assert "# TYPE repro_runner_rounds_total gauge" in lines
        assert "repro_runner_rounds_total 9" in lines
        assert lines[-1] == "# EOF"
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        lines = to_openmetrics(
            _registry_with_data().snapshot()
        ).splitlines()
        assert 'repro_round_duration_bucket{le="1"} 1' in lines
        assert 'repro_round_duration_bucket{le="10"} 2' in lines
        assert 'repro_round_duration_bucket{le="+Inf"} 3' in lines
        assert "repro_round_duration_sum 105.5" in lines
        assert "repro_round_duration_count 3" in lines

    def test_compact_telemetry_histograms_render_without_buckets(self):
        sample = build_sample(_registry_with_data(), seq=0, elapsed=0.0)
        lines = to_openmetrics(sample).splitlines()
        assert "repro_round_duration_sum 105.5" in lines
        assert "repro_round_duration_count 3" in lines
        assert not any("_bucket" in line for line in lines)

    def test_write_openmetrics_counts_families(self, tmp_path):
        path = tmp_path / "metrics.txt"
        registry = _registry_with_data()
        with use_registry(registry):
            families = write_openmetrics(str(path))
        assert families == 3
        assert path.read_text().endswith("# EOF\n")


# ---------------------------------------------------------------------
# Heartbeats


class TestCellHeartbeat:
    def _read(self, heartbeat) -> dict:
        with open(heartbeat.path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_lifecycle(self, tmp_path):
        heartbeat = CellHeartbeat(str(tmp_path), "abc123", "surf/seed0")
        heartbeat.begin(rounds_total=9)
        state = self._read(heartbeat)
        assert state["schema"] == HEARTBEAT_SCHEMA_VERSION
        assert state["phase"] == "running"
        assert state["rounds_total"] == 9
        assert state["pid"] == os.getpid()
        assert state["started_at"] is not None
        assert state["updated_at"] >= state["started_at"]

        heartbeat.progress(
            phase="probing", rounds_completed=4, config="3-1-1",
            digest="EVIL", nonsense="ignored",
        )
        state = self._read(heartbeat)
        assert state["phase"] == "probing"
        assert state["rounds_completed"] == 4
        assert state["config"] == "3-1-1"
        assert state["digest"] == "abc123"  # identity keys are immutable
        assert "nonsense" not in state

        heartbeat.done(wall_seconds=1.5)
        state = self._read(heartbeat)
        assert state["phase"] == "done"
        assert state["rounds_completed"] == 9
        assert state["wall_seconds"] == 1.5
        # Atomic writes leave no temp files behind.
        assert os.listdir(str(tmp_path)) == ["abc123.json"]

    def test_failed_records_error(self, tmp_path):
        heartbeat = CellHeartbeat(str(tmp_path), "abc", "cell")
        heartbeat.begin()
        heartbeat.failed("worker exploded")
        state = self._read(heartbeat)
        assert state["phase"] == "failed"
        assert state["error"] == "worker exploded"

    def test_mirrors_registry_counters(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runner.faults_injected").inc(5)
        with use_registry(registry):
            heartbeat = CellHeartbeat(str(tmp_path), "abc", "cell")
            heartbeat.begin()
        state = self._read(heartbeat)
        assert state["faults_injected"] == 5

    def test_write_failure_is_swallowed(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the status dir should be")
        heartbeat = CellHeartbeat(str(blocker), "abc", "cell")
        heartbeat.begin()  # must not raise: telemetry is best-effort


class TestGridManifest:
    def test_round_trip(self, tmp_path):
        specs = plan_grid(
            SEEDS, scenarios=["baseline"], experiments=["surf"],
            scale=SCALE,
        )
        path = write_grid_manifest(str(tmp_path), specs)
        assert os.path.basename(path) == "grid.json"
        manifest = load_grid_manifest(str(tmp_path))
        assert manifest["total"] == len(specs)
        assert [cell["digest"] for cell in manifest["cells"]] == [
            spec.digest() for spec in specs
        ]
        assert manifest["cells"][0]["label"] == specs[0].label()

    def test_load_tolerates_missing_or_bad_files(self, tmp_path):
        assert load_grid_manifest(str(tmp_path)) is None
        (tmp_path / "grid.json").write_text("{not json")
        assert load_grid_manifest(str(tmp_path)) is None
        (tmp_path / "grid.json").write_text(
            json.dumps({"schema": 999, "cells": []})
        )
        assert load_grid_manifest(str(tmp_path)) is None


# ---------------------------------------------------------------------
# The status read model (pure — fake clocks, hand-built directories)


class TestCampaignStatus:
    def _plan_one(self, tmp_path):
        specs = plan_grid(
            [SEEDS[0]], scenarios=["baseline"], experiments=["surf"],
            scale=SCALE,
        )
        write_grid_manifest(str(tmp_path), specs)
        return specs[0]

    def test_manifest_only_means_pending(self, tmp_path):
        spec = self._plan_one(tmp_path)
        status = CampaignStatus.load(str(tmp_path))
        assert status.total == 1
        assert not status.complete
        cell = status.cells[0]
        assert (cell.digest, cell.state) == (spec.digest(), "pending")

    def test_running_becomes_stale_after_silence(self, tmp_path):
        spec = self._plan_one(tmp_path)
        status_dir = str(tmp_path / STATUS_DIRNAME)
        CellHeartbeat(status_dir, spec.digest(), spec.label()).begin(
            rounds_total=9
        )
        fresh = CampaignStatus.load(
            str(tmp_path), now=time.time() + 1, stale_after=120
        )
        assert fresh.cells[0].state == "running"
        assert fresh.stale_cells == []
        silent = CampaignStatus.load(
            str(tmp_path), now=time.time() + 1000, stale_after=120
        )
        cell = silent.cells[0]
        assert cell.state == "stale"
        assert cell.age_seconds > 120
        rendered = silent.render()
        assert "candidate dead" in rendered
        assert "stale heartbeat" in rendered
        assert "worker may be dead" in rendered

    def test_failed_heartbeat_reported(self, tmp_path):
        spec = self._plan_one(tmp_path)
        heartbeat = CellHeartbeat(
            str(tmp_path / STATUS_DIRNAME), spec.digest(), spec.label()
        )
        heartbeat.begin()
        heartbeat.failed("boom")
        status = CampaignStatus.load(str(tmp_path))
        assert status.count("failed") == 1
        assert "boom" in status.render()

    def test_checkpoint_wins_over_stale_heartbeat(self, tmp_path):
        spec = self._plan_one(tmp_path)
        CellHeartbeat(
            str(tmp_path / STATUS_DIRNAME), spec.digest(), spec.label()
        ).begin(rounds_total=9)
        cells_dir = tmp_path / "cells"
        cells_dir.mkdir()
        (cells_dir / ("%s.json" % spec.digest())).write_text(
            json.dumps({"digest": spec.digest(), "wall_seconds": 2.0})
        )
        status = CampaignStatus.load(
            str(tmp_path), now=time.time() + 9999
        )
        cell = status.cells[0]
        assert cell.state == "done"
        assert cell.rounds_completed == 9  # total, not the last beat
        assert cell.wall_seconds == 2.0
        assert status.complete

    def test_no_manifest_falls_back_to_observed_cells(self, tmp_path):
        CellHeartbeat(
            str(tmp_path / STATUS_DIRNAME), "feedface", "orphan/cell"
        ).begin()
        status = CampaignStatus.load(str(tmp_path))
        assert not status.has_manifest
        assert status.total == 1
        assert status.cells[0].label == "orphan/cell"

    def test_throughput_skips_resumed_cells(self, tmp_path):
        status = CampaignStatus(directory=str(tmp_path))
        assert status.cells_per_minute() is None
        from repro.experiment.status import CellStatus

        status.cells = [
            CellStatus(
                digest="a", label="a", state="done", wall_seconds=30.0
            ),
            CellStatus(
                digest="b", label="b", state="done", wall_seconds=30.0,
                resumed=True,
            ),
        ]
        assert status.cells_per_minute() == pytest.approx(2.0)


# ---------------------------------------------------------------------
# Heartbeats from real campaigns


def _campaign_specs():
    return plan_grid(
        SEEDS, scenarios=["baseline"], experiments=["surf"], scale=SCALE
    )


class TestCampaignHeartbeats:
    @pytest.mark.parametrize("pool_workers", [1, 2])
    def test_every_cell_leaves_a_done_heartbeat(
        self, tmp_path, pool_workers
    ):
        """Digest-keyed heartbeat files merge cleanly at any
        ``--campaign-workers`` count: one file per cell, all done."""
        specs = _campaign_specs()
        directory = str(tmp_path / ("pool%d" % pool_workers))
        CampaignRunner(
            specs, directory, pool_workers=pool_workers
        ).run()
        status_dir = os.path.join(directory, STATUS_DIRNAME)
        assert sorted(os.listdir(status_dir)) == sorted(
            "%s.json" % spec.digest() for spec in specs
        )
        status = CampaignStatus.load(directory)
        assert status.complete
        assert status.has_manifest
        assert status.summary_present
        for cell, spec in zip(status.cells, specs):
            assert cell.state == "done"
            assert cell.rounds_total == spec.num_rounds
            assert cell.rounds_completed == spec.num_rounds
            assert not cell.resumed
        assert "all cells complete; summary written" in status.render()

    def test_resumed_cells_marked_resumed(self, tmp_path):
        specs = _campaign_specs()
        directory = str(tmp_path / "campaign")
        CampaignRunner(specs, directory).run()
        CampaignRunner(specs, directory).run()
        status = CampaignStatus.load(directory)
        assert status.complete
        assert all(cell.resumed for cell in status.cells)


# ---------------------------------------------------------------------
# Identity: telemetry + heartbeats never touch the contract surfaces


class TestTelemetryOutsideIdentityContract:
    def test_pooled_telemetry_sweep_matches_plain_serial(
        self, tmp_path, capsys
    ):
        """The PR 5 identity surfaces (cell records,
        ``campaign_summary.json``) are byte-identical between a plain
        serial sweep and a pooled sweep running with telemetry and
        heartbeats enabled."""
        clean_dir = str(tmp_path / "clean")
        noisy_dir = str(tmp_path / "noisy")
        telemetry = str(tmp_path / "telemetry.jsonl")
        base = [
            "sweep", "--scale", str(SCALE), "--seeds", str(SEEDS[0]),
            "--experiments", "surf",
        ]
        assert main(base + ["--campaign-dir", clean_dir]) == 0
        assert main(base + [
            "--campaign-dir", noisy_dir, "--campaign-workers", "2",
            "--telemetry-out", telemetry, "--telemetry-interval", "0.1",
        ]) == 0
        capsys.readouterr()

        with open(os.path.join(clean_dir, "campaign_summary.json")) as fh:
            clean_summary = fh.read()
        with open(os.path.join(noisy_dir, "campaign_summary.json")) as fh:
            noisy_summary = fh.read()
        assert clean_summary == noisy_summary
        cell_names = sorted(
            os.listdir(os.path.join(clean_dir, "cells"))
        )
        assert cell_names
        for name in cell_names:
            with open(os.path.join(clean_dir, "cells", name)) as fh:
                clean_cell = identity_view(json.load(fh))
            with open(os.path.join(noisy_dir, "cells", name)) as fh:
                noisy_cell = identity_view(json.load(fh))
            assert clean_cell == noisy_cell

        # The telemetry series itself is real, schema-valid, and
        # written only by the parent process (never a pool worker).
        with open(telemetry, encoding="utf-8") as fh:
            samples = [json.loads(line) for line in fh]
        assert samples
        for sample in samples:
            validate_sample(sample)
        assert all(s["pid"] == os.getpid() for s in samples)

    def test_reproduce_with_telemetry_stdout_identical(
        self, tmp_path, capsys
    ):
        """A reproduction with telemetry prints a byte-identical report
        to one without: the sample count goes to stderr, never stdout
        (an identity surface)."""
        assert main(["reproduce", "--scale", str(SCALE)]) == 0
        clean = capsys.readouterr().out
        telemetry = str(tmp_path / "telemetry.jsonl")
        assert main([
            "reproduce", "--scale", str(SCALE),
            "--telemetry-out", telemetry, "--telemetry-interval", "0.1",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "telemetry sample(s)" in captured.err
        with open(telemetry, encoding="utf-8") as fh:
            for line in fh:
                validate_sample(json.loads(line))


# ---------------------------------------------------------------------
# The status CLI


class TestStatusCli:
    @pytest.fixture()
    def complete_campaign(self, tmp_path):
        directory = str(tmp_path / "campaign")
        CampaignRunner(_campaign_specs(), directory).run()
        return directory

    def test_one_shot_on_complete_campaign(
        self, complete_campaign, capsys
    ):
        assert main(["status", complete_campaign]) == 0
        out = capsys.readouterr().out
        assert "2/2 cell(s) complete (100%)" in out
        assert "all cells complete; summary written" in out
        assert "surf/seed%d/baseline" % SEEDS[0] in out

    def test_watch_exits_when_complete(self, complete_campaign, capsys):
        assert main(["status", complete_campaign, "--watch", "0.1"]) == 0
        assert "cell(s) complete" in capsys.readouterr().out

    def test_no_cells_hides_table(self, complete_campaign, capsys):
        assert main(["status", complete_campaign, "--no-cells"]) == 0
        assert "baseline" not in capsys.readouterr().out

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_directory_without_campaign_state(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "no campaign state" in capsys.readouterr().err

    def test_bad_options_rejected(self, complete_campaign, capsys):
        assert main(
            ["status", complete_campaign, "--stale-after", "0"]
        ) == 2
        assert "--stale-after" in capsys.readouterr().err
        assert main(
            ["status", complete_campaign, "--watch", "-1"]
        ) == 2
        assert "--watch" in capsys.readouterr().err

    def test_failed_cell_yields_exit_one(self, tmp_path, capsys):
        spec = _campaign_specs()[0]
        write_grid_manifest(str(tmp_path), [spec])
        heartbeat = CellHeartbeat(
            str(tmp_path / STATUS_DIRNAME), spec.digest(), spec.label()
        )
        heartbeat.begin()
        heartbeat.failed("boom")
        assert main(["status", str(tmp_path)]) == 1
        assert "boom" in capsys.readouterr().out


# ---------------------------------------------------------------------
# CLI telemetry options


class TestCliTelemetryOptions:
    def test_interval_must_be_positive(self, capsys):
        assert main(
            ["reproduce", "--telemetry-interval", "0"]
        ) == 2
        assert "--telemetry-interval" in capsys.readouterr().err

    def test_unwritable_telemetry_path_fails_fast(self, tmp_path, capsys):
        assert main([
            "reproduce", "--telemetry-out",
            str(tmp_path / "no" / "such" / "dir" / "t.jsonl"),
        ]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_sweep_openmetrics_snapshot(self, tmp_path, capsys):
        directory = str(tmp_path / "campaign")
        metrics = str(tmp_path / "metrics.prom")
        assert main([
            "sweep", "--campaign-dir", directory, "--scale", str(SCALE),
            "--seeds", str(SEEDS[0]), "--experiments", "surf",
            "--metrics-out", metrics, "--metrics-format", "openmetrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "OpenMetrics" in out
        text = open(metrics, encoding="utf-8").read()
        assert text.startswith("# TYPE repro_")
        assert text.endswith("# EOF\n")
        assert "repro_campaign_cells_completed_total" in text


# ---------------------------------------------------------------------
# Benchmark trajectory


class TestBenchTrack:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(
            {"bench": "sweep", "wall_seconds": 1.0}, path=path,
            recorded_at=100.0,
        )
        append_history(
            {"bench": "sweep", "wall_seconds": 1.2}, path=path,
            recorded_at=200.0,
        )
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("{corrupt\n")
            stream.write(json.dumps({"schema": 99, "bench": "x",
                                     "wall_seconds": 1}) + "\n")
        entries = load_history(path)
        assert [e["wall_seconds"] for e in entries] == [1.0, 1.2]
        assert [e["recorded_at"] for e in entries] == [100.0, 200.0]

    def test_append_requires_bench_fields(self, tmp_path):
        with pytest.raises(ValueError):
            append_history(
                {"bench": "x"}, path=str(tmp_path / "h.jsonl")
            )

    def test_single_run_seeds_without_baseline(self):
        deltas = diff_latest([{"bench": "a", "wall_seconds": 2.0}])
        assert len(deltas) == 1
        assert deltas[0].baseline_seconds is None
        assert not deltas[0].regressed
        assert "seeded" in render_diff(deltas)

    def test_median_baseline_and_threshold(self):
        entries = [
            {"bench": "a", "wall_seconds": w}
            for w in (1.0, 1.1, 0.9, 1.15)
        ]
        deltas = diff_latest(entries, threshold_pct=20.0)
        assert deltas[0].baseline_seconds == pytest.approx(1.0)
        assert deltas[0].delta_pct == pytest.approx(15.0)
        assert not deltas[0].regressed
        regressed = diff_latest(
            entries + [{"bench": "a", "wall_seconds": 1.5}],
            threshold_pct=20.0,
        )
        assert regressed[0].regressed

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        for wall in (1.0, 1.02, 0.98):
            append_history(
                {"bench": "sweep", "wall_seconds": wall}, path=path
            )
        assert main(["bench-diff", "--history", path]) == 0
        assert "0 regressed" in capsys.readouterr().out

        # An injected >= 20% regression must fail the gate.
        append_history(
            {"bench": "sweep", "wall_seconds": 1.3}, path=path
        )
        assert main(["bench-diff", "--history", path]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_cli_missing_or_empty_history(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["bench-diff", "--history", missing]) == 2
        assert "no benchmark history" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["bench-diff", "--history", str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_cli_threshold_validation(self, capsys):
        assert main(["bench-diff", "--threshold", "-5"]) == 2
        assert "--threshold" in capsys.readouterr().err


class TestBenchTrackHosts:
    """Host stamping and per-host baseline grouping (the diff must
    never call a slower machine a regression)."""

    def test_append_stamps_host_and_cpu_count(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history({"bench": "a", "wall_seconds": 1.0}, path=path)
        entry = load_history(path)[0]
        assert entry["host"]
        assert entry["cpu_count"] >= 1

    def test_explicit_host_survives(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(
            {"bench": "a", "wall_seconds": 1.0, "host": "ci-1"},
            path=path,
        )
        assert load_history(path)[0]["host"] == "ci-1"

    def test_cross_host_runs_never_compared(self):
        entries = [
            {"bench": "a", "wall_seconds": 1.0, "host": "laptop"},
            {"bench": "a", "wall_seconds": 9.0, "host": "ci-runner"},
        ]
        deltas = diff_latest(entries, threshold_pct=20.0)
        # Two single-run groups: both seeded, neither regressed.
        assert len(deltas) == 2
        assert {d.host for d in deltas} == {"laptop", "ci-runner"}
        assert all(d.baseline_seconds is None for d in deltas)
        assert not any(d.regressed for d in deltas)

    def test_same_host_series_still_regresses(self):
        entries = [
            {"bench": "a", "wall_seconds": w, "host": "ci"}
            for w in (1.0, 1.0, 1.5)
        ]
        deltas = diff_latest(entries, threshold_pct=20.0)
        assert len(deltas) == 1
        assert deltas[0].regressed

    def test_pre_stamp_entries_form_their_own_group(self):
        entries = [
            {"bench": "a", "wall_seconds": 1.0},
            {"bench": "a", "wall_seconds": 1.0, "host": "ci"},
        ]
        deltas = diff_latest(entries)
        assert len(deltas) == 2


class TestBenchDiffJson:
    def test_render_diff_json_shape(self):
        entries = [
            {"bench": "a", "wall_seconds": w, "host": "ci"}
            for w in (1.0, 1.0, 1.5)
        ]
        document = json.loads(render_diff_json(
            diff_latest(entries, threshold_pct=20.0),
            threshold_pct=20.0,
        ))
        assert document["regressed"] == 1
        assert document["threshold_pct"] == 20.0
        [bench] = document["benchmarks"]
        assert bench["bench"] == "a"
        assert bench["host"] == "ci"
        assert bench["regressed"] is True

    def test_cli_json_flag(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        for wall in (1.0, 1.02, 0.98):
            append_history(
                {"bench": "sweep", "wall_seconds": wall}, path=path
            )
        assert main(["bench-diff", "--history", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["regressed"] == 0
        assert [b["bench"] for b in document["benchmarks"]] == ["sweep"]

    def test_cli_json_flag_regression_exit(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        for wall in (1.0, 1.0, 1.9):
            append_history(
                {"bench": "sweep", "wall_seconds": wall}, path=path
            )
        assert main(["bench-diff", "--history", path, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["regressed"] == 1


class TestOpenMetricsInfSynthesis:
    def test_missing_inf_bucket_synthesised_from_count(self):
        snapshot = {
            "histograms": {
                "round.duration": {
                    "buckets": [[1.0, 2], [10.0, 1]],
                    "sum": 12.0,
                    "count": 5,
                }
            }
        }
        lines = to_openmetrics(snapshot).splitlines()
        # The exporter closes the series itself: +Inf == _count, so
        # the two off-bucket observations are still accounted for.
        assert 'repro_round_duration_bucket{le="+Inf"} 5' in lines
        assert "repro_round_duration_count 5" in lines
        assert lint_openmetrics(to_openmetrics(snapshot)) == []


class TestOpenMetricsLint:
    def test_real_export_is_clean(self):
        assert lint_openmetrics(
            to_openmetrics(_registry_with_data().snapshot())
        ) == []

    def test_compact_telemetry_form_is_clean(self):
        sample = build_sample(_registry_with_data(), seq=0, elapsed=0.0)
        assert lint_openmetrics(to_openmetrics(sample)) == []

    def test_missing_eof_flagged(self):
        text = to_openmetrics(_registry_with_data().snapshot())
        problems = lint_openmetrics(text.replace("# EOF\n", ""))
        assert any("EOF" in p for p in problems)

    def test_eof_before_final_line_flagged(self):
        problems = lint_openmetrics(
            "# EOF\n# TYPE repro_x counter\nrepro_x_total 1\n"
        )
        assert any("before the final line" in p for p in problems)

    def test_unparseable_sample_flagged(self):
        problems = lint_openmetrics(
            "# TYPE repro_x gauge\nrepro_x one two three four\n# EOF\n"
        )
        assert any("unparseable" in p for p in problems)

    def test_non_numeric_value_flagged(self):
        problems = lint_openmetrics(
            "# TYPE repro_x gauge\nrepro_x fast\n# EOF\n"
        )
        assert any("non-numeric" in p for p in problems)

    def test_sample_before_type_flagged(self):
        problems = lint_openmetrics("repro_x 1\n# EOF\n")
        assert any("before any TYPE" in p for p in problems)

    def test_duplicate_type_flagged(self):
        problems = lint_openmetrics(
            "# TYPE repro_x gauge\n# TYPE repro_x gauge\n"
            "repro_x 1\n# EOF\n"
        )
        assert any("duplicate TYPE" in p for p in problems)

    def test_non_cumulative_buckets_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 1\n"
            "repro_h_count 3\n"
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert any("not cumulative" in p for p in problems)

    def test_missing_inf_bucket_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert any("+Inf" in p for p in problems)

    def test_inf_count_mismatch_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert any("_count" in p for p in problems)

    def test_bucket_without_le_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{gt="1"} 5\n'
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert any("le label" in p for p in problems)


class TestConvergenceDetail:
    """Satellite: per-cell engine convergence in ``repro status``
    (delivered/changed/dropped, from the runner's progress hook)."""

    def test_convergence_text_formats(self):
        from repro.experiment.status import CellStatus

        blank = CellStatus(digest="d", label="cell", state="pending")
        assert blank.convergence_text == "-"
        busy = CellStatus(
            digest="d", label="cell", state="running",
            engine_iterations=1234, best_changes=56, messages_dropped=7,
        )
        assert busy.convergence_text == "1234/56/7"

    def test_runner_progress_reports_engine_detail(self):
        from repro.experiment.runner import ExperimentRunner
        from repro.topology.re_ecosystem import build_ecosystem
        from repro.topology.re_config import REEcosystemConfig

        ecosystem = build_ecosystem(
            REEcosystemConfig(scale=0.04), seed=0
        )
        runner = ExperimentRunner(ecosystem, "surf", seed=0)
        seen = []
        runner.progress_hook = lambda **fields: seen.append(fields)
        runner.run()
        detailed = [f for f in seen if "engine_iterations" in f]
        assert detailed
        last = detailed[-1]
        assert last["engine_iterations"] > 0
        assert last["best_changes"] > 0
        assert last["messages_dropped"] >= 0

    def test_heartbeat_to_status_round_trip(self, tmp_path):
        heartbeat = CellHeartbeat(
            str(tmp_path / STATUS_DIRNAME), "abc123", "surf/seed0"
        )
        heartbeat.begin(rounds_total=9)
        heartbeat.progress(
            phase="probing", rounds_completed=3,
            engine_iterations=4200, best_changes=17, messages_dropped=2,
        )
        status = CampaignStatus.load(str(tmp_path))
        [cell] = status.cells
        assert cell.engine_iterations == 4200
        assert cell.best_changes == 17
        assert cell.messages_dropped == 2
        assert cell.convergence_text == "4200/17/2"
        rendered = status.render()
        assert "msgs/chg/drop" in rendered
        assert "4200/17/2" in rendered
