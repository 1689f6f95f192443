"""Campaign progress: the grid manifest, ``repro status``, and the
benchmark trajectory.

The load-bearing guarantees:

- ``repro status`` counts a cell done exactly when a resumed campaign
  would skip it: both read a checkpoint through one predicate;
- progress reporting is strictly observational — a pooled sweep with
  ``--metrics-out`` produces cell records and a
  ``campaign_summary.json`` byte-identical to a plain serial sweep;
- a failed sweep still writes the outputs it was asked for;
- ``repro bench-diff`` exits non-zero on an injected >= 20%% wall-time
  regression.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiment.campaign import (
    CampaignRunner,
    CampaignStatus,
    identity_view,
    load_grid_manifest,
    plan_grid,
    write_grid_manifest,
)
from repro.experiment.scheduler import fork_available
from repro.obs import MetricsRegistry, use_registry
from repro.obs.benchtrack import (
    append_history,
    diff_latest,
    load_history,
    render_diff,
    render_diff_json,
)

SCALE = 0.05
SEEDS = (0, 3)


def _campaign_specs():
    return plan_grid(
        SEEDS, scenarios=["baseline"], experiments=["surf"], scale=SCALE
    )


def _checkpoint(directory, spec):
    return os.path.join(directory, "cells", "%s.json" % spec.digest())


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write(path, record):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


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
        (tmp_path / "grid.json").write_text("[" * 100_000)
        assert load_grid_manifest(str(tmp_path)) is None
        (tmp_path / "grid.json").write_text(
            json.dumps({"schema": 999, "cells": []})
        )
        assert load_grid_manifest(str(tmp_path)) is None


# ---------------------------------------------------------------------
# The status fold: grid.json and the checkpoints


@pytest.fixture()
def complete_campaign(tmp_path):
    directory = str(tmp_path / "campaign")
    CampaignRunner(_campaign_specs(), directory).run()
    return directory


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
        # A checkpoint too deeply nested to parse reads as absent.
        (tmp_path / "cells").mkdir()
        (tmp_path / "cells" / ("%s.json" % spec.digest())).write_text(
            "[" * 100_000
        )
        status = CampaignStatus.load(str(tmp_path))
        assert status.total == 1
        assert not status.complete
        cell = status.cells[0]
        assert (cell.digest, cell.state) == (spec.digest(), "pending")

    def test_checkpoint_wins_over_stale_heartbeat(self, complete_campaign):
        """A ``status/`` heartbeat left by an older version is ignored:
        the checkpoint alone makes the cell done, with its wall time."""
        specs = _campaign_specs()
        assert not os.path.exists(os.path.join(complete_campaign, "status"))
        stale = os.path.join(complete_campaign, "status")
        os.mkdir(stale)
        _write(os.path.join(stale, "%s.json" % specs[0].digest()), {
            "schema": 1, "digest": specs[0].digest(), "phase": "failed",
        })
        status = CampaignStatus.load(complete_campaign)
        assert status.complete
        for cell, spec in zip(status.cells, specs):
            assert cell.state == "done"
            assert cell.wall_seconds == _read(
                _checkpoint(complete_campaign, spec)
            )["wall_seconds"]

    def test_no_manifest_falls_back_to_observed_cells(
        self, complete_campaign
    ):
        specs = _campaign_specs()
        os.unlink(os.path.join(complete_campaign, "grid.json"))
        _write(_checkpoint(complete_campaign, specs[1]), {"digest": "x"})
        status = CampaignStatus.load(complete_campaign)
        assert sorted(
            (cell.digest, cell.state) for cell in status.cells
        ) == sorted([
            (specs[0].digest(), "done"), (specs[1].digest(), "pending")
        ])

    @pytest.mark.parametrize("pool_workers", [1, 2])
    def test_every_cell_done_at_any_worker_count(
        self, tmp_path, pool_workers
    ):
        """A finished campaign reads complete, inline or pooled, with
        each cell's wall time from its checkpoint, and writes nothing
        beside ``grid.json``, the checkpoints and the summary; a
        resumed run that skips every cell still reads complete."""
        specs = _campaign_specs()
        directory = str(tmp_path / "campaign")
        for _ in range(2):
            CampaignRunner(specs, directory, pool_workers=pool_workers).run()
            assert sorted(os.listdir(directory)) == [
                "campaign_summary.json", "cells", "grid.json",
            ]
            status = CampaignStatus.load(directory)
            assert status.complete
            assert [cell.digest for cell in status.cells] == [
                spec.digest() for spec in specs
            ]
            for cell, spec in zip(status.cells, specs):
                assert cell.wall_seconds == _read(
                    _checkpoint(directory, spec)
                )["wall_seconds"]
            assert "all cells complete; summary written" in status.render()

    def test_throughput_from_checkpoint_walls(self, complete_campaign):
        specs = _campaign_specs()
        for spec in specs:
            record = _read(_checkpoint(complete_campaign, spec))
            record["wall_seconds"] = 30.0
            _write(_checkpoint(complete_campaign, spec), record)
        status = CampaignStatus.load(complete_campaign)
        assert status.cells_per_minute() == pytest.approx(2.0)
        assert "throughput: 2.0 cells/minute" in status.render()
        os.unlink(_checkpoint(complete_campaign, specs[0]))
        os.unlink(_checkpoint(complete_campaign, specs[1]))
        assert CampaignStatus.load(complete_campaign).cells_per_minute() is None

    @pytest.mark.parametrize("corruption", ["schema", "fractions", "seed"])
    def test_status_and_resume_agree_on_a_corrupt_checkpoint(
        self, complete_campaign, capsys, corruption
    ):
        """A checkpoint resume would not accept — an old schema, a
        missing field, another cell's key — reads as pending, and a
        resumed campaign recomputes exactly that cell."""
        specs = _campaign_specs()
        victim = specs[1]
        path = _checkpoint(complete_campaign, victim)
        original = _read(path)
        record = dict(original)
        if corruption == "schema":
            record["schema"] -= 1
        elif corruption == "fractions":
            del record["fractions"]
        else:
            record["seed"] = specs[0].seed
        _write(path, record)

        assert main(["status", complete_campaign]) == 0
        out = capsys.readouterr().out
        assert "1/2 cell(s) complete (50%)" in out
        rows = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines() if line.startswith("  surf/")
        }
        assert rows == {specs[0].label(): "done", victim.label(): "pending"}

        rerun = CampaignRunner(specs, complete_campaign).run()
        assert (rerun.completed, rerun.skipped) == (1, 1)
        assert identity_view(_read(path)) == identity_view(original)
        assert CampaignStatus.load(complete_campaign).complete


# ---------------------------------------------------------------------
# Identity: the grid manifest and the metrics snapshot never touch the
# contract surfaces


class TestProgressOutsideIdentityContract:
    def test_pooled_heartbeat_sweep_matches_plain_serial(
        self, tmp_path, capsys
    ):
        """The identity surfaces (cell records,
        ``campaign_summary.json``) are byte-identical between a plain
        serial sweep and a pooled sweep writing a metrics snapshot."""
        clean_dir = str(tmp_path / "clean")
        noisy_dir = str(tmp_path / "noisy")
        metrics = str(tmp_path / "metrics.json")
        base = [
            "sweep", "--scale", str(SCALE), "--seeds", "%d,%d" % SEEDS,
            "--experiments", "surf",
        ]
        assert main(base + ["--campaign-dir", clean_dir]) == 0
        # A fresh registry: the snapshot is of the process registry,
        # which earlier runs in this process have already counted into.
        with use_registry(MetricsRegistry()):
            assert main(base + [
                "--campaign-dir", noisy_dir, "--campaign-workers", "2",
                "--metrics-out", metrics,
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

        # Both progress surfaces are real: status reads every cell
        # done (and nothing else is written beside the checkpoints),
        # and the snapshot counts every cell against the grid gauge,
        # each run on a fork worker.
        status = CampaignStatus.load(noisy_dir)
        assert status.complete
        assert len(status.cells) == len(cell_names)
        assert sorted(os.listdir(noisy_dir)) == [
            "campaign_summary.json", "cells", "grid.json",
        ]
        snapshot = _read(metrics)
        assert snapshot["gauges"]["campaign.cells_total"] == len(cell_names)
        assert snapshot["counters"]["campaign.cells_completed"] == len(
            cell_names
        )
        if fork_available():
            assert snapshot["counters"]["campaign.cells_forked"] == len(
                cell_names
            )

    def test_reproduce_with_metrics_stdout_identical(
        self, tmp_path, capsys
    ):
        """A reproduction with ``--metrics-out`` prints a byte-identical
        report to one without, followed by the one snapshot notice."""
        assert main(["reproduce", "--scale", str(SCALE)]) == 0
        clean = capsys.readouterr().out
        metrics = str(tmp_path / "metrics.json")
        assert main([
            "reproduce", "--scale", str(SCALE), "--metrics-out", metrics,
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            clean + "wrote metrics snapshot to %s\n" % metrics
        )
        with open(metrics, encoding="utf-8") as fh:
            assert json.load(fh)["counters"]["runner.rounds_completed"]


# ---------------------------------------------------------------------
# The status CLI


class TestStatusCli:
    def test_one_shot_on_complete_campaign(
        self, complete_campaign, capsys
    ):
        assert main(["status", complete_campaign]) == 0
        out = capsys.readouterr().out
        assert "2/2 cell(s) complete (100%)" in out
        assert "throughput:" in out
        assert "all cells complete; summary written" in out
        assert "surf/seed%d/baseline" % SEEDS[0] in out

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
        """The retired heartbeat options are refused like any unknown
        option."""
        for option in ("--watch", "--stale-after"):
            with pytest.raises(SystemExit) as exit_info:
                main(["status", complete_campaign, option, "5"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------
# CLI output paths


class TestCliOutputPaths:
    def test_unwritable_metrics_path_fails_fast(self, tmp_path, capsys):
        """An unwritable output path is refused before any work runs."""
        assert main([
            "reproduce", "--metrics-out",
            str(tmp_path / "no" / "such" / "dir" / "m.json"),
        ]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_sweep_still_writes_metrics_snapshot(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        """A sweep whose cell fails exits 1 and still writes the
        requested snapshot, which counts the failure."""
        import repro.experiment.campaign as campaign

        doomed = _campaign_specs()[0]
        build = campaign.build_runner

        def failing_build(spec, *args, **kwargs):
            if spec == doomed:
                raise ExperimentError("forced cell failure")
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(campaign, "build_runner", failing_build)
        metrics = str(tmp_path / "metrics.json")
        with use_registry(MetricsRegistry()):
            assert main([
                "sweep", "--scale", str(SCALE), "--seeds", "%d,%d" % SEEDS,
                "--experiments", "surf",
                "--campaign-dir", str(tmp_path / "campaign"),
                "--campaign-workers", workers, "--metrics-out", metrics,
            ]) == 1
        captured = capsys.readouterr()
        assert "forced cell failure" in captured.err
        assert "wrote metrics snapshot" in captured.out
        counters = _read(metrics)["counters"]
        assert counters["campaign.cells_failed"] == 1
        assert counters["campaign.cells_completed"] == len(SEEDS) - 1

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
            stream.write("[" * 100_000 + "\n")
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
