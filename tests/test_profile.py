"""The deterministic phase profiler (repro.obs.profile): span-phase
aggregation, cProfile hotspot harvesting, payload merging, artifact
round-trips, and the ``repro profile`` / ``--profile-out`` CLI.

Profiler output is execution metadata — wall timings — so nothing
here asserts byte-identity; that contract (and its exclusion of the
profiler) is exercised in tests/test_differential.py.
"""

import contextlib
import json
import sys
import time

import pytest

from repro.cli import main
from repro.obs import spans
from repro.obs.capture import Capture, active_capture, use_capture
from repro.obs.profile import (
    DEFAULT_TOP_N,
    PROFILE_SCHEMA_VERSION,
    PhaseProfiler,
    export_profile,
    load_profile,
    render_profile,
)
from repro.obs.spans import reset_trace, span


@pytest.fixture(autouse=True)
def _no_ambient_trace():
    reset_trace()
    yield
    reset_trace()


@contextlib.contextmanager
def _profiling(profiler):
    """Install a capture holding only *profiler*; yields the profiler."""
    with use_capture(Capture(profiler=profiler)):
        yield profiler


def _sentinel_hook(*_args):
    return None


def _busy(loops=2_000):
    total = 0
    for index in range(loops):
        total += index * index
    return total


# ---------------------------------------------------------------------
# The profiler core


class TestPhaseProfiler:
    def test_top_n_validated(self):
        with pytest.raises(ValueError):
            PhaseProfiler(top_n=0)

    def test_counter_mode_aggregates_phases(self):
        with _profiling(PhaseProfiler(use_cprofile=False)) as profiler:
            with span("phase.alpha"):
                _busy()
            with span("phase.alpha"):
                _busy()
            with span("phase.beta"):
                time.sleep(0.01)
        payload = profiler.as_payload()
        assert payload["schema"] == PROFILE_SCHEMA_VERSION
        assert payload["kind"] == "phase_profile"
        assert payload["cprofile"] is False
        alpha = payload["phases"]["phase.alpha"]
        assert alpha["calls"] == 2
        assert alpha["seconds"] > 0
        assert alpha["hotspots"] == []
        assert payload["phases"]["phase.beta"]["seconds"] >= 0.01

    def test_cprofile_mode_collects_hotspots(self):
        with _profiling(PhaseProfiler()) as profiler:
            with span("phase.hot"):
                _busy(20_000)
        payload = profiler.as_payload()
        assert payload["cprofile"] is True
        hotspots = payload["phases"]["phase.hot"]["hotspots"]
        assert hotspots
        assert any("_busy" in row["func"] for row in hotspots)
        for row in hotspots:
            assert set(row) == {"func", "calls", "tottime", "cumtime"}

    def test_nested_phases_both_recorded(self):
        with _profiling(PhaseProfiler()) as profiler:
            with span("phase.outer"):
                _busy()
                with span("phase.inner"):
                    _busy()
        payload = profiler.as_payload()
        assert payload["phases"]["phase.outer"]["calls"] == 1
        assert payload["phases"]["phase.inner"]["calls"] == 1

    def test_merge_payload_sums_and_labels(self):
        def one(label):
            profiler = PhaseProfiler(use_cprofile=False)
            profiler.labels["cell"] = label
            profiler._note_phase("phase.x", 2, 1.0)
            return profiler.as_payload()

        merged = PhaseProfiler(use_cprofile=False)
        merged.merge_payload(one("a"))
        merged.merge_payload(one("b"))
        merged.merge_payload(None)  # ignored
        payload = merged.as_payload()
        assert payload["phases"]["phase.x"] == {
            "calls": 4, "seconds": 2.0, "hotspots": [],
        }
        assert payload["labels"]["cell"] == "a,b"

    def test_merge_payload_merges_hotspot_rows(self):
        source = {
            "kind": "phase_profile",
            "schema": PROFILE_SCHEMA_VERSION,
            "labels": {},
            "phases": {
                "phase.x": {
                    "calls": 1, "seconds": 0.1,
                    "hotspots": [{"func": "f.py:1(g)", "calls": 3,
                                  "tottime": 0.05, "cumtime": 0.08}],
                },
            },
        }
        merged = PhaseProfiler(use_cprofile=False)
        merged.merge_payload(source)
        merged.merge_payload(source)
        [row] = merged.as_payload()["phases"]["phase.x"]["hotspots"]
        assert row["calls"] == 6
        assert row["tottime"] == pytest.approx(0.1)

    def test_payload_top_n_bound(self):
        profiler = PhaseProfiler(use_cprofile=False, top_n=2)
        payload = {
            "kind": "phase_profile",
            "schema": PROFILE_SCHEMA_VERSION,
            "labels": {},
            "phases": {
                "phase.x": {
                    "calls": 1, "seconds": 0.1,
                    "hotspots": [
                        {"func": "f%d" % n, "calls": 1,
                         "tottime": 0.1 * n, "cumtime": 0.1 * n}
                        for n in range(5)
                    ],
                },
            },
        }
        profiler.merge_payload(payload)
        rows = profiler.as_payload()["phases"]["phase.x"]["hotspots"]
        assert len(rows) == 2
        assert rows[0]["func"] == "f4"  # biggest tottime first


class TestSingleton:
    def test_disabled_by_default(self):
        assert active_capture() is None
        assert spans._phase_observer is None

    def test_enable_disable(self):
        profiler = PhaseProfiler(use_cprofile=False, top_n=5)
        with use_capture(Capture(profiler=profiler)):
            assert active_capture().profiler is profiler
            assert spans._phase_observer is profiler
        assert active_capture() is None
        assert spans._phase_observer is None

    def test_use_profiling_restores_previous(self):
        outer = PhaseProfiler(use_cprofile=False)
        with _profiling(outer):
            with _profiling(PhaseProfiler()) as inner:
                assert spans._phase_observer is inner
            assert spans._phase_observer is outer

    def test_disarm_noop_in_owning_process(self):
        parent = Capture(profiler=PhaseProfiler(use_cprofile=False))
        sys.setprofile(_sentinel_hook)
        try:
            child = parent.child()
            assert sys.getprofile() is _sentinel_hook
        finally:
            sys.setprofile(None)
        assert child.profiler.owns_process()

    def test_disarm_clears_foreign_profiler(self, monkeypatch):
        profiler = PhaseProfiler(use_cprofile=False)
        # Fake a fork child: the inherited profiler carries the
        # parent's pid, so it does not own this process.
        monkeypatch.setattr(profiler, "_pid", -1)
        assert not profiler.owns_process()
        sys.setprofile(_sentinel_hook)
        try:
            child = Capture(profiler=profiler).child()
            assert sys.getprofile() is None
        finally:
            sys.setprofile(None)
        assert child.profiler is not profiler
        assert child.profiler.owns_process()

    def test_foreign_profiler_records_nothing(self, monkeypatch):
        profiler = PhaseProfiler(use_cprofile=False)
        monkeypatch.setattr(profiler, "_pid", -1)
        with _profiling(profiler):
            with span("phase.ghost"):
                pass
        assert profiler.as_payload()["phases"] == {}


# ---------------------------------------------------------------------
# Artifacts


class TestArtifacts:
    def test_export_and_load_round_trip(self, tmp_path):
        with _profiling(PhaseProfiler()) as profiler:
            with span("phase.io"):
                _busy()
        path = str(tmp_path / "profile.json")
        payload = export_profile(profiler, path)
        assert load_profile(path) == payload
        # cProfile data existed in-process, so the binary twin rides
        # along for pstats tooling.
        assert (tmp_path / "profile.json.pstats").exists()

    def test_counter_mode_skips_pstats_twin(self, tmp_path):
        profiler = PhaseProfiler(use_cprofile=False)
        profiler._note_phase("phase.x", 1, 0.1)
        path = str(tmp_path / "profile.json")
        export_profile(profiler, path)
        assert not (tmp_path / "profile.json.pstats").exists()

    def test_load_directory_merges_cell_payloads(self, tmp_path):
        for label in ("a", "b"):
            profiler = PhaseProfiler(use_cprofile=False)
            profiler.labels["cell"] = label
            profiler._note_phase("phase.x", 1, 1.0)
            export_profile(
                profiler, str(tmp_path / ("%s.profile.json" % label))
            )
        (tmp_path / "noise.json").write_text('{"kind": "other"}')
        (tmp_path / "README.txt").write_text("not json")
        merged = load_profile(str(tmp_path))
        assert merged["phases"]["phase.x"]["calls"] == 2
        assert merged["labels"]["cell"] == "a,b"

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_profile(str(tmp_path / "missing.json"))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            load_profile(str(bad_json))
        wrong_kind = tmp_path / "kind.json"
        wrong_kind.write_text('{"kind": "trace"}')
        with pytest.raises(ValueError, match="not a phase-profile"):
            load_profile(str(wrong_kind))
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(
            '{"kind": "phase_profile", "schema": 999}'
        )
        with pytest.raises(ValueError, match="schema"):
            load_profile(str(wrong_schema))
        empty_dir = tmp_path / "cells"
        empty_dir.mkdir()
        with pytest.raises(ValueError, match="no profile payloads"):
            load_profile(str(empty_dir))


class TestRender:
    def _payload(self, phases=3):
        return {
            "kind": "phase_profile",
            "schema": PROFILE_SCHEMA_VERSION,
            "cprofile": False,
            "labels": {"experiment": "surf"},
            "phases": {
                "phase.%d" % n: {
                    "calls": 1, "seconds": float(phases - n),
                    "hotspots": [{"func": "mod.py:%d(f)" % n, "calls": 2,
                                  "tottime": 0.2, "cumtime": 0.3}],
                }
                for n in range(phases)
            },
        }

    def test_render_contains_tables_and_labels(self):
        text = render_profile(self._payload())
        assert "phase profile (counters)" in text
        assert "labels: experiment=surf" in text
        assert "phase.0" in text
        assert "hotspot" in text
        assert "mod.py:0(f)" in text

    def test_render_truncates_to_top(self):
        text = render_profile(self._payload(phases=5), top=2)
        assert "... 3 more phase(s)" in text
        assert "phase.4" not in text.split("hotspot")[0]

    def test_render_cprofile_banner(self):
        payload = self._payload()
        payload["cprofile"] = True
        assert "phase profile (cProfile)" in render_profile(payload)


# ---------------------------------------------------------------------
# CLI


class TestProfileCli:
    def _artifact(self, tmp_path):
        profiler = PhaseProfiler(use_cprofile=False)
        profiler._note_phase("phase.cli", 4, 2.0)
        path = str(tmp_path / "profile.json")
        export_profile(profiler, path)
        return path

    def test_renders_artifact(self, tmp_path, capsys):
        assert main(["profile", self._artifact(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phase.cli" in out
        assert "phase profile" in out

    def test_top_flag(self, tmp_path, capsys):
        path = self._artifact(tmp_path)
        assert main(["profile", path, "--top", "1"]) == 0
        assert "phase.cli" in capsys.readouterr().out

    def test_top_validated(self, tmp_path, capsys):
        assert main(["profile", self._artifact(tmp_path),
                     "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "no profile artifact" in capsys.readouterr().err

    def test_invalid_artifact_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert main(["profile", str(bad)]) == 2
        assert "phase-profile" in capsys.readouterr().err


class TestReproduceProfileOptions:
    def test_reproduce_writes_both_artifacts(self, tmp_path, capsys):
        frontier = tmp_path / "frontier.jsonl"
        profile = tmp_path / "profile.json"
        assert main([
            "reproduce", "--scale", "0.04", "--seed", "0",
            "--frontier-out", str(frontier),
            "--profile-out", str(profile),
        ]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.out and "frontier events" in captured.out
        assert "phase profile" in captured.err
        events = [
            json.loads(line)
            for line in frontier.read_text().splitlines()
        ]
        assert events
        assert {"engine_run", "round_frontier"} <= {
            e["kind"] for e in events
        }
        payload = load_profile(str(profile))
        assert payload["phases"]
        assert main(["profile", str(profile)]) == 0
        # The run-scoped capture was torn down on exit.
        assert active_capture() is None
        assert spans._phase_observer is None

    def test_frontier_capacity_validated(self, capsys):
        assert main([
            "reproduce", "--scale", "0.04",
            "--frontier-out", "f.jsonl", "--frontier-capacity", "0",
        ]) == 2
        assert "--frontier-capacity" in capsys.readouterr().err

    def test_default_top_n_used(self):
        assert DEFAULT_TOP_N >= 1
