"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.profile import load_profile


class TestAgeModelCommand:
    def test_prints_cases(self, capsys):
        assert main(["age-model"]) == 0
        out = capsys.readouterr().out
        assert "(A)" in out
        assert "(J)" in out
        assert "4-0:C" in out


class TestFunnelCommand:
    def test_prints_funnel(self, capsys):
        assert main(["funnel", "--scale", "0.04", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "responsive" in out
        assert "ISI-covered" in out


class TestReproduceAndClassify:
    @pytest.fixture(scope="class")
    def export_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-export")
        code = main([
            "reproduce", "--scale", "0.04", "--seed", "5",
            "--export", str(out),
        ])
        assert code == 0
        return out

    def test_export_files_written(self, export_dir):
        names = set(os.listdir(export_dir))
        assert {
            "surf_probes.jsonl",
            "surf_updates.jsonl",
            "internet2_probes.jsonl",
            "internet2_updates.jsonl",
        } <= names

    def test_classify_from_export(self, export_dir, capsys):
        path = os.path.join(str(export_dir), "internet2_probes.jsonl")
        assert main(["classify", path, "--summary-only"]) == 0
        out = capsys.readouterr().out
        assert "Always R&E" in out
        assert "prefixes:" in out

    def test_reproduce_with_figures(self, capsys):
        assert main([
            "reproduce", "--scale", "0.04", "--seed", "5", "--figures",
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulative updates" in out
        assert "N = Peer-NREN" in out
        assert "U.S. states" in out

    def test_classify_full_listing(self, export_dir, capsys):
        path = os.path.join(str(export_dir), "surf_probes.jsonl")
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "/24" in out or "/16" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_exits(self):
        with pytest.raises(SystemExit):
            main(["--version"])


class TestWhatIfArtifacts:
    def test_provenance_and_profile_written(self, tmp_path, capsys):
        provenance = tmp_path / "provenance.jsonl"
        profile = tmp_path / "profile.json"
        assert main([
            "whatif", "--scale", "0.04",
            "--provenance-out", str(provenance),
            "--profile-out", str(profile),
        ]) == 0
        assert "provenance events" in capsys.readouterr().out
        lines = provenance.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] for line in lines)
        assert load_profile(str(profile))["phases"]
