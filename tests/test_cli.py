"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


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


_HEADER = ('{"type": "experiment", "version": 1, '
           '"configs": ["4-0", "3-0"]}')
_PROBE = '{"type": "probe", "prefix": "10.0.0.0/24", "round": %s, ' \
         '"responded": true, "interface": %s}'


@pytest.mark.parametrize(
    "lines",
    [
        pytest.param([_HEADER, "[1, 2]"], id="non-object"),
        pytest.param(['{"type": "experiment", "version": 1}'],
                     id="header-without-configs"),
        pytest.param([_HEADER, '{"type": "probe", "round": 0, '
                      '"responded": false}'], id="probe-without-prefix"),
        pytest.param([_HEADER, _PROBE % ("2", '"re"')],
                     id="round-out-of-range"),
        pytest.param([_HEADER, _PROBE % ("0", '"tunnel"')],
                     id="unknown-interface"),
        pytest.param([_HEADER, "{nope"], id="invalid-json"),
        pytest.param([_HEADER, _PROBE % ("true", '"re"')],
                     id="round-is-a-bool"),
        pytest.param([_HEADER, '{"type": "probe", "prefix": "10.0.0.0/24", '
                      '"round": 0, "responded": 1}'],
                     id="responded-not-a-bool"),
    ],
)
def test_classify_rejects_malformed_results(lines, tmp_path, capsys):
    path = tmp_path / "probes.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "line %d" % len(lines) in captured.err


def test_classify_reports_a_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.jsonl")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_classify_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "probes.jsonl"
    path.write_bytes(b"\xff\xfe garbage\n")
    assert main(["classify", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_exits(self):
        with pytest.raises(SystemExit):
            main(["--version"])


def test_whatif_rejects_an_unbounded_count(capsys):
    """A 5,000-digit count is a typed error: exit 2, one stderr line."""
    assert main([
        "whatif", "--scale", "0.02", "--limit", "0",
        "--delta", "prepend:re=" + "9" * 5000,
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "at most 10 ASCII digits" in err


class TestWhatIfArtifacts:
    def test_provenance_and_trace_written(self, tmp_path, capsys):
        provenance = tmp_path / "provenance.jsonl"
        trace = tmp_path / "trace.json"
        assert main([
            "whatif", "--scale", "0.04",
            "--provenance-out", str(provenance),
            "--trace-out", str(trace),
        ]) == 0
        assert "provenance events" in capsys.readouterr().out
        lines = provenance.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] for line in lines)
        assert json.loads(trace.read_text())["traceEvents"]
