"""``repro profile``: the span table read back from a ``--trace-out``
Chrome trace (repro.obs.export) — calls, inclusive and self seconds
per span name, with nesting rebuilt from the preorder events.

Trace contents are execution metadata — wall timings — so the
hand-built traces here carry chosen timings, and only structure is
asserted on real runs.
"""

import json

import pytest

from repro.cli import main
from repro.obs.capture import active_ring
from repro.obs.export import (
    DEFAULT_TOP_N,
    chrome_trace,
    load_chrome_trace,
    render_span_table,
    span_table,
    write_chrome_trace,
)
from repro.obs.spans import SpanRecord, reset_trace, span


@pytest.fixture(autouse=True)
def _no_ambient_trace():
    reset_trace()
    yield
    reset_trace()


def _event(name, ts, dur, tid=1):
    return {"name": name, "cat": "repro", "ph": "X", "ts": ts,
            "dur": dur, "pid": 1, "tid": tid}


#: A nested trace in microseconds, in preorder: run holds two rounds,
#: each holding one engine run; a second run follows.
NESTED = [
    _event("run", 0.0, 1_000_000.0),
    _event("round", 0.0, 400_000.0),
    _event("engine", 100_000.0, 250_000.0),
    _event("round", 400_000.0, 500_000.0),
    _event("engine", 450_000.0, 300_000.0),
    _event("run", 1_000_000.0, 200_000.0),
]


def _write(tmp_path, events, name="trace.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"traceEvents": events}))
    return str(path)


def _record(name, started_at, duration, children=()):
    record = SpanRecord(name, started_at)
    record.duration = duration
    record.children = list(children)
    return record


class TestSpanTable:
    def test_calls_and_self_seconds_on_nested_trace(self):
        table = span_table(NESTED)
        assert table["run"]["calls"] == 2
        assert table["run"]["seconds"] == pytest.approx(1.2)
        # 1.0 s minus its two rounds (0.4 + 0.5), plus the 0.2 s run.
        assert table["run"]["self"] == pytest.approx(0.3)
        assert table["round"]["calls"] == 2
        assert table["round"]["seconds"] == pytest.approx(0.9)
        assert table["round"]["self"] == pytest.approx(0.35)
        assert table["engine"]["self"] == pytest.approx(0.55)
        total_self = sum(row["self"] for row in table.values())
        assert total_self == pytest.approx(1.2)

    def test_each_track_nests_on_its_own(self):
        """A span on another track is not a child of the span that
        encloses it in time on track 1."""
        events = [
            _event("parent", 0.0, 1_000.0),
            _event("worker", 100.0, 500.0, tid=2),
            _event("child", 200.0, 300.0),
        ]
        table = span_table(events)
        assert table["parent"]["self"] == pytest.approx(700.0 / 1e6)
        assert table["worker"]["self"] == pytest.approx(500.0 / 1e6)

    def test_concurrent_siblings_export_on_their_own_tracks(self):
        """Two pooled cells re-attached under one parent ran at the
        same time; the exporter puts the second on a fresh track, so
        the table does not nest it in the first."""
        cell_a = _record("cell.a", 10.0, 5.0, [_record("work", 10.5, 4.0)])
        cell_b = _record("cell.b", 11.0, 3.0, [_record("work", 11.5, 2.0)])
        after = _record("cell.c", 16.0, 1.0)
        run = _record("run", 10.0, 8.0, [cell_a, cell_b, after])
        events = chrome_trace([run])["traceEvents"]
        tracks = {event["name"]: event["tid"] for event in events}
        assert tracks["run"] == tracks["cell.a"] == tracks["cell.c"] == 1
        assert tracks["cell.b"] == 2
        table = span_table(events)
        assert table["cell.a"]["self"] == pytest.approx(1.0)
        assert table["cell.b"]["self"] == pytest.approx(1.0)
        assert table["run"]["self"] == pytest.approx(2.0)


class TestRender:
    def test_render_contains_tables_and_labels(self):
        """A summary line, the column labels, then one row per span
        name ranked by self seconds."""
        text = render_span_table(span_table(NESTED))
        lines = text.splitlines()
        assert lines[0].startswith("span profile: 3 span name(s), 6 span(s)")
        assert lines[2].split() == ["span", "calls", "seconds", "self",
                                    "share"]
        rows = [line.split()[0] for line in lines[3:]]
        assert rows == ["engine", "round", "run"]
        assert "45.8%" in text  # engine: 0.55 of 1.2 s

    def test_render_truncates_to_top(self):
        text = render_span_table(span_table(NESTED), top=2)
        assert "... 1 more span name(s)" in text
        assert "\nrun " not in text


# ---------------------------------------------------------------------
# Artifacts


class TestArtifacts:
    def test_export_and_load_round_trip(self, tmp_path):
        with span("phase.io"):
            with span("phase.inner"):
                pass
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(path) == 2
        assert load_chrome_trace(path) == chrome_trace()["traceEvents"]

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_chrome_trace(str(tmp_path / "missing.json"))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            load_chrome_trace(str(bad_json))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="not JSON"):
            load_chrome_trace(str(deep))
        for name, document in (
            ("kind.json", {"kind": "phase_profile"}),
            ("list.json", [1, 2]),
            ("events.json", {"traceEvents": {"name": "x"}}),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(document))
            with pytest.raises(ValueError, match="not a trace-event"):
                load_chrome_trace(str(path))
        with pytest.raises(ValueError, match="malformed complete event"):
            load_chrome_trace(_write(
                tmp_path, [{"ph": "X", "name": "x", "ts": "0", "dur": 1}],
            ))

    def test_load_keeps_only_complete_events(self, tmp_path):
        path = _write(tmp_path, [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1},
            _event("x", 0.0, 5.0),
        ])
        assert [event["name"] for event in load_chrome_trace(path)] == ["x"]


# ---------------------------------------------------------------------
# CLI


class TestProfileCli:
    def test_renders_artifact(self, tmp_path, capsys):
        assert main(["profile", _write(tmp_path, NESTED)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("span profile:")
        assert "engine" in out and "round" in out and "run" in out

    def test_top_flag(self, tmp_path, capsys):
        path = _write(tmp_path, NESTED)
        assert main(["profile", path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "\nengine " in out
        assert "\nround " not in out
        assert "... 2 more span name(s)" in out

    def test_top_validated(self, tmp_path, capsys):
        assert main(["profile", _write(tmp_path, NESTED),
                     "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_invalid_artifact_exit_2(self, tmp_path, capsys):
        """Non-JSON text and a JSON document that is not a trace."""
        text = tmp_path / "text.json"
        text.write_text("not json at all")
        assert main(["profile", str(text)]) == 2
        assert "not JSON" in capsys.readouterr().err
        other = tmp_path / "other.json"
        other.write_text('{"kind": "other"}')
        assert main(["profile", str(other)]) == 2
        assert "not a trace-event document" in capsys.readouterr().err


class TestReproduceProfileOptions:
    def test_reproduce_writes_both_artifacts(self, tmp_path, capsys):
        """``--provenance-out`` and ``--trace-out`` together; the trace
        renders with ``repro profile``."""
        provenance = tmp_path / "provenance.jsonl"
        trace = tmp_path / "trace.json"
        assert main([
            "reproduce", "--scale", "0.04", "--seed", "0",
            "--provenance-out", str(provenance),
            "--trace-out", str(trace),
        ]) == 0
        captured = capsys.readouterr()
        assert "provenance events" in captured.out
        assert "trace events" in captured.out
        events = [
            json.loads(line)
            for line in provenance.read_text().splitlines()
        ]
        assert {"selection", "signal"} <= {e["kind"] for e in events}
        table = span_table(load_chrome_trace(str(trace)))
        assert table["prober.round"]["calls"] == 18
        assert main(["profile", str(trace)]) == 0
        assert "prober.round" in capsys.readouterr().out
        # The run-scoped ring was torn down on exit.
        assert active_ring() is None

    def test_default_top_n_used(self, tmp_path, capsys):
        events = [
            _event("span.%02d" % n, 10.0 * n, 5.0)
            for n in range(DEFAULT_TOP_N + 3)
        ]
        assert main(["profile", _write(tmp_path, events)]) == 0
        assert "... 3 more span name(s)" in capsys.readouterr().out
