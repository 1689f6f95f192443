"""Tests for decision provenance (repro.obs.provenance), the explain
narrative (repro.core.explain), and the Chrome trace exporter
(repro.obs.export)."""

import json
import threading

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.bgp.attributes import ASPath, Route
from repro.bgp.policy import Rel, RoutingPolicy
from repro.bgp.router import Router
from repro.core.classify import RoundSignal, classify_prefix_rounds
from repro.core.explain import render_explanation
from repro.netutil import Prefix
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.capture import Capture, EventRing, use_capture
from repro.obs.provenance import (
    round_signal_summary,
    selection_event,
    signal_event,
    signal_from_kinds,
)
from repro.obs.spans import attach_completed, reset_trace, span

from .test_obs_capture import RingContract, SlotContract

PFX = Prefix.parse("192.0.2.0/24")


def _recording(ring=None):
    """Install a capture holding only a provenance ring."""
    return use_capture(Capture(
        provenance=ring if ring is not None else EventRing()
    ))


class TestSignalFromKinds:
    def test_mapping(self):
        assert signal_from_kinds([]) == "none"
        assert signal_from_kinds(["re"]) == "re"
        assert signal_from_kinds(["commodity"]) == "commodity"
        assert signal_from_kinds(["re", "commodity"]) == "both"
        assert signal_from_kinds(["commodity", "re", "re"]) == "both"


class TestRoundSignalSummary:
    def test_aggregates_responses(self):
        class R:
            def __init__(self, responded, kind=None, origin=None):
                self.responded = responded
                self.interface_kind = kind
                self.origin_asn = origin

        summary = round_signal_summary([
            R(True, "re", 10), R(True, "re", 10), R(False),
        ])
        assert summary == {
            "signal": "re", "probes": 3, "responses": 2, "origins": [10],
        }

    def test_empty_is_none_signal(self):
        assert round_signal_summary([])["signal"] == "none"


class TestRecorder(RingContract):
    channel = "provenance"


class TestGlobalRecorder(SlotContract):
    channel = "provenance"


class TestEventBuilders:
    def _route(self, neighbor=7, path=(7, 9), localpref=100):
        return Route(PFX, ASPath(tuple(path)), neighbor, localpref)

    def test_selection_event_fields(self):
        route = self._route()
        event = selection_event(
            source="engine", asn=3, prefix=PFX, candidates=[route],
            steps=[{"step": "highest-localpref", "entering": [0],
                    "values": [100], "survivors": [0]}],
            winner_index=0, winning_step="highest-localpref",
        )
        assert event["kind"] == "selection"
        assert event["prefix"] == str(PFX)
        assert event["candidates"][0]["path"] == [7, 9]
        assert event["candidates"][0]["neighbor"] == 7
        assert "time" not in event and "round" not in event
        json.dumps(event)   # JSON-safe

    def test_selection_event_optional_fields(self):
        other = Prefix.parse("198.51.100.0/24")
        event = selection_event(
            source="round", asn=3, prefix=PFX, candidates=[],
            steps=[], winner_index=None, winning_step=None,
            time=1.5, round_index=4, config="0-2",
            selection_prefix=other,
        )
        assert event["time"] == 1.5
        assert event["round"] == 4
        assert event["config"] == "0-2"
        assert event["selection_prefix"] == str(other)

    def test_selection_prefix_omitted_when_same(self):
        event = selection_event(
            source="round", asn=3, prefix=PFX, candidates=[],
            steps=[], winner_index=None, winning_step=None,
            selection_prefix=PFX,
        )
        assert "selection_prefix" not in event


class TestEngineSelectionEvents:
    def test_router_records_reselect(self):
        router = Router(100, RoutingPolicy())
        with _recording() as capture:
            router.receive(
                neighbor_asn=7, rel=Rel.PROVIDER, prefix=PFX,
                path=ASPath((7, 9)), now=1.0,
            )
            router.receive(
                neighbor_asn=8, rel=Rel.PROVIDER, prefix=PFX,
                path=ASPath((8, 9)), now=2.0,
            )
        events = capture.provenance.events(
            kind="selection", source="engine"
        )
        assert len(events) == 2
        final = events[-1]
        assert final["asn"] == 100
        assert len(final["candidates"]) == 2
        assert final["winner"] is not None
        assert final["winning_step"] in {
            "highest-localpref", "shortest-as-path", "lowest-med",
            "oldest-route", "lowest-neighbor-asn",
        }
        assert final["steps"], "steps recorded for a contested choice"
        for step in final["steps"]:
            assert set(step) == {"step", "entering", "values",
                                 "survivors"}

    def test_filtered_prefix_not_recorded(self):
        router = Router(100, RoutingPolicy())
        other = Prefix.parse("198.51.100.0/24")
        with _recording(EventRing(prefix_filter=[other])) as capture:
            router.receive(
                neighbor_asn=7, rel=Rel.PROVIDER, prefix=PFX,
                path=ASPath((7, 9)), now=1.0,
            )
        assert capture.provenance.events() == []

    def test_fastpath_records_selections(self):
        ecosystem = build_ecosystem(REEcosystemConfig(scale=0.03), seed=5)
        announcements = [
            Announcement(ecosystem.measurement_prefix,
                         ecosystem.internet2_origin, tag="re"),
            Announcement(ecosystem.measurement_prefix,
                         ecosystem.commodity_origin, tag="commodity"),
        ]
        with _recording() as capture:
            propagate_fastpath(ecosystem.topology, announcements)
        events = capture.provenance.events(
            kind="selection", source="fastpath"
        )
        assert events
        assert all(
            e["prefix"] == str(ecosystem.measurement_prefix)
            for e in events
        )


class TestRenderExplanation:
    def _inference(self, signals, configs):
        responses = []
        for signal in signals:
            kind = {"re": "re", "commodity": "commodity"}[signal]

            class R:
                responded = True
                interface_kind = kind
                origin_asn = 10
            responses.append([R()])
        signals = [
            RoundSignal(round_signal_summary(r)["signal"]) for r in responses
        ]
        return classify_prefix_rounds(PFX, 64500, signals, configs)

    def test_always_re_narrative(self):
        configs = ["4-0", "3-0", "2-0"]
        inference = self._inference(["re", "re", "re"], configs)
        text = render_explanation(inference, "surf", [], [])
        assert "Always R&E" in text
        assert "Transitions: none" in text

    def test_switch_narrative_names_step_and_evidence(self):
        configs = ["0-0", "0-1"]
        inference = self._inference(["commodity", "re"], configs)

        def selection(round_index, config, comm_len, winner):
            candidates = [
                {"index": 0, "neighbor": 1, "localpref": 100,
                 "path_len": comm_len, "path": [], "med": 0,
                 "tag": "commodity"},
                {"index": 1, "neighbor": 2, "localpref": 100,
                 "path_len": 5, "path": [], "med": 0, "tag": "re"},
            ]
            return {
                "kind": "selection", "source": "round",
                "prefix": str(PFX), "round": round_index,
                "config": config, "candidates": candidates,
                "winner": winner, "winning_step": "shortest-as-path",
            }

        signals = [
            signal_event(PFX, 0, "0-0", "commodity", 3, 3, [10]),
            signal_event(PFX, 1, "0-1", "re", 3, 3, [11]),
        ]
        selections = [
            selection(0, "0-0", 4, 0), selection(1, "0-1", 6, 1),
        ]
        text = render_explanation(inference, "surf", signals, selections)
        assert "Switch to R&E" in text
        assert "shortest-as-path" in text
        assert "round 1 (config 0-1): commodity -> re" in text
        assert "equal-localpref" in text
        assert "4 -> 6 hops" in text


class TestChromeTrace:
    def test_schema_and_nesting(self):
        reset_trace()
        with span("outer"):
            with span("inner"):
                pass
        document = chrome_trace()
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        assert {e["name"] for e in events} == {"outer", "inner"}
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= (
            outer["ts"] + outer["dur"] + 1e-3
        )
        json.dumps(document)   # loadable
        reset_trace()

    def test_foreign_subtree_rebased(self):
        """A shard tree from another process (foreign perf_counter
        base) must land inside its parent, not at a negative ts."""
        reset_trace()
        with span("round"):
            attach_completed({
                "name": "shard.0", "started_at": -50_000.0,
                "duration": 0.25,
                "children": [{"name": "walk", "started_at": -49_999.9,
                              "duration": 0.1, "children": []}],
            })
        document = chrome_trace()
        by_name = {e["name"]: e for e in document["traceEvents"]}
        assert by_name["shard.0"]["ts"] >= 0
        assert by_name["walk"]["ts"] >= by_name["shard.0"]["ts"]
        reset_trace()

    def test_write_file(self, tmp_path):
        reset_trace()
        with span("alpha"):
            pass
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path))
        assert count == 1
        document = json.loads(path.read_text())
        assert document["traceEvents"][0]["name"] == "alpha"
        reset_trace()


class TestRecorderThreadSafety:
    def test_concurrent_record(self):
        recorder = EventRing(capacity=10_000)

        def worker(tag):
            for index in range(500):
                recorder.record({"kind": "x", "tag": tag, "n": index})

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 2000
        assert recorder.dropped == 0
