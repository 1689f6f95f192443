"""The one observability capture (repro.obs.capture): the bounded
:class:`EventRing` behind both event channels, the process-wide
:func:`use_capture` slot, and the child/shipped/merge path pooled
workers use.

:class:`RingContract` and :class:`SlotContract` are the ring and slot
behaviours shared by the provenance and frontier channels; each
channel's test module runs them with its own ``channel``
(``TestRecorder``/``TestGlobalRecorder`` in test_obs_provenance.py,
``TestFrontierTrace``/``TestSingleton`` in test_frontier.py).
"""

import io
import json

import pytest

from repro.api import ExperimentSpec
from repro.experiment.campaign import CellWork, dispatch_cells
from repro.experiment.scheduler import fork_available
from repro.netutil import Prefix
from repro.obs.capture import (
    DEFAULT_CAPACITY,
    Capture,
    EventRing,
    active_capture,
    use_capture,
)
from repro.rng import SeedTree
from repro.seeds.selection import select_seeds
from repro.topology.re_ecosystem import build_ecosystem

PFX = Prefix.parse("192.0.2.0/24")


def _ring(channel, **options):
    """A ring reached through a capture's *channel*, as hot paths do."""
    with use_capture(Capture(**{channel: EventRing(**options)})):
        return getattr(active_capture(), channel)


class RingContract:
    """Ring behaviours every event channel shares."""

    channel = "provenance"

    def test_ring_bound_and_dropped(self):
        ring = _ring(self.channel, capacity=3)
        for index in range(5):
            ring.record({"kind": "x", "n": index})
        assert len(ring) == 3
        assert ring.dropped == 2
        assert ring.total_recorded == 5
        assert [e["n"] for e in ring.events()] == [2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            _ring(self.channel, capacity=0)

    def test_prefix_filter(self):
        ring = _ring(self.channel, prefix_filter=[PFX])
        assert ring.wants(PFX)
        assert ring.wants(str(PFX))
        assert not ring.wants(Prefix.parse("198.51.100.0/24"))
        # Memoized verdicts stay correct on repeat queries.
        assert not ring.wants(Prefix.parse("198.51.100.0/24"))
        assert ring.wants(PFX)
        assert _ring(self.channel).wants(PFX)  # unfiltered

    def test_event_queries(self):
        ring = _ring(self.channel)
        ring.record({"kind": "signal", "prefix": str(PFX)})
        ring.record({"kind": "selection", "prefix": str(PFX),
                     "source": "engine"})
        assert len(ring.events(kind="signal")) == 1
        assert len(ring.events(prefix=PFX)) == 2
        assert len(ring.events(source="engine")) == 1

    def test_kind_filter_and_clear(self):
        ring = _ring(self.channel, capacity=2)
        ring.extend([{"kind": "a"}, {"kind": "b"}, {"kind": "a"}])
        assert len(ring.events(kind="a")) == 1
        assert ring.dropped == 1
        ring.clear()
        assert len(ring) == 0
        assert ring.dropped == 0

    def test_extend_appends_verbatim(self):
        ring = _ring(self.channel)
        ring.extend([{"kind": "a"}, {"kind": "b"}], dropped=3)
        assert [e["kind"] for e in ring.events()] == ["a", "b"]
        assert ring.dropped == 3

    def test_export_jsonl_sorted_keys(self):
        ring = _ring(self.channel)
        ring.record({"b": 2, "a": 1, "kind": "x"})
        buffer = io.StringIO()
        assert ring.export_jsonl(buffer) == 1
        assert buffer.getvalue() == '{"a": 1, "b": 2, "kind": "x"}\n'

    def test_export_jsonl_file(self, tmp_path):
        ring = _ring(self.channel)
        ring.extend([{"kind": "x"}, {"kind": "y"}])
        path = tmp_path / "events.jsonl"
        assert ring.export_jsonl_file(str(path)) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["x", "y"]


class SlotContract:
    """The process-wide slot, seen through one channel."""

    channel = "provenance"

    def test_disabled_by_default(self):
        assert active_capture() is None

    def test_default_capacity(self):
        with use_capture(Capture(**{self.channel: EventRing()})) as capture:
            assert getattr(capture, self.channel).capacity == \
                DEFAULT_CAPACITY

    def test_enable_disable(self):
        ring = EventRing(capacity=10)
        with use_capture(Capture(**{self.channel: ring})) as capture:
            assert getattr(active_capture(), self.channel) is ring
            assert active_capture() is capture
        assert active_capture() is None

    def test_use_capture_restores_previous(self):
        outer = Capture(**{self.channel: EventRing()})
        inner = Capture(**{self.channel: EventRing()})
        with use_capture(outer):
            with use_capture(inner):
                assert getattr(active_capture(), self.channel) is \
                    getattr(inner, self.channel)
            assert active_capture() is outer
        assert active_capture() is None

    def test_use_capture_keeps_empty_ring(self):
        """An empty ring is falsy (__len__ == 0); the slot must still
        serve *that* ring, not a fresh one or None."""
        mine = EventRing(prefix_filter=[PFX])
        with use_capture(Capture(**{self.channel: mine})):
            assert getattr(active_capture(), self.channel) is mine


class TestNesting:
    def test_nested_use_capture_restores_capture(self):
        outer = Capture(frontier=EventRing())
        inner = Capture(provenance=EventRing())
        with use_capture(outer):
            with use_capture(inner):
                assert active_capture() is inner
            assert active_capture() is outer
        assert active_capture() is None

    def test_over_fills_missing_channels(self):
        base = Capture(EventRing(), EventRing())
        mine = Capture(provenance=EventRing())
        joined = mine.over(base)
        assert joined.provenance is mine.provenance
        assert joined.frontier is base.frontier
        assert mine.over(None) is mine
        assert Capture().over(None) is None
        assert Capture().over(base) is base


class TestChildShipMerge:
    def test_child_is_fresh_with_same_settings(self):
        parent = Capture(
            EventRing(capacity=7, prefix_filter=[PFX]),
            EventRing(capacity=9),
        )
        parent.provenance.record({"kind": "x"})
        child = parent.child()
        assert len(child.provenance) == 0
        assert child.provenance.capacity == 7
        assert child.provenance.prefix_filter == frozenset([str(PFX)])
        assert child.frontier.capacity == 9
        assert Capture().child() == Capture()

    def test_merge_reproduces_serial_ring(self):
        serial = EventRing(capacity=4)
        parent = Capture(provenance=EventRing(capacity=4))
        events = [{"kind": "x", "n": n} for n in range(10)]
        for part in (events[:3], events[3:]):
            serial.extend(part)
            worker = parent.child()
            worker.provenance.extend(part)
            assert parent.merge(worker.shipped()) == {}
        assert parent.provenance.events() == serial.events()
        assert parent.provenance.dropped == serial.dropped == 6

    def test_merge_returns_channels_it_lacks(self):
        parent = Capture(frontier=EventRing())
        worker = Capture(provenance=EventRing(), frontier=EventRing())
        worker.frontier.record({"kind": "f"})
        worker.provenance.record({"kind": "p"})
        rest = parent.merge(worker.shipped())
        assert [e["kind"] for e in parent.frontier.events()] == ["f"]
        assert set(rest) == {"provenance"}
        assert rest["provenance"]["events"] == [{"kind": "p"}]
        assert parent.merge(None) == {}


def _export(ring):
    buffer = io.StringIO()
    ring.export_jsonl(buffer)
    return buffer.getvalue()


def _capture_pair(ecosystem, backend):
    """The surf/internet2 pair as one network group sharing one
    probe-seed plan, dispatched on *backend*."""
    seed_plan = select_seeds(ecosystem, seed_tree=SeedTree(0).child("seeds"))
    works = [
        CellWork(
            spec=ExperimentSpec(experiment=experiment, seed=0),
            build_record=False,
        )
        for experiment in ("surf", "internet2")
    ]
    capture = Capture(EventRing(), EventRing())
    with use_capture(capture):
        outcomes, failures = dispatch_cells(
            works, backend=backend, network=(ecosystem, seed_plan)
        )
    assert not failures
    # Only cells run in a fork worker ship a span tree back.
    assert [outcome.trace is not None for outcome in outcomes] == [
        backend == "fork"
    ] * 2
    return capture


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_pooled_pair_merges_capture_like_inline():
    """A pair group run on a fork worker ships both cells' captures
    back (Capture.shipped / Capture.merge); the merged streams must
    match the inline pair's byte for byte."""
    ecosystem = build_ecosystem(
        ExperimentSpec(scale=0.04).ecosystem_config(), seed=0
    )
    inline = _capture_pair(ecosystem, backend="inline")
    pooled = _capture_pair(ecosystem, backend="fork")
    for channel in ("provenance", "frontier"):
        one, two = getattr(inline, channel), getattr(pooled, channel)
        assert len(one) > 0 and one.dropped == 0
        assert _export(one) == _export(two)
