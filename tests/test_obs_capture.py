"""The one observability capture (repro.obs.capture): the bounded
:class:`EventRing` behind the provenance channel, the process-wide
:func:`use_capture` slot, and the child/shipped/merge path pooled
workers use.

:class:`RingContract` and :class:`SlotContract` are the ring and slot
behaviours; test_obs_provenance.py runs them
(``TestRecorder``/``TestGlobalRecorder``), and test_frontier.py runs
them on a pooled cell worker's ring and on a frontier-free capture.
"""

import io
import json

import pytest

from repro.api import ExperimentSpec
from repro.experiment.campaign import CellWork, dispatch_cells, fork_available
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


def _ring(**options):
    """A ring reached through the active capture, as hot paths do."""
    with use_capture(Capture(EventRing(**options))):
        return active_capture().provenance


class RingContract:
    """The event ring's behaviours, on the ring that :meth:`ring`
    builds (by default one reached through the active capture)."""

    ring = staticmethod(_ring)

    def test_ring_bound_and_dropped(self):
        ring = self.ring(capacity=3)
        for index in range(5):
            ring.record({"kind": "x", "n": index})
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e["n"] for e in ring.events()] == [2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            self.ring(capacity=0)

    def test_prefix_filter(self):
        ring = self.ring(prefix_filter=[PFX])
        assert ring.wants(PFX)
        assert ring.wants(str(PFX))
        assert not ring.wants(Prefix.parse("198.51.100.0/24"))
        # Memoized verdicts stay correct on repeat queries.
        assert not ring.wants(Prefix.parse("198.51.100.0/24"))
        assert ring.wants(PFX)
        assert self.ring().wants(PFX)  # unfiltered

    def test_event_queries(self):
        ring = self.ring()
        ring.record({"kind": "signal", "prefix": str(PFX)})
        ring.record({"kind": "selection", "prefix": str(PFX),
                     "source": "engine"})
        assert len(ring.events(kind="signal")) == 1
        assert len(ring.events(prefix=PFX)) == 2
        assert len(ring.events(source="engine")) == 1

    def test_kind_filter_and_clear(self):
        ring = self.ring(capacity=2)
        ring.extend([{"kind": "a"}, {"kind": "b"}, {"kind": "a"}])
        assert len(ring.events(kind="a")) == 1
        assert ring.dropped == 1
        ring.clear()
        assert len(ring) == 0
        assert ring.dropped == 0

    def test_extend_appends_verbatim(self):
        ring = self.ring()
        ring.extend([{"kind": "a"}, {"kind": "b"}], dropped=3)
        assert [e["kind"] for e in ring.events()] == ["a", "b"]
        assert ring.dropped == 3

    def test_export_jsonl_sorted_keys(self):
        ring = self.ring()
        ring.record({"b": 2, "a": 1, "kind": "x"})
        buffer = io.StringIO()
        assert ring.export_jsonl(buffer) == 1
        assert buffer.getvalue() == '{"a": 1, "b": 2, "kind": "x"}\n'

    def test_export_jsonl_file(self, tmp_path):
        ring = self.ring()
        ring.extend([{"kind": "x"}, {"kind": "y"}])
        path = tmp_path / "events.jsonl"
        assert ring.export_jsonl_file(str(path)) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["x", "y"]


class SlotContract:
    """The process-wide slot."""

    def test_disabled_by_default(self):
        assert active_capture() is None

    def test_default_capacity(self):
        with use_capture(Capture(EventRing())) as capture:
            assert capture.provenance.capacity == DEFAULT_CAPACITY

    def test_enable_disable(self):
        ring = EventRing(capacity=10)
        with use_capture(Capture(ring)) as capture:
            assert active_capture().provenance is ring
            assert active_capture() is capture
        assert active_capture() is None

    def test_use_capture_restores_previous(self):
        outer = Capture(EventRing())
        inner = Capture(EventRing())
        with use_capture(outer):
            with use_capture(inner):
                assert active_capture().provenance is inner.provenance
            assert active_capture() is outer
        assert active_capture() is None

    def test_use_capture_keeps_empty_ring(self):
        """An empty ring is falsy (__len__ == 0); the slot must still
        serve *that* ring, not a fresh one or None."""
        mine = EventRing(prefix_filter=[PFX])
        with use_capture(Capture(mine)):
            assert active_capture().provenance is mine


class TestNesting:
    def test_nested_use_capture_restores_capture(self):
        outer = Capture()
        inner = Capture(EventRing())
        with use_capture(outer):
            with use_capture(inner):
                assert active_capture() is inner
            assert active_capture() is outer
        assert active_capture() is None

    def test_over_fills_missing_channels(self):
        """A capture holding the channel wins; an empty one yields to
        *base*, keeping the disabled slot when *base* is None."""
        base = Capture(EventRing())
        mine = Capture(EventRing())
        assert mine.over(base) is mine
        assert mine.over(None) is mine
        assert Capture().over(None) is None
        assert Capture().over(base) is base


class TestChildShipMerge:
    def test_child_is_fresh_with_same_settings(self):
        parent = Capture(EventRing(capacity=7, prefix_filter=[PFX]))
        parent.provenance.record({"kind": "x"})
        child = parent.child()
        assert len(child.provenance) == 0
        assert child.provenance.capacity == 7
        assert child.provenance.prefix_filter == frozenset([str(PFX)])
        assert Capture().child() == Capture()
        assert Capture().shipped() is None

    def test_merge_reproduces_serial_ring(self):
        serial = EventRing(capacity=4)
        parent = Capture(provenance=EventRing(capacity=4))
        events = [{"kind": "x", "n": n} for n in range(10)]
        for part in (events[:3], events[3:]):
            serial.extend(part)
            worker = parent.child()
            worker.provenance.extend(part)
            assert parent.merge(worker.shipped()) is None
        assert parent.provenance.events() == serial.events()
        assert parent.provenance.dropped == serial.dropped == 6

    def test_merge_returns_channels_it_lacks(self):
        """A capture without the channel hands the payload back (the
        cell's run-local provenance, kept for its artifact)."""
        worker = Capture(EventRing())
        worker.provenance.record({"kind": "p"})
        payload = worker.shipped()
        assert Capture().merge(payload) is payload
        assert payload["events"] == [{"kind": "p"}]
        assert Capture(EventRing()).merge(None) is None


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
    capture = Capture(EventRing())
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
    one, two = inline.provenance, pooled.provenance
    assert len(one) > 0 and one.dropped == 0
    assert _export(one) == _export(two)
