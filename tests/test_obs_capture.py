"""The provenance ring and its slot (repro.obs.capture): the bounded
:class:`EventRing`, the process-wide :func:`use_ring` slot, and the
``(events, dropped)`` fold pooled workers' rings go through.

:class:`RingContract` and :class:`SlotContract` are the ring and slot
behaviours; test_obs_provenance.py runs them
(``TestRecorder``/``TestGlobalRecorder``).
"""

import io
import json

import pytest

from repro.api import ExperimentSpec
from repro.experiment.campaign import CellWork, dispatch_cells, fork_available
from repro.netutil import Prefix
from repro.obs.capture import (
    DEFAULT_CAPACITY,
    EventRing,
    active_ring,
    use_ring,
)
from repro.rng import SeedTree
from repro.seeds.selection import select_seeds
from repro.topology.re_ecosystem import build_ecosystem

PFX = Prefix.parse("192.0.2.0/24")


def _ring(**options):
    """A ring reached through the slot, as hot paths do."""
    with use_ring(EventRing(**options)):
        return active_ring()


class RingContract:
    """The event ring's behaviours, on the ring that :meth:`ring`
    builds (by default one reached through the slot)."""

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
        assert active_ring() is None

    def test_default_capacity(self):
        with use_ring(EventRing()) as ring:
            assert ring.capacity == DEFAULT_CAPACITY

    def test_enable_disable(self):
        ring = EventRing(capacity=10)
        with use_ring(ring) as installed:
            assert installed is ring
            assert active_ring() is ring
        assert active_ring() is None

    def test_use_ring_restores_previous(self):
        outer = EventRing()
        inner = EventRing()
        with use_ring(outer):
            with use_ring(inner):
                assert active_ring() is inner
            assert active_ring() is outer
        assert active_ring() is None

    def test_use_ring_keeps_empty_ring(self):
        """An empty ring is falsy (__len__ == 0); the slot must still
        serve *that* ring, not a fresh one or None."""
        mine = EventRing(prefix_filter=[PFX])
        with use_ring(mine):
            assert active_ring() is mine


class TestNesting:
    def test_nested_use_ring_restores_ring(self):
        """Installing None records nothing inside the block and gives
        the outer ring back on exit."""
        outer = EventRing()
        with use_ring(outer):
            with use_ring(None):
                assert active_ring() is None
            assert active_ring() is outer
        assert active_ring() is None


class TestChildShipMerge:
    def test_merge_reproduces_serial_ring(self):
        """Worker rings with the parent's settings, folded in order
        with ``extend(events, dropped)``, leave the parent ring exactly
        as one serial ring: same events, same drop count."""
        serial = EventRing(capacity=4)
        parent = EventRing(capacity=4)
        events = [{"kind": "x", "n": n} for n in range(10)]
        for part in (events[:3], events[3:]):
            serial.extend(part)
            worker = EventRing(parent.capacity, parent.prefix_filter)
            worker.extend(part)
            parent.extend(worker.events(), worker.dropped)
        assert parent.events() == serial.events()
        assert parent.dropped == serial.dropped == 6


def _export(ring):
    buffer = io.StringIO()
    ring.export_jsonl(buffer)
    return buffer.getvalue()


def _capture_pair(ecosystem, backend, ring=None):
    """The surf/internet2 pair as one network group sharing one
    probe-seed plan, dispatched on *backend* under *ring* (a fresh
    unfiltered one by default); returns the ring."""
    seed_plan = select_seeds(ecosystem, seed_tree=SeedTree(0).child("seeds"))
    works = [
        CellWork(
            spec=ExperimentSpec(experiment=experiment, seed=0),
            build_record=False,
        )
        for experiment in ("surf", "internet2")
    ]
    ring = EventRing() if ring is None else ring
    with use_ring(ring):
        outcomes, failures = dispatch_cells(
            works, backend=backend, network=(ecosystem, seed_plan)
        )
    assert not failures
    # Only cells run in a fork worker ship a span tree back.
    assert [outcome.trace is not None for outcome in outcomes] == [
        backend == "fork"
    ] * 2
    # The dispatcher keeps no second copy of a folded stream.
    assert all(outcome.provenance is None for outcome in outcomes)
    return ring


def _pair_ecosystem():
    return build_ecosystem(
        ExperimentSpec(scale=0.04).ecosystem_config(), seed=0
    )


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_pooled_pair_merges_capture_like_inline():
    """A pair group run on a fork worker ships both cells'
    ``(events, dropped)`` back and the parent folds them into its
    ring; the merged stream must match the inline pair's byte for
    byte."""
    ecosystem = _pair_ecosystem()
    one = _capture_pair(ecosystem, backend="inline")
    two = _capture_pair(ecosystem, backend="fork")
    assert len(one) > 0 and one.dropped == 0
    assert _export(one) == _export(two)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_pooled_pair_keeps_ring_settings():
    """Worker rings take the parent ring's prefix filter, and the fold
    carries their drop counts over: a filtered, overflowing ring ends
    with the inline ring's events and drop count."""
    ecosystem = _pair_ecosystem()
    signals = _capture_pair(ecosystem, backend="inline").events(
        kind="signal"
    )
    prefix = signals[0]["prefix"]
    one, two = (
        _capture_pair(
            ecosystem, backend,
            EventRing(capacity=5, prefix_filter=[prefix]),
        )
        for backend in ("inline", "fork")
    )
    assert one.dropped > 0
    assert {event["prefix"] for event in one.events()} == {prefix}
    assert (_export(one), one.dropped) == (_export(two), two.dropped)
