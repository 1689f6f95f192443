"""Tests for the bulk fastpath engine, including the engine-vs-fastpath
oracle: with age tie-breaking disabled, both engines must converge to
identical routes."""

import pytest

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.bgp.engine import PropagationEngine
from repro.bgp.fastpath import ExportTable
from repro.errors import EngineError
from repro.netutil import Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.rng import SeedTree
from repro.topology.graph import Topology

PFX = Prefix.parse("192.0.2.0/24")


def diamond():
    """1 announces; 4 hears via 2 (short) and 3 (long)."""
    topo = Topology()
    for asn in (1, 2, 3, 5, 4):
        topo.add_as(asn, "as%d" % asn)
    topo.add_provider(1, 2)
    topo.add_provider(1, 3)
    topo.add_provider(5, 3)  # make 3's side longer via 5? (unused leg)
    topo.add_provider(2, 4)
    topo.add_provider(3, 4)
    return topo


class TestFastpathBasics:
    def test_simple_reachability(self):
        topo = diamond()
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        assert result.route_at(4) is not None
        assert result.route_at(4).origin_asn == 1

    def test_shortest_path_chosen(self):
        topo = diamond()
        result = propagate_fastpath(
            topo, [Announcement(PFX, 1, prepends={3: 2})]
        )
        assert result.route_at(4).path.asns == (2, 1)

    def test_offers_contain_alternatives(self):
        topo = diamond()
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        candidates = result.candidates_at(4)
        assert {r.learned_from for r in candidates} == {2, 3}

    def test_empty_announcements_rejected(self):
        with pytest.raises(EngineError):
            propagate_fastpath(diamond(), [])

    def test_mismatched_prefixes_rejected(self):
        other = Prefix.parse("198.51.100.0/24")
        with pytest.raises(EngineError):
            propagate_fastpath(
                diamond(),
                [Announcement(PFX, 1), Announcement(other, 2)],
            )

    def test_valley_free_respected(self):
        """A route learned from a provider never flows to another
        provider."""
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(2, 1)  # 1 provides 2
        topo.add_provider(2, 3)  # 3 provides 2
        result = propagate_fastpath(topo, [Announcement(PFX, 1)])
        assert result.route_at(2) is not None
        assert result.route_at(3) is None

    def test_two_origins(self):
        topo = diamond()
        result = propagate_fastpath(
            topo,
            [
                Announcement(PFX, 1, tag="a", default_prepends=3),
                Announcement(PFX, 5, tag="b"),
            ],
        )
        # 4 hears a long path from 1 and a short one from 5 via 3.
        assert result.route_at(4).tag == "b"


class TestExportTable:
    def test_policy_edits_after_compile_are_not_seen(self):
        topo = diamond()
        exports = ExportTable(topo)
        # 4 ties on length between 2 and 3 until it prefers 3.
        topo.node(4).policy.set_neighbor_localpref(3, 500)
        announcement = Announcement(PFX, 1)
        stale = propagate_fastpath(topo, [announcement], exports=exports)
        assert stale.route_at(4).path.asns == (2, 1)
        fresh = propagate_fastpath(topo, [announcement])
        assert fresh.route_at(4).path.asns == (3, 1)

    def test_tag_filter_sets_are_copied(self):
        topo = diamond()
        topo.node(1).policy.no_export_tags[2] = set()
        exports = ExportTable(topo)
        topo.node(1).policy.no_export_tags[2].add("x")  # in-place edit
        announcement = Announcement(PFX, 1, tag="x")
        stale = propagate_fastpath(topo, [announcement], exports=exports)
        assert stale.route_at(2).path.asns == (1,)
        fresh = propagate_fastpath(topo, [announcement])
        assert fresh.route_at(2).path.asns == (4, 3, 1)

    def test_table_from_another_topology_rejected(self):
        exports = ExportTable(diamond())
        with pytest.raises(EngineError):
            propagate_fastpath(
                diamond(), [Announcement(PFX, 1)], exports=exports
            )

    @pytest.mark.parametrize("announcements, counts", [
        ([Announcement(PFX, 1, prepends={3: 2})], (5, 2, 4)),
        (
            [Announcement(PFX, 1, tag="a", default_prepends=3),
             Announcement(PFX, 5, tag="b")],
            (5, 3, 4),
        ),
    ])
    def test_counters_pinned(self, announcements, counts):
        """Iterations count dequeues; each selection after a changed
        offer is one decision-process lookup, the first per receiver a
        miss."""
        registry = MetricsRegistry()
        with use_registry(registry):
            propagate_fastpath(diamond(), announcements)
        counters = registry.snapshot()["counters"]
        assert (
            counters["fastpath.iterations"],
            counters["fastpath.decision_cache_hits"],
            counters["fastpath.decision_cache_misses"],
        ) == counts


def _receivers(exports, asn):
    return tuple(arc[0] for arc in exports.arcs[asn])


class TestSinks:
    """A sink has no customer and no fabric-peer session; a table
    compiled for observers drops the arcs into every other sink."""

    def topology(self):
        """2 provides 1, 3 and 4 peer over the fabric, 1 and 5 peer
        plainly, and 4 provides 5."""
        topo = Topology()
        for asn in (1, 2, 3, 4, 5):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 2)
        topo.add_peering(3, 4, fabric=True)
        topo.add_peering(1, 5)
        topo.add_provider(5, 4)
        return topo

    def test_customer_or_fabric_peer_arc_makes_a_non_sink(self):
        sinks = ExportTable(self.topology()).sinks
        assert 2 not in sinks  # a customer
        assert 3 not in sinks  # a fabric peer only
        assert 4 not in sinks

    def test_provider_and_plain_peer_arcs_only_make_a_sink(self):
        assert ExportTable(self.topology()).sinks == {1, 5}

    def test_full_table_keeps_every_arc(self):
        exports = ExportTable(self.topology())
        assert _receivers(exports, 2) == (1,)
        assert _receivers(exports, 4) == (3, 5)

    def test_arcs_into_unobserved_sinks_are_dropped(self):
        exports = ExportTable(self.topology(), observers=[3])
        assert _receivers(exports, 2) == ()
        assert _receivers(exports, 4) == (3,)
        # Sinks keep their outgoing arcs, so a sink origin announces.
        assert _receivers(exports, 1) == (2,)
        result = propagate_fastpath(
            exports.topology, [Announcement(PFX, 1)], exports=exports
        )
        assert result.route_at(2).path.asns == (1,)
        assert result.route_at(5) is None

    def test_observer_that_is_a_sink_keeps_its_inbound_arcs(self):
        exports = ExportTable(self.topology(), observers=[5])
        assert _receivers(exports, 1) == (2, 5)
        assert _receivers(exports, 4) == (3, 5)
        result = propagate_fastpath(
            exports.topology, [Announcement(PFX, 3)], exports=exports
        )
        assert result.route_at(5).path.asns == (4, 3)


class TestEngineOracle:
    """The event-driven engine and the fastpath must agree at fixpoint
    when route age cannot influence selection."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("prepends", [0, 2])
    def test_agreement_on_ecosystem(self, seed, prepends):
        eco = build_ecosystem(REEcosystemConfig(scale=0.04), seed=seed)
        topo = eco.topology
        for node in topo.ases():
            node.policy.age_tiebreak = False
        announcements = [
            Announcement(
                eco.measurement_prefix, eco.internet2_origin,
                default_prepends=prepends, tag="re",
            ),
            Announcement(
                eco.measurement_prefix, eco.commodity_origin,
                tag="commodity",
            ),
        ]
        fast = propagate_fastpath(topo, announcements)

        engine = PropagationEngine(topo, SeedTree(seed))
        engine.announce(eco.commodity_origin, eco.measurement_prefix,
                        tag="commodity")
        engine.run_to_fixpoint()
        engine.announce(eco.internet2_origin, eco.measurement_prefix,
                        default_prepends=prepends, tag="re")
        engine.run_to_fixpoint()

        for asn in topo.nodes:
            a = engine.best_route(asn, eco.measurement_prefix)
            b = fast.route_at(asn)
            key_a = (a.tag, a.path.asns) if a else None
            key_b = (b.tag, b.path.asns) if b else None
            assert key_a == key_b, "AS %d: %r != %r" % (asn, key_a, key_b)

    def test_agreement_is_route_type_stable_with_age(self):
        """Even with age tie-breaking on, the *route type* (R&E vs
        commodity) agrees wherever localpref or length decides."""
        eco = build_ecosystem(REEcosystemConfig(scale=0.04), seed=5)
        topo = eco.topology
        announcements = [
            Announcement(eco.measurement_prefix, eco.internet2_origin,
                         tag="re"),
            Announcement(eco.measurement_prefix, eco.commodity_origin,
                         tag="commodity"),
        ]
        fast = propagate_fastpath(topo, announcements)
        engine = PropagationEngine(topo, SeedTree(5))
        engine.announce(eco.commodity_origin, eco.measurement_prefix,
                        tag="commodity")
        engine.announce(eco.internet2_origin, eco.measurement_prefix,
                        tag="re")
        engine.run_to_fixpoint()
        differing_type = 0
        total = 0
        for asn in topo.nodes:
            a = engine.best_route(asn, eco.measurement_prefix)
            b = fast.route_at(asn)
            if a is None or b is None:
                assert (a is None) == (b is None)
                continue
            total += 1
            if a.tag != b.tag:
                differing_type += 1
        # Ties broken differently are possible but must be rare.
        assert differing_type <= total * 0.05
