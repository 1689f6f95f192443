"""Tests for the measurement host, the return-path walk and its
resolved catchment, and the prober."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Announcement, Prefix, propagate_fastpath
from repro.errors import ExperimentError
from repro.netutil import parse_address
from repro.probing import (
    ForwardingOutcome,
    MeasurementHost,
    RibSnapshot,
    VLANInterface,
    forwarding,
)
from repro.probing.forwarding import MAX_AS_HOPS
from repro.probing.host import DEFAULT_SOURCE
from repro.probing.prober import Prober
from repro.rng import SeedTree
from repro.seeds.selection import ProbeMethod, ProbeTarget
from repro.topology.graph import Topology
from repro.topology.re_config import SystemPlan

MEAS = Prefix.parse("163.253.63.0/24")


def dual_homed_topology():
    """member(5) homed to re-origin(1) and commodity chain 3->2."""
    topo = Topology()
    for asn in (1, 2, 3, 5):
        topo.add_as(asn, "as%d" % asn)
    topo.add_provider(5, 1)
    topo.add_provider(5, 3)
    topo.add_provider(3, 2)
    return topo


class TestMeasurementHost:
    def test_source_must_be_inside_prefix(self):
        with pytest.raises(ExperimentError):
            MeasurementHost(MEAS, parse_address("10.0.0.1"))

    def test_default_source_inside(self):
        host = MeasurementHost(MEAS)
        assert MEAS.contains_address(DEFAULT_SOURCE)

    def test_attach_and_lookup(self):
        host = MeasurementHost(MEAS)
        iface = VLANInterface("v1", "re", "test")
        host.attach(1, iface)
        assert host.interface_for_origin(1) is iface
        assert host.origin_asns() == [1]

    def test_duplicate_attach_rejected(self):
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "test"))
        with pytest.raises(ExperimentError):
            host.attach(1, VLANInterface("v2", "commodity", "test"))

    def test_unknown_origin(self):
        with pytest.raises(ExperimentError):
            MeasurementHost(MEAS).interface_for_origin(9)

    def test_for_experiment_surf_uses_tunnel(self):
        host = MeasurementHost.for_experiment(MEAS, 1125, 396955, "surf")
        assert host.interface_for_origin(1125).kind == "re"
        assert "tunnel" in host.interface_for_origin(1125).description.lower()
        assert host.interface_for_origin(396955).kind == "commodity"

    def test_for_experiment_internet2_uses_vrf(self):
        host = MeasurementHost.for_experiment(MEAS, 11537, 396955,
                                              "internet2")
        assert "VRF" in host.interface_for_origin(11537).description


def _walk(snapshot, start, origins):
    """The snapshot's hop-by-hop walk, checked against its catchment."""
    path = snapshot.walk(start, origins)
    assert snapshot.resolve(origins).lookup(start) == (
        path.outcome, path.origin_asn, len(path.hops)
    )
    return path


class TestWalker:
    def _walk(self, topo, announcements, start, origins):
        result = propagate_fastpath(topo, announcements)
        return _walk(
            RibSnapshot.capture(topo, result.route_at, MEAS), start, origins
        )

    def test_walk_reaches_origin(self):
        topo = dual_homed_topology()
        path = self._walk(topo, [Announcement(MEAS, 1, tag="re")], 5, {1, 2})
        assert path.outcome is ForwardingOutcome.DELIVERED
        assert path.origin_asn == 1
        assert path.hops == [5, 1]

    def test_walk_follows_member_choice(self):
        topo = dual_homed_topology()
        topo.node(5).policy.set_neighbor_localpref(3, 150)
        topo.node(5).policy.set_neighbor_localpref(1, 100)
        path = self._walk(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
            5, {1, 2},
        )
        assert path.origin_asn == 2
        assert path.hops == [5, 3, 2]

    def test_intermediate_policy_dominates(self):
        """§3.4: the member may prefer commodity, but once traffic
        reaches a transit, the transit's own choice rules."""
        topo = dual_homed_topology()
        # Give 3 its own link to 1 and make it prefer that (R&E) side.
        topo.add_peering(3, 1)
        topo.node(3).policy.set_neighbor_localpref(1, 300)
        topo.node(5).policy.set_neighbor_localpref(3, 150)  # member: comm
        path = self._walk(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
            5, {1, 2},
        )
        assert path.hops[0:2] == [5, 3]
        assert path.origin_asn == 1  # transit pulled it back to R&E

    def test_no_route_no_default(self):
        topo = dual_homed_topology()
        path = self._walk(topo, [Announcement(MEAS, 2, tag="c")], 1, {2})
        # 1 never learns the route (2's announcement can't climb to 1).
        assert path.outcome is ForwardingOutcome.NO_ROUTE

    def test_default_route_rescues(self):
        topo = dual_homed_topology()
        topo.node(1).policy.default_route_via = 5
        # 1 has no route but defaults to its customer 5, which routes on.
        result = propagate_fastpath(
            topo, [Announcement(MEAS, 2, tag="c")]
        )
        path = _walk(RibSnapshot.capture(topo, result.route_at, MEAS), 1, {2})
        assert path.outcome is ForwardingOutcome.DELIVERED
        assert path.used_default

    def test_default_loop_detected(self):
        topo = Topology()
        topo.add_as(1, "a")
        topo.add_as(2, "b")
        topo.add_peering(1, 2)
        topo.node(1).policy.default_route_via = 2
        topo.node(2).policy.default_route_via = 1
        snapshot = RibSnapshot.capture(topo, lambda asn: None, MEAS)
        path = _walk(snapshot, 1, {99})
        assert path.outcome is ForwardingOutcome.LOOP


#: First ASN of the generated chains, clear of the small random maps.
CHAIN_BASE = 100


@st.composite
def forwarding_states(draw):
    """A snapshot's raw forwarding state plus an origin set.

    Small random maps over few ASNs give self-loops, longer cycles,
    default routes, local holders that are not origins, next hops into
    ASes with no state, and origins that hold routes themselves.  An
    optional chain from ``CHAIN_BASE`` runs up to a few hops past
    ``MAX_AS_HOPS`` and ends at an origin, in a cycle, or nowhere.
    """
    size = draw(st.integers(min_value=1, max_value=10))
    holders = st.integers(min_value=1, max_value=size)
    targets = st.integers(min_value=1, max_value=size + 3)
    next_hop = draw(st.dictionaries(holders, targets))
    default_via = draw(st.dictionaries(holders, targets))
    local = draw(st.frozensets(holders))
    origins = set(draw(st.frozensets(targets, max_size=3)))
    length = draw(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=MAX_AS_HOPS - 2, max_value=MAX_AS_HOPS + 3),
    ))
    if length:
        for offset in range(length):
            next_hop[CHAIN_BASE + offset] = CHAIN_BASE + offset + 1
        end = CHAIN_BASE + length
        shape = draw(st.sampled_from(("origin", "cycle", "nowhere")))
        if shape == "origin":
            origins.add(end)
        elif shape == "cycle":
            next_hop[end] = CHAIN_BASE + draw(
                st.integers(min_value=0, max_value=length)
            )
    return (
        RibSnapshot(MEAS, next_hop, local, default_via),
        frozenset(origins),
    )


class TestCatchment:
    @settings(max_examples=300, deadline=None)
    @given(forwarding_states())
    def test_lookup_matches_walk_for_every_start(self, state):
        snapshot, origins = state
        catchment = snapshot.resolve(origins)
        starts = (
            set(snapshot.next_hop) | set(snapshot.next_hop.values())
            | set(snapshot.default_via) | set(snapshot.default_via.values())
            | snapshot.local | origins | {0}
        )
        for start in starts:
            path = snapshot.walk(start, origins)
            assert catchment.lookup(start) == (
                path.outcome, path.origin_asn, len(path.hops)
            ), start

    def _resolve(self, next_hop=None, local=(), default_via=None,
                 origins=()):
        snapshot = RibSnapshot(
            MEAS, next_hop or {}, frozenset(local), default_via or {},
        )
        return snapshot.resolve(origins).lookup

    def test_loop_counts_the_repeated_hop(self):
        # 1 -> 2 -> 3 -> 2: a cycle of two, entered from a tail of one.
        lookup = self._resolve(next_hop={1: 2, 2: 3, 3: 2})
        assert lookup(2) == (ForwardingOutcome.LOOP, None, 3)
        assert lookup(3) == (ForwardingOutcome.LOOP, None, 3)
        assert lookup(1) == (ForwardingOutcome.LOOP, None, 4)
        assert self._resolve(next_hop={7: 7})(7) == (
            ForwardingOutcome.LOOP, None, 2
        )

    def test_origin_check_precedes_its_own_route(self):
        lookup = self._resolve(next_hop={1: 2, 2: 3}, origins={2})
        assert lookup(2) == (ForwardingOutcome.DELIVERED, 2, 1)
        assert lookup(1) == (ForwardingOutcome.DELIVERED, 2, 2)

    def test_local_holder_and_stateless_ases(self):
        lookup = self._resolve(next_hop={1: 2, 3: 4}, local={2})
        assert lookup(1) == (ForwardingOutcome.DELIVERED, 2, 2)
        assert lookup(3) == (ForwardingOutcome.NO_ROUTE, None, 2)
        assert lookup(4) == (ForwardingOutcome.NO_ROUTE, None, 1)
        assert lookup(99) == (ForwardingOutcome.NO_ROUTE, None, 1)

    def test_paths_past_the_hop_cap_become_loops(self):
        chain = {asn: asn + 1 for asn in range(1, MAX_AS_HOPS + 1)}
        lookup = self._resolve(next_hop=chain, origins={MAX_AS_HOPS + 1})
        # Starting at 2 the origin is the 64th AS: still delivered.
        assert lookup(2) == (ForwardingOutcome.DELIVERED,
                             MAX_AS_HOPS + 1, MAX_AS_HOPS)
        assert lookup(1) == (ForwardingOutcome.LOOP, None, MAX_AS_HOPS + 1)
        chain[MAX_AS_HOPS + 1] = 1
        lookup = self._resolve(next_hop=chain)
        assert lookup(1) == (ForwardingOutcome.LOOP, None, MAX_AS_HOPS + 1)


class TestProber:
    def _setup(self):
        topo = dual_homed_topology()
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "re"))
        host.attach(2, VLANInterface("v2", "commodity", "comm"))
        address = MEAS.address_at(10)  # any address works as a target id
        target_prefix = Prefix.parse("198.51.100.0/24")
        address = target_prefix.address_at(10)
        system = SystemPlan(
            address=address, prefix=target_prefix, attached_asn=5,
            seed_source="isi", loss_probability=0.0,
        )
        target = ProbeTarget(
            address=address, prefix=target_prefix,
            method=ProbeMethod.ICMP_ECHO,
        )
        result = propagate_fastpath(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
        )
        prober = Prober(topo, host, {address: system})
        return prober, {target_prefix: [target]}, result.route_at

    def test_round_records_interface(self):
        prober, targets, rib = self._setup()
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=100.0
        )
        prefix = next(iter(targets))
        responses = round_result.responses[prefix]
        assert len(responses) == 1
        assert responses[0].responded
        assert responses[0].interface_kind == "re"
        assert responses[0].rtt_ms > 0
        assert round_result.interfaces_seen(prefix) == ["re"]

    def test_pacing_sets_duration(self):
        prober, targets, rib = self._setup()
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert round_result.duration == pytest.approx(
            round_result.probe_count() / prober.pps
        )

    def test_lossy_system_can_miss(self):
        prober, targets, rib = self._setup()
        prefix = next(iter(targets))
        address = targets[prefix][0].address
        prober.systems_by_address[address].loss_probability = 1.0
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert not round_result.responses[prefix][0].responded
        assert round_result.response_count() == 0

    def test_unknown_address_no_response(self):
        prober, targets, rib = self._setup()
        prefix = next(iter(targets))
        extra = ProbeTarget(
            address=prefix.address_at(99), prefix=prefix,
            method=ProbeMethod.ICMP_ECHO,
        )
        targets[prefix].append(extra)
        round_result = prober.probe_round(
            "0-0", targets, rib, SeedTree(0), now=0.0
        )
        assert round_result.response_count() == 1

    def test_rejects_bad_pps(self):
        topo = dual_homed_topology()
        host = MeasurementHost(MEAS)
        with pytest.raises(ExperimentError):
            Prober(topo, host, {}, pps=0)


class TestRibSnapshot:
    def _topology(self):
        topo = Topology()
        for asn in (1, 2, 3, 5):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(5, 1)
        topo.add_provider(5, 3)
        topo.add_provider(3, 2)
        return topo

    def test_snapshot_walk_matches_live_walk(self):
        topo = self._topology()
        topo.node(3).policy.default_route_via = 2
        result = propagate_fastpath(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
        )
        snapshot = RibSnapshot.capture(topo, result.route_at, MEAS)

        def live_step(asn):
            # The live RIB's forwarding state, classified as _walk wants.
            route = result.route_at(asn)
            if route is None:
                default_via = topo.node(asn).policy.default_route_via
                if default_via is None:
                    return forwarding._NONE, None
                return forwarding._DEFAULT, default_via
            if route.learned_from is None:
                return forwarding._LOCAL, None
            return forwarding._ROUTE, route.learned_from

        for origins in ({1, 2}, {2}, {99}):
            catchment = snapshot.resolve(origins)
            for start in (1, 2, 3, 5):
                live = forwarding._walk(live_step, start, origins)
                snap = snapshot.walk(start, origins)
                assert (live.outcome, live.origin_asn, live.hops,
                        live.used_default) == \
                       (snap.outcome, snap.origin_asn, snap.hops,
                        snap.used_default)
                assert catchment.lookup(start) == \
                    (live.outcome, live.origin_asn, len(live.hops))

    def test_snapshot_is_compact(self):
        """The per-round payload must not drag the topology along."""
        import pickle

        topo = self._topology()
        result = propagate_fastpath(topo, [Announcement(MEAS, 1, tag="re")])
        snapshot = RibSnapshot.capture(topo, result.route_at, MEAS)
        assert len(pickle.dumps(snapshot)) < 4096
        catchment = snapshot.resolve({1})
        assert len(pickle.dumps(catchment)) < 4096


def test_prefix_streams_depend_only_on_round_seed_and_prefix():
    """The same (round seed, prefix) pair yields the same stream
    whichever prefixes a round probes before it."""
    from repro.probing.prober import prefix_stream_rng

    target_prefix = Prefix.parse("198.51.100.0/24")
    draws = [
        prefix_stream_rng(1234, target_prefix).random() for _ in range(3)
    ]
    assert draws[0] == draws[1] == draws[2]
    other = prefix_stream_rng(1234, MEAS).random()
    assert other != draws[0]
