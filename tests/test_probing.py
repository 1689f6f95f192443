"""Tests for the measurement host, the return-path walk and its
resolved catchment, and the prober."""

import random
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import Announcement, Prefix, propagate_fastpath
from repro.errors import ExperimentError
from repro.netutil import parse_address
from repro.probing import (
    ForwardingOutcome,
    LiveCatchment,
    MeasurementHost,
    RibSnapshot,
    VLANInterface,
    forwarding,
)
from repro.probing.forwarding import MAX_AS_HOPS
from repro.probing.host import DEFAULT_SOURCE
from repro.obs.provenance import (
    KIND_BITS,
    SIGNAL_LABELS,
    round_signal_summary,
    signal_from_kinds,
)
from repro.probing.prober import ProbePlan, ProbeResponse, Prober
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


@dataclass
class ReturnPath:
    """The walk taken by a response."""

    outcome: ForwardingOutcome
    origin_asn: Optional[int]     # terminating announcement origin
    hops: List[int]               # AS-level path, starting AS first
    used_default: bool = False    # a default route carried some hop


def walk(
    step_of: Callable[[int], Tuple[int, Optional[int]]],
    start_asn: int,
    origin_asns: Set[int],
) -> ReturnPath:
    """Walk from *start_asn* over a per-AS forwarding step function.

    The reference semantics of a return path, hop by hop.
    ``step_of(asn)`` classifies the AS's forwarding state as one of
    ``(_LOCAL, None)``, ``(_ROUTE, next_hop)``, ``(_DEFAULT, next_hop)``
    or ``(_NONE, None)``.  :meth:`RibSnapshot.resolve` must agree with
    this walk for every start AS.
    """
    hops: List[int] = [start_asn]
    current = start_asn
    used_default = False
    visited = {start_asn}
    for _ in range(MAX_AS_HOPS):
        if current in origin_asns:
            return ReturnPath(ForwardingOutcome.DELIVERED, current, hops,
                              used_default)
        kind, next_hop = step_of(current)
        if kind == forwarding._NONE:
            return ReturnPath(ForwardingOutcome.NO_ROUTE, None, hops,
                              used_default)
        if kind == forwarding._LOCAL:
            # Locally originated at a non-origin AS should not happen
            # for the measurement prefix; treat as delivery point.
            return ReturnPath(ForwardingOutcome.DELIVERED, current, hops,
                              used_default)
        if kind == forwarding._DEFAULT:
            used_default = True
        if next_hop in visited:
            return ReturnPath(ForwardingOutcome.LOOP, None,
                              hops + [next_hop], used_default)
        visited.add(next_hop)
        hops.append(next_hop)
        current = next_hop
    return ReturnPath(ForwardingOutcome.LOOP, None, hops, used_default)


def rib_step(topology, best_route_of):
    """The step function :func:`walk` takes, read from a live RIB:
    each AS's best route (*best_route_of*) or, without one, its
    policy's default route."""
    def step_of(asn):
        route = best_route_of(asn)
        if route is None:
            default_via = topology.node(asn).policy.default_route_via
            if default_via is None:
                return forwarding._NONE, None
            return forwarding._DEFAULT, default_via
        if route.learned_from is None:
            return forwarding._LOCAL, None
        return forwarding._ROUTE, route.learned_from
    return step_of


def snapshot_walk(snapshot, start_asn, origin_asns) -> ReturnPath:
    """The hop-by-hop walk from *start_asn* over *snapshot*."""
    return walk(snapshot._step_of, start_asn, origin_asns)


def _walk(snapshot, start, origins):
    """The snapshot's hop-by-hop walk, checked against its catchment."""
    path = snapshot_walk(snapshot, start, origins)
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
            path = snapshot_walk(snapshot, start, origins)
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
        prober = Prober(host)
        targets = {target_prefix: [target]}
        catchment = host.live_catchment(topo, result.route_at)
        return prober, targets, {address: system}, catchment

    def test_round_records_interface(self):
        prober, targets, systems, catchment = self._setup()
        round_result = prober.probe_round(
            "0-0", ProbePlan(targets, systems), catchment, SeedTree(0), now=100.0
        )
        prefix = next(iter(targets))
        responses = round_result.responses_of(prefix)
        assert len(responses) == 1
        assert responses[0].responded
        assert responses[0].interface_kind == "re"
        assert responses[0].rtt_ms > 0
        assert round_result.interfaces_seen(prefix) == ["re"]

    def test_pacing_sets_duration(self):
        prober, targets, systems, catchment = self._setup()
        round_result = prober.probe_round(
            "0-0", ProbePlan(targets, systems), catchment, SeedTree(0), now=0.0
        )
        assert round_result.duration == pytest.approx(
            round_result.probe_count() / prober.pps
        )

    def test_lossy_system_can_miss(self):
        prober, targets, systems, catchment = self._setup()
        prefix = next(iter(targets))
        address = targets[prefix][0].address
        # The plan holds references: a change made after compiling it
        # is what the round sees.
        plan = ProbePlan(targets, systems)
        systems[address].loss_probability = 1.0
        round_result = prober.probe_round(
            "0-0", plan, catchment, SeedTree(0), now=0.0
        )
        assert not round_result.responses_of(prefix)[0].responded
        assert round_result.response_count() == 0

    def test_unknown_address_no_response(self):
        prober, targets, systems, catchment = self._setup()
        prefix = next(iter(targets))
        extra = ProbeTarget(
            address=prefix.address_at(99), prefix=prefix,
            method=ProbeMethod.ICMP_ECHO,
        )
        targets[prefix].append(extra)
        round_result = prober.probe_round(
            "0-0", ProbePlan(targets, systems), catchment, SeedTree(0), now=0.0
        )
        assert round_result.response_count() == 1

    def test_rejects_bad_pps(self):
        host = MeasurementHost(MEAS)
        with pytest.raises(ExperimentError):
            Prober(host, pps=0)

    def test_delivery_to_an_origin_without_interface_raises(self):
        prober, targets, systems, catchment = self._setup()
        host = MeasurementHost(MEAS)
        host.attach(2, VLANInterface("v2", "commodity", "comm"))
        prober.host = host
        with pytest.raises(ExperimentError, match="origin AS 1"):
            prober.probe_round(
                "0-0", ProbePlan(targets, systems), catchment, SeedTree(0),
                now=0.0,
            )


def reference_round(targets_by_prefix, systems, catchment, host,
                    round_seed, now, pps, lossy):
    """The per-probe prober the columnar round must match: one
    ``random.Random(round_seed)`` per round, of which probe *j* takes
    draws ``2j`` (loss) and ``2j + 1`` (RTT) whether or not it is sent,
    one catchment lookup and one :class:`ProbeResponse` per probe."""
    rng = random.Random(round_seed)
    responses = {}
    index = 0
    for prefix in sorted(targets_by_prefix,
                         key=lambda p: (p.network, p.length)):
        out = responses.setdefault(prefix, [])
        for target in targets_by_prefix[prefix]:
            tx = now + index * (1.0 / pps)
            index += 1
            loss_draw, rtt_draw = rng.random(), rng.random()
            system = systems.get(target.address)
            if (prefix in lossy or system is None or not system.alive
                    or loss_draw < system.loss_probability):
                out.append(ProbeResponse(target, tx, False))
                continue
            outcome, origin, hops = catchment.lookup(system.attached_asn)
            if outcome is not ForwardingOutcome.DELIVERED:
                out.append(ProbeResponse(target, tx, False, outcome=outcome,
                                         hops=hops))
                continue
            rtt = 4.0 * hops + 1.0 + 24.0 * rtt_draw
            out.append(ProbeResponse(
                target, tx, True, host.interface_for_origin(origin).kind,
                origin, rtt, outcome, hops,
            ))
    return responses


@st.composite
def probe_rounds(draw):
    """A round to probe: forwarding state toward origins 1 (R&E) and 2
    (commodity), prefixes with targets (some at unknown addresses) on
    live or dead systems with loss in {0, p, 1}, a blanked subset, and
    a round seed."""
    asns = st.integers(min_value=1, max_value=7)
    snapshot = RibSnapshot(
        MEAS,
        draw(st.dictionaries(asns, asns)),
        draw(st.frozensets(asns, max_size=1)),
        draw(st.dictionaries(asns, asns, max_size=2)),
    )
    p = draw(st.floats(min_value=0.01, max_value=0.99))
    targets_by_prefix = {}
    systems = {}
    blocks = draw(st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=5,
        unique=True,
    ))
    for block in blocks:
        prefix = Prefix.parse("198.51.%d.0/24" % block)
        targets = []
        for host_index in range(draw(st.integers(min_value=0, max_value=4))):
            address = prefix.address_at(host_index + 1)
            targets.append(ProbeTarget(
                address=address, prefix=prefix,
                method=ProbeMethod.ICMP_ECHO,
            ))
            if draw(st.booleans()) or draw(st.booleans()):
                systems[address] = SystemPlan(
                    address=address, prefix=prefix,
                    attached_asn=draw(asns), seed_source="isi",
                    alive=draw(st.booleans()) or draw(st.booleans()),
                    loss_probability=draw(st.sampled_from((0.0, p, 1.0))),
                )
        targets_by_prefix[prefix] = targets
    lossy = frozenset(draw(st.sets(st.sampled_from(sorted(
        targets_by_prefix, key=lambda q: (q.network, q.length)
    )))))
    seed = draw(st.integers(min_value=0, max_value=2 ** 64 - 1))
    return snapshot, targets_by_prefix, systems, lossy, seed


class TestColumnarRound:
    def _host(self):
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "re"))
        host.attach(2, VLANInterface("v2", "commodity", "comm"))
        return host

    @settings(max_examples=200, deadline=None)
    @given(probe_rounds())
    def test_columns_match_the_per_probe_reference(self, case):
        snapshot, targets_by_prefix, systems, lossy, seed = case
        catchment = snapshot.resolve({1, 2})
        host = self._host()
        plan = ProbePlan(targets_by_prefix, systems)
        prober = Prober(host, pps=50)
        try:
            expected = reference_round(
                targets_by_prefix, systems, catchment, host, seed, 7.0,
                50, lossy,
            )
        except ExperimentError:
            # A non-origin local holder delivered a response.
            with pytest.raises(ExperimentError):
                prober.probe_round("0-0", plan, catchment, SeedTree(seed),
                                   7.0, lossy_prefixes=lossy)
            return
        result = prober.probe_round("0-0", plan, catchment, SeedTree(seed),
                                    7.0, lossy_prefixes=lossy)
        for index, prefix in enumerate(plan.prefixes):
            responses = expected[prefix]
            assert result.responses_of(prefix) == responses, prefix
            kinds = {r.interface_kind for r in responses if r.responded}
            assert (SIGNAL_LABELS[result.signal_code(prefix)]
                    == signal_from_kinds(kinds))
            assert (result.signal_summary(index)
                    == round_signal_summary(responses))
        assert result.probe_count() == sum(map(len, expected.values()))
        assert result.response_count() == sum(
            r.responded for rs in expected.values() for r in rs
        )

    def test_signal_labels_follow_signal_from_kinds(self):
        for code, label in enumerate(SIGNAL_LABELS):
            kinds = [k for k, bit in KIND_BITS.items() if code & bit]
            assert label == signal_from_kinds(kinds)
        assert SIGNAL_LABELS == ("none", "re", "commodity", "both")

    def test_host_rejects_an_unknown_interface_kind(self):
        host = MeasurementHost(MEAS)
        with pytest.raises(ExperimentError):
            host.attach(1, VLANInterface("v1", "tunnel", "test"))


class TestDrawSlots:
    """Planned probe *j* owns draws ``2j`` (loss) and ``2j + 1`` (RTT)
    of its round's one stream."""

    def _setup(self, loss_probability, blocks=40, per_prefix=3):
        """*blocks* prefixes of *per_prefix* live systems on the
        dual-homed member, whose responses come back over R&E."""
        topo = dual_homed_topology()
        host = MeasurementHost(MEAS)
        host.attach(1, VLANInterface("v1", "re", "re"))
        host.attach(2, VLANInterface("v2", "commodity", "comm"))
        result = propagate_fastpath(
            topo,
            [Announcement(MEAS, 1, tag="re"),
             Announcement(MEAS, 2, tag="commodity")],
        )
        targets, systems = {}, {}
        for block in range(blocks):
            prefix = Prefix.parse("198.51.%d.0/24" % block)
            targets[prefix] = []
            for host_index in range(per_prefix):
                address = prefix.address_at(host_index + 1)
                targets[prefix].append(ProbeTarget(
                    address=address, prefix=prefix,
                    method=ProbeMethod.ICMP_ECHO,
                ))
                systems[address] = SystemPlan(
                    address=address, prefix=prefix, attached_asn=5,
                    seed_source="isi", loss_probability=loss_probability,
                )
        catchment = host.live_catchment(topo, result.route_at)
        return Prober(host), targets, systems, catchment

    @staticmethod
    def _columns(round_result, j):
        return (round_result.responded[j], round_result.kind[j],
                round_result.outcome[j], round_result.origin[j],
                round_result.rtt[j], round_result.hops[j])

    def test_rtt_draw_is_independent_of_the_loss_draw(self):
        prober, targets, systems, catchment = self._setup(0.5)
        plan = ProbePlan(targets, systems)
        result = prober.probe_round("0-0", plan, catchment, SeedTree(7),
                                    now=0.0)
        rtts = [result.rtt[j] - 4.0 * result.hops[j]
                for j in range(result.probe_count()) if result.responded[j]]
        assert 30 < len(rtts) < 90
        assert all(1.0 <= rtt < 25.0 for rtt in rtts)
        # Responders passed a loss draw >= 0.5; an RTT read from that
        # draw would land in [13, 25) only.
        assert min(rtts) < 7.0 and max(rtts) > 19.0

    def test_a_missing_probe_shifts_no_other_probes_draws(self):
        prober, targets, systems, catchment = self._setup(0.3)
        plan = ProbePlan(targets, systems)
        baseline = prober.probe_round("0-0", plan, catchment, SeedTree(7),
                                      now=0.0)
        first_prefix = plan.prefixes[0]
        first = plan.targets[0].address
        dead = dict(systems)
        dead[first] = replace(systems[first], alive=False)
        unknown = dict(systems)
        del unknown[first]
        variants = [
            (ProbePlan(targets, dead), frozenset(), {0}),
            (ProbePlan(targets, unknown), frozenset(), {0}),
            (plan, frozenset({first_prefix}),
             set(range(plan.offsets[0], plan.offsets[1]))),
        ]
        for variant, lossy, blanked in variants:
            result = prober.probe_round(
                "0-0", variant, catchment, SeedTree(7), now=0.0,
                lossy_prefixes=lossy,
            )
            for j in blanked:
                assert not result.responded[j]
            for j in range(baseline.probe_count()):
                if j not in blanked:
                    assert (self._columns(result, j)
                            == self._columns(baseline, j)), j


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
        live_step = rib_step(topo, result.route_at)
        for origins in ({1, 2}, {2}, {99}):
            catchment = snapshot.resolve(origins)
            for start in (1, 2, 3, 5):
                live = walk(live_step, start, origins)
                snap = snapshot_walk(snapshot, start, origins)
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


@st.composite
def live_ribs(draw):
    """A live RIB over a small topology, changed in a few steps.

    Returns ``(topology, rib, origins, steps)``: *rib* maps each AS to
    a stand-in best route (only ``learned_from`` is read) or None, the
    topology's policies carry random default routes, and each step is
    ``(changes, extra)``: new routes for some ASes, and ASes reported
    changed although their route stayed (a patch takes a superset).
    An optional chain from ``CHAIN_BASE`` runs past ``MAX_AS_HOPS``.
    """
    size = draw(st.integers(min_value=2, max_value=10))
    ases = list(range(1, size + 1))
    length = draw(st.one_of(
        st.just(0),
        st.integers(min_value=MAX_AS_HOPS - 2, max_value=MAX_AS_HOPS + 2),
    ))
    chain = [CHAIN_BASE + offset for offset in range(length)]
    topo = Topology()
    for asn in ases + chain:
        topo.add_as(asn, "as%d" % asn)
    everyone = st.sampled_from(ases + chain)
    routes = st.one_of(
        st.none(),
        st.builds(SimpleNamespace, learned_from=st.none()),
        st.builds(SimpleNamespace, learned_from=everyone),
    )
    rib = {asn: draw(routes) for asn in ases}
    for offset, asn in enumerate(chain):
        # The chain's last AS forwards back into the small map.
        rib[asn] = SimpleNamespace(
            learned_from=asn + 1 if offset + 1 < length else 1
        )
    for asn in draw(st.lists(everyone, max_size=4, unique=True)):
        topo.node(asn).policy.default_route_via = draw(everyone)
    origins = draw(st.frozensets(everyone, max_size=2))
    steps = draw(st.lists(
        st.tuples(st.dictionaries(everyone, routes, max_size=4),
                  st.sets(everyone, max_size=3)),
        min_size=1, max_size=4,
    ))
    return topo, rib, origins, steps


class TestLiveCatchment:
    @settings(max_examples=300, deadline=None)
    @given(live_ribs())
    def test_patch_matches_a_fresh_resolve_and_the_walk(self, case):
        topo, rib, origins, steps = case
        live = LiveCatchment(topo, rib.get, MEAS, origins)
        for changes, extra in steps:
            rib.update(changes)
            live.patch(set(changes) | extra)
            fresh = RibSnapshot.capture(topo, rib.get, MEAS).resolve(origins)
            step_of = rib_step(topo, rib.get)
            for asn in sorted(topo.nodes):
                path = walk(step_of, asn, origins)
                assert live.lookup(asn) == fresh.lookup(asn) == (
                    path.outcome, path.origin_asn, len(path.hops)
                ), asn

    def test_patch_reports_only_the_walks_it_moved(self):
        # 4 -> 3 -> 1 and 5 -> 2; moving 3 onto 2 moves 3 and 4 only.
        topo = Topology()
        for asn in range(1, 6):
            topo.add_as(asn, "as%d" % asn)
        rib = {3: SimpleNamespace(learned_from=1),
               4: SimpleNamespace(learned_from=3),
               5: SimpleNamespace(learned_from=2)}
        live = LiveCatchment(topo, rib.get, MEAS, {1, 2})
        assert live.lookup(4) == (ForwardingOutcome.DELIVERED, 1, 3)
        assert live.patch({3, 5}) == set()
        rib[3] = SimpleNamespace(learned_from=2)
        assert live.patch({3, 5}) == {3, 4}
        assert live.lookup(4) == (ForwardingOutcome.DELIVERED, 2, 3)
        assert live.lookup(5) == (ForwardingOutcome.DELIVERED, 2, 2)

