"""Property-based cross-validation of the two propagation engines.

Hypothesis generates random valley-free topologies with random
localpref policies and prepend configurations; the event-driven engine
and the synchronous fastpath must converge to identical routes when
route-age tie-breaking is disabled, and every converged state must
satisfy the core BGP invariants (loop-free paths, export-rule
compliance, localpref maximality among candidates).  An export table
compiled for observers must agree with the full table wherever it
answers, the memoized collector RIB with one run per origin, a live
catchment patched per delta with a fresh capture and resolve, and the
engine, which leaves out withdraws that would change nothing, with a
reference that queues every withdraw.
"""

import copy
from functools import partial
from heapq import heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import Announcement
from repro.bgp.engine import (
    _DELAY_RATE,
    BASE_DELAY,
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    PropagationEngine,
    WithdrawDelta,
)
from repro.bgp.fastpath import ExportTable, propagate_fastpath
from repro.bgp.policy import Rel, may_export
from repro.collectors import build_collector_rib
from repro.netutil import Prefix
from repro.probing import MeasurementHost, RibSnapshot, VLANInterface
from repro.rng import SeedTree
from repro.topology.graph import Topology

from .test_probing import rib_step, walk

PFX = Prefix.parse("192.0.2.0/24")


@st.composite
def random_topology(draw):
    """A random small topology with a strict provider hierarchy (tiers
    prevent customer-provider cycles) plus random peering, some of it
    R&E fabric, and random export prepends, export filters and one
    optionally path-length-insensitive AS."""
    n = draw(st.integers(min_value=3, max_value=14))
    tiers = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    # 0 means every AS compares path length.
    insensitive = draw(st.integers(min_value=0, max_value=n))
    topo = Topology()
    for asn in range(1, n + 1):
        topo.add_as(asn, "as%d" % asn)
        topo.node(asn).policy.age_tiebreak = False
    if insensitive:
        topo.node(insensitive).policy.path_length_sensitive = False
    # Providers: only toward strictly higher tiers.
    for asn in range(1, n + 1):
        uppers = [
            other
            for other in range(1, n + 1)
            if tiers[other - 1] > tiers[asn - 1]
        ]
        if uppers:
            count = draw(st.integers(min_value=0, max_value=min(2, len(uppers))))
            chosen = draw(
                st.lists(
                    st.sampled_from(uppers), min_size=count,
                    max_size=count, unique=True,
                )
            )
            for provider in chosen:
                topo.add_provider(asn, provider)
    # Peering within the same tier, some of it over the R&E fabric.
    # The path-length-insensitive AS stays off the fabric: two fabric
    # peers that each prefer the other's route (one by path length, one
    # by neighbor ASN) have two stable solutions, and the engine and
    # fastpath may then settle on different ones.
    for asn in range(1, n + 1):
        same = [
            other
            for other in range(asn + 1, n + 1)
            if tiers[other - 1] == tiers[asn - 1]
        ]
        for other in same:
            if draw(st.booleans()) and not topo.has_link(asn, other):
                fabric = insensitive not in (asn, other) and draw(
                    st.booleans()
                )
                topo.add_peering(asn, other, fabric=fabric)
    # Random localpref tweaks on non-fabric peer/provider sessions only:
    # customer routes stay most-preferred, the Gao-Rexford stability
    # condition, and fabric routes tie on localpref so path length
    # orders them.  (Violating either can create dispute wheels with no
    # stable solution — the engine then correctly refuses to converge;
    # see test_dispute_wheel_detected.)
    for asn in range(1, n + 1):
        policy = topo.node(asn).policy
        neighbors = sorted(topo.neighbors(asn).items())
        for neighbor, rel in neighbors:
            if (
                rel is not Rel.CUSTOMER
                and not topo.is_fabric(asn, neighbor)
                and draw(st.booleans())
            ):
                policy.set_neighbor_localpref(
                    neighbor, draw(st.sampled_from([50, 100, 150, 200]))
                )
        for neighbor, _ in neighbors:
            policy.set_export_prepends(
                neighbor, draw(st.integers(min_value=0, max_value=2))
            )
        if neighbors:
            policy.no_export_to.update(draw(st.lists(
                st.sampled_from([neighbor for neighbor, _ in neighbors]),
                max_size=1,
            )))
    origin = draw(st.integers(min_value=1, max_value=n))
    prepends = draw(st.integers(min_value=0, max_value=3))
    return topo, origin, prepends


def _route_key(route):
    if route is None:
        return None
    return (route.path.asns, route.learned_from, route.localpref, route.tag)


@settings(max_examples=60, deadline=None)
@given(random_topology())
def test_engine_and_fastpath_agree(case):
    topo, origin, prepends = case
    topo.validate()
    announcement = Announcement(PFX, origin, default_prepends=prepends,
                                tag="x")
    fast = propagate_fastpath(topo, [announcement])
    engine = PropagationEngine(topo, SeedTree(1))
    engine.announce(origin, PFX, default_prepends=prepends, tag="x")
    engine.run_to_fixpoint()
    for asn in topo.nodes:
        key_a = _route_key(engine.best_route(asn, PFX))
        key_b = _route_key(fast.route_at(asn))
        assert key_a == key_b, "AS %d: %r != %r" % (asn, key_a, key_b)


@settings(max_examples=60, deadline=None)
@given(random_topology())
def test_converged_state_invariants(case):
    topo, origin, prepends = case
    announcement = Announcement(PFX, origin, default_prepends=prepends)
    state = propagate_fastpath(topo, [announcement])
    for asn, route in state.best.items():
        # 1. No loops.
        if route.learned_from is not None:
            assert not route.path.contains(asn)
        assert route.path.origin == origin
        # 2. The selected route maximises localpref among candidates.
        candidates = state.candidates_at(asn)
        if candidates and route.learned_from is not None:
            assert route.localpref == max(c.localpref for c in candidates)
        # 3. Export compliance: the path's consecutive hops respect
        # valley-free export at the AS that re-exported the route.
        hops = route.path.unique_ases
        for importer_index in range(len(hops) - 2):
            exporter = hops[importer_index + 1]
            receiver = hops[importer_index]
            learned_from = hops[importer_index + 2]
            learned_rel = topo.rel(exporter, learned_from)
            to_rel = topo.rel(exporter, receiver)
            assert may_export(
                learned_rel,
                to_rel,
                learned_fabric=topo.is_fabric(exporter, learned_from),
                to_fabric=topo.is_fabric(exporter, receiver),
            )


def test_dispute_wheel_detected():
    """The classic BAD GADGET: three peers, each preferring the route
    through its clockwise neighbor over the direct route.  No stable
    solution exists (Griffin et al.); the engine must detect the
    livelock instead of spinning forever."""
    topo = Topology()
    origin = 10
    topo.add_as(origin, "origin")
    for asn in (1, 2, 3):
        topo.add_as(asn, "wheel%d" % asn)
        topo.add_provider(origin, asn)
    topo.add_peering(1, 2)
    topo.add_peering(2, 3)
    topo.add_peering(3, 1)
    # Peer routes normally never transit between peers; force the wheel
    # with fabric links (peer->peer re-export) and perverse localprefs.
    for a, b in ((1, 2), (2, 3), (3, 1)):
        topo._fabric.add(frozenset((a, b)))  # test-only surgery
        topo.node(a).policy.set_neighbor_localpref(b, 400)

    engine = PropagationEngine(topo, SeedTree(0), message_limit=50_000)
    engine.announce(origin, PFX)
    from repro.errors import EngineError

    with pytest.raises(EngineError):
        engine.run_to_fixpoint()


@settings(max_examples=40, deadline=None)
@given(random_topology(), st.integers(min_value=0, max_value=4))
def test_prepending_never_changes_reachability(case, extra):
    """Prepending lengthens paths but cannot create or destroy
    reachability (no path-length-based filtering exists)."""
    topo, origin, _ = case
    base = propagate_fastpath(topo, [Announcement(PFX, origin)])
    prepended = propagate_fastpath(
        topo, [Announcement(PFX, origin, default_prepends=extra)]
    )
    assert set(base.best) == set(prepended.best)
    for asn in base.best:
        assert (
            prepended.best[asn].path.length
            >= base.best[asn].path.length
        )


@settings(max_examples=60, deadline=None)
@given(random_topology(), st.data())
def test_observer_table_agrees_with_full_table(case, data):
    """A table compiled for observers drops the arcs into the other
    sinks; every observer and non-sink still converges to the same
    route, and the other sinks hold none but their own."""
    topo, origin, prepends = case
    observers = data.draw(st.lists(
        st.sampled_from(sorted(topo.nodes)), unique=True, max_size=4,
    ))
    announcement = Announcement(PFX, origin, default_prepends=prepends)
    exports = ExportTable(topo, observers=observers)
    full = propagate_fastpath(topo, [announcement])
    pruned = propagate_fastpath(topo, [announcement], exports=exports)
    for asn in topo.nodes:
        if asn in observers or asn not in exports.sinks:
            key_a = _route_key(full.route_at(asn))
            key_b = _route_key(pruned.route_at(asn))
            assert key_a == key_b, "AS %d: %r != %r" % (asn, key_a, key_b)
        elif asn != origin:
            assert pruned.route_at(asn) is None


@settings(max_examples=40, deadline=None)
@given(random_topology(), st.data())
def test_collector_rib_matches_unmemoized_runs(case, data):
    """Every AS originates a prefix; the memoized collector RIB over
    the observer table equals one full-table run per origin."""
    topo, _, _ = case
    observers = data.draw(st.lists(
        st.sampled_from(sorted(topo.nodes)), unique=True, min_size=1,
        max_size=4,
    ))
    prefixes = {}
    for asn in sorted(topo.nodes):
        prefixes[asn] = Prefix.parse("10.%d.0.0/16" % asn)
        topo.originate(asn, prefixes[asn])
    rib = build_collector_rib(
        SimpleNamespace(topology=topo), observers, list(prefixes.values())
    )
    for origin, prefix in prefixes.items():
        direct = propagate_fastpath(topo, [Announcement(prefix, origin)])
        for observer in observers:
            route = direct.route_at(observer)
            entry = rib.route(observer, prefix)
            assert (entry.path if entry else None) == (
                route.path.asns if route else None
            ), "observer %d, origin %d" % (observer, origin)


#: A second prefix, so histories mix prefixes as a what-if session does.
PFX_B = Prefix.parse("198.51.100.0/24")


@st.composite
def delta_history(draw, topo, origin, prepends, max_size=7):
    """A valid sequence of warm-state deltas over *topo*: announce
    (anycast or a second prefix), withdraw and re-prepend of a live
    announcement, localpref edits on the sessions random_topology()
    may reprice, and link flap/down/up.  Invalid picks (withdrawing
    with nothing live) are skipped, so the history always applies."""
    ases = sorted(topo.nodes)
    links = sorted({tuple(sorted((a, b))) for a in ases
                    for b in topo.neighbors(a)})
    repriceable = [
        (asn, neighbor)
        for asn in ases
        for neighbor, rel in sorted(topo.neighbors(asn).items())
        if rel is not Rel.CUSTOMER and not topo.is_fabric(asn, neighbor)
    ]
    live = {(origin, PFX): "x"}
    history = [AnnounceDelta(origin, PFX, default_prepends=prepends,
                             tag="x")]
    kinds = ["announce", "withdraw", "prepend", "flap", "down", "up"]
    if repriceable:
        kinds.append("localpref")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
        if kind == "announce":
            key = (draw(st.sampled_from(ases)),
                   draw(st.sampled_from([PFX, PFX_B])))
            tag = draw(st.sampled_from(["x", "y"]))
            live[key] = tag
            history.append(AnnounceDelta(
                key[0], key[1],
                default_prepends=draw(st.integers(0, 2)), tag=tag,
            ))
        elif kind in ("withdraw", "prepend"):
            if not live:
                continue
            key = draw(st.sampled_from(sorted(live, key=str)))
            if kind == "withdraw":
                del live[key]
                history.append(WithdrawDelta(*key))
            else:
                history.append(PrependChange(
                    key[0], key[1], draw(st.integers(0, 3))
                ))
        elif kind == "localpref":
            asn, neighbor = draw(st.sampled_from(repriceable))
            history.append(LocalprefEdit(
                asn, neighbor, draw(st.sampled_from([50, 100, 150, 200]))
            ))
        elif links:
            a, b = draw(st.sampled_from(links))
            history.append(LinkFlap(a, b, action=kind))
    return history


def _replay(engine, delta, announcements):
    """Apply *delta* through the engine's raw primitives (the cold
    path), returning one ConvergenceStats per fixpoint run."""
    if isinstance(delta, AnnounceDelta):
        announcements[(delta.origin_asn, delta.prefix)] = engine.announce(
            delta.origin_asn, delta.prefix,
            default_prepends=delta.default_prepends, tag=delta.tag,
        )
        return [engine.run_to_fixpoint()]
    if isinstance(delta, PrependChange):
        previous = announcements[(delta.origin_asn, delta.prefix)]
        announcements[(delta.origin_asn, delta.prefix)] = engine.announce(
            delta.origin_asn, delta.prefix,
            prepends=dict(previous.prepends),
            default_prepends=delta.prepends, tag=previous.tag,
        )
        return [engine.run_to_fixpoint()]
    if isinstance(delta, WithdrawDelta):
        del announcements[(delta.origin_asn, delta.prefix)]
        engine.withdraw(delta.origin_asn, delta.prefix)
        return [engine.run_to_fixpoint()]
    if isinstance(delta, LinkFlap):
        stats = []
        if delta.action in ("down", "flap"):
            engine.set_link_down(delta.a, delta.b)
            stats.append(engine.run_to_fixpoint())
        if delta.action in ("up", "flap"):
            engine.set_link_up(delta.a, delta.b)
            stats.append(engine.run_to_fixpoint())
        return stats
    # A localpref edit has no primitive outside apply_delta: the
    # policy edit and the repricing must go through the engine.
    return engine.apply_delta(delta).stats


@settings(max_examples=60, deadline=None)
@given(random_topology(), st.data())
def test_warm_apply_delta_matches_cold_replay(case, data):
    """A warm engine that applies a random delta history one
    ``apply_delta`` at a time ends, after every step, in the state a
    fresh engine reaches by replaying the same history from scratch:
    equal RIBs (route ages included), update logs, clocks and
    per-run replay keys."""
    topo, origin, prepends = case
    cold_topo = copy.deepcopy(topo)
    history = data.draw(delta_history(topo, origin, prepends))
    warm = PropagationEngine(topo, SeedTree(2))
    warm_keys = []
    for step, delta in enumerate(history):
        warm_keys.extend(
            s.replay_key() for s in warm.apply_delta(delta).stats
        )
        if step < len(history) - 1 and step % 3:
            continue
        cold = PropagationEngine(copy.deepcopy(cold_topo), SeedTree(2))
        announcements = {}
        cold_keys = []
        for replayed in history[:step + 1]:
            cold_keys.extend(
                s.replay_key() for s in _replay(cold, replayed, announcements)
            )
        assert cold_keys == warm_keys, "after step %d" % step
        assert cold.rib_state() == warm.rib_state(), "after step %d" % step
        assert cold.update_log == warm.update_log, "after step %d" % step
        assert cold.now == warm.now


class _EveryWithdrawEngine(PropagationEngine):
    """The engine without withdraw suppression: it queues every
    withdraw, including one to a receiver that holds nothing from the
    sender."""

    def _send_all(self, sender, prefix, sends):
        draw = self._rng.expovariate
        last = self._last_scheduled.setdefault(sender, {})
        for receiver, path, tag in sends:
            deliver_at = self.now + (BASE_DELAY + draw(_DELAY_RATE))
            previous = last.get(receiver, 0.0)
            if deliver_at <= previous:
                deliver_at = previous + 1e-6
            last[receiver] = deliver_at
            self._seq += 1
            heappush(self._heap, (
                deliver_at, self._seq, sender, receiver, prefix, path, tag
            ))
        self._messages_sent += len(sends)


@settings(max_examples=80, deadline=None)
@given(random_topology(), st.data())
def test_suppressed_withdraws_are_invisible(case, data):
    """Leaving out the withdraws that would change nothing at delivery
    changes nothing else: after each of 1-6 deltas the engine and a
    reference that queues every withdraw hold equal RIBs (route ages
    included), update logs and clocks, and each run has the same best
    changes and convergence time.  The reference delivers at least as
    many messages."""
    topo, origin, prepends = case
    reference_topo = copy.deepcopy(topo)
    history = data.draw(delta_history(topo, origin, prepends, max_size=5))
    engine = PropagationEngine(topo, SeedTree(5))
    reference = _EveryWithdrawEngine(reference_topo, SeedTree(5))
    for step, delta in enumerate(history):
        got = engine.apply_delta(delta)
        want = reference.apply_delta(delta)
        assert engine.rib_state() == reference.rib_state(), step
        assert engine.update_log == reference.update_log, step
        assert engine.now == reference.now, step
        assert [(s.best_changes, s.converged_at) for s in got.stats] == [
            (s.best_changes, s.converged_at) for s in want.stats
        ], step
        assert want.messages_delivered >= got.messages_delivered, step


@settings(max_examples=40, deadline=None)
@given(random_topology(), st.data())
def test_localpref_edits_patch_the_compiled_table(case, data):
    """After random localpref edits the engine's patched export table
    equals one compiled afresh from the edited policies."""
    topo, origin, prepends = case
    engine = PropagationEngine(topo, SeedTree(3))
    engine.apply_delta(AnnounceDelta(origin, PFX, default_prepends=prepends))
    repriceable = [
        (asn, neighbor)
        for asn in sorted(topo.nodes)
        for neighbor, rel in sorted(topo.neighbors(asn).items())
        if rel is not Rel.CUSTOMER and not topo.is_fabric(asn, neighbor)
    ]
    if not repriceable:
        return
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(repriceable),
                  st.sampled_from([50, 100, 150, 200])),
        max_size=6,
    ))
    for (asn, neighbor), value in edits:
        engine.apply_delta(LocalprefEdit(asn, neighbor, value))
    fresh = ExportTable(topo)
    assert engine.exports.arcs == fresh.arcs
    assert engine.exports.learned == fresh.learned
    # Deliveries read the arcs by session; that view is patched too.
    assert engine._arc_of == {
        asn: {arc[0]: arc for arc in arcs}
        for asn, arcs in fresh.arcs.items()
    }


@settings(max_examples=60, deadline=None)
@given(random_topology(), st.data())
def test_live_catchment_patch_matches_a_fresh_capture(case, data):
    """A live catchment patched from each ``apply_delta``'s changed
    ASes equals, after every step of a random delta history, a fresh
    capture + resolve of the same RIB — in ``lookup`` for every AS and
    in the verdict table — and the hop-by-hop walk over the live RIB.
    Random default routes give walks default edges and loops."""
    topo, origin, prepends = case
    ases = sorted(topo.nodes)
    for asn in data.draw(st.lists(st.sampled_from(ases), max_size=3,
                                  unique=True)):
        topo.node(asn).policy.default_route_via = data.draw(
            st.sampled_from(ases)
        )
    history = data.draw(delta_history(topo, origin, prepends))
    host = MeasurementHost(PFX, source_address=PFX.address_at(1))
    host.attach(origin, VLANInterface("v1", "re", "re"))
    other = data.draw(st.sampled_from(ases))
    if other != origin:
        host.attach(other, VLANInterface("v2", "commodity", "commodity"))
    origins = set(host.origin_asns())
    engine = PropagationEngine(topo, SeedTree(4))
    best_route_of = partial(engine.best_route, prefix=PFX)
    live = host.live_catchment(topo, best_route_of)
    verdicts = host.verdicts(live, ases)
    for step, delta in enumerate(history):
        patched = live.patch(engine.apply_delta(delta).changed_ases)
        verdicts.update(host.verdicts(live, patched))
        fresh = RibSnapshot.capture(topo, best_route_of, PFX).resolve(origins)
        step_of = rib_step(topo, best_route_of)
        for asn in ases:
            path = walk(step_of, asn, origins)
            assert live.lookup(asn) == fresh.lookup(asn) == (
                path.outcome, path.origin_asn, len(path.hops)
            ), "AS %d after step %d" % (asn, step)
        assert verdicts == host.verdicts(fresh, ases), "after step %d" % step
