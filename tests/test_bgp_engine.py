"""Tests for the event-driven propagation engine."""

import pytest

from repro.bgp.engine import (
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    PropagationEngine,
    WithdrawDelta,
)
from repro.errors import EngineError
from repro.netutil import Prefix
from repro.obs import use_registry
from repro.rng import SeedTree
from repro.topology.graph import Topology

PFX = Prefix.parse("192.0.2.0/24")


def chain_topology():
    """origin(1) -> transit(2) -> leaf(3), plus a peer(4) of transit."""
    topo = Topology()
    for asn in (1, 2, 3, 4):
        topo.add_as(asn, "as%d" % asn)
    topo.add_provider(1, 2)   # 2 provides transit to 1
    topo.add_provider(3, 2)
    topo.add_peering(2, 4)
    return topo


def engine_for(topo, seed=0):
    return PropagationEngine(topo, SeedTree(seed))


def _messages_sent(registry):
    """The ``engine.messages_sent`` counter: every message sent, in
    runs or by announce/withdraw/link changes before them."""
    return registry.snapshot()["counters"].get("engine.messages_sent", 0)


class TestBasicPropagation:
    def test_customer_route_reaches_everyone(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX, tag="t")
        engine.run_to_fixpoint()
        for asn in (2, 3, 4):
            route = engine.best_route(asn, PFX)
            assert route is not None
            assert route.origin_asn == 1

    def test_transit_prepends_own_asn(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert engine.best_route(3, PFX).path.asns == (2, 1)

    def test_origin_holds_local_route(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert engine.best_route(1, PFX).learned_from is None

    def test_peer_route_not_reexported_to_peer(self):
        """Routes 4 learns from peer 2 must not reach 2's other peers —
        build a second peer to check."""
        topo = chain_topology()
        topo.add_as(5, "as5")
        topo.add_peering(4, 5)
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert engine.best_route(4, PFX) is not None
        assert engine.best_route(5, PFX) is None

    def test_announcement_prepends_applied(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX, default_prepends=3)
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX).path.asns == (1, 1, 1, 1)

    def test_per_neighbor_prepends(self):
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 2)
        topo.add_provider(1, 3)
        engine = engine_for(topo)
        engine.announce(1, PFX, prepends={2: 2})
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX).path.asns == (1, 1, 1)
        assert engine.best_route(3, PFX).path.asns == (1,)


class TestReannouncementAndWithdraw:
    def test_reannounce_changes_paths(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        engine.announce(1, PFX, default_prepends=2)
        engine.run_to_fixpoint()
        assert engine.best_route(3, PFX).path.asns == (2, 1, 1, 1)

    def test_withdraw_clears_network(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        engine.withdraw(1, PFX)
        engine.run_to_fixpoint()
        for asn in (1, 2, 3, 4):
            assert engine.best_route(asn, PFX) is None

    def test_two_origins_compete(self):
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 3)
        topo.add_provider(2, 3)
        engine = engine_for(topo)
        engine.announce(1, PFX, tag="a")
        engine.announce(2, PFX, tag="b", default_prepends=2)
        engine.run_to_fixpoint()
        assert engine.best_route(3, PFX).tag == "a"  # shorter path wins


class TestLinkEvents:
    def test_link_down_reroutes(self):
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 2)  # primary
        topo.add_provider(1, 3)  # alternate
        topo.add_peering(2, 3)
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        engine.set_link_down(1, 2)
        engine.run_to_fixpoint()
        route = engine.best_route(2, PFX)
        assert route is not None
        assert route.path.asns == (3, 1)  # now via the alternate

    def test_link_up_restores(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        engine.set_link_down(1, 2)
        engine.run_to_fixpoint()
        assert engine.best_route(3, PFX) is None
        engine.set_link_up(1, 2)
        engine.run_to_fixpoint()
        assert engine.best_route(3, PFX) is not None

    def test_link_down_unknown_link(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.set_link_down(1, 3)

    def test_link_is_down_tracks_state(self):
        engine = engine_for(chain_topology())
        assert not engine.link_is_down(1, 2)
        engine.set_link_down(1, 2)
        assert engine.link_is_down(1, 2)
        assert engine.link_is_down(2, 1)  # undirected
        engine.set_link_up(1, 2)
        assert not engine.link_is_down(1, 2)

    def test_link_up_readvertisement_respects_export_policy(self):
        """Restoring a link must re-export through the same policy
        checks as any other export: 4's best for PFX is peer-learned
        (from 2), so flapping the 4-5 peering must not leak it to 5."""
        topo = chain_topology()
        topo.add_as(5, "as5")
        topo.add_peering(4, 5)
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert engine.best_route(4, PFX) is not None
        assert engine.best_route(5, PFX) is None
        engine.set_link_down(4, 5)
        engine.run_to_fixpoint()
        engine.set_link_up(4, 5)
        engine.run_to_fixpoint()
        assert engine.best_route(5, PFX) is None

    def test_withdraw_follows_an_announcement_in_flight_over_a_flap(self):
        """A link that fails and comes back while an announcement is in
        flight over it: the announcement is delivered after the link is
        up, so the withdraw queued on restore must reach the receiver,
        not be left out as a withdraw to a neighbor holding nothing."""
        topo = chain_topology()
        topo.node(1).policy.no_export_tags[2] = {"y"}
        engine = engine_for(topo)
        engine.announce(1, PFX, tag="x")  # in flight 1->2
        engine.set_link_down(1, 2)
        engine.announce(1, PFX, tag="y")  # filtered toward 2
        engine.set_link_up(1, 2)  # re-exports: a withdraw to 2
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX) is None
        assert engine.best_route(3, PFX) is None

    def test_link_up_restores_pre_outage_bests_in_diamond(self):
        """Restore in a diamond: 2's direct customer route returns and
        the (4,3,1) detour — whose path contains 1 — must not survive
        as a looping advertisement anywhere."""
        topo = Topology()
        for asn in (1, 2, 3, 4):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 2)
        topo.add_provider(1, 3)
        topo.add_provider(2, 4)
        topo.add_provider(3, 4)
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        before = {
            asn: engine.best_route(asn, PFX).path.asns
            for asn in (2, 3, 4)
        }
        assert before[2] == (1,)
        engine.set_link_down(1, 2)
        engine.run_to_fixpoint()
        # 2 detours through its provider; the path visibly contains 1.
        assert engine.best_route(2, PFX).path.asns == (4, 3, 1)
        engine.set_link_up(1, 2)
        engine.run_to_fixpoint()
        after = {
            asn: engine.best_route(asn, PFX).path.asns
            for asn in (2, 3, 4)
        }
        assert after[2] == (1,)  # the direct customer route is back
        assert after[3] == before[3]
        # 4's two customer routes tie on length; age tie-breaking may
        # legitimately pick either side after the flap.
        assert after[4] in ((2, 1), (3, 1))
        # Loop suppression on restore: 1 keeps its local route, and no
        # AS ended up with a path visiting any AS twice.
        assert engine.best_route(1, PFX).learned_from is None
        for asns in after.values():
            assert len(asns) == len(set(asns))


class TestDroppedMessages:
    def test_messages_on_down_link_counted_as_dropped(self):
        """A message in flight when its link fails is discarded — and
        accounted as a drop, not a delivery."""
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)  # queues 1->2 before the link fails
        engine.set_link_down(1, 2)
        stats = engine.run_to_fixpoint()
        assert stats.messages_dropped >= 1
        assert engine.best_route(2, PFX) is None

    def test_drops_do_not_count_toward_message_limit(self):
        """Only real deliveries feed the dispute-wheel cap: a run that
        is all drops converges even with a limit the queued message
        count would exceed."""
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.set_link_down(1, 2)
        engine._message_limit = 0  # any *delivery* would now raise
        stats = engine.run_to_fixpoint()
        assert stats.messages_delivered == 0
        assert stats.messages_dropped >= 1
        assert stats.limit_proximity == 0.0

    def test_fault_free_runs_drop_nothing(self):
        engine = engine_for(chain_topology())
        engine.announce(1, PFX)
        stats = engine.run_to_fixpoint()
        assert stats.messages_dropped == 0
        assert stats.messages_delivered > 0

    def test_replay_key_includes_drops(self):
        """Two runs that differ only in drop counts must not compare
        replay-equal."""
        stats = engine_for(chain_topology()).run_to_fixpoint()
        assert stats.replay_key()[1] == stats.messages_dropped
        import dataclasses

        other = dataclasses.replace(stats, messages_dropped=5)
        assert other.replay_key() != stats.replay_key()


class TestBookkeeping:
    def test_update_log_records_changes(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert any(event.asn == 3 for event in engine.update_log)

    def test_session_counts_populated(self):
        topo = chain_topology()
        with use_registry() as registry:
            engine = engine_for(topo)
            engine.announce(1, PFX)
            stats = engine.run_to_fixpoint()
        # announce() sends 1 -> 2 before the run; the run's exports
        # follow, and the counter takes both.
        assert stats.messages_sent >= 1
        assert _messages_sent(registry) == stats.messages_sent + 1

    def test_clock_moves_forward_only(self):
        engine = engine_for(chain_topology())
        engine.advance_to(100.0)
        with pytest.raises(EngineError):
            engine.advance_to(50.0)

    def test_determinism_across_runs(self):
        def run():
            engine = engine_for(chain_topology(), seed=77)
            engine.announce(1, PFX)
            stats = engine.run_to_fixpoint()
            return (
                stats.messages_delivered,
                engine.best_route(3, PFX).path.asns,
                engine.now,
            )

        assert run() == run()

    def test_unknown_router_raises(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.router(999)

    def test_no_export_policy_respected(self):
        topo = chain_topology()
        topo.node(1).policy.no_export_to.add(2)
        engine = engine_for(topo)
        engine.announce(1, PFX)
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX) is None

    def test_withdraw_not_sent_to_no_export_neighbor(self):
        """A neighbor behind no_export_to never saw the route, so the
        withdraw must not be exported to it either."""
        topo = chain_topology()
        topo.node(1).policy.no_export_to.add(2)
        with use_registry() as registry:
            engine = engine_for(topo)
            engine.announce(1, PFX)
            engine.run_to_fixpoint()
            # AS 1's only session is to 2: no message at all was sent.
            assert _messages_sent(registry) == 0
            engine.withdraw(1, PFX)
            engine.run_to_fixpoint()
            assert _messages_sent(registry) == 0
        assert engine.best_route(2, PFX) is None

    def test_withdraw_of_unannounced_prefix_respects_policy(self):
        """The no-change withdraw branch routes through the same
        per-neighbor export checks as every other export."""
        topo = chain_topology()
        topo.node(1).policy.no_export_to.add(2)
        with use_registry() as registry:
            engine = engine_for(topo)
            engine.withdraw(1, PFX)  # never announced: loc-RIB unchanged
            engine.run_to_fixpoint()
        assert _messages_sent(registry) == 0

    def test_withdraw_with_surviving_origin_reexports_new_best(self):
        """With two competing origins, withdrawing one leaves the
        other's route: downstream ASes receive the surviving best, not
        a blanket withdraw."""
        topo = Topology()
        for asn in (1, 2, 3, 5):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 3)
        topo.add_provider(2, 3)
        topo.add_provider(3, 5)
        engine = engine_for(topo)
        engine.announce(1, PFX, tag="a")
        engine.announce(2, PFX, tag="b", default_prepends=2)
        engine.run_to_fixpoint()
        assert engine.best_route(5, PFX).tag == "a"
        engine.withdraw(1, PFX)
        engine.run_to_fixpoint()
        survivor = engine.best_route(5, PFX)
        assert survivor is not None and survivor.tag == "b"

    def test_tag_scoped_no_export(self):
        topo = chain_topology()
        topo.node(1).policy.no_export_tags[2] = {"re"}
        engine = engine_for(topo)
        engine.announce(1, PFX, tag="re")
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX) is None
        engine.announce(1, PFX, tag="commodity")
        engine.run_to_fixpoint()
        assert engine.best_route(2, PFX) is not None


class TestApplyDelta:
    """Unit coverage of the warm-delta API (the differential layer
    proves byte-identity at experiment scale; these pin the local
    semantics)."""

    def test_announce_delta_installs_and_measures(self):
        engine = engine_for(chain_topology())
        outcome = engine.apply_delta(AnnounceDelta(1, PFX, tag="t"))
        assert engine.best_route(3, PFX).origin_asn == 1
        assert outcome.dirty_prefixes == (str(PFX),)
        assert outcome.touched_ases >= 3  # origin + transit + leaf
        assert len(outcome.stats) == 1
        assert outcome.stats[0].replay_key() == \
            engine.last_stats.replay_key()

    def test_prepend_change_reuses_announcement(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX, tag="t"))
        engine.apply_delta(PrependChange(1, PFX, prepends=2))
        route = engine.best_route(2, PFX)
        assert route.path.asns == (1, 1, 1)
        assert route.tag == "t"  # tag survives the re-announce

    def test_prepend_change_without_announcement_raises(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.apply_delta(PrependChange(1, PFX, prepends=2))

    def test_withdraw_delta_clears_network(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        outcome = engine.apply_delta(WithdrawDelta(1, PFX))
        assert engine.best_route(3, PFX) is None
        assert outcome.dirty_prefixes == (str(PFX),)

    def test_withdrawing_an_absent_announcement_raises(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        engine.apply_delta(WithdrawDelta(1, PFX))
        before = engine.rib_state(PFX)
        with pytest.raises(EngineError, match="no live announcement"):
            engine.apply_delta(WithdrawDelta(1, PFX))
        with pytest.raises(EngineError, match="to withdraw"):
            engine.apply_delta(WithdrawDelta(3, PFX))
        assert engine.rib_state(PFX) == before

    def test_link_flap_runs_two_fixpoints(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        outcome = engine.apply_delta(LinkFlap(1, 2, action="flap"))
        assert len(outcome.stats) == 2
        assert engine.best_route(3, PFX) is not None
        assert not engine.link_is_down(1, 2)

    def test_link_flap_down_only(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        outcome = engine.apply_delta(LinkFlap(1, 2, action="down"))
        assert len(outcome.stats) == 1
        assert engine.link_is_down(1, 2)
        assert engine.best_route(3, PFX) is None

    @pytest.mark.parametrize("action", ["up", "down", "flap"])
    def test_link_flap_on_missing_link_raises(self, action):
        """Every action on a link the topology lacks is an error; 3-4
        share no link in the chain topology."""
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        with pytest.raises(EngineError, match="no link 3-4"):
            engine.apply_delta(LinkFlap(3, 4, action=action))

    def test_link_up_on_live_link_is_a_no_op(self):
        engine = engine_for(chain_topology())
        engine.apply_delta(AnnounceDelta(1, PFX))
        before = engine.best_route(3, PFX)
        engine.apply_delta(LinkFlap(1, 2, action="up"))
        assert not engine.link_is_down(1, 2)
        assert engine.best_route(3, PFX) == before

    def test_link_flap_rejects_unknown_action(self):
        with pytest.raises(EngineError):
            LinkFlap(1, 2, action="wobble")

    def test_localpref_edit_moves_best(self):
        # Diamond: 4 learns PFX from providers 2 and 3; deprefer the
        # currently-best one and the loc-RIB must switch.
        topo = Topology()
        for asn in (1, 2, 3, 4):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 2)
        topo.add_provider(1, 3)
        topo.add_provider(4, 2)
        topo.add_provider(4, 3)
        engine = PropagationEngine(topo, SeedTree(0))
        engine.apply_delta(AnnounceDelta(1, PFX))
        before = engine.best_route(4, PFX).learned_from
        other = 3 if before == 2 else 2
        outcome = engine.apply_delta(LocalprefEdit(4, before, value=10))
        assert engine.best_route(4, PFX).learned_from == other
        assert outcome.dirty_prefixes == (str(PFX),)

    def test_localpref_edit_preserves_route_age(self):
        topo = chain_topology()
        engine = engine_for(topo)
        engine.apply_delta(AnnounceDelta(1, PFX))
        installed_at = engine.router(2).adj_rib_in[PFX][1].installed_at
        engine.advance_to(engine.now + 500.0)
        engine.apply_delta(LocalprefEdit(2, 1, value=250))
        repriced = engine.router(2).adj_rib_in[PFX][1]
        assert repriced.localpref == 250
        assert repriced.installed_at == installed_at

    def test_localpref_edit_unknown_session_raises(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.apply_delta(LocalprefEdit(1, 99, value=10))

    def test_unknown_delta_type_raises(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.apply_delta(object())

    def test_dirty_tracking_cleared_after_failure(self):
        engine = engine_for(chain_topology())
        with pytest.raises(EngineError):
            engine.apply_delta(PrependChange(1, PFX, prepends=1))
        # The accumulator guard must reset even on the error path.
        outcome = engine.apply_delta(AnnounceDelta(1, PFX))
        assert outcome.dirty_prefixes == (str(PFX),)

    def test_dirty_tracking_without_update_log(self):
        engine = PropagationEngine(
            chain_topology(), SeedTree(0), record_best_changes=False
        )
        outcome = engine.apply_delta(AnnounceDelta(1, PFX))
        assert engine.update_log == []
        assert outcome.dirty_prefixes == (str(PFX),)
        assert outcome.touched_ases >= 3

    def test_rib_state_equal_for_equal_histories(self):
        def build():
            engine = engine_for(chain_topology(), seed=5)
            engine.apply_delta(AnnounceDelta(1, PFX, tag="t"))
            engine.apply_delta(PrependChange(1, PFX, prepends=1))
            return engine
        assert build().rib_state() == build().rib_state()
        assert build().rib_state(PFX) == build().rib_state()

    def test_delta_outcome_replay_key_deterministic(self):
        def key():
            engine = engine_for(chain_topology(), seed=5)
            engine.apply_delta(AnnounceDelta(1, PFX))
            return engine.apply_delta(LinkFlap(1, 2)).replay_key()
        assert key() == key()


class TestStaleStateRegression:
    """PR 9 bugfix sweep: nothing carried between run_to_fixpoint
    calls may leak one run's results into the next."""

    def test_back_to_back_runs_match_fresh_engines(self):
        """Two cold runs on one warm engine must equal the same runs
        replayed on fresh engines, byte for byte."""
        def history(engine, steps):
            keys = []
            if steps >= 1:
                engine.announce(1, PFX, tag="a")
                keys.append(engine.run_to_fixpoint().replay_key())
            if steps >= 2:
                engine.advance_to(engine.now + 10.0)
                engine.announce(2, PFX, tag="b", default_prepends=1)
                keys.append(engine.run_to_fixpoint().replay_key())
            return keys

        with use_registry() as warm_registry:
            warm = engine_for(chain_topology(), seed=11)
            warm_keys = history(warm, 2)

        fresh_one = engine_for(chain_topology(), seed=11)
        one_keys = history(fresh_one, 1)
        with use_registry() as two_registry:
            fresh_two = engine_for(chain_topology(), seed=11)
            two_keys = history(fresh_two, 2)

        assert warm_keys[0] == one_keys[0]
        assert warm_keys == two_keys
        assert warm.rib_state() == fresh_two.rib_state()
        assert warm.update_log == fresh_two.update_log
        assert _messages_sent(warm_registry) == _messages_sent(two_registry)

    def test_failed_run_leaves_no_stale_stats(self):
        """A run that dies on the dispute-wheel cap must not leave the
        previous run's stats posing as its own."""
        engine = PropagationEngine(
            chain_topology(), SeedTree(0), message_limit=2
        )
        engine.announce(1, PFX)
        with pytest.raises(EngineError):
            engine.run_to_fixpoint()
        assert engine.last_stats is None

    def test_empty_run_overwrites_last_stats(self):
        engine = engine_for(chain_topology())
        engine.announce(1, PFX)
        first = engine.run_to_fixpoint()
        assert engine.last_stats is first
        second = engine.run_to_fixpoint()  # nothing queued
        assert engine.last_stats is second
        assert second.messages_delivered == 0
