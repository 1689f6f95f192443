"""Tests for the collector substrate: update ingestion, RIB snapshots,
and the churn report."""

from types import SimpleNamespace

import pytest

from repro.bgp.engine import UpdateEvent
from repro.bgp.attributes import ASPath, Route
from repro.collectors import Collector, build_churn_report, build_collector_rib
from repro.collectors.rib import neighbor_is_re, observe_origin_prepending
from repro.core.report import experiment_collector
from repro.errors import TopologyError
from repro.netutil import Prefix
from repro.topology.graph import Topology
from repro.topology.re_config import PrependClass

MEAS = Prefix.parse("163.253.63.0/24")


def _event(time, asn, tag="commodity", weight=None, withdraw=False):
    route = None
    if not withdraw:
        route = Route(
            prefix=MEAS, path=ASPath((asn, 396955)), learned_from=asn,
            localpref=100, tag=tag,
        )
    return UpdateEvent(
        time=time, asn=asn, prefix=MEAS, route=route, session_weight=weight
    )


class TestCollector:
    def test_ingest_filters_to_feeders(self):
        collector = Collector("c", {1: 3})
        added = collector.ingest([_event(0.0, 1), _event(1.0, 2)])
        assert added == 1

    def test_session_weighting(self):
        collector = Collector("c", {1: 3})
        collector.ingest([_event(0.0, 1)])
        assert collector.message_count() == 3

    def test_session_weight_override(self):
        collector = Collector("c", {1: 10})
        collector.ingest([_event(0.0, 1, weight=1)])
        assert collector.message_count() == 1

    def test_window_and_tag_filters(self):
        collector = Collector("c", {1: 1})
        collector.ingest([
            _event(0.0, 1, tag="re"),
            _event(10.0, 1, tag="commodity"),
        ])
        assert collector.message_count(start=5.0) == 1
        assert collector.message_count(end=5.0) == 1
        assert collector.message_count(tag="re") == 1

    def test_withdraw_recorded_without_origin(self):
        collector = Collector("c", {1: 1})
        collector.ingest([_event(0.0, 1, withdraw=True)])
        assert collector.updates[0].origin_asn is None

    def test_origins_seen(self):
        collector = Collector("c", {1: 1})
        collector.ingest([_event(0.0, 1), _event(1.0, 1, withdraw=True)])
        assert collector.origins_seen(1) == [396955]
        assert collector.origins_seen(2) == []


class TestChurnReport:
    def test_phases_split_at_commodity_change(
        self, ecosystem, internet2_result
    ):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.re_phase.end == report.commodity_phase.start
        assert report.re_phase.updates >= 0
        assert report.commodity_phase.updates > 0

    def test_commodity_phase_much_heavier(
        self, ecosystem, internet2_result
    ):
        """Figure 3's headline: sparse R&E phase vs heavy commodity
        phase (162 vs 9,168 in the paper)."""
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.commodity_phase.updates > 10 * report.re_phase.updates

    def test_re_phase_extra_updates_are_commodity(
        self, ecosystem, internet2_result
    ):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.re_phase.commodity_tagged <= report.re_phase.updates

    def test_series_cumulative(self, ecosystem, internet2_result):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        values = [count for _, count in report.series]
        assert values == sorted(values)
        assert values[-1] == (
            report.re_phase.updates + report.commodity_phase.updates
        )

    def test_quiet_before_probing(self, ecosystem, internet2_result):
        """The paper saw activity settled well before each round."""
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        assert report.min_quiet_minutes is not None
        assert report.min_quiet_minutes > 10.0

    def test_summary_rows(self, ecosystem, internet2_result):
        collector = experiment_collector(ecosystem, internet2_result)
        report = build_churn_report(internet2_result, collector)
        rows = report.summary_rows()
        assert any("commodity prepends phase" in row for row in rows)


class TestCollectorRIB:
    def test_observer_routes_cover_most_prefixes(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        routes = rib.routes_of(ecosystem.ripe_asn)
        assert len(routes) > 0.95 * len(ecosystem.studied_prefixes())

    def test_memoization_effective(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        assert rib.memo_hits > 0
        assert rib.fastpath_runs + rib.memo_hits == len(
            {p.origin_asn for p in ecosystem.studied_prefixes()}
        )

    def test_paths_end_at_origin(self, ecosystem):
        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        for prefix, entry in list(
            rib.routes_of(ecosystem.ripe_asn).items()
        )[:200]:
            assert entry.origin_asn == ecosystem.prefix_plans[prefix].origin_asn

    def test_memoized_matches_direct(self, ecosystem):
        """Spot check: memoized entries equal a direct fastpath run."""
        from repro import Announcement, propagate_fastpath

        rib = build_collector_rib(ecosystem, [ecosystem.ripe_asn])
        plans = ecosystem.studied_prefixes()
        for plan in plans[:10]:
            direct = propagate_fastpath(
                ecosystem.topology,
                [Announcement(plan.prefix, plan.origin_asn)],
            ).route_at(ecosystem.ripe_asn)
            entry = rib.route(ecosystem.ripe_asn, plan.prefix)
            if direct is None:
                assert entry is None
            else:
                assert entry.path == direct.path.asns

    def test_memo_separates_origins_priced_differently_upstream(self):
        """Origins 1 and 2 attach identically to providers 10 and 20,
        but 10 gives 2's routes a low localpref, so 10 reaches 2 via 20.
        The two must not share a memo entry."""
        topo = Topology()
        for asn in (1, 2, 10, 20):
            topo.add_as(asn, "as%d" % asn)
        for origin in (1, 2):
            topo.add_provider(origin, 10)
            topo.add_provider(origin, 20)
        topo.add_provider(20, 10)
        topo.node(10).policy.set_neighbor_localpref(2, 100)
        first = Prefix.parse("192.0.2.0/24")
        second = Prefix.parse("198.51.100.0/24")
        topo.originate(1, first)
        topo.originate(2, second)
        rib = build_collector_rib(
            SimpleNamespace(topology=topo), [10], [first, second]
        )
        assert rib.fastpath_runs == 2
        assert rib.route(10, first).path == (1,)
        assert rib.route(10, second).path == (20, 2)

    def test_memo_separates_origins_ranked_differently_upstream(self):
        """Origins 1 and 30 attach identically to providers 10 and 20
        and prepend once toward 10, so 10 ties on length between the
        direct route and 20's.  The lowest neighbor ASN decides: 1 beats
        20, and 20 beats 30."""
        topo = Topology()
        for asn in (1, 30, 10, 20):
            topo.add_as(asn, "as%d" % asn)
        for origin in (1, 30):
            topo.add_provider(origin, 10)
            topo.add_provider(origin, 20)
            topo.node(origin).policy.set_export_prepends(10, 1)
        topo.add_provider(20, 10)
        first = Prefix.parse("192.0.2.0/24")
        second = Prefix.parse("198.51.100.0/24")
        topo.originate(1, first)
        topo.originate(30, second)
        rib = build_collector_rib(
            SimpleNamespace(topology=topo), [10], [first, second]
        )
        assert rib.route(10, first).path == (1, 1)
        assert rib.route(10, second).path == (20, 30)

    def test_memo_separates_fabric_sessions(self):
        """Origins 3 and 5 both peer with 10, but only 5 over the R&E
        fabric, so only 5's route crosses 10's fabric peering to 20."""
        topo = Topology()
        for asn in (3, 5, 10, 20):
            topo.add_as(asn, "as%d" % asn)
        topo.add_peering(3, 10)
        topo.add_peering(5, 10, fabric=True)
        topo.add_peering(10, 20, fabric=True)
        first = Prefix.parse("192.0.2.0/24")
        second = Prefix.parse("198.51.100.0/24")
        topo.originate(3, first)
        topo.originate(5, second)
        rib = build_collector_rib(
            SimpleNamespace(topology=topo), [20], [first, second]
        )
        assert rib.route(20, first) is None
        assert rib.route(20, second).path == (10, 5)

    def test_observer_origin_keeps_its_own_route(self):
        """Stubs 1 and 2 attach identically to 3; observer 1 holds its
        own prefix locally and reaches 2's through 3."""
        topo = Topology()
        for asn in (1, 2, 3):
            topo.add_as(asn, "as%d" % asn)
        topo.add_provider(1, 3)
        topo.add_provider(2, 3)
        first = Prefix.parse("192.0.2.0/24")
        second = Prefix.parse("198.51.100.0/24")
        topo.originate(1, first)
        topo.originate(2, second)
        rib = build_collector_rib(
            SimpleNamespace(topology=topo), [1], [first, second]
        )
        assert rib.route(1, first).path == (1,)
        assert rib.route(1, second).path == (3, 2)

    def test_unknown_observer_rejected(self, ecosystem):
        missing = max(ecosystem.topology.nodes) + 1
        with pytest.raises(TopologyError):
            build_collector_rib(ecosystem, [ecosystem.ripe_asn, missing])

    def test_neighbor_is_re(self, ecosystem):
        assert neighbor_is_re(ecosystem.topology, ecosystem.geant_asn)
        assert not neighbor_is_re(ecosystem.topology, ecosystem.lumen_asn)


class TestPrependObservation:
    def test_matches_ground_truth_classes(self, ecosystem):
        observations = observe_origin_prepending(ecosystem)
        mismatches = 0
        checked = 0
        for plan in ecosystem.studied_prefixes():
            truth = ecosystem.members.get(plan.origin_asn)
            if truth is None or truth.behind_transit is not None:
                continue
            observation = observations[plan.prefix]
            checked += 1
            if truth.prepend_class is PrependClass.NO_COMMODITY:
                ok = not observation.has_commodity
            elif truth.prepend_class is PrependClass.MORE_COMMODITY:
                ok = (
                    observation.has_commodity
                    and observation.commodity_prepends > observation.re_prepends
                )
            elif truth.prepend_class is PrependClass.MORE_RE:
                ok = (
                    observation.has_commodity
                    and observation.re_prepends > observation.commodity_prepends
                )
            else:
                ok = (
                    observation.has_commodity
                    and observation.re_prepends == observation.commodity_prepends
                )
            if not ok:
                mismatches += 1
        assert checked > 0
        assert mismatches == 0

    def test_every_studied_prefix_observed(self, ecosystem):
        observations = observe_origin_prepending(ecosystem)
        assert len(observations) == len(ecosystem.studied_prefixes())
