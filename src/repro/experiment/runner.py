"""End-to-end experiment runner (§3).

One :class:`ExperimentRunner` reproduces one of the paper's two runs
(SURF, 30 May 2025; Internet2, 5 June 2025):

1. the commodity announcement goes up first and soaks;
2. the R&E announcement goes up at "4-0" and soaks an hour;
3. nine probing rounds follow, one per prepend configuration — after
   each round the *single* changed announcement is re-announced, the
   network reconverges, and an hour passes before the next round;
4. scheduled outages (ground truth for the unexpected switches and
   oscillations of §4) fire between rounds;
5. collector feeder views and the BGP update log are captured
   throughout (Tables 3 and Figure 3).

:func:`repro.experiment.campaign.run_experiment_pair` runs SURF then
Internet2 with the *same* probe seeds, as the paper did to make
Table 2 comparable.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, Optional, Set

from ..bgp.engine import (
    AnnounceDelta,
    DeltaOutcome,
    LinkFlap,
    PrependChange,
    PropagationEngine,
    UpdateEvent,
)
from ..errors import ExperimentError
from ..faults import FaultKind, FaultPlan
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_capture
from ..obs.provenance import selection_event
from ..probing.host import MeasurementHost
from ..probing.prober import ProbePlan, Prober
from ..rng import SeedTree, poisson
from ..seeds.selection import SeedPlan, select_seeds
from ..topology.re_config import SystemPlan
from ..topology.re_ecosystem import Ecosystem
from .records import ExperimentResult, FeederObservation, OutageRecord
from .schedule import ExperimentSchedule

_log = get_logger("repro.runner")

#: Histogram buckets for per-round BGP message counts (churn, not
#: seconds — Figure 3's x-axis in engine terms).
_MESSAGE_BUCKETS = (
    10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
)


class ExperimentRunner:
    """Runs one experiment against an ecosystem."""

    def __init__(
        self,
        ecosystem: Ecosystem,
        experiment: str,
        seed: int = 0,
        schedule: Optional[ExperimentSchedule] = None,
        seed_plan: Optional[SeedPlan] = None,
        pps: int = 100,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if experiment not in ("surf", "internet2"):
            raise ExperimentError("experiment must be 'surf' or 'internet2'")
        self.ecosystem = ecosystem
        self.experiment = experiment
        self.schedule = schedule or ExperimentSchedule()
        self.tree = SeedTree(seed).child("experiment-%s" % experiment)
        self.seed_plan = seed_plan
        self.pps = pps
        #: Scripted faults (:mod:`repro.faults`): probe-loss bursts and
        #: link flaps, which change results deterministically.
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        #: ASes that selected a new best since the round catchment was
        #: last patched (see :meth:`_apply`).
        self._changed: Set[int] = set()

    # ------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        ecosystem = self.ecosystem
        schedule = self.schedule
        if self.seed_plan is None:
            self.seed_plan = select_seeds(
                ecosystem, seed_tree=self.tree.child("seeds")
            )
        re_origin = ecosystem.re_origin_for(self.experiment)
        commodity_origin = ecosystem.commodity_origin
        host = MeasurementHost.for_experiment(
            ecosystem.measurement_prefix,
            re_origin,
            commodity_origin,
            self.experiment,
        )
        engine = PropagationEngine(ecosystem.topology, self.tree)
        prober = Prober(host, pps=self.pps)
        plan = ProbePlan(self.seed_plan.targets, self._systems_by_address())
        result = ExperimentResult(
            experiment=self.experiment,
            schedule=schedule,
            re_origin=re_origin,
            commodity_origin=commodity_origin,
            seed_plan=self.seed_plan,
        )
        flap_rng = self.tree.child("background-flaps").rng()
        prefix = ecosystem.measurement_prefix
        rib = partial(engine.best_route, prefix=prefix)

        # A total for the --metrics-out snapshot to read
        # `runner.rounds_completed` against.
        get_registry().gauge("runner.rounds_total").set(
            len(schedule.configs)
        )

        # Phase 0: commodity announcement soaks alone.
        result.convergence.append(
            self._announce(engine, commodity_origin, 0, "commodity", result)
        )
        engine.advance_to(schedule.commodity_lead_seconds)

        # Phase 1: R&E announcement at the first configuration.  These
        # runs converge round 0's configuration, so they seed its
        # per-round stats.
        configs = schedule.parsed_configs()
        round_stats = []
        first_re, first_comm = configs[0]
        if first_comm != 0:
            stats = self._announce(engine, commodity_origin, first_comm,
                                   "commodity", result)
            result.convergence.append(stats)
            round_stats.append(stats)
        stats = self._announce(engine, re_origin, first_re, "re", result)
        result.convergence.append(stats)
        round_stats.append(stats)
        result.config_change_times.append(
            (engine.now, schedule.configs[0])
        )
        next_probe_at = engine.now + schedule.initial_soak_seconds

        # One catchment per run: resolved at the first round, then
        # patched from the ASes the deltas since the previous round
        # changed (config steps, outages, fault flaps).
        catchment = None
        previous = configs[0]
        for index, config_label in enumerate(schedule.configs):
            with span("runner.round.%s" % config_label):
                re_p, comm_p = configs[index]
                if index > 0:
                    round_stats = []
                    # Re-announce only the changed side (§3.3 ordering);
                    # the change is stamped before convergence so Figure
                    # 3's phase boundaries attribute the resulting churn
                    # to the configuration that caused it.
                    change_time = engine.now
                    result.config_change_times.append(
                        (change_time, config_label)
                    )
                    if re_p != previous[0]:
                        stats = self._reconfigure(engine, re_origin, re_p)
                        result.convergence.append(stats)
                        round_stats.append(stats)
                    if comm_p != previous[1]:
                        stats = self._reconfigure(engine, commodity_origin,
                                                  comm_p)
                        result.convergence.append(stats)
                        round_stats.append(stats)
                    next_probe_at = change_time + schedule.soak_seconds
                previous = (re_p, comm_p)

                # Residual churn trails each reconfiguration; keep it
                # clear of the probing window (the paper saw activity
                # settled for at least ~50 minutes before each round).
                flap_end = engine.now + 0.25 * (next_probe_at - engine.now)
                self._background_flaps(
                    engine, flap_rng, engine.now, flap_end, result
                )
                engine.advance_to(next_probe_at)

                self._capture_round_provenance(engine, index, config_label)
                if catchment is None:
                    catchment = host.live_catchment(ecosystem.topology, rib)
                else:
                    catchment.patch(self._changed)
                self._changed = set()
                round_result = prober.probe_round(
                    config_label,
                    plan,
                    catchment,
                    self.tree.child("round-%d" % index),
                    engine.now,
                    round_index=index,
                    lossy_prefixes=self._round_lossy_prefixes(index),
                )
                result.rounds.append(round_result)
                result.round_times.append(
                    (round_result.started_at,
                     round_result.started_at + round_result.duration)
                )
                engine.advance_to(
                    round_result.started_at + round_result.duration
                )
                self._capture_feeder_views(engine, index, config_label,
                                           result)
                round_stats.extend(
                    self._apply_outages(engine, index, result)
                )
                round_stats.extend(
                    self._apply_fault_flaps(engine, index, result)
                )
                result.round_convergence.append(round_stats)
            self._flush_round_metrics(index, config_label, result)

        result.update_log = list(engine.update_log)
        _log.info(
            "experiment complete",
            experiment=self.experiment,
            rounds=len(result.rounds),
            updates=len(result.update_log),
            outages=len(result.outages_applied),
        )
        return result

    # ----- helpers ------------------------------------------------------

    def _round_lossy_prefixes(self, index: int) -> frozenset:
        """The prefixes blanked by fault-plan probe-loss bursts in
        round *index*."""
        if not self.fault_plan:
            return frozenset()
        lossy = self.fault_plan.lossy_prefixes(
            index, self.seed_plan.responsive_prefixes()
        )
        if lossy:
            bursts = sum(
                1 for event in self.fault_plan.events
                if event.kind is FaultKind.PROBE_LOSS
                and event.round_index == index
            )
            get_registry().counter("runner.faults_injected").inc(bursts)
            _log.info(
                "probe-loss burst injected",
                experiment=self.experiment,
                round=index,
                bursts=bursts,
                prefixes=len(lossy),
            )
        return lossy

    def _capture_round_provenance(
        self,
        engine: PropagationEngine,
        index: int,
        config_label: str,
    ) -> None:
        """Record each probed prefix's route selection at probing time.

        One ``source="round"`` selection event per probed prefix: the
        decision its origin AS made for the *measurement* prefix the
        instant round *index* probes it — the control-plane state the
        round's signal reflects.
        """
        capture = active_capture()
        recorder = capture.provenance if capture is not None else None
        if recorder is None:
            return
        measurement_prefix = self.ecosystem.measurement_prefix
        origin_of = {
            plan.prefix: plan.origin_asn
            for plan in self.ecosystem.studied_prefixes()
        }
        for prefix in sorted(
            self.seed_plan.targets, key=lambda p: (p.network, p.length)
        ):
            if not recorder.wants(prefix):
                continue
            origin_asn = origin_of.get(prefix)
            if origin_asn is None:
                continue
            router = engine.router(origin_asn)
            candidates = router.candidate_routes(measurement_prefix)
            winner, steps = router.process.best_verbose(candidates)
            recorder.record(selection_event(
                source="round",
                asn=origin_asn,
                prefix=prefix,
                candidates=candidates,
                steps=steps,
                winner_index=(
                    next(
                        i for i, r in enumerate(candidates) if r is winner
                    )
                    if winner is not None else None
                ),
                winning_step=steps[-1]["step"] if steps else None,
                round_index=index,
                config=config_label,
                selection_prefix=measurement_prefix,
            ))

    def _apply(self, engine: PropagationEngine, delta) -> DeltaOutcome:
        """Apply *delta*, noting the ASes it changed for the next
        round's catchment patch."""
        outcome = engine.apply_delta(delta)
        self._changed |= outcome.changed_ases
        return outcome

    def _announce(
        self,
        engine: PropagationEngine,
        origin: int,
        prepends: int,
        tag: str,
        result: ExperimentResult,
    ):
        outcome = self._apply(engine, AnnounceDelta(
            origin_asn=origin,
            prefix=self.ecosystem.measurement_prefix,
            default_prepends=prepends,
            tag=tag,
        ))
        return outcome.stats[0]

    def _reconfigure(
        self,
        engine: PropagationEngine,
        origin: int,
        prepends: int,
    ):
        """Step one side's prepend count as a warm delta: the converged
        state stays in place and only the re-announcement's frontier
        re-propagates (byte-identical to the former full re-announce —
        the engine is incremental either way; the delta additionally
        measures the dirty set)."""
        outcome = self._apply(engine, PrependChange(
            origin_asn=origin,
            prefix=self.ecosystem.measurement_prefix,
            prepends=prepends,
        ))
        return outcome.stats[0]

    def _systems_by_address(self) -> Dict[int, SystemPlan]:
        systems: Dict[int, SystemPlan] = {}
        for plan in self.ecosystem.prefix_plans.values():
            for system in plan.systems:
                systems[system.address] = system
        return systems

    def _apply_outages(
        self, engine: PropagationEngine, round_index: int,
        result: ExperimentResult,
    ):
        """Fire scheduled outages after *round_index*; returns the
        convergence stats of the runs they triggered."""
        stats_list = []
        for outage in self.ecosystem.outages:
            if outage.experiment != self.experiment:
                continue
            if outage.down_after_round == round_index:
                outcome = self._apply(
                    engine, LinkFlap(outage.a, outage.b, action="down")
                )
                stats_list.append(outcome.stats[0])
                result.convergence.append(stats_list[-1])
                result.outages_applied.append(
                    OutageRecord(round_index, "down", outage.a, outage.b,
                                 outage.victim_asn)
                )
                self._note_outage(round_index, "down", outage)
            if outage.up_after_round == round_index:
                outcome = self._apply(
                    engine, LinkFlap(outage.a, outage.b, action="up")
                )
                stats_list.append(outcome.stats[0])
                result.convergence.append(stats_list[-1])
                result.outages_applied.append(
                    OutageRecord(round_index, "up", outage.a, outage.b,
                                 outage.victim_asn)
                )
                self._note_outage(round_index, "up", outage)
        return stats_list

    def _apply_fault_flaps(
        self, engine: PropagationEngine, round_index: int,
        result: ExperimentResult,
    ):
        """Fire fault-plan link flaps after *round_index*: fail the
        slotted link, converge, restore it, converge again — an
        ad-hoc outage beyond the scheduled ground truth.  Links that are
        already down (a scheduled outage in progress) are skipped, so
        a flap can never restore an outage early."""
        if not self.fault_plan:
            return []
        flaps = self.fault_plan.flaps_after(round_index)
        if not flaps:
            return []
        links = list(self.ecosystem.topology.links())
        registry = get_registry()
        stats_list = []
        for event in flaps:
            link = links[event.slot % len(links)]
            if engine.link_is_down(link.a, link.b):
                continue
            registry.counter("runner.faults_injected").inc()
            for record_action, delta_action in (
                ("flap-down", "down"),
                ("flap-up", "up"),
            ):
                outcome = self._apply(
                    engine, LinkFlap(link.a, link.b, action=delta_action)
                )
                stats_list.append(outcome.stats[0])
                result.convergence.append(stats_list[-1])
                result.outages_applied.append(OutageRecord(
                    round_index, record_action, link.a, link.b, link.a
                ))
            _log.info(
                "fault link flap applied",
                experiment=self.experiment,
                round=round_index,
                link="%d-%d" % (link.a, link.b),
            )
        return stats_list

    def _note_outage(self, round_index: int, action: str, outage) -> None:
        get_registry().counter("runner.outages_applied").inc()
        _log.info(
            "outage %s applied" % action,
            experiment=self.experiment,
            round=round_index,
            link="%d-%d" % (outage.a, outage.b),
            victim_asn=outage.victim_asn,
        )

    def _flush_round_metrics(
        self, index: int, config_label: str, result: ExperimentResult
    ) -> None:
        """Publish one round's counters after its span closes."""
        messages = result.round_messages_delivered(index)
        registry = get_registry()
        # Monotonic progress counter: one per completed round, read
        # from the --metrics-out snapshot.
        registry.counter("runner.rounds_completed").inc()
        registry.histogram(
            "runner.round_messages", _MESSAGE_BUCKETS
        ).observe(messages)
        if _log.is_enabled_for("info"):
            round_result = result.rounds[index]
            _log.info(
                "round complete",
                experiment=self.experiment,
                round=index,
                config=config_label,
                messages=messages,
                probes=round_result.probe_count(),
                responses=round_result.response_count(),
            )

    def _capture_feeder_views(
        self,
        engine: PropagationEngine,
        round_index: int,
        config: str,
        result: ExperimentResult,
    ) -> None:
        """Record what each member feeder exports to the collector: its
        loc-RIB best, or — for VRF-split feeders — the best among
        commodity-learned routes only (§4.1.1)."""
        ecosystem = self.ecosystem
        prefix = ecosystem.measurement_prefix
        vrf_split = set(ecosystem.feeders.vrf_split_feeders)
        for feeder in ecosystem.feeders.member_feeders:
            router = engine.router(feeder)
            if feeder in vrf_split:
                truth = ecosystem.members.get(feeder)
                commodity = truth.commodity_neighbors if truth else []
                route = router.best_from_neighbors(prefix, commodity)
            else:
                route = router.best_route(prefix)
            observation = FeederObservation(
                round_index=round_index,
                config=config,
                origin_asn=route.origin_asn if route else None,
                tag=route.tag if route else "",
                path=route.path.asns if route else (),
            )
            result.feeder_views.setdefault(feeder, []).append(observation)

    def _background_flaps(
        self,
        engine: PropagationEngine,
        rng: random.Random,
        start: float,
        end: float,
        result: ExperimentResult,
    ) -> None:
        """Inject the residual churn §3.3 observed: occasional updates
        on commodity routes from ordinary path-attribute wobble at
        feeder networks, unrelated to our configuration changes."""
        config = self.ecosystem.config
        rate_per_second = config.background_flap_rate_per_hour / 3600.0
        span = max(0.0, end - start)
        expected = span * rate_per_second
        # True Poisson draw by CDF inversion (one uniform from the
        # flap stream).  The previous implementation was
        # floor(expected) + Bernoulli(frac) — zero variance on the
        # integer part, which understated burstiness.
        count = poisson(rng, expected)
        feeders = sorted(self.ecosystem.feeders.commodity_sessions)
        if not feeders or count == 0:
            return
        prefix = self.ecosystem.measurement_prefix
        for _ in range(count):
            feeder = rng.choice(feeders)
            route = engine.best_route(feeder, prefix)
            if route is None or route.tag != "commodity":
                continue
            engine.update_log.append(
                UpdateEvent(
                    time=start + rng.random() * span,
                    asn=feeder,
                    prefix=prefix,
                    route=route,
                    session_weight=1,
                )
            )
