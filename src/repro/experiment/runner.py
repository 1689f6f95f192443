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

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from ..bgp.engine import (
    AnnounceDelta,
    ConvergenceStats,
    LinkFlap,
    PrependChange,
    PropagationEngine,
    UpdateEvent,
)
from ..errors import ExperimentError
from ..faults import FaultKind, FaultPlan
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_ring
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

class ExperimentRunner:
    """Runs one experiment against an ecosystem.

    The control-plane schedule is two steps per round:
    :meth:`enter_round` takes the network to the round's probe time,
    :meth:`leave_round` fires what follows the round's probing.
    :meth:`run` probes between them, and
    :class:`~repro.whatif.WhatIfSession` steps through the same two
    calls without probing.
    """

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
        self.re_origin = ecosystem.re_origin_for(experiment)
        self.commodity_origin = ecosystem.commodity_origin
        self.host = MeasurementHost.for_experiment(
            ecosystem.measurement_prefix,
            self.re_origin,
            self.commodity_origin,
            experiment,
        )
        #: The control plane, its record and its background-flap
        #: stream, made fresh when round 0 is entered.
        self.engine: Optional[PropagationEngine] = None
        self.result: Optional[ExperimentResult] = None
        self._flap_rng = None
        #: ASes that selected a new best since the last control-plane
        #: step returned them (see :meth:`_apply`).
        self._changed: Set[int] = set()

    # ------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        ecosystem = self.ecosystem
        if self.seed_plan is None:
            self.seed_plan = select_seeds(
                ecosystem, seed_tree=self.tree.child("seeds")
            )
        prober = Prober(self.host, pps=self.pps)
        plan = ProbePlan(self.seed_plan.targets, self._systems_by_address())

        # One catchment per run: resolved at the first round, then
        # patched from the ASes the control-plane steps since the
        # previous round changed (config steps, outages, fault flaps).
        catchment = None
        left: Set[int] = set()
        for index, config_label in enumerate(self.schedule.configs):
            with span("runner.round.%s" % config_label):
                round_stats, changed = self.enter_round(index)
                engine, result = self.engine, self.result
                self._capture_round_provenance(engine, index, config_label)
                if catchment is None:
                    catchment = self.host.live_catchment(
                        ecosystem.topology,
                        partial(engine.best_route,
                                prefix=ecosystem.measurement_prefix),
                    )
                else:
                    catchment.patch(left | changed)
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
                stats, left = self.leave_round(index)
                round_stats.extend(stats)
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

    # ----- the control-plane schedule -----------------------------------

    def enter_round(
        self, index: int
    ) -> Tuple[List[ConvergenceStats], Set[int]]:
        """Take the control plane to round *index*'s probe time.

        Round 0 starts a fresh engine: the commodity announcement soaks
        alone (phase 0), then the first configuration goes up (phase
        1).  A later round re-announces only the side whose prepends
        changed (§3.3 ordering).  Background flaps and the soak follow.
        Returns the round's convergence stats (phase 0's commodity
        announcement is not one of them) and the ASes that selected a
        new best."""
        schedule = self.schedule
        configs = schedule.parsed_configs()
        re_p, comm_p = configs[index]
        round_stats = []
        if index == 0:
            engine = self.engine = PropagationEngine(
                self.ecosystem.topology, self.tree
            )
            result = self.result = ExperimentResult(
                experiment=self.experiment,
                schedule=schedule,
                re_origin=self.re_origin,
                commodity_origin=self.commodity_origin,
                seed_plan=self.seed_plan,
            )
            self._flap_rng = self.tree.child("background-flaps").rng()
            self._announce(self.commodity_origin, 0, "commodity")
            engine.advance_to(schedule.commodity_lead_seconds)
            # These runs converge round 0's configuration, so they seed
            # its per-round stats.
            if comm_p != 0:
                round_stats.append(self._announce(
                    self.commodity_origin, comm_p, "commodity"
                ))
            round_stats.append(self._announce(self.re_origin, re_p, "re"))
            result.config_change_times.append(
                (engine.now, schedule.configs[0])
            )
            probe_at = engine.now + schedule.initial_soak_seconds
        else:
            engine, result = self.engine, self.result
            prev_re, prev_comm = configs[index - 1]
            # The change is stamped before convergence so Figure 3's
            # phase boundaries attribute the resulting churn to the
            # configuration that caused it.
            change_time = engine.now
            result.config_change_times.append(
                (change_time, schedule.configs[index])
            )
            if re_p != prev_re:
                round_stats.append(self._reconfigure(self.re_origin, re_p))
            if comm_p != prev_comm:
                round_stats.append(
                    self._reconfigure(self.commodity_origin, comm_p)
                )
            probe_at = change_time + schedule.soak_seconds
        # Residual churn trails each reconfiguration; keep it clear of
        # the probing window (the paper saw activity settled for at
        # least ~50 minutes before each round).
        self._background_flaps(
            engine.now, engine.now + 0.25 * (probe_at - engine.now)
        )
        engine.advance_to(probe_at)
        return round_stats, self._take_changed()

    def leave_round(
        self, index: int
    ) -> Tuple[List[ConvergenceStats], Set[int]]:
        """Fire what follows round *index*'s probing: its scheduled
        outages, then its fault-plan link flaps.  Returns their
        convergence stats and the ASes that selected a new best."""
        round_stats = self._apply_outages(index)
        round_stats.extend(self._apply_fault_flaps(index))
        return round_stats, self._take_changed()

    def _take_changed(self) -> Set[int]:
        changed, self._changed = self._changed, set()
        return changed

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
        recorder = active_ring()
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

    def _apply(self, delta) -> ConvergenceStats:
        """Apply a one-run *delta*, noting the ASes it changed for the
        step's return and its stats in the run's record."""
        outcome = self.engine.apply_delta(delta)
        self._changed |= outcome.changed_ases
        stats = outcome.stats[0]
        self.result.convergence.append(stats)
        return stats

    def _announce(self, origin: int, prepends: int, tag: str):
        return self._apply(AnnounceDelta(
            origin_asn=origin,
            prefix=self.ecosystem.measurement_prefix,
            default_prepends=prepends,
            tag=tag,
        ))

    def _reconfigure(self, origin: int, prepends: int):
        """Step one side's prepend count as a warm delta: the converged
        state stays in place and only the re-announcement's frontier
        re-propagates (byte-identical to the former full re-announce —
        the engine is incremental either way; the delta additionally
        measures the dirty set)."""
        return self._apply(PrependChange(
            origin_asn=origin,
            prefix=self.ecosystem.measurement_prefix,
            prepends=prepends,
        ))

    def _systems_by_address(self) -> Dict[int, SystemPlan]:
        systems: Dict[int, SystemPlan] = {}
        for plan in self.ecosystem.prefix_plans.values():
            for system in plan.systems:
                systems[system.address] = system
        return systems

    def _apply_outages(self, round_index: int) -> List[ConvergenceStats]:
        """Fire scheduled outages after *round_index*; returns the
        convergence stats of the runs they triggered."""
        stats_list = []
        for outage in self.ecosystem.outages:
            if outage.experiment != self.experiment:
                continue
            for action, after_round in (
                ("down", outage.down_after_round),
                ("up", outage.up_after_round),
            ):
                if after_round != round_index:
                    continue
                stats_list.append(self._apply(
                    LinkFlap(outage.a, outage.b, action=action)
                ))
                self.result.outages_applied.append(OutageRecord(
                    round_index, action, outage.a, outage.b,
                    outage.victim_asn,
                ))
                get_registry().counter("runner.outages_applied").inc()
                _log.info(
                    "outage %s applied" % action,
                    experiment=self.experiment,
                    round=round_index,
                    link="%d-%d" % (outage.a, outage.b),
                    victim_asn=outage.victim_asn,
                )
        return stats_list

    def _apply_fault_flaps(self, round_index: int) -> List[ConvergenceStats]:
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
            if self.engine.link_is_down(link.a, link.b):
                continue
            registry.counter("runner.faults_injected").inc()
            for record_action, delta_action in (
                ("flap-down", "down"),
                ("flap-up", "up"),
            ):
                stats_list.append(self._apply(
                    LinkFlap(link.a, link.b, action=delta_action)
                ))
                self.result.outages_applied.append(OutageRecord(
                    round_index, record_action, link.a, link.b, link.a
                ))
            _log.info(
                "fault link flap applied",
                experiment=self.experiment,
                round=round_index,
                link="%d-%d" % (link.a, link.b),
            )
        return stats_list

    def _flush_round_metrics(
        self, index: int, config_label: str, result: ExperimentResult
    ) -> None:
        """Publish one round's counter after its span closes."""
        # Monotonic progress counter: one per completed round, read
        # from the --metrics-out snapshot.
        get_registry().counter("runner.rounds_completed").inc()
        if _log.is_enabled_for("info"):
            round_result = result.rounds[index]
            _log.info(
                "round complete",
                experiment=self.experiment,
                round=index,
                config=config_label,
                messages=result.round_messages_delivered(index),
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

    def _background_flaps(self, start: float, end: float) -> None:
        """Inject the residual churn §3.3 observed: occasional updates
        on commodity routes from ordinary path-attribute wobble at
        feeder networks, unrelated to our configuration changes."""
        engine, rng = self.engine, self._flap_rng
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
