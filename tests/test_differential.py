"""Differential correctness: the sharded runner against the serial
runner, across a grid of seeds, and the fastpath oracle against the
event-driven engine.

The determinism contract (see :mod:`repro.experiment.parallel`) says
results are a pure function of the experiment seed — never of worker
count or shard size.  These tests enforce it at every level the
analysis depends on: raw responses, per-round convergence, prefix
classifications, and the rendered report.

``REPRO_TEST_WORKERS`` picks the multi-process worker count (default
2), so CI can run the suite at several counts without editing tests.
"""

import io
import json
import os

import pytest

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.bgp.engine import (
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    PropagationEngine,
    WithdrawDelta,
)
from repro.core.classify import classify_experiment, origin_map
from repro.core.explain import render_explanation
from repro.core.report import reproduce_paper
from repro.experiment.parallel import ShardedRunner
from repro.experiment.runner import ExperimentRunner
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.obs.capture import Capture, EventRing, use_capture
from repro.rng import SeedTree

#: Multi-process worker count exercised by the grid (CI matrix knob).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: (seed, scale) grid.  Small scales keep the grid cheap; the shared
#: session fixtures already cover scale 0.1.
GRID = [(0, 0.06), (7, 0.06)]


def _run_with_provenance(runner):
    """Run one experiment with a fresh recorder; returns the result
    and the exported provenance stream as JSONL text."""
    recorder = EventRing()
    with use_capture(Capture(provenance=recorder)):
        result = runner.run()
    assert recorder.dropped == 0, "ring overflow would break identity"
    buffer = io.StringIO()
    recorder.export_jsonl(buffer)
    return result, buffer.getvalue()


def _run_with_frontier(runner):
    """Run one experiment with a fresh frontier trace; returns the
    result and the exported frontier stream as JSONL text."""
    trace = EventRing()
    with use_capture(Capture(frontier=trace)):
        result = runner.run()
    assert trace.dropped == 0, "ring overflow would break identity"
    buffer = io.StringIO()
    trace.export_jsonl(buffer)
    return result, buffer.getvalue()


@pytest.fixture(
    scope="module",
    params=GRID,
    ids=["seed%d-scale%s" % pair for pair in GRID],
)
def diff_case(request):
    """One grid cell: the serial run plus three sharded variants that
    must all be equal to it (results *and* provenance streams)."""
    seed, scale = request.param
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    serial, serial_jsonl = _run_with_provenance(
        ExperimentRunner(ecosystem, "surf", seed=seed)
    )
    variants = {}
    provenance = {"serial": serial_jsonl}
    sharded = {
        "workers=1": ShardedRunner(ecosystem, "surf", seed=seed, workers=1),
        "workers=1 shard_size=7": ShardedRunner(
            ecosystem, "surf", seed=seed, workers=1, shard_size=7
        ),
        "workers=%d" % WORKERS: ShardedRunner(
            ecosystem, "surf", seed=seed, workers=WORKERS
        ),
    }
    for label, runner in sharded.items():
        variants[label], provenance[label] = _run_with_provenance(runner)
    return ecosystem, serial, variants, provenance


def _round_key(round_result):
    return (
        round_result.config,
        round_result.started_at,
        round_result.duration,
        round_result.responses,
    )


class TestShardedMatchesSerial:
    def test_rounds_identical(self, diff_case):
        _, serial, variants, _ = diff_case
        expected = [_round_key(r) for r in serial.rounds]
        for label, result in variants.items():
            assert [_round_key(r) for r in result.rounds] == expected, label

    def test_round_convergence_identical(self, diff_case):
        _, serial, variants, _ = diff_case
        expected = [
            [stats.replay_key() for stats in round_stats]
            for round_stats in serial.round_convergence
        ]
        for label, result in variants.items():
            got = [
                [stats.replay_key() for stats in round_stats]
                for round_stats in result.round_convergence
            ]
            assert got == expected, label

    def test_update_log_and_feeders_identical(self, diff_case):
        _, serial, variants, _ = diff_case
        for label, result in variants.items():
            assert result.update_log == serial.update_log, label
            assert result.feeder_views == serial.feeder_views, label
            assert result.outages_applied == serial.outages_applied, label

    def test_classifications_identical(self, diff_case):
        ecosystem, serial, variants, _ = diff_case
        origins = origin_map(ecosystem)
        expected = {
            prefix: inference.category
            for prefix, inference in
            classify_experiment(serial, origins).inferences.items()
        }
        for label, result in variants.items():
            got = {
                prefix: inference.category
                for prefix, inference in
                classify_experiment(result, origins).inferences.items()
            }
            assert got == expected, label


class TestProvenanceDifferential:
    """The provenance stream — every selection and signal event, in
    order — is byte-identical at every worker count and shard size."""

    def test_streams_byte_identical(self, diff_case):
        _, _, _, provenance = diff_case
        serial_jsonl = provenance["serial"]
        assert serial_jsonl, "serial run emitted no provenance"
        for label, jsonl in provenance.items():
            if label == "serial":
                continue
            assert jsonl == serial_jsonl, (
                "%s provenance diverged from serial" % label
            )

    def test_stream_covers_every_probed_prefix_round(self, diff_case):
        ecosystem, serial, _, provenance = diff_case
        events = [
            json.loads(line)
            for line in provenance["serial"].splitlines()
        ]
        signals = [e for e in events if e["kind"] == "signal"]
        probed = {
            str(p) for r in serial.rounds for p in r.responses
        }
        assert {e["prefix"] for e in signals} == probed
        per_prefix_rounds = len(serial.rounds)
        counts = {}
        for event in signals:
            counts[event["prefix"]] = counts.get(event["prefix"], 0) + 1
        assert set(counts.values()) == {per_prefix_rounds}

    def test_explain_narrative_identical(self, diff_case):
        """The ``repro explain`` rendering built from a sharded run's
        stream matches the serial one byte for byte."""
        ecosystem, serial, _, provenance = diff_case
        origins = origin_map(ecosystem)
        inferences = classify_experiment(serial, origins).inferences
        prefix, inference = sorted(
            inferences.items(),
            key=lambda item: (item[0].network, item[0].length),
        )[0]

        def narrative(jsonl):
            events = [json.loads(line) for line in jsonl.splitlines()]
            mine = [e for e in events if e["prefix"] == str(prefix)]
            return render_explanation(
                inference,
                "surf",
                [e for e in mine if e["kind"] == "signal"],
                [e for e in mine if e["kind"] == "selection"
                 and e.get("source") == "round"],
            )

        expected = narrative(provenance["serial"])
        assert str(prefix) in expected
        for label, jsonl in provenance.items():
            if label == "serial":
                continue
            assert narrative(jsonl) == expected, label


class TestReportText:
    """The rendered report — every table and figure — is identical at
    every worker count."""

    def test_report_identical_across_worker_counts(self):
        seed, scale = GRID[0]
        ecosystem = build_ecosystem(
            REEcosystemConfig(scale=scale), seed=seed
        )
        serial_text = reproduce_paper(
            ecosystem=ecosystem, seed=seed, workers=1
        ).render()
        sharded_text = reproduce_paper(
            ecosystem=ecosystem, seed=seed, workers=WORKERS
        ).render()
        assert sharded_text == serial_text


#: Execution faults injected by the recovery differential: a worker
#: crash mid-grid plus a hang caught by the shard timeout.  Results
#: must come out byte-identical to the fault-free serial run.
CRASH_PLAN = FaultPlan(events=(
    FaultEvent(kind=FaultKind.WORKER_CRASH, round_index=2, slot=1),
    FaultEvent(kind=FaultKind.SHARD_HANG, round_index=6, slot=3,
               hang_seconds=3.0),
))


@pytest.fixture(scope="module")
def crash_case():
    """The fault-free serial run next to a sharded run suffering
    injected execution faults, both with provenance."""
    seed, scale = GRID[0]
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    serial, serial_jsonl = _run_with_provenance(
        ExperimentRunner(ecosystem, "surf", seed=seed)
    )
    faulted, faulted_jsonl = _run_with_provenance(
        ShardedRunner(
            ecosystem, "surf", seed=seed, workers=WORKERS,
            fault_plan=CRASH_PLAN, shard_timeout=0.5, backoff_base=0.0,
        )
    )
    return ecosystem, serial, serial_jsonl, faulted, faulted_jsonl


class TestCrashInjectedDifferential:
    """A run with injected worker crashes/hangs recovers and produces
    a byte-identical ``ExperimentResult`` — responses, convergence,
    classifications, provenance JSONL — to the fault-free serial run."""

    def test_rounds_identical(self, crash_case):
        _, serial, _, faulted, _ = crash_case
        assert [_round_key(r) for r in faulted.rounds] == \
            [_round_key(r) for r in serial.rounds]

    def test_convergence_identical(self, crash_case):
        _, serial, _, faulted, _ = crash_case
        expected = [
            [stats.replay_key() for stats in round_stats]
            for round_stats in serial.round_convergence
        ]
        got = [
            [stats.replay_key() for stats in round_stats]
            for round_stats in faulted.round_convergence
        ]
        assert got == expected

    def test_classifications_identical(self, crash_case):
        ecosystem, serial, _, faulted, _ = crash_case
        origins = origin_map(ecosystem)
        expected = {
            prefix: inference.category
            for prefix, inference in
            classify_experiment(serial, origins).inferences.items()
        }
        got = {
            prefix: inference.category
            for prefix, inference in
            classify_experiment(faulted, origins).inferences.items()
        }
        assert got == expected

    def test_provenance_byte_identical(self, crash_case):
        _, _, serial_jsonl, _, faulted_jsonl = crash_case
        assert serial_jsonl
        assert faulted_jsonl == serial_jsonl

    def test_degradations_recorded_but_outside_identity(self, crash_case):
        _, serial, _, faulted, _ = crash_case
        assert serial.degradations == []
        assert faulted.degradations  # the faults really fired
        assert all(record.recovered for record in faulted.degradations)

    def test_report_text_identical_under_crash_plan(self, crash_case):
        ecosystem, _, _, _, _ = crash_case
        seed, _ = GRID[0]
        plain = reproduce_paper(
            ecosystem=ecosystem, seed=seed, workers=1
        ).render()
        recovered = reproduce_paper(
            ecosystem=ecosystem, seed=seed, workers=WORKERS,
            fault_plan=FaultPlan(events=(
                FaultEvent(kind=FaultKind.WORKER_CRASH, round_index=4,
                           slot=2),
            )),
        ).render()
        assert recovered == plain


class TestEnvironmentFaultDifferential:
    """Environment faults (probe loss, link flaps) change results —
    deterministically: serial and sharded execution see the identical
    faulted world."""

    def test_serial_equals_sharded_under_environment_plan(self):
        seed, scale = GRID[0]
        plan = FaultPlan.from_seed(
            seed, probe_loss_bursts=2, link_flaps=1
        )
        ecosystem = build_ecosystem(REEcosystemConfig(scale=scale),
                                    seed=seed)
        serial, serial_jsonl = _run_with_provenance(
            ExperimentRunner(ecosystem, "surf", seed=seed,
                             fault_plan=plan)
        )
        sharded, sharded_jsonl = _run_with_provenance(
            ShardedRunner(ecosystem, "surf", seed=seed, workers=WORKERS,
                          fault_plan=plan)
        )
        assert [_round_key(r) for r in sharded.rounds] == \
            [_round_key(r) for r in serial.rounds]
        assert sharded.outages_applied == serial.outages_applied
        assert sharded_jsonl == serial_jsonl
        # ... and the environment plan genuinely moved the world.
        baseline, _ = _run_with_provenance(
            ExperimentRunner(ecosystem, "surf", seed=seed)
        )
        assert [_round_key(r) for r in serial.rounds] != \
            [_round_key(r) for r in baseline.rounds]


class TestFastpathOracle:
    """The Bellman-Ford fastpath (which shard workers' snapshots are
    built from, via the converged RIB) against the event-driven engine,
    per AS."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_best_routes_agree(self, seed):
        ecosystem = build_ecosystem(
            REEcosystemConfig(scale=0.04), seed=seed
        )
        topology = ecosystem.topology
        for asn in topology.nodes:
            # Age tie-breaking is inherently arrival-order dependent;
            # disable it so both engines share a total order.
            topology.node(asn).policy.age_tiebreak = False
        try:
            prefix = ecosystem.measurement_prefix
            announcements = [
                Announcement(prefix, ecosystem.internet2_origin, tag="re"),
                Announcement(prefix, ecosystem.commodity_origin,
                             tag="commodity"),
            ]
            fast = propagate_fastpath(topology, announcements)

            engine = PropagationEngine(topology, SeedTree(seed))
            engine.announce(ecosystem.commodity_origin, prefix,
                            tag="commodity")
            engine.run_to_fixpoint()
            engine.announce(ecosystem.internet2_origin, prefix, tag="re")
            engine.run_to_fixpoint()

            for asn in topology.nodes:
                slow = engine.best_route(asn, prefix)
                quick = fast.route_at(asn)
                slow_key = (slow.tag, slow.path.asns) if slow else None
                quick_key = (quick.tag, quick.path.asns) if quick else None
                assert slow_key == quick_key, \
                    "AS %d: %r != %r" % (asn, slow_key, quick_key)
        finally:
            for asn in topology.nodes:
                topology.node(asn).policy.age_tiebreak = True


@pytest.fixture(scope="module")
def frontier_case():
    """The frontier-differential grid: the serial run next to sharded
    runs at workers 1, 2 and 4, all with a frontier trace attached.
    The exported JSONL is inside the identity contract, so every
    stream must be byte-identical."""
    seed, scale = GRID[0]
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    serial, serial_jsonl = _run_with_frontier(
        ExperimentRunner(ecosystem, "surf", seed=seed)
    )
    streams = {"serial": serial_jsonl}
    for workers in (1, 2, 4):
        streams["workers=%d" % workers] = _run_with_frontier(
            ShardedRunner(ecosystem, "surf", seed=seed, workers=workers)
        )[1]
    return ecosystem, serial, streams


class TestFrontierDifferential:
    """The convergence-frontier stream — per-window frontier sizes,
    quiescence curves, per-round signal diffs — is byte-identical
    across workers 1/2/4.  Frontier events ride
    inside the identity contract (unlike the profiler, which reports
    wall-time and is excluded); any divergence is a correctness bug."""

    def test_streams_byte_identical(self, frontier_case):
        _, _, streams = frontier_case
        serial_jsonl = streams["serial"]
        assert serial_jsonl, "serial run emitted no frontier events"
        for label, jsonl in streams.items():
            if label == "serial":
                continue
            assert jsonl == serial_jsonl, (
                "%s frontier stream diverged from serial" % label
            )

    def test_stream_shape(self, frontier_case):
        _, serial, streams = frontier_case
        events = [
            json.loads(line)
            for line in streams["serial"].splitlines()
        ]
        kinds = {event["kind"] for event in events}
        assert {"engine_window", "engine_run", "round_frontier"} <= kinds
        rounds = [e for e in events if e["kind"] == "round_frontier"]
        assert len(rounds) == len(serial.rounds)
        assert [e["round"] for e in rounds] == \
            list(range(len(serial.rounds)))
        for event in events:
            if event["kind"] == "engine_run":
                assert event["windows"] >= 1
                assert len(event["quiescence"]) == \
                    event["windows"] - event["truncated"]
                assert event["count"] >= event["changed"]

    def test_frontier_survives_injected_crashes(self, frontier_case):
        """A sharded run recovering from worker crashes ships the
        same frontier rows as the fault-free serial run."""
        ecosystem, _, streams = frontier_case
        seed, _ = GRID[0]
        _, faulted_jsonl = _run_with_frontier(
            ShardedRunner(
                ecosystem, "surf", seed=seed, workers=WORKERS,
                fault_plan=CRASH_PLAN, shard_timeout=0.5,
                backoff_base=0.0,
            )
        )
        assert faulted_jsonl == streams["serial"]


# ---------------------------------------------------------------------
# Delta convergence (PR 9): warm apply_delta state against the cold
# oracle, per delta kind.

DELTA_KINDS = ("announce", "prepend", "withdraw", "flap", "localpref")


def _delta_engine(seed, scale):
    """A fresh ecosystem + engine pair (LocalprefEdit mutates policy
    state shared through the topology, so warm and cold sides must
    never share an ecosystem)."""
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    return ecosystem, PropagationEngine(ecosystem.topology, SeedTree(seed))


def _flap_link(ecosystem):
    """A deterministic link to flap: the R&E origin's first adjacency."""
    origin = ecosystem.re_origin_for("surf")
    neighbor = sorted(ecosystem.topology.neighbors(origin))[0]
    return origin, neighbor


def _localpref_target(ecosystem, engine):
    """A deterministic (asn, neighbor) pair where deprefering the
    current best forces a switch: the lowest AS holding two routes
    from distinct neighbors."""
    prefix = ecosystem.measurement_prefix
    for asn in sorted(engine.routers):
        rib = engine.routers[asn].adj_rib_in.get(prefix, {})
        neighbors = [n for n in sorted(rib) if n >= 0]
        if len(neighbors) >= 2:
            best = engine.best_route(asn, prefix)
            if best is not None and best.learned_from in neighbors:
                return asn, best.learned_from
    raise AssertionError("scenario has no multi-route AS to reprice")


def _baseline(ecosystem, engine, use_deltas):
    """Phase 0/1 history: commodity soaks, then R&E at 4 prepends.
    ``use_deltas`` picks the apply_delta path or the raw-call path —
    both must produce byte-identical state."""
    prefix = ecosystem.measurement_prefix
    re_origin = ecosystem.re_origin_for("surf")
    commodity = ecosystem.commodity_origin
    stats = []
    if use_deltas:
        stats.extend(engine.apply_delta(AnnounceDelta(
            commodity, prefix, tag="commodity")).stats)
        engine.advance_to(600.0)
        stats.extend(engine.apply_delta(AnnounceDelta(
            re_origin, prefix, default_prepends=4, tag="re")).stats)
    else:
        engine.announce(commodity, prefix, tag="commodity")
        stats.append(engine.run_to_fixpoint())
        engine.advance_to(600.0)
        engine.announce(re_origin, prefix, default_prepends=4, tag="re")
        stats.append(engine.run_to_fixpoint())
    engine.advance_to(engine.now + 60.0)
    return stats


def _apply_kind(ecosystem, engine, kind, use_deltas, localpref_target=None):
    """One delta of *kind*, via apply_delta or via the raw calls the
    engine exposed before the delta layer existed."""
    prefix = ecosystem.measurement_prefix
    re_origin = ecosystem.re_origin_for("surf")
    if kind == "announce":
        if use_deltas:
            return engine.apply_delta(AnnounceDelta(
                re_origin, prefix, default_prepends=2, tag="re")).stats
        engine.announce(re_origin, prefix, default_prepends=2, tag="re")
        return [engine.run_to_fixpoint()]
    if kind == "prepend":
        if use_deltas:
            return engine.apply_delta(
                PrependChange(re_origin, prefix, prepends=1)
            ).stats
        engine.announce(re_origin, prefix, default_prepends=1, tag="re")
        return [engine.run_to_fixpoint()]
    if kind == "withdraw":
        if use_deltas:
            stats = list(engine.apply_delta(
                WithdrawDelta(re_origin, prefix)).stats)
            stats.extend(engine.apply_delta(AnnounceDelta(
                re_origin, prefix, default_prepends=3, tag="re")).stats)
            return stats
        engine.withdraw(re_origin, prefix)
        stats = [engine.run_to_fixpoint()]
        engine.announce(re_origin, prefix, default_prepends=3, tag="re")
        stats.append(engine.run_to_fixpoint())
        return stats
    if kind == "flap":
        a, b = _flap_link(ecosystem)
        if use_deltas:
            return engine.apply_delta(LinkFlap(a, b, action="flap")).stats
        engine.set_link_down(a, b)
        stats = [engine.run_to_fixpoint()]
        engine.set_link_up(a, b)
        stats.append(engine.run_to_fixpoint())
        return stats
    assert kind == "localpref"
    asn, neighbor = localpref_target
    if use_deltas:
        return engine.apply_delta(LocalprefEdit(asn, neighbor, 10)).stats
    # Raw path: the same policy edit through the router primitives.
    engine.topology.node(asn).policy.set_neighbor_localpref(neighbor, 10)
    router = engine.router(asn)
    rel = engine.topology.rel(asn, neighbor)
    for changed_prefix, change in router.reprice_neighbor(neighbor, rel):
        engine._record_change(asn, changed_prefix, change.new)
        engine._export_after_change(asn, changed_prefix)
    return [engine.run_to_fixpoint()]


class TestDeltaConvergence:
    """Warm-delta convergence against the cold oracle, per delta kind.
    Engine state (full RIB dump including route ages), update logs,
    and per-run ``replay_key()``s must be byte-identical; the
    runner-level workers-1/2/4 grid (``frontier_case`` JSONL) exercises
    the same apply_delta path end to end."""

    @pytest.mark.parametrize("kind", DELTA_KINDS)
    def test_warm_delta_matches_cold_raw_path(self, kind):
        seed, scale = 0, 0.04
        warm_eco, warm = _delta_engine(seed, scale)
        cold_eco, cold = _delta_engine(seed, scale)
        _baseline(warm_eco, warm, use_deltas=True)
        _baseline(cold_eco, cold, use_deltas=False)
        target = (
            _localpref_target(warm_eco, warm)
            if kind == "localpref" else None
        )
        warm_stats = _apply_kind(warm_eco, warm, kind, True, target)
        cold_stats = _apply_kind(cold_eco, cold, kind, False, target)
        assert [s.replay_key() for s in warm_stats] == \
            [s.replay_key() for s in cold_stats]
        assert warm.rib_state() == cold.rib_state()
        assert warm.update_log == cold.update_log
        assert warm.session_message_counts == cold.session_message_counts

    @pytest.mark.parametrize("kind", ["prepend", "localpref", "flap_down"])
    def test_fastpath_oracles_warm_state(self, kind):
        """An independent algorithm agrees with the warm engine at
        fixpoint: the policy-aware Bellman-Ford, computed directly from
        the post-delta policy/link state (age tie-breaking disabled, as
        in TestFastpathOracle)."""
        seed = 3
        ecosystem = build_ecosystem(REEcosystemConfig(scale=0.04), seed=seed)
        topology = ecosystem.topology
        for asn in topology.nodes:
            # Routers cache their DecisionProcess at construction, so
            # the flag must flip before the engine is built.
            topology.node(asn).policy.age_tiebreak = False
        engine = PropagationEngine(topology, SeedTree(seed))
        try:
            prefix = ecosystem.measurement_prefix
            re_origin = ecosystem.re_origin_for("surf")
            commodity = ecosystem.commodity_origin
            _baseline(ecosystem, engine, use_deltas=True)
            if kind == "prepend":
                engine.apply_delta(PrependChange(re_origin, prefix, 2))
                re_prepends = 2
            elif kind == "localpref":
                target = _localpref_target(ecosystem, engine)
                engine.apply_delta(LocalprefEdit(target[0], target[1], 10))
                re_prepends = 4
            else:
                a, b = _flap_link(ecosystem)
                engine.apply_delta(LinkFlap(a, b, action="down"))
                re_prepends = 4
            announcements = [
                Announcement(prefix, re_origin,
                             default_prepends=re_prepends, tag="re"),
                Announcement(prefix, commodity, tag="commodity"),
            ]
            fast = propagate_fastpath(
                topology, announcements,
                down_links=engine._down_links,
            )
            for asn in sorted(topology.nodes):
                slow = engine.best_route(asn, prefix)
                quick = fast.route_at(asn)
                slow_key = (slow.tag, slow.path.asns) if slow else None
                quick_key = (quick.tag, quick.path.asns) if quick else None
                assert slow_key == quick_key, \
                    "AS %d: %r != %r" % (asn, slow_key, quick_key)
        finally:
            for asn in topology.nodes:
                topology.node(asn).policy.age_tiebreak = True

    def test_delta_events_identical_across_workers_and_backends(
        self, frontier_case
    ):
        """The runner now narrates every announce/reconfig/outage as an
        ``engine_delta`` frontier event; the event stream — dirty-set
        sizes included — is byte-identical across workers 1/2/4 and so
        across the inline and fork scheduler backends (the full-stream
        identity test covers this too; this one pins the delta events
        specifically and their shape)."""
        _, serial, streams = frontier_case
        def delta_events(jsonl):
            return [
                json.loads(line)
                for line in jsonl.splitlines()
                if '"engine_delta"' in line
            ]
        expected = delta_events(streams["serial"])
        assert expected, "runner emitted no engine_delta events"
        kinds = {event["delta"] for event in expected}
        assert "announce" in kinds
        assert "prepend_change" in kinds
        for event in expected:
            assert event["dirty_prefixes"] >= len(event["sample"]) >= 0
            assert event["runs"] >= 1
            assert event["messages_delivered"] >= 0
        for label, jsonl in streams.items():
            if label == "serial":
                continue
            assert delta_events(jsonl) == expected, label

    def test_whatif_session_matches_cold_replay(self):
        """The what-if facade's warm state equals its cold oracle
        (fresh ecosystem, journal replayed from scratch) after config
        steps and a free-form delta mix."""
        from repro.api import ExperimentSpec, WhatIfSession

        spec = ExperimentSpec(seed=0, scale=0.04)
        session = WhatIfSession(spec)
        session.advance_to_config("2-0")
        target = _localpref_target(session.ecosystem, session.engine)
        session.apply(LocalprefEdit(target[0], target[1], 10))
        session.apply(PrependChange(
            session.re_origin,
            session.ecosystem.measurement_prefix,
            prepends=3,
        ))
        twin = session.replay_cold()
        assert session.rib_state() == twin.rib_state()
        assert session.engine.last_stats.replay_key() == \
            twin.engine.last_stats.replay_key()
        prefixes = [
            plan.prefix
            for plan in session.ecosystem.studied_prefixes()
        ][:32]
        assert session.predict_batch(prefixes) == \
            twin.predict_batch(prefixes)


# ---------------------------------------------------------------------
# Scheduler-backend differential


@pytest.fixture(scope="module")
def scheduler_case():
    """The scheduler grid: the serial baseline next to a run forced
    onto the inline backend and a crash-injected run forced onto the
    fork backend at the CI worker count — every execution path the
    scheduler can take, all with provenance."""
    from repro.experiment.scheduler import fork_available

    seed, scale = GRID[0]
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    serial, serial_jsonl = _run_with_provenance(
        ExperimentRunner(ecosystem, "surf", seed=seed)
    )
    variants = {}
    provenance = {"serial": serial_jsonl}
    runners = {
        "backend=inline": ShardedRunner(
            ecosystem, "surf", seed=seed, workers=1, shard_size=7,
            backend="inline",
        ),
    }
    if fork_available():
        runners["backend=fork crash-injected"] = ShardedRunner(
            ecosystem, "surf", seed=seed, workers=WORKERS,
            fault_plan=CRASH_PLAN, shard_timeout=0.5, backoff_base=0.0,
            backend="fork",
        )
    for label, runner in runners.items():
        variants[label], provenance[label] = _run_with_provenance(runner)
    return ecosystem, serial, variants, provenance


class TestSchedulerDifferential:
    """Identity of the scheduler execution paths: a run forced onto
    either backend — the fork one while recovering injected crashes
    and hangs — must be byte-identical to the fault-free serial run."""

    def test_rounds_identical(self, scheduler_case):
        _, serial, variants, _ = scheduler_case
        expected = [_round_key(r) for r in serial.rounds]
        for label, result in variants.items():
            assert [_round_key(r) for r in result.rounds] == expected, label

    def test_replay_keys_identical(self, scheduler_case):
        _, serial, variants, _ = scheduler_case
        expected = [
            [stats.replay_key() for stats in round_stats]
            for round_stats in serial.round_convergence
        ]
        for label, result in variants.items():
            got = [
                [stats.replay_key() for stats in round_stats]
                for round_stats in result.round_convergence
            ]
            assert got == expected, label

    def test_classifications_identical(self, scheduler_case):
        ecosystem, serial, variants, _ = scheduler_case
        origins = origin_map(ecosystem)
        expected = {
            prefix: inference.category
            for prefix, inference in
            classify_experiment(serial, origins).inferences.items()
        }
        for label, result in variants.items():
            got = {
                prefix: inference.category
                for prefix, inference in
                classify_experiment(result, origins).inferences.items()
            }
            assert got == expected, label

    def test_provenance_byte_identical(self, scheduler_case):
        _, _, _, provenance = scheduler_case
        serial_jsonl = provenance["serial"]
        assert serial_jsonl
        for label, jsonl in provenance.items():
            assert jsonl == serial_jsonl, label

    def test_forced_fork_recovered_from_every_fault(self, scheduler_case):
        _, serial, variants, _ = scheduler_case
        assert serial.degradations == []
        forked = variants.get("backend=fork crash-injected")
        if forked is None:
            pytest.skip("fork start method unavailable")
        assert forked.degradations
        assert all(record.recovered for record in forked.degradations)
        inline = variants["backend=inline"]
        assert inline.degradations == []

    def test_spec_level_backend_forcing_matches(self, scheduler_case):
        """`ExecutionPolicy.backend` reaches the runner: the facade
        honours a forced inline backend and produces the serial
        result."""
        from repro.api import ExecutionPolicy, ExperimentSpec, run_experiment

        _, _, _, _ = scheduler_case
        seed, scale = GRID[0]
        baseline = run_experiment(ExperimentSpec(seed=seed, scale=scale))
        forced = run_experiment(ExperimentSpec(
            seed=seed, scale=scale,
            execution=ExecutionPolicy(workers=1, backend="inline"),
        ))
        assert [_round_key(r) for r in forced.rounds] == \
            [_round_key(r) for r in baseline.rounds]
