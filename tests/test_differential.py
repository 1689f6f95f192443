"""Differential correctness: pooled campaign cells against inline
runs, across a grid of seeds, and the fastpath oracle against the
event-driven engine.

The determinism contract says results are a pure function of the
experiment seed — never of the backend a campaign cell runs on.  These
tests enforce it at every level the analysis depends on: raw
responses, per-round convergence, prefix classifications, and the
provenance stream a pooled cell ships back to the parent's ring.
"""

import io
import json

import pytest

from repro import (
    Announcement,
    REEcosystemConfig,
    build_ecosystem,
    propagate_fastpath,
)
from repro.api import ExperimentSpec, network_of, run_experiment
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
from repro.experiment.campaign import CellWork, dispatch_cells, fork_available
from repro.obs import use_registry
from repro.obs.capture import EventRing, use_ring
from repro.rng import SeedTree

#: (seed, scale) grid.  Small scales keep the grid cheap; the shared
#: session fixtures already cover scale 0.1.
GRID = [(0, 0.06), (7, 0.06)]

#: Cell backends every variant runs on (fork only where it exists).
BACKENDS = ("inline", "fork") if fork_available() else ("inline",)


def _captured(run):
    """Call *run* under a fresh provenance ring; returns run's result
    and the exported stream as JSONL text."""
    ring = EventRing()
    with use_ring(ring):
        result = run()
    assert ring.dropped == 0, "ring overflow would break identity"
    buffer = io.StringIO()
    ring.export_jsonl(buffer)
    return result, buffer.getvalue()


def _cell(ecosystem, spec, backend):
    """Run *spec* as a one-cell network group on *ecosystem* on
    *backend*; a fork cell's events reach the parent's ring through
    ``EventRing.extend``."""
    work = CellWork(spec=spec, keep_result=True, build_record=False)
    outcomes, failures = dispatch_cells(
        [work], backend=backend, network=network_of(spec, ecosystem)
    )
    assert not failures, failures
    # Only a cell run in a fork worker ships a span tree back.
    assert (outcomes[0].trace is not None) == (backend == "fork")
    return outcomes[0].result


def _variants(seed, scale):
    """The standalone run next to the same spec as an inline and a
    fork cell, each with a provenance ring."""
    ecosystem = build_ecosystem(REEcosystemConfig(scale=scale), seed=seed)
    spec = ExperimentSpec(seed=seed, scale=scale)
    serial, serial_jsonl = _captured(
        lambda: run_experiment(spec, ecosystem)
    )
    variants = {}
    streams = {"serial": serial_jsonl}
    for backend in BACKENDS:
        label = "backend=%s" % backend
        variants[label], streams[label] = _captured(
            lambda: _cell(ecosystem, spec, backend)
        )
    return ecosystem, serial, variants, streams


_CASES = {}


def _provenance_case(seed, scale):
    if (seed, scale) not in _CASES:
        _CASES[seed, scale] = _variants(seed, scale)
    return _CASES[seed, scale]


@pytest.fixture(
    scope="module",
    params=GRID,
    ids=["seed%d-scale%s" % pair for pair in GRID],
)
def diff_case(request):
    """One grid cell: the standalone run plus its cell variants, which
    must all be equal to it (results *and* provenance streams)."""
    return _provenance_case(*request.param)


def _round_key(round_result):
    return (
        round_result.config,
        round_result.started_at,
        round_result.duration,
        {
            prefix: round_result.responses_of(prefix)
            for prefix in round_result.plan.prefixes
        },
    )


class TestProvenanceDifferential:
    """The provenance stream — every selection and signal event, in
    order — is byte-identical whichever backend runs the cell."""

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
            str(prefix)
            for r in serial.rounds
            for index, prefix in enumerate(r.plan.prefixes)
            if r.plan.offsets[index + 1] > r.plan.offsets[index]
        }
        assert {e["prefix"] for e in signals} == probed
        per_prefix_rounds = len(serial.rounds)
        counts = {}
        for event in signals:
            counts[event["prefix"]] = counts.get(event["prefix"], 0) + 1
        assert set(counts.values()) == {per_prefix_rounds}

    def test_explain_narrative_identical(self, diff_case):
        """The ``repro explain`` rendering built from a pooled cell's
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


class TestFastpathOracle:
    """The Bellman-Ford fastpath against the event-driven engine, per
    AS."""

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
    and per-run ``replay_key()``s must be byte-identical; end to end,
    ``TestSchedulerDifferential.test_replay_keys_identical`` holds the
    runner's per-round ``replay_key()``s (every apply_delta it made)
    identical across cell backends."""

    @pytest.mark.parametrize("kind", DELTA_KINDS)
    def test_warm_delta_matches_cold_raw_path(self, kind):
        seed, scale = 0, 0.04
        warm_eco, warm = _delta_engine(seed, scale)
        cold_eco, cold = _delta_engine(seed, scale)
        with use_registry() as warm_registry:
            _baseline(warm_eco, warm, use_deltas=True)
            target = (
                _localpref_target(warm_eco, warm)
                if kind == "localpref" else None
            )
            warm_stats = _apply_kind(warm_eco, warm, kind, True, target)
        with use_registry() as cold_registry:
            _baseline(cold_eco, cold, use_deltas=False)
            cold_stats = _apply_kind(cold_eco, cold, kind, False, target)
        assert [s.replay_key() for s in warm_stats] == \
            [s.replay_key() for s in cold_stats]
        assert warm.rib_state() == cold.rib_state()
        assert warm.update_log == cold.update_log
        # Every message sent, in runs or before them, on both paths.
        sent = [
            registry.snapshot()["counters"]["engine.messages_sent"]
            for registry in (warm_registry, cold_registry)
        ]
        assert sent[0] == sent[1]

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

    def test_whatif_session_matches_cold_replay(self):
        """The what-if facade's warm state equals its cold oracle
        (fresh ecosystem, journal replayed from scratch) after config
        steps past a scheduled outage and a free-form delta mix.  The
        journal holds no outage: the cold twin's runner steps fire it
        again."""
        from repro.api import ExperimentSpec, WhatIfSession

        spec = ExperimentSpec(seed=0, scale=0.04)
        session = WhatIfSession(spec)
        outage = min(
            (
                outage for outage in session.ecosystem.outages
                if outage.experiment == spec.experiment
            ),
            key=lambda outage: outage.down_after_round,
        )
        configs = session.schedule.configs
        session.advance_to_config(configs[outage.down_after_round + 1])
        assert session.engine.link_is_down(outage.a, outage.b)
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
# Cell-backend differential


@pytest.fixture(scope="module")
def scheduler_case():
    """The standalone run next to the same spec forced onto each cell
    backend, all with provenance."""
    return _provenance_case(*GRID[0])


class TestSchedulerDifferential:
    """Identity of the cell execution paths: a cell forced onto either
    backend must be byte-identical to the standalone run."""

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

    def test_update_log_and_feeders_identical(self, scheduler_case):
        _, serial, variants, _ = scheduler_case
        for label, result in variants.items():
            assert result.update_log == serial.update_log, label
            assert result.feeder_views == serial.feeder_views, label
            assert result.outages_applied == serial.outages_applied, label
