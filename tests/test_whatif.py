"""The what-if facade: warm sessions, delta parsing, memoized queries,
and the ``repro whatif`` CLI surface.

The heavyweight identity checks (warm state vs cold replay, backend
equivalence) live in ``test_differential.py::TestDeltaConvergence``;
this module covers the session/CLI semantics around them.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    ExperimentSpec,
    Prediction,
    WhatIfSession,
    network_of,
    run_experiment,
)
from repro.bgp.engine import (
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    WithdrawDelta,
)
from repro.cli import main
from repro.core.classify import (
    RoundSignal,
    classify_experiment,
    classify_signals,
    origin_map,
)
from repro.errors import EngineError, ExperimentError, ReproError
from repro.obs import use_registry
from repro.obs.provenance import SIGNAL_LABELS, signal_from_kinds
from repro.probing import RibSnapshot
from repro.whatif import parse_delta


@pytest.fixture(scope="module")
def session():
    return WhatIfSession(ExperimentSpec(seed=0, scale=0.04))


class TestParseDelta:
    def test_prepend(self, session):
        delta = parse_delta("prepend:re=3", session)
        assert isinstance(delta, PrependChange)
        assert delta.origin_asn == session.re_origin
        assert delta.prepends == 3

    def test_announce_with_and_without_amount(self, session):
        delta = parse_delta("announce:commodity=2", session)
        assert isinstance(delta, AnnounceDelta)
        assert delta.origin_asn == session.commodity_origin
        assert delta.default_prepends == 2
        assert delta.tag == "commodity"
        bare = parse_delta("announce:re", session)
        assert bare.default_prepends == 0
        assert bare.tag == "re"

    def test_withdraw(self, session):
        delta = parse_delta("withdraw:re", session)
        assert isinstance(delta, WithdrawDelta)
        assert delta.origin_asn == session.re_origin

    def test_localpref(self, session):
        delta = parse_delta("localpref:1125:1103=50", session)
        assert delta == LocalprefEdit(1125, 1103, 50)

    @pytest.mark.parametrize("kind,action", [
        ("flap", "flap"), ("down", "down"), ("up", "up"),
    ])
    def test_link_actions(self, session, kind, action):
        delta = parse_delta("%s:1125-1103" % kind, session)
        assert delta == LinkFlap(1125, 1103, action=action)

    @pytest.mark.parametrize("bad", [
        "prepend:re=lots",        # non-integer amount
        "prepend:left=2",         # unknown side
        "flap:1125",              # missing -b
        "teleport:re",            # unknown kind
        "localpref:1125=50",      # missing neighbor
        # Counts, ASNs and localpref values are ASCII digits only.
        "prepend:re=٣",           # ARABIC-INDIC DIGIT THREE
        "prepend:re= 3",
        "prepend:re=1_0",
        "prepend:re=3\n",
        "prepend:re=-1",
        "announce:re=+2",
        "localpref:1125:1103=５０",  # fullwidth digits
        "flap:1125-1_103",
        # Counts are bounded to 10 digits before int() parses them.
        pytest.param("prepend:re=" + "9" * 5000, id="prepend:re=5000-digits"),
        "localpref:1125:1103=" + "9" * 11,
    ])
    def test_bad_specs_raise(self, session, bad):
        with pytest.raises(ExperimentError):
            parse_delta(bad, session)


class TestPrependCap:
    """A prepended origin path fills at most one AS_SEQUENCE segment
    (255 ASNs); a larger count fails before the engine changes."""

    @pytest.mark.parametrize("text", [
        "prepend:re=255",
        "announce:commodity=255",
        "prepend:re=100000000000000000000",
    ])
    def test_over_the_cap_raises_and_leaves_state_alone(self, text):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        before = session.rib_state()
        with pytest.raises(ReproError):
            session.apply(parse_delta(text, session))
        assert session.rib_state() == before

    def test_the_cap_itself_is_accepted(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        outcome = session.apply(parse_delta("prepend:re=254", session))
        assert outcome.messages_delivered > 0


class TestConfigStepping:
    def test_unknown_config_rejected(self, session):
        with pytest.raises(ExperimentError, match="unknown config"):
            session.advance_to_config("9-9")

    def test_history_is_forward_only(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        session.advance_to_config("2-0")
        with pytest.raises(ExperimentError, match="cannot step backwards"):
            session.advance_to_config("3-0")

    def test_earlier_configs_stay_queryable_from_cache(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        prefix = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )[0]
        first = session.predict(prefix)
        assert first.config == "4-0"
        session.advance_to_config("3-0")
        # The catchment resolved at 4-0 still answers for that label.
        assert session.predict(prefix, config="4-0") == first
        # Free-form deltas invalidate cached configs: the catchments no
        # longer describe any schedule state, and rebuilding one would
        # mean stepping backwards.
        session.apply(PrependChange(
            session.re_origin, session.ecosystem.measurement_prefix, 1,
        ))
        with pytest.raises(ExperimentError, match="cannot step backwards"):
            session.predict(prefix, config="4-0")

    def test_backwards_after_a_delta_names_the_dropped_cache(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        prefix = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )[0]
        session.advance_to_config("3-0")
        session.apply(PrependChange(
            session.re_origin, session.ecosystem.measurement_prefix, 1,
        ))
        # The delta dropped 4-0's cached catchment, so the error must
        # say so rather than only send the caller back to that cache.
        with pytest.raises(ExperimentError) as raised:
            session.predict(prefix, config="4-0")
        assert "applying a delta drops" in str(raised.value)

    def test_unknown_prefix_rejected(self, session):
        with pytest.raises(ExperimentError, match="not in the study"):
            session.predict("203.0.113.0/24")


class TestDeterminism:
    def test_predictions_are_a_pure_function_of_the_spec(self):
        spec = ExperimentSpec(seed=0, scale=0.04)
        a, b = WhatIfSession(spec), WhatIfSession(spec)
        prefixes = sorted(
            str(plan.prefix) for plan in a.ecosystem.studied_prefixes()
        )[:16]
        assert a.predict_batch(prefixes) == b.predict_batch(prefixes)
        assert a.rib_state() == b.rib_state()

    def test_prediction_shape(self, session):
        prefix = sorted(
            str(plan.prefix)
            for plan in session.ecosystem.studied_prefixes()
        )[0]
        prediction = session.predict(prefix)
        assert isinstance(prediction, Prediction)
        assert prediction.prefix == prefix
        assert prediction.signal in ("re", "commodity", "both", "none")
        assert all(
            isinstance(address, int)
            for address, _ in prediction.deliveries
        )


class TestWhatifCli:
    def test_exit_zero_with_deltas(self, capsys):
        code = main([
            "whatif", "--scale", "0.04", "--seed", "0",
            "--delta", "prepend:re=2", "--delta", "withdraw:re",
            "--limit", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline @" in out
        assert "applied prepend:re=2" in out
        assert "applied withdraw:re" in out
        assert "after-deltas @" in out

    def test_exit_two_on_bad_delta(self, capsys):
        code = main([
            "whatif", "--scale", "0.04", "--seed", "0",
            "--delta", "teleport:re",
        ])
        assert code == 2
        assert "teleport" in capsys.readouterr().err


class TestWithdrawTwice:
    def test_second_withdraw_raises_and_is_not_journaled(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        session.apply(parse_delta("withdraw:commodity", session))
        before = session.rib_state()
        journal = list(session._journal)
        with pytest.raises(EngineError, match="no live announcement"):
            session.apply(parse_delta("withdraw:commodity", session))
        assert session.rib_state() == before
        assert session._journal == journal


class TestLocalprefCap:
    def test_over_four_octets_raises_and_leaves_state_alone(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        link = min(
            (link.a, link.b) for link in session.ecosystem.topology.links()
        )
        before = session.rib_state()
        with pytest.raises(ReproError, match="99999999999999999999999"):
            session.apply(parse_delta(
                "localpref:%d:%d=99999999999999999999999" % link, session
            ))
        assert session.rib_state() == before
        session.apply(parse_delta(
            "localpref:%d:%d=%d" % (link + (2 ** 32 - 1,)), session
        ))


def _reference_predict(session, catchment, prefix, label):
    """The per-system predict loop the memo replaced, kept here as its
    oracle: look up every alive system's walk in *catchment* and
    classify the reached interface kinds."""
    deliveries, kinds = [], []
    for system in session.ecosystem.prefix_plans[prefix].alive_systems:
        origin = catchment.lookup(system.attached_asn)[1]
        deliveries.append((system.address, origin))
        if origin is not None:
            kinds.append(session.host.interface_for_origin(origin).kind)
    return Prediction(
        prefix=str(prefix),
        config=label,
        signal=signal_from_kinds(kinds),
        deliveries=tuple(deliveries),
    )


def _current_catchment(session):
    """A fresh capture and resolve of the session's current RIB."""
    prefix = session.ecosystem.measurement_prefix
    return RibSnapshot.capture(
        session.ecosystem.topology,
        partial(session.engine.best_route, prefix=prefix),
        prefix,
    ).resolve(session.host.origin_asns())


def _answer(call):
    """A call's value, or the ``ExperimentError`` message it raised."""
    try:
        return call()
    except ExperimentError as error:
        return ("raised", str(error))


#: Step kinds of the memo property; "stray" announces the measurement
#: prefix from a member AS, an origin with no host interface.
_STEPS = ("config", "flap", "down", "up", "localpref", "prepend", "stray")


class TestMemoizedPredict:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40), data=st.data())
    def test_memo_equals_the_reference_loop(self, seed, data):
        session = WhatIfSession(ExperimentSpec(seed=seed, scale=0.02))
        ecosystem = session.ecosystem
        measured = ecosystem.measurement_prefix
        prefixes = sorted(
            plan.prefix for plan in ecosystem.studied_prefixes()
        )
        edges = sorted(
            (link.a, link.b) for link in ecosystem.topology.links()
        )
        members = sorted({
            system.attached_asn for prefix in prefixes
            for system in ecosystem.prefix_plans[prefix].alive_systems
        })
        configs = list(session.schedule.configs)
        catchments = {session.current_config: _current_catchment(session)}

        def check():
            for label, catchment in catchments.items():
                current = label == session.current_config
                for index, prefix in enumerate(prefixes):
                    # Mix str and Prefix queries, and implicit and
                    # explicit current labels.
                    query = str(prefix) if index % 2 else prefix
                    config = None if current and index % 3 else label
                    expected = _answer(partial(
                        _reference_predict, session, catchment, prefix,
                        label,
                    ))
                    assert _answer(
                        partial(session.predict, query, config)
                    ) == expected

        check()
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            step = data.draw(st.sampled_from(_STEPS))
            if step == "config":
                index = configs.index(session.current_config)
                if index + 1 == len(configs):
                    continue
                label = configs[data.draw(st.integers(
                    min_value=index + 1, max_value=len(configs) - 1,
                ))]
                session.advance_to_config(label)
                catchments[label] = _current_catchment(session)
            else:
                a, b = data.draw(st.sampled_from(edges))
                if step in ("flap", "down", "up"):
                    delta = LinkFlap(a, b, action=step)
                elif step == "localpref":
                    delta = LocalprefEdit(a, b, data.draw(
                        st.sampled_from((50, 100, 150, 200, 300))
                    ))
                elif step == "prepend":
                    delta = PrependChange(
                        data.draw(st.sampled_from(
                            (session.re_origin, session.commodity_origin)
                        )),
                        measured,
                        data.draw(st.integers(min_value=0, max_value=4)),
                    )
                else:
                    delta = AnnounceDelta(
                        data.draw(st.sampled_from(members)), measured,
                    )
                session.apply(delta)
                catchments = {
                    session.current_config: _current_catchment(session),
                }
            check()

    def test_no_interface_delivery_raises_from_predict_only(self):
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        ecosystem = session.ecosystem
        prefixes = sorted(
            plan.prefix for plan in ecosystem.studied_prefixes()
        )
        for prefix in prefixes:
            session.predict(prefix)
        stray = ecosystem.prefix_plans[prefixes[0]].alive_systems[0]
        # The stray origin holds the measurement prefix locally, so its
        # own walk delivers to it; the host has no interface for it.
        session.apply(AnnounceDelta(
            stray.attached_asn, ecosystem.measurement_prefix,
        ))
        failed = []
        for prefix in prefixes:
            try:
                session.predict(prefix)
            except ExperimentError as error:
                assert "no interface attached" in str(error)
                failed.append(prefix)
        assert prefixes[0] in failed
        assert len(failed) < len(prefixes)
        # Stepping the config does not raise either, and the failure
        # is not memoized: asking again raises again.
        session.advance_to_config("3-0")
        with pytest.raises(ExperimentError, match="no interface attached"):
            session.predict(prefixes[0])
        # Withdrawing the stray announcement heals exactly those.
        session.apply(WithdrawDelta(
            stray.attached_asn, ecosystem.measurement_prefix,
        ))
        for prefix in failed:
            session.predict(prefix)


class TestOneCatchmentPerSession:
    def test_states_patch_the_warm_up_capture(self, monkeypatch):
        """Only warm-up captures the data plane; config steps and
        deltas patch that catchment (the memo property above holds
        the patched answers to fresh captures)."""
        capture = RibSnapshot.capture.__func__
        calls = []

        def counted(cls, *args):
            calls.append(args)
            return capture(cls, *args)

        monkeypatch.setattr(RibSnapshot, "capture", classmethod(counted))
        session = WhatIfSession(ExperimentSpec(seed=0, scale=0.04))
        link = next(iter(session.ecosystem.topology.links()))
        session.advance_to_config("0-2")
        session.apply(LinkFlap(link.a, link.b))
        session.apply(PrependChange(
            session.re_origin, session.ecosystem.measurement_prefix, 3,
        ))
        session.advance_to_config("0-4")
        assert len(calls) == 1


class TestTheRunnersSchedule:
    """The session steps the runner's own control-plane schedule, so
    its warm network sees the run's outages and fault-plan flaps."""

    def test_fault_plan_flaps_fire(self):
        spec = ExperimentSpec(seed=0, scale=0.04, fault_spec="flap=8")
        with use_registry() as registry:
            session = WhatIfSession(spec)
            configs = session.schedule.configs
            session.advance_to_config(configs[-1])
        # The session left every round but the last one.
        plan = spec.fault_plan()
        fired = sum(
            len(plan.flaps_after(index)) for index in range(len(configs) - 1)
        )
        assert fired > 0
        assert registry.counter_value("runner.faults_injected") == fired
        assert session.rib_state() == session.replay_cold().rib_state()

    @pytest.mark.parametrize("fault_spec", ["", "flap=4"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("experiment", ["surf", "internet2"])
    def test_routing_is_measured(self, experiment, seed, fault_spec):
        """With probe loss off, every predicted signal is the measured
        one, and the nine predicted signals classify to each prefix's
        measured label (outage victims included)."""
        spec = ExperimentSpec(
            experiment=experiment, seed=seed, scale=0.04,
            config_overrides={
                "base_loss_probability": 0.0,
                "flaky_loss_probability": 0.0,
            },
            fault_spec=fault_spec,
        )
        ecosystem, seed_plan = network_of(spec)
        result = run_experiment(spec, ecosystem, seed_plan)
        session = WhatIfSession(spec, ecosystem)
        predicted = {prefix: [] for prefix in seed_plan.targets}
        differ = []
        for round_result in result.rounds:
            session.advance_to_config(round_result.config)
            for prefix, signals in predicted.items():
                signal = session.predict(prefix).signal
                measured = SIGNAL_LABELS[round_result.signal_code(prefix)]
                if signal != measured:
                    differ.append((str(prefix), round_result.config))
                signals.append(RoundSignal(signal))
        assert differ == []
        inference = classify_experiment(result, origin_map(ecosystem))
        assert {
            prefix: classify_signals(signals)
            for prefix, signals in predicted.items()
        } == {
            prefix: inference.inferences[prefix].category
            for prefix in predicted
        }


_DELTA_KINDS = (
    "prepend", "announce", "withdraw", "localpref", "flap", "down", "up",
)


class TestParseDeltaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=40),
        st.builds(
            "{}:{}".format,
            st.sampled_from(_DELTA_KINDS),
            st.text(alphabet="0123456789:=-_ re٣５", max_size=24),
        ),
    ))
    def test_only_repro_errors_escape(self, session, text):
        try:
            parse_delta(text, session)
        except ReproError:
            pass
