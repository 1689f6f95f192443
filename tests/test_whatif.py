"""The what-if facade: warm sessions, delta parsing, catchment-cached
queries, and the ``repro whatif`` CLI surface.

The heavyweight identity checks (warm state vs cold replay, backend
equivalence) live in ``test_differential.py::TestDeltaConvergence``;
this module covers the session/CLI semantics around them.
"""

import pytest

from repro.api import ExperimentSpec, Prediction, WhatIfSession
from repro.bgp.engine import (
    AnnounceDelta,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    WithdrawDelta,
)
from repro.cli import main
from repro.errors import ExperimentError, ReproError
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
