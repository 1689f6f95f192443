"""Tests for the BGP decision process."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import ASPath, Route
from repro.bgp.decision import (
    DecisionProcess,
    Step,
    compose_key,
    explain_choice,
)
from repro.errors import PolicyError
from repro.netutil import Prefix

PFX = Prefix.parse("192.0.2.0/24")


def route(neighbor, path_len=2, localpref=100, med=0, age=0.0, tag=""):
    return Route(
        prefix=PFX,
        path=ASPath(tuple(range(1000, 1000 + path_len - 1)) + (9999,)),
        learned_from=neighbor,
        localpref=localpref,
        med=med,
        installed_at=age,
        tag=tag,
    )


class TestStandardProcess:
    def test_empty_returns_none(self):
        assert DecisionProcess.standard().best([]) is None

    def test_single_route_wins(self):
        r = route(1)
        assert DecisionProcess.standard().best([r]) is r

    def test_localpref_dominates_path_length(self):
        long_but_preferred = route(1, path_len=6, localpref=200)
        short = route(2, path_len=2, localpref=100)
        best = DecisionProcess.standard().best([long_but_preferred, short])
        assert best is long_but_preferred

    def test_path_length_breaks_localpref_tie(self):
        a = route(1, path_len=4)
        b = route(2, path_len=2)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_med_breaks_path_tie(self):
        a = route(1, med=10)
        b = route(2, med=5)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_oldest_route_breaks_med_tie(self):
        older = route(1, age=10.0)
        newer = route(2, age=20.0)
        assert DecisionProcess.standard().best([older, newer]) is older

    def test_neighbor_asn_final_tiebreak(self):
        a = route(5, age=1.0)
        b = route(3, age=1.0)
        assert DecisionProcess.standard().best([a, b]) is b

    def test_unknown_neighbor_loses_final_tiebreak(self):
        """A route with no ``learned_from`` maps to +inf on the
        neighbor-ASN step: an *unknown* neighbor must lose the final
        tie-break, not silently beat every known one.  (Locally
        originated routes never reach this step in practice — their
        localpref wins step one.)"""
        unknown = Route(PFX, ASPath((64500,)), None, 100)
        known = route(1, path_len=1)
        best = DecisionProcess.standard().best([unknown, known])
        assert best is known

    def test_duplicate_survivors_raise(self):
        a = route(1)
        b = route(1, tag="x")  # same neighbor, distinct route
        with pytest.raises(PolicyError):
            DecisionProcess.standard().best([a, b])


class TestVariants:
    def test_path_length_insensitive_skips_length(self):
        process = DecisionProcess.standard(path_length_sensitive=False)
        assert not process.path_length_sensitive
        longer_but_older = route(1, path_len=8, age=0.0)
        shorter_newer = route(2, path_len=2, age=5.0)
        assert process.best([longer_but_older, shorter_newer]) is longer_but_older

    def test_no_age_tiebreak_falls_to_neighbor(self):
        process = DecisionProcess.standard(age_tiebreak=False)
        a = route(7, age=0.0)
        b = route(2, age=99.0)
        assert process.best([a, b]) is b

    def test_standard_has_expected_steps(self):
        steps = DecisionProcess.standard().steps
        assert steps[0] is Step.HIGHEST_LOCALPREF
        assert steps[-1] is Step.LOWEST_NEIGHBOR_ASN
        assert Step.SHORTEST_AS_PATH in steps

    def test_insensitive_process_lacks_path_step(self):
        steps = DecisionProcess.standard(path_length_sensitive=False).steps
        assert Step.SHORTEST_AS_PATH not in steps


class TestRanksEqual:
    def test_equal_routes_tie(self):
        a = route(1)
        b = route(2)
        assert DecisionProcess.standard().ranks_equal(a, b)

    def test_differing_localpref_not_equal(self):
        a = route(1, localpref=200)
        b = route(2)
        assert not DecisionProcess.standard().ranks_equal(a, b)


class TestExplain:
    def test_explains_empty(self):
        assert explain_choice(DecisionProcess.standard(), []) == [
            "no candidate routes"
        ]

    def test_explains_narrowing(self):
        lines = explain_choice(
            DecisionProcess.standard(),
            [route(1, path_len=4), route(2, path_len=2)],
        )
        assert any("shortest-as-path" in line for line in lines)


# Property tests: the decision process is a deterministic total choice.

neighbor_ids = st.integers(min_value=1, max_value=50)
route_strategy = st.builds(
    route,
    neighbor=neighbor_ids,
    path_len=st.integers(min_value=1, max_value=8),
    localpref=st.sampled_from([50, 100, 150, 200]),
    med=st.integers(min_value=0, max_value=3),
    age=st.floats(min_value=0, max_value=100, allow_nan=False),
)


def _distinct_neighbors(routes):
    seen = {}
    for r in routes:
        seen.setdefault(r.learned_from, r)
    return list(seen.values())


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_deterministic_and_order_independent(routes):
    routes = _distinct_neighbors(routes)
    process = DecisionProcess.standard()
    best = process.best(routes)
    assert best is process.best(list(reversed(routes)))
    assert best in routes


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_maximal_on_localpref(routes):
    routes = _distinct_neighbors(routes)
    best = DecisionProcess.standard().best(routes)
    assert best.localpref == max(r.localpref for r in routes)


@given(st.lists(route_strategy, min_size=2, max_size=12))
def test_removing_a_loser_preserves_best(routes):
    routes = _distinct_neighbors(routes)
    if len(routes) < 2:
        return
    process = DecisionProcess.standard()
    best = process.best(routes)
    losers = [r for r in routes if r is not best]
    reduced = [r for r in routes if r is not losers[0]]
    assert process.best(reduced) is best


#: The four variants ``RoutingPolicy.decision_process`` can build.
STANDARD_PROCESSES = [
    DecisionProcess.standard(path_length_sensitive=sensitive,
                             age_tiebreak=age)
    for sensitive in (True, False)
    for age in (True, False)
]

#: Routes from any neighbor, or locally originated (no neighbor).
any_route_strategy = st.builds(
    route,
    neighbor=st.one_of(st.none(), neighbor_ids),
    path_len=st.integers(min_value=1, max_value=8),
    localpref=st.sampled_from([50, 100, 150, 200]),
    med=st.integers(min_value=0, max_value=3),
    age=st.floats(min_value=0, max_value=100, allow_nan=False),
)


@pytest.mark.parametrize(
    "process", STANDARD_PROCESSES,
    ids=["+".join(step.value for step in p.steps) for p in STANDARD_PROCESSES],
)
@given(st.lists(any_route_strategy, min_size=1, max_size=12))
def test_key_min_is_the_step_by_step_winner(process, routes):
    """One lexicographic key selects what the step filters select."""
    routes = _distinct_neighbors(routes)
    winner = min(routes, key=process.key)
    assert winner is process.best(routes)
    assert winner is process.best_verbose(routes)[0]
    # The written-out key is the per-step composition.
    composed = compose_key(process.steps)
    assert all(process.key(r) == composed(r) for r in routes)
