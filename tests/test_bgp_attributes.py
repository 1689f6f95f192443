"""Tests for BGP route attributes."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import MAX_PREPENDS, Announcement, ASPath, Route
from repro.errors import PolicyError
from repro.netutil import Prefix

PFX = Prefix.parse("192.0.2.0/24")
asns = st.integers(min_value=1, max_value=4_000_000_000)


class TestASPath:
    def test_origin_path_no_prepends(self):
        path = ASPath.origin_path(64500)
        assert path.asns == (64500,)
        assert path.length == 1

    def test_origin_path_with_prepends(self):
        path = ASPath.origin_path(64500, prepends=3)
        assert path.asns == (64500,) * 4
        assert path.prepends_of_origin() == 3

    def test_origin_path_rejects_negative(self):
        with pytest.raises(PolicyError):
            ASPath.origin_path(64500, prepends=-1)

    def test_origin_path_fills_at_most_one_segment(self):
        assert ASPath.origin_path(64500, MAX_PREPENDS).length == 255
        with pytest.raises(PolicyError):
            ASPath.origin_path(64500, prepends=MAX_PREPENDS + 1)

    def test_origin_and_first_hop(self):
        path = ASPath((1, 2, 3))
        assert path.origin == 3
        assert path.first_hop == 1

    def test_empty_path_has_no_origin(self):
        with pytest.raises(PolicyError):
            ASPath(()).origin

    def test_prepended_by(self):
        path = ASPath((2, 3)).prepended_by(1, 2)
        assert path.asns == (1, 1, 2, 3)

    def test_prepended_by_rejects_zero(self):
        with pytest.raises(PolicyError):
            ASPath((1,)).prepended_by(2, 0)

    def test_contains(self):
        path = ASPath((1, 2, 3))
        assert path.contains(2)
        assert not path.contains(4)

    def test_unique_ases_collapses_repeats(self):
        path = ASPath((1, 2, 2, 2, 3, 3))
        assert path.unique_ases == (1, 2, 3)

    def test_prepends_of_origin_none(self):
        assert ASPath((1, 2, 3)).prepends_of_origin() == 0

    def test_prepends_of_origin_interior_repeats_ignored(self):
        assert ASPath((1, 1, 2, 3)).prepends_of_origin() == 0

    def test_str(self):
        assert str(ASPath((11537, 2152, 7377))) == "11537 2152 7377"

    @given(asns, st.integers(min_value=0, max_value=8))
    def test_prepend_increases_length_only(self, asn, count):
        base = ASPath.origin_path(asn)
        prepended = ASPath.origin_path(asn, count)
        assert prepended.length == base.length + count
        assert prepended.origin == base.origin

    @given(st.lists(asns, min_size=1, max_size=10), asns,
           st.integers(min_value=1, max_value=4))
    def test_prepended_by_preserves_suffix(self, tail, head, count):
        path = ASPath(tuple(tail))
        new = path.prepended_by(head, count)
        assert new.asns[count:] == path.asns
        assert new.length == path.length + count


class TestRoute:
    def _route(self, **kwargs):
        defaults = dict(
            prefix=PFX,
            path=ASPath((64501, 64502)),
            learned_from=64501,
            localpref=100,
        )
        defaults.update(kwargs)
        return Route(**defaults)

    def test_origin_asn(self):
        assert self._route().origin_asn == 64502

    def test_aged_copy(self):
        route = self._route(installed_at=1.0)
        aged = route.aged(5.0)
        assert aged.installed_at == 5.0
        assert aged.path == route.path
        assert route.installed_at == 1.0  # original untouched

    def test_str_contains_essentials(self):
        text = str(self._route(tag="re"))
        assert "192.0.2.0/24" in text
        assert "re" in text

    def test_frozen(self):
        route = self._route()
        with pytest.raises(AttributeError):
            route.localpref = 200

    def test_equality_by_value(self):
        assert self._route() == self._route()


class TestAnnouncement:
    def test_default_prepends(self):
        ann = Announcement(PFX, 64500, default_prepends=2)
        assert ann.prepends_toward(1) == 2

    def test_per_neighbor_override(self):
        ann = Announcement(PFX, 64500, prepends={7: 4}, default_prepends=0)
        assert ann.prepends_toward(7) == 4
        assert ann.prepends_toward(8) == 0

    def test_path_toward(self):
        ann = Announcement(PFX, 64500, prepends={7: 2})
        assert ann.path_toward(7).asns == (64500, 64500, 64500)
        assert ann.path_toward(9).asns == (64500,)
