"""Tests for routing policy: relationships, localpref, export rules."""

import pytest

from repro.bgp.policy import (
    LP_CUSTOMER,
    LP_PEER,
    LP_PROVIDER,
    MAX_LOCALPREF,
    Rel,
    RoutingPolicy,
    commodity_preferred_policy,
    equal_upstream_policy,
    may_export,
    re_preferred_policy,
)
from repro.errors import PolicyError


class TestRel:
    def test_flip_customer(self):
        assert Rel.CUSTOMER.flipped() is Rel.PROVIDER

    def test_flip_provider(self):
        assert Rel.PROVIDER.flipped() is Rel.CUSTOMER

    def test_flip_peer(self):
        assert Rel.PEER.flipped() is Rel.PEER


class TestMayExport:
    """Gao-Rexford plus the R&E fabric extension."""

    def test_own_routes_to_everyone(self):
        for to_rel in Rel:
            assert may_export(None, to_rel)

    def test_customer_routes_to_everyone(self):
        for to_rel in Rel:
            assert may_export(Rel.CUSTOMER, to_rel)

    def test_peer_routes_only_to_customers(self):
        assert may_export(Rel.PEER, Rel.CUSTOMER)
        assert not may_export(Rel.PEER, Rel.PEER)
        assert not may_export(Rel.PEER, Rel.PROVIDER)

    def test_provider_routes_only_to_customers(self):
        assert may_export(Rel.PROVIDER, Rel.CUSTOMER)
        assert not may_export(Rel.PROVIDER, Rel.PEER)
        assert not may_export(Rel.PROVIDER, Rel.PROVIDER)

    def test_fabric_peer_to_fabric_peer_allowed(self):
        assert may_export(
            Rel.PEER, Rel.PEER, learned_fabric=True, to_fabric=True
        )

    def test_fabric_requires_both_ends(self):
        assert not may_export(
            Rel.PEER, Rel.PEER, learned_fabric=True, to_fabric=False
        )
        assert not may_export(
            Rel.PEER, Rel.PEER, learned_fabric=False, to_fabric=True
        )

    def test_fabric_never_leaks_to_provider(self):
        assert not may_export(
            Rel.PEER, Rel.PROVIDER, learned_fabric=True, to_fabric=True
        )


class TestRoutingPolicy:
    def test_tier_defaults(self):
        policy = RoutingPolicy()
        assert policy.localpref_for(1, Rel.CUSTOMER) == LP_CUSTOMER
        assert policy.localpref_for(1, Rel.PEER) == LP_PEER
        assert policy.localpref_for(1, Rel.PROVIDER) == LP_PROVIDER

    def test_neighbor_override(self):
        policy = RoutingPolicy(localpref={7: 102})
        assert policy.localpref_for(7, Rel.PROVIDER) == 102
        assert policy.localpref_for(8, Rel.PROVIDER) == LP_PROVIDER

    def test_rejects_negative_localpref(self):
        with pytest.raises(PolicyError):
            RoutingPolicy(localpref={1: -5})

    def test_rejects_negative_prepends(self):
        with pytest.raises(PolicyError):
            RoutingPolicy(export_prepends={1: -1})

    def test_set_neighbor_localpref(self):
        policy = RoutingPolicy()
        policy.set_neighbor_localpref(3, 250)
        assert policy.localpref_for(3, Rel.PEER) == 250
        with pytest.raises(PolicyError):
            policy.set_neighbor_localpref(3, -1)

    def test_localpref_is_four_octets(self):
        # RFC 4271 §4.3: LOCAL_PREF is a four-octet value.
        policy = RoutingPolicy(localpref={1: MAX_LOCALPREF})
        policy.set_neighbor_localpref(2, MAX_LOCALPREF)
        assert policy.localpref_for(2, Rel.PEER) == 2 ** 32 - 1
        with pytest.raises(PolicyError, match=str(2 ** 32)):
            RoutingPolicy(localpref={1: 2 ** 32})
        with pytest.raises(PolicyError, match="99999999999999999999999"):
            policy.set_neighbor_localpref(3, 99999999999999999999999)
        assert 3 not in policy.localpref

    def test_prepends_toward(self):
        policy = RoutingPolicy()
        policy.set_export_prepends(9, 2)
        assert policy.prepends_toward(9) == 2
        assert policy.prepends_toward(10) == 0
        with pytest.raises(PolicyError):
            policy.set_export_prepends(9, -2)

    def test_blocks_export_unconditional(self):
        policy = RoutingPolicy(no_export_to={5})
        assert policy.blocks_export(5)
        assert policy.blocks_export(5, "re")
        assert not policy.blocks_export(6)

    def test_blocks_export_by_tag(self):
        policy = RoutingPolicy(no_export_tags={5: {"re"}})
        assert policy.blocks_export(5, "re")
        assert not policy.blocks_export(5, "commodity")
        assert not policy.blocks_export(5, "")

    def test_decision_process_reflects_flags(self):
        policy = RoutingPolicy(path_length_sensitive=False)
        assert not policy.decision_process().path_length_sensitive


class TestPolicyProfiles:
    RE = {10: Rel.PROVIDER}
    COMM = {20: Rel.PROVIDER}

    def test_equal_profile(self):
        policy = equal_upstream_policy(self.RE, self.COMM)
        assert policy.localpref_for(10, Rel.PROVIDER) == policy.localpref_for(
            20, Rel.PROVIDER
        )

    def test_re_preferred_profile(self):
        policy = re_preferred_policy(self.RE, self.COMM)
        assert policy.localpref_for(10, Rel.PROVIDER) > policy.localpref_for(
            20, Rel.PROVIDER
        )

    def test_commodity_preferred_profile(self):
        policy = commodity_preferred_policy(self.RE, self.COMM)
        assert policy.localpref_for(20, Rel.PROVIDER) > policy.localpref_for(
            10, Rel.PROVIDER
        )
