"""Routing policy: relationships, localpref assignment, export rules.

Export follows Gao-Rexford with one R&E-specific extension (§2.1): R&E
backbones re-export routes learned from *fabric* peers (other R&E
backbones/NRENs) to their other fabric peers, building the global R&E
fabric — e.g. Internet2 exports GEANT routes to AARNet.  A link is part
of the fabric when both ends mark it so in the topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Set

from ..errors import PolicyError
from .decision import DecisionProcess


class Rel(Enum):
    """The relationship of a neighbor, from the local AS's viewpoint."""

    CUSTOMER = "customer"   # the neighbor is our customer
    PROVIDER = "provider"   # the neighbor is our provider
    PEER = "peer"           # settlement-free peer

    def flipped(self) -> "Rel":
        if self is Rel.CUSTOMER:
            return Rel.PROVIDER
        if self is Rel.PROVIDER:
            return Rel.CUSTOMER
        return Rel.PEER


#: Conventional Gao-Rexford localpref tiers used as profile defaults.
LP_CUSTOMER = 300
LP_PEER = 200
LP_RE_PREFERRED = 150
LP_PROVIDER = 100

#: LOCAL_PREF is a four-octet attribute (RFC 4271 §4.3).
MAX_LOCALPREF = 2 ** 32 - 1

ORIGIN = None  # sentinel "relationship" of locally originated routes


def may_export(
    learned_rel: Optional[Rel],
    to_rel: Rel,
    learned_fabric: bool = False,
    to_fabric: bool = False,
) -> bool:
    """Gao-Rexford export rule with the R&E fabric extension.

    *learned_rel* is the relationship of the neighbor the route was
    learned from (``None`` for locally originated routes); *to_rel* is
    the relationship of the neighbor the route would be exported to.
    ``learned_fabric``/``to_fabric`` flag whether those sessions ride
    R&E fabric links.
    """
    if learned_rel is None or learned_rel is Rel.CUSTOMER:
        return True  # own and customer routes go to everyone
    if to_rel is Rel.CUSTOMER:
        return True  # everything goes to customers
    if learned_fabric and to_fabric and to_rel is Rel.PEER:
        return True  # R&E fabric: re-export fabric-peer routes to fabric peers
    return False


@dataclass
class RoutingPolicy:
    """Per-AS routing policy.

    ``localpref`` maps neighbor ASN to the localpref assigned to routes
    learned from that neighbor; neighbors not listed receive
    ``default_localpref_for`` their relationship tier.  ``export_prepends``
    maps neighbor ASN to extra copies of *our own* ASN added whenever we
    export any route to that neighbor (origin prepending and transit
    prepending, e.g. CENIC prepending its commodity announcements).
    ``default_route_via`` names a neighbor used as data-plane default when
    no route is known (§2.3's default-route caveat).  ``path_length_
    sensitive``/``age_tiebreak`` select the decision-process variant.
    ``no_export_to`` lists neighbors that never receive exports — the
    "hidden commodity transit" of §4.2, where a member uses a commodity
    provider for egress but does not announce its prefixes to it.
    ``no_export_tags`` scopes the filter to announcement tags: the paper
    arranged that the R&E measurement announcement never reached
    commodity providers (§3.1 verified only R&E networks carried it),
    which SURF implements here by not exporting "re"-tagged routes to
    its commodity transit.
    """

    localpref: Dict[int, int] = field(default_factory=dict)
    no_export_to: Set[int] = field(default_factory=set)
    no_export_tags: Dict[int, Set[str]] = field(default_factory=dict)
    tier_localpref: Dict[Rel, int] = field(
        default_factory=lambda: {
            Rel.CUSTOMER: LP_CUSTOMER,
            Rel.PEER: LP_PEER,
            Rel.PROVIDER: LP_PROVIDER,
        }
    )
    export_prepends: Dict[int, int] = field(default_factory=dict)
    path_length_sensitive: bool = True
    age_tiebreak: bool = True
    default_route_via: Optional[int] = None

    def __post_init__(self) -> None:
        for asn, value in self.localpref.items():
            if value < 0:
                raise PolicyError(
                    "negative localpref %d for neighbor %d" % (value, asn)
                )
            if value > MAX_LOCALPREF:
                raise PolicyError(
                    "localpref %d for neighbor %d exceeds %d"
                    % (value, asn, MAX_LOCALPREF)
                )
        for asn, count in self.export_prepends.items():
            if count < 0:
                raise PolicyError(
                    "negative prepend count %d toward neighbor %d"
                    % (count, asn)
                )

    def localpref_for(self, neighbor_asn: int, rel: Rel) -> int:
        """Localpref to assign to a route learned from *neighbor_asn*."""
        if neighbor_asn in self.localpref:
            return self.localpref[neighbor_asn]
        return self.tier_localpref[rel]

    def prepends_toward(self, neighbor_asn: int) -> int:
        """Extra self-prepends on exports to *neighbor_asn*."""
        return self.export_prepends.get(neighbor_asn, 0)

    def blocks_export(self, neighbor_asn: int, tag: str = "") -> bool:
        """True if exports (of routes carrying *tag*) to this neighbor
        are filtered."""
        if neighbor_asn in self.no_export_to:
            return True
        return tag in self.no_export_tags.get(neighbor_asn, ())

    def decision_process(self) -> DecisionProcess:
        return DecisionProcess.standard(
            path_length_sensitive=self.path_length_sensitive,
            age_tiebreak=self.age_tiebreak,
        )

    def set_neighbor_localpref(self, neighbor_asn: int, value: int) -> None:
        if value < 0:
            raise PolicyError("negative localpref %d" % value)
        if value > MAX_LOCALPREF:
            raise PolicyError(
                "localpref %d exceeds %d" % (value, MAX_LOCALPREF)
            )
        self.localpref[neighbor_asn] = value

    def set_export_prepends(self, neighbor_asn: int, count: int) -> None:
        if count < 0:
            raise PolicyError("negative prepend count %d" % count)
        self.export_prepends[neighbor_asn] = count


def equal_upstream_policy(
    re_neighbors: Dict[int, Rel], commodity_neighbors: Dict[int, Rel]
) -> RoutingPolicy:
    """Policy assigning the *same* localpref to R&E and commodity
    upstream routes, so AS path length breaks the tie (§4's
    "switch to R&E" population)."""
    policy = RoutingPolicy()
    for asn in re_neighbors:
        policy.set_neighbor_localpref(asn, LP_PROVIDER)
    for asn in commodity_neighbors:
        policy.set_neighbor_localpref(asn, LP_PROVIDER)
    return policy


def re_preferred_policy(
    re_neighbors: Dict[int, Rel], commodity_neighbors: Dict[int, Rel]
) -> RoutingPolicy:
    """Policy assigning R&E upstreams a higher localpref than commodity
    upstreams (the deterministic-R&E population)."""
    policy = RoutingPolicy()
    for asn in re_neighbors:
        policy.set_neighbor_localpref(asn, LP_RE_PREFERRED)
    for asn in commodity_neighbors:
        policy.set_neighbor_localpref(asn, LP_PROVIDER)
    return policy


def commodity_preferred_policy(
    re_neighbors: Dict[int, Rel], commodity_neighbors: Dict[int, Rel]
) -> RoutingPolicy:
    """Policy preferring commodity routes over R&E routes (the
    "always commodity" population)."""
    policy = RoutingPolicy()
    for asn in re_neighbors:
        policy.set_neighbor_localpref(asn, LP_PROVIDER)
    for asn in commodity_neighbors:
        policy.set_neighbor_localpref(asn, LP_RE_PREFERRED)
    return policy
