"""Converged collector-view RIB snapshots over the studied prefixes.

Two consumers:

- Figure 5 needs the route an R&E-connected observer (the RIPE
  analogue) selects for *every* studied prefix;
- Table 4 needs the origin-AS prepending visible in collected AS paths
  toward R&E vs commodity neighbors.

Routes for all prefixes of one origin propagate identically, and
origins with the same attachment signature (same upstreams over the
same sessions, same export prepends and filters, same upstream
localprefs toward them, same rank in each upstream's neighbor-ASN
tie-break) propagate identically up to the origin ASN in the path — so
:func:`build_collector_rib` memoizes fastpath runs by signature and
substitutes origin ASNs, keeping full-scale analyses cheap.

Its fastpath runs share one export table compiled for the observers: a
sink (an AS with no customer and no fabric-peer session) never
re-exports a learned route, so the table leaves out the arcs into every
sink that is not an observer, and each run relaxes only the transit
core plus the observers.  That table answers only for observers and
non-sinks, which is all a collector view reads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..bgp.attributes import Announcement
from ..bgp.fastpath import ExportTable, propagate_fastpath
from ..netutil import Prefix
from ..obs import span
from ..topology.graph import ASClass, Topology
from ..topology.re_ecosystem import Ecosystem


@dataclass(frozen=True)
class RIBEntry:
    """One observer's selected route for one prefix."""

    prefix: Prefix
    path: Tuple[int, ...]
    first_hop: int
    origin_asn: int


@dataclass
class CollectorRIB:
    """Per-observer RIB snapshots."""

    observers: List[int]
    entries: Dict[int, Dict[Prefix, RIBEntry]] = field(default_factory=dict)
    fastpath_runs: int = 0
    memo_hits: int = 0

    def route(self, observer: int, prefix: Prefix) -> Optional[RIBEntry]:
        return self.entries.get(observer, {}).get(prefix)

    def routes_of(self, observer: int) -> Dict[Prefix, RIBEntry]:
        return self.entries.get(observer, {})


def _origin_signature(
    exports: ExportTable,
    origin: int,
    transit_neighbors: Dict[int, List[int]],
) -> Tuple:
    """Everything about an origin's attachment that shapes propagation:
    per neighbor, the relationship and fabric flag of the session, the
    origin's export prepends and filters, the localpref the neighbor
    assigns the origin's routes, and the origin's rank in the neighbor's
    lowest-neighbor-ASN tie-break.  Only non-sinks offer a neighbor the
    origin's route, so the rank counts the neighbor's non-sinks below
    the origin; *transit_neighbors* caches those lists per neighbor.

    Two origins that agree on all else but are both non-sinks get
    different ranks (the lower one counts toward the higher one's rank
    at every shared neighbor), so a transit origin never reuses another
    origin's template."""
    topology = exports.topology
    policy = topology.node(origin).policy
    signature = []
    for neighbor, (rel, fabric) in sorted(exports.learned[origin].items()):
        transit = transit_neighbors.get(neighbor)
        if transit is None:
            transit = transit_neighbors[neighbor] = sorted(
                asn for asn in exports.learned[neighbor]
                if asn not in exports.sinks
            )
        signature.append((
            neighbor,
            rel.value,
            fabric,
            policy.prepends_toward(neighbor),
            neighbor in policy.no_export_to,
            frozenset(policy.no_export_tags.get(neighbor, ())),
            topology.node(neighbor).policy.localpref_for(
                origin, rel.flipped()
            ),
            bisect_left(transit, origin),
        ))
    return tuple(signature)


@span("collectors.rib.build")
def build_collector_rib(
    ecosystem: Ecosystem,
    observers: Iterable[int],
    prefixes: Optional[Iterable[Prefix]] = None,
) -> CollectorRIB:
    """Compute each observer's converged route for every studied prefix
    (or the given subset).

    Raises :class:`~repro.errors.TopologyError` for an observer that is
    not in the topology."""
    topology = ecosystem.topology
    observer_list = sorted(set(observers))
    # One table for every fastpath run, without arcs into sinks that are
    # not observers.
    exports = ExportTable(topology, observers=observer_list)
    rib = CollectorRIB(observers=observer_list)
    for observer in observer_list:
        rib.entries[observer] = {}

    if prefixes is None:
        plans = ecosystem.studied_prefixes()
        wanted = [(plan.prefix, plan.origin_asn) for plan in plans]
    else:
        wanted = [
            (prefix, topology.origin_of(prefix)) for prefix in prefixes
        ]

    by_origin: Dict[int, List[Prefix]] = {}
    for prefix, origin in wanted:
        by_origin.setdefault(origin, []).append(prefix)

    # Memoize observer paths by origin attachment signature.
    memo: Dict[Tuple, Dict[int, Optional[Tuple[int, ...]]]] = {}
    transit_neighbors: Dict[int, List[int]] = {}
    for origin in sorted(by_origin):
        # An observer holds its own prefixes' local route, so an origin
        # that is an observer shares no template.
        signature = (
            _origin_signature(exports, origin, transit_neighbors),
            origin if origin in rib.entries else None,
        )
        cached = memo.get(signature)
        if cached is None:
            representative = by_origin[origin][0]
            result = propagate_fastpath(
                topology,
                [Announcement(prefix=representative, origin_asn=origin)],
                exports=exports,
            )
            rib.fastpath_runs += 1
            cached = {}
            for observer in observer_list:
                route = result.route_at(observer)
                if route is None:
                    cached[observer] = None
                else:
                    # Substitute a placeholder for the origin ASN so the
                    # cache applies to signature-equal origins.
                    cached[observer] = tuple(
                        -1 if asn == origin else asn
                        for asn in route.path.asns
                    )
            memo[signature] = cached
        else:
            rib.memo_hits += 1
        for observer in observer_list:
            template = cached[observer]
            if template is None:
                continue
            path = tuple(origin if a == -1 else a for a in template)
            for prefix in by_origin[origin]:
                rib.entries[observer][prefix] = RIBEntry(
                    prefix=prefix,
                    path=path,
                    first_hop=path[0],
                    origin_asn=path[-1],
                )
    return rib


def neighbor_is_re(topology: Topology, asn: int) -> bool:
    """Is this AS part of the R&E ecosystem for upstream classification
    (§4.2: Participant or Peer-NREN routes observed by Internet2)?"""
    return topology.node(asn).klass.is_re


@dataclass(frozen=True)
class PrependObservation:
    """Origin prepending visible in collected routes for one prefix
    (§4.2): extra origin prepends toward R&E and commodity neighbors,
    the latter None when no commodity route is observed."""

    prefix: Prefix
    re_prepends: int
    commodity_prepends: Optional[int]

    @property
    def has_commodity(self) -> bool:
        return self.commodity_prepends is not None


def observe_origin_prepending(
    ecosystem: Ecosystem,
) -> Dict[Prefix, PrependObservation]:
    """Reconstruct, per prefix, the origin-AS prepending a collector
    observes toward R&E vs commodity upstreams.

    A commodity-side route is observable only when the origin actually
    exports to a commodity neighbor; origins with hidden commodity
    egress land in the "no commodity" column exactly as in the paper.
    """
    topology = ecosystem.topology
    out: Dict[Prefix, PrependObservation] = {}
    for plan in ecosystem.studied_prefixes():
        origin = plan.origin_asn
        policy = topology.node(origin).policy
        re_counts: List[int] = []
        commodity_counts: List[int] = []
        for neighbor in topology.neighbors(origin):
            if neighbor in policy.no_export_to:
                continue
            if neighbor_is_re(topology, neighbor):
                re_counts.append(policy.prepends_toward(neighbor))
            elif topology.node(neighbor).klass in (
                ASClass.TIER1, ASClass.TRANSIT
            ):
                commodity_counts.append(policy.prepends_toward(neighbor))
        out[plan.prefix] = PrependObservation(
            prefix=plan.prefix,
            re_prepends=min(re_counts) if re_counts else 0,
            commodity_prepends=(
                min(commodity_counts) if commodity_counts else None
            ),
        )
    return out
