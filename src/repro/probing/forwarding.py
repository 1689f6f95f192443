"""AS-level data-plane forwarding of response traffic.

A response leaves the probed system's AS and is forwarded hop-by-hop:
every transit AS uses its *own* best route for the measurement prefix
(§3.4 — intermediate policies can dominate the edge's).  The walk ends
at one of the announcement origins, identifying the arrival interface,
or fails (no route and no default).

Within one converged RIB a walk depends on nothing but its start AS,
so the question "which origin does each AS's traffic reach?" is a
catchment, resolved once per :class:`RibSnapshot` into a
:class:`Catchment` and then answered by lookup.  The hop-by-hop walk
that defines the catchment's semantics lives in the tests, as the
oracle :meth:`RibSnapshot.resolve` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..netutil import Prefix
from ..topology.graph import Topology

#: Generous AS-level TTL; real AS paths never approach this.
MAX_AS_HOPS = 64

#: Step kinds returned by a plane's per-AS lookup: the AS either holds
#: a locally originated route (walk delivers there), forwards along a
#: learned route, falls back to a default route, or has nothing.
_LOCAL = 0
_ROUTE = 1
_DEFAULT = 2
_NONE = 3


class ForwardingOutcome(Enum):
    DELIVERED = "delivered"
    NO_ROUTE = "no-route"
    LOOP = "loop"


#: ``(outcome, terminating origin, hop count)``: what a walk from one
#: AS comes to.
Resolved = Tuple[ForwardingOutcome, Optional[int], int]

#: An AS with no forwarding state at all, and not an origin.
_NO_ROUTE: Resolved = (ForwardingOutcome.NO_ROUTE, None, 1)


def _capped(
    outcome: ForwardingOutcome, origin_asn: Optional[int], hops: int
) -> Resolved:
    """A walk of *hops* ASes, subject to the TTL: one that has not
    ended within ``MAX_AS_HOPS`` steps is a ``LOOP`` of
    ``MAX_AS_HOPS + 1`` hops, whatever lay beyond."""
    if hops > MAX_AS_HOPS:
        return ForwardingOutcome.LOOP, None, MAX_AS_HOPS + 1
    return outcome, origin_asn, hops


@dataclass(frozen=True)
class RibSnapshot:
    """A frozen view of the data plane for one prefix.

    Captures just what a return-path walk needs — per-AS next hop,
    locally originated holders, and per-AS default routes — as plain
    int dictionaries, so the forwarding state outlives the converged
    RIB it was read from without dragging topology or router objects
    along.
    """

    prefix: Prefix
    next_hop: Dict[int, int] = field(default_factory=dict)
    local: FrozenSet[int] = frozenset()
    default_via: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        topology: Topology,
        best_route_of: Callable[[int], object],
        prefix: Prefix,
    ) -> "RibSnapshot":
        """Snapshot every AS's forwarding state for *prefix*."""
        next_hop: Dict[int, int] = {}
        local = set()
        default_via: Dict[int, int] = {}
        for node in topology.ases():
            asn = node.asn
            route = best_route_of(asn)
            if route is None:
                if node.policy.default_route_via is not None:
                    default_via[asn] = node.policy.default_route_via
            elif route.learned_from is None:
                local.add(asn)
            else:
                next_hop[asn] = route.learned_from
        return cls(
            prefix=prefix,
            next_hop=next_hop,
            local=frozenset(local),
            default_via=default_via,
        )

    def _step_of(self, asn: int) -> Tuple[int, Optional[int]]:
        next_hop = self.next_hop.get(asn)
        if next_hop is not None:
            return _ROUTE, next_hop
        if asn in self.local:
            return _LOCAL, None
        default_via = self.default_via.get(asn)
        if default_via is not None:
            return _DEFAULT, default_via
        return _NONE, None

    def resolve(self, origin_asns) -> "Catchment":
        """Resolve every AS's walk toward *origin_asns* at once.

        The snapshot's next hops form a functional graph: each AS that
        forwards has exactly one successor.  Every AS is visited once;
        a walk stops at the first AS already resolved, at a terminal
        (an origin, a local holder, an AS with nothing), or on closing
        a cycle, and the ASes it passed are then resolved back to
        front, one hop more each.  For every start AS the result is
        what a hop-by-hop walk from it comes to: ``(outcome,
        origin_asn, hop count)``, ``MAX_AS_HOPS`` cap included.
        """
        origins = frozenset(origin_asns)
        step_of = self._step_of
        table: Dict[int, Resolved] = {}
        for start in chain(origins, self.next_hop, self.local,
                           self.default_via):
            if start in table:
                continue
            path: List[int] = []
            on_path: Dict[int, int] = {}
            asn = start
            while True:
                tail = table.get(asn)
                if tail is not None:
                    break
                if asn in origins:
                    tail = (ForwardingOutcome.DELIVERED, asn, 1)
                    break
                kind, next_hop = step_of(asn)
                if kind == _NONE:
                    tail = _NO_ROUTE
                    break
                if kind == _LOCAL:
                    # A non-origin holding the prefix locally is the
                    # delivery point.
                    tail = (ForwardingOutcome.DELIVERED, asn, 1)
                    break
                on_path[asn] = len(path)
                path.append(asn)
                if next_hop in on_path:
                    # The walk closes a cycle: every member counts the
                    # cycle plus the repeated hop.
                    entry = on_path[next_hop]
                    tail = _capped(ForwardingOutcome.LOOP, None,
                                   len(path) - entry + 1)
                    for member in path[entry:]:
                        table[member] = tail
                    del path[entry:]
                    break
                asn = next_hop
            # *asn* is where the walk stopped (a terminal, a resolved
            # AS, or the cycle's last member); the path before it is
            # resolved back to front, one hop more each.
            table[asn] = tail
            for member in reversed(path):
                outcome, origin_asn, hops = tail
                tail = _capped(outcome, origin_asn, hops + 1)
                table[member] = tail
        return Catchment(table)


@dataclass(frozen=True)
class Catchment:
    """Every AS's return walk over one :class:`RibSnapshot`, resolved.

    ``table`` maps each AS with forwarding state, each origin and each
    next hop to its :data:`Resolved` walk; any other AS has no state
    and resolves to ``NO_ROUTE`` in one hop.  Built by
    :meth:`RibSnapshot.resolve` once per converged RIB; probes and
    what-if queries then read it in O(1) per AS.
    """

    table: Dict[int, Resolved]

    def lookup(self, asn: int) -> Resolved:
        """The walk from *asn*: ``(outcome, origin_asn, hop count)``."""
        return self.table.get(asn, _NO_ROUTE)
