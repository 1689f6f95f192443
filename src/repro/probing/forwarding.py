"""AS-level data-plane forwarding of response traffic.

A response leaves the probed system's AS and is forwarded hop-by-hop:
every transit AS uses its *own* best route for the measurement prefix
(§3.4 — intermediate policies can dominate the edge's).  The walk ends
at one of the announcement origins, identifying the arrival interface,
or fails (no route and no default).

Within one converged RIB a walk depends on nothing but its start AS,
so the question "which origin does each AS's traffic reach?" is a
catchment, resolved once per :class:`RibSnapshot` into a
:class:`Catchment` and then answered by lookup.  A
:class:`LiveCatchment` is resolved once per engine and patched after
each routing change, re-resolving only the walks the change moved.
The hop-by-hop walk that defines the catchment's semantics lives in
the tests, as the oracle both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

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

#: The step of an AS with no forwarding state.
_NO_STEP: Tuple[int, Optional[int]] = (_NONE, None)


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


def _step_from(
    route, default_route_via: Optional[int]
) -> Optional[Tuple[int, Optional[int]]]:
    """The forwarding step of an AS whose best route is *route* (None:
    no route) and whose policy defaults via *default_route_via*; None
    when it has no forwarding state at all."""
    if route is None:
        if default_route_via is None:
            return None
        return _DEFAULT, default_route_via
    if route.learned_from is None:
        return _LOCAL, None
    return _ROUTE, route.learned_from


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
            step = _step_from(
                best_route_of(asn), node.policy.default_route_via
            )
            if step is None:
                continue
            kind, target = step
            if kind == _ROUTE:
                next_hop[asn] = target
            elif kind == _LOCAL:
                local.add(asn)
            else:
                default_via[asn] = target
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
        """Resolve every AS's walk toward *origin_asns* at once: the
        walks from the origins and from every AS with forwarding
        state, into an empty table (see :func:`_resolve_walks`)."""
        origins = frozenset(origin_asns)
        table: Dict[int, Resolved] = {}
        _resolve_walks(
            self._step_of, origins, table,
            chain(origins, self.next_hop, self.local, self.default_via),
        )
        return Catchment(table)


def _resolve_walks(
    step_of: Callable[[int], Tuple[int, Optional[int]]],
    origins: FrozenSet[int],
    table: Dict[int, Resolved],
    starts: Iterable[int],
) -> None:
    """Resolve the walk from each of *starts* into *table*.

    The forwarding state (``step_of``) forms a functional graph: each
    AS that forwards has exactly one successor.  A walk stops at the
    first AS already in *table*, at a terminal (an origin, a local
    holder, an AS with nothing), or on closing a cycle, and the ASes
    it passed are then resolved back to front, one hop more each, so
    every AS is visited once.  For every start AS the entry is what a
    hop-by-hop walk from it comes to: ``(outcome, origin_asn, hop
    count)``, ``MAX_AS_HOPS`` cap included — provided every entry
    already in *table* is.  A full build starts from an empty table;
    :meth:`LiveCatchment.patch` starts from the entries a change left
    valid.
    """
    for start in starts:
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
        # *asn* is where the walk stopped (a terminal, a resolved AS,
        # or the cycle's last member); the path before it is resolved
        # back to front, one hop more each.
        table[asn] = tail
        for member in reversed(path):
            outcome, origin_asn, hops = tail
            tail = _capped(outcome, origin_asn, hops + 1)
            table[member] = tail


@dataclass(frozen=True)
class Catchment:
    """Every AS's return walk over one :class:`RibSnapshot`, resolved.

    ``table`` maps each AS with forwarding state, each origin and each
    next hop to its :data:`Resolved` walk; any other AS has no state
    and resolves to ``NO_ROUTE`` in one hop.  Built by
    :meth:`RibSnapshot.resolve`; probes and what-if queries then read
    it in O(1) per AS.
    """

    table: Dict[int, Resolved]

    def lookup(self, asn: int) -> Resolved:
        """The walk from *asn*: ``(outcome, origin_asn, hop count)``."""
        return self.table.get(asn, _NO_ROUTE)


class LiveCatchment(Catchment):
    """One data plane's catchment, kept current as its RIB changes.

    Built once, like a :class:`Catchment`, from a captured
    :class:`RibSnapshot`; after each routing change :meth:`patch`
    re-reads only the ASes whose best route changed and re-resolves
    only the walks that pass through one whose forwarding step moved,
    in place, with the same resolve loop a full build runs.  A change
    moves few walks (*Inferring Catchment in Internet Routing*), so a
    patch costs a few table entries where a rebuild costs them all.

    The reader is *best_route_of* over a live RIB; default routes are
    read from the AS's policy at the time, like
    :meth:`RibSnapshot.capture` does.
    """

    def __init__(
        self,
        topology: Topology,
        best_route_of: Callable[[int], object],
        prefix: Prefix,
        origin_asns,
    ) -> None:
        origins = frozenset(origin_asns)
        snapshot = RibSnapshot.capture(topology, best_route_of, prefix)
        super().__init__(snapshot.resolve(origins).table)
        self.origins = origins
        self._best_route_of = best_route_of
        self._policy_of = {node.asn: node.policy for node in topology.ases()}
        #: Each AS with forwarding state -> its ``(kind, next hop)``.
        self._steps: Dict[int, Tuple[int, Optional[int]]] = {
            asn: snapshot._step_of(asn)
            for asn in chain(snapshot.next_hop, snapshot.local,
                             snapshot.default_via)
        }
        #: Next hop -> the ASes whose step (route or default) leads
        #: to it: the reverse edges a patch follows upstream.
        self._upstream: Dict[int, Set[int]] = {}
        for asn, (_, next_hop) in self._steps.items():
            if next_hop is not None:
                self._upstream.setdefault(next_hop, set()).add(asn)

    def _step_of(self, asn: int) -> Tuple[int, Optional[int]]:
        return self._steps.get(asn, _NO_STEP)

    def patch(self, changed_asns: Iterable[int]) -> Set[int]:
        """Bring the table up to date after a routing change in which
        only *changed_asns* changed their best route (a superset is
        fine), and return the ASes whose entries were re-resolved.

        Every AS whose walk passes through one whose step moved is
        forgotten — its transitive upstream, route and default edges
        alike, stopping at origins, where walks end — and re-resolved
        from the entries that remain.  An entry left in place has a
        walk that crosses no moved step, so it is still exact.
        """
        steps = self._steps
        upstream = self._upstream
        best_route_of = self._best_route_of
        policy_of = self._policy_of
        moved: List[int] = []
        for asn in changed_asns:
            step = _step_from(
                best_route_of(asn), policy_of[asn].default_route_via
            )
            old = steps.get(asn)
            if step == old:
                continue
            if old is not None and old[1] is not None:
                upstream[old[1]].discard(asn)
            if step is None:
                del steps[asn]
            else:
                steps[asn] = step
                if step[1] is not None:
                    upstream.setdefault(step[1], set()).add(asn)
            moved.append(asn)
        stale = set(moved)
        origins = self.origins
        pending = moved
        while pending:
            asn = pending.pop()
            if asn in origins:
                continue
            for behind in upstream.get(asn, ()):
                if behind not in stale:
                    stale.add(behind)
                    pending.append(behind)
        table = self.table
        for asn in stale:
            table.pop(asn, None)
        _resolve_walks(self._step_of, origins, table, stale)
        return stale
