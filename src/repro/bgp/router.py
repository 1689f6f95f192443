"""Per-AS BGP router state.

Each AS is modelled as one router holding an adj-RIB-in (the most recent
route from each neighbor per prefix) and a loc-RIB (the selected best
route per prefix).  Import policy (localpref assignment, loop rejection)
is applied on receive; the decision process then reselects the best
route for the affected prefix as ``min`` over the adj-RIB-in under the
process's lexicographic :attr:`~repro.bgp.decision.DecisionProcess.key`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..netutil import Prefix
from ..obs.capture import active_capture
from ..obs.provenance import selection_event
from .attributes import ASPath, Route
from .decision import DecisionProcess
from .policy import Rel, RoutingPolicy

LOCAL_ROUTE_LOCALPREF = 1_000_000


@dataclass
class BestChange:
    """The outcome of processing one received update."""

    changed: bool
    old: Optional[Route]
    new: Optional[Route]


class Router:
    """BGP state for a single AS."""

    def __init__(self, asn: int, policy: RoutingPolicy) -> None:
        self.asn = asn
        self.policy = policy
        self.process: DecisionProcess = policy.decision_process()
        self._key = self.process.key
        # adj_rib_in[prefix][neighbor_asn] -> Route (post-import)
        self.adj_rib_in: Dict[Prefix, Dict[int, Route]] = {}
        self.loc_rib: Dict[Prefix, Route] = {}

    # ----- local origination -------------------------------------------

    def originate(self, prefix: Prefix, tag: str = "", now: float = 0.0) -> Route:
        """Install a locally originated route for *prefix*."""
        route = Route(
            prefix=prefix,
            path=ASPath((self.asn,)),
            learned_from=None,
            localpref=LOCAL_ROUTE_LOCALPREF,
            installed_at=now,
            tag=tag,
        )
        self.adj_rib_in.setdefault(prefix, {})[-1] = route
        self._reselect(prefix, now=now)
        return route

    def withdraw_local(self, prefix: Prefix) -> BestChange:
        """Remove the locally originated route for *prefix*."""
        rib = self.adj_rib_in.get(prefix, {})
        rib.pop(-1, None)
        return self._reselect(prefix)

    # ----- receive path --------------------------------------------------

    def receive(
        self,
        neighbor_asn: int,
        rel: Rel,
        prefix: Prefix,
        path: Optional[ASPath],
        now: float,
        med: int = 0,
        tag: str = "",
    ) -> BestChange:
        """Process an update (*path* set) or withdraw (*path* None) from
        *neighbor_asn*, whose relationship *rel* sets the import
        localpref, and return how the best route changed (see
        :meth:`apply_update`)."""
        old = self.loc_rib.get(prefix)
        changed = self.apply_update(
            neighbor_asn, self.policy.localpref_for(neighbor_asn, rel),
            prefix, path, now, med, tag,
        )
        return BestChange(changed, old, self.loc_rib.get(prefix))

    def apply_update(
        self,
        neighbor_asn: int,
        localpref: int,
        prefix: Prefix,
        path: Optional[ASPath],
        now: float,
        med: int = 0,
        tag: str = "",
    ) -> bool:
        """Process an update (*path* set) or withdraw (*path* None) from
        *neighbor_asn* whose import *localpref* is already resolved, and
        return True if the best route changed.

        Routes whose path contains our own ASN are rejected as loops,
        which acts as a withdraw of any previous route from that
        neighbor (standard BGP loop prevention).  A duplicate
        announcement keeps the installed route and its age, and
        allocates nothing.
        """
        rib = self.adj_rib_in.get(prefix)
        if rib is None:
            rib = self.adj_rib_in[prefix] = {}
        if path is None or self.asn in path.asns:
            if rib.pop(neighbor_asn, None) is None:
                return False
            return self._select(prefix, now)
        previous = rib.get(neighbor_asn)
        if (
            previous is not None
            and previous.path.asns == path.asns
            and previous.localpref == localpref
            and previous.med == med
            and previous.tag == tag
        ):
            return False
        rib[neighbor_asn] = Route(
            prefix=prefix,
            path=path,
            learned_from=neighbor_asn,
            localpref=localpref,
            med=med,
            installed_at=now,
            tag=tag,
        )
        return self._select(prefix, now)

    def reprice_neighbor(
        self, neighbor_asn: int, rel: Rel
    ) -> List[Tuple[Prefix, BestChange]]:
        """Re-apply import localpref to every installed route from
        *neighbor_asn* (after a policy edit) and return the per-prefix
        best changes.  Repricing preserves route age — only the
        localpref attribute is replaced, so the OLDEST_ROUTE tiebreak
        is unaffected."""
        changes: List[Tuple[Prefix, BestChange]] = []
        for prefix, rib in self.adj_rib_in.items():
            route = rib.get(neighbor_asn)
            if route is None:
                continue
            localpref = self.policy.localpref_for(neighbor_asn, rel)
            if route.localpref == localpref:
                continue
            rib[neighbor_asn] = replace(route, localpref=localpref)
            change = self._reselect(prefix)
            if change.changed:
                changes.append((prefix, change))
        return changes

    def drop_neighbor(self, neighbor_asn: int) -> List[Tuple[Prefix, BestChange]]:
        """Remove every adj-RIB-in entry from *neighbor_asn* (session
        failure) and return the per-prefix best changes."""
        changes: List[Tuple[Prefix, BestChange]] = []
        for prefix, rib in self.adj_rib_in.items():
            if neighbor_asn in rib:
                del rib[neighbor_asn]
                change = self._reselect(prefix)
                if change.changed:
                    changes.append((prefix, change))
        return changes

    # ----- queries -------------------------------------------------------

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        return self.loc_rib.get(prefix)

    def candidate_routes(self, prefix: Prefix) -> List[Route]:
        """All usable adj-RIB-in routes for *prefix* (sorted by
        neighbor for determinism)."""
        rib = self.adj_rib_in.get(prefix, {})
        return [rib[key] for key in sorted(rib)]

    def routes_from(self, neighbor_asn: int) -> Iterator[Route]:
        for rib in self.adj_rib_in.values():
            route = rib.get(neighbor_asn)
            if route is not None:
                yield route

    def best_from_neighbors(
        self, prefix: Prefix, neighbor_asns: List[int]
    ) -> Optional[Route]:
        """Best route for *prefix* restricted to the given neighbors —
        models a VRF that only imports from those sessions (used by the
        Table 3 VRF-split collector export)."""
        rib = self.adj_rib_in.get(prefix, {})
        candidates = [
            rib[nbr] for nbr in sorted(set(neighbor_asns)) if nbr in rib
        ]
        return self.process.best(candidates)

    # ----- internals ------------------------------------------------------

    def _reselect(
        self, prefix: Prefix, now: Optional[float] = None
    ) -> BestChange:
        old = self.loc_rib.get(prefix)
        changed = self._select(prefix, now)
        return BestChange(changed, old, self.loc_rib.get(prefix))

    def _select(self, prefix: Prefix, now: Optional[float]) -> bool:
        """Re-run the decision process for *prefix*; True if the best
        route changed in an announceable attribute."""
        rib = self.adj_rib_in.get(prefix)
        old = self.loc_rib.get(prefix)
        capture = active_capture()
        recorder = capture.provenance if capture is not None else None
        if recorder is not None and recorder.wants(prefix):
            candidates = [rib[key] for key in sorted(rib)] if rib else []
            new, steps = self.process.best_verbose(candidates)
            recorder.record(selection_event(
                source="engine",
                asn=self.asn,
                prefix=prefix,
                candidates=candidates,
                steps=steps,
                winner_index=(
                    next(
                        i for i, r in enumerate(candidates) if r is new
                    )
                    if new is not None else None
                ),
                winning_step=steps[-1]["step"] if steps else None,
                time=now,
            ))
        elif rib:
            new = min(rib.values(), key=self._key)
        else:
            new = None
        if new is None:
            self.loc_rib.pop(prefix, None)
        else:
            self.loc_rib[prefix] = new
        return not _routes_equivalent(old, new)


def _routes_equivalent(a: Optional[Route], b: Optional[Route]) -> bool:
    """Two routes are equivalent for export purposes when their
    announceable attributes match (age differences do not trigger new
    exports)."""
    if a is None or b is None:
        return a is b
    return (
        a.path == b.path
        and a.learned_from == b.learned_from
        and a.med == b.med
        and a.tag == b.tag
    )
