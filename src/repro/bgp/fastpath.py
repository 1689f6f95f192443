"""Synchronous bulk route propagation.

``propagate_fastpath`` computes the converged loc-RIB entry of every AS
for one prefix (possibly announced by several origins, as with the
measurement prefix) without simulating message timing.  It is used for
the bulk collector-view analyses (Table 4, Figure 5) where churn and
route age are irrelevant, and as an oracle in tests: at fixpoint the
event-driven engine and the fastpath must agree whenever no AS uses the
route-age tie-break.

The relaxation is a policy-aware Bellman-Ford: ASes whose best route
changed re-export to eligible neighbors until quiescence.  Under
valley-free (Gao-Rexford + R&E fabric) export and monotone preferences
this converges to the unique stable solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..errors import EngineError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.frontier import FastpathRunFrontier, active_frontier
from ..obs.provenance import active_recorder, selection_event
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route
from .policy import may_export
from .router import LOCAL_ROUTE_LOCALPREF
from .rpki import rov_drops_route

_MAX_ROUNDS_FACTOR = 40

_log = get_logger("repro.fastpath")


@dataclass
class FastpathResult:
    """Converged state for one prefix.

    ``best`` maps ASN to its selected route (origin ASes hold their
    local route).  ``offers`` maps ASN to the post-import routes each
    neighbor last offered it (an adj-RIB-in snapshot), which analyses
    use to see alternatives (e.g. the R&E route an AS did *not* pick).
    """

    prefix: Prefix
    best: Dict[int, Route] = field(default_factory=dict)
    offers: Dict[int, Dict[int, Route]] = field(default_factory=dict)

    def route_at(self, asn: int) -> Optional[Route]:
        return self.best.get(asn)

    def candidates_at(self, asn: int) -> List[Route]:
        rib = self.offers.get(asn, {})
        return [rib[key] for key in sorted(rib)]


def propagate_fastpath(
    topology: Topology,
    announcements: Iterable[Announcement],
    prefix: Optional[Prefix] = None,
    roa_table=None,
    down_links: Optional[Iterable[frozenset]] = None,
) -> FastpathResult:
    """Compute every AS's converged best route for one prefix.

    All *announcements* must share a prefix (pass *prefix* to check).
    Each receiver selects through its policy's
    :class:`~repro.bgp.decision.DecisionProcess`.  *down_links* (an
    iterable of two-ASN frozensets, matching the engine's failed-link
    set) excludes those adjacencies from propagation, so the fastpath
    can oracle the engine's post-flap state too.
    """
    announcements = list(announcements)
    if not announcements:
        raise EngineError("no announcements to propagate")
    the_prefix = announcements[0].prefix
    if prefix is not None and prefix != the_prefix:
        raise EngineError("prefix mismatch in fastpath call")
    for announcement in announcements:
        if announcement.prefix != the_prefix:
            raise EngineError("announcements for different prefixes")

    failed: Set[frozenset] = set(down_links or ())
    result = FastpathResult(prefix=the_prefix)
    processes = {}
    # Decision-process cache accounting: [hits, misses], mutated by
    # _deliver (a list keeps the hot path to one index increment).
    cache_stats = [0, 0]
    compactions = 0
    pending: List[int] = []
    pending_set: Set[int] = set()

    def enqueue(asn: int) -> None:
        if asn not in pending_set:
            pending_set.add(asn)
            pending.append(asn)

    # Seed: origins install their local route and push first-hop offers.
    # One origin may hold several announcements of the prefix with
    # different tags (a multi-homed host announcing through separate
    # interfaces, Figure 6); export resolves which applies per neighbor
    # via the origin's tag-scoped export policy.
    origin_announcements: Dict[int, List[Announcement]] = {}
    for announcement in announcements:
        origin = announcement.origin_asn
        origin_announcements.setdefault(origin, []).append(announcement)
        result.best[origin] = Route(
            prefix=the_prefix,
            path=ASPath((origin,)),
            learned_from=None,
            localpref=LOCAL_ROUTE_LOCALPREF,
            tag=announcement.tag,
        )
        enqueue(origin)

    max_rounds = max(1, len(topology)) * _MAX_ROUNDS_FACTOR
    iterations = 0
    cursor = 0
    # One call returning None per propagation is the entire
    # disabled-state frontier cost; the run id derives from the trace's
    # recorded-event count, which the byte-identity contract keeps
    # equal across execution modes.
    trace_ring = active_frontier()
    acc = None
    if trace_ring is not None:
        acc = FastpathRunFrontier(
            trace_ring, trace_ring.total_recorded, the_prefix
        )
    with span("fastpath.propagate"):
        while cursor < len(pending):
            asn = pending[cursor]
            cursor += 1
            pending_set.discard(asn)
            iterations += 1
            if iterations > max_rounds + len(pending):
                raise EngineError("fastpath failed to converge")
            best = result.best.get(asn)
            for neighbor in sorted(topology.neighbors(asn)):
                if failed and frozenset((asn, neighbor)) in failed:
                    continue
                offered = _exported_route(
                    topology, asn, neighbor, best,
                    origin_announcements.get(asn),
                )
                changed = _deliver(
                    topology, result, processes, asn, neighbor, offered,
                    roa_table, cache_stats,
                )
                if changed:
                    enqueue(neighbor)
                if acc is not None:
                    acc.note(
                        neighbor if changed else None,
                        len(pending) - cursor,
                    )
            if cursor > len(topology) * _MAX_ROUNDS_FACTOR:
                # Compact the queue so memory stays bounded on big runs.
                pending = pending[cursor:]
                cursor = 0
                compactions += 1

    if acc is not None:
        acc.finish()
    registry = get_registry()
    registry.counter("fastpath.prefixes_computed").inc()
    registry.counter("fastpath.iterations").inc(iterations)
    registry.counter("fastpath.decision_cache_hits").inc(cache_stats[0])
    registry.counter("fastpath.decision_cache_misses").inc(cache_stats[1])
    registry.counter("fastpath.queue_compactions").inc(compactions)
    registry.gauge("fastpath.ases_with_route").set(len(result.best))
    if _log.is_enabled_for("debug"):
        _log.debug(
            "fastpath converged",
            prefix=str(the_prefix),
            iterations=iterations,
            ases_with_route=len(result.best),
            cache_hits=cache_stats[0],
            cache_misses=cache_stats[1],
        )
    return result


def _exported_route(
    topology: Topology,
    sender: int,
    receiver: int,
    best: Optional[Route],
    announcements: Optional[List[Announcement]],
) -> Optional[Route]:
    """The route *sender* offers *receiver*, or None (no export)."""
    if best is None:
        return None
    policy = topology.node(sender).policy
    to_rel = topology.rel(sender, receiver)
    if best.learned_from is None:
        # Locally originated: pick the announcement exportable to this
        # neighbor (tag-scoped filters may dedicate announcements to
        # interfaces, as on the Figure 6 host).
        candidates = announcements or [
            Announcement(prefix=best.prefix, origin_asn=sender,
                         tag=best.tag)
        ]
        chosen = None
        for announcement in candidates:
            if not policy.blocks_export(receiver, announcement.tag):
                chosen = announcement
                break
        if chosen is None:
            return None
        extra = policy.prepends_toward(receiver)
        extra += chosen.prepends_toward(receiver)
        path = ASPath.origin_path(sender, extra)
        return Route(
            prefix=best.prefix,
            path=path,
            learned_from=sender,
            localpref=0,  # receiver assigns on import
            tag=chosen.tag,
        )
    if policy.blocks_export(receiver, best.tag):
        return None
    learned_rel = topology.rel(sender, best.learned_from)
    if not may_export(
        learned_rel,
        to_rel,
        learned_fabric=topology.is_fabric(sender, best.learned_from),
        to_fabric=topology.is_fabric(sender, receiver),
    ):
        return None
    if best.path.contains(receiver):
        return None
    prepends = 1 + policy.prepends_toward(receiver)
    return Route(
        prefix=best.prefix,
        path=best.path.prepended_by(sender, prepends),
        learned_from=sender,
        localpref=0,
        tag=best.tag,
    )


def _deliver(
    topology: Topology,
    result: FastpathResult,
    processes: Dict[int, object],
    sender: int,
    receiver: int,
    offered: Optional[Route],
    roa_table=None,
    cache_stats: Optional[List[int]] = None,
) -> bool:
    """Install *offered* (or its absence) at *receiver*; return True if
    the receiver's best route changed."""
    rib = result.offers.setdefault(receiver, {})
    node = topology.node(receiver)
    if (
        offered is not None
        and node.policy.enforce_rov
        and rov_drops_route(roa_table, offered.prefix,
                            offered.path.origin)
    ):
        offered = None  # RPKI-invalid: rejected on import (§2.3)
    if offered is None or offered.path.contains(receiver):
        if sender not in rib:
            return False
        del rib[sender]
    else:
        localpref = node.policy.localpref_for(
            sender, topology.rel(receiver, sender)
        )
        imported = Route(
            prefix=offered.prefix,
            path=offered.path,
            learned_from=sender,
            localpref=localpref,
            tag=offered.tag,
        )
        previous = rib.get(sender)
        if previous == imported:
            return False
        rib[sender] = imported

    process = processes.get(receiver)
    if process is None:
        process = node.policy.decision_process()
        processes[receiver] = process
        if cache_stats is not None:
            cache_stats[1] += 1
    elif cache_stats is not None:
        cache_stats[0] += 1
    old = result.best.get(receiver)
    if old is not None and old.learned_from is None:
        # Local routes always win; an origin never changes its best.
        return False
    recorder = active_recorder()
    if recorder is not None and recorder.wants(result.prefix):
        candidates: List[Route] = [rib[key] for key in sorted(rib)]
        new, steps = process.best_verbose(candidates)
        recorder.record(selection_event(
            source="fastpath",
            asn=receiver,
            prefix=result.prefix,
            candidates=candidates,
            steps=steps,
            winner_index=(
                next(i for i, r in enumerate(candidates) if r is new)
                if new is not None else None
            ),
            winning_step=steps[-1]["step"] if steps else None,
        ))
    else:
        new = process.best([rib[key] for key in sorted(rib)])
    if new is None:
        if old is None:
            return False
        del result.best[receiver]
        return True
    if old is not None and old == new:
        return False
    result.best[receiver] = new
    return True
