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

Every per-delivery input that depends only on the topology (the
session's relationship and fabric flag, the sender's export filters and
prepends, the receiver's import localpref and decision process) is
resolved once into an :class:`ExportTable`.  A table is a snapshot of
the policies at compile time: callers that edit policies
(tag-scoped export filters) compile a fresh one, and
``propagate_fastpath`` compiles one per call when none is passed.  The
event-driven engine sends along the same table's arcs under the same
export rule, patching an arc's import localpref in place when a
localpref edit changes it.

A *sink* is an AS with no customer session and no R&E-fabric peer
session.  Under the export rule it never re-exports a learned route, so
its best route changes no other AS's route; only its own announcements
leave it.  A table compiled for a set of *observers* leaves out every
arc into a sink that is not an observer.  Over such a table the
relaxation reaches the same fixpoint at every observer and every
non-sink AS and never queues or delivers to the other sinks, which hold
no learned route.  It answers only for observers and non-sinks:
bulk collector views, which read a handful of observers per origin,
skip most of the topology that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import EngineError, TopologyError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_capture
from ..obs.frontier import FastpathRunFrontier
from ..obs.provenance import selection_event
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route
from .decision import DecisionProcess
from .policy import Rel
from .router import LOCAL_ROUTE_LOCALPREF

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


class ExportTable:
    """A topology's export adjacency with every policy lookup resolved,
    compiled once and shared by ``propagate_fastpath`` calls on it.

    ``arcs[asn]`` lists *asn*'s sessions in ascending neighbor order
    (the delivery order) as flat tuples ``(receiver, to_rel, to_fabric,
    export_prepends, in_no_export_to, tag_blocks, import_localpref)``:
    the sender's export policy toward the receiver, then the receiver's
    import policy for the sender's routes.
    ``learned[asn]`` maps each neighbor to ``(rel, fabric)``, the
    learned-from side of the export rule.  ``processes[asn]`` is the
    AS's decision process and ``keys[asn]`` its lexicographic
    preference key.  ``sinks`` holds the ASes with no customer and no
    fabric-peer session, which never re-export a learned route.

    Export rule: a route learned from a customer (or originated) goes
    to every session; any other learned route goes to customers and,
    when learned over the R&E fabric, to fabric peers.  A session in
    ``no_export_to`` receives nothing, and a tag in ``tag_blocks``
    filters routes carrying it.

    With *observers*, the arcs into every sink outside *observers* are
    left out (sinks keep their outgoing arcs, so a sink origin still
    announces).  Such a table answers only for observers and non-sinks:
    the other sinks hold no learned route over it.

    The table snapshots policies at compile time and copies the tag
    filter sets rather than aliasing them.  It is never cached on the
    topology: policy edits after the compile are not seen through it.
    """

    __slots__ = ("topology", "arcs", "learned", "processes", "keys", "sinks")

    def __init__(
        self,
        topology: Topology,
        observers: Optional[Iterable[int]] = None,
    ) -> None:
        self.topology = topology
        self.arcs: Dict[int, Tuple[tuple, ...]] = {}
        self.learned: Dict[int, Dict[int, Tuple[Rel, bool]]] = {}
        self.processes: Dict[int, DecisionProcess] = {}
        self.keys: Dict[int, Callable[[Route], tuple]] = {}
        for asn in topology.nodes:
            self.learned[asn] = {
                neighbor: (rel, topology.is_fabric(asn, neighbor))
                for neighbor, rel in topology.neighbors(asn).items()
            }
        self.sinks = frozenset(
            asn
            for asn, sessions in self.learned.items()
            if not any(
                rel is Rel.CUSTOMER or (rel is Rel.PEER and fabric)
                for rel, fabric in sessions.values()
            )
        )
        pruned = frozenset()
        if observers is not None:
            kept = set(observers)
            unknown = sorted(kept - topology.nodes.keys())
            if unknown:
                raise TopologyError("unknown observer ASN %d" % unknown[0])
            pruned = self.sinks - kept
        for asn, node in topology.nodes.items():
            policy = node.policy
            sessions = self.learned[asn]
            arcs = []
            for receiver in sorted(sessions):
                if receiver in pruned:
                    continue
                to_rel, to_fabric = sessions[receiver]
                importer = topology.node(receiver).policy
                arcs.append((
                    receiver,
                    to_rel,
                    to_fabric,
                    policy.prepends_toward(receiver),
                    receiver in policy.no_export_to,
                    frozenset(policy.no_export_tags.get(receiver, ())),
                    importer.localpref_for(asn, topology.rel(receiver, asn)),
                ))
            self.arcs[asn] = tuple(arcs)
            process = self.processes[asn] = policy.decision_process()
            self.keys[asn] = process.key

    def set_import_localpref(
        self, sender: int, receiver: int, localpref: int
    ) -> tuple:
        """Patch the import localpref of the *sender*-to-*receiver* arc
        (after the receiver's policy edit) and return the new arc.  Only
        that arc changes; the table is not recompiled."""
        arcs = self.arcs[sender]
        for index, arc in enumerate(arcs):
            if arc[0] == receiver:
                patched = arc[:6] + (localpref,)
                self.arcs[sender] = arcs[:index] + (patched,) + arcs[index + 1:]
                return patched
        raise EngineError("no arc %d-%d in the export table" % (sender, receiver))


def propagate_fastpath(
    topology: Topology,
    announcements: Iterable[Announcement],
    prefix: Optional[Prefix] = None,
    down_links: Optional[Iterable[frozenset]] = None,
    exports: Optional[ExportTable] = None,
) -> FastpathResult:
    """Compute every AS's converged best route for one prefix.

    All *announcements* must share a prefix (pass *prefix* to check).
    Each receiver selects through its policy's
    :class:`~repro.bgp.decision.DecisionProcess`.  *down_links* (an
    iterable of two-ASN frozensets, matching the engine's failed-link
    set) excludes those adjacencies from propagation, so the fastpath
    can oracle the engine's post-flap state too.  *exports* is an
    :class:`ExportTable` compiled from *topology*; one is compiled when
    it is omitted, so bulk callers pass one to share the compile.
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
    if exports is None:
        exports = ExportTable(topology)
    elif exports.topology is not topology:
        raise EngineError("export table compiled from a different topology")

    failed: Set[frozenset] = set(down_links or ())
    result = FastpathResult(prefix=the_prefix)
    best_of = result.best
    offers = result.offers
    arcs_of = exports.arcs
    learned_of = exports.learned
    processes = exports.processes
    keys = exports.keys
    # Decision-process cache accounting: each selection looks up the
    # receiver's process; the first lookup per receiver is a miss.
    lookups = 0
    looked_up: Set[int] = set()
    compactions = 0
    pending: List[int] = []
    pending_set: Set[int] = set()

    # Seed: origins install their local route and push first-hop offers.
    # One origin may hold several announcements of the prefix with
    # different tags (a multi-homed host announcing through separate
    # interfaces, Figure 6); export resolves which applies per neighbor
    # via the origin's tag-scoped export policy.
    origin_announcements: Dict[int, List[Announcement]] = {}
    for announcement in announcements:
        origin = announcement.origin_asn
        if origin not in arcs_of:
            raise TopologyError("unknown ASN %d" % origin)
        origin_announcements.setdefault(origin, []).append(announcement)
        result.best[origin] = Route(
            prefix=the_prefix,
            path=ASPath((origin,)),
            learned_from=None,
            localpref=LOCAL_ROUTE_LOCALPREF,
            tag=announcement.tag,
        )
        if origin not in pending_set:
            pending_set.add(origin)
            pending.append(origin)

    max_rounds = max(1, len(topology)) * _MAX_ROUNDS_FACTOR
    iterations = 0
    cursor = 0
    # One call returning None per propagation is the entire
    # disabled-state capture cost; the frontier run id derives from the
    # ring's recorded-event count, which the byte-identity contract
    # keeps equal across execution modes.
    capture = active_capture()
    recorder = trace_ring = None
    if capture is not None:
        recorder, trace_ring = capture.provenance, capture.frontier
    narrate = recorder is not None and recorder.wants(the_prefix)
    acc = None
    if trace_ring is not None:
        acc = FastpathRunFrontier(
            trace_ring, trace_ring.total_recorded, the_prefix
        )
    customer = Rel.CUSTOMER
    peer = Rel.PEER
    with span("fastpath.propagate"):
        while cursor < len(pending):
            sender = pending[cursor]
            cursor += 1
            pending_set.discard(sender)
            iterations += 1
            if iterations > max_rounds + len(pending):
                raise EngineError("fastpath failed to converge")
            # The sender's export class, resolved once per dequeue:
            # nothing, its local announcements, or a learned route that
            # goes to everyone (customer-learned) or only to customers
            # and, over the R&E fabric, to fabric peers.
            best = best_of.get(sender)
            local = base = exported = None
            if best is not None and best.learned_from is None:
                local = origin_announcements[sender]
            elif best is not None:
                base = best.path.asns
                # The offer over unprepended sessions, shared by every
                # receiver (its ASPath built on first use).
                exported = (sender,) + base
                exported_path = None
                tag = best.tag
                learned_rel, learned_fabric = (
                    learned_of[sender][best.learned_from]
                )
                to_all = learned_rel is customer
            for (receiver, to_rel, to_fabric, prepends, no_export,
                 tag_blocks, localpref) in arcs_of[sender]:
                if failed and frozenset((sender, receiver)) in failed:
                    continue
                # The offer as the receiver would import it, or None.
                asns = None
                if base is not None:
                    if (
                        not no_export
                        and tag not in tag_blocks
                        and (
                            to_all
                            or to_rel is customer
                            or (learned_fabric and to_fabric
                                and to_rel is peer)
                        )
                        and receiver not in base
                    ):
                        if prepends:
                            asns = (sender,) * prepends + exported
                            path = None
                        else:
                            asns = exported
                            path = exported_path
                        offer_tag = tag
                elif local is not None and not no_export:
                    for announcement in local:
                        if announcement.tag not in tag_blocks:
                            extra = prepends + announcement.prepends_toward(
                                receiver
                            )
                            asns = (sender,) * (1 + extra)
                            path = None
                            offer_tag = announcement.tag
                            break

                rib = offers.get(receiver)
                if rib is None:
                    rib = offers[receiver] = {}
                previous = rib.get(sender)
                imported = None
                if asns is None:
                    offer_changed = previous is not None
                    if offer_changed:
                        del rib[sender]
                else:
                    offer_changed = (
                        previous is None
                        or previous.path.asns != asns
                        or previous.localpref != localpref
                        or previous.tag != offer_tag
                    )
                    if offer_changed:
                        if path is None:
                            path = ASPath(asns)
                            if asns is exported:
                                exported_path = path
                        imported = Route(
                            prefix=the_prefix,
                            path=path,
                            learned_from=sender,
                            localpref=localpref,
                            tag=offer_tag,
                        )
                        rib[sender] = imported

                changed = False
                if offer_changed:
                    lookups += 1
                    looked_up.add(receiver)
                    old = best_of.get(receiver)
                    # Local routes always win: an origin never changes
                    # its best.
                    if old is None or old.learned_from is not None:
                        if narrate:
                            new = _narrated_best(
                                recorder, processes[receiver], receiver,
                                the_prefix, rib,
                            )
                        elif imported is None or (
                            old is not None and old.learned_from == sender
                        ):
                            # A withdraw or a changed incumbent: re-run
                            # the whole adj-RIB-in.
                            new = (
                                min(rib.values(), key=keys[receiver])
                                if rib else None
                            )
                        elif old is None:
                            new = imported  # the adj-RIB-in was empty
                        else:
                            # The incumbent beat every other offer and
                            # selection is a lexicographic min, so only
                            # the new offer can unseat it.
                            key = keys[receiver]
                            new = imported if key(imported) < key(old) else old
                        if new is not old:
                            changed = True
                            if new is None:
                                del best_of[receiver]
                            else:
                                best_of[receiver] = new
                if changed and receiver not in pending_set:
                    pending_set.add(receiver)
                    pending.append(receiver)
                if acc is not None:
                    acc.note(
                        receiver if changed else None,
                        len(pending) - cursor,
                    )
            if cursor > max_rounds:
                # Compact the queue so memory stays bounded on big runs.
                pending = pending[cursor:]
                cursor = 0
                compactions += 1

    if acc is not None:
        acc.finish()
    misses = len(looked_up)
    hits = lookups - misses
    registry = get_registry()
    registry.counter("fastpath.prefixes_computed").inc()
    registry.counter("fastpath.iterations").inc(iterations)
    registry.counter("fastpath.decision_cache_hits").inc(hits)
    registry.counter("fastpath.decision_cache_misses").inc(misses)
    registry.counter("fastpath.queue_compactions").inc(compactions)
    registry.gauge("fastpath.ases_with_route").set(len(result.best))
    if _log.is_enabled_for("debug"):
        _log.debug(
            "fastpath converged",
            prefix=str(the_prefix),
            iterations=iterations,
            ases_with_route=len(result.best),
            cache_hits=hits,
            cache_misses=misses,
        )
    return result


def _narrated_best(
    recorder,
    process: DecisionProcess,
    receiver: int,
    prefix: Prefix,
    rib: Dict[int, Route],
) -> Optional[Route]:
    """Select over the whole adj-RIB-in and record the narration."""
    candidates: List[Route] = [rib[key] for key in sorted(rib)]
    new, steps = process.best_verbose(candidates)
    recorder.record(selection_event(
        source="fastpath",
        asn=receiver,
        prefix=prefix,
        candidates=candidates,
        steps=steps,
        winner_index=(
            next(i for i, r in enumerate(candidates) if r is new)
            if new is not None else None
        ),
        winning_step=steps[-1]["step"] if steps else None,
    ))
    return new
