"""Event-driven BGP propagation engine.

The engine delivers UPDATE/WITHDRAW messages between neighboring ASes
with randomised (but deterministic, seeded) per-message delays, FIFO per
session, until the network reaches a fixpoint.  It stamps route ages,
counts messages, and records every loc-RIB best change so collectors
can reconstruct the update streams behind Figure 3.

Export and import policy come from one
:class:`~repro.bgp.fastpath.ExportTable`, compiled when the engine is
built: the same arcs and export rule the fastpath relaxes over, so the
per-message path does no policy or relationship lookups.

The engine is exact but message-driven; use :mod:`repro.bgp.fastpath`
for bulk converged-state computation where churn does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import log
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..errors import EngineError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..rng import SeedTree
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route, check_prepends
from .fastpath import ExportTable
from .policy import Rel
from .router import Router

#: Default per-message propagation delay model (seconds).
BASE_DELAY = 0.05
MEAN_EXTRA_DELAY = 1.5
_DELAY_RATE = 1.0 / MEAN_EXTRA_DELAY

#: Safety cap: a single convergence run delivering more messages than
#: this indicates a policy dispute wheel (should not happen with
#: Gao-Rexford-compliant policies).
DEFAULT_MESSAGE_LIMIT = 2_000_000

#: Fraction of the message limit at which the engine starts warning
#: that a run is approaching the dispute-wheel cap.
MESSAGE_LIMIT_WARN_RATIO = 0.8

_log = get_logger("repro.engine")


def _route_state(route: Route) -> tuple:
    """Every semantically meaningful Route field, as a plain tuple."""
    return (
        route.path.asns,
        route.learned_from,
        route.localpref,
        route.med,
        route.installed_at,
        route.tag,
    )


class UpdateEvent(NamedTuple):
    """A loc-RIB best change at one AS (what a full-feed collector
    session from that AS would carry).

    ``session_weight`` overrides the collector's per-feeder session
    multiplicity; injected single-session events (background flaps) set
    it to 1."""

    time: float
    asn: int
    prefix: Prefix
    route: Optional[Route]  # None = withdrawn
    session_weight: Optional[int] = None


@dataclass
class ConvergenceStats:
    """Summary of one run_to_fixpoint call."""

    messages_delivered: int = 0
    best_changes: int = 0
    started_at: float = 0.0
    converged_at: float = 0.0
    #: Messages enqueued during this run (deliveries trigger exports).
    messages_sent: int = 0
    #: Messages discarded because their link was down at delivery
    #: time.  Tracked separately from ``messages_delivered`` so outage
    #: churn cannot inflate ``limit_proximity`` or trip the
    #: dispute-wheel cap: only real deliveries count toward the limit.
    messages_dropped: int = 0
    #: Deepest the pending-message heap got during this run.
    peak_heap_depth: int = 0
    #: Wall-clock seconds the run took (simulated time is
    #: ``duration``; this is real compute time).
    wall_seconds: float = 0.0
    #: The engine's message limit when the run executed.
    message_limit: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.converged_at - self.started_at)

    def replay_key(self) -> tuple:
        """The run's deterministic fields, as a comparable tuple.

        Everything except ``wall_seconds`` (real compute time, which
        legitimately differs between reruns); two runs of the same
        seeded experiment — inline or in a pooled cell — must produce
        equal replay keys."""
        return (
            self.messages_delivered,
            self.messages_dropped,
            self.best_changes,
            self.started_at,
            self.converged_at,
            self.messages_sent,
            self.peak_heap_depth,
            self.message_limit,
        )

    @property
    def limit_proximity(self) -> float:
        """How close the run came to the dispute-wheel message cap,
        as a 0..1 ratio (0.0 when no limit applies)."""
        if self.message_limit <= 0:
            return 0.0
        return self.messages_delivered / self.message_limit


# ----- warm-state deltas -------------------------------------------------
#
# A delta is a small frozen description of one change to an already
# converged network: re-announce, withdraw, a prepend reconfiguration,
# a localpref edit, or a link flap.  ``apply_delta`` applies it to the
# warm RIBs and reconverges only the affected frontier — the engine is
# naturally incremental (exports are only enqueued from state that
# actually changed), so warm-after-delta state is byte-identical to a
# cold rebuild that replays the same history from scratch.  The cold
# path stays authoritative: the differential tests rebuild from scratch
# and compare RIB contents, replay keys, and classifications.


@dataclass(frozen=True)
class AnnounceDelta:
    """(Re-)announce *prefix* from *origin_asn* (see
    :meth:`PropagationEngine.announce` for the prepend semantics)."""

    origin_asn: int
    prefix: Prefix
    prepends: Optional[Dict[int, int]] = None
    default_prepends: int = 0
    tag: str = ""

    kind = "announce"


@dataclass(frozen=True)
class WithdrawDelta:
    """Withdraw *prefix* at its origin (which must announce it)."""

    origin_asn: int
    prefix: Prefix

    kind = "withdraw"


@dataclass(frozen=True)
class PrependChange:
    """Re-announce an existing announcement with a new default prepend
    count, keeping its per-neighbor prepends and tag.  This is the
    config-to-config step of the nine-configuration sweep."""

    origin_asn: int
    prefix: Prefix
    prepends: int

    kind = "prepend_change"


@dataclass(frozen=True)
class LocalprefEdit:
    """Set *asn*'s import localpref for routes learned from
    *neighbor_asn* and reprice the already-installed routes."""

    asn: int
    neighbor_asn: int
    value: int

    kind = "localpref_edit"


@dataclass(frozen=True)
class LinkFlap:
    """Fail and/or restore the a-b link.

    ``action`` is ``"down"``, ``"up"``, or ``"flap"`` (down then up,
    each reconverged separately — matching how fault plans replay)."""

    a: int
    b: int
    action: str = "flap"

    kind = "link_flap"

    def __post_init__(self) -> None:
        if self.action not in ("down", "up", "flap"):
            raise EngineError(
                "unknown link flap action %r (want down/up/flap)" % (self.action,)
            )


@dataclass
class DeltaOutcome:
    """What one :meth:`PropagationEngine.apply_delta` call did.

    ``dirty_prefixes`` / ``changed_ases`` bound the re-propagation
    frontier: only these prefixes changed any loc-RIB, only these ASes
    selected a new best (for any prefix) — the ASes a
    :class:`~repro.probing.forwarding.LiveCatchment` re-reads.
    ``stats`` has one entry per ``run_to_fixpoint`` the delta
    triggered (two for a full flap)."""

    delta: object
    stats: List[ConvergenceStats]
    dirty_prefixes: Tuple[str, ...]
    changed_ases: FrozenSet[int]

    @property
    def touched_ases(self) -> int:
        """How many ASes selected a new best."""
        return len(self.changed_ases)

    @property
    def messages_delivered(self) -> int:
        return sum(s.messages_delivered for s in self.stats)

    @property
    def best_changes(self) -> int:
        return sum(s.best_changes for s in self.stats)

    def replay_key(self) -> tuple:
        """Deterministic summary: per-run replay keys plus the dirty
        frontier (wall time excluded, like ConvergenceStats)."""
        return (
            tuple(s.replay_key() for s in self.stats),
            self.dirty_prefixes,
            self.touched_ases,
        )


class PropagationEngine:
    """Propagates BGP routes over a :class:`Topology`.

    Parameters
    ----------
    topology:
        The AS graph with per-AS policies.
    seed_tree:
        Source of deterministic message delays.
    record_best_changes:
        When True (default), every loc-RIB change is appended to
        ``self.update_log`` — collectors consume this.

    The topology's links and policies are compiled into
    ``self.exports``, an :class:`~repro.bgp.fastpath.ExportTable`, when
    the engine is built.  A :class:`LocalprefEdit` delta edits the
    policy and patches the one arc it changes.  Any other edit to the
    topology or its policies after construction is unsupported: the
    engine does not see it, so build a new engine instead.

    Pending messages are heap entries ``(deliver_at, seq, sender,
    receiver, prefix, path, tag)``; ``seq`` is unique, so ordering
    never compares the payload.  ``path`` None is a withdraw.
    """

    def __init__(
        self,
        topology: Topology,
        seed_tree: Optional[SeedTree] = None,
        record_best_changes: bool = True,
        message_limit: int = DEFAULT_MESSAGE_LIMIT,
    ) -> None:
        self.topology = topology
        self._rng = (seed_tree or SeedTree(0)).child("engine").rng()
        self.routers: Dict[int, Router] = {
            node.asn: Router(node.asn, node.policy)
            for node in topology.ases()
        }
        self.exports = ExportTable(topology)
        # The same arcs by (sender, receiver), for per-session lookups.
        self._arc_of: Dict[int, Dict[int, tuple]] = {
            asn: {arc[0]: arc for arc in arcs}
            for asn, arcs in self.exports.arcs.items()
        }
        self.now: float = 0.0
        self.record_best_changes = record_best_changes
        self.update_log: List[UpdateEvent] = []
        self._heap: List[tuple] = []
        self._seq = 0
        # sender -> receiver -> latest scheduled delivery (FIFO sessions)
        self._last_scheduled: Dict[int, Dict[int, float]] = {}
        # sender -> prefix -> receivers whose last queued message from
        # the sender for the prefix was an announcement (see _send_all)
        self._held: Dict[int, Dict[Prefix, Set[int]]] = {}
        # Latest delivery time of a suppressed withdraw; a run ends with
        # the clock at least here, as if it had been delivered.
        self._horizon = 0.0
        self._down_links: Set[frozenset] = set()
        self._message_limit = message_limit
        self._announcements: Dict[Tuple[int, Prefix], Announcement] = {}
        #: Stats of the most recent :meth:`run_to_fixpoint` (None until
        #: the first run completes).
        self.last_stats: Optional[ConvergenceStats] = None
        self._messages_sent = 0
        self._messages_sent_flushed = 0
        # Dirty-set accumulators, non-None only inside apply_delta.
        self._dirty: Optional[Set[Prefix]] = None
        self._touched: Optional[Set[int]] = None

    # ----- public control ------------------------------------------------

    def router(self, asn: int) -> Router:
        try:
            return self.routers[asn]
        except KeyError:
            raise EngineError("no router for AS %d" % asn) from None

    def announce(
        self,
        origin_asn: int,
        prefix: Prefix,
        prepends: Optional[Dict[int, int]] = None,
        default_prepends: int = 0,
        tag: str = "",
    ) -> Announcement:
        """(Re-)announce *prefix* from *origin_asn*.

        ``prepends`` maps neighbor ASN to extra origin prepends for that
        neighbor; unlisted neighbors get ``default_prepends`` plus any
        per-neighbor prepends in the origin's own routing policy.
        Re-announcing with different prepends models the experiment's
        configuration changes.  A prepend count past
        :data:`~repro.bgp.attributes.MAX_PREPENDS` raises a
        :class:`~repro.errors.PolicyError` before any state changes.
        """
        announcement = Announcement(
            prefix=prefix,
            origin_asn=origin_asn,
            prepends=dict(prepends or {}),
            default_prepends=check_prepends(default_prepends),
            tag=tag,
        )
        for count in announcement.prepends.values():
            check_prepends(count)
        arcs = self.exports.arcs.get(origin_asn)
        if arcs is None:
            self.topology.node(origin_asn)  # raises the unknown-ASN error
        exports = []
        for neighbor, _, _, prepends, no_export, tag_blocks, _ in arcs:
            if self._link_is_down(origin_asn, neighbor):
                continue
            if no_export or tag in tag_blocks:
                continue
            extra = announcement.prepends_toward(neighbor) + prepends
            exports.append(
                (neighbor, ASPath.origin_path(origin_asn, extra), tag)
            )
        self._announcements[(origin_asn, prefix)] = announcement
        router = self.router(origin_asn)
        router.originate(prefix, tag=tag, now=self.now)
        self._send_all(origin_asn, prefix, exports)
        return announcement

    def withdraw(self, origin_asn: int, prefix: Prefix) -> None:
        """Withdraw *prefix* at its origin."""
        self._announcements.pop((origin_asn, prefix), None)
        router = self.router(origin_asn)
        change = router.withdraw_local(prefix)
        if change.changed:
            self._record_change(origin_asn, prefix, change.new)
        # Export through the same per-neighbor policy checks every
        # other export takes (_export): a neighbor behind
        # no_export_to / blocked export never saw the route, so it
        # must not receive a spurious withdraw — and when the loc-RIB
        # best is unchanged (the local route was not best), neighbors
        # get the still-current best re-exported, not a withdraw that
        # would clear a route they should keep.
        self._export_after_change(origin_asn, prefix)

    def set_link_down(self, a: int, b: int) -> None:
        """Fail the a-b link: both sides lose routes learned over it."""
        if not self.topology.has_link(a, b):
            raise EngineError("no link %d-%d to fail" % (a, b))
        self._down_links.add(frozenset((a, b)))
        for local, remote in ((a, b), (b, a)):
            router = self.router(local)
            for prefix, change in router.drop_neighbor(remote):
                self._record_change(local, prefix, change.new)
                self._export_after_change(local, prefix)

    def link_is_down(self, a: int, b: int) -> bool:
        """True if the a-b link is currently failed (scheduled outage
        or fault-plan flap)."""
        return self._link_is_down(a, b)

    def set_link_up(self, a: int, b: int) -> None:
        """Restore the a-b link and re-advertise current bests across it
        (a no-op for a link that is already up)."""
        if not self.topology.has_link(a, b):
            raise EngineError("no link %d-%d to restore" % (a, b))
        key = frozenset((a, b))
        if key not in self._down_links:
            return
        self._down_links.remove(key)
        for local, remote in ((a, b), (b, a)):
            arcs = (self._arc_of[local][remote],)
            for prefix in list(self.router(local).loc_rib):
                self._export(local, prefix, arcs)

    def apply_delta(self, delta) -> DeltaOutcome:
        """Apply one warm-state delta and reconverge.

        The converged RIBs stay in place; only state the delta actually
        perturbs re-propagates (the engine only enqueues exports from
        changed loc-RIBs, so the heap inherently bounds the dirty
        frontier).  Returns a :class:`DeltaOutcome` measuring that
        frontier.  The result is byte-identical to rebuilding cold and
        replaying the full history — the cold path remains the
        differential oracle, never a fallback.
        """
        if self._dirty is not None:
            raise EngineError("apply_delta calls cannot nest")
        self._dirty = set()
        self._touched = set()
        stats_list: List[ConvergenceStats] = []
        try:
            if isinstance(delta, AnnounceDelta):
                self.announce(
                    delta.origin_asn,
                    delta.prefix,
                    prepends=delta.prepends,
                    default_prepends=delta.default_prepends,
                    tag=delta.tag,
                )
                # announce() installs the origin's own route without an
                # update-log entry; count the origin in the frontier
                # explicitly.
                self._mark_dirty(delta.origin_asn, delta.prefix)
                stats_list.append(self.run_to_fixpoint())
            elif isinstance(delta, PrependChange):
                previous = self._announcements.get(
                    (delta.origin_asn, delta.prefix)
                )
                if previous is None:
                    raise EngineError(
                        "no live announcement of %s from AS %d to re-prepend"
                        % (delta.prefix, delta.origin_asn)
                    )
                self.announce(
                    delta.origin_asn,
                    delta.prefix,
                    prepends=dict(previous.prepends),
                    default_prepends=delta.prepends,
                    tag=previous.tag,
                )
                self._mark_dirty(delta.origin_asn, delta.prefix)
                stats_list.append(self.run_to_fixpoint())
            elif isinstance(delta, WithdrawDelta):
                key = (delta.origin_asn, delta.prefix)
                if key not in self._announcements:
                    raise EngineError(
                        "no live announcement of %s from AS %d to withdraw"
                        % (delta.prefix, delta.origin_asn)
                    )
                self.withdraw(delta.origin_asn, delta.prefix)
                self._mark_dirty(delta.origin_asn, delta.prefix)
                stats_list.append(self.run_to_fixpoint())
            elif isinstance(delta, LocalprefEdit):
                self._apply_localpref_edit(delta)
                stats_list.append(self.run_to_fixpoint())
            elif isinstance(delta, LinkFlap):
                # Down and up reconverge separately, matching how
                # outage plans and fault flaps replay (two records,
                # two fixpoints).
                if delta.action in ("down", "flap"):
                    self.set_link_down(delta.a, delta.b)
                    stats_list.append(self.run_to_fixpoint())
                if delta.action in ("up", "flap"):
                    self.set_link_up(delta.a, delta.b)
                    stats_list.append(self.run_to_fixpoint())
            else:
                raise EngineError(
                    "unknown delta type %r" % type(delta).__name__
                )
        finally:
            dirty, self._dirty = self._dirty, None
            touched, self._touched = self._touched, None
        return DeltaOutcome(
            delta=delta,
            stats=stats_list,
            dirty_prefixes=tuple(sorted(str(p) for p in dirty)),
            changed_ases=frozenset(touched),
        )

    def _apply_localpref_edit(self, delta: LocalprefEdit) -> None:
        if not self.topology.has_link(delta.asn, delta.neighbor_asn):
            raise EngineError(
                "no session %d-%d to reprice"
                % (delta.asn, delta.neighbor_asn)
            )
        self.topology.node(delta.asn).policy.set_neighbor_localpref(
            delta.neighbor_asn, delta.value
        )
        # The edit changes one arc's import localpref: patch that arc,
        # which deliveries from now on read.
        self._arc_of[delta.neighbor_asn][delta.asn] = (
            self.exports.set_import_localpref(
                delta.neighbor_asn, delta.asn, delta.value
            )
        )
        router = self.router(delta.asn)
        rel = self.topology.rel(delta.asn, delta.neighbor_asn)
        for prefix, change in router.reprice_neighbor(delta.neighbor_asn, rel):
            self._record_change(delta.asn, prefix, change.new)
            self._export_after_change(delta.asn, prefix)

    def rib_state(self, prefix: Optional[Prefix] = None) -> tuple:
        """Canonical, comparable dump of every adj-RIB-in and loc-RIB.

        Route ages are included — two states are equal only if they are
        byte-identical, which is exactly the warm-vs-cold differential
        contract.  Empty adj-RIB shells (a prefix fully withdrawn
        again) are skipped so warm and cold engines with different
        lazily-created dict shapes still compare equal.
        """
        rows = []
        for asn in sorted(self.routers):
            router = self.routers[asn]
            for pfx in sorted(router.adj_rib_in):
                if prefix is not None and pfx != prefix:
                    continue
                rib = router.adj_rib_in[pfx]
                best = router.loc_rib.get(pfx)
                if not rib and best is None:
                    continue
                rows.append(
                    (
                        asn,
                        str(pfx),
                        tuple(
                            (nbr,) + _route_state(rib[nbr])
                            for nbr in sorted(rib)
                        ),
                        _route_state(best) if best is not None else None,
                    )
                )
        return tuple(rows)

    def _mark_dirty(self, asn: int, prefix: Prefix) -> None:
        if self._dirty is not None:
            self._dirty.add(prefix)
            self._touched.add(asn)

    def run_to_fixpoint(self) -> ConvergenceStats:
        """Deliver queued messages until the network is quiet."""
        # A failed run (dispute-wheel cap, crash mid-delivery) must not
        # leave the previous run's stats visible as if they were this
        # run's.
        self.last_stats = None
        stats = ConvergenceStats(
            started_at=self.now, message_limit=self._message_limit
        )
        delivered = 0
        dropped = 0
        changes = 0
        peak_depth = len(self._heap)
        sent_before = self._messages_sent
        heap = self._heap
        routers = self.routers
        arc_of = self._arc_of
        down = self._down_links
        limit = self._message_limit
        with span("engine.run_to_fixpoint") as trace:
            while heap:
                depth = len(heap)
                if depth > peak_depth:
                    peak_depth = depth
                deliver_at, _, sender, receiver, prefix, path, tag = (
                    heappop(heap)
                )
                if deliver_at > self.now:
                    self.now = deliver_at
                if down and frozenset((sender, receiver)) in down:
                    # Lost on a failed link: not a delivery, so it
                    # counts toward neither the dispute-wheel limit
                    # nor limit_proximity.
                    dropped += 1
                    continue
                delivered += 1
                if delivered > limit:
                    raise EngineError(
                        "message limit exceeded: likely policy dispute wheel"
                    )
                # The import localpref is read from the arc at delivery,
                # so a localpref edit reaches messages already in flight.
                changed = routers[receiver].apply_update(
                    sender, arc_of[sender][receiver][6], prefix, path,
                    self.now, 0, tag,
                )
                if changed:
                    changes += 1
                    self._record_change(
                        receiver, prefix,
                        routers[receiver].loc_rib.get(prefix),
                    )
                    self._export_after_change(receiver, prefix)
        if self._horizon > self.now:
            self.now = self._horizon
        stats.messages_delivered = delivered
        stats.messages_dropped = dropped
        stats.best_changes = changes
        stats.converged_at = self.now
        stats.messages_sent = self._messages_sent - sent_before
        stats.peak_heap_depth = peak_depth
        stats.wall_seconds = trace.duration or 0.0
        self.last_stats = stats
        self._flush_metrics(stats)
        return stats

    def _flush_metrics(self, stats: ConvergenceStats) -> None:
        """Publish one run's counters in a single batch (the hot loop
        above only touches plain locals)."""
        registry = get_registry()
        registry.counter("engine.runs").inc()
        registry.counter("engine.messages_delivered").inc(
            stats.messages_delivered
        )
        registry.counter("engine.messages_dropped").inc(
            stats.messages_dropped
        )
        registry.counter("engine.best_changes").inc(stats.best_changes)
        # Sends can happen outside run_to_fixpoint (announce/withdraw/
        # link flaps queue messages); flush the delta since last time so
        # the counter tracks every message the engine ever sent.
        sent_delta = self._messages_sent - self._messages_sent_flushed
        self._messages_sent_flushed = self._messages_sent
        registry.counter("engine.messages_sent").inc(sent_delta)
        if stats.limit_proximity >= MESSAGE_LIMIT_WARN_RATIO:
            _log.warning(
                "convergence run approaching message limit",
                delivered=stats.messages_delivered,
                limit=self._message_limit,
                proximity=round(stats.limit_proximity, 3),
            )
        if _log.is_enabled_for("debug"):
            _log.debug(
                "fixpoint reached",
                delivered=stats.messages_delivered,
                dropped=stats.messages_dropped,
                sent=stats.messages_sent,
                best_changes=stats.best_changes,
                sim_duration=round(stats.duration, 3),
                wall_seconds=round(stats.wall_seconds, 6),
                peak_heap_depth=stats.peak_heap_depth,
            )

    def advance_to(self, when: float) -> None:
        """Move the engine clock forward (between experiment rounds)."""
        if when < self.now:
            raise EngineError("engine clock cannot move backwards")
        self.now = when

    # ----- data-plane helpers ---------------------------------------------

    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        return self.router(asn).best_route(prefix)

    # ----- internals --------------------------------------------------------

    def _link_is_down(self, a: int, b: int) -> bool:
        return bool(self._down_links) and frozenset((a, b)) in self._down_links

    def _record_change(
        self, asn: int, prefix: Prefix, route: Optional[Route]
    ) -> None:
        # Dirty tracking first: apply_delta measures its frontier even
        # when update-log recording is disabled.
        self._mark_dirty(asn, prefix)
        if self.record_best_changes:
            self.update_log.append(
                UpdateEvent(self.now, asn, prefix, route, None)
            )

    def _export_after_change(self, asn: int, prefix: Prefix) -> None:
        self._export(asn, prefix, self.exports.arcs[asn])

    def _export(self, asn: int, prefix: Prefix, arcs) -> None:
        """Send *asn*'s current best for *prefix*, or a withdraw, along
        each up arc of *arcs* (in order), applying export policy and
        prepends.

        The export rule is the fastpath's: a blocked session (the
        receiver is in ``no_export_to``) gets nothing; a tag-filtered,
        valley-violating or looping export gets a withdraw, so the
        receiver clears any route it was sent before."""
        best = self.routers[asn].loc_rib.get(prefix)
        down = self._down_links
        sends = []
        if best is None:
            for receiver, _, _, _, no_export, _, _ in arcs:
                if down and frozenset((asn, receiver)) in down:
                    continue
                if not no_export:
                    sends.append((receiver, None, ""))
            self._send_all(asn, prefix, sends)
            return
        tag = best.tag
        if best.learned_from is None:
            # Locally originated: the stored announcement carries the
            # per-neighbor origin prepends.
            announcement = self._announcements.get((asn, prefix))
            for receiver, _, _, prepends, no_export, tag_blocks, _ in arcs:
                if down and frozenset((asn, receiver)) in down:
                    continue
                if no_export:
                    continue
                if tag in tag_blocks:
                    sends.append((receiver, None, ""))
                    continue
                extra = prepends + (
                    announcement.prepends_toward(receiver)
                    if announcement is not None
                    else 0
                )
                sends.append((receiver, ASPath.origin_path(asn, extra), tag))
            self._send_all(asn, prefix, sends)
            return
        learned_rel, learned_fabric = self.exports.learned[asn][
            best.learned_from
        ]
        to_all = learned_rel is Rel.CUSTOMER
        customer = Rel.CUSTOMER
        peer = Rel.PEER
        base = best.path.asns
        exported = (asn,) + base
        shared = None  # the unprepended path, built on first use
        for (receiver, to_rel, to_fabric, prepends, no_export, tag_blocks,
             _) in arcs:
            if down and frozenset((asn, receiver)) in down:
                continue
            if no_export:
                continue
            if (
                tag in tag_blocks
                or not (
                    to_all
                    or to_rel is customer
                    or (learned_fabric and to_fabric and to_rel is peer)
                )
                or receiver in base
            ):
                sends.append((receiver, None, ""))
            elif prepends:
                sends.append(
                    (receiver, ASPath((asn,) * prepends + exported), tag)
                )
            else:
                if shared is None:
                    shared = ASPath(exported)
                sends.append((receiver, shared, tag))
        self._send_all(asn, prefix, sends)

    def _send_all(self, sender: int, prefix: Prefix, sends) -> None:
        """Queue one message from *sender* per ``(receiver, path, tag)``
        of *sends*, in order (``path`` None is a withdraw).  Each draws
        one delay; a session delivers in FIFO order.

        A withdraw to a receiver outside the sender's held set (its last
        queued message for *prefix* was not an announcement) would
        change nothing at delivery, so it is not queued.  It still draws
        its delay and takes its FIFO slot, and :meth:`run_to_fixpoint`
        ends with the clock at its delivery time, so every later delay,
        route age and update-log time is what it would have been."""
        if not sends:
            return
        now = self.now
        # expovariate(_DELAY_RATE), inlined: the same formula on the
        # same random() draw, so the same delays.
        random = self._rng.random
        last = self._last_scheduled.get(sender)
        if last is None:
            last = self._last_scheduled[sender] = {}
        held_of = self._held.get(sender)
        if held_of is None:
            held_of = self._held[sender] = {}
        held = held_of.get(prefix)
        if held is None:
            held = held_of[prefix] = set()
        heap = self._heap
        seq = self._seq
        horizon = self._horizon
        for receiver, path, tag in sends:
            deliver_at = now + (
                BASE_DELAY - log(1.0 - random()) / _DELAY_RATE
            )
            # FIFO per session: never deliver before a previously sent
            # message.
            previous = last.get(receiver, 0.0)
            if deliver_at <= previous:
                deliver_at = previous + 1e-6
            last[receiver] = deliver_at
            if path is not None:
                held.add(receiver)
            elif receiver in held:
                held.remove(receiver)
            else:
                if deliver_at > horizon:
                    horizon = deliver_at
                continue
            seq += 1
            heappush(heap, (
                deliver_at, seq, sender, receiver, prefix, path, tag
            ))
        self._messages_sent += seq - self._seq
        self._seq = seq
        self._horizon = horizon
