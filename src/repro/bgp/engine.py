"""Event-driven BGP propagation engine.

The engine delivers UPDATE/WITHDRAW messages between neighboring ASes
with randomised (but deterministic, seeded) per-message delays, FIFO per
session, until the network reaches a fixpoint.  It stamps route ages,
counts per-session messages, and records every loc-RIB best change so
collectors can reconstruct the update streams behind Figure 3.

The engine is exact but message-driven; use :mod:`repro.bgp.fastpath`
for bulk converged-state computation where churn does not matter.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import EngineError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_capture
from ..obs.frontier import EngineRunFrontier
from ..rng import SeedTree
from ..topology.graph import Topology
from .attributes import Announcement, ASPath, Route
from .policy import may_export
from .rpki import rov_drops_route
from .router import Router

#: Default per-message propagation delay model (seconds).
BASE_DELAY = 0.05
MEAN_EXTRA_DELAY = 1.5

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


@dataclass(frozen=True)
class UpdateEvent:
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


@dataclass(order=True)
class _Message:
    deliver_at: float
    seq: int
    sender: int = field(compare=False)
    receiver: int = field(compare=False)
    prefix: Prefix = field(compare=False)
    path: Optional[ASPath] = field(compare=False)
    tag: str = field(compare=False, default="")


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
    """Withdraw *prefix* at its origin."""

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

    ``dirty_prefixes`` / ``touched_ases`` bound the re-propagation
    frontier: only these prefixes changed any loc-RIB, only this many
    ASes selected a new best.  ``stats`` has one entry per
    ``run_to_fixpoint`` the delta triggered (two for a full flap)."""

    delta: object
    stats: List[ConvergenceStats]
    dirty_prefixes: Tuple[str, ...]
    touched_ases: int

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
    """

    def __init__(
        self,
        topology: Topology,
        seed_tree: Optional[SeedTree] = None,
        record_best_changes: bool = True,
        message_limit: int = DEFAULT_MESSAGE_LIMIT,
        roa_table=None,
    ) -> None:
        self.topology = topology
        self.roa_table = roa_table
        self._rng = (seed_tree or SeedTree(0)).child("engine").rng()
        self.routers: Dict[int, Router] = {
            node.asn: Router(node.asn, node.policy)
            for node in topology.ases()
        }
        self.now: float = 0.0
        self.record_best_changes = record_best_changes
        self.update_log: List[UpdateEvent] = []
        self.session_message_counts: Dict[Tuple[int, int], int] = {}
        self._heap: List[_Message] = []
        self._seq = 0
        self._last_scheduled: Dict[Tuple[int, int], float] = {}
        self._down_links: Set[frozenset] = set()
        self._message_limit = message_limit
        self._announcements: Dict[Tuple[int, Prefix], Announcement] = {}
        #: Stats of the most recent :meth:`run_to_fixpoint` (None until
        #: the first run completes).
        self.last_stats: Optional[ConvergenceStats] = None
        self._messages_sent = 0
        self._messages_sent_flushed = 0
        # Frontier bookkeeping: per-engine run counter, so run ids are
        # identical however cells are scheduled.  Causality
        # depths live in run-local interval lists inside
        # run_to_fixpoint, only populated while a frontier ring is
        # captured.
        self._frontier_runs = 0
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
        configuration changes.
        """
        announcement = Announcement(
            prefix=prefix,
            origin_asn=origin_asn,
            prepends=dict(prepends or {}),
            default_prepends=default_prepends,
            tag=tag,
        )
        self._announcements[(origin_asn, prefix)] = announcement
        router = self.router(origin_asn)
        router.originate(prefix, tag=tag, now=self.now)
        policy = self.topology.node(origin_asn).policy
        for neighbor in sorted(self.topology.neighbors(origin_asn)):
            if self._link_is_down(origin_asn, neighbor):
                continue
            if policy.blocks_export(neighbor, tag):
                continue
            extra = announcement.prepends_toward(neighbor)
            extra += policy.prepends_toward(neighbor)
            path = ASPath.origin_path(origin_asn, extra)
            self._send(origin_asn, neighbor, prefix, path, tag)
        return announcement

    def withdraw(self, origin_asn: int, prefix: Prefix) -> None:
        """Withdraw *prefix* at its origin."""
        self._announcements.pop((origin_asn, prefix), None)
        router = self.router(origin_asn)
        change = router.withdraw_local(prefix)
        if change.changed:
            self._record_change(origin_asn, prefix, change.new)
        # Export through the same per-neighbor policy checks every
        # other export takes (_export_to_neighbor): a neighbor behind
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
        """Restore the a-b link and re-advertise current bests across it."""
        key = frozenset((a, b))
        if key not in self._down_links:
            return
        self._down_links.remove(key)
        for local, remote in ((a, b), (b, a)):
            router = self.router(local)
            for prefix in list(router.loc_rib):
                self._export_to_neighbor(local, remote, prefix)

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
        outcome = DeltaOutcome(
            delta=delta,
            stats=stats_list,
            dirty_prefixes=tuple(sorted(str(p) for p in dirty)),
            touched_ases=len(touched),
        )
        capture = active_capture()
        if capture is not None and capture.frontier is not None:
            capture.frontier.record(
                {
                    "kind": "engine_delta",
                    "delta": delta.kind,
                    "dirty_prefixes": len(dirty),
                    "sample": list(outcome.dirty_prefixes[:8]),
                    "touched_ases": outcome.touched_ases,
                    "runs": len(stats_list),
                    "messages_delivered": outcome.messages_delivered,
                    "best_changes": outcome.best_changes,
                }
            )
        return outcome

    def _apply_localpref_edit(self, delta: LocalprefEdit) -> None:
        if not self.topology.has_link(delta.asn, delta.neighbor_asn):
            raise EngineError(
                "no session %d-%d to reprice"
                % (delta.asn, delta.neighbor_asn)
            )
        self.topology.node(delta.asn).policy.set_neighbor_localpref(
            delta.neighbor_asn, delta.value
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
        # One call returning None per run is the entire disabled-state
        # frontier cost; enabled, the loop tracks the changed-prefix
        # frontier and message causality depth per window.
        capture = active_capture()
        trace_ring = capture.frontier if capture is not None else None
        acc = None
        if trace_ring is not None:
            acc = EngineRunFrontier(trace_ring, self._frontier_runs)
            self._frontier_runs += 1
        # Window accounting stays in plain locals; the accumulator is
        # only called once per window (see EngineRunFrontier.add_window).
        window_size = EngineRunFrontier.window_size
        win_count = 0
        win_changed = 0
        win_frontier: set = set()
        win_peak_depth = 0
        win_peak_causal = 0
        # Causality depths as seq intervals: messages triggered by one
        # delivery get consecutive seqs, so each change appends one
        # (start, end, depth) triple instead of a dict entry per sent
        # message; deliveries look their seq up with one bisect.
        causal_starts: List[int] = []
        causal_ends: List[int] = []
        causal_depths: List[int] = []
        with span("engine.run_to_fixpoint") as trace:
            while self._heap:
                depth = len(self._heap)
                if depth > peak_depth:
                    peak_depth = depth
                message = heapq.heappop(self._heap)
                if message.deliver_at > self.now:
                    self.now = message.deliver_at
                if self._link_is_down(message.sender, message.receiver):
                    # Lost on a failed link: not a delivery, so it
                    # counts toward neither the dispute-wheel limit
                    # nor limit_proximity.
                    dropped += 1
                    continue
                delivered += 1
                if delivered > self._message_limit:
                    raise EngineError(
                        "message limit exceeded: likely policy dispute wheel"
                    )
                receiver = self.router(message.receiver)
                rel = self.topology.rel(message.receiver, message.sender)
                path = message.path
                if (
                    path is not None
                    and receiver.policy.enforce_rov
                    and rov_drops_route(self.roa_table, message.prefix,
                                        path.origin)
                ):
                    path = None  # RPKI-invalid: rejected on import (§2.3)
                change = receiver.receive(
                    neighbor_asn=message.sender,
                    rel=rel,
                    prefix=message.prefix,
                    path=path,
                    now=self.now,
                    tag=message.tag,
                )
                if acc is None:
                    if change.changed:
                        changes += 1
                        self._record_change(
                            message.receiver, message.prefix, change.new
                        )
                        self._export_after_change(
                            message.receiver, message.prefix
                        )
                else:
                    seq = message.seq
                    index = bisect_right(causal_starts, seq)
                    causal = (
                        causal_depths[index - 1]
                        if index and seq <= causal_ends[index - 1]
                        else 0
                    )
                    win_count += 1
                    if depth > win_peak_depth:
                        win_peak_depth = depth
                    if causal > win_peak_causal:
                        win_peak_causal = causal
                    if change.changed:
                        changes += 1
                        seq_before = self._seq
                        self._record_change(
                            message.receiver, message.prefix, change.new
                        )
                        self._export_after_change(
                            message.receiver, message.prefix
                        )
                        win_changed += 1
                        win_frontier.add(message.prefix)
                        if self._seq > seq_before:
                            # Messages this delivery just triggered sit
                            # one causality step deeper.
                            causal_starts.append(seq_before + 1)
                            causal_ends.append(self._seq)
                            causal_depths.append(causal + 1)
                    if win_count >= window_size:
                        acc.add_window(
                            win_count, win_changed, win_frontier,
                            win_peak_depth, win_peak_causal,
                        )
                        win_count = 0
                        win_changed = 0
                        win_frontier = set()
                        win_peak_depth = 0
                        win_peak_causal = 0
        if acc is not None:
            acc.add_window(
                win_count, win_changed, win_frontier,
                win_peak_depth, win_peak_causal,
            )
            acc.finish()
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
        # the counter tracks session_message_counts exactly.
        sent_delta = self._messages_sent - self._messages_sent_flushed
        self._messages_sent_flushed = self._messages_sent
        registry.counter("engine.messages_sent").inc(sent_delta)
        registry.gauge("engine.heap_depth_peak").set(stats.peak_heap_depth)
        registry.gauge("engine.message_limit_proximity").set(
            stats.limit_proximity
        )
        registry.histogram("engine.convergence_sim_seconds").observe(
            stats.duration
        )
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
        return frozenset((a, b)) in self._down_links

    def _record_change(
        self, asn: int, prefix: Prefix, route: Optional[Route]
    ) -> None:
        # Dirty tracking first: apply_delta measures its frontier even
        # when update-log recording is disabled.
        self._mark_dirty(asn, prefix)
        if self.record_best_changes:
            self.update_log.append(
                UpdateEvent(time=self.now, asn=asn, prefix=prefix, route=route)
            )

    def _export_after_change(self, asn: int, prefix: Prefix) -> None:
        for neighbor in sorted(self.topology.neighbors(asn)):
            if not self._link_is_down(asn, neighbor):
                self._export_to_neighbor(asn, neighbor, prefix)

    def _export_to_neighbor(self, asn: int, neighbor: int, prefix: Prefix) -> None:
        """Send the current best for *prefix* (or a withdraw) to
        *neighbor*, applying export policy and prepend policy."""
        router = self.router(asn)
        best = router.best_route(prefix)
        topology = self.topology
        policy = topology.node(asn).policy
        if best is not None and policy.blocks_export(neighbor, best.tag):
            best = None
        to_rel = topology.rel(asn, neighbor)
        if best is None:
            if neighbor not in policy.no_export_to:
                self._send(asn, neighbor, prefix, None, "")
            return
        if best.learned_from is None:
            # Locally originated: handled by announce(); the stored
            # announcement carries per-neighbor prepends.
            announcement = self._announcements.get((asn, prefix))
            extra = (
                announcement.prepends_toward(neighbor)
                if announcement is not None
                else 0
            )
            extra += topology.node(asn).policy.prepends_toward(neighbor)
            path = ASPath.origin_path(asn, extra)
            self._send(asn, neighbor, prefix, path, best.tag)
            return
        learned_rel = topology.rel(asn, best.learned_from)
        allowed = may_export(
            learned_rel,
            to_rel,
            learned_fabric=topology.is_fabric(asn, best.learned_from),
            to_fabric=topology.is_fabric(asn, neighbor),
        )
        if not allowed:
            # If a previously exported route is no longer exportable,
            # the neighbor must see a withdraw.
            self._send(asn, neighbor, prefix, None, "")
            return
        if best.path.contains(neighbor):
            # Receiver would reject it as a loop anyway; send withdraw
            # to clear any stale state.
            self._send(asn, neighbor, prefix, None, "")
            return
        prepends = 1 + topology.node(asn).policy.prepends_toward(neighbor)
        path = best.path.prepended_by(asn, prepends)
        self._send(asn, neighbor, prefix, path, best.tag)

    def _send(
        self,
        sender: int,
        receiver: int,
        prefix: Prefix,
        path: Optional[ASPath],
        tag: str,
    ) -> None:
        session = (sender, receiver)
        delay = BASE_DELAY + self._rng.expovariate(1.0 / MEAN_EXTRA_DELAY)
        deliver_at = self.now + delay
        # FIFO per session: never deliver before a previously sent message.
        previous = self._last_scheduled.get(session, 0.0)
        if deliver_at <= previous:
            deliver_at = previous + 1e-6
        self._last_scheduled[session] = deliver_at
        self.session_message_counts[session] = (
            self.session_message_counts.get(session, 0) + 1
        )
        self._messages_sent += 1
        self._seq += 1
        heapq.heappush(
            self._heap,
            _Message(
                deliver_at=deliver_at,
                seq=self._seq,
                sender=sender,
                receiver=receiver,
                prefix=prefix,
                path=path,
                tag=tag,
            ),
        )
