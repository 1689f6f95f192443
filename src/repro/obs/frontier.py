"""Convergence-frontier analytics: who is still changing, and when.

The engine's :class:`~repro.bgp.engine.ConvergenceStats` compresses a
whole fixpoint run into a handful of totals; the paper's residual-churn
and outage-recovery claims (§3.3/§4) — and the planned incremental
convergence engine — need the *shape* of a run: which prefixes' best
routes are still changing, how deep the message causality chains run,
and how the change frontier shrinks toward quiescence.

This module records that shape as a stream of plain-dict events in the
``frontier`` ring of the active :class:`~repro.obs.capture.Capture`
(a bounded :class:`~repro.obs.capture.EventRing`, the same ring class
provenance uses):

- ``kind="engine_window"`` — one fixed-size window of delivered
  messages in :meth:`~repro.bgp.engine.PropagationEngine.run_to_fixpoint`:
  deliveries, best changes, the distinct-prefix frontier size with a
  bounded sorted sample, the peak pending-heap depth, and the peak
  message *causality* depth (length of the triggered-by chain from an
  initial announcement).
- ``kind="engine_run"`` — one fixpoint run's summary including its
  **quiescence curve**: best changes per window, oldest first.
- ``kind="fastpath_window"`` / ``kind="fastpath_run"`` — the same two
  shapes for :func:`~repro.bgp.fastpath.propagate_fastpath`, where an
  iteration is one relaxation-queue pop and the frontier is the set of
  ASes whose best changed.
- ``kind="round_frontier"`` — one probing round's data-plane frontier:
  how many probed prefixes' round signal differs from the previous
  round's, with a bounded sample and the signal mix.

Recording is **off by default** and costs one function call returning
``None`` per engine/fastpath run when disabled
(``benchmarks/bench_profile.py`` guards the enabled path under 5%).
Events are built from simulation state only — no wall clocks, no
object ids — so the stream joins the byte-identity contract: round
frontiers are diffed from the round result, and pooled cell captures
merge back in cell order, making ``--frontier-out`` JSONL
byte-identical at every ``--campaign-workers`` count (asserted in
``tests/test_differential.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .metrics import get_registry
from .provenance import round_signal_summary

if TYPE_CHECKING:
    from .capture import EventRing

__all__ = [
    "EngineRunFrontier",
    "FastpathRunFrontier",
    "round_frontier_event",
    "flush_round_frontier_metrics",
    "signal_rows",
    "FRONTIER_COUNT_BUCKETS",
    "ENGINE_WINDOW",
    "FASTPATH_WINDOW",
    "SAMPLE_LIMIT",
    "QUIESCENCE_LIMIT",
]

#: Engine deliveries per frontier window.
ENGINE_WINDOW = 256

#: Fastpath queue pops per frontier window.
FASTPATH_WINDOW = 64

#: Changed prefixes/ASes sampled per event (sorted, then truncated, so
#: the sample is deterministic).
SAMPLE_LIMIT = 8

#: Maximum quiescence-curve length carried by a run event; longer runs
#: report how many leading windows were shed (``truncated``).
QUIESCENCE_LIMIT = 512

#: Frontier-size histogram bounds (counts, not seconds).
FRONTIER_COUNT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 4096.0, 16384.0,
)


# -- per-run accumulators ---------------------------------------------


class _RunFrontier:
    """Shared windowed accumulator.  Subclasses name the event kinds
    and the per-item vocabulary; the hot path is :meth:`note`, called
    once per delivery/iteration only while a trace is active."""

    window_size = ENGINE_WINDOW
    window_kind = "engine_window"
    run_kind = "engine_run"

    def __init__(self, trace: "EventRing", run_index: int) -> None:
        self.trace = trace
        self.run_index = run_index
        self._events: List[dict] = []
        self._curve: List[int] = []
        self._windows = 0
        self._delivered = 0
        self._changed = 0
        self._peak_depth = 0
        self._peak_causal = 0
        self._win_count = 0
        self._win_changed = 0
        self._win_frontier: set = set()
        self._win_peak_depth = 0
        self._win_peak_causal = 0

    def note(self, changed_key, depth: int, causal_depth: int = 0) -> None:
        """Account one delivery/iteration.  *changed_key* is the
        changed prefix/AS (None when the best route did not change);
        *depth* the pending-structure size; *causal_depth* the
        triggered-by chain length of the delivered message."""
        self._win_count += 1
        if changed_key is not None:
            self._win_changed += 1
            self._win_frontier.add(changed_key)
        if depth > self._win_peak_depth:
            self._win_peak_depth = depth
        if causal_depth > self._win_peak_causal:
            self._win_peak_causal = causal_depth
        if self._win_count >= self.window_size:
            self._flush_window()

    def add_window(
        self,
        count: int,
        changed: int,
        frontier_keys,
        peak_depth: int,
        peak_causal: int,
    ) -> None:
        """Fold one externally-accumulated window.

        The engine hot loop keeps plain locals (a function call per
        delivery costs ~8% of a fixpoint run; one per window is noise)
        and hands them over here every ``window_size`` deliveries.
        *frontier_keys* may hold any str()-able keys; they are
        stringified once per unique key, not once per change.
        """
        if not count:
            return
        self._win_count = count
        self._win_changed = changed
        self._win_frontier = {str(key) for key in frontier_keys}
        self._win_peak_depth = peak_depth
        self._win_peak_causal = peak_causal
        self._flush_window()

    def _flush_window(self) -> None:
        frontier = sorted(self._win_frontier)
        self._events.append({
            "kind": self.window_kind,
            "run": self.run_index,
            "window": self._windows,
            "count": self._win_count,
            "changed": self._win_changed,
            "frontier": len(frontier),
            "sample": frontier[:SAMPLE_LIMIT],
            "depth": self._win_peak_depth,
            "causal_depth": self._win_peak_causal,
        })
        self._windows += 1
        self._delivered += self._win_count
        self._changed += self._win_changed
        if self._win_peak_depth > self._peak_depth:
            self._peak_depth = self._win_peak_depth
        if self._win_peak_causal > self._peak_causal:
            self._peak_causal = self._win_peak_causal
        self._curve.append(self._win_changed)
        self._win_count = 0
        self._win_changed = 0
        self._win_frontier = set()
        self._win_peak_depth = 0
        self._win_peak_causal = 0

    def _run_event(self) -> dict:
        truncated = max(0, len(self._curve) - QUIESCENCE_LIMIT)
        return {
            "kind": self.run_kind,
            "run": self.run_index,
            "windows": self._windows,
            "count": self._delivered,
            "changed": self._changed,
            "peak_depth": self._peak_depth,
            "peak_causal_depth": self._peak_causal,
            "quiescence": self._curve[truncated:],
            "truncated": truncated,
        }

    def finish(self) -> dict:
        """Flush the partial window, record all events into the trace,
        publish metrics in one batch, and return the run event."""
        if self._win_count:
            self._flush_window()
        run_event = self._run_event()
        self._events.append(run_event)
        self.trace.extend(self._events)
        self._events = []
        self._flush_metrics(run_event)
        return run_event

    def _flush_metrics(self, run_event: dict) -> None:
        registry = get_registry()
        prefix = self.run_kind.rsplit("_", 1)[0]
        registry.counter("frontier.%s_runs" % prefix).inc()
        registry.histogram(
            "frontier.%s_windows" % prefix, FRONTIER_COUNT_BUCKETS
        ).observe(run_event["windows"])
        registry.gauge(
            "frontier.%s_peak_causal_depth" % prefix
        ).set(run_event["peak_causal_depth"])


class EngineRunFrontier(_RunFrontier):
    """Windowed frontier accumulator for one
    :meth:`~repro.bgp.engine.PropagationEngine.run_to_fixpoint` call.
    ``changed_key`` is the changed prefix as a string; ``depth`` the
    pending-heap size at pop time."""

    window_size = ENGINE_WINDOW
    window_kind = "engine_window"
    run_kind = "engine_run"


class FastpathRunFrontier(_RunFrontier):
    """Windowed frontier accumulator for one
    :func:`~repro.bgp.fastpath.propagate_fastpath` call.
    ``changed_key`` is the ASN whose best changed; ``depth`` the
    pending-queue length."""

    window_size = FASTPATH_WINDOW
    window_kind = "fastpath_window"
    run_kind = "fastpath_run"

    def __init__(
        self, trace: "EventRing", run_index: int, prefix
    ) -> None:
        super().__init__(trace, run_index)
        self.prefix = str(prefix)

    def _flush_window(self) -> None:
        super()._flush_window()
        self._events[-1]["prefix"] = self.prefix

    def _run_event(self) -> dict:
        event = super()._run_event()
        event["prefix"] = self.prefix
        return event


# -- probing-round frontier -------------------------------------------


def signal_rows(prefix_responses) -> List[Tuple[str, str]]:
    """Per-prefix ``(prefix, signal)`` rows for one probing round.

    *prefix_responses* yields ``(prefix, responses)`` pairs in probe
    order (sorted prefixes).  Signals come from
    :func:`~repro.obs.provenance.round_signal_summary`, the aggregation
    provenance signal events use, so the two streams always agree.
    """
    return [
        (str(prefix), str(round_signal_summary(responses)["signal"]))
        for prefix, responses in prefix_responses
    ]


def round_frontier_event(
    round_index: int,
    config: str,
    rows: Sequence[Tuple[str, str]],
    previous: Optional[Dict[str, str]],
) -> dict:
    """Build one ``kind="round_frontier"`` event.

    ``changed`` counts prefixes whose signal differs from *previous*
    (the prior round's prefix→signal map).  On the first round
    (*previous* is None) the frontier is every prefix that produced a
    signal at all — i.e. everything that just appeared.
    """
    changed = []
    signals: Dict[str, int] = {}
    for prefix, signal in rows:
        signals[signal] = signals.get(signal, 0) + 1
        if previous is None:
            if signal != "none":
                changed.append(prefix)
        elif previous.get(prefix) != signal:
            changed.append(prefix)
    changed.sort()
    return {
        "kind": "round_frontier",
        "round": round_index,
        "config": config,
        "prefixes": len(rows),
        "changed": len(changed),
        "sample": changed[:SAMPLE_LIMIT],
        "signals": {k: signals[k] for k in sorted(signals)},
    }


def flush_round_frontier_metrics(event: dict) -> None:
    """Publish one round's frontier gauges/histograms — the series
    :class:`~repro.obs.telemetry.TelemetrySampler` ticks and
    :func:`~repro.obs.export.to_openmetrics` renders."""
    registry = get_registry()
    registry.counter("frontier.rounds_captured").inc()
    registry.gauge("frontier.round_changed").set(event["changed"])
    registry.gauge("frontier.round_prefixes").set(event["prefixes"])
    registry.histogram(
        "frontier.round_changed_prefixes", FRONTIER_COUNT_BUCKETS
    ).observe(event["changed"])
