"""repro.obs — observability: metrics, timing spans, structured logs.

Zero-dependency instrumentation for the engine → runner → CLI stack:

- :mod:`repro.obs.metrics` — counters in a thread-safe registry
  (process singleton plus isolated registries for tests) with JSON
  snapshot export;
- :mod:`repro.obs.spans` — ``with span("engine.run_to_fixpoint"):``
  wall times that nest into a lightweight trace tree, the one record
  of where the time went;
- :mod:`repro.obs.logging` — ``get_logger(name)`` emitting key=value
  or JSON lines on stderr, silent until configured;
- :mod:`repro.obs.capture` — the opt-in provenance ring (an
  :class:`EventRing` buffer with JSONL export) in one process-wide
  slot, installed with :func:`use_ring`; pooled workers ship their
  ring's ``(events, dropped)`` home for :meth:`EventRing.extend`;
- :mod:`repro.obs.provenance` — decision-provenance events
  (route-selection steps, per-round prefix signals);
- :mod:`repro.obs.export` — render completed span trees to Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto loadable) and read
  it back as a per-span-name table of calls, inclusive and self
  seconds (``--trace-out`` / ``repro profile``) — the one answer to
  "where did the time go?";
- :mod:`repro.obs.benchtrack` — benchmark trajectory: append-only
  ``BENCH_HISTORY.jsonl`` plus latest-vs-baseline regression diffs.

Function-level hotspots come from the standard library:
``python -m cProfile -o run.pstats -m repro reproduce ...``.

Everything is off-by-default and adds near-zero overhead when idle:
hot paths accumulate into locals and flush per convergence run or per
probing round (guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from .logging import configure as configure_logging
from .logging import get_logger, reset as reset_logging
from .metrics import (
    Counter,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .capture import EventRing, active_ring, use_ring
from .spans import SpanRecord, current_span, finished_roots, reset_trace, span

__all__ = [
    "EventRing",
    "active_ring",
    "use_ring",
    "Counter",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanRecord",
    "span",
    "current_span",
    "finished_roots",
    "reset_trace",
    "get_logger",
    "configure_logging",
    "reset_logging",
]
