"""repro.obs — observability: metrics, timing spans, structured logs.

Zero-dependency instrumentation for the engine → runner → CLI stack:

- :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms in a thread-safe registry (process singleton plus
  isolated registries for tests) with JSON snapshot export;
- :mod:`repro.obs.spans` — ``with span("engine.run_to_fixpoint"):``
  wall-time histograms that nest into a lightweight trace tree;
- :mod:`repro.obs.logging` — ``get_logger(name)`` emitting key=value
  or JSON lines on stderr, silent until configured;
- :mod:`repro.obs.capture` — :class:`Capture`: the one process-wide
  slot for the opt-in evidence channels (provenance and frontier
  :class:`EventRing` buffers with JSONL export), installed with
  :class:`use_capture` and shipped/merged across worker processes as
  one payload;
- :mod:`repro.obs.provenance` — decision-provenance events
  (route-selection steps, per-round prefix signals);
- :mod:`repro.obs.export` — render completed span trees to Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto loadable) and read
  it back as a per-span-name table of calls, inclusive and self
  seconds (``--trace-out`` / ``repro profile``) — the one answer to
  "where did the time go?";
- :mod:`repro.obs.benchtrack` — benchmark trajectory: append-only
  ``BENCH_HISTORY.jsonl`` plus latest-vs-baseline regression diffs;
- :mod:`repro.obs.frontier` — convergence-frontier analytics: events
  for per-window frontier sizes, causality depths,
  quiescence curves, and per-round signal diffs (byte-identical
  across execution modes; ``--frontier-out``).

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
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .capture import Capture, EventRing, active_capture, use_capture
from .spans import SpanRecord, current_span, finished_roots, reset_trace, span

__all__ = [
    "Capture",
    "EventRing",
    "active_capture",
    "use_capture",
    "Counter",
    "Gauge",
    "Histogram",
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
