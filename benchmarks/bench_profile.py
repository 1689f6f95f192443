"""Guard: frontier analytics + phase profiling stay under 5% overhead.

Both layers are opt-in, but "opt-in" only stays honest if turning them
on is affordable and leaving them off is free:

- **enabled** — a :class:`~repro.obs.capture.Capture` holding a
  frontier :class:`~repro.obs.capture.EventRing` (per-delivery
  windowed accounting in the engine hot loop) plus a counter-mode
  :class:`~repro.obs.profile.PhaseProfiler` observing every span.  This is the always-on-capable configuration; cProfile
  mode is deliberately excluded (interpreter tracing costs whatever it
  costs — that's the price of function-level hotspots, paid knowingly
  via ``--profile-out``).
- **disabled** — the default: one ``active_capture()`` / observer
  ``None`` check per run/span.

The enabled run must stay within ``OVERHEAD_BUDGET`` of the disabled
one.  The emitted ``BENCH_profile.json`` rides the bench-diff gate, so
a hot-loop regression fails CI twice: here and in the trajectory.

Run directly (``python benchmarks/bench_profile.py``) or via pytest
(``PYTHONPATH=src python -m pytest benchmarks/bench_profile.py``).
"""

from __future__ import annotations

import time

from repro import (
    PropagationEngine,
    REEcosystemConfig,
    SeedTree,
    build_ecosystem,
)
from repro.obs.capture import Capture, EventRing, use_capture
from repro.obs.profile import PhaseProfiler

#: Allowed frontier+profiler overhead, as a fraction of baseline.
OVERHEAD_BUDGET = 0.05

#: Alternating timed trials per variant; min-of-N rejects scheduler
#: noise, alternation rejects thermal / cache drift.
TRIALS = 7

BENCH_SCALE = 0.1
BENCH_SEED = 42


def _one_convergence(ecosystem) -> float:
    """Wall seconds for announce + run_to_fixpoint on a fresh engine."""
    engine = PropagationEngine(ecosystem.topology, SeedTree(BENCH_SEED))
    engine.announce(
        ecosystem.commodity_origin, ecosystem.measurement_prefix,
        tag="commodity",
    )
    start = time.perf_counter()
    engine.run_to_fixpoint()
    return time.perf_counter() - start


def _enabled_capture() -> Capture:
    return Capture(
        frontier=EventRing(), profiler=PhaseProfiler(use_cprofile=False)
    )


def measure(ecosystem):
    """(enabled_best, disabled_best, events) wall seconds, interleaved.

    "Enabled" runs under a fresh frontier ring and a counter-mode
    profiler; "disabled" is the default no-capture, no-observer state.
    """
    enabled_times = []
    disabled_times = []
    events = 0
    # Warm-up, untimed: touch every code path once.
    with use_capture(_enabled_capture()):
        _one_convergence(ecosystem)
    _one_convergence(ecosystem)
    for _ in range(TRIALS):
        capture = _enabled_capture()
        with use_capture(capture):
            enabled_times.append(_one_convergence(ecosystem))
        events = len(capture.frontier)
        disabled_times.append(_one_convergence(ecosystem))
    return min(enabled_times), min(disabled_times), events


def test_profile(bench_emit=None):
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    enabled, disabled, events = measure(ecosystem)
    overhead = enabled / disabled - 1.0
    print(
        "\nfrontier+profiler overhead: enabled %.4fs  disabled %.4fs  "
        "overhead %+.2f%%  (%d frontier events)"
        % (enabled, disabled, 100.0 * overhead, events)
    )
    if bench_emit is not None:
        bench_emit["overhead_pct"] = round(100.0 * overhead, 2)
        bench_emit["frontier_events"] = events
    assert events > 0, "enabled run recorded no frontier events"
    assert enabled <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "frontier+profiler overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


if __name__ == "__main__":
    test_profile()
    print("ok")
