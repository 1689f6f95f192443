"""Guard: frontier analytics + phase profiling stay under 5% overhead.

Both layers are opt-in, but "opt-in" only stays honest if turning them
on is affordable and leaving them off is free:

- **enabled** — a :class:`~repro.obs.capture.Capture` holding a
  frontier :class:`~repro.obs.capture.EventRing` (per-delivery
  windowed accounting in the engine hot loop) plus a counter-mode
  :class:`~repro.obs.profile.PhaseProfiler` observing every span.
  This is the always-on-capable configuration; cProfile mode is
  deliberately excluded (interpreter tracing costs whatever it costs —
  that's the price of function-level hotspots, paid knowingly via
  ``--profile-out``).
- **disabled** — the default: one ``active_capture()`` / observer
  ``None`` check per run/span.

The enabled run must stay within ``OVERHEAD_BUDGET`` of the disabled
one.  The emitted ``BENCH_profile.json`` rides the bench-diff gate, so
a hot-loop regression fails CI twice: here and in the trajectory.

One convergence takes a few milliseconds, and on a shared host its time
swings by far more than 5% from run to run, so each trial is a batch of
convergences lasting at least :data:`MIN_TRIAL_SECONDS` per variant.
Within a trial the variants alternate convergence by convergence, and
which one goes first alternates too, so both batches see the same host
conditions.  A trial's value for a variant is its batch's median
convergence time, which one stalled convergence cannot move; the gate
compares each variant's fastest trial.

Run directly (``python benchmarks/bench_profile.py``) or via pytest
(``PYTHONPATH=src python -m pytest benchmarks/bench_profile.py``).
"""

from __future__ import annotations

import math
import statistics
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

#: Shortest total per variant in one trial: long enough that a 5%
#: difference stands above timer and scheduler noise.
MIN_TRIAL_SECONDS = 0.3

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


def batch_size(ecosystem) -> int:
    """Convergences per trial: enough that a trial's total reaches
    :data:`MIN_TRIAL_SECONDS` even at the fastest of a few warm-up
    runs (which also touch every code path once)."""
    fastest = min(_one_convergence(ecosystem) for _ in range(3))
    return max(1, math.ceil(MIN_TRIAL_SECONDS / fastest))


def measure(ecosystem):
    """(enabled_best, disabled_best, events): each variant's fastest
    trial, as a batch-median convergence time in wall seconds, and the
    frontier events one enabled convergence records.

    "Enabled" runs under a fresh frontier ring and a counter-mode
    profiler; "disabled" is the default no-capture, no-observer state.
    """
    enabled_times = []
    disabled_times = []
    events = 0
    # Warm-up, untimed: touch the enabled code paths once.
    with use_capture(_enabled_capture()):
        _one_convergence(ecosystem)
    batch = batch_size(ecosystem)
    for _ in range(TRIALS):
        times = {True: [], False: []}
        for index in range(batch):
            for enabled in ((True, False) if index % 2 else (False, True)):
                if enabled:
                    capture = _enabled_capture()
                    with use_capture(capture):
                        times[True].append(_one_convergence(ecosystem))
                    events = len(capture.frontier)
                else:
                    times[False].append(_one_convergence(ecosystem))
        enabled_times.append(statistics.median(times[True]))
        disabled_times.append(statistics.median(times[False]))
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
