"""Guard: instrumentation must add <5% overhead to a fixpoint run.

Compares event-driven convergence wall time with the default (enabled)
metrics registry against a disabled registry handing out no-op
instruments.  The engine flushes metrics once per run and the hot loop
only touches plain locals, so the measured overhead should be far
below the 5% budget; this benchmark keeps it that way.

A second guard covers decision provenance
(:mod:`repro.obs.provenance`): with no capture installed — the
default — every route selection pays exactly one function call
returning ``None``, and even an *installed* provenance ring whose
prefix filter matches nothing must stay within the same 5% budget (one
``wants()`` set lookup per selection, no event construction).

One convergence takes a few milliseconds and its time on a shared host
swings by far more than 5% from run to run, so each trial is a batch
of convergences lasting at least :data:`MIN_TRIAL_SECONDS` per variant.
Within a trial the variants alternate convergence by convergence, and
which one goes first alternates too, so both batches see the same host
conditions.  A trial's value for a variant is its batch's median
convergence time, which one stalled convergence cannot move; the gate
compares each variant's fastest trial.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py``).
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
from repro.obs import MetricsRegistry, use_registry
from repro.obs.capture import Capture, EventRing, use_capture

#: Allowed instrumentation overhead, as a fraction of baseline.
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


def batch_size(ecosystem) -> int:
    """Convergences per trial: enough that a trial's total reaches
    :data:`MIN_TRIAL_SECONDS` even at the fastest of a few warm-up
    runs (which also touch every code path once)."""
    fastest = min(_one_convergence(ecosystem) for _ in range(3))
    return max(1, math.ceil(MIN_TRIAL_SECONDS / fastest))


def measure(ecosystem):
    """(enabled_best, disabled_best): each variant's fastest trial, as
    a batch-median convergence time in wall seconds."""
    enabled_times = []
    disabled_times = []
    with use_registry(MetricsRegistry()):
        _one_convergence(ecosystem)
    with use_registry(MetricsRegistry(enabled=False)):
        batch = batch_size(ecosystem)
    for _ in range(TRIALS):
        times = {True: [], False: []}
        for index in range(batch):
            for enabled in ((True, False) if index % 2 else (False, True)):
                with use_registry(MetricsRegistry(enabled=enabled)):
                    times[enabled].append(_one_convergence(ecosystem))
        enabled_times.append(statistics.median(times[True]))
        disabled_times.append(statistics.median(times[False]))
    return min(enabled_times), min(disabled_times)


def measure_provenance(ecosystem):
    """(filtered_best, disabled_best): each variant's fastest trial, as
    a batch-median convergence time in wall seconds.

    "Filtered" installs a provenance ring whose prefix filter matches
    no probed prefix: ``wants()`` runs per selection but no event is
    ever built — the worst case a ``repro explain`` replay imposes on
    the rest of the run.  "Disabled" is the default no-capture state.
    """
    filtered = Capture(provenance=EventRing(
        prefix_filter=["203.0.113.0/24"]   # matches nothing probed
    ))
    filtered_times = []
    disabled_times = []
    with use_capture(filtered):
        _one_convergence(ecosystem)
    batch = batch_size(ecosystem)
    for _ in range(TRIALS):
        times = {True: [], False: []}
        for index in range(batch):
            for installed in ((True, False) if index % 2 else (False, True)):
                if installed:
                    with use_capture(filtered):
                        times[True].append(_one_convergence(ecosystem))
                else:
                    times[False].append(_one_convergence(ecosystem))
        filtered_times.append(statistics.median(times[True]))
        disabled_times.append(statistics.median(times[False]))
    return min(filtered_times), min(disabled_times)


def test_obs_overhead_under_budget():
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    enabled, disabled = measure(ecosystem)
    overhead = enabled / disabled - 1.0
    print(
        "\nobs overhead: enabled %.4fs  disabled %.4fs  overhead %+.2f%%"
        % (enabled, disabled, 100.0 * overhead)
    )
    assert enabled <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "instrumentation overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


def test_provenance_overhead_under_budget():
    ecosystem = build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )
    filtered, disabled = measure_provenance(ecosystem)
    overhead = filtered / disabled - 1.0
    print(
        "\nprovenance overhead: filtered %.4fs  disabled %.4fs  "
        "overhead %+.2f%%"
        % (filtered, disabled, 100.0 * overhead)
    )
    assert filtered <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "provenance overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


if __name__ == "__main__":
    test_obs_overhead_under_budget()
    test_provenance_overhead_under_budget()
    print("ok")
