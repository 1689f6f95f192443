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

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

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


def measure(ecosystem):
    """(enabled_best, disabled_best) wall seconds, interleaved."""
    enabled_times = []
    disabled_times = []
    # Warm-up, untimed: touch every code path once.
    with use_registry(MetricsRegistry()):
        _one_convergence(ecosystem)
    with use_registry(MetricsRegistry(enabled=False)):
        _one_convergence(ecosystem)
    for _ in range(TRIALS):
        with use_registry(MetricsRegistry()):
            enabled_times.append(_one_convergence(ecosystem))
        with use_registry(MetricsRegistry(enabled=False)):
            disabled_times.append(_one_convergence(ecosystem))
    return min(enabled_times), min(disabled_times)


def measure_provenance(ecosystem):
    """(filtered_best, disabled_best) wall seconds, interleaved.

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
    _one_convergence(ecosystem)
    for _ in range(TRIALS):
        with use_capture(filtered):
            filtered_times.append(_one_convergence(ecosystem))
        disabled_times.append(_one_convergence(ecosystem))
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
