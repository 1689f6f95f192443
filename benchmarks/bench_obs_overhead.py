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

Both guards time their variants with the interleaved-batch harness of
``overhead_harness.py``.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, use_registry
from repro.obs.capture import Capture, EventRing, use_capture

from overhead_harness import compare, guard_ecosystem

#: Allowed instrumentation overhead, as a fraction of baseline.
OVERHEAD_BUDGET = 0.05


def measure(ecosystem):
    """(enabled_best, disabled_best): each variant's fastest trial (see
    :func:`overhead_harness.compare`) under an enabled and a disabled
    metrics registry."""
    return compare(
        ecosystem,
        lambda: use_registry(MetricsRegistry(enabled=True)),
        lambda: use_registry(MetricsRegistry(enabled=False)),
    )


def measure_provenance(ecosystem):
    """(filtered_best, disabled_best): each variant's fastest trial.

    "Filtered" installs a provenance ring whose prefix filter matches
    no probed prefix: ``wants()`` runs per selection but no event is
    ever built — the worst case a ``repro explain`` replay imposes on
    the rest of the run.  "Disabled" is the default no-capture state.
    """
    filtered = Capture(provenance=EventRing(
        prefix_filter=["203.0.113.0/24"]   # matches nothing probed
    ))
    return compare(ecosystem, lambda: use_capture(filtered))


def test_obs_overhead_under_budget():
    enabled, disabled = measure(guard_ecosystem())
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
    filtered, disabled = measure_provenance(guard_ecosystem())
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
