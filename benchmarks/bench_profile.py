"""Guard: the frontier ring stays under 5% overhead.

Frontier analytics are opt-in, but "opt-in" only stays honest if
turning them on is affordable and leaving them off is free:

- **enabled** — a :class:`~repro.obs.capture.Capture` holding a
  frontier :class:`~repro.obs.capture.EventRing` (per-delivery
  windowed accounting in the engine hot loop);
- **disabled** — the default: one ``active_capture()`` ``None`` check
  per run.

The enabled run must stay within ``OVERHEAD_BUDGET`` of the disabled
one, timed with the interleaved-batch harness of
``overhead_harness.py``.  The emitted ``BENCH_profile.json`` rides the
bench-diff gate, so a hot-loop regression fails CI twice: here and in
the trajectory.

Run directly (``python benchmarks/bench_profile.py``) or via pytest
(``PYTHONPATH=src python -m pytest benchmarks/bench_profile.py``).
"""

from __future__ import annotations

from repro.obs.capture import Capture, EventRing, use_capture

from overhead_harness import compare, guard_ecosystem

#: Allowed frontier overhead, as a fraction of baseline.
OVERHEAD_BUDGET = 0.05


def measure(ecosystem):
    """(enabled_best, disabled_best, events): each variant's fastest
    trial (see :func:`overhead_harness.compare`) and the frontier
    events one enabled convergence records.

    "Enabled" runs each convergence under a fresh frontier ring;
    "disabled" is the default no-capture state.
    """
    last = {}

    def enabled():
        last["capture"] = Capture(frontier=EventRing())
        return use_capture(last["capture"])

    enabled_best, disabled_best = compare(ecosystem, enabled)
    return enabled_best, disabled_best, len(last["capture"].frontier)


def test_profile(bench_emit=None):
    enabled, disabled, events = measure(guard_ecosystem())
    overhead = enabled / disabled - 1.0
    print(
        "\nfrontier overhead: enabled %.4fs  disabled %.4fs  "
        "overhead %+.2f%%  (%d frontier events)"
        % (enabled, disabled, 100.0 * overhead, events)
    )
    if bench_emit is not None:
        bench_emit["overhead_pct"] = round(100.0 * overhead, 2)
        bench_emit["frontier_events"] = events
    assert events > 0, "enabled run recorded no frontier events"
    assert enabled <= disabled * (1.0 + OVERHEAD_BUDGET), (
        "frontier overhead %.1f%% exceeds %.0f%% budget"
        % (100.0 * overhead, 100.0 * OVERHEAD_BUDGET)
    )


if __name__ == "__main__":
    test_profile()
    print("ok")
