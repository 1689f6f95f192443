"""The interleaved-batch harness behind the observability overhead
guard (``bench_obs_overhead.py``).

Each guard compares convergence wall time with some instrumentation
switched on (the *treated* variant) against a baseline.  One
convergence takes a few milliseconds, and on a shared host its time
swings by far more than 5% from run to run, so each trial is a batch
of convergences lasting at least :data:`MIN_TRIAL_SECONDS` per
variant.  Within a trial the variants alternate convergence by
convergence, and which one goes first alternates too, so both batches
see the same host conditions.  A trial's value for a variant is its
batch's median convergence time, which one stalled convergence cannot
move; a guard compares each variant's fastest trial.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from typing import Callable, ContextManager, Tuple

from repro import (
    PropagationEngine,
    REEcosystemConfig,
    SeedTree,
    build_ecosystem,
)

#: Alternating timed trials per variant; min-of-N rejects scheduler
#: noise, alternation rejects thermal / cache drift.
TRIALS = 7

#: Shortest total per variant in one trial: long enough that a 5%
#: difference stands above timer and scheduler noise.
MIN_TRIAL_SECONDS = 0.3

BENCH_SCALE = 0.1
BENCH_SEED = 42

#: A zero-argument callable returning the context one convergence of
#: a variant runs under (called afresh for every convergence).
Variant = Callable[[], ContextManager]


def guard_ecosystem():
    """The ecosystem every overhead guard converges on."""
    return build_ecosystem(
        REEcosystemConfig(scale=BENCH_SCALE), seed=BENCH_SEED
    )


def one_convergence(ecosystem) -> float:
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
    fastest = min(one_convergence(ecosystem) for _ in range(3))
    return max(1, math.ceil(MIN_TRIAL_SECONDS / fastest))


def compare(
    ecosystem,
    treated: Variant,
    baseline: Variant = contextlib.nullcontext,
) -> Tuple[float, float]:
    """(treated_best, baseline_best): each variant's fastest trial, as
    a batch-median convergence time in wall seconds.

    One untimed convergence under *treated* warms its code paths; the
    batch size is measured under *baseline*.
    """
    with treated():
        one_convergence(ecosystem)
    with baseline():
        batch = batch_size(ecosystem)
    treated_times = []
    baseline_times = []
    for _ in range(TRIALS):
        times = {True: [], False: []}
        for index in range(batch):
            for is_treated in (
                (True, False) if index % 2 else (False, True)
            ):
                with (treated if is_treated else baseline)():
                    times[is_treated].append(one_convergence(ecosystem))
        treated_times.append(statistics.median(times[True]))
        baseline_times.append(statistics.median(times[False]))
    return min(treated_times), min(baseline_times)
