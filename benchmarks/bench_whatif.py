"""What-if query latency: warm catchment lookups against cold
re-simulation.

The delta-convergence engine keeps a converged RIB warm, resolved into
a per-AS catchment, so a what-if query is a lookup per probed system,
not a fresh propagation to fixpoint.  This
benchmark pins the payoff: a warm ``predict`` must beat paying the
full cold warm-up per query by at least an order of magnitude (the
CI gate), and in practice does so by several.
"""

import time

from conftest import BENCH_SEED, show

from repro.api import ExperimentSpec, WhatIfSession

#: What-if sessions target interactive use, so the bench runs at a
#: fixed modest scale rather than the artefact-suite default.
WHATIF_SCALE = 0.1

#: Cold re-simulations averaged (each one is a full warm-up).
COLD_RUNS = 3


def test_whatif(bench_emit):
    spec = ExperimentSpec(seed=BENCH_SEED, scale=WHATIF_SCALE)

    started = time.perf_counter()
    session = WhatIfSession(spec)
    warm_up_seconds = time.perf_counter() - started

    prefixes = sorted(
        str(plan.prefix)
        for plan in session.ecosystem.studied_prefixes()
    )
    session.predict(prefixes[0])  # one query before the timed batch
    started = time.perf_counter()
    predictions = session.predict_batch(prefixes)
    warm_per_query = (time.perf_counter() - started) / len(prefixes)

    # The cold alternative: every query pays a fresh session build
    # (ecosystem + propagation to fixpoint) before it can answer.
    started = time.perf_counter()
    for _ in range(COLD_RUNS):
        cold = WhatIfSession(spec)
        cold.predict(prefixes[0])
    cold_per_query = (time.perf_counter() - started) / COLD_RUNS

    speedup = cold_per_query / warm_per_query
    show(
        "What-if queries — warm catchment vs cold re-simulation",
        [
            ("warm-up (once per session)", "n/a",
             "%.2fs" % warm_up_seconds),
            ("warm query", ">=10x cold",
             "%.1fus" % (warm_per_query * 1e6)),
            ("cold query", "baseline",
             "%.1fms" % (cold_per_query * 1e3)),
            ("speedup", ">=10x", "%.0fx" % speedup),
        ],
    )
    bench_emit["prefixes"] = len(predictions)
    bench_emit["warm_up_seconds"] = round(warm_up_seconds, 4)
    bench_emit["warm_query_us"] = round(warm_per_query * 1e6, 2)
    bench_emit["cold_query_ms"] = round(cold_per_query * 1e3, 2)
    bench_emit["speedup_x"] = round(speedup, 1)
    assert speedup >= 10.0, (
        "warm what-if queries must beat cold re-simulation by >=10x "
        "(got %.1fx)" % speedup
    )
