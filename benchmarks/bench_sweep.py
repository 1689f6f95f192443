"""Campaign throughput: serial groups vs the campaign process pool.

Runs the same (2 seeds x surf/internet2) grid — two network groups —
into fresh campaign directories, once with
``pool_workers=1`` (groups one after another) and once with
``pool_workers=2`` (whole groups dispatched to a fork pool), and prints
the cells/minute comparison.

Groups are independent networks with their experiments, so there is no
Amdahl bottleneck in the parent: with >= 2 schedulable CPUs the pooled
campaign should approach 2x.  One campaign at the CI scale takes about
a second, so the pool's fixed cost and a busy second CPU can decide a
single sample; the benchmark runs :data:`PAIRS` serial/pooled pairs,
alternating which goes first, and gates on the median of the pairs'
speedups.  On 1-core hosts the pool can only time-slice and the
speedup assertion is skipped; the byte-identity of
``campaign_summary.json`` across pool sizes — the campaign identity
contract — is asserted on every pair, and so is that every pooled cell
ran on a fork worker (the ``campaign.cells_forked`` counter).

The grid runs at ``REPRO_BENCH_SWEEP_SCALE`` (default 0.1: four full
nine-round experiments per campaign keep the benchmark minutes-scale
even serially; the probing-stage benchmark already covers large-scale
behaviour).
"""

import os
import statistics

from conftest import BENCH_SEED, show

from repro.experiment.campaign import CampaignRunner, plan_grid
from repro.obs import MetricsRegistry, use_registry

#: Interleaved serial/pooled campaign pairs; the gate reads the median
#: of their speedups.
PAIRS = 3


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sweep_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SWEEP_SCALE", "0.1"))


def _campaign(specs, directory, pool_workers):
    """(result, summary bytes, cells run on a fork worker) of one fresh
    campaign run."""
    registry = MetricsRegistry()
    with use_registry(registry):
        result = CampaignRunner(
            specs, directory, pool_workers=pool_workers
        ).run()
    forked = registry.snapshot()["counters"].get("campaign.cells_forked", 0)
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        return result, fh.read(), forked


def test_sweep(tmp_path, bench_emit):
    cpus = _cpus()
    specs = plan_grid(
        [BENCH_SEED, BENCH_SEED + 1],
        scenarios=["baseline"],
        experiments=["surf", "internet2"],
        scale=sweep_scale(),
    )

    walls = {1: [], 2: []}
    speedups = []
    for pair in range(PAIRS):
        runs = {}
        for pool_workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
            directory = str(
                tmp_path / ("pair%d-pool%d" % (pair, pool_workers))
            )
            runs[pool_workers] = _campaign(specs, directory, pool_workers)
        (serial, serial_summary, _), (pooled, pooled_summary, forked) = (
            runs[1], runs[2]
        )
        assert forked == len(specs), (
            "pooled campaign ran %d of %d cells on a fork worker"
            % (forked, len(specs))
        )
        # The identity contract holds whatever the host looks like.
        assert serial.completed == pooled.completed == len(specs)
        assert serial_summary == pooled_summary, (
            "pooled campaign summary diverged from serial"
        )
        walls[1].append(serial.wall_seconds)
        walls[2].append(pooled.wall_seconds)
        speedups.append(serial.wall_seconds / pooled.wall_seconds)

    serial_seconds = statistics.median(walls[1])
    pooled_seconds = statistics.median(walls[2])
    speedup = statistics.median(speedups)
    rows = [
        ("available CPUs", "-", "%d" % cpus),
        ("grid", "-", "%d cells @ scale %s"
         % (len(specs), sweep_scale())),
        ("serial (pool=1)", "-", "%.2fs median of %d"
         % (serial_seconds, PAIRS)),
        ("pooled (pool=2)", "-", "%.2fs median of %d"
         % (pooled_seconds, PAIRS)),
        ("speedup", "-", "%.2fx median (%s)"
         % (speedup, ", ".join("%.2fx" % value for value in speedups))),
    ]
    show("Campaign sweep — serial vs pooled groups", rows)
    bench_emit.update(
        cpus=cpus,
        cells=len(specs),
        sweep_scale=sweep_scale(),
        serial_seconds=round(serial_seconds, 4),
        pooled_seconds=round(pooled_seconds, 4),
        serial_cells_per_minute=round(60.0 * len(specs) / serial_seconds, 2),
        pooled_cells_per_minute=round(60.0 * len(specs) / pooled_seconds, 2),
    )

    if cpus < 2:
        import pytest

        pytest.skip(
            "campaign speedup needs >= 2 schedulable CPUs (host has "
            "%d); the group pool can only time-slice here" % cpus
        )
    assert speedup >= 1.2, (
        "pooled campaign: median %.2fs vs serial %.2fs (%.2fx < 1.2x)"
        % (pooled_seconds, serial_seconds, speedup)
    )
