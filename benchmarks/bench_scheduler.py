"""Cell scheduler dispatch cost: a micro-benchmark of the raw
per-task cost of ``repro.experiment.scheduler`` on the inline backend.

Campaign cells are the only work the scheduler dispatches, and a cell
runs for seconds, so there is no threshold: absolute per-task cost is
host-dependent, but its trajectory across commits is what
``repro bench-diff`` watches.  The best of ``REPS`` runs is taken so a
single noisy neighbour on a shared CI runner does not move the
trajectory.
"""

import time

from conftest import show

from repro.experiment.scheduler import InlineBackend, Scheduler, Task

REPS = 3
MICRO_TASKS = 2000


def _noop(value):
    return value


def _best_of(reps, run):
    """Best-of-*reps* wall time; returns (result, seconds)."""
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def test_scheduler(bench_emit):
    tasks = [
        Task(key=index, fn=_noop, args=(index,))
        for index in range(MICRO_TASKS)
    ]

    def through_scheduler():
        scheduler = Scheduler(InlineBackend())
        try:
            return scheduler.run(tasks)
        finally:
            scheduler.shutdown()

    def direct():
        return [task.fn(*task.args) for task in tasks]

    results, scheduled = _best_of(REPS, through_scheduler)
    _, bare = _best_of(REPS, direct)
    per_task = max(0.0, scheduled - bare) / MICRO_TASKS

    show("Scheduler dispatch cost", [
        ("micro: per-task dispatch cost", "-",
         "%.2fus" % (per_task * 1e6)),
    ])
    bench_emit.update(per_task_dispatch_us=round(per_task * 1e6, 3))

    # Dispatch never changes values or their order.
    assert [result.value for result in results] == list(range(MICRO_TASKS))
