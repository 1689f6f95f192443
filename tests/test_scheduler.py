"""Unit tests for the cell scheduler: in-order resolution, the inline
and fork-pool backends, and failed tasks captured rather than retried.
End-to-end identity of pooled campaign cells lives in
``test_differential.py`` (``TestSchedulerDifferential``)."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ExperimentError
from repro.experiment.scheduler import (
    ForkPoolBackend,
    InlineBackend,
    Scheduler,
    SchedulerError,
    Task,
    fork_available,
    in_worker_process,
    task_context,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


# Top-level task functions: fork workers must be able to pickle them.

def _identity(value):
    return value


def _context_and_worker():
    return task_context(), in_worker_process()


def _pid():
    return os.getpid()


def _die():
    os._exit(1)


class _FailNTimes:
    """Raise for the first *n* calls, then succeed."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n:
            raise ValueError("call %d scripted to fail" % self.calls)
        return "recovered"


class TestInlineBackend:
    def test_submit_runs_eagerly_and_restores_state(self):
        context = {"cells": ()}
        backend = InlineBackend(context)
        seen = []
        future = backend.submit(
            lambda value: seen.append(task_context()) or value, 42
        )
        assert future.result() == 42
        assert seen[0] is context
        assert task_context() is None

    def test_submit_captures_exceptions(self):
        backend = InlineBackend()

        def boom():
            raise ValueError("cell failed")

        future = backend.submit(boom)
        with pytest.raises(ValueError, match="cell failed"):
            future.result()


class TestSchedulerExecution:
    def test_results_and_callbacks_in_task_order(self):
        order = []
        scheduler = Scheduler(InlineBackend())
        tasks = [
            Task(key=index, fn=_identity, args=(index * 10,))
            for index in range(5)
        ]
        results = scheduler.run(
            tasks, on_result=lambda task, result: order.append(task.key)
        )
        assert [r.key for r in results] == list(range(5))
        assert [r.value for r in results] == [0, 10, 20, 30, 40]
        assert order == list(range(5))

    def test_inline_tasks_see_context_and_backend_name(self):
        context = {"grid": "state"}
        scheduler = Scheduler(InlineBackend(context))
        [result] = scheduler.run([Task(key=0, fn=_context_and_worker)])
        assert result.value == (context, False)
        assert result.backend == "inline"
        assert task_context() is None

    def test_task_error_is_captured_not_retried(self):
        scheduler = Scheduler(InlineBackend())
        failing = _FailNTimes(1)
        results = scheduler.run([
            Task(key=0, fn=failing),
            Task(key=1, fn=_identity, args=("next",)),
        ])
        assert isinstance(results[0].error, ValueError)
        assert not results[0].ok
        assert failing.calls == 1
        # The failure does not stop the tasks after it.
        assert results[1].ok and results[1].value == "next"

    def test_scheduler_error_is_an_experiment_error(self):
        assert issubclass(SchedulerError, ExperimentError)

    @needs_fork
    def test_fork_backend_ships_context_and_runs_out_of_process(self):
        scheduler = Scheduler(ForkPoolBackend(context=("ctx", 7), workers=2))
        try:
            results = scheduler.run([
                Task(key="ctx", fn=_context_and_worker),
                Task(key="pid", fn=_pid),
            ])
        finally:
            scheduler.shutdown()
        assert results[0].value == (("ctx", 7), True)
        assert results[0].backend == "fork"
        assert results[1].value != os.getpid()

    @needs_fork
    def test_dead_fork_worker_is_a_captured_failure(self):
        """A worker that dies outright breaks the pool; the scheduler
        reports every unfinished task as failed instead of retrying."""
        scheduler = Scheduler(ForkPoolBackend(workers=1))
        try:
            [result] = scheduler.run([Task(key="dies", fn=_die)])
        finally:
            scheduler.shutdown()
        assert isinstance(result.error, BrokenProcessPool)
