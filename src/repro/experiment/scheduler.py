"""repro.experiment.scheduler — run campaign cells on one of two
backends.

Campaign cells are the one parallel level: a probing round is a
catchment lookup per probe, far too cheap to ship to another process,
while a cell is a whole nine-configuration experiment.  Work is a list
of :class:`Task`\\ s executed by a backend — :class:`InlineBackend` in
this process, :class:`ForkPoolBackend` in a ``fork`` process pool —
and :class:`Scheduler` resolves the results strictly in task order, so
a client merging them in that order reproduces inline execution byte
for byte.

A task that raises — including a pool worker that dies outright
(``BrokenProcessPool``) — is captured on its :class:`TaskResult` and
never retried: campaign cells are checkpointed, so re-running the
campaign recomputes only the failures.

Backend contract
----------------
``name``
    ``"inline"`` or ``"fork"``; stamped on :class:`TaskResult`\\ s and
    campaign heartbeats.
``context``
    A picklable object shipped to every executing process once (the
    pool initializer, not per task).  Task functions read it back via
    :func:`task_context`.
``start() / submit(fn, *args) -> Future / shutdown(wait)``
    The inline backend resolves the future before returning; the fork
    pool hands back a pending one.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import ExperimentError

__all__ = [
    "ForkPoolBackend",
    "InlineBackend",
    "Scheduler",
    "SchedulerError",
    "Task",
    "TaskResult",
    "fork_available",
    "in_worker_process",
    "task_backend_name",
    "task_context",
]


class SchedulerError(ExperimentError):
    """A backend could not execute."""


# ---------------------------------------------------------------------
# Per-process execution state


_CONTEXT: Any = None
_BACKEND_NAME: Optional[str] = None
_IN_WORKER = False


def task_context() -> Any:
    """The executing backend's ``context`` object (None outside a
    task and outside pool workers)."""
    return _CONTEXT


def task_backend_name() -> Optional[str]:
    """Name of the backend executing the current task, or None when
    called outside any backend."""
    return _BACKEND_NAME


def in_worker_process() -> bool:
    """True in processes forked by a :class:`ForkPoolBackend`."""
    return _IN_WORKER


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _init_fork_worker(context: Any, name: str) -> None:
    global _CONTEXT, _BACKEND_NAME, _IN_WORKER
    _CONTEXT = context
    _BACKEND_NAME = name
    _IN_WORKER = True


# ---------------------------------------------------------------------
# Tasks and results


@dataclass(frozen=True)
class Task:
    """One unit of schedulable work: ``fn(*args)``, reading shared
    state only through :func:`task_context`."""

    key: Any
    fn: Callable
    args: Tuple = ()


@dataclass
class TaskResult:
    """What the scheduler hands back per task, in task order."""

    key: Any
    value: Any = None
    error: Optional[BaseException] = None
    backend: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------
# Backends


class InlineBackend:
    """Same-process backend: tasks run eagerly on ``submit`` with the
    backend context installed, through the code path pool workers
    use."""

    name = "inline"

    def __init__(self, context: Any = None) -> None:
        self.context = context

    def start(self) -> "InlineBackend":
        return self

    def submit(self, fn: Callable, *args: Any) -> Future:
        global _CONTEXT, _BACKEND_NAME
        saved = (_CONTEXT, _BACKEND_NAME)
        _CONTEXT = self.context
        _BACKEND_NAME = self.name
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # parity with pool futures
            future.set_exception(error)
        finally:
            _CONTEXT, _BACKEND_NAME = saved
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class ForkPoolBackend:
    """``fork``-based process pool; workers receive the context once
    via the pool initializer."""

    name = "fork"

    def __init__(self, context: Any = None, workers: int = 2) -> None:
        if workers < 1:
            raise SchedulerError("fork backend needs workers >= 1")
        self.context = context
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> "ForkPoolBackend":
        if self._pool is not None:
            return self
        if not fork_available():
            raise SchedulerError(
                "fork start method unavailable on this platform"
            )
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_fork_worker,
            initargs=(self.context, self.name),
        )
        return self

    def submit(self, fn: Callable, *args: Any) -> Future:
        self.start()
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


# ---------------------------------------------------------------------
# The scheduler


class Scheduler:
    """Submit tasks to a backend and resolve them in task order."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Optional[Callable[[Task, TaskResult], None]] = None,
    ) -> List[TaskResult]:
        """Execute *tasks*; results come back in task order.  When
        given, *on_result* fires per task as its result is resolved
        (still in task order), so clients can merge incrementally."""
        tasks = list(tasks)
        self.backend.start()
        futures = [self.backend.submit(task.fn, *task.args) for task in tasks]
        results: List[TaskResult] = []
        for task, future in zip(tasks, futures):
            try:
                result = TaskResult(
                    key=task.key, value=future.result(),
                    backend=self.backend.name,
                )
            except Exception as error:
                result = TaskResult(
                    key=task.key, error=error, backend=self.backend.name
                )
            results.append(result)
            if on_result is not None:
                on_result(task, result)
        return results

    def shutdown(self, wait: bool = True) -> None:
        self.backend.shutdown(wait=wait)
