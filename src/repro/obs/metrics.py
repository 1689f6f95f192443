"""Zero-dependency metrics registry.

One instrument kind, the :class:`Counter`: a monotonically increasing
count (messages delivered, probes sent, cells completed).  Every other
fact a run could report already has one record of its own — wall time
in the span trace (``--trace-out``), simulated durations and per-round
churn in the :class:`~repro.experiment.records.ExperimentResult`, the
campaign's grid in ``grid.json`` — so the registry copies none of them.

Counters live in a :class:`MetricsRegistry`.  Production code uses
the process-wide singleton (:func:`get_registry`); tests swap in an
isolated registry with :func:`use_registry` so assertions never see
another test's counts.  A registry built with ``enabled=False`` hands
out a shared no-op counter, which is how the overhead benchmark
measures an un-instrumented run without touching call sites.

Everything is thread-safe: registries guard their counter table and
each counter guards its own value.  The hot paths in
:mod:`repro.bgp.engine` deliberately accumulate into plain locals and
flush once per convergence run, so counter locks are not contended
per message.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional

__all__ = [
    "Counter",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _NullCounter:
    """Shared no-op standing in for every counter of a disabled
    registry."""

    __slots__ = ()
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


_NULL = _NullCounter()


class MetricsRegistry:
    """Create-or-get counter store with JSON export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def counter_value(self, name: str) -> float:
        return self._counters[name].value

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one:
        counters add.  This is how pooled cell workers' registries are
        folded into the parent registry; addition does not depend on
        order, so the merged totals equal an inline run's."""
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)

    def snapshot(self) -> dict:
        """A plain-dict (JSON-serialisable) view of every counter."""
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
        return {"counters": counters}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# -- process-wide singleton -------------------------------------------

_global_lock = threading.Lock()
_global_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _global_registry
    registry = _global_registry
    if registry is None:
        with _global_lock:
            registry = _global_registry
            if registry is None:
                registry = _global_registry = MetricsRegistry()
    return registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one.
    Passing None re-installs a fresh default registry."""
    global _global_registry
    with _global_lock:
        previous = _global_registry
        _global_registry = registry if registry is not None \
            else MetricsRegistry()
        if previous is None:
            previous = MetricsRegistry()
        return previous


class use_registry:
    """Context manager installing *registry* as the singleton for the
    duration of a ``with`` block — the isolation primitive for tests::

        with use_registry(MetricsRegistry()) as reg:
            engine.run_to_fixpoint()
            assert reg.counter_value("engine.runs") == 1
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        set_registry(self._previous)
