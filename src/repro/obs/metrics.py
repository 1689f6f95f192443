"""Zero-dependency metrics registry.

Three instrument kinds, mirroring the conventional trio:

- :class:`Counter` — monotonically increasing count (messages
  delivered, probes sent);
- :class:`Gauge` — last-written value (peak heap depth of the most
  recent convergence run, message-limit proximity);
- :class:`Histogram` — observations bucketed into *fixed* upper-bound
  buckets plus a running sum/count/min/max (convergence durations,
  span wall times).

Instruments live in a :class:`MetricsRegistry`.  Production code uses
the process-wide singleton (:func:`get_registry`); tests swap in an
isolated registry with :func:`use_registry` so assertions never see
another test's counts.  A registry built with ``enabled=False`` hands
out shared no-op instruments, which is how the overhead benchmark
measures an un-instrumented run without touching call sites.

Everything is thread-safe: registries guard their instrument tables
and each instrument guards its own state.  The hot paths in
:mod:`repro.bgp.engine` deliberately accumulate into plain locals and
flush once per convergence run, so instrument locks are not contended
per message.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram buckets for durations in seconds: sub-millisecond
#: through minutes, roughly logarithmic.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


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


class Gauge:
    """A gauge holding the last value written."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Observations in fixed upper-bound buckets.

    ``bounds`` are inclusive upper bounds in increasing order; one
    implicit overflow bucket (``+Inf``) catches the rest.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram %s needs at least one bucket" % name)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram %s buckets must increase" % name)
        self.name = name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def as_dict(self) -> dict:
        with self._lock:
            buckets = [
                [bound, count]
                for bound, count in zip(self.bounds, self._counts)
            ]
            buckets.append(["+Inf", self._counts[-1]])
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }

    def merge_dict(self, data: dict) -> None:
        """Fold another histogram's :meth:`as_dict` export into this
        one.  Bucket bounds must match (same instrument family)."""
        buckets = data.get("buckets", [])
        bounds = tuple(
            float(bound) for bound, _ in buckets if bound != "+Inf"
        )
        if bounds != self.bounds:
            raise ValueError(
                "histogram %s: cannot merge mismatched buckets %r"
                % (self.name, bounds)
            )
        with self._lock:
            for index, (_, count) in enumerate(buckets):
                self._counts[index] += int(count)
            self._sum += float(data.get("sum", 0.0))
            self._count += int(data.get("count", 0))
            for key, keep in (("min", min), ("max", max)):
                value = data.get(key)
                if value is None:
                    continue
                mine = self._min if key == "min" else self._max
                merged = value if mine is None else keep(mine, value)
                if key == "min":
                    self._min = merged
                else:
                    self._max = merged


class _NullInstrument:
    """Shared no-op standing in for every instrument of a disabled
    registry; accepts the full Counter/Gauge/Histogram surface."""

    __slots__ = ()
    name = ""
    bounds: Tuple[float, ...] = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "buckets": []}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Create-or-get instrument store with JSON export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- create-or-get ------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    # -- introspection / export ---------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters[name].value

    def gauge_value(self, name: str) -> float:
        return self._gauges[name].value

    def histogram_names(self) -> List[str]:
        with self._lock:
            return sorted(self._histograms)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the incoming value (last write wins,
        matching :meth:`Gauge.set` semantics), histograms merge bucket
        counts.  This is how pooled cell workers' registries are folded
        into the parent registry; the operation is associative, so
        cells can be merged in any order without changing the
        totals.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(
                float(bound)
                for bound, _ in data.get("buckets", [])
                if bound != "+Inf"
            )
            self.histogram(
                name, bounds or DEFAULT_TIME_BUCKETS
            ).merge_dict(data)

    def snapshot(self) -> dict:
        """A plain-dict (JSON-serialisable) view of every instrument."""
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
            gauges = {n: g.value for n, g in sorted(self._gauges.items())}
            histograms = {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    @classmethod
    def from_snapshot_json(cls, text: str) -> dict:
        """Parse a snapshot produced by :meth:`to_json` (round-trip
        helper for tests and downstream tooling)."""
        data = json.loads(text)
        for key in ("counters", "gauges", "histograms"):
            if key not in data:
                raise ValueError("not a metrics snapshot: missing %r" % key)
        return data


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
