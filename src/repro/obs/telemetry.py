"""Continuous telemetry: periodic registry sampling into a time series.

The PR 1 metrics registry is a point-in-time instrument: one snapshot
at the end of a run tells you *how much* happened, never *when*.  For
the long-running jobs this repo now hosts — multi-seed ``repro sweep``
campaigns, fault-injected reproductions — the interesting
questions are rates and progress: messages per second, rounds per
minute, whether anything is still moving at all.

:class:`TelemetrySampler` answers them without touching the identity
contract.  A background daemon thread samples the active
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed wall-clock
interval into

- a **bounded in-memory ring** (oldest samples drop first), so a
  long-lived process can always render a recent time series; and
- an optional **append-only JSONL file** (one sample per line,
  sorted keys), the ``--telemetry-out`` surface CI archives and
  Prometheus-style tooling ingests via
  :func:`repro.obs.export.to_openmetrics`.

Samples carry counters and gauges verbatim plus compact histogram
``{count, sum}`` pairs — enough to rate any instrument by differencing
two samples (:meth:`TelemetrySampler.counter_rate`).

Fork safety mirrors :func:`~repro.obs.spans.detached_trace`: the
sampler thread never survives into ``fork`` children (threads do not
cross ``fork``), and every sampling entry point is guarded by the
owning PID, so a campaign-cell worker that inherits the
sampler object can neither sample nor write to the parent's JSONL
stream.  Telemetry output is therefore strictly per-process and
strictly outside the byte-identity surfaces (report text,
classifications, provenance JSONL, campaign summaries).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import IO, Deque, List, Optional

from .metrics import MetricsRegistry, get_registry

__all__ = [
    "TelemetrySampler",
    "build_sample",
    "validate_sample",
    "TELEMETRY_SCHEMA_VERSION",
    "DEFAULT_INTERVAL_SECONDS",
    "DEFAULT_RING_CAPACITY",
]

#: Bumped when the sample layout changes; consumers should check it.
TELEMETRY_SCHEMA_VERSION = 1

#: Default wall-clock seconds between samples.
DEFAULT_INTERVAL_SECONDS = 1.0

#: Default in-memory ring capacity (samples retained).
DEFAULT_RING_CAPACITY = 512

#: Keys every telemetry sample carries.
_SAMPLE_KEYS = (
    "schema", "seq", "ts", "elapsed", "pid",
    "counters", "gauges", "histograms",
)


def build_sample(
    registry: MetricsRegistry,
    seq: int,
    elapsed: float,
    now: Optional[float] = None,
) -> dict:
    """One JSON-safe telemetry sample of *registry*.

    Counters and gauges ride verbatim; histograms are compacted to
    ``{count, sum}`` (bucket vectors belong in the final snapshot, not
    in every tick of a time series).
    """
    snapshot = registry.snapshot()
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "seq": seq,
        "ts": round(time.time() if now is None else now, 6),
        "elapsed": round(elapsed, 6),
        "pid": os.getpid(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            name: {"count": data["count"], "sum": data["sum"]}
            for name, data in snapshot["histograms"].items()
        },
    }


def validate_sample(sample: dict) -> dict:
    """Check one parsed telemetry sample's shape; returns it.

    Raises ``ValueError`` on schema mismatch or missing keys — the
    guard tests (and downstream readers) use this instead of
    hand-rolled key checks.
    """
    if not isinstance(sample, dict):
        raise ValueError("telemetry sample must be an object")
    missing = [key for key in _SAMPLE_KEYS if key not in sample]
    if missing:
        raise ValueError(
            "telemetry sample missing %s" % ", ".join(missing)
        )
    if sample["schema"] != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            "telemetry schema %r not supported (this build reads %d)"
            % (sample["schema"], TELEMETRY_SCHEMA_VERSION)
        )
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(sample[key], dict):
            raise ValueError("telemetry sample %r must be an object" % key)
    return sample


class TelemetrySampler:
    """Periodically sample a metrics registry into a time series.

    Parameters
    ----------
    registry:
        Registry to sample.  ``None`` (the default) resolves the
        process-wide singleton *at each sample*, so
        :func:`~repro.obs.metrics.use_registry` isolation works even
        around an already-running sampler.
    interval:
        Wall-clock seconds between samples (> 0).
    capacity:
        In-memory ring size in samples (>= 1); oldest samples drop
        first.  The JSONL file, if any, keeps everything.
    out_path:
        Append-only JSONL destination (one sample per line, sorted
        keys).  Opened lazily on the first sample, in append mode, so
        resumed campaigns extend one growing series.

    The sampler is also a context manager::

        with TelemetrySampler(interval=0.5, out_path="telemetry.jsonl"):
            runner.run()
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval: float = DEFAULT_INTERVAL_SECONDS,
        capacity: int = DEFAULT_RING_CAPACITY,
        out_path: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        if capacity < 1:
            raise ValueError("telemetry capacity must be >= 1")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.out_path = out_path
        self._registry = registry
        self._ring: Deque[dict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stream: Optional[IO[str]] = None
        self._pid = os.getpid()
        self._seq = 0
        self._written = 0
        self._started_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive *in this process*
        (a forked child never reports a parent's thread as its own)."""
        return (
            os.getpid() == self._pid
            and self._thread is not None
            and self._thread.is_alive()
        )

    def start(self) -> "TelemetrySampler":
        """Start the background sampling thread (idempotent)."""
        if os.getpid() != self._pid:
            # A fork child inherited this object; its thread belongs
            # to the parent.  Never sample from workers.
            return self
        if self.running:
            return self
        self._stop.clear()
        if self._started_at is None:
            self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> int:
        """Stop sampling; returns the number of JSONL lines written.

        With *final_sample* (the default) one last sample is taken
        after the thread joins, so even a run shorter than one
        interval leaves a terminal data point.
        """
        if os.getpid() != self._pid:
            return 0
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, 2 * self.interval))
            self._thread = None
        if final_sample:
            self.sample_now()
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None
            return self._written

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_now()

    # -- sampling -----------------------------------------------------

    def sample_now(self) -> Optional[dict]:
        """Take one sample immediately; returns it (or ``None`` in a
        forked child, where sampling is forbidden)."""
        if os.getpid() != self._pid:
            return None
        registry = (
            self._registry if self._registry is not None else get_registry()
        )
        with self._lock:
            if self._started_at is None:
                self._started_at = time.perf_counter()
            elapsed = time.perf_counter() - self._started_at
            sample = build_sample(registry, self._seq, elapsed)
            self._seq += 1
            self._ring.append(sample)
            self._write_line(sample)
        return sample

    def _write_line(self, sample: dict) -> None:
        if self.out_path is None:
            return
        if self._stream is None:
            self._stream = open(self.out_path, "a", encoding="utf-8")
        self._stream.write(json.dumps(sample, sort_keys=True))
        self._stream.write("\n")
        self._stream.flush()
        self._written += 1

    # -- reading the series -------------------------------------------

    def samples(self) -> List[dict]:
        """The retained ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def latest(self) -> Optional[dict]:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def counter_rate(self, name: str) -> Optional[float]:
        """Per-second rate of counter *name* across the retained ring
        (last minus first over their elapsed gap), or ``None`` with
        fewer than two samples or no time between them."""
        samples = self.samples()
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        gap = last["elapsed"] - first["elapsed"]
        if gap <= 0:
            return None
        delta = (
            last["counters"].get(name, 0.0)
            - first["counters"].get(name, 0.0)
        )
        return delta / gap
