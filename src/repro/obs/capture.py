"""The provenance ring and the one process-wide slot that holds it.

An :class:`EventRing` is a bounded buffer of decision-provenance
events (:mod:`repro.obs.provenance`: route selections, per-round
signals).  One process-wide slot holds the ring a run records into, or
``None`` (:func:`active_ring`, installed with :func:`use_ring`).  Hot
paths read the slot once per decision, round or run and skip every
other cost when it holds None.

Workers never write into their parent's ring.  A pooled campaign cell
records into a fresh ring with the parent's capacity and prefix
filter, returns its ``(events, dropped)`` with its results, and the
parent folds each pair in with :meth:`EventRing.extend` in cell order.
Cell order is the inline order, so merged event streams are
byte-identical to an inline run's at every ``--campaign-workers``
count (asserted in ``tests/test_differential.py``).
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "EventRing",
    "active_ring",
    "use_ring",
    "DEFAULT_CAPACITY",
]

#: Default ring capacity (events).  A full ``reproduce`` run at scale
#: 0.1 emits a few thousand round-capture selections and signal events
#: per experiment; engine-level selections during convergence can
#: exceed any fixed bound, which is exactly what the ring is for.
DEFAULT_CAPACITY = 65_536


class EventRing:
    """A bounded, thread-safe ring of plain-dict events.

    Parameters
    ----------
    capacity:
        Maximum retained events; the oldest are dropped first.  The
        drop count is retained (``dropped``) so exports can state what
        the ring shed.
    prefix_filter:
        Optional collection of prefixes (objects or strings).  When
        set, :meth:`wants` admits only those prefixes — ``repro
        explain`` uses this to keep a full nine-round evidence chain
        for one prefix without ring pressure from the rest of the run.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        prefix_filter: Optional[Iterable] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("event ring capacity must be >= 1")
        self.capacity = capacity
        self.prefix_filter: Optional[frozenset] = (
            frozenset(str(p) for p in prefix_filter)
            if prefix_filter is not None
            else None
        )
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()
        # Per-prefix-object filter verdicts: hot callers re-check the
        # same few Prefix values thousands of times per convergence
        # run, and stringifying on every call is the dominant cost of
        # a filtered ring.  Bounded by the distinct prefixes seen.
        self._wants_cache: Dict[object, bool] = {}

    # -- recording ----------------------------------------------------

    def wants(self, prefix) -> bool:
        """True if events for *prefix* pass the filter (cheap when no
        filter is set — the common, unfiltered case)."""
        if self.prefix_filter is None:
            return True
        verdict = self._wants_cache.get(prefix)
        if verdict is None:
            verdict = str(prefix) in self.prefix_filter
            self._wants_cache[prefix] = verdict
        return verdict

    def record(self, event: dict) -> None:
        """Append one event (callers check :meth:`wants` first when
        building the event is the expensive part)."""
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)

    def extend(self, events: Iterable[dict], dropped: int = 0) -> None:
        """Append *events* in order, verbatim (filtering already
        happened where they were built); *dropped* counts events the
        source ring already shed."""
        for event in events:
            self.record(event)
        with self._lock:
            self._dropped += dropped

    # -- queries ------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        prefix=None,
        source: Optional[str] = None,
    ) -> List[dict]:
        """Retained events, oldest first, optionally filtered."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.get("kind") == kind]
        if prefix is not None:
            prefix_text = str(prefix)
            out = [e for e in out if e.get("prefix") == prefix_text]
        if source is not None:
            out = [e for e in out if e.get("source") == source]
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0

    # -- export -------------------------------------------------------

    def export_jsonl(self, stream) -> int:
        """Write retained events to *stream* as one JSON object per
        line (sorted keys, so exports diff cleanly); returns the line
        count."""
        count = 0
        for event in self.events():
            stream.write(json.dumps(event, sort_keys=True))
            stream.write("\n")
            count += 1
        return count

    def export_jsonl_file(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as stream:
            return self.export_jsonl(stream)


# -- the process-wide slot (None = nothing recorded) ------------------

_active: Optional[EventRing] = None


def active_ring() -> Optional[EventRing]:
    """The process-wide provenance ring, or None when nothing is
    recorded.

    This is the hot-path check: call sites read the slot once per
    decision, round or run and skip all event construction when it is
    None.
    """
    return _active


@contextlib.contextmanager
def use_ring(ring: Optional[EventRing]) -> Iterator[Optional[EventRing]]:
    """Install *ring* (None: record nothing) for a ``with`` block; the
    previous ring is restored on exit::

        with use_ring(EventRing()) as ring:
            engine.run_to_fixpoint()
            assert ring.events(kind="selection")
    """
    global _active
    previous, _active = _active, ring
    try:
        yield ring
    finally:
        _active = previous
