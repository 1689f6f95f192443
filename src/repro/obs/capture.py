"""One observability capture: provenance and frontier.

A :class:`Capture` bundles the two opt-in evidence channels a run can
record into:

- ``provenance`` — an :class:`EventRing` of decision-provenance events
  (:mod:`repro.obs.provenance`: route selections, per-round signals);
- ``frontier`` — an :class:`EventRing` of convergence-frontier events
  (:mod:`repro.obs.frontier`: windows, quiescence curves, per-round
  signal diffs).

Either channel may be ``None``.  One process-wide slot holds the
active capture (:func:`active_capture`, installed with
:func:`use_capture`).  Hot paths read the slot once per decision,
round or run and skip every other cost when the channel they feed is
absent.

Workers never write into their parent's capture.  A pooled campaign
cell runs under :meth:`Capture.child` (fresh, empty, same settings),
returns :meth:`Capture.shipped` with its results, and the parent folds
each payload in with :meth:`Capture.merge` in cell order.  Cell order
is the inline order, so merged event streams are byte-identical to an
inline run's at every ``--campaign-workers`` count (asserted in
``tests/test_differential.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Capture",
    "EventRing",
    "active_capture",
    "use_capture",
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

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (retained + dropped) — a deterministic
        monotonic id source for runs without their own counter."""
        with self._lock:
            return len(self._events) + self._dropped

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


@dataclasses.dataclass
class Capture:
    """The evidence channels one run records into (each optional)."""

    provenance: Optional[EventRing] = None
    frontier: Optional[EventRing] = None

    def over(self, base: Optional["Capture"]) -> Optional["Capture"]:
        """This capture's channels, with *base*'s filling the ones it
        lacks — how a run-local channel joins an already-active
        capture without hiding the rest of it.  An empty capture
        returns *base* itself, so a run that captures nothing keeps the
        disabled slot."""
        if self == Capture():
            return base
        if base is None:
            return self
        return Capture(
            self.provenance if self.provenance is not None
            else base.provenance,
            self.frontier if self.frontier is not None else base.frontier,
        )

    def child(self) -> "Capture":
        """A fresh, empty capture with this one's settings, for a
        cell worker."""
        def fresh(ring):
            if ring is None:
                return None
            return EventRing(ring.capacity, ring.prefix_filter)

        return Capture(fresh(self.provenance), fresh(self.frontier))

    def shipped(self) -> dict:
        """This capture's contents as one picklable payload for
        :meth:`merge` (keys only for the channels present)."""
        payload: dict = {}
        for name in ("provenance", "frontier"):
            ring = getattr(self, name)
            if ring is not None:
                payload[name] = {
                    "events": ring.events(), "dropped": ring.dropped,
                }
        return payload

    def merge(self, payload: Optional[dict]) -> dict:
        """Fold a :meth:`shipped` payload into the channels this
        capture holds and return the rest of the payload (the
        channels it does not hold).

        Events are appended verbatim and the worker ring's drop count
        is carried over, so merging payloads in task order leaves the
        ring exactly as a serial run would have.
        """
        rest: dict = {}
        for name, part in (payload or {}).items():
            mine = getattr(self, name)
            if mine is None:
                rest[name] = part
            else:
                mine.extend(part["events"], part["dropped"])
        return rest


# -- the process-wide slot (None = nothing captured) ------------------

_active: Optional[Capture] = None


def active_capture() -> Optional[Capture]:
    """The process-wide capture, or None when nothing is captured.

    This is the hot-path check: call sites read the slot once and skip
    all event construction when it (or the channel they feed) is None.
    """
    return _active


@contextlib.contextmanager
def use_capture(capture: Optional[Capture]) -> Iterator[Optional[Capture]]:
    """Install *capture* (None: capture nothing) for a ``with`` block;
    the previous capture is restored on exit::

        with use_capture(Capture(provenance=EventRing())) as capture:
            engine.run_to_fixpoint()
            assert capture.provenance.events(kind="selection")
    """
    global _active
    previous, _active = _active, capture
    try:
        yield capture
    finally:
        _active = previous
