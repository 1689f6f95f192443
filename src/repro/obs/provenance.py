"""Decision provenance: the evidence chain behind every classification.

The reproduction's headline output (Table 1) is an *inference*: a
per-prefix category derived from which interface each probing round's
responses returned on.  This module records the chain of custody from
raw route selections to those categories as a stream of plain-dict
events:

- ``kind="selection"`` — one BGP decision-process run: the candidate
  routes that entered, the attribute values compared at each step, the
  survivors of each step, and the winning step.  Emitted by the
  event-driven engine (``source="engine"``), the bulk fastpath
  (``source="fastpath"``), and the experiment runner's per-round
  capture at each probed prefix's origin AS (``source="round"``).
- ``kind="signal"`` — one probing round's outcome for one prefix: the
  interface kinds seen and the derived round signal
  (re/commodity/both/none), i.e. exactly what
  :mod:`repro.core.classify` consumes.

Events are held in the active ring (:func:`~repro.obs.capture.use_ring`
installs a bounded :class:`~repro.obs.capture.EventRing`, so a
heavily-loaded process can leave provenance enabled without unbounded
growth); ``repro reproduce --provenance-out FILE.jsonl`` drains the
ring to JSON lines after the run.  Recording is **off by default**:
the hot paths pay one function call returning ``None`` per decision
(guarded, with the rest of the obs stack, by
``benchmarks/bench_obs_overhead.py``).

Determinism: events are plain dicts built from simulation state only
(no wall clocks, no object ids), and pooled cells' events fold back
in cell order — so the merged stream is byte-identical to an inline
run's at every ``--campaign-workers`` count (asserted in
``tests/test_differential.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = [
    "KIND_BITS",
    "SIGNAL_LABELS",
    "signal_from_kinds",
    "selection_event",
    "signal_event",
    "round_signal_summary",
]


def signal_from_kinds(kinds: Iterable[str]) -> str:
    """Map the set of interface kinds one round's responses arrived on
    to the round-signal label (the single implementation shared by
    :mod:`repro.core.classify` and the provenance stream)."""
    kinds = set(kinds)
    if not kinds:
        return "none"
    if len(kinds) > 1:
        return "both"
    return "re" if "re" in kinds else "commodity"


#: Interface kinds as signal-code bits.  A probing round holds each
#: prefix's signal as the OR of its responses' kind bits, so a code is
#: the set of kinds :func:`signal_from_kinds` maps.
KIND_BITS: Dict[str, int] = {"re": 1, "commodity": 2}

#: Signal code -> round-signal label, derived from
#: :func:`signal_from_kinds` so the two can never disagree.
SIGNAL_LABELS = tuple(
    signal_from_kinds(kind for kind, bit in KIND_BITS.items() if code & bit)
    for code in range(1 << len(KIND_BITS))
)


def _route_summary(route, index: int) -> dict:
    """Flatten one candidate route into JSON-safe provenance fields."""
    return {
        "index": index,
        "neighbor": route.learned_from,
        "localpref": route.localpref,
        "path_len": route.path.length,
        "path": list(route.path.asns),
        "med": route.med,
        "tag": route.tag,
    }


def selection_event(
    source: str,
    asn: int,
    prefix,
    candidates,
    steps: List[dict],
    winner_index: Optional[int],
    winning_step: Optional[str],
    time: Optional[float] = None,
    round_index: Optional[int] = None,
    config: Optional[str] = None,
    selection_prefix=None,
) -> dict:
    """Build one ``kind="selection"`` event.

    ``prefix`` keys the event (for round captures this is the *probed*
    prefix whose classification the selection justifies);
    ``selection_prefix``, when different, names the prefix the routes
    are actually for (the measurement prefix).
    """
    event = {
        "kind": "selection",
        "source": source,
        "asn": asn,
        "prefix": str(prefix),
        "candidates": [
            _route_summary(route, i) for i, route in enumerate(candidates)
        ],
        "steps": steps,
        "winner": winner_index,
        "winning_step": winning_step,
    }
    if selection_prefix is not None and selection_prefix != prefix:
        event["selection_prefix"] = str(selection_prefix)
    if time is not None:
        event["time"] = time
    if round_index is not None:
        event["round"] = round_index
    if config is not None:
        event["config"] = config
    return event


def signal_event(
    prefix,
    round_index: int,
    config: str,
    signal: str,
    probes: int,
    responses: int,
    origins: List[int],
) -> dict:
    """Build one ``kind="signal"`` event for one (prefix, round)."""
    return {
        "kind": "signal",
        "prefix": str(prefix),
        "round": round_index,
        "config": config,
        "signal": signal,
        "probes": probes,
        "responses": responses,
        "origins": origins,
    }


def round_signal_summary(responses) -> Dict[str, object]:
    """Aggregate one prefix's round responses into signal-event
    fields — the per-response reference that
    :meth:`~repro.probing.prober.RoundResult.signal_summary` computes
    from a round's columns."""
    kinds = set()
    origins = set()
    responded = 0
    for response in responses:
        if response.responded:
            responded += 1
            if response.interface_kind:
                kinds.add(response.interface_kind)
            if response.origin_asn is not None:
                origins.add(response.origin_asn)
    return {
        "signal": signal_from_kinds(kinds),
        "probes": len(responses),
        "responses": responded,
        "origins": sorted(origins),
    }
