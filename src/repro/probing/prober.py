"""A scamper-like prober (§3.1).

Probes a round of targets at a fixed packet rate, records which VLAN
interface each response arrives on (IP_PKTINFO-style), and synthesises
RTTs from AS-path hop counts.  Loss has two sources: per-system
transient loss (flaky hosts) and forwarding failure (no return route).

Randomness is keyed *per prefix*: each probed prefix draws from its own
stream derived from the round's :class:`~repro.rng.SeedTree` node, so
one prefix's responses never depend on which other prefixes a round
probes or in what order.  Probe transmit times are computed from the
probe's global index (``now + index / pps``) rather than by
accumulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ExperimentError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_capture
from ..obs.provenance import round_signal_summary, signal_event
from ..rng import SeedTree, derive_seed
from ..topology.graph import Topology
from ..topology.re_config import SystemPlan
from ..seeds.selection import ProbeTarget
from .forwarding import ForwardingOutcome, Resolved
from .host import MeasurementHost

DEFAULT_PPS = 100

#: Label template of a prefix's probe stream under the round's seed
#: node; part of the determinism contract.
PREFIX_STREAM_LABEL = "prefix-%s"

_log = get_logger("repro.prober")


def prefix_stream_rng(round_seed: int, prefix: Prefix) -> random.Random:
    """The probe RNG for *prefix* within the round seeded *round_seed*."""
    return random.Random(
        derive_seed(round_seed, PREFIX_STREAM_LABEL % prefix)
    )


@dataclass
class ProbeResponse:
    """One probe and its (possible) response."""

    target: ProbeTarget
    tx_time: float
    responded: bool
    interface_kind: Optional[str] = None   # "re" / "commodity"
    origin_asn: Optional[int] = None
    rtt_ms: Optional[float] = None
    outcome: Optional[ForwardingOutcome] = None
    hops: int = 0


@dataclass
class RoundResult:
    """One active probing round (one prepend configuration)."""

    config: str
    started_at: float
    duration: float = 0.0
    responses: Dict[Prefix, List[ProbeResponse]] = field(default_factory=dict)

    def interfaces_seen(self, prefix: Prefix) -> List[str]:
        """Distinct interface kinds among this prefix's responses."""
        kinds = {
            response.interface_kind
            for response in self.responses.get(prefix, [])
            if response.responded and response.interface_kind
        }
        return sorted(kinds)

    def response_count(self) -> int:
        return sum(
            1
            for responses in self.responses.values()
            for response in responses
            if response.responded
        )

    def probe_count(self) -> int:
        return sum(len(r) for r in self.responses.values())


class Prober:
    """Paced prober over the simulated data plane."""

    def __init__(
        self,
        topology: Topology,
        host: MeasurementHost,
        systems_by_address: Dict[int, SystemPlan],
        pps: int = DEFAULT_PPS,
    ) -> None:
        if pps <= 0:
            raise ExperimentError("probe rate must be positive")
        self.topology = topology
        self.host = host
        self.systems_by_address = systems_by_address
        self.pps = pps

    def probe_round(
        self,
        config: str,
        targets_by_prefix: Dict[Prefix, List[ProbeTarget]],
        best_route_of: Callable[[int], object],
        seed_tree: SeedTree,
        now: float,
        round_index: Optional[int] = None,
        lossy_prefixes: frozenset = frozenset(),
    ) -> RoundResult:
        """Probe every target once, pacing at ``pps``.

        *best_route_of* maps an AS to its best route for the
        measurement prefix.  The round reads it once, into the host's
        catchment (:meth:`~repro.probing.host.MeasurementHost.catchment`),
        so every probe's return path is a lookup.
        *seed_tree* is the round's seed node; each prefix derives its
        own probe stream from it (see :func:`prefix_stream_rng`).
        *round_index* only labels provenance signal events; it never
        affects probing.  *lossy_prefixes* names prefixes blanked by a
        fault-plan probe-loss burst (:mod:`repro.faults`): their
        probes go unanswered without consuming any stream draws, so
        the fault stays surgical — every other prefix's responses are
        untouched.
        """
        result = RoundResult(config=config, started_at=now)
        host = self.host

        def interface_kind_of(origin_asn: int) -> str:
            return host.interface_for_origin(origin_asn).kind

        systems = self.systems_by_address
        interval = 1.0 / self.pps
        index = 0
        capture = active_capture()
        recorder = capture.provenance if capture is not None else None
        with span("prober.round"):
            lookup = host.catchment(self.topology, best_route_of).lookup
            for prefix in sorted(
                targets_by_prefix, key=lambda p: (p.network, p.length)
            ):
                rng = prefix_stream_rng(seed_tree.seed, prefix)
                blanked = prefix in lossy_prefixes
                for target in targets_by_prefix[prefix]:
                    response = probe_one(
                        systems.get(target.address), target, lookup,
                        interface_kind_of, rng, now + index * interval,
                        force_loss=blanked,
                    )
                    result.responses.setdefault(prefix, []).append(response)
                    index += 1
                if recorder is not None and recorder.wants(prefix):
                    recorder.record(signal_event(
                        prefix, round_index, config,
                        **round_signal_summary(
                            result.responses.get(prefix, [])
                        ),
                    ))
        result.duration = index * interval
        self._flush_metrics(result)
        return result

    def _flush_metrics(self, result: RoundResult) -> None:
        """Publish one round's counters in a single batch."""
        probes = result.probe_count()
        responses = result.response_count()
        registry = get_registry()
        registry.counter("prober.rounds").inc()
        registry.counter("prober.probes_sent").inc(probes)
        registry.counter("prober.responses").inc(responses)
        registry.histogram(
            "prober.round_sim_seconds",
        ).observe(result.duration)
        if _log.is_enabled_for("debug"):
            _log.debug(
                "probe round complete",
                config=result.config,
                probes=probes,
                responses=responses,
                loss=round(1.0 - responses / probes, 4) if probes else 0.0,
                sim_duration=round(result.duration, 3),
            )


def probe_one(
    system: Optional[SystemPlan],
    target: ProbeTarget,
    lookup: Callable[[int], Resolved],
    interface_kind_of: Callable[[int], str],
    rng: random.Random,
    tx: float,
    force_loss: bool = False,
) -> ProbeResponse:
    """Probe one target over an abstract data plane.

    *lookup* maps the probed system's attached ASN to its resolved
    return walk in the round's
    :class:`~repro.probing.forwarding.Catchment`, ``(outcome,
    origin_asn, hop count)``.

    *force_loss* drops the probe before any stream draw — the
    fault-plan loss-burst hook (:mod:`repro.faults`).  Consuming no
    randomness keeps the blanked prefix's stream aligned with the
    fault-free run, so a burst changes exactly the blanked responses
    and nothing else.
    """
    if force_loss:
        return ProbeResponse(target=target, tx_time=tx, responded=False)
    if system is None or not system.alive:
        return ProbeResponse(target=target, tx_time=tx, responded=False)
    if rng.random() < system.loss_probability:
        return ProbeResponse(target=target, tx_time=tx, responded=False)
    outcome, origin_asn, hop_count = lookup(system.attached_asn)
    if outcome is not ForwardingOutcome.DELIVERED:
        return ProbeResponse(
            target=target,
            tx_time=tx,
            responded=False,
            outcome=outcome,
            hops=hop_count,
        )
    rtt = 4.0 * hop_count + rng.uniform(1.0, 25.0)
    return ProbeResponse(
        target=target,
        tx_time=tx,
        responded=True,
        interface_kind=interface_kind_of(origin_asn),
        origin_asn=origin_asn,
        rtt_ms=rtt,
        outcome=outcome,
        hops=hop_count,
    )
