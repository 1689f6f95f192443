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

What a round probes is compiled once per experiment into a
:class:`ProbePlan`; a round is a tight loop over it that writes flat
columns (:class:`RoundResult`).  Each attached AS's return walk is
read from the round's catchment once, and each prefix's round signal
is accumulated as a kind bitmask (:data:`~repro.obs.provenance.KIND_BITS`)
while the round runs.  :class:`ProbeResponse` objects exist only as
views built on demand (:meth:`RoundResult.responses_of`).
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, Mapping, Optional,
)

from ..errors import ExperimentError
from ..netutil import Prefix
from ..obs import get_logger, get_registry, span
from ..obs.capture import active_ring
from ..obs.provenance import KIND_BITS, SIGNAL_LABELS, signal_event
from ..rng import SeedTree, derive_seed
from ..topology.re_config import SystemPlan
from ..seeds.selection import ProbeTarget
from .forwarding import Catchment, ForwardingOutcome
from .host import DELIVERED, NO_ORIGIN, OUTCOMES, MeasurementHost

DEFAULT_PPS = 100

#: Label template of a prefix's probe stream under the round's seed
#: node; part of the determinism contract.
PREFIX_STREAM_LABEL = "prefix-%s"

#: Kind column code -> interface kind (0: no response).
_KIND_LABEL = {bit: kind for kind, bit in KIND_BITS.items()}

#: RTT column sentinel for a probe that got no response.
_NO_RTT = -1.0

_log = get_logger("repro.prober")


def prefix_stream_rng(round_seed: int, prefix: Prefix) -> random.Random:
    """The probe RNG for *prefix* within the round seeded *round_seed*
    (a round reseeds one generator to the same state; see
    :meth:`ProbePlan.stream_seeds`)."""
    return random.Random(
        derive_seed(round_seed, PREFIX_STREAM_LABEL % prefix)
    )


@dataclass
class ProbeResponse:
    """One probe and its (possible) response: a view of one row of a
    :class:`RoundResult`."""

    target: ProbeTarget
    tx_time: float
    responded: bool
    interface_kind: Optional[str] = None   # "re" / "commodity"
    origin_asn: Optional[int] = None
    rtt_ms: Optional[float] = None
    outcome: Optional[ForwardingOutcome] = None
    hops: int = 0


class ProbePlan:
    """What every round of one experiment probes, compiled once.

    Prefixes are sorted; probe *j* is the *j*-th target in that order,
    and prefix *p* owns probes ``offsets[p]:offsets[p + 1]``.
    ``systems[j]`` is a reference to the probed address's
    :class:`SystemPlan` (None for an unknown address): a round reads
    its ``alive`` and ``loss_probability`` when it runs.
    """

    def __init__(
        self,
        targets_by_prefix: Mapping[Prefix, List[ProbeTarget]],
        systems_by_address: Mapping[int, SystemPlan],
    ) -> None:
        self.prefixes: List[Prefix] = sorted(
            targets_by_prefix, key=lambda p: (p.network, p.length)
        )
        self.index_of: Dict[Prefix, int] = {
            prefix: index for index, prefix in enumerate(self.prefixes)
        }
        self.labels: List[bytes] = [
            (PREFIX_STREAM_LABEL % prefix).encode()
            for prefix in self.prefixes
        ]
        self.targets: List[ProbeTarget] = []
        self.offsets: List[int] = [0]
        for prefix in self.prefixes:
            self.targets.extend(targets_by_prefix[prefix])
            self.offsets.append(len(self.targets))
        self.systems: List[Optional[SystemPlan]] = [
            systems_by_address.get(target.address)
            for target in self.targets
        ]
        #: Every AS a planned system attaches to: whose verdicts a
        #: round reads.
        self.attached_asns: FrozenSet[int] = frozenset(
            system.attached_asn for system in self.systems
            if system is not None
        )

    def stream_seeds(self, round_seed: int) -> List[int]:
        """Each prefix's stream seed under *round_seed*: one keyed
        hasher per round, copied per prefix — exactly
        ``derive_seed(round_seed, PREFIX_STREAM_LABEL % prefix)``."""
        keyed = hashlib.blake2b(
            digest_size=8, key=round_seed.to_bytes(8, "little")
        )
        seeds = []
        for label in self.labels:
            hasher = keyed.copy()
            hasher.update(label)
            seeds.append(int.from_bytes(hasher.digest(), "little"))
        return seeds


@dataclass(eq=False)
class RoundResult:
    """One active probing round (one prepend configuration), held as
    columns in probe order (see :class:`ProbePlan`).

    ``responded``, ``kind`` (a :data:`~repro.obs.provenance.KIND_BITS`
    bit) and ``outcome`` are bytes per probe; ``origin``, ``rtt`` and
    ``hops`` are arrays, ``origin``/``rtt`` holding a sentinel for a
    probe that got no response.  ``signal`` holds one code per prefix:
    the OR of its responses' kind bits
    (:data:`~repro.obs.provenance.SIGNAL_LABELS` names it).
    """

    config: str
    started_at: float
    plan: ProbePlan
    interval: float
    duration: float = 0.0
    responded: bytearray = field(init=False)
    kind: bytearray = field(init=False)
    outcome: bytearray = field(init=False)
    origin: array = field(init=False)
    rtt: array = field(init=False)
    hops: array = field(init=False)
    signal: bytearray = field(init=False)

    def __post_init__(self) -> None:
        probes = len(self.plan.targets)
        self.responded = bytearray(probes)
        self.kind = bytearray(probes)
        self.outcome = bytearray(probes)
        self.origin = array("q", [NO_ORIGIN]) * probes
        self.rtt = array("d", [_NO_RTT]) * probes
        self.hops = array("H", bytes(2 * probes))
        self.signal = bytearray(len(self.plan.prefixes))

    def signal_code(self, prefix: Prefix) -> int:
        """*prefix*'s signal code this round (0 if it was not probed)."""
        index = self.plan.index_of.get(prefix)
        return 0 if index is None else self.signal[index]

    def interfaces_seen(self, prefix: Prefix) -> List[str]:
        """Distinct interface kinds among this prefix's responses."""
        code = self.signal_code(prefix)
        return sorted(kind for kind, bit in KIND_BITS.items() if code & bit)

    def signal_summary(self, index: int) -> Dict[str, object]:
        """Prefix *index*'s signal-event fields, read from the columns
        (equal to
        :func:`~repro.obs.provenance.round_signal_summary` of its
        responses)."""
        start, stop = self.plan.offsets[index], self.plan.offsets[index + 1]
        responded = self.responded
        return {
            "signal": SIGNAL_LABELS[self.signal[index]],
            "probes": stop - start,
            "responses": responded.count(1, start, stop),
            "origins": sorted({
                self.origin[j] for j in range(start, stop) if responded[j]
            }),
        }

    def responses_of(self, prefix: Prefix) -> List[ProbeResponse]:
        """*prefix*'s probes this round as :class:`ProbeResponse` views,
        built on demand."""
        index = self.plan.index_of.get(prefix)
        if index is None:
            return []
        plan = self.plan
        views = []
        for j in range(plan.offsets[index], plan.offsets[index + 1]):
            tx = self.started_at + j * self.interval
            outcome = OUTCOMES[self.outcome[j]]
            if self.responded[j]:
                views.append(ProbeResponse(
                    target=plan.targets[j],
                    tx_time=tx,
                    responded=True,
                    interface_kind=_KIND_LABEL[self.kind[j]],
                    origin_asn=self.origin[j],
                    rtt_ms=self.rtt[j],
                    outcome=outcome,
                    hops=self.hops[j],
                ))
            else:
                views.append(ProbeResponse(
                    target=plan.targets[j],
                    tx_time=tx,
                    responded=False,
                    outcome=outcome,
                    hops=self.hops[j],
                ))
        return views

    def response_count(self) -> int:
        return self.responded.count(1)

    def probe_count(self) -> int:
        return len(self.responded)


class Prober:
    """Paced prober over the simulated data plane."""

    def __init__(
        self,
        host: MeasurementHost,
        pps: int = DEFAULT_PPS,
    ) -> None:
        if pps <= 0:
            raise ExperimentError("probe rate must be positive")
        self.host = host
        self.pps = pps

    def probe_round(
        self,
        config: str,
        plan: ProbePlan,
        catchment: Catchment,
        seed_tree: SeedTree,
        now: float,
        round_index: Optional[int] = None,
        lossy_prefixes: frozenset = frozenset(),
    ) -> RoundResult:
        """Probe every target of *plan* once, pacing at ``pps``.

        The round reads each attached AS's verdict once
        (:meth:`~repro.probing.host.MeasurementHost.verdicts`, the table
        the what-if predictor reads too) from *catchment*: in a run, the
        run's :class:`~repro.probing.forwarding.LiveCatchment`, patched
        since the previous round.
        *seed_tree* is the round's seed node; each prefix derives its
        own probe stream from it (see :func:`prefix_stream_rng`): a
        loss draw for each live, known system, then an RTT draw for
        each delivered response.
        *round_index* only labels provenance signal events; it never
        affects probing.  *lossy_prefixes* names prefixes blanked by a
        fault-plan probe-loss burst (:mod:`repro.faults`): their
        probes go unanswered without consuming any stream draws, so
        the fault stays surgical — every other prefix's responses are
        untouched.
        """
        interval = 1.0 / self.pps
        result = RoundResult(config, now, plan, interval)
        with span("prober.round"):
            host = self.host
            verdicts = host.verdicts(catchment, plan.attached_asns)
            responded = result.responded
            kind_col = result.kind
            outcome_col = result.outcome
            origin_col = result.origin
            rtt_col = result.rtt
            hops_col = result.hops
            signal = result.signal
            systems = plan.systems
            offsets = plan.offsets
            prefixes = plan.prefixes
            rng = random.Random()
            reseed, draw, uniform = rng.seed, rng.random, rng.uniform
            for index, stream_seed in enumerate(
                plan.stream_seeds(seed_tree.seed)
            ):
                if lossy_prefixes and prefixes[index] in lossy_prefixes:
                    continue
                reseed(stream_seed)
                code = 0
                for j in range(offsets[index], offsets[index + 1]):
                    system = systems[j]
                    if system is None or not system.alive:
                        continue
                    if draw() < system.loss_probability:
                        continue
                    outcome, kind, origin, hops = (
                        verdicts[system.attached_asn]
                    )
                    outcome_col[j] = outcome
                    hops_col[j] = hops
                    if outcome != DELIVERED:
                        continue
                    if not kind:
                        # Delivered to an origin with no interface.
                        host.interface_for_origin(origin)
                    responded[j] = 1
                    kind_col[j] = kind
                    origin_col[j] = origin
                    rtt_col[j] = 4.0 * hops + uniform(1.0, 25.0)
                    code |= kind
                signal[index] = code
        result.duration = len(plan.targets) * interval
        self._record_signals(result, round_index)
        self._flush_metrics(result)
        return result

    @staticmethod
    def _record_signals(
        result: RoundResult, round_index: Optional[int]
    ) -> None:
        """One provenance signal event per wanted prefix, in probe
        order."""
        recorder = active_ring()
        if recorder is None:
            return
        for index, prefix in enumerate(result.plan.prefixes):
            if recorder.wants(prefix):
                recorder.record(signal_event(
                    prefix, round_index, result.config,
                    **result.signal_summary(index),
                ))

    def _flush_metrics(self, result: RoundResult) -> None:
        """Publish one round's counters in a single batch."""
        probes = result.probe_count()
        responses = result.response_count()
        registry = get_registry()
        registry.counter("prober.rounds").inc()
        registry.counter("prober.probes_sent").inc(probes)
        registry.counter("prober.responses").inc(responses)
        if _log.is_enabled_for("debug"):
            _log.debug(
                "probe round complete",
                config=result.config,
                probes=probes,
                responses=responses,
                loss=round(1.0 - responses / probes, 4) if probes else 0.0,
                sim_duration=round(result.duration, 3),
            )
