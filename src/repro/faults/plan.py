"""Deterministic, seed-driven fault planning.

A :class:`FaultPlan` scripts every fault a run will suffer *before*
the run starts, as a pure function of the experiment seed — the same
property the probe streams have (:mod:`repro.rng`).

The faults attack the simulated world, like the real maintenance
outage that collided with the paper's Internet2 run (§4): a burst of
probe loss (``PROBE_LOSS``) blanks a block of prefixes for one round,
and an ad-hoc link flap (``LINK_FLAP``) fails and restores a link
between rounds, beyond the scheduled outages.  They legitimately
*change results* — but deterministically: the same seed and spec
produce the same faults, in a standalone run or in a campaign cell.

Events address prefixes and links by *slot*, an abstract index mapped
onto the concrete prefix or link list at injection time
(``slot % count``), so one plan works at any scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence, Tuple

from ..errors import ReproError
from ..rng import derive_seed

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_spec",
    "DEFAULT_LOSS_FRACTION",
]

#: Fraction of a round's prefix set blanked by one probe-loss burst.
DEFAULT_LOSS_FRACTION = 0.2

#: Seed-tree label the plan generator derives its stream from.
FAULT_PLAN_LABEL = "fault-plan"


class FaultError(ReproError):
    """A fault plan or spec string was malformed."""


class FaultKind(Enum):
    """What a scripted fault does."""

    PROBE_LOSS = "probe_loss"       # blank a prefix block for a round
    LINK_FLAP = "link_flap"         # fail + restore a link between rounds

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``slot`` addresses the target abstractly: the first prefix of the
    loss block for ``PROBE_LOSS`` (``slot % len(prefixes)``), the link
    for ``LINK_FLAP`` (``slot % num_links`` into the sorted link list).
    ``fraction`` sizes a loss burst.
    """

    kind: FaultKind
    round_index: int
    slot: int = 0
    fraction: float = DEFAULT_LOSS_FRACTION

    def describe(self) -> str:
        return "%s@round%d/slot%d" % (self.kind, self.round_index, self.slot)


def parse_fault_spec(text: str) -> Dict[str, int]:
    """Parse a ``--fault-plan`` spec string into event counts.

    The grammar is ``name=count[,name=count...]`` with names ``loss``
    and ``flap`` — e.g. ``"loss=2,flap=1"`` scripts two probe-loss
    bursts and one link flap.  Counts must be non-negative integers.
    """
    counts = {"loss": 0, "flap": 0}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in counts:
            raise FaultError(
                "unknown fault kind %r in spec %r (expected loss/flap)"
                % (name, text)
            )
        try:
            count = int(value.strip())
        except ValueError:
            raise FaultError(
                "bad count %r for fault %r in spec %r"
                % (value.strip(), name, text)
            ) from None
        if count < 0:
            raise FaultError("negative count for fault %r" % name)
        counts[name] += count
    return counts


@dataclass(frozen=True)
class FaultPlan:
    """An immutable script of faults for one experiment run.

    Build one explicitly (tests), from a seed
    (:meth:`from_seed`), or from a CLI spec string (:meth:`from_spec`).
    An empty plan is falsy, so ``if self.fault_plan:`` guards every
    injection site at zero cost when faults are disabled.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- construction -------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        rounds: int = 9,
        probe_loss_bursts: int = 0,
        link_flaps: int = 0,
        loss_fraction: float = DEFAULT_LOSS_FRACTION,
    ) -> "FaultPlan":
        """Script the requested number of each fault kind, drawing
        rounds and slots deterministically from *seed*.

        The stream derives from ``derive_seed(seed, "fault-plan")``,
        a sibling of every other consumer under the experiment seed,
        so adding faults never perturbs probe or delay streams.
        """
        if rounds < 1:
            raise FaultError("rounds must be >= 1")
        rng = random.Random(derive_seed(seed, FAULT_PLAN_LABEL))
        events = []
        for kind, count in (
            (FaultKind.PROBE_LOSS, probe_loss_bursts),
            (FaultKind.LINK_FLAP, link_flaps),
        ):
            for _ in range(count):
                events.append(FaultEvent(
                    kind=kind,
                    round_index=rng.randrange(rounds),
                    slot=rng.randrange(1 << 16),
                    fraction=loss_fraction,
                ))
        return cls(events=tuple(events))

    @classmethod
    def from_spec(
        cls,
        spec: str,
        seed: int,
        rounds: int = 9,
        loss_fraction: float = DEFAULT_LOSS_FRACTION,
    ) -> "FaultPlan":
        """Build a plan from a CLI spec string (see
        :func:`parse_fault_spec`) and the experiment seed."""
        counts = parse_fault_spec(spec)
        return cls.from_seed(
            seed,
            rounds=rounds,
            probe_loss_bursts=counts["loss"],
            link_flaps=counts["flap"],
            loss_fraction=loss_fraction,
        )

    # -- queries ------------------------------------------------------

    def lossy_prefixes(
        self, round_index: int, prefixes: Sequence
    ) -> frozenset:
        """The prefixes blanked by this round's loss bursts (empty
        frozenset when none): each burst blanks a contiguous block of
        ``ceil(fraction * len(prefixes))`` prefixes starting at
        ``slot % len(prefixes)``, wrapping."""
        if not prefixes:
            return frozenset()
        lossy = set()
        total = len(prefixes)
        for event in self.events:
            if (
                event.kind is not FaultKind.PROBE_LOSS
                or event.round_index != round_index
            ):
                continue
            block = max(1, min(total, math.ceil(total * event.fraction)))
            start = event.slot % total
            for offset in range(block):
                lossy.add(prefixes[(start + offset) % total])
        return frozenset(lossy)

    def flaps_after(self, round_index: int) -> Tuple[FaultEvent, ...]:
        """The link flaps scripted to fire after *round_index*'s
        probing (alongside the scheduled outages)."""
        return tuple(
            event for event in self.events
            if event.kind is FaultKind.LINK_FLAP
            and event.round_index == round_index
        )

    def counts(self) -> Dict[str, int]:
        """Event count per fault kind (report / logging)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[str(event.kind)] = out.get(str(event.kind), 0) + 1
        return out
