"""Deterministic hierarchical random number generation.

Every stochastic decision in the simulator flows from a single experiment
seed through a :class:`SeedTree`.  Each named child derives its seed from
the parent seed and the child's label, so adding a new consumer of
randomness never perturbs the streams of existing consumers.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a parent seed and a label.

    Uses BLAKE2b so the mapping is stable across Python versions and
    processes (unlike ``hash()``).
    """
    digest = hashlib.blake2b(
        label.encode("utf-8"),
        digest_size=8,
        key=parent_seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


class SeedTree:
    """A node in the deterministic seed hierarchy.

    >>> tree = SeedTree(42)
    >>> a = tree.child("topology").rng()
    >>> b = tree.child("topology").rng()
    >>> a.random() == b.random()
    True
    """

    __slots__ = ("seed", "label")

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed & ((1 << 64) - 1)
        self.label = label

    def child(self, label: str) -> "SeedTree":
        """Return the child node for *label* (pure function of inputs)."""
        return SeedTree(derive_seed(self.seed, label), label)

    def rng(self) -> random.Random:
        """Return a fresh ``random.Random`` seeded for this node."""
        return random.Random(self.seed)

    def __repr__(self) -> str:
        return "SeedTree(seed=%d, label=%r)" % (self.seed, self.label)


def poisson(rng: random.Random, lam: float) -> int:
    """Draw from Poisson(*lam*) by inverse-CDF inversion.

    Consumes exactly **one** uniform from *rng* regardless of the
    value drawn, so callers' downstream draws stay aligned across
    parameter changes (a multi-draw sampler would re-key every stream
    after it whenever the rate changed).

    Exact for the small rates this repo uses (background-flap counts
    per inter-round gap, typically « 10).  For very large *lam* (where
    ``exp(-lam)`` underflows, around 745) the walk is capped at
    ``lam + 10·sqrt(lam)`` and returns the cap — callers at that scale
    should use a normal approximation instead.
    """
    if lam < 0.0:
        raise ValueError("poisson rate must be >= 0")
    if lam == 0.0:
        return 0
    u = rng.random()
    probability = math.exp(-lam)
    cdf = probability
    k = 0
    cap = int(lam + 10.0 * math.sqrt(lam) + 16.0)
    while u > cdf and k < cap:
        k += 1
        probability *= lam / k
        cdf += probability
    return k


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one of *items* with the given relative *weights*."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point < cumulative:
            return item
    return items[-1]


def sample_heavy_tailed_count(rng: random.Random, mean: float, maximum: int) -> int:
    """Draw a positive integer with a heavy-tailed (geometric-ish)
    distribution whose mean approximates *mean*, capped at *maximum*.

    Used for per-AS prefix counts: most ASes originate one or a few
    prefixes while a few originate many, matching the 18K-prefixes /
    2.6K-ASes shape in the paper.
    """
    if mean < 1.0:
        raise ValueError("mean must be >= 1")
    if maximum < 1:
        raise ValueError("maximum must be >= 1")
    # Geometric on {1, 2, ...} has mean 1/p; occasionally square the draw
    # to fatten the tail while keeping the mean near the target.
    p = 1.0 / mean
    count = 1
    while rng.random() > p and count < maximum:
        count += 1
    if count < maximum and rng.random() < 0.03:
        count = min(maximum, count * 2 + rng.randrange(4))
    return count


def stable_shuffle(rng: random.Random, items: Iterable[T]) -> List[T]:
    """Return a shuffled list copy of *items* (input untouched)."""
    out = list(items)
    rng.shuffle(out)
    return out
