"""ISI IPv4 Response History analogue.

The real dataset [34] summarises two decades of ISI censuses, ranking
every address that ever responded by how likely it is to respond today
[9].  The synthetic version contains, for each ISI-covered prefix, the
currently-alive planned systems (high scores, recently seen) plus stale
addresses that once responded but no longer do — probing must discover
which is which, exactly as the paper's pipeline did.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..netutil import Prefix
from ..rng import SeedTree


class ISIEntry(NamedTuple):
    """One ranked address in the history dataset."""

    address: int
    score: int            # 0..99, higher = more likely responsive now
    last_seen_days: int   # days since the address last answered a census

    @property
    def stale(self) -> bool:
        """The paper notes some covered addresses were last responsive
        more than a year before the experiments."""
        return self.last_seen_days > 365


class ISIHistoryDataset:
    """Score-ranked historical responder addresses per prefix."""

    def __init__(self) -> None:
        self._entries: Dict[Prefix, List[ISIEntry]] = {}

    def add(self, prefix: Prefix, entry: ISIEntry) -> None:
        self._entries.setdefault(prefix, []).append(entry)

    def finalize(self) -> None:
        """Sort every prefix's entries by descending score (the order
        the paper probed them in)."""
        for entries in self._entries.values():
            entries.sort(key=lambda e: (-e.score, e.address))

    def covers(self, prefix: Prefix) -> bool:
        return prefix in self._entries

    def entries_for(self, prefix: Prefix, limit: Optional[int] = None) -> List[ISIEntry]:
        entries = self._entries.get(prefix, [])
        if limit is None:
            return list(entries)
        return entries[:limit]

    def covered_prefixes(self) -> List[Prefix]:
        return sorted(self._entries, key=lambda p: (p.network, p.length))

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def synthesize(cls, ecosystem, seed_tree: SeedTree) -> "ISIHistoryDataset":
        """Build the dataset from an ecosystem's ground-truth plans.

        Alive ICMP-seeded systems appear with high scores; each covered
        prefix also carries 2..8 stale addresses (score-ranked below the
        live ones most of the time, but not always — discovery has to
        probe).
        """
        # Integers are drawn as a scaled random(): a + int(u() * n) is
        # uniform on a..a+n-1, at a fraction of randint's cost.
        u = seed_tree.child("isi").rng().random
        dataset = cls()
        for plan in ecosystem.studied_prefixes():
            if not plan.isi_covered:
                continue
            entries: List[ISIEntry] = []
            used = set()
            # Stale addresses sit at offsets 1 .. num_addresses - 2.
            first = plan.prefix.network + 1
            span = plan.prefix.num_addresses - 2
            for system in plan.systems:
                if system.seed_source != "isi":
                    continue
                used.add(system.address)
                entries.append(ISIEntry(
                    system.address, 55 + int(u() * 45), 1 + int(u() * 120)
                ))
            for _ in range(2 + int(u() * 7)):
                address = first + int(u() * span)
                if address in used:
                    continue
                used.add(address)
                entries.append(ISIEntry(
                    address, int(u() * 71), 90 + int(u() * 1911)
                ))
            if entries:
                dataset._entries[plan.prefix] = entries
        dataset.finalize()
        return dataset
