"""Censys search-engine analogue.

The real service [8] indexes Internet-wide scans; the paper queried it
for responsive TCP and UDP services within each R&E prefix.  The
synthetic dataset exposes the same query surface: address/port/protocol
tuples per prefix, a mixture of currently-alive planned systems and
services that have since gone away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netutil import Prefix
from ..rng import SeedTree

_COMMON_TCP_PORTS = (22, 25, 53, 80, 110, 143, 443, 587, 993, 8080, 8443)
_COMMON_UDP_PORTS = (53, 123, 161, 443, 500)


@dataclass(frozen=True)
class CensysService:
    """One indexed service."""

    address: int
    port: int
    protocol: str  # "tcp" or "udp"


class CensysDataset:
    """Vetted-researcher view: responsive services per prefix."""

    def __init__(self) -> None:
        self._services: Dict[Prefix, List[CensysService]] = {}
        self.query_count = 0

    def add(self, prefix: Prefix, service: CensysService) -> None:
        self._services.setdefault(prefix, []).append(service)

    def covers(self, prefix: Prefix) -> bool:
        return prefix in self._services

    def query(self, prefix: Prefix) -> List[CensysService]:
        """API query for services inside *prefix* (the paper spent
        ~7 hours issuing these; we count them for the funnel bench)."""
        self.query_count += 1
        return list(self._services.get(prefix, ()))

    def covered_prefixes(self) -> List[Prefix]:
        return sorted(self._services, key=lambda p: (p.network, p.length))

    def __len__(self) -> int:
        return len(self._services)

    @classmethod
    def synthesize(cls, ecosystem, seed_tree: SeedTree) -> "CensysDataset":
        """Build the dataset from ground truth: alive Censys-seeded
        systems plus a few dead services per covered prefix."""
        # Integers and choices are drawn as a scaled random(), as in
        # ISIHistoryDataset.synthesize.
        u = seed_tree.child("censys").rng().random
        dataset = cls()
        for plan in ecosystem.studied_prefixes():
            if not plan.censys_covered:
                continue
            used = set()
            for system in plan.systems:
                if system.seed_source != "censys":
                    continue
                protocol = "tcp" if u() < 0.8 else "udp"
                ports = (_COMMON_TCP_PORTS if protocol == "tcp"
                         else _COMMON_UDP_PORTS)
                used.add(system.address)
                dataset.add(
                    plan.prefix,
                    CensysService(
                        address=system.address,
                        port=ports[int(u() * len(ports))],
                        protocol=protocol,
                    ),
                )
            for _ in range(1 + int(u() * 6)):
                offset = 1 + int(u() * (plan.prefix.num_addresses - 2))
                address = plan.prefix.address_at(offset)
                if address in used:
                    continue
                used.add(address)
                protocol = "tcp" if u() < 0.8 else "udp"
                ports = (_COMMON_TCP_PORTS if protocol == "tcp"
                         else _COMMON_UDP_PORTS)
                dataset.add(
                    plan.prefix,
                    CensysService(
                        address=address,
                        port=ports[int(u() * len(ports))],
                        protocol=protocol,
                    ),
                )
        return dataset
