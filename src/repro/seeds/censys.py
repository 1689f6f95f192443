"""Censys search-engine analogue.

The real service [8] indexes Internet-wide scans; the paper queried it
for responsive TCP and UDP services within each R&E prefix.  The
synthetic dataset exposes the same query surface: address/port/protocol
tuples per prefix, a mixture of currently-alive planned systems and
services that have since gone away.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from ..netutil import Prefix
from ..rng import SeedTree

_COMMON_TCP_PORTS = (22, 25, 53, 80, 110, 143, 443, 587, 993, 8080, 8443)
_COMMON_UDP_PORTS = (53, 123, 161, 443, 500)


class CensysService(NamedTuple):
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
            services: List[CensysService] = []
            used = set()
            # Stale addresses sit at offsets 1 .. num_addresses - 2.
            first = plan.prefix.network + 1
            span = plan.prefix.num_addresses - 2
            for system in plan.systems:
                if system.seed_source != "censys":
                    continue
                protocol = "tcp" if u() < 0.8 else "udp"
                ports = (_COMMON_TCP_PORTS if protocol == "tcp"
                         else _COMMON_UDP_PORTS)
                used.add(system.address)
                services.append(CensysService(
                    system.address, ports[int(u() * len(ports))], protocol
                ))
            for _ in range(1 + int(u() * 6)):
                address = first + int(u() * span)
                if address in used:
                    continue
                used.add(address)
                protocol = "tcp" if u() < 0.8 else "udp"
                ports = (_COMMON_TCP_PORTS if protocol == "tcp"
                         else _COMMON_UDP_PORTS)
                services.append(CensysService(
                    address, ports[int(u() * len(ports))], protocol
                ))
            if services:
                dataset._services[plan.prefix] = services
        return dataset
