"""Integer-based IPv4 address and prefix utilities.

The simulator handles tens of thousands of prefixes and hundreds of
thousands of probe targets, so addresses are plain ``int`` values and
prefixes are lightweight value objects rather than :mod:`ipaddress`
instances.  Helpers convert to and from dotted-quad notation only at I/O
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .errors import AddressError

_MAX_ADDR = (1 << 32) - 1


def parse_address(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> parse_address("192.0.2.1")
    3221225985
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError("expected dotted quad, got %r" % (text,))
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError("non-numeric octet in %r" % (text,))
        octet = int(part)
        if octet > 255:
            raise AddressError("octet out of range in %r" % (text,))
        value = (value << 8) | octet
    return value


def format_address(value: int) -> str:
    """Format an integer IPv4 address as a dotted quad.

    >>> format_address(3221225985)
    '192.0.2.1'
    """
    if not 0 <= value <= _MAX_ADDR:
        raise AddressError("address out of range: %r" % (value,))
    return "%d.%d.%d.%d" % (
        (value >> 24) & 0xFF,
        (value >> 16) & 0xFF,
        (value >> 8) & 0xFF,
        value & 0xFF,
    )


def _mask(length: int) -> int:
    if not 0 <= length <= 32:
        raise AddressError("prefix length out of range: %r" % (length,))
    if length == 0:
        return 0
    return (_MAX_ADDR << (32 - length)) & _MAX_ADDR


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix: network address (int) plus mask length.

    Instances are immutable, hashable, and totally ordered (by network
    address then length), so they can key dictionaries and sort stably.
    The hash, ``hash((network, length))``, is computed once: prefixes
    key the RIBs every BGP message looks up.
    """

    __slots__ = ("network", "length", "_hash")

    network: int
    length: int

    def __post_init__(self) -> None:
        mask = _mask(self.length)
        if self.network & ~mask & _MAX_ADDR:
            raise AddressError(
                "host bits set in %s/%d"
                % (format_address(self.network), self.length)
            )
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Slots and a frozen __setattr__: rebuild through __init__.
        return (Prefix, (self.network, self.length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse CIDR notation, e.g. ``"192.0.2.0/24"``."""
        if "/" not in text:
            raise AddressError("expected CIDR notation, got %r" % (text,))
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressError("non-numeric prefix length in %r" % (text,))
        return cls(parse_address(addr_text), int(len_text))

    def __str__(self) -> str:
        return "%s/%d" % (format_address(self.network), self.length)

    @property
    def mask(self) -> int:
        return _mask(self.length)

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def first_address(self) -> int:
        return self.network

    @property
    def last_address(self) -> int:
        return self.network | (~self.mask & _MAX_ADDR)

    def contains_address(self, address: int) -> bool:
        """Return True if *address* falls inside this prefix."""
        return (address & self.mask) == self.network

    def covers(self, other: "Prefix") -> bool:
        """Return True if this prefix covers *other* (equal or less
        specific)."""
        return (
            self.length <= other.length
            and (other.network & self.mask) == self.network
        )

    def properly_covers(self, other: "Prefix") -> bool:
        """Return True if this prefix covers *other* and is strictly less
        specific."""
        return self.length < other.length and self.covers(other)

    def address_at(self, offset: int) -> int:
        """Return the address *offset* positions into the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                "offset %d outside %s" % (offset, self)
            )
        return self.network + offset

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield the subprefixes of the given (more specific) length."""
        if length < self.length:
            raise AddressError(
                "cannot split %s into shorter /%d" % (self, length)
            )
        step = 1 << (32 - length)
        for network in range(self.network, self.last_address + 1, step):
            yield Prefix(network, length)


def exclude_covered(prefixes: Iterable[Prefix]) -> Tuple[List[Prefix], List[Prefix]]:
    """Split *prefixes* into (kept, excluded) where excluded prefixes are
    entirely covered by some other, less specific prefix in the input.

    The paper (§3.2) excludes 437 prefixes entirely covered by other
    prefixes before seeding.  Duplicates count as covered (one survivor is
    kept).
    """
    ordered = sorted(set(prefixes), key=lambda p: (p.network, p.length))
    kept: List[Prefix] = []
    excluded: List[Prefix] = []
    seen = set()
    for prefix in sorted(prefixes, key=lambda p: (p.network, p.length)):
        if prefix in seen:
            excluded.append(prefix)
            continue
        seen.add(prefix)
        covered = False
        # Candidates that could cover this prefix are earlier in sorted
        # order; scan kept prefixes from the end while they could still
        # overlap.
        for other in reversed(kept):
            if other.last_address < prefix.network:
                break
            if other.properly_covers(prefix):
                covered = True
                break
        if covered:
            excluded.append(prefix)
        else:
            kept.append(prefix)
    return kept, excluded


def find_covering(prefixes: Iterable[Prefix], address: int) -> Optional[Prefix]:
    """Return the most specific prefix in *prefixes* containing *address*,
    or None (longest-prefix match over an arbitrary iterable)."""
    best: Optional[Prefix] = None
    for prefix in prefixes:
        if prefix.contains_address(address):
            if best is None or prefix.length > best.length:
                best = prefix
    return best
