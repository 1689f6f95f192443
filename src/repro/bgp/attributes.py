"""BGP route attributes.

Routes are lightweight immutable values: the propagation engines create
many of them, and immutability lets adj-RIB entries be shared freely
between routers without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import PolicyError
from ..netutil import Prefix


#: Most extra origin copies one announcement may carry: a prepended
#: origin path fills at most one AS_SEQUENCE segment, 255 ASNs
#: (RFC 4271 §4.3).
MAX_PREPENDS = 254


def check_prepends(prepends: int) -> int:
    """*prepends* if it is a valid extra-origin-copy count, else a
    :class:`~repro.errors.PolicyError`."""
    if prepends < 0:
        raise PolicyError("prepends must be non-negative")
    if prepends > MAX_PREPENDS:
        raise PolicyError(
            "%d prepends overflow one AS_SEQUENCE segment (at most %d)"
            % (prepends, MAX_PREPENDS)
        )
    return prepends


@dataclass(frozen=True)
class ASPath:
    """An AS path: a sequence of ASNs, origin last.

    Prepending repeats an ASN; ``length`` counts every element (the
    quantity BGP compares), while ``unique_ases`` collapses repeats.
    """

    asns: Tuple[int, ...]

    @classmethod
    def origin_path(cls, origin_asn: int, prepends: int = 0) -> "ASPath":
        """The path as announced by the origin, with *prepends* extra
        copies of the origin ASN (prepends=0 gives ``[origin]``, and
        at most :data:`MAX_PREPENDS`)."""
        return cls((origin_asn,) * (1 + check_prepends(prepends)))

    @property
    def length(self) -> int:
        return len(self.asns)

    @property
    def origin(self) -> int:
        if not self.asns:
            raise PolicyError("empty AS path has no origin")
        return self.asns[-1]

    @property
    def first_hop(self) -> int:
        """The most recently added (leftmost) ASN."""
        if not self.asns:
            raise PolicyError("empty AS path has no first hop")
        return self.asns[0]

    @property
    def unique_ases(self) -> Tuple[int, ...]:
        """ASNs with consecutive repeats collapsed, order preserved."""
        out = []
        for asn in self.asns:
            if not out or out[-1] != asn:
                out.append(asn)
        return tuple(out)

    def contains(self, asn: int) -> bool:
        """Loop check: is *asn* anywhere in the path?"""
        return asn in self.asns

    def prepended_by(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with *count* copies of *asn* at the front."""
        if count < 1:
            raise PolicyError("prepend count must be >= 1")
        return ASPath((asn,) * count + self.asns)

    def prepends_of_origin(self) -> int:
        """Number of *extra* origin copies at the tail (0 = no
        prepending by the origin)."""
        origin = self.origin
        count = 0
        for asn in reversed(self.asns):
            if asn != origin:
                break
            count += 1
        return count - 1

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self.asns)


@dataclass(frozen=True)
class Route:
    """A route to *prefix* as held by one AS.

    ``learned_from`` is the neighbor ASN the route was received from
    (``None`` for locally originated routes); it is also the data-plane
    next hop at the AS level.  ``localpref`` is the value the *holding*
    AS assigned on import.  ``installed_at`` is the simulation time the
    route entered the holder's RIB (the "route age" tie-break input;
    smaller = older).  ``tag`` carries the announcement label, e.g.
    ``"re"`` or ``"commodity"`` for the measurement prefix.
    """

    prefix: Prefix
    path: ASPath
    learned_from: Optional[int]
    localpref: int
    med: int = 0
    installed_at: float = 0.0
    tag: str = ""

    @property
    def origin_asn(self) -> int:
        return self.path.origin

    def aged(self, installed_at: float) -> "Route":
        """Copy of the route with a new install timestamp."""
        return Route(
            prefix=self.prefix,
            path=self.path,
            learned_from=self.learned_from,
            localpref=self.localpref,
            med=self.med,
            installed_at=installed_at,
            tag=self.tag,
        )

    def with_localpref(self, localpref: int) -> "Route":
        """Copy of the route with a different localpref."""
        if localpref < 0:
            raise PolicyError("negative localpref %d" % localpref)
        return Route(
            prefix=self.prefix,
            path=self.path,
            learned_from=self.learned_from,
            localpref=localpref,
            med=self.med,
            installed_at=self.installed_at,
            tag=self.tag,
        )

    def __str__(self) -> str:
        return "%s via %s lp=%d path=[%s]%s" % (
            self.prefix,
            self.learned_from if self.learned_from is not None else "local",
            self.localpref,
            self.path,
            (" tag=" + self.tag) if self.tag else "",
        )


@dataclass(frozen=True)
class Announcement:
    """An origin's announcement of a prefix.

    ``prepends`` maps neighbor ASN to the number of *extra* copies of
    the origin ASN exported to that neighbor; neighbors not listed get
    ``default_prepends``.  ``tag`` labels the announcement so analyses
    can tell which origin a propagated route descends from (R&E vs
    commodity measurement announcements).
    """

    prefix: Prefix
    origin_asn: int
    prepends: Dict[int, int] = field(default_factory=dict)
    default_prepends: int = 0
    tag: str = ""

    def prepends_toward(self, neighbor_asn: int) -> int:
        return self.prepends.get(neighbor_asn, self.default_prepends)

    def path_toward(self, neighbor_asn: int) -> ASPath:
        """The AS path as exported to *neighbor_asn*."""
        return ASPath.origin_path(
            self.origin_asn, self.prepends_toward(neighbor_asn)
        )
