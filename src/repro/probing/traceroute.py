"""AS-level traceroute emulation.

Prior route-preference studies (Anwar et al. [1]) relied on traceroute
from vantage points; the paper's method instead observes return paths.
This module provides the forward-path view for comparison: the AS-level
route a probe takes *toward* a destination, so examples and tests can
demonstrate forward/return asymmetry — the reason the return-path
method is needed at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..bgp.attributes import Announcement
from ..bgp.fastpath import propagate_fastpath
from ..netutil import Prefix
from ..topology.graph import Topology
from .forwarding import ForwardingOutcome, RibSnapshot


@dataclass
class TracerouteResult:
    """An AS-level forward path."""

    source_asn: int
    destination_prefix: Prefix
    hops: List[int]
    outcome: ForwardingOutcome

    @property
    def reached(self) -> bool:
        return self.outcome is ForwardingOutcome.DELIVERED

    def render(self) -> str:
        marks = " -> ".join("AS%d" % asn for asn in self.hops)
        return "%s (%s)" % (marks, self.outcome.value)


def traceroute(
    topology: Topology,
    source_asn: int,
    destination_prefix: Prefix,
    destination_origin: Optional[int] = None,
) -> TracerouteResult:
    """Compute the forward AS path from *source_asn* toward
    *destination_prefix*.

    Propagates the destination's announcement (from its registered
    origin unless *destination_origin* is given), then walks hop by hop
    along each AS's best route — the same data-plane semantics as the
    return path, pointed the other way.
    """
    origin = (
        destination_origin
        if destination_origin is not None
        else topology.origin_of(destination_prefix)
    )
    state = propagate_fastpath(
        topology,
        [Announcement(prefix=destination_prefix, origin_asn=origin)],
    )
    path = RibSnapshot.capture(
        topology, state.route_at, destination_prefix,
    ).walk(source_asn, {origin})
    return TracerouteResult(
        source_asn=source_asn,
        destination_prefix=destination_prefix,
        hops=path.hops,
        outcome=path.outcome,
    )


def paths_are_symmetric(
    topology: Topology,
    asn_a: int,
    prefix_a: Prefix,
    asn_b: int,
    prefix_b: Prefix,
) -> Optional[bool]:
    """Do A->B and B->A traverse the same ASes (in reverse)?

    Returns None when either direction is unreachable.  Routing-policy
    asymmetry — the norm, not the exception — is why inferring *return*
    paths requires the paper's method rather than forward traceroute.
    """
    forward = traceroute(topology, asn_a, prefix_b)
    reverse = traceroute(topology, asn_b, prefix_a)
    if not (forward.reached and reverse.reached):
        return None
    return forward.hops == list(reversed(reverse.hops))
