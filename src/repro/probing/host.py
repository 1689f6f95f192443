"""The multi-homed measurement host (Figure 2).

The real host sat in Atlanta with a loopback address inside the
measurement prefix and one VLAN interface per upstream: Internet2's
R&E VRF, Internet2's commodity (blend) VRF, and — during the May
experiment — a tunnel delivering SURF's R&E traffic.  scamper recorded
the arrival interface of each response via the IP_PKTINFO ancillary
message.

Here an interface is identified by the announcement tag whose origin
terminates the return walk: a response whose walk ends at the R&E
origin arrives on the R&E VLAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from ..errors import ExperimentError
from ..netutil import Prefix, parse_address
from ..obs.provenance import KIND_BITS
from ..topology.graph import Topology
from .forwarding import Catchment, ForwardingOutcome, LiveCatchment

#: The loopback source address used in probes (§3.1).
DEFAULT_SOURCE = parse_address("163.253.63.63")

#: Outcome codes of a verdict (and of the prober's outcome column); 0
#: is a probe that never reached the data plane.
OUTCOMES = (
    None,
    ForwardingOutcome.DELIVERED,
    ForwardingOutcome.NO_ROUTE,
    ForwardingOutcome.LOOP,
)
OUTCOME_CODE = {outcome: code for code, outcome in enumerate(OUTCOMES)}
DELIVERED = OUTCOME_CODE[ForwardingOutcome.DELIVERED]

#: Origin sentinel of a walk that delivered nowhere.
NO_ORIGIN = -1

#: ``(outcome code, kind bit, origin, hops)``: what one AS's return
#: walk comes to, as the prober and the what-if predictor read it.
Verdict = Tuple[int, int, int, int]


@dataclass(frozen=True)
class VLANInterface:
    """One host VLAN interface."""

    name: str
    kind: str          # "re" or "commodity"
    description: str


class MeasurementHost:
    """Maps terminating announcement origins to arrival interfaces."""

    def __init__(
        self,
        measurement_prefix: Prefix,
        source_address: int = DEFAULT_SOURCE,
    ) -> None:
        if not measurement_prefix.contains_address(source_address):
            raise ExperimentError(
                "source address outside the measurement prefix"
            )
        self.measurement_prefix = measurement_prefix
        self.source_address = source_address
        self._interfaces: Dict[int, VLANInterface] = {}

    def attach(self, origin_asn: int, interface: VLANInterface) -> None:
        """Bind an announcement origin to a host interface."""
        if interface.kind not in KIND_BITS:
            raise ExperimentError(
                "interface kind must be one of %s, not %r"
                % ("/".join(KIND_BITS), interface.kind)
            )
        if origin_asn in self._interfaces:
            raise ExperimentError(
                "origin AS %d already attached" % origin_asn
            )
        self._interfaces[origin_asn] = interface

    def interfaces(self) -> List[VLANInterface]:
        return list(self._interfaces.values())

    def origin_asns(self) -> List[int]:
        return sorted(self._interfaces)

    def interface_for_origin(self, origin_asn: int) -> VLANInterface:
        try:
            return self._interfaces[origin_asn]
        except KeyError:
            raise ExperimentError(
                "no interface attached for origin AS %d" % origin_asn
            ) from None

    def live_catchment(
        self, topology: Topology, best_route_of: Callable[[int], object]
    ) -> LiveCatchment:
        """Every AS's return walk toward this host's origins, kept
        current.

        ``best_route_of(asn)`` is an AS's best route for the
        measurement prefix in a live RIB; it is read once, into a
        :class:`~repro.probing.forwarding.RibSnapshot`, and resolved.
        After each routing change,
        :meth:`~repro.probing.forwarding.LiveCatchment.patch` with the
        change's changed ASes brings it up to date.
        """
        return LiveCatchment(
            topology, best_route_of, self.measurement_prefix,
            self.origin_asns(),
        )

    def verdicts(
        self, catchment: Catchment, asns: Iterable[int]
    ) -> Dict[int, Verdict]:
        """Each of *asns*' :data:`Verdict` over *catchment*.

        *asns* may be every AS a round or prediction reads, or only
        those a :meth:`~repro.probing.forwarding.LiveCatchment.patch`
        re-resolved, to refresh those entries of an existing table.
        The kind bit is the :data:`~repro.obs.provenance.KIND_BITS` bit
        of the interface the walk arrives on, and 0 when it ends at an
        origin with no interface: the reader of that verdict raises
        (:meth:`interface_for_origin`), so one stray delivery fails
        only the probes and predictions that depend on it.
        """
        kind_of = {
            origin: KIND_BITS[interface.kind]
            for origin, interface in self._interfaces.items()
        }
        lookup = catchment.lookup
        table = {}
        for asn in asns:
            outcome, origin, hops = lookup(asn)
            table[asn] = (
                OUTCOME_CODE[outcome],
                kind_of.get(origin, 0),
                NO_ORIGIN if origin is None else origin,
                hops,
            )
        return table

    @classmethod
    def for_experiment(
        cls,
        measurement_prefix: Prefix,
        re_origin: int,
        commodity_origin: int,
        experiment: str,
    ) -> "MeasurementHost":
        """Build the Figure 2 host for one experiment."""
        host = cls(measurement_prefix)
        if experiment == "surf":
            re_iface = VLANInterface(
                "ens3f1np1.1001", "re", "SURF R&E tunnel"
            )
        else:
            re_iface = VLANInterface(
                "ens3f1np1.17", "re", "Internet2 R&E VRF"
            )
        host.attach(re_origin, re_iface)
        host.attach(
            commodity_origin,
            VLANInterface("ens3f1np1.18", "commodity",
                          "Internet2 blend (commodity) VRF"),
        )
        return host
