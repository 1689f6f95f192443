"""Active probing substrate (§3.1).

- :mod:`repro.probing.host` — the multi-homed measurement host with its
  VLAN interfaces (Figure 2);
- :mod:`repro.probing.forwarding` — the data plane that carries a
  response hop-by-hop along each AS's *own* best route back to the
  measurement prefix (the return-path signal the method measures),
  resolved once per converged RIB into a per-AS catchment;
- :mod:`repro.probing.prober` — a scamper-like prober: paced probe
  rounds, per-probe loss, and IP_PKTINFO-style arrival-interface
  recording.
"""

from .host import MeasurementHost, VLANInterface
from .forwarding import (
    Catchment,
    ForwardingOutcome,
    ReturnPath,
    RibSnapshot,
)
from .prober import (
    ProbeResponse,
    Prober,
    RoundResult,
    prefix_stream_rng,
    probe_one,
    response_from_row,
    response_row,
)
from .traceroute import TracerouteResult, paths_are_symmetric, traceroute

__all__ = [
    "MeasurementHost",
    "VLANInterface",
    "Catchment",
    "ForwardingOutcome",
    "ReturnPath",
    "RibSnapshot",
    "ProbeResponse",
    "Prober",
    "RoundResult",
    "prefix_stream_rng",
    "probe_one",
    "response_from_row",
    "response_row",
    "TracerouteResult",
    "traceroute",
    "paths_are_symmetric",
]
