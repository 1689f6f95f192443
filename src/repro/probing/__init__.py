"""Active probing substrate (§3.1).

- :mod:`repro.probing.host` — the multi-homed measurement host with its
  VLAN interfaces (Figure 2);
- :mod:`repro.probing.forwarding` — the data plane that carries a
  response hop-by-hop along each AS's *own* best route back to the
  measurement prefix (the return-path signal the method measures),
  resolved into a per-AS catchment once per engine and patched after
  each routing change;
- :mod:`repro.probing.prober` — a scamper-like prober: paced probe
  rounds over a compiled plan, per-probe loss, and IP_PKTINFO-style
  arrival-interface recording, held as columns.
"""

from .host import MeasurementHost, VLANInterface
from .forwarding import (
    Catchment, ForwardingOutcome, LiveCatchment, RibSnapshot,
)
from .prober import (
    ProbePlan,
    ProbeResponse,
    Prober,
    RoundResult,
)

__all__ = [
    "MeasurementHost",
    "VLANInterface",
    "Catchment",
    "ForwardingOutcome",
    "LiveCatchment",
    "RibSnapshot",
    "ProbePlan",
    "ProbeResponse",
    "Prober",
    "RoundResult",
]
