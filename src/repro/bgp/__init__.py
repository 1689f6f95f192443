"""AS-level BGP simulator.

This package implements the routing substrate the paper's method runs on:

- :mod:`repro.bgp.attributes` — routes and AS paths (with prepending);
- :mod:`repro.bgp.decision` — the BGP decision process, including the
  path-length-insensitive and route-age variants analysed in Appendix A
  (the one route-selection implementation the engine and fastpath use);
- :mod:`repro.bgp.policy` — localpref profiles, Gao-Rexford + R&E-fabric
  export rules, and per-neighbor prepend policies;
- :mod:`repro.bgp.router` — per-AS adj-RIB-in / loc-RIB state;
- :mod:`repro.bgp.engine` — event-driven propagation to fixpoint with
  update counting (drives Figure 3 churn and the measurement prefix);
- :mod:`repro.bgp.fastpath` — synchronous relaxation used for bulk
  collector/RIPE view computation (Table 4, Figure 5);
- :mod:`repro.bgp.rfd` — a route flap damping penalty model.
"""

from .attributes import ASPath, Route, Announcement
from .decision import DecisionProcess, Step
from .policy import RoutingPolicy, Rel, may_export
from .router import Router
from .engine import PropagationEngine, ConvergenceStats
from .fastpath import propagate_fastpath

__all__ = [
    "ASPath",
    "Route",
    "Announcement",
    "DecisionProcess",
    "Step",
    "RoutingPolicy",
    "Rel",
    "may_export",
    "Router",
    "PropagationEngine",
    "ConvergenceStats",
    "propagate_fastpath",
]
