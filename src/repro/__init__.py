"""repro — reproduction of "R&E Routing Policy: Inference and Implication".

The package layers, bottom-up:

- :mod:`repro.netutil`, :mod:`repro.rng`, :mod:`repro.simtime` — utilities;
- :mod:`repro.bgp` — the AS-level BGP simulator (decision process,
  policies, event-driven engine, bulk fastpath, RFD);
- :mod:`repro.topology` — topologies, the paper-figure scenarios, and
  the synthetic R&E ecosystem generator;
- :mod:`repro.seeds` / :mod:`repro.probing` — the §3 measurement
  substrate (ISI/Censys analogues, scamper-like prober, return-path
  catchment);
- :mod:`repro.experiment` — the nine-configuration experiment runner;
- :mod:`repro.collectors` / :mod:`repro.geo` — public BGP views and
  geolocation;
- :mod:`repro.core` — the paper's contribution: inference and every
  table/figure analysis;
- :mod:`repro.dataio` — scamper-style JSON results.

Quickest start::

    from repro import reproduce_paper, REEcosystemConfig
    report = reproduce_paper(REEcosystemConfig(scale=0.1), seed=1)
    print(report.render())
"""

__version__ = "1.0.0"

from .netutil import Prefix, format_address, parse_address
from .obs import (
    MetricsRegistry,
    configure_logging,
    get_logger,
    get_registry,
    span,
    use_registry,
)
from .rng import SeedTree
from .bgp import (
    ASPath,
    Announcement,
    DecisionProcess,
    PropagationEngine,
    Rel,
    Route,
    RoutingPolicy,
    propagate_fastpath,
)
from .topology import (
    ASClass,
    REEcosystemConfig,
    Topology,
    build_columbia_scenario,
    build_ecosystem,
    build_ixp_scenario,
    build_niks_scenario,
)
from .seeds import select_seeds
from .experiment import (
    CampaignRunner,
    ExperimentRunner,
    plan_grid,
    run_experiment_pair,
)
from .api import (
    ExperimentSpec,
    run_campaign,
    run_experiment,
)
from .core import (
    InferenceCategory,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_figure5,
    build_figure8,
    classify_experiment,
)
from .core.report import PaperReproduction, reproduce_paper

__all__ = [
    "Prefix",
    "format_address",
    "parse_address",
    "SeedTree",
    "ASPath",
    "Announcement",
    "DecisionProcess",
    "PropagationEngine",
    "Rel",
    "Route",
    "RoutingPolicy",
    "propagate_fastpath",
    "ASClass",
    "REEcosystemConfig",
    "Topology",
    "build_columbia_scenario",
    "build_ecosystem",
    "build_ixp_scenario",
    "build_niks_scenario",
    "select_seeds",
    "ExperimentRunner",
    "ExperimentSpec",
    "run_experiment",
    "run_campaign",
    "run_experiment_pair",
    "CampaignRunner",
    "plan_grid",
    "InferenceCategory",
    "classify_experiment",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_figure5",
    "build_figure8",
    "PaperReproduction",
    "reproduce_paper",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
    "span",
    "get_logger",
    "configure_logging",
    "__version__",
]
