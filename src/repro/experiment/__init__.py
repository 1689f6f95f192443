"""Experiment orchestration (§3.3).

- :mod:`repro.experiment.schedule` — the nine prepend configurations
  and their timing (one hour between changes, §3.3's RFD rationale);
- :mod:`repro.experiment.runner` — runs one experiment end to end:
  announcements, convergence, outage injection, probing rounds, feeder
  view capture;
- :mod:`repro.experiment.records` — result containers;
- :mod:`repro.experiment.campaign` — sweep orchestration: grids of
  (seed × scenario × experiment) cells run as network groups (one
  ecosystem and probe-seed plan per group) in a plain loop or on one
  fork pool — the one parallel level — with digest-keyed resumable
  checkpoints, and the :class:`CampaignStatus` fold of ``grid.json``
  and those checkpoints behind ``repro status``.
"""

from .schedule import (
    PREPEND_SEQUENCE,
    ExperimentSchedule,
    format_prepend_config,
    parse_prepend_config,
)
from .records import (
    ExperimentResult,
    FeederObservation,
)
from .runner import ExperimentRunner
from .campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignStatus,
    CellOutcome,
    CellStatus,
    CellWork,
    plan_grid,
    run_experiment_pair,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignStatus",
    "CellStatus",
    "CellOutcome",
    "CellWork",
    "plan_grid",
    "run_experiment_pair",
    "PREPEND_SEQUENCE",
    "ExperimentSchedule",
    "format_prepend_config",
    "parse_prepend_config",
    "ExperimentResult",
    "FeederObservation",
    "ExperimentRunner",
]
