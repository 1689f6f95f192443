"""Experiment orchestration (§3.3).

- :mod:`repro.experiment.schedule` — the nine prepend configurations
  and their timing (one hour between changes, §3.3's RFD rationale);
- :mod:`repro.experiment.runner` — runs one experiment end to end:
  announcements, convergence, outage injection, probing rounds, feeder
  view capture;
- :mod:`repro.experiment.scheduler` — runs campaign cells, the one
  parallel level, as :class:`Task` values on an inline or fork-pool
  backend (:class:`InlineBackend`, :class:`ForkPoolBackend`);
- :mod:`repro.experiment.records` — result containers;
- :mod:`repro.experiment.campaign` — sweep orchestration: grids of
  (seed × scenario × experiment) cells with cell-level process
  parallelism and digest-keyed resumable checkpoints;
- :mod:`repro.experiment.status` — campaign heartbeats
  (``status/<digest>.json``) and the :class:`CampaignStatus` read
  model behind ``repro status``.
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
from .scheduler import (
    ForkPoolBackend,
    InlineBackend,
    Scheduler,
    SchedulerError,
    Task,
    TaskResult,
)
from .campaign import (
    CampaignResult,
    CampaignRunner,
    CellOutcome,
    CellWork,
    plan_grid,
    run_experiment_pair,
)
from .status import CampaignStatus, CellHeartbeat, CellStatus

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignStatus",
    "CellHeartbeat",
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
    "ForkPoolBackend",
    "InlineBackend",
    "Scheduler",
    "SchedulerError",
    "Task",
    "TaskResult",
]
