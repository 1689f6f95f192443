"""repro.faults — deterministic fault injection for experiment runs.

Seed-driven fault plans (:class:`FaultPlan`) script probe-loss bursts
and ad-hoc link flaps; both change results *deterministically*.  See
:mod:`repro.faults.plan` for the full contract, and ``reproduce
--fault-plan`` for CLI use.
"""

from .plan import (
    DEFAULT_LOSS_FRACTION,
    FaultError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    parse_fault_spec,
)

__all__ = [
    "DEFAULT_LOSS_FRACTION",
    "FaultError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "parse_fault_spec",
]
