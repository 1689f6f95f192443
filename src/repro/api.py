"""Stable Python API facade: :class:`ExperimentSpec`,
:class:`ExecutionPolicy`, :func:`run_experiment`, and
:func:`run_campaign` — the single canonical entry surface.

Before this module, running one experiment meant threading ~9 keyword
arguments through :class:`~repro.experiment.runner.ExperimentRunner` /
:class:`~repro.experiment.parallel.ShardedRunner` and keeping their
seeding conventions in your head.  The facade freezes all of that into
one immutable, serialisable value:

- :class:`ExperimentSpec` — everything that determines an experiment's
  result (seed, experiment, scenario/config overrides, schedule, pps)
  plus everything that determines how it executes (the nested
  :class:`ExecutionPolicy`: workers, shard size, timeouts, retry
  knobs, forced scheduler backend; plus fault plan and provenance
  options).  Specs round-trip through JSON
  (:meth:`ExperimentSpec.to_json` / :meth:`ExperimentSpec.from_json`)
  and have a stable content hash (:meth:`ExperimentSpec.digest`) that
  the campaign orchestrator uses as its checkpoint key.
- :func:`run_experiment` — ``spec -> ExperimentResult``.  Results are
  a pure function of the spec's *simulation* fields; the execution
  policy (``workers``, ``shard_size``, ``shard_timeout``, retry
  knobs, backend, execution faults) never changes them (the PR 2/PR 4
  identity contract).
- :func:`run_campaign` — ``grid -> CampaignResult``; the campaign
  orchestrator behind one call, with checkpoint resume and scheduler
  backend selection.

Both entry points execute on :mod:`repro.experiment.scheduler`
backends; the backend types (:class:`ExecutionBackend`,
:class:`InlineBackend`, :class:`ForkPoolBackend`, plus the
:class:`Task` / :class:`ResourceClaim` / :class:`RetryPolicy`
vocabulary) are re-exported here so downstream code never imports the
machinery module directly.

Seeding convention (shared with ``repro explain``): ``spec.seed`` is
the *base* seed — the ecosystem and the probe-seed plan derive from it
directly, while the run itself uses ``spec.run_seed`` (``seed`` for
surf, ``seed + 1`` for internet2, as the paper ran the experiments a
week apart with the same probe seeds).  Two specs differing only in
``experiment`` therefore form exactly the pair the paper compared in
Table 2.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .errors import ExperimentError
from .experiment.records import ExperimentResult
from .experiment.runner import ExperimentRunner
from .experiment.schedule import PREPEND_SEQUENCE, ExperimentSchedule
from .experiment.scheduler import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_MAX_RETRIES,
    ExecutionBackend,
    ForkPoolBackend,
    InlineBackend,
    ResourceClaim,
    RetryPolicy,
    Scheduler,
    SchedulerError,
    Task,
    TaskResult,
)
from .faults import FaultPlan, parse_fault_spec
from .obs.capture import (
    DEFAULT_CAPACITY,
    Capture,
    EventRing,
    active_capture,
    use_capture,
)
from .obs.profile import PhaseProfiler
from .rng import SeedTree
from .seeds.selection import SeedPlan, select_seeds
from .topology.re_config import (
    REEcosystemConfig,
    apply_config_overrides,
    scenario_overrides,
)
from .topology.re_ecosystem import Ecosystem, build_ecosystem

__all__ = [
    "ExecutionBackend",
    "ExecutionPolicy",
    "ExperimentSpec",
    "ForkPoolBackend",
    "InlineBackend",
    "Prediction",
    "ResourceClaim",
    "RetryPolicy",
    "Scheduler",
    "SchedulerError",
    "Task",
    "TaskResult",
    "WhatIfSession",
    "build_runner",
    "run_campaign",
    "run_experiment",
    "SPEC_SCHEMA_VERSION",
]

#: Bumped whenever a spec field is added/renamed/re-interpreted, so a
#: campaign checkpoint written by an older schema never silently
#: matches a newer spec's digest.  Version 2 added
#: ``decision_backend``; version 3 added ``frontier_capacity`` and
#: ``profile`` (convergence-frontier analytics / phase profiling);
#: version 4 nested the execution fields (``workers``, ``shard_size``,
#: ``shard_timeout``, retry knobs, backend) under ``execution``
#: (:class:`ExecutionPolicy`); version 5 removed ``decision_backend``.
#: :meth:`ExperimentSpec.from_dict` still reads schema-3 and schema-4
#: documents, folding their flat execution keys into the nested policy
#: and dropping their ``decision_backend``.
SPEC_SCHEMA_VERSION = 5

_EXPERIMENTS = ("surf", "internet2")


def _freeze(value):
    """Normalise JSON-ish values so equal specs hash equally: lists
    become tuples (recursively), dicts become sorted item tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for JSON export: item tuples back to
    dicts, tuples to lists."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], str)
            for item in value
        ):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


_BACKEND_CHOICES = (None, "inline", "fork")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a spec executes — never what it computes.

    Every field here is outside the identity contract: two specs whose
    policies differ still produce byte-identical results (they digest
    differently, because re-running a checkpointed campaign under a
    different execution shape is a deliberate act worth a fresh cell).

    ``workers`` is the probing fan-out; ``shard_size`` /
    ``shard_timeout`` shape the per-round shards.  ``max_retries`` and
    ``backoff_base`` are the execution-fault recovery knobs (retry a
    crashed/hung shard up to *max_retries* times with exponential
    backoff before falling back inline).  ``backend`` forces the
    scheduler backend (``"inline"`` / ``"fork"``); ``None`` lets the
    scheduler resolve one from ``workers`` and the platform.
    """

    workers: int = 1
    shard_size: Optional[int] = None
    shard_timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExperimentError("workers must be >= 1")
        if self.shard_size is not None and self.shard_size < 1:
            raise ExperimentError("shard_size must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ExperimentError("shard_timeout must be positive")
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ExperimentError("backoff_base must be >= 0")
        if self.backend not in _BACKEND_CHOICES:
            raise ExperimentError(
                "backend must be 'inline' or 'fork', got %r"
                % (self.backend,)
            )

    def as_dict(self) -> Dict[str, Any]:
        return {
            policy_field.name: getattr(self, policy_field.name)
            for policy_field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                "unknown ExecutionPolicy field(s): %s" % ", ".join(unknown)
            )
        return cls(**dict(data))

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully specified.

    Simulation fields (change the result): ``experiment``, ``seed``,
    ``scale``, ``scenario``, ``config_overrides``, ``configs``,
    ``pps``, plus the *environment* faults in ``fault_spec``.
    Execution fields (never change the result): the nested
    ``execution`` :class:`ExecutionPolicy`, ``fault_spec``'s execution
    faults, and the provenance options.  The flat ``workers`` /
    ``shard_size`` / ``shard_timeout`` constructor keywords are
    legacy spellings folded into ``execution`` (and still readable as
    properties).

    ``config_overrides`` holds :class:`REEcosystemConfig` field
    overrides; pass a dict, it is normalised to a sorted item tuple so
    the spec stays hashable and its digest canonical.  ``scenario``
    names a :data:`~repro.topology.re_config.SCENARIO_PRESETS` entry
    applied *before* the explicit overrides.
    """

    experiment: str = "surf"
    seed: int = 0
    scale: float = 0.1
    scenario: str = "baseline"
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    configs: Optional[Tuple[str, ...]] = None
    pps: int = 100
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    fault_spec: str = ""
    provenance_capacity: Optional[int] = None
    provenance_prefixes: Tuple[str, ...] = field(default=())
    #: Capacity of the run-local frontier
    #: :class:`~repro.obs.capture.EventRing` to install (None: no
    #: frontier capture).  The
    #: captured event stream is deterministic — inside the identity
    #: contract — but capturing is opt-in, so the field lives with the
    #: other observability options.
    frontier_capacity: Optional[int] = None
    #: Install a run-local :class:`~repro.obs.profile.PhaseProfiler`
    #: and attach its payload as ``result.profile``.  Execution
    #: metadata only (timings), outside the identity contract.
    profile: bool = False
    #: Legacy flat execution keywords, accepted for source
    #: compatibility and folded into ``execution``.  They are
    #: init-only: the canonical storage (and the serialised form) is
    #: the nested policy.
    workers: InitVar[Optional[int]] = None
    shard_size: InitVar[Optional[int]] = None
    shard_timeout: InitVar[Optional[float]] = None

    def __post_init__(
        self,
        workers: Optional[int],
        shard_size: Optional[int],
        shard_timeout: Optional[float],
    ) -> None:
        # Fold the legacy flat keywords into the nested policy first,
        # so the policy's own validation sees the effective values.
        if isinstance(self.execution, Mapping):
            object.__setattr__(
                self, "execution", ExecutionPolicy.from_dict(self.execution)
            )
        if not isinstance(self.execution, ExecutionPolicy):
            raise ExperimentError(
                "execution must be an ExecutionPolicy or a mapping, not %r"
                % (self.execution,)
            )
        legacy: Dict[str, Any] = {}
        if workers is not None:
            legacy["workers"] = workers
        if shard_size is not None:
            legacy["shard_size"] = shard_size
        if shard_timeout is not None:
            legacy["shard_timeout"] = shard_timeout
        if legacy:
            object.__setattr__(
                self, "execution", self.execution.replace(**legacy)
            )
        # Normalise sequence-ish inputs so from_json(to_json(s)) == s.
        # dict() accepts both a mapping and an item sequence, so every
        # spelling of the same overrides canonicalises to one sorted
        # item tuple (and therefore one digest).
        object.__setattr__(
            self, "config_overrides", _freeze(dict(self.config_overrides))
        )
        if self.configs is not None:
            if not isinstance(self.configs, (list, tuple)):
                raise ExperimentError(
                    "configs must be a list of prepend configurations, "
                    "not %r" % (self.configs,)
                )
            object.__setattr__(
                self, "configs", tuple(str(c) for c in self.configs)
            )
        object.__setattr__(
            self, "provenance_prefixes",
            tuple(str(p) for p in self.provenance_prefixes),
        )
        if self.experiment not in _EXPERIMENTS:
            raise ExperimentError(
                "experiment must be 'surf' or 'internet2', not %r"
                % (self.experiment,)
            )
        if self.scale <= 0:
            raise ExperimentError("scale must be positive")
        if self.pps < 1:
            raise ExperimentError("pps must be >= 1")
        if (
            self.provenance_capacity is not None
            and self.provenance_capacity < 1
        ):
            raise ExperimentError("provenance_capacity must be >= 1")
        if (
            self.frontier_capacity is not None
            and self.frontier_capacity < 1
        ):
            raise ExperimentError("frontier_capacity must be >= 1")
        # Fail on malformed spec text / unknown scenario / unknown
        # config field now, not at run time inside a pool worker.
        if self.fault_spec:
            parse_fault_spec(self.fault_spec)
        scenario_overrides(self.scenario)
        apply_config_overrides(
            REEcosystemConfig(), dict(self.config_overrides)
        )

    # -- derived views -------------------------------------------------

    @property
    def run_seed(self) -> int:
        """The seed the runner itself uses: ``seed`` for surf,
        ``seed + 1`` for internet2 (the ``run_both_experiments``
        convention, making the surf/internet2 pair two specs that
        differ only in ``experiment``)."""
        return self.seed + (1 if self.experiment == "internet2" else 0)

    @property
    def num_rounds(self) -> int:
        return len(self.configs or PREPEND_SEQUENCE)

    def ecosystem_config(self) -> REEcosystemConfig:
        """The effective :class:`REEcosystemConfig`: base scale, then
        the scenario preset, then explicit overrides."""
        config = REEcosystemConfig(scale=self.scale)
        config = apply_config_overrides(
            config, scenario_overrides(self.scenario)
        )
        return apply_config_overrides(config, dict(self.config_overrides))

    def schedule(self) -> Optional[ExperimentSchedule]:
        """The schedule override, or None for the paper's default."""
        if self.configs is None:
            return None
        return ExperimentSchedule(configs=tuple(self.configs))

    def fault_plan(self) -> Optional[FaultPlan]:
        """The scripted fault plan, derived from the *base* seed — the
        same plan for both halves of a surf/internet2 pair, exactly as
        the CLI's ``--fault-plan`` builds it."""
        if not self.fault_spec:
            return None
        return FaultPlan.from_spec(
            self.fault_spec, self.seed, rounds=self.num_rounds
        )

    @property
    def wants_provenance(self) -> bool:
        return (
            self.provenance_capacity is not None
            or bool(self.provenance_prefixes)
        )

    @property
    def wants_frontier(self) -> bool:
        return self.frontier_capacity is not None

    @property
    def wants_profile(self) -> bool:
        return self.profile

    # -- serialisation -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (schema-versioned; see :meth:`from_dict`)."""
        out: Dict[str, Any] = {"schema": SPEC_SCHEMA_VERSION}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "config_overrides":
                value = _thaw(dict(value)) if value else {}
            elif spec_field.name == "execution":
                value = value.as_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    #: Flat execution keys that schema-3 documents (and the legacy
    #: constructor keywords) carry; folded into ``execution``.
    _LEGACY_EXECUTION_KEYS = ("workers", "shard_size", "shard_timeout")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise ExperimentError(
                "spec document must be a JSON object, not %s"
                % type(data).__name__
            )
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema not in (3, 4, SPEC_SCHEMA_VERSION):
            raise ExperimentError(
                "spec schema %r not supported (this build reads schemas "
                "3 to %d)" % (schema, SPEC_SCHEMA_VERSION)
            )
        if schema in (3, 4) and "decision_backend" in data:
            # Only the object decision process remains; it is what
            # every "object" document ran, so those read unchanged.
            if data["decision_backend"] != "object":
                raise ExperimentError(
                    "decision_backend %r was removed; only the object "
                    "decision process remains" % (data["decision_backend"],)
                )
            data = {k: v for k, v in data.items() if k != "decision_backend"}
        known = {f.name for f in dataclasses.fields(cls)}
        known.update(cls._LEGACY_EXECUTION_KEYS)
        unknown = sorted(set(data) - known - {"schema"})
        if unknown:
            raise ExperimentError(
                "unknown ExperimentSpec field(s): %s" % ", ".join(unknown)
            )
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ExperimentError(
                "spec is not valid JSON: %s" % error
            ) from error
        return cls.from_dict(data)

    def digest(self) -> str:
        """Stable content hash — the campaign checkpoint key.

        SHA-256 over the canonical (sorted-keys, compact) JSON form,
        truncated to 16 hex characters for readable file names.  Equal
        specs always digest equally across processes and Python
        versions; any field change (including schema bumps) changes
        the digest, so a stale checkpoint can never shadow a fresh
        cell.
        """
        canonical = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with *changes* applied (re-validated).

        Accepts the legacy flat execution keywords too
        (``spec.replace(workers=4)`` folds into ``execution``).
        Hand-written rather than :func:`dataclasses.replace` because
        the latter insists on values for init-only fields.
        """
        kwargs = {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in dataclasses.fields(self)
            if spec_field.init
        }
        kwargs.update(changes)
        return type(self)(**kwargs)

    def label(self) -> str:
        """Human-readable cell label for logs/spans."""
        return "%s/seed%d/%s" % (self.experiment, self.seed, self.scenario)


# Legacy read access: ``spec.workers`` and friends delegate to the
# nested policy.  Assigned after decoration — the dataclass captured
# the init-only defaults into ``__init__`` at decoration time, so
# replacing the class attributes with properties is safe and keeps
# every existing call site (CLI, campaign, tests) reading the
# effective values.
ExperimentSpec.workers = property(  # type: ignore[assignment]
    lambda self: self.execution.workers
)
ExperimentSpec.shard_size = property(  # type: ignore[assignment]
    lambda self: self.execution.shard_size
)
ExperimentSpec.shard_timeout = property(  # type: ignore[assignment]
    lambda self: self.execution.shard_timeout
)


# ---------------------------------------------------------------------
# Running a spec


def build_runner(
    spec: ExperimentSpec,
    ecosystem: Optional[Ecosystem] = None,
    seed_plan: Optional[SeedPlan] = None,
    *,
    schedule: Optional[ExperimentSchedule] = None,
    fault_plan: Optional[FaultPlan] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentRunner:
    """Construct the runner a spec calls for.

    *ecosystem* / *seed_plan* default to building from the spec
    (``build_ecosystem(spec.ecosystem_config(), seed=spec.seed)`` and
    the shared-seed plan from ``SeedTree(spec.seed).child("seeds")``);
    pass them to reuse an existing ecosystem (the campaign pair
    dispatcher does, preserving shared-object identity).  *schedule* /
    *fault_plan* override the spec's derived objects; *workers*
    overrides ``spec.execution.workers`` (the campaign orchestrator
    throttles cells to serial probing while its own pool is busy);
    *backend* overrides ``spec.execution.backend``.

    Serial :class:`ExperimentRunner` when nothing needs sharding or a
    scheduler backend; :class:`~repro.experiment.parallel
    .ShardedRunner` when workers > 1, a shard size/timeout is set, a
    fault plan exists (execution faults need shard executions to
    attack), or a backend is forced.
    """
    if ecosystem is None:
        ecosystem = build_ecosystem(spec.ecosystem_config(), seed=spec.seed)
    if seed_plan is None:
        seed_plan = select_seeds(
            ecosystem, seed_tree=SeedTree(spec.seed).child("seeds")
        )
    if schedule is None:
        schedule = spec.schedule()
    if fault_plan is None:
        fault_plan = spec.fault_plan()
    policy = spec.execution
    effective_workers = policy.workers if workers is None else workers
    effective_backend = policy.backend if backend is None else backend
    if effective_backend not in _BACKEND_CHOICES:
        raise ExperimentError(
            "backend must be 'inline' or 'fork', got %r"
            % (effective_backend,)
        )
    if (
        effective_workers == 1
        and policy.shard_size is None
        and policy.shard_timeout is None
        and effective_backend is None
        and not fault_plan
    ):
        return ExperimentRunner(
            ecosystem, spec.experiment, seed=spec.run_seed,
            schedule=schedule, seed_plan=seed_plan, pps=spec.pps,
        )
    from .experiment.parallel import ShardedRunner

    return ShardedRunner(
        ecosystem, spec.experiment, seed=spec.run_seed,
        schedule=schedule, seed_plan=seed_plan, pps=spec.pps,
        workers=effective_workers, shard_size=policy.shard_size,
        shard_timeout=policy.shard_timeout, fault_plan=fault_plan,
        max_retries=policy.max_retries, backoff_base=policy.backoff_base,
        backend=effective_backend,
    )


def run_experiment(
    spec: ExperimentSpec,
    ecosystem: Optional[Ecosystem] = None,
    seed_plan: Optional[SeedPlan] = None,
    *,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    progress_hook: Optional[Any] = None,
) -> ExperimentResult:
    """Run one experiment from its spec; the facade entry point.

    The result is byte-identical for every value of the execution
    policy (``workers``/``shard_size``/``shard_timeout``, retry knobs,
    ``backend``, and execution faults) — the campaign orchestrator
    leans on this to run the same spec serially, sharded, or as a
    pooled cell interchangeably.  *backend* forces the scheduler
    backend for this run (``"inline"`` / ``"fork"``), overriding
    ``spec.execution.backend``.

    When the spec asks for provenance (``provenance_capacity`` /
    ``provenance_prefixes``), a frontier (``frontier_capacity``) or a
    ``profile``, each such channel the active capture lacks is
    captured run-locally (:func:`spec_capture`) and lands on
    ``result.provenance_events`` / ``result.frontier_events`` /
    ``result.profile``; an already-active channel (e.g. the CLI's)
    is left in place and keeps receiving events as usual.

    *progress_hook*, when given, is called with keyword fields
    (``phase``, ``rounds_completed``, ``shards_completed``, ...) as
    the run advances — the live-telemetry channel campaign heartbeats
    and status consoles hang off.  Strictly observational; it never
    changes results.
    """
    runner = build_runner(
        spec, ecosystem, seed_plan, workers=workers, backend=backend
    )
    if progress_hook is not None:
        runner.progress_hook = progress_hook
    active = active_capture()
    local = spec_capture(spec, active)
    with use_capture(local.over(active)):
        result = runner.run()
    attach_capture(result, local)
    return result


def spec_capture(spec: ExperimentSpec, active: Optional[Capture]) -> Capture:
    """The run-local capture for *spec*: a fresh channel for each one
    the spec asks for that *active* does not already provide (an
    already-active channel, e.g. the CLI's, keeps receiving events).
    Install it with ``use_capture(local.over(active))``."""

    def lacks(channel: str) -> bool:
        return active is None or getattr(active, channel) is None

    return Capture(
        provenance=EventRing(
            spec.provenance_capacity or DEFAULT_CAPACITY,
            prefix_filter=spec.provenance_prefixes or None,
        ) if spec.wants_provenance and lacks("provenance") else None,
        frontier=EventRing(spec.frontier_capacity)
        if spec.wants_frontier and lacks("frontier") else None,
        profiler=PhaseProfiler()
        if spec.wants_profile and lacks("profiler") else None,
    )


def attach_capture(result: ExperimentResult, local: Capture) -> None:
    """Attach a :func:`spec_capture`'s streams to *result*."""
    if local.provenance is not None:
        result.provenance_events = local.provenance.events()
    if local.frontier is not None:
        result.frontier_events = local.frontier.events()
    if local.profiler is not None:
        result.profile = local.profiler.as_payload()


def run_campaign(
    grid: Sequence[ExperimentSpec],
    directory: str,
    *,
    pool_workers: int = 1,
    resume: bool = True,
    keep_results: bool = False,
    backend: Optional[str] = None,
):
    """Run a campaign grid with digest-keyed resumable checkpoints;
    the facade entry point for grids.

    *grid* is a sequence of specs (see
    :func:`repro.experiment.campaign.plan_grid`); digests must be
    unique.  Completed cells checkpoint under ``<directory>/cells/``
    and are skipped on re-runs while *resume* holds.  *pool_workers*
    sets the campaign-level cell fan-out; *backend* forces the
    scheduler backend for cell dispatch (``"inline"`` / ``"fork"``),
    overriding the resolution from *pool_workers* and the platform.

    Returns the :class:`~repro.experiment.campaign.CampaignResult`.
    """
    # Deferred: campaign imports this module for ExperimentSpec /
    # ExecutionPolicy / build_runner, so the facade pulls the
    # orchestrator in only at call time.
    from .experiment.campaign import CampaignRunner

    return CampaignRunner(
        grid, directory,
        pool_workers=pool_workers, resume=resume,
        keep_results=keep_results, backend=backend,
    ).run()


# Re-exported at the bottom: repro.whatif imports ExperimentSpec from
# this module, so the facade pulls the session in only after its own
# definitions exist.
from .whatif import Prediction, WhatIfSession  # noqa: E402
