"""Stable Python API facade: :class:`ExperimentSpec`,
:func:`run_experiment`, and :func:`run_campaign` — the single
canonical entry surface.

Before this module, running one experiment meant threading ~9 keyword
arguments through :class:`~repro.experiment.runner.ExperimentRunner`
and keeping its seeding conventions in your head.  The facade freezes
all of that into one immutable, serialisable value:

- :class:`ExperimentSpec` — everything that determines an experiment's
  result (seed, experiment, scenario/config overrides, schedule, pps,
  fault plan) and nothing else.  Specs round-trip through JSON
  (:meth:`ExperimentSpec.to_json` / :meth:`ExperimentSpec.from_json`)
  and have a stable content hash (:meth:`ExperimentSpec.digest`) that
  the campaign orchestrator uses as its checkpoint key.
- :func:`run_experiment` — ``spec -> ExperimentResult``, a pure
  function of the spec.  Provenance is recorded outside the spec, into
  whatever ring is active: ``with use_ring(EventRing()):
  run_experiment(spec)``, as the CLI's ``--provenance-out`` does.
- :func:`run_campaign` — ``grid -> CampaignResult``; the campaign
  orchestrator behind one call, with checkpoint resume and process
  parallelism over network groups (the only parallel level).

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
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .errors import ExperimentError
from .experiment.records import ExperimentResult
from .experiment.runner import ExperimentRunner
from .experiment.schedule import (
    PREPEND_SEQUENCE,
    ExperimentSchedule,
    parse_prepend_config,
)
from .faults import FaultPlan, parse_fault_spec
from .rng import SeedTree
from .seeds.selection import SeedPlan, select_seeds
from .topology.re_config import (
    REEcosystemConfig,
    apply_config_overrides,
    scenario_overrides,
)
from .topology.re_ecosystem import Ecosystem, build_ecosystem

__all__ = [
    "ExperimentSpec",
    "Prediction",
    "WhatIfSession",
    "build_runner",
    "network_of",
    "run_campaign",
    "run_experiment",
    "SPEC_SCHEMA_VERSION",
]

#: Bumped whenever a spec field is added/renamed/re-interpreted, so a
#: campaign checkpoint written by an older schema never silently
#: matches a newer spec's digest.  Version 2 added
#: ``decision_backend``; version 3 added ``frontier_capacity`` and
#: ``profile``; version 4 nested the execution fields (worker count,
#: shard size and timeout, retry knobs, backend) under ``execution``;
#: version 5 removed ``decision_backend``; version 6 removed the
#: execution fields with the shard level of probing; version 7 removed
#: ``profile`` with the phase profiler; version 8 removed
#: ``frontier_capacity`` with the convergence-frontier channel; version
#: 9 removed ``provenance_capacity`` and ``provenance_prefixes`` (the
#: process-wide ring is the one way to record provenance).
#: :meth:`ExperimentSpec.from_dict` still reads schema 3 to 8
#: documents, dropping their execution fields, their
#: ``decision_backend``, their ``profile``, their ``frontier_capacity``
#: and their provenance keys — none ever changed results.
SPEC_SCHEMA_VERSION = 9

_EXPERIMENTS = ("surf", "internet2")


def _legacy_execution_key(key) -> bool:
    """An execution field of a schema 3 to 5 document: ``execution``
    (schemas 4 and 5) or the flat ``workers`` / ``shard_*`` keys
    (schema 3)."""
    return key in ("execution", "workers") or str(key).startswith("shard_")


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _overrides_dict(value) -> Dict[str, Any]:
    """``config_overrides`` as a dict: a mapping, or the frozen item
    tuple a spec stores (so ``replace`` round-trips)."""
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, tuple) and all(
        isinstance(item, tuple) and len(item) == 2 for item in value
    ):
        return dict(value)
    raise ExperimentError(
        "config_overrides must be a mapping of REEcosystemConfig "
        "fields, not %r" % (value,)
    )


def _str_tuple(name: str, value) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ExperimentError(
            "%s must be a list of strings, not %r" % (name, value)
        )
    return tuple(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully specified.

    Every field is a simulation field (changes the result):
    ``experiment``, ``seed``, ``scale``, ``scenario``,
    ``config_overrides``, ``configs``, ``pps`` and the scripted faults
    in ``fault_spec``.

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
    fault_spec: str = ""

    def __post_init__(self) -> None:
        # Fail on a malformed field now, with an ExperimentError, not
        # with a TypeError at run time inside a pool worker.
        if self.experiment not in _EXPERIMENTS:
            raise ExperimentError(
                "experiment must be 'surf' or 'internet2', not %r"
                % (self.experiment,)
            )
        if not _is_int(self.seed):
            raise ExperimentError(
                "seed must be an integer, not %r" % (self.seed,)
            )
        if not isinstance(self.scenario, str):
            raise ExperimentError(
                "scenario must be a string, not %r" % (self.scenario,)
            )
        if not _is_number(self.scale) or self.scale <= 0:
            raise ExperimentError(
                "scale must be a positive number, not %r" % (self.scale,)
            )
        if not _is_number(self.pps) or self.pps < 1:
            raise ExperimentError(
                "pps must be a number >= 1, not %r" % (self.pps,)
            )
        if not isinstance(self.fault_spec, str):
            raise ExperimentError(
                "fault_spec must be a string, not %r" % (self.fault_spec,)
            )
        # Normalise sequence-ish inputs so from_json(to_json(s)) == s.
        # Every spelling of the same overrides canonicalises to one
        # sorted item tuple (and therefore one digest).
        overrides = _overrides_dict(self.config_overrides)
        object.__setattr__(self, "config_overrides", _freeze(overrides))
        if self.configs is not None:
            configs = _str_tuple("configs", self.configs)
            for config in configs:
                parse_prepend_config(config)
            object.__setattr__(self, "configs", configs)
        # Malformed fault spec text, unknown scenario or unknown config
        # field.
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

    # -- serialisation -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (schema-versioned; see :meth:`from_dict`)."""
        out: Dict[str, Any] = {"schema": SPEC_SCHEMA_VERSION}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "config_overrides":
                value = _thaw(dict(value)) if value else {}
            elif isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise ExperimentError(
                "spec document must be a JSON object, not %s"
                % type(data).__name__
            )
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema not in (3, 4, 5, 6, 7, 8, SPEC_SCHEMA_VERSION):
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
        if schema in (3, 4, 5):
            # Execution fields only ever shaped the removed shard
            # level; they never changed results, so they are dropped.
            data = {
                k: v for k, v in data.items()
                if not _legacy_execution_key(k)
            }
        if schema != SPEC_SCHEMA_VERSION:
            # ``profile`` (schemas 3 to 6) only switched on the removed
            # phase profiler, ``frontier_capacity`` (3 to 7) the
            # removed frontier channel, and the provenance keys (3 to
            # 8) a run-local ring; none ever changed results.
            retired = ("provenance_capacity", "provenance_prefixes") + (
                ("frontier_capacity",) if schema < 8 else ()
            ) + (("profile",) if schema < 7 else ())
            data = {k: v for k, v in data.items() if k not in retired}
        known = {f.name for f in dataclasses.fields(cls)}
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
        except (ValueError, RecursionError) as error:
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
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """Human-readable cell label for logs/spans."""
        return "%s/seed%d/%s" % (self.experiment, self.seed, self.scenario)


# ---------------------------------------------------------------------
# Running a spec


def network_of(
    spec: ExperimentSpec, ecosystem: Optional[Ecosystem] = None
) -> Tuple[Ecosystem, SeedPlan]:
    """The network *spec* runs on: its ecosystem and probe-seed plan.

    Both are functions of ``(spec.seed, spec.ecosystem_config())``
    alone, never of the experiment, so every spec sharing that key
    runs on one network (the campaign's network group, and the
    surf/internet2 pair).  *ecosystem* supplies an already-built one;
    the plan always derives from ``SeedTree(spec.seed).child("seeds")``.
    """
    if ecosystem is None:
        ecosystem = build_ecosystem(spec.ecosystem_config(), seed=spec.seed)
    seed_plan = select_seeds(
        ecosystem, seed_tree=SeedTree(spec.seed).child("seeds")
    )
    return ecosystem, seed_plan


def build_runner(
    spec: ExperimentSpec,
    ecosystem: Optional[Ecosystem] = None,
    seed_plan: Optional[SeedPlan] = None,
    *,
    schedule: Optional[ExperimentSchedule] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ExperimentRunner:
    """Construct the :class:`ExperimentRunner` a spec calls for.

    *ecosystem* / *seed_plan* default to the spec's network
    (:func:`network_of`); pass them to reuse an existing one (campaign
    network groups do, so the surf/internet2 pair shares one seed-plan
    object).  *schedule* / *fault_plan* override the spec's derived
    objects.
    """
    if seed_plan is None:
        ecosystem, seed_plan = network_of(spec, ecosystem)
    elif ecosystem is None:
        ecosystem = build_ecosystem(spec.ecosystem_config(), seed=spec.seed)
    if schedule is None:
        schedule = spec.schedule()
    if fault_plan is None:
        fault_plan = spec.fault_plan()
    return ExperimentRunner(
        ecosystem, spec.experiment, seed=spec.run_seed,
        schedule=schedule, seed_plan=seed_plan, pps=spec.pps,
        fault_plan=fault_plan,
    )


def run_experiment(
    spec: ExperimentSpec,
    ecosystem: Optional[Ecosystem] = None,
    seed_plan: Optional[SeedPlan] = None,
) -> ExperimentResult:
    """Run one experiment from its spec; the facade entry point.

    The result is a pure function of the spec — the campaign
    orchestrator leans on this to run the same spec inline or as a
    pooled cell interchangeably.  Provenance lands in the active ring,
    if any (:func:`repro.obs.capture.use_ring`).
    """
    return build_runner(spec, ecosystem, seed_plan).run()


def run_campaign(
    grid: Sequence[ExperimentSpec],
    directory: str,
    *,
    pool_workers: int = 1,
    resume: bool = True,
    keep_results: bool = False,
):
    """Run a campaign grid with digest-keyed resumable checkpoints;
    the facade entry point for grids.

    *grid* is a sequence of specs (see
    :func:`repro.experiment.campaign.plan_grid`); digests must be
    unique.  Completed cells checkpoint under ``<directory>/cells/``
    and are skipped on re-runs while *resume* holds.  The pending
    cells run as network groups, one ecosystem and probe-seed plan
    each (:func:`network_of`).  *pool_workers* sets the campaign-level
    group fan-out: a fork pool when it exceeds one, the pending cells
    form more than one group and ``fork`` exists.

    Returns the :class:`~repro.experiment.campaign.CampaignResult`.
    """
    # Deferred: campaign imports this module for ExperimentSpec /
    # build_runner, so the facade pulls the
    # orchestrator in only at call time.
    from .experiment.campaign import CampaignRunner

    return CampaignRunner(
        grid, directory,
        pool_workers=pool_workers, resume=resume,
        keep_results=keep_results,
    ).run()


# Re-exported at the bottom: repro.whatif imports ExperimentSpec from
# this module, so the facade pulls the session in only after its own
# definitions exist.
from .whatif import Prediction, WhatIfSession  # noqa: E402
