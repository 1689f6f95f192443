"""Warm what-if queries over the delta convergence engine.

A :class:`WhatIfSession` keeps one converged network warm and answers
catchment questions — "which origin (and therefore which signal
category) does prefix P land on under configuration C, or after policy
change X?" — in microseconds.  Every converged state is captured once
as a :class:`~repro.probing.forwarding.RibSnapshot` and resolved into a
:class:`~repro.probing.forwarding.Catchment`, so a query is one lookup
per probed system; state changes are
:meth:`~repro.bgp.engine.PropagationEngine.apply_delta` deltas instead
of re-simulating the experiment from scratch.

The session replays the experiment's control-plane history exactly as
:class:`~repro.experiment.runner.ExperimentRunner` does (same seeding,
same announcement order, same soak clock), minus probing: route ages
are semantically meaningful (the OLDEST_ROUTE tie-break), so warm
state is only byte-identical to the experiment's when the full history
is replayed in canonical order.  Configurations therefore only step
*forward*; earlier configurations stay queryable through their cached
catchments until a free-form delta changes the network under them.

The cold path stays authoritative: :meth:`WhatIfSession.replay_cold`
rebuilds a fresh ecosystem and engine and replays the session's
journal from scratch, and the differential tests assert the warm RIB
state equals the cold one byte-for-byte.  (A fresh *ecosystem*, not
just a fresh engine — policy deltas such as
:class:`~repro.bgp.engine.LocalprefEdit` mutate topology state shared
by every engine built over it.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from .api import ExperimentSpec
from .bgp.engine import (
    AnnounceDelta,
    DeltaOutcome,
    LinkFlap,
    LocalprefEdit,
    PrependChange,
    PropagationEngine,
    WithdrawDelta,
)
from .errors import ExperimentError
from .netutil import Prefix
from .obs import get_logger
from .obs.provenance import signal_from_kinds
from .probing.forwarding import Catchment
from .probing.host import MeasurementHost
from .rng import SeedTree
from .topology.re_ecosystem import Ecosystem, build_ecosystem

__all__ = [
    "Prediction",
    "WhatIfSession",
    "parse_delta",
]

_log = get_logger("repro.whatif")


@dataclass(frozen=True)
class Prediction:
    """One what-if answer: where a probed prefix's responses land.

    ``deliveries`` maps each alive system (by address) to the
    announcement origin its return path terminates at (None when the
    path fails to deliver); ``signal`` classifies the set of reached
    interface kinds exactly as round classification does
    (:func:`~repro.obs.provenance.signal_from_kinds`)."""

    prefix: str
    config: str
    signal: str
    deliveries: Tuple[Tuple[int, Optional[int]], ...]


class WhatIfSession:
    """Warm routing state for one experiment, queryable per config.

    Only the spec's *simulation* fields matter here (seed, scale,
    scenario, overrides, configs).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        ecosystem: Optional[Ecosystem] = None,
    ) -> None:
        self.spec = spec
        if ecosystem is None:
            ecosystem = build_ecosystem(
                spec.ecosystem_config(), seed=spec.seed
            )
        self.ecosystem = ecosystem
        self.schedule = spec.schedule() or _default_schedule()
        self.re_origin = ecosystem.re_origin_for(spec.experiment)
        self.commodity_origin = ecosystem.commodity_origin
        self.host = MeasurementHost.for_experiment(
            ecosystem.measurement_prefix,
            self.re_origin,
            self.commodity_origin,
            spec.experiment,
        )
        # Same seeding convention as the runner, so the warm control
        # plane is the experiment's control plane.
        tree = SeedTree(spec.run_seed).child(
            "experiment-%s" % spec.experiment
        )
        self._engine = PropagationEngine(ecosystem.topology, tree)
        #: Everything needed to rebuild this state cold, in order:
        #: ("config", label) steps and ("delta", delta) edits.
        self._journal: List[Tuple[str, object]] = []
        #: One resolved catchment per queryable config.
        self._catchments: Dict[str, Catchment] = {}
        self._config_index = 0
        self._warm_up()

    # ----- warm-up ----------------------------------------------------

    def _warm_up(self) -> None:
        """Phases 0/1 of the experiment: commodity soaks alone, then
        the first configuration goes up (runner order, runner clock)."""
        engine = self._engine
        schedule = self.schedule
        prefix = self.ecosystem.measurement_prefix
        engine.apply_delta(AnnounceDelta(
            origin_asn=self.commodity_origin, prefix=prefix,
            tag="commodity",
        ))
        engine.advance_to(schedule.commodity_lead_seconds)
        first_re, first_comm = schedule.parsed_configs()[0]
        if first_comm != 0:
            engine.apply_delta(AnnounceDelta(
                origin_asn=self.commodity_origin, prefix=prefix,
                default_prepends=first_comm, tag="commodity",
            ))
        engine.apply_delta(AnnounceDelta(
            origin_asn=self.re_origin, prefix=prefix,
            default_prepends=first_re, tag="re",
        ))
        engine.advance_to(engine.now + schedule.initial_soak_seconds)
        self._resolve_current()

    # ----- configuration stepping -------------------------------------

    @property
    def current_config(self) -> str:
        return self.schedule.configs[self._config_index]

    @property
    def engine(self) -> PropagationEngine:
        """The warm engine (read-mostly; mutate via :meth:`apply`)."""
        return self._engine

    def advance_to_config(self, config: str) -> None:
        """Step the warm state forward to *config* (canonical schedule
        order; earlier configs stay queryable via cached catchments)."""
        configs = list(self.schedule.configs)
        if config not in configs:
            raise ExperimentError(
                "unknown config %r (schedule has %s)"
                % (config, ", ".join(configs))
            )
        target = configs.index(config)
        if target < self._config_index:
            raise ExperimentError(
                "cannot step backwards from %s to %s — route ages make "
                "history order semantic; query earlier configs through "
                "their cached catchments, which applying a delta drops"
                % (self.current_config, config)
            )
        parsed = self.schedule.parsed_configs()
        engine = self._engine
        prefix = self.ecosystem.measurement_prefix
        while self._config_index < target:
            index = self._config_index + 1
            re_p, comm_p = parsed[index]
            prev_re, prev_comm = parsed[index - 1]
            dirty = 0
            if re_p != prev_re:
                outcome = engine.apply_delta(PrependChange(
                    origin_asn=self.re_origin, prefix=prefix,
                    prepends=re_p,
                ))
                dirty += len(outcome.dirty_prefixes)
            if comm_p != prev_comm:
                outcome = engine.apply_delta(PrependChange(
                    origin_asn=self.commodity_origin, prefix=prefix,
                    prepends=comm_p,
                ))
                dirty += len(outcome.dirty_prefixes)
            engine.advance_to(engine.now + self.schedule.soak_seconds)
            self._config_index = index
            self._journal.append(("config", configs[index]))
            self._resolve_current()
            if _log.is_enabled_for("debug"):
                _log.debug(
                    "what-if config step",
                    config=configs[index], dirty_prefixes=dirty,
                )

    # ----- free-form deltas -------------------------------------------

    def apply(self, delta) -> DeltaOutcome:
        """Apply one free-form delta to the warm state (journaled for
        cold replay).  Catchments of earlier configs describe a network
        the delta has now changed, so the cache is dropped and only the
        post-delta state stays queryable."""
        outcome = self._engine.apply_delta(delta)
        self._journal.append(("delta", delta))
        self._catchments.clear()
        self._resolve_current()
        return outcome

    # ----- queries ----------------------------------------------------

    def predict(
        self,
        prefix: Union[Prefix, str],
        config: Optional[str] = None,
    ) -> Prediction:
        """Where does *prefix* land under *config* (default: current)?

        Looks up every alive system planned inside the prefix in the
        config's cached catchment — the prober's deterministic
        return-path signal, minus liveness/loss randomness — and
        classifies the reached interface kinds."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        label = config or self.current_config
        catchment = self._catchments.get(label)
        if catchment is None:
            self.advance_to_config(label)
            catchment = self._catchments[label]
        plan = self.ecosystem.prefix_plans.get(prefix)
        if plan is None:
            raise ExperimentError("prefix %s is not in the study" % prefix)
        lookup = catchment.lookup
        deliveries: List[Tuple[int, Optional[int]]] = []
        kinds: List[str] = []
        for system in plan.alive_systems:
            # Only a delivered walk names an origin.
            origin = lookup(system.attached_asn)[1]
            deliveries.append((system.address, origin))
            if origin is not None:
                kinds.append(self.host.interface_for_origin(origin).kind)
        return Prediction(
            prefix=str(prefix),
            config=label,
            signal=signal_from_kinds(kinds),
            deliveries=tuple(deliveries),
        )

    def predict_batch(
        self,
        prefixes,
        config: Optional[str] = None,
    ) -> List[Prediction]:
        """Batched :meth:`predict` over many prefixes (one catchment,
        one lookup per probed system)."""
        return [self.predict(prefix, config) for prefix in prefixes]

    def rib_state(self) -> tuple:
        """Canonical warm RIB state for the measurement prefix — the
        value the differential oracle compares byte-for-byte."""
        return self._engine.rib_state(self.ecosystem.measurement_prefix)

    # ----- the differential oracle ------------------------------------

    def replay_cold(self) -> "WhatIfSession":
        """Rebuild this session's state from scratch: fresh ecosystem,
        fresh engine, full journal replayed in order.  The warm state
        must be byte-identical to the twin's — this is the oracle the
        delta-convergence tests compare against."""
        twin = WhatIfSession(self.spec)
        for kind, payload in list(self._journal):
            if kind == "config":
                twin.advance_to_config(payload)
            else:
                twin.apply(payload)
        return twin

    # ----- internals --------------------------------------------------

    def _resolve_current(self) -> None:
        self._catchments[self.current_config] = self.host.catchment(
            self.ecosystem.topology,
            partial(self._engine.best_route,
                    prefix=self.ecosystem.measurement_prefix),
        )


def _default_schedule():
    from .experiment.schedule import ExperimentSchedule

    return ExperimentSchedule()


# ---------------------------------------------------------------------
# CLI delta specs


def parse_delta(text: str, session: WhatIfSession):
    """Parse one ``repro whatif --delta`` spec into a delta object.

    Formats (sides are ``re``/``commodity``, resolved against the
    session's experiment):

    - ``prepend:<side>=<n>``         — PrependChange
    - ``announce:<side>[=<n>]``      — AnnounceDelta
    - ``withdraw:<side>``            — WithdrawDelta
    - ``localpref:<asn>:<nbr>=<v>``  — LocalprefEdit
    - ``flap:<a>-<b>`` / ``down:<a>-<b>`` / ``up:<a>-<b>`` — LinkFlap
    """
    prefix = session.ecosystem.measurement_prefix
    try:
        kind, _, rest = text.partition(":")
        if kind in ("flap", "down", "up"):
            a_text, _, b_text = rest.partition("-")
            return LinkFlap(int(a_text), int(b_text), action=(
                "flap" if kind == "flap" else kind
            ))
        if kind == "localpref":
            asn_text, _, tail = rest.partition(":")
            neighbor_text, _, value_text = tail.partition("=")
            return LocalprefEdit(
                int(asn_text), int(neighbor_text), int(value_text)
            )
        side, _, amount = rest.partition("=")
        origin = _origin_for_side(session, side)
        if kind == "prepend":
            return PrependChange(origin, prefix, int(amount))
        if kind == "withdraw":
            return WithdrawDelta(origin, prefix)
        if kind == "announce":
            return AnnounceDelta(
                origin, prefix,
                default_prepends=int(amount) if amount else 0,
                tag=side,
            )
    except (ValueError, ExperimentError) as error:
        raise ExperimentError(
            "bad delta spec %r: %s" % (text, error)
        ) from None
    raise ExperimentError(
        "unknown delta kind %r (want prepend/announce/withdraw/"
        "localpref/flap/down/up)" % (kind,)
    )


def _origin_for_side(session: WhatIfSession, side: str) -> int:
    if side == "re":
        return session.re_origin
    if side == "commodity":
        return session.commodity_origin
    raise ExperimentError("side must be 're' or 'commodity', not %r" % side)
