"""Warm what-if queries over the delta convergence engine.

A :class:`WhatIfSession` keeps one converged network warm and answers
catchment questions — "which origin (and therefore which signal
category) does prefix P land on under configuration C, or after policy
change X?" — in microseconds.  State changes are
:meth:`~repro.bgp.engine.PropagationEngine.apply_delta` deltas instead
of re-simulating the experiment from scratch.  The session keeps one
:class:`~repro.probing.forwarding.LiveCatchment`, resolved once after
warm-up and patched from each delta's changed ASes, and reads it into
the same per-AS verdict table a probing round reads
(:meth:`~repro.probing.host.MeasurementHost.verdicts`).

Predictions for the current state are memoized per prefix.  A delta
usually moves few return walks, so :meth:`WhatIfSession.apply`
re-derives only the verdicts of the ASes the patch re-resolved and
forgets only the predictions of prefixes with an attached AS whose
walk now ends at a different origin; every other prediction stays a
dictionary hit.

The session steps the experiment's own control-plane schedule: it
holds an :class:`~repro.experiment.runner.ExperimentRunner` and calls
its ``enter_round`` / ``leave_round`` steps, so the warm network sees
what the run's network sees, in the run's order and with the run's
seeding — the announcements, the prepend changes, the background
flaps, the ecosystem's scheduled outages and the spec's fault-plan
link flaps.  Only probing is skipped, and with it the clock's advance
over each probe round; that shifts every later event by the same
amount, which keeps the order of route ages.  Route ages are
semantically meaningful (the OLDEST_ROUTE tie-break), so warm state is
only the experiment's when the full history is replayed in canonical
order.  Configurations therefore only step *forward*; earlier
configurations stay queryable through their cached verdict tables
until a free-form delta changes the network under them.

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
from .experiment.runner import ExperimentRunner
from .experiment.schedule import MAX_COUNT_DIGITS, is_count
from .netutil import Prefix
from .obs import get_logger
from .obs.provenance import SIGNAL_LABELS
from .probing.host import DELIVERED, Verdict
from .topology.re_config import SystemPlan
from .topology.re_ecosystem import Ecosystem, build_ecosystem

__all__ = [
    "Prediction",
    "WhatIfSession",
    "parse_delta",
]

_log = get_logger("repro.whatif")

#: A prefix compiled for prediction: its text and its alive systems.
_Compiled = Tuple[str, Tuple[SystemPlan, ...]]


@dataclass(frozen=True)
class Prediction:
    """One what-if answer: where a probed prefix's responses land.

    ``deliveries`` maps each alive system (by address) to the
    announcement origin its return path terminates at (None when the
    path fails to deliver); ``signal`` classifies the set of reached
    interface kinds exactly as round classification does
    (:data:`~repro.obs.provenance.SIGNAL_LABELS`)."""

    prefix: str
    config: str
    signal: str
    deliveries: Tuple[Tuple[int, Optional[int]], ...]


class WhatIfSession:
    """Warm routing state for one experiment, queryable per config.

    Only the spec's *simulation* fields matter here (seed, scale,
    scenario, overrides, configs, fault plan).
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
        #: The experiment's runner, whose control-plane steps the
        #: session takes without probing (it selects no seeds).
        runner = self._runner = ExperimentRunner(
            ecosystem, spec.experiment, seed=spec.run_seed,
            schedule=spec.schedule(), fault_plan=spec.fault_plan(),
        )
        self.schedule = runner.schedule
        self.re_origin = runner.re_origin
        self.commodity_origin = runner.commodity_origin
        self.host = runner.host
        #: Everything needed to rebuild this state cold, in order:
        #: ("config", label) steps and ("delta", delta) edits.
        self._journal: List[Tuple[str, object]] = []
        #: Every AS an alive planned system attaches to: whose verdicts
        #: each state keeps (system liveness is fixed when the
        #: ecosystem is built).
        self._attached_asns = frozenset(
            system.attached_asn
            for plan in ecosystem.prefix_plans.values()
            for system in plan.systems if system.alive
        )
        #: Each queried prefix, compiled on its first query.
        self._compiled: Dict[Prefix, _Compiled] = {}
        #: Attached ASN -> the compiled prefixes with a system behind it.
        self._prefixes_of: Dict[int, List[Prefix]] = {}
        #: One verdict table (attached ASes only) per queryable config.
        self._verdicts: Dict[str, Dict[int, Verdict]] = {}
        #: The current state's predictions, by prefix.
        self._memo: Dict[Prefix, Prediction] = {}
        self._config_index = 0
        runner.enter_round(0)
        #: The one catchment this session resolves; patched per delta.
        self._live = self.host.live_catchment(
            ecosystem.topology,
            partial(
                runner.engine.best_route,
                prefix=ecosystem.measurement_prefix,
            ),
        )
        self._verdicts[self.current_config] = self.host.verdicts(
            self._live, self._attached_asns
        )

    # ----- configuration stepping -------------------------------------

    @property
    def current_config(self) -> str:
        return self.schedule.configs[self._config_index]

    @property
    def engine(self) -> PropagationEngine:
        """The warm engine (read-mostly; mutate via :meth:`apply`)."""
        return self._runner.engine

    def advance_to_config(self, config: str) -> None:
        """Step the warm state forward to *config* (canonical schedule
        order; earlier configs stay queryable via cached verdicts)."""
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
        runner = self._runner
        while self._config_index < target:
            # Leave the current round, then enter the next one: the
            # run's own steps between two probing rounds.
            left, changed = runner.leave_round(self._config_index)
            index = self._config_index + 1
            entered, entered_changed = runner.enter_round(index)
            changed |= entered_changed
            # The previous config keeps its table: the new one starts
            # as a copy of it, re-derived where the patch reached.
            verdicts = dict(self._verdicts[self.current_config])
            verdicts.update(self._patch(changed))
            self._config_index = index
            self._journal.append(("config", configs[index]))
            self._verdicts[self.current_config] = verdicts
            self._memo = {}
            if _log.is_enabled_for("debug"):
                _log.debug(
                    "what-if config step",
                    config=configs[index], runs=len(left) + len(entered),
                    changed_ases=len(changed),
                )

    # ----- free-form deltas -------------------------------------------

    def apply(self, delta) -> DeltaOutcome:
        """Apply one free-form delta to the warm state (journaled for
        cold replay).  Verdicts of earlier configs describe a network
        the delta has now changed, so they are dropped and only the
        post-delta state stays queryable.  A memoized prediction is
        forgotten only if one of its attached ASes now reaches a
        different origin."""
        outcome = self.engine.apply_delta(delta)
        self._journal.append(("delta", delta))
        verdicts = self._verdicts[self.current_config]
        self._verdicts = {self.current_config: verdicts}
        memo = self._memo
        for asn, verdict in self._patch(outcome.changed_ases).items():
            if verdict[2] != verdicts[asn][2]:
                for prefix in self._prefixes_of.get(asn, ()):
                    memo.pop(prefix, None)
            verdicts[asn] = verdict
        return outcome

    # ----- queries ----------------------------------------------------

    def predict(
        self,
        prefix: Union[Prefix, str],
        config: Optional[str] = None,
    ) -> Prediction:
        """Where does *prefix* land under *config* (default: current)?

        Reads each alive system planned inside the prefix from the
        config's verdict table — the prober's deterministic
        return-path signal, minus liveness/loss randomness — and
        classifies the reached interface kinds.  The current config's
        answers are memoized; an earlier config's are rebuilt per
        call."""
        if config is None:
            hit = self._memo.get(prefix)
            if hit is not None:
                return hit
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        label = config or self.current_config
        verdicts = self._verdicts.get(label)
        if verdicts is None:
            self.advance_to_config(label)
            verdicts = self._verdicts[label]
        current = label == self.current_config
        if current:
            hit = self._memo.get(prefix)
            if hit is not None:
                return hit
        compiled = self._compiled.get(prefix)
        if compiled is None:
            compiled = self._compile(prefix)
        text, systems = compiled
        code = 0
        deliveries = []
        for system in systems:
            address = system.address
            outcome, kind, origin, _ = verdicts[system.attached_asn]
            if outcome != DELIVERED:
                deliveries.append((address, None))
                continue
            if not kind:
                # Delivered to an origin with no interface.
                self.host.interface_for_origin(origin)
            code |= kind
            deliveries.append((address, origin))
        prediction = Prediction(
            prefix=text,
            config=label,
            signal=SIGNAL_LABELS[code],
            deliveries=tuple(deliveries),
        )
        if current:
            self._memo[prefix] = prediction
        return prediction

    def predict_batch(
        self,
        prefixes,
        config: Optional[str] = None,
    ) -> List[Prediction]:
        """Batched :meth:`predict` over many prefixes (one verdict
        table, one lookup per probed system)."""
        return [self.predict(prefix, config) for prefix in prefixes]

    def rib_state(self) -> tuple:
        """Canonical warm RIB state for the measurement prefix — the
        value the differential oracle compares byte-for-byte."""
        return self.engine.rib_state(self.ecosystem.measurement_prefix)

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

    def _compile(self, prefix: Prefix) -> _Compiled:
        """Compile *prefix* for prediction and index it under its
        attached ASes."""
        plan = self.ecosystem.prefix_plans.get(prefix)
        if plan is None:
            raise ExperimentError("prefix %s is not in the study" % prefix)
        systems = tuple(system for system in plan.systems if system.alive)
        for asn in {system.attached_asn for system in systems}:
            self._prefixes_of.setdefault(asn, []).append(prefix)
        compiled = self._compiled[prefix] = (str(prefix), systems)
        return compiled

    def _patch(self, changed_asns) -> Dict[int, Verdict]:
        """Patch the live catchment after a change in which only
        *changed_asns* selected a new best, and return the fresh
        verdicts of the attached ASes it re-resolved."""
        patched = self._live.patch(changed_asns)
        return self.host.verdicts(self._live, patched & self._attached_asns)


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
            return LinkFlap(_count(a_text), _count(b_text), action=(
                "flap" if kind == "flap" else kind
            ))
        if kind == "localpref":
            asn_text, _, tail = rest.partition(":")
            neighbor_text, _, value_text = tail.partition("=")
            return LocalprefEdit(
                _count(asn_text), _count(neighbor_text), _count(value_text)
            )
        side, _, amount = rest.partition("=")
        origin = _origin_for_side(session, side)
        if kind == "prepend":
            return PrependChange(origin, prefix, _count(amount))
        if kind == "withdraw":
            return WithdrawDelta(origin, prefix)
        if kind == "announce":
            return AnnounceDelta(
                origin, prefix,
                default_prepends=_count(amount) if amount else 0,
                tag=side,
            )
    except ExperimentError as error:
        raise ExperimentError(
            "bad delta spec %r: %s" % (text, error)
        ) from None
    raise ExperimentError(
        "unknown delta kind %r (want prepend/announce/withdraw/"
        "localpref/flap/down/up)" % (kind,)
    )


def _count(text: str) -> int:
    """A non-negative integer spelled in at most
    :data:`~repro.experiment.schedule.MAX_COUNT_DIGITS` ASCII digits
    (``int`` would also take other scripts' digits, whitespace and
    ``_``, and refuses very long digit strings)."""
    if not is_count(text):
        raise ExperimentError(
            "expected at most %d ASCII digits, not %r"
            % (MAX_COUNT_DIGITS, text)
        )
    return int(text)


def _origin_for_side(session: WhatIfSession, side: str) -> int:
    if side == "re":
        return session.re_origin
    if side == "commodity":
        return session.commodity_origin
    raise ExperimentError("side must be 're' or 'commodity', not %r" % side)
