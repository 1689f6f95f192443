"""Configuration and ground-truth records for the R&E ecosystem generator.

The generator assigns every member AS a *policy* (how it ranks R&E vs
commodity routes, how it prepends) and every prefix a *plan* (which
systems respond, where they attach).  These records are the ground
truth that validation analyses compare inferences against — the
simulated counterpart of the paper's operator interviews.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ReproError
from ..netutil import Prefix
from .graph import MemberSide


class EgressClass(Enum):
    """A member's relative preference between R&E and commodity routes."""

    RE_PREFER = "re-prefer"              # higher localpref on R&E
    EQUAL = "equal"                      # same localpref; path length decides
    COMMODITY_PREFER = "commodity-prefer"

    def __str__(self) -> str:
        return self.value


class PrependClass(Enum):
    """Relative origin-AS prepending toward R&E vs commodity (Table 4)."""

    EQUAL = "R=C"
    MORE_COMMODITY = "R<C"   # prepended more toward commodity
    MORE_RE = "R>C"          # prepended more toward R&E
    NO_COMMODITY = "no-commodity"

    def __str__(self) -> str:
        return self.value


class PrefixKind(Enum):
    """How a prefix's responsive systems attach to the routing system."""

    NORMAL = "normal"              # all systems behind the origin AS
    MIXED = "mixed"                # one system behind a different AS (§4)
    INTERCONNECT = "interconnect"  # all systems on an interconnect router
    COVERED = "covered"            # excluded before seeding (§3.2)


@dataclass
class MemberTruth:
    """Ground truth for one member AS."""

    asn: int
    egress_class: EgressClass
    prepend_class: PrependClass
    side: MemberSide
    country: Optional[str] = None
    us_state: Optional[str] = None
    visible_commodity: bool = False   # announces prefixes to commodity
    hidden_commodity: bool = False    # commodity egress, not announced
    age_tiebreak_only: bool = False   # ignores AS path length (§A case J)
    re_neighbors: List[int] = field(default_factory=list)
    commodity_neighbors: List[int] = field(default_factory=list)
    behind_transit: Optional[int] = None  # set for asymmetric-transit cones

    @property
    def has_commodity_egress(self) -> bool:
        return self.visible_commodity or self.hidden_commodity


@dataclass
class SystemPlan:
    """One probeable system inside a prefix."""

    address: int
    prefix: Prefix
    attached_asn: int
    seed_source: str            # "isi" or "censys"
    alive: bool = True
    loss_probability: float = 0.004


@dataclass
class PrefixPlan:
    """Ground truth and probing plan for one prefix."""

    prefix: Prefix
    origin_asn: int
    side: MemberSide
    kind: PrefixKind = PrefixKind.NORMAL
    covered_by: Optional[Prefix] = None
    isi_covered: bool = False
    censys_covered: bool = False
    systems: List[SystemPlan] = field(default_factory=list)

    @property
    def alive_systems(self) -> List[SystemPlan]:
        return [s for s in self.systems if s.alive]


@dataclass
class OutageEvent:
    """A scheduled link failure during one experiment (§4's unexpected
    switches and oscillations)."""

    experiment: str        # "surf" or "internet2"
    down_after_round: int  # link fails after this round index completes
    up_after_round: Optional[int]  # restored after this round (None: stays down)
    a: int
    b: int
    victim_asn: int


@dataclass
class FeederPlan:
    """Collector feeder sessions (RouteViews/RIS analogue)."""

    commodity_sessions: Dict[int, int] = field(default_factory=dict)
    re_sessions: Dict[int, int] = field(default_factory=dict)
    member_feeders: List[int] = field(default_factory=list)
    vrf_split_feeders: List[int] = field(default_factory=list)
    tie_feeder: Optional[int] = None  # the AS with no most-frequent inference

    def all_sessions(self) -> Dict[int, int]:
        sessions = dict(self.commodity_sessions)
        for asn, count in self.re_sessions.items():
            sessions[asn] = sessions.get(asn, 0) + count
        return sessions


@dataclass
class REEcosystemConfig:
    """Knobs for the synthetic R&E ecosystem.

    Default mixture weights are calibrated from the paper's published
    joint distributions (Tables 1 and 4) so the headline proportions
    emerge from per-AS policy draws.  ``scale`` multiplies the member
    population (1.0 approximates the paper: 2,653 ASes, ~18K prefixes).
    """

    scale: float = 0.15

    # --- population ----------------------------------------------------
    n_members_full: int = 2653
    mean_prefixes_per_member: float = 6.8
    max_prefixes_per_member: int = 60
    us_member_share: float = 0.50
    covered_prefix_rate: float = 0.024          # 437 / 18,427
    n_tier1: int = 8
    n_transit_full: int = 48
    deep_transit_share: float = 0.40            # transits homed to transits
    deep2_transit_share: float = 0.15           # two levels below tier-1
    intl_deep_commodity_bias: float = 0.60      # extra chain depth abroad

    # --- egress policy mixture ------------------------------------------
    # Visible-commodity members: P(prepend class) then P(egress | prepend),
    # both read off Table 4 (mixed handled per-prefix).
    # The conditionals are Table 4's rows with the prefix-level mixed and
    # interconnect events factored out (those are drawn separately per
    # prefix and land in "mixed" / "always commodity" on their own).
    prepend_class_weights: Tuple[float, float, float] = (0.534, 0.414, 0.053)
    egress_given_equal: Tuple[float, float, float] = (0.807, 0.048, 0.145)
    egress_given_more_commodity: Tuple[float, float, float] = (0.882, 0.040, 0.078)
    egress_given_more_re: Tuple[float, float, float] = (0.550, 0.365, 0.085)
    # No-commodity members (Table 4 right column, mixed excluded).
    no_commodity_rate: float = 0.368
    egress_no_commodity: Tuple[float, float, float] = (0.925, 0.026, 0.049)
    hidden_commodity_extra: float = 0.05  # hidden egress for RE-preferring
    age_tiebreak_rate: float = 0.0015     # §B: 4 of 2,653 ASes

    # --- prefix-level events ---------------------------------------------
    mixed_prefix_rate: float = 0.038
    interconnect_prefix_rate: float = 0.017
    prepend_more_commodity_counts: Tuple[int, ...] = (1, 2, 3)
    prepend_more_commodity_weights: Tuple[float, ...] = (0.5, 0.35, 0.15)
    prepend_more_re_counts: Tuple[int, ...] = (1, 2)
    prepend_more_re_weights: Tuple[float, ...] = (0.7, 0.3)

    # --- seeding / responsiveness (§3.2 funnel) ---------------------------
    isi_coverage: float = 0.652
    censys_coverage: float = 0.232          # union with ISI -> 0.733
    alive_given_covered: float = 0.928      # 68.0% responsive overall
    three_systems_rate: float = 0.827
    base_loss_probability: float = 0.006
    flaky_system_rate: float = 0.04
    flaky_loss_probability: float = 0.08

    # --- asymmetric R&E transits (Table 2 off-diagonal) -------------------
    # (surf_side_kind, surf_lp, i2_side_kind, i2_lp, members, prefixes)
    # at full scale; kinds: "geant-peer", "geant-provider", "i2-peer",
    # "nordunet-provider".
    niks_members_full: int = 40
    niks_prefixes_full: int = 237
    asym_cells_full: Tuple[Tuple[str, int, str, int, int, int], ...] = (
        ("geant-peer", 102, "nordunet-provider", 50, 8, 34),   # [RE, switch]
        ("i2-peer", 102, "geant-provider", 50, 18, 90),        # [switch, RE]
        ("i2-peer", 102, "geant-provider", 40, 8, 40),         # [comm, RE]
        ("geant-peer", 102, "nordunet-provider", 40, 6, 28),   # [RE, comm]
        ("i2-peer", 50, "geant-provider", 40, 11, 54),         # [comm, switch]
        ("geant-peer", 50, "nordunet-provider", 40, 10, 51),   # [switch, comm]
    )

    # --- collectors --------------------------------------------------------
    n_commodity_feeders_full: int = 40
    commodity_feeder_sessions: Tuple[int, int] = (5, 45)
    n_re_feeders: int = 5
    re_feeder_sessions: Tuple[int, int] = (2, 8)
    n_member_feeders: int = 26
    n_vrf_split_feeders: int = 3
    background_flap_rate_per_hour: float = 9.0  # §3.3's residual churn

    # --- outages ------------------------------------------------------------
    surf_switch_to_commodity: int = 1
    surf_oscillating: int = 5
    internet2_switch_to_commodity: int = 3
    internet2_oscillating: int = 2

    def n_members(self) -> int:
        return max(12, round(self.n_members_full * self.scale))

    def n_transits(self) -> int:
        return max(6, round(self.n_transit_full * self.infra_scale()))

    def n_commodity_feeders(self) -> int:
        return max(4, round(self.n_commodity_feeders_full * self.infra_scale()))

    def infra_scale(self) -> float:
        return max(0.2, min(1.0, self.scale ** 0.5))

    def scaled(self, count_full: int, minimum: int = 1) -> int:
        return max(minimum, round(count_full * self.scale))


#: Named ecosystem variants for campaign sweeps (``repro sweep
#: --scenarios``).  Each maps scenario name -> :class:`REEcosystemConfig`
#: field overrides; ``"baseline"`` is the unmodified config.  The
#: variants probe the robustness dimensions the paper's single-topology
#: runs cannot: policy-mixture shifts (does the ~81% always-R&E
#: fraction survive a commodity-leaning egress mixture?), seeding
#: sparsity (§3.2 funnel pressure), probe flakiness (loss-exclusion
#: pressure on Table 1), and transit-graph depth (longer AS paths
#: around the prepend break-even).
SCENARIO_PRESETS: Dict[str, Dict[str, object]] = {
    "baseline": {},
    "commodity-heavy": {
        # Shift the egress mixture toward commodity preference.
        "egress_given_equal": (0.65, 0.08, 0.27),
        "egress_given_more_commodity": (0.70, 0.08, 0.22),
        "no_commodity_rate": 0.25,
    },
    "re-dominant": {
        # More R&E-only members, fewer hidden commodity egresses.
        "no_commodity_rate": 0.55,
        "hidden_commodity_extra": 0.02,
        "egress_given_equal": (0.88, 0.03, 0.09),
    },
    "sparse-seeding": {
        # Weaker ISI/Censys coverage: fewer probeable systems.
        "isi_coverage": 0.45,
        "censys_coverage": 0.15,
        "alive_given_covered": 0.85,
        "three_systems_rate": 0.60,
    },
    "flaky-probes": {
        # Lossier data plane: more prefixes excluded for packet loss.
        "base_loss_probability": 0.02,
        "flaky_system_rate": 0.12,
        "flaky_loss_probability": 0.15,
    },
    "deep-transit": {
        # Deeper commodity transit chains: longer commodity AS paths.
        "deep_transit_share": 0.60,
        "deep2_transit_share": 0.30,
        "intl_deep_commodity_bias": 0.80,
    },
}

#: Config fields a spec/scenario may override, with their declared
#: types.  Everything on :class:`REEcosystemConfig` is fair game; the
#: map exists to fail loudly on typos and mistyped values instead of
#: silently ignoring an override or failing deep in the build.
_CONFIG_TYPES = None


def _config_types() -> Dict[str, object]:
    global _CONFIG_TYPES
    if _CONFIG_TYPES is None:
        _CONFIG_TYPES = typing.get_type_hints(REEcosystemConfig)
    return _CONFIG_TYPES


def config_field_names() -> frozenset:
    """The overridable :class:`REEcosystemConfig` field names."""
    return frozenset(_config_types())


def _fits(kind, value) -> bool:
    """Whether *value* is a valid value of the declared field type
    *kind*: ``int`` (not bool), ``float`` (any finite number), ``str``,
    or a tuple type (any sequence of fitting elements)."""
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    if kind is str:
        return isinstance(value, str)
    if not isinstance(value, (list, tuple)):
        return False
    items = typing.get_args(kind)
    if len(items) == 2 and items[1] is Ellipsis:
        return all(_fits(items[0], item) for item in value)
    return len(value) == len(items) and all(
        _fits(item_kind, item) for item_kind, item in zip(items, value)
    )


def _check_override(name: str, value) -> None:
    kind = _config_types()[name]
    if not _fits(kind, value) or (name == "scale" and value <= 0):
        raise ReproError(
            "config override %s=%r is not a valid %s"
            % (
                name, value,
                "positive number" if name == "scale"
                else kind.__name__ if isinstance(kind, type)
                else str(kind).replace("typing.", ""),
            )
        )


def _freeze_value(value):
    """JSON round-trips turn tuples into lists; config fields are
    declared as tuples, so normalise sequences back."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def apply_config_overrides(
    config: REEcosystemConfig, overrides: Mapping[str, object]
) -> REEcosystemConfig:
    """Return *config* with *overrides* applied (pure; validates field
    names and value types, so a misspelt or mistyped override fails
    with a :class:`~repro.errors.ReproError` naming the field instead
    of silently noop-ing or failing mid-build)."""
    if not overrides:
        return config
    names = config_field_names()
    unknown = sorted(set(overrides) - names)
    if unknown:
        raise ReproError(
            "unknown REEcosystemConfig override(s): %s (known fields: "
            "see repro.topology.re_config.REEcosystemConfig)"
            % ", ".join(unknown)
        )
    for name, value in overrides.items():
        _check_override(name, value)
    return dataclasses.replace(
        config,
        **{name: _freeze_value(value) for name, value in overrides.items()},
    )


def scenario_overrides(name: str) -> Dict[str, object]:
    """The override dict for scenario *name* (raises on unknown)."""
    try:
        return dict(SCENARIO_PRESETS[name])
    except KeyError:
        raise ReproError(
            "unknown scenario %r (known: %s)"
            % (name, ", ".join(sorted(SCENARIO_PRESETS)))
        ) from None
