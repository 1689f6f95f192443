"""The prepend-configuration schedule (§3.3).

A configuration "x-y" means x extra prepends of the R&E origin ASN and
y extra prepends of the commodity origin ASN.  The paper's order first
decreases R&E prepends, then increases commodity prepends, so exactly
one announcement changes between consecutive tests — minimising the
variables that could affect routing decisions, and giving route age the
semantics analysed in Appendix A.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from ..bgp.attributes import MAX_PREPENDS
from ..errors import ExperimentError
from ..simtime import hours

#: The paper's nine tests, in order.
PREPEND_SEQUENCE: Tuple[str, ...] = (
    "4-0", "3-0", "2-0", "1-0", "0-0", "0-1", "0-2", "0-3", "0-4",
)


#: One prepend count: ASCII digits only (``str.isdecimal`` would let
#: other scripts' digits spell a non-canonical label).
_COUNT = re.compile(r"[0-9]+")

#: Most digits a count may spell: 10 cover 2**32 - 1, and the bound
#: keeps ``int()`` off digit strings it refuses to parse (over 4,300).
MAX_COUNT_DIGITS = 10


def is_count(text: str) -> bool:
    """True if *text* is a count: 1 to :data:`MAX_COUNT_DIGITS` ASCII
    digits."""
    return len(text) <= MAX_COUNT_DIGITS and _COUNT.fullmatch(text) is not None


def parse_prepend_config(text: str) -> Tuple[int, int]:
    """Parse "x-y" into (re_prepends, commodity_prepends), each at most
    :data:`~repro.bgp.attributes.MAX_PREPENDS`."""
    parts = text.split("-")
    if len(parts) != 2 or not all(is_count(p) for p in parts):
        raise ExperimentError(
            "bad prepend configuration %r (expected two counts of at most"
            " %d ASCII digits, as in \"4-0\")"
            % (text, MAX_COUNT_DIGITS)
        )
    counts = int(parts[0]), int(parts[1])
    if max(counts) > MAX_PREPENDS:
        raise ExperimentError(
            "prepend configuration %r exceeds %d prepends"
            % (text, MAX_PREPENDS)
        )
    return counts


def format_prepend_config(re_prepends: int, commodity_prepends: int) -> str:
    if re_prepends < 0 or commodity_prepends < 0:
        raise ExperimentError("prepend counts must be non-negative")
    return "%d-%d" % (re_prepends, commodity_prepends)


@dataclass
class ExperimentSchedule:
    """Timing of one experiment.

    ``commodity_lead_seconds`` is how long the commodity announcement
    has been up before the first R&E announcement (the paper verified
    the commodity prefix carried no R&E path by announcing it first).
    ``soak_seconds`` is the wait between a configuration change and the
    next probing round (one hour, chosen against route flap damping).
    """

    configs: Tuple[str, ...] = PREPEND_SEQUENCE
    commodity_lead_seconds: float = hours(4)
    initial_soak_seconds: float = hours(1)
    soak_seconds: float = hours(1)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ExperimentError("schedule needs at least one config")
        previous = None
        for config in self.configs:
            re_p, comm_p = parse_prepend_config(config)
            if previous is not None:
                changed = int(re_p != previous[0]) + int(comm_p != previous[1])
                if changed > 1:
                    raise ExperimentError(
                        "configs %s -> %s change both announcements"
                        % (format_prepend_config(*previous), config)
                    )
            previous = (re_p, comm_p)

    @property
    def num_rounds(self) -> int:
        return len(self.configs)

    def parsed_configs(self) -> List[Tuple[int, int]]:
        return [parse_prepend_config(c) for c in self.configs]

    def re_phase_configs(self) -> List[str]:
        """Configurations in the decreasing-R&E-prepends phase
        (commodity prepends still zero)."""
        return [c for c in self.configs if parse_prepend_config(c)[1] == 0]

    def commodity_phase_configs(self) -> List[str]:
        return [c for c in self.configs if parse_prepend_config(c)[1] > 0]
