"""Simulated time.

The experiments run on simulated time measured in seconds since an
epoch chosen per experiment (the paper's runs are anchored at
2025-05-29 and 2025-06-05 UTC).  Time is advanced explicitly by the
experiment runner, so results are fully deterministic.
"""

from __future__ import annotations

SECONDS_PER_HOUR = 3600


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * SECONDS_PER_HOUR
