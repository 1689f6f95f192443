"""Tests for the simulated-time unit conversions."""

from repro.simtime import hours


class TestConversions:
    def test_hours(self):
        assert hours(1.5) == 5400.0
