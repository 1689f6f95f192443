"""Golden snapshot of the CLI report.

``python -m repro reproduce`` at the default scale and seed must
render exactly the text in ``tests/golden/reproduce_seed.txt``.  The
snapshot pins every table and figure at once, so an accidental change
to classification, aggregation, or formatting shows up as a diff
rather than a silently shifted number.

Regenerate intentionally with::

    pytest tests/test_golden_report.py --update-golden
"""

import os
import re

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "reproduce_seed.txt"
)


def _reproduce_stdout(capsys, *extra_args) -> str:
    assert main(["reproduce", *extra_args]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def golden_text():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as stream:
        return stream.read()


def test_reproduce_matches_golden(capsys, update_golden):
    output = _reproduce_stdout(capsys)
    if update_golden:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as stream:
            stream.write(output)
        pytest.skip("golden snapshot regenerated")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as stream:
        assert output == stream.read()


def test_reproduce_with_workers_matches_golden(capsys, golden_text):
    """The CLI's --workers path renders the same report byte for
    byte."""
    output = _reproduce_stdout(capsys, "--workers", "2")
    assert output == golden_text


def _table1_percent(text: str, experiment: str, row: str) -> float:
    table = text.split("Table 1 (%s)" % experiment, 1)[1]
    table = table.split("\n\n", 1)[0]
    match = re.search(
        r"^%s\s+\d+\s+(\d+\.\d)%%" % re.escape(row), table, re.M
    )
    assert match, "row %r missing from Table 1 (%s)" % (row, experiment)
    return float(match.group(1))


class TestHeadlineNumbers:
    """The golden text carries the paper's headline results: the large
    majority of prefixes always return over R&E, and a high-single-
    digit share switches with prepending (§4, Table 1)."""

    @pytest.mark.parametrize("experiment", ["surf", "internet2"])
    def test_always_re_dominates(self, golden_text, experiment):
        share = _table1_percent(golden_text, experiment, "Always R&E")
        assert 75.0 <= share <= 90.0

    @pytest.mark.parametrize("experiment", ["surf", "internet2"])
    def test_switch_to_re_share(self, golden_text, experiment):
        share = _table1_percent(golden_text, experiment, "Switch to R&E")
        assert 5.0 <= share <= 13.0

    def test_all_sections_present(self, golden_text):
        for marker in (
            "Table 1 (surf)",
            "Table 1 (internet2)",
            "Table 2",
            "Table 3",
            "Table 4",
            "Figure 3",
            "Figure 8",
        ):
            assert marker in golden_text, marker
