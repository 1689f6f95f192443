"""Fixtures for the end-to-end benchmark's smoke test.

``benchmarks/conftest.py`` has an autouse ``bench_emit`` fixture that
appends every test to ``BENCH_HISTORY.jsonl`` in the working
directory, which is the committed history when pytest runs from the
repository root.  The smoke test writes only into its temporary
directories, so this no-op fixture replaces it here.
"""

import pytest


@pytest.fixture(autouse=True)
def bench_emit():
    yield {}
