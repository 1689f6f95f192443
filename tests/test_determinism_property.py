"""Determinism: the experiment result is a pure function of the seed.

The serialised :class:`ExperimentResult` — probe records plus update
log — must be byte-identical across two runs of the same seed, and
must differ between seeds (so the serialisation actually
discriminates).  Pooled campaign cells are checked against inline ones
in ``test_differential.py``.
"""

import io

from repro import REEcosystemConfig, build_ecosystem
from repro.dataio import dump_experiment, dump_update_log
from repro.experiment.runner import ExperimentRunner

#: Tiny scale: the checks need several runs, not a big population.
SCALE = 0.04

_CACHE = {}


def _result_bytes(result) -> str:
    stream = io.StringIO()
    dump_experiment(result, stream)
    dump_update_log(result.update_log, stream)
    return stream.getvalue()


def _baseline(seed):
    """(ecosystem, serialised run) for *seed*, built once and cached."""
    if seed not in _CACHE:
        ecosystem = build_ecosystem(
            REEcosystemConfig(scale=SCALE), seed=seed
        )
        result = ExperimentRunner(ecosystem, "surf", seed=seed).run()
        _CACHE[seed] = (ecosystem, _result_bytes(result))
    return _CACHE[seed]


def test_same_seed_twice_is_byte_identical():
    ecosystem, expected = _baseline(0)
    rerun = ExperimentRunner(ecosystem, "surf", seed=0).run()
    assert _result_bytes(rerun) == expected


def test_different_seeds_differ():
    """Non-triviality guard: the serialisation actually discriminates."""
    _, first = _baseline(0)
    _, second = _baseline(1)
    assert first != second
