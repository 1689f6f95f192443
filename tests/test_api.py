"""The ExperimentSpec facade: validation, serialisation, digests, and
run_experiment equivalence (PR 5 satellite).

The spec is the campaign checkpoint key, so these tests pin the parts
that must stay stable: JSON round-trips reproduce the spec exactly,
equal specs digest equally however their overrides were spelled, and
the digest of a fixed spec never drifts across builds (a drift would
orphan every existing checkpoint).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    run_experiment,
)
from repro.errors import ExperimentError, ReproError
from repro.experiment.runner import ExperimentRunner
from repro.obs.capture import Capture, EventRing, use_capture
from repro.rng import SeedTree
from repro.seeds.selection import select_seeds
from repro.topology.re_ecosystem import build_ecosystem

SCALE = 0.06
SEED = 7


# ---------------------------------------------------------------------
# Validation


def test_spec_defaults_are_valid():
    spec = ExperimentSpec()
    assert spec.experiment == "surf"
    assert spec.scenario == "baseline"
    assert spec.run_seed == 0
    assert spec.num_rounds == 9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"experiment": "esnet"},
        {"scale": 0.0},
        {"scale": -1.0},
        {"pps": 0},
        {"seed": "a"},
        {"seed": True},
        {"frontier_capacity": 0},
        {"provenance_capacity": 0},
        {"scenario": "no-such-scenario"},
        {"config_overrides": {"no_such_field": 1}},
        {"fault_spec": "bogus=1"},
    ],
)
def test_spec_validation_rejects(kwargs):
    # ReproError is the common base: plain-field violations raise
    # ExperimentError, scenario/override/fault-spec problems raise
    # their own ReproError subtypes — all at construction time.
    with pytest.raises(ReproError):
        ExperimentSpec(**kwargs)


def test_replace_revalidates():
    spec = ExperimentSpec()
    assert spec.replace(seed=3).seed == 3
    with pytest.raises(ExperimentError):
        spec.replace(pps=0)


def test_run_seed_convention():
    assert ExperimentSpec(experiment="surf", seed=5).run_seed == 5
    assert ExperimentSpec(experiment="internet2", seed=5).run_seed == 6


def test_label():
    spec = ExperimentSpec(experiment="internet2", seed=3,
                          scenario="sparse-seeding")
    assert spec.label() == "internet2/seed3/sparse-seeding"


# ---------------------------------------------------------------------
# Serialisation and digests


def test_json_round_trip_defaults():
    spec = ExperimentSpec()
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.digest() == spec.digest()


def test_json_round_trip_every_field():
    spec = ExperimentSpec(
        experiment="internet2",
        seed=11,
        scale=0.07,
        scenario="commodity-heavy",
        config_overrides={"no_commodity_rate": 0.25, "base_loss_probability": 0.01},
        configs=("0-0", "1-0", "0-1"),
        pps=50,
        fault_spec="flap=1,loss=1",
        provenance_capacity=500,
        provenance_prefixes=("10.0.0.0/16",),
        frontier_capacity=300,
        profile=True,
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.digest() == spec.digest()
    # as_dict is JSON-safe and schema-stamped.
    data = json.loads(spec.to_json())
    assert data["schema"] == SPEC_SCHEMA_VERSION
    assert data["config_overrides"] == {
        "base_loss_probability": 0.01, "no_commodity_rate": 0.25,
    }


def test_config_overrides_normalised():
    """Dict and item-tuple spellings are the same spec — and hash to
    the same checkpoint key."""
    as_dict = ExperimentSpec(
        config_overrides={"base_loss_probability": 0.02, "no_commodity_rate": 0.1}
    )
    as_items = ExperimentSpec(
        config_overrides=(
            ("no_commodity_rate", 0.1), ("base_loss_probability", 0.02),
        )
    )
    assert as_dict == as_items
    assert as_dict.digest() == as_items.digest()


def test_digest_stability():
    """Pinned digests: a drift here breaks every existing campaign
    checkpoint directory, so it must be deliberate (bump
    SPEC_SCHEMA_VERSION and say so in CHANGES.md).  Re-pinned for
    schema 6 (the execution fields removed)."""
    assert ExperimentSpec().digest() == "85dd61d7f098c22f"
    assert ExperimentSpec(
        experiment="surf", seed=3, scale=0.05
    ).digest() == "0b14bb00d9e4a798"
    assert ExperimentSpec(
        experiment="internet2", seed=7, scenario="re-dominant",
        config_overrides={"no_commodity_rate": 0.5},
    ).digest() == "49622445e146ab10"


def test_digest_changes_with_simulation_fields():
    base = ExperimentSpec()
    assert base.replace(seed=1).digest() != base.digest()
    assert base.replace(experiment="internet2").digest() != base.digest()
    assert base.replace(scenario="flaky-probes").digest() != base.digest()
    assert base.replace(fault_spec="loss=1").digest() != base.digest()


def test_from_dict_rejects_unknown_fields_and_schemas():
    with pytest.raises(ExperimentError, match="unknown ExperimentSpec"):
        ExperimentSpec.from_dict({"schema": SPEC_SCHEMA_VERSION,
                                  "flux_capacitor": 1})
    with pytest.raises(ExperimentError, match="schema"):
        ExperimentSpec.from_dict({"schema": 999})


@pytest.mark.parametrize(
    "text",
    ["nope", "[1]", '{"configs": 3}', '{"execution": 5}'],
    ids=["invalid-json", "not-an-object", "configs-not-a-list",
         "execution-not-a-mapping"],
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ExperimentError):
        ExperimentSpec.from_json(text)


@pytest.mark.parametrize("schema", [3, 4])
def test_from_dict_drops_legacy_object_decision_backend(schema):
    """Schema-3/4 documents all carry ``decision_backend``; "object"
    is what remains, so those documents read as the same spec."""
    spec = ExperimentSpec(seed=11, scale=0.07)
    data = json.loads(spec.to_json())
    data.update(schema=schema, decision_backend="object")
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.digest() == spec.digest()


@pytest.mark.parametrize("schema", [3, 4])
def test_from_dict_rejects_removed_decision_backend(schema):
    data = json.loads(ExperimentSpec().to_json())
    data.update(schema=schema, decision_backend="array")
    with pytest.raises(ExperimentError, match="'array' was removed"):
        ExperimentSpec.from_dict(data)
    # Current-schema documents have no such field at all.
    data.update(schema=SPEC_SCHEMA_VERSION, decision_backend="object")
    with pytest.raises(ExperimentError, match="unknown ExperimentSpec"):
        ExperimentSpec.from_dict(data)


#: Mistyped documents that used to escape ``from_json`` as a raw
#: TypeError / AttributeError, or to load and fail (or silently
#: misbehave) only at run time.
MISTYPED_DOCUMENTS = [
    '{"scale": "x"}',
    '{"scale": null}',
    '{"pps": "100"}',
    '{"frontier_capacity": "3"}',
    '{"config_overrides": 3}',
    '{"provenance_prefixes": 5}',
    '{"fault_spec": 7}',
    '{"seed": "a"}',
    '{"seed": true}',
    '{"configs": [1]}',
]


@pytest.mark.parametrize("text", MISTYPED_DOCUMENTS, ids=MISTYPED_DOCUMENTS)
def test_from_json_rejects_mistyped_fields(text):
    with pytest.raises(ExperimentError):
        ExperimentSpec.from_json(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)
_SPEC_KEYS = sorted(
    {"schema", "execution", "workers", "shard_size", "shard_timeout",
     "decision_backend"} | set(ExperimentSpec().as_dict())
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(_SPEC_KEYS), _JSON_VALUES))
def test_from_json_raises_only_repro_errors(document):
    """Any JSON object over the spec's keys either loads or raises a
    ReproError subclass — never a raw TypeError/AttributeError."""
    try:
        spec = ExperimentSpec.from_json(json.dumps(document))
    except ReproError:
        return
    assert ExperimentSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("schema", [3, 4, 5])
def test_from_dict_reads_legacy_execution_fields(schema):
    """Schema 3 to 5 documents load at schema 6: their execution
    fields only ever shaped the removed shard level, so they are
    dropped and every simulation field is kept."""
    spec = ExperimentSpec(
        experiment="internet2", seed=11, scale=0.07,
        configs=("0-0", "1-0"), fault_spec="loss=1",
    )
    data = json.loads(spec.to_json())
    data["schema"] = schema
    if schema == 3:
        data.update(workers=4, shard_size=8, shard_timeout=30.0)
    else:
        data["execution"] = {
            "workers": 4, "shard_size": 8, "shard_timeout": 30.0,
            "max_retries": 5, "backoff_base": 0.0, "backend": "fork",
        }
    if schema == 4:
        data["decision_backend"] = "object"
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.digest() == spec.digest()
    assert json.loads(again.to_json())["schema"] == 6


def test_from_dict_reads_schema_3_flat_execution_keys():
    spec = ExperimentSpec(seed=11, scale=0.07)
    data = json.loads(spec.to_json())
    data.update(schema=3, workers=4, shard_size=8, shard_timeout=30.0)
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.digest() == spec.digest()


@pytest.mark.parametrize(
    "extra",
    [{"execution": {"workers": 2}}, {"workers": 2}],
    ids=["nested", "flat"],
)
def test_current_schema_rejects_execution_fields(extra):
    data = json.loads(ExperimentSpec().to_json())
    data.update(extra)
    with pytest.raises(ExperimentError, match="unknown ExperimentSpec"):
        ExperimentSpec.from_dict(data)


# ---------------------------------------------------------------------
# run_experiment


def _round_key(r):
    return (
        str(r.config),
        r.started_at,
        r.duration,
        r.response_count(),
    )


def test_run_experiment_matches_direct_runner():
    spec = ExperimentSpec(experiment="surf", seed=SEED, scale=SCALE)
    via_api = run_experiment(spec)

    ecosystem = build_ecosystem(spec.ecosystem_config(), seed=SEED)
    seed_plan = select_seeds(
        ecosystem, seed_tree=SeedTree(SEED).child("seeds")
    )
    direct = ExperimentRunner(
        ecosystem, "surf", seed=spec.run_seed, seed_plan=seed_plan
    ).run()

    assert [_round_key(r) for r in via_api.rounds] == [
        _round_key(r) for r in direct.rounds
    ]
    assert via_api.probed_prefixes() == direct.probed_prefixes()


def test_run_experiment_internet2_uses_seed_plus_one():
    """The pair convention: internet2 runs at ``seed + 1`` over the
    base seed's ecosystem and probe-seed plan."""
    spec = ExperimentSpec(experiment="internet2", seed=SEED, scale=SCALE)
    via_api = run_experiment(spec)
    assert via_api.experiment == "internet2"

    ecosystem = build_ecosystem(spec.ecosystem_config(), seed=SEED)
    seed_plan = select_seeds(
        ecosystem, seed_tree=SeedTree(SEED).child("seeds")
    )
    direct = ExperimentRunner(
        ecosystem, "internet2", seed=SEED + 1, seed_plan=seed_plan
    ).run()
    assert [_round_key(r) for r in via_api.rounds] == [
        _round_key(r) for r in direct.rounds
    ]


def test_run_experiment_attaches_provenance_when_requested():
    spec = ExperimentSpec(
        experiment="surf", seed=SEED, scale=SCALE,
        provenance_capacity=200,
    )
    result = run_experiment(spec)
    assert result.provenance_events is not None
    assert len(result.provenance_events) > 0


def test_run_experiment_defers_to_active_recorder():
    """With a recorder already installed, the spec's provenance options
    must not shadow it: events land in the caller's recorder and
    nothing is attached to the result."""
    spec = ExperimentSpec(
        experiment="surf", seed=SEED, scale=SCALE,
        provenance_capacity=200,
    )
    recorder = EventRing(capacity=200)
    with use_capture(Capture(provenance=recorder)):
        result = run_experiment(spec)
    assert result.provenance_events is None
    assert len(recorder.events()) > 0
