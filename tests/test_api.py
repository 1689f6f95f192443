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
        {"fault_spec": "loss=\u0663"},
        {"fault_spec": "loss=65537"},
        # int() refuses digit strings past 4,300 digits; counts are
        # bounded to 10 digits before it is called.
        {"configs": ("9" * 5000 + "-0",)},
        {"configs": ("0-" + "9" * 11,)},
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
    schema 7 (the profile field removed)."""
    assert ExperimentSpec().digest() == "ff40a21a34686cd0"
    assert ExperimentSpec(
        experiment="surf", seed=3, scale=0.05
    ).digest() == "a3b1ce511a92a0fe"
    assert ExperimentSpec(
        experiment="internet2", seed=7, scenario="re-dominant",
        config_overrides={"no_commodity_rate": 0.5},
    ).digest() == "3c981cfbc26ad073"


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
    ["nope", "[1]", '{"configs": 3}', '{"execution": 5}', "[" * 100_000],
    ids=["invalid-json", "not-an-object", "configs-not-a-list",
         "execution-not-a-mapping", "nested-too-deep"],
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
    '{"configs": ["%s-0"]}' % ("9" * 5000,),
]


@pytest.mark.parametrize(
    "text", MISTYPED_DOCUMENTS, ids=[text[:40] for text in MISTYPED_DOCUMENTS]
)
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


#: Mistyped ``config_overrides`` values that used to load, digest
#: and then fail mid-build with a raw TypeError.
MISTYPED_OVERRIDES = [
    '{"config_overrides": {"scale": "x"}}',
    '{"config_overrides": {"scale": -1}}',
    '{"config_overrides": {"scale": 0}}',
    '{"config_overrides": {"n_tier1": 2.5}}',
    '{"config_overrides": {"n_tier1": true}}',
    '{"config_overrides": {"flaky_loss_probability": "0.1"}}',
    '{"config_overrides": {"prepend_class_weights": [0.5, 0.5]}}',
    '{"config_overrides": {"prepend_more_re_counts": [1, "2"]}}',
    '{"config_overrides": {"asym_cells_full": [["a", 1, "b", 2, 3]]}}',
]


@pytest.mark.parametrize("text", MISTYPED_OVERRIDES, ids=MISTYPED_OVERRIDES)
def test_from_json_rejects_mistyped_overrides_naming_the_field(text):
    name = next(iter(json.loads(text)["config_overrides"]))
    with pytest.raises(ReproError, match=name):
        ExperimentSpec.from_json(text)


def test_well_typed_overrides_apply():
    spec = ExperimentSpec.from_json(json.dumps({"config_overrides": {
        "scale": 2, "n_tier1": 5, "flaky_loss_probability": 0,
        "prepend_more_re_counts": [1, 3],
        "asym_cells_full": [["geant-peer", 1, "x", 2, 3, 4]],
    }}))
    config = spec.ecosystem_config()
    assert config.scale == 2 and config.n_tier1 == 5
    assert config.prepend_more_re_counts == (1, 3)
    assert config.asym_cells_full == (("geant-peer", 1, "x", 2, 3, 4),)


_CONFIG_KEYS = sorted(
    ExperimentSpec().ecosystem_config().__dataclass_fields__
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.dictionaries(st.sampled_from(_SPEC_KEYS), _JSON_VALUES, max_size=2),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES,
                    min_size=1, max_size=3),
)
def test_ecosystem_config_raises_only_repro_errors(document, overrides):
    """Arbitrary JSON as spec fields and as override values either
    yields an effective config whose sizes compute, or raises a
    ReproError."""
    document = dict(document, config_overrides=overrides)
    try:
        config = ExperimentSpec.from_json(
            json.dumps(document)
        ).ecosystem_config()
    except ReproError:
        return
    assert config.n_members() >= 12
    assert config.n_transits() >= 6
    assert config.n_commodity_feeders() >= 4


@pytest.mark.parametrize("config", ["255-0", "0-1000000", "\u0663-0"])
def test_spec_rejects_out_of_range_or_non_ascii_configs(config):
    with pytest.raises(ExperimentError):
        ExperimentSpec(configs=[config])


def test_spec_accepts_the_largest_prepend_config():
    assert ExperimentSpec(configs=["254-0"]).configs == ("254-0",)


@pytest.mark.parametrize("schema", [3, 4, 5])
def test_from_dict_reads_legacy_execution_fields(schema):
    """Schema 3 to 5 documents load at schema 7: their execution
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
    assert json.loads(again.to_json())["schema"] == 7


@pytest.mark.parametrize("schema", [3, 4, 5, 6])
def test_from_dict_drops_legacy_profile(schema):
    """``profile`` (schemas 3 to 6) only switched on the removed phase
    profiler; a document asking for it loads equal to the same spec
    without it."""
    spec = ExperimentSpec(seed=11, scale=0.07, frontier_capacity=64)
    data = json.loads(spec.to_json())
    data.update(schema=schema, profile=True)
    again = ExperimentSpec.from_dict(data)
    assert again == spec
    assert again.digest() == spec.digest()
    # The current schema has no such field.
    data["schema"] = SPEC_SCHEMA_VERSION
    with pytest.raises(ExperimentError, match="unknown ExperimentSpec"):
        ExperimentSpec.from_dict(data)


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
