"""Campaign sweeps (PR 5 tentpole): grids, the identity contract,
resumable checkpoints, cross-seed aggregation, and the sweep CLI.

The load-bearing guarantees:

- a cell's record (and, with ``keep_results``, its full result) is
  byte-identical to a standalone ``run_experiment`` of the same spec,
  whatever the campaign pool size;
- re-invoking a campaign skips checkpointed cells and recomputes only
  the missing ones, and the re-rendered ``campaign_summary.json`` is
  byte-identical to the uninterrupted run's;
- cells run as network groups: each ``(seed, ecosystem config)``
  network is built once per campaign run, only for pending cells, and
  a failing cell does not take its group-mates down;
- ``run_experiment_pair`` preserves every ``run_both_experiments``
  guarantee, including the shared seed-plan object.
"""

import functools
import json
import os

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.cli import main
from repro.core.classify import InferenceCategory
from repro.core.sweep import (
    PAPER_TABLE1_SHARES,
    PREPEND_INSENSITIVE,
    bootstrap_ci,
    build_campaign_summary,
)
from repro.errors import ExperimentError
from repro.experiment.campaign import (
    CampaignRunner,
    CellWork,
    cell_record,
    dispatch_cells,
    group_cells,
    identity_view,
    known_scenarios,
    plan_grid,
    run_experiment_pair,
)
from repro.experiment.scheduler import fork_available
from repro.obs import MetricsRegistry, use_registry
from repro.topology.re_config import (
    REEcosystemConfig,
    SCENARIO_PRESETS,
    apply_config_overrides,
    scenario_overrides,
)
from repro.topology.re_ecosystem import build_ecosystem

SCALE = 0.05
SEEDS = (0, 3)


# ---------------------------------------------------------------------
# Scenarios and grids


def test_every_scenario_preset_applies():
    for name in known_scenarios():
        overrides = scenario_overrides(name)
        config = apply_config_overrides(REEcosystemConfig(), overrides)
        assert isinstance(config, REEcosystemConfig)
        # A preset never mutates the shared default instance.
        assert overrides == SCENARIO_PRESETS[name]


def test_unknown_scenario_rejected_at_plan_time():
    with pytest.raises(Exception):
        plan_grid([0], scenarios=["atlantis"], scale=SCALE)


def test_plan_grid_order_and_uniqueness():
    specs = plan_grid(
        [1, 0], scenarios=["baseline", "flaky-probes"], scale=SCALE
    )
    labels = [spec.label() for spec in specs]
    assert labels == [
        "surf/seed1/baseline",
        "internet2/seed1/baseline",
        "surf/seed1/flaky-probes",
        "internet2/seed1/flaky-probes",
        "surf/seed0/baseline",
        "internet2/seed0/baseline",
        "surf/seed0/flaky-probes",
        "internet2/seed0/flaky-probes",
    ]
    assert len({spec.digest() for spec in specs}) == len(specs)


def test_plan_grid_rejects_duplicates():
    with pytest.raises(ExperimentError, match="duplicate"):
        plan_grid([0, 0], scale=SCALE)


# ---------------------------------------------------------------------
# The pair dispatcher


def _round_key(r):
    return (str(r.config), r.started_at, r.duration, r.response_count())


def _result_key(result):
    return (
        [_round_key(r) for r in result.rounds],
        sorted(str(p) for p in result.probed_prefixes()),
        len(result.update_log),
        len(result.outages_applied),
    )


@pytest.fixture(scope="module")
def small_ecosystem():
    return build_ecosystem(
        ExperimentSpec(scale=SCALE).ecosystem_config(), seed=SEEDS[0]
    )


def test_pair_serial_shares_seed_plan(small_ecosystem):
    surf, internet2 = run_experiment_pair(small_ecosystem, seed=SEEDS[0])
    assert surf.seed_plan is internet2.seed_plan
    assert surf.experiment == "surf"
    assert internet2.experiment == "internet2"


# ---------------------------------------------------------------------
# Cell identity and resume


def _grid(tmp_path):
    specs = plan_grid(
        SEEDS, scenarios=["baseline"], experiments=["surf"], scale=SCALE
    )
    return specs, str(tmp_path / "campaign")


def test_cell_identical_to_standalone_run(tmp_path):
    specs, directory = _grid(tmp_path)
    campaign = CampaignRunner(
        specs, directory, keep_results=True
    ).run()
    assert campaign.completed == len(specs)
    assert campaign.skipped == 0
    for spec in specs:
        standalone = run_experiment(spec)
        ecosystem = build_ecosystem(
            spec.ecosystem_config(), seed=spec.seed
        )
        expected = identity_view(
            cell_record(spec, standalone, ecosystem)
        )
        assert identity_view(
            campaign.records[spec.digest()]
        ) == expected
        assert _result_key(
            campaign.results[spec.digest()]
        ) == _result_key(standalone)


def test_pooled_campaign_summary_identical_to_serial(tmp_path):
    specs, _ = _grid(tmp_path)
    serial_dir = str(tmp_path / "serial")
    pooled_dir = str(tmp_path / "pooled")
    CampaignRunner(specs, serial_dir, pool_workers=1).run()
    CampaignRunner(specs, pooled_dir, pool_workers=2).run()
    with open(os.path.join(serial_dir, "campaign_summary.json")) as fh:
        serial_bytes = fh.read()
    with open(os.path.join(pooled_dir, "campaign_summary.json")) as fh:
        pooled_bytes = fh.read()
    assert serial_bytes == pooled_bytes
    for spec in specs:
        with open(os.path.join(
            serial_dir, "cells", "%s.json" % spec.digest()
        )) as fh:
            one = identity_view(json.load(fh))
        with open(os.path.join(
            pooled_dir, "cells", "%s.json" % spec.digest()
        )) as fh:
            two = identity_view(json.load(fh))
        assert one == two


def _counted(run):
    """``(run(), counters)`` with *run* called under a fresh metrics
    registry (``campaign.cells_forked`` counts the cells a fork worker
    ran)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        value = run()
    return value, registry.snapshot()["counters"]


def test_forced_backend_summary_identical(tmp_path):
    """The worker count alone picks the dispatch path: two workers on a
    grid of two network groups run every cell on the fork pool, and the
    summary matches the serial run's bytes."""
    if not fork_available():
        pytest.skip("fork start method unavailable")
    specs, _ = _grid(tmp_path)
    serial_dir = str(tmp_path / "serial")
    pooled_dir = str(tmp_path / "pooled")
    CampaignRunner(specs, serial_dir, pool_workers=1).run()
    _, counters = _counted(
        CampaignRunner(specs, pooled_dir, pool_workers=2).run
    )
    with open(os.path.join(serial_dir, "campaign_summary.json")) as fh:
        serial_bytes = fh.read()
    with open(os.path.join(pooled_dir, "campaign_summary.json")) as fh:
        assert fh.read() == serial_bytes
    assert counters["campaign.cells_forked"] == len(specs)
    assert counters["campaign.cells_completed"] == len(specs)


def test_inline_run_counts_no_forked_cells(tmp_path):
    """An inline campaign runs every cell in this process: it completes
    every cell and counts none as forked."""
    specs, directory = _grid(tmp_path)
    _, counters = _counted(
        CampaignRunner(specs, directory, pool_workers=1).run
    )
    assert counters["campaign.cells_completed"] == len(specs)
    assert counters.get("campaign.cells_forked", 0) == 0


def test_resume_skips_completed_cells(tmp_path):
    specs, directory = _grid(tmp_path)
    first = CampaignRunner(specs, directory).run()
    assert first.completed == len(specs)
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        baseline = fh.read()

    # No-op resume: every cell checkpointed, nothing recomputed.
    second = CampaignRunner(specs, directory).run()
    assert second.completed == 0
    assert second.skipped == len(specs)
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        assert fh.read() == baseline

    # Drop one checkpoint: exactly that cell recomputes, and the
    # summary comes back byte-identical.
    victim = specs[0].digest()
    os.unlink(os.path.join(directory, "cells", "%s.json" % victim))
    third = CampaignRunner(specs, directory).run()
    assert third.completed == 1
    assert third.skipped == len(specs) - 1
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        assert fh.read() == baseline


def test_corrupt_checkpoint_is_recomputed(tmp_path):
    specs, directory = _grid(tmp_path)
    CampaignRunner(specs, directory).run()
    victims = [
        os.path.join(directory, "cells", "%s.json" % spec.digest())
        for spec in specs[:2]
    ]
    # Malformed text, and nesting too deep for the parser.
    for victim, text in zip(victims, ("{not json", "[" * 100_000)):
        with open(victim, "w") as fh:
            fh.write(text)
    rerun = CampaignRunner(specs, directory).run()
    assert rerun.completed == 2
    # The rewritten checkpoints are valid again.
    for victim, spec in zip(victims, specs):
        with open(victim) as fh:
            record = json.load(fh)
        assert record["digest"] == spec.digest()


def _drop_fractions(record):
    del record["fractions"]


def _stringify_a_count(record):
    category = InferenceCategory.ALWAYS_RE.value
    record["categories"][category] = str(record["categories"][category])


@pytest.mark.parametrize(
    "damage", [_drop_fractions, _stringify_a_count],
    ids=["missing-key", "wrong-type"],
)
def test_damaged_checkpoint_is_recomputed(tmp_path, damage):
    """A checkpoint with the right schema and digest but a missing or
    mistyped field is recomputed, not resumed, so the summary stays
    byte-identical to the clean run's."""
    specs, directory = _grid(tmp_path)
    CampaignRunner(specs, directory).run()
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        baseline = fh.read()
    victim = os.path.join(
        directory, "cells", "%s.json" % specs[0].digest()
    )
    with open(victim) as fh:
        record = json.load(fh)
    damage(record)
    with open(victim, "w") as fh:
        json.dump(record, fh)
    rerun = CampaignRunner(specs, directory).run()
    assert rerun.completed == 1
    assert rerun.skipped == len(specs) - 1
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        assert fh.read() == baseline


def test_no_resume_recomputes_everything(tmp_path):
    specs, directory = _grid(tmp_path)
    CampaignRunner(specs, directory).run()
    rerun = CampaignRunner(specs, directory, resume=False).run()
    assert rerun.completed == len(specs)
    assert rerun.skipped == 0


def test_campaign_rejects_duplicate_digests(tmp_path):
    spec = ExperimentSpec(scale=SCALE)
    with pytest.raises(ExperimentError, match="duplicate"):
        CampaignRunner([spec, spec], str(tmp_path / "dup"))


# ---------------------------------------------------------------------
# Network groups

#: Three rounds keep the group tests cheap; grouping ignores configs.
GROUP_CONFIGS = ("0-0", "3-0", "3-3")


def _experiment_major_grid():
    """Two seeds x two scenarios x surf/internet2, listed
    experiment-major: a network's surf and internet2 cells sit four
    cells apart."""
    return [
        ExperimentSpec(
            experiment=experiment, seed=seed, scenario=scenario,
            scale=SCALE, configs=GROUP_CONFIGS,
        )
        for experiment in ("surf", "internet2")
        for seed in SEEDS
        for scenario in ("baseline", "deep-transit")
    ]


def _pair_grid():
    """Two seeds x surf/internet2: two network groups of two cells."""
    return [
        spec.replace(configs=GROUP_CONFIGS)
        for spec in plan_grid(SEEDS, scale=SCALE)
    ]


@functools.lru_cache(maxsize=None)
def _standalone_record(spec):
    ecosystem = build_ecosystem(spec.ecosystem_config(), seed=spec.seed)
    return identity_view(cell_record(spec, run_experiment(spec), ecosystem))


@pytest.fixture
def network_builds(monkeypatch):
    """Count the ecosystem builds and seed selections
    :func:`repro.api.network_of` makes; ``calls["build_ecosystem"]``
    lists the seed of each build."""
    import repro.api as api

    calls = {"build_ecosystem": [], "select_seeds": 0}
    build, select = api.build_ecosystem, api.select_seeds

    def counted_build(config, seed=0, **kwargs):
        calls["build_ecosystem"].append(seed)
        return build(config, seed=seed, **kwargs)

    def counted_select(*args, **kwargs):
        calls["select_seeds"] += 1
        return select(*args, **kwargs)

    monkeypatch.setattr(api, "build_ecosystem", counted_build)
    monkeypatch.setattr(api, "select_seeds", counted_select)
    return calls


@pytest.mark.parametrize("pool_workers", [1, 2])
def test_group_cells_identical_to_standalone_runs(tmp_path, pool_workers):
    """Cells that share a network but are not adjacent in the grid
    still equal standalone runs of their specs, inline and pooled."""
    specs = _experiment_major_grid()
    directory = str(tmp_path / "campaign")
    campaign, counters = _counted(
        CampaignRunner(specs, directory, pool_workers=pool_workers).run
    )
    assert campaign.completed == len(specs)
    for spec in specs:
        assert identity_view(
            campaign.records[spec.digest()]
        ) == _standalone_record(spec), spec.label()
    if pool_workers > 1 and fork_available():
        assert counters["campaign.cells_forked"] == len(specs)


def test_campaign_builds_each_network_once(tmp_path, network_builds):
    specs = _experiment_major_grid()
    CampaignRunner(specs, str(tmp_path / "campaign")).run()
    # Groups run in the order of their first cell: the surf cells.
    assert network_builds["build_ecosystem"] == [
        SEEDS[0], SEEDS[0], SEEDS[1], SEEDS[1]
    ]
    assert network_builds["select_seeds"] == 4


def test_resume_builds_only_pending_networks(tmp_path, network_builds):
    """A half-checkpointed group builds its network once; a fully
    checkpointed one builds nothing."""
    specs = _pair_grid()
    directory = str(tmp_path / "campaign")
    CampaignRunner(specs, directory).run()
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        baseline = fh.read()
    victim = next(
        spec for spec in specs
        if spec.seed == SEEDS[0] and spec.experiment == "surf"
    )
    os.unlink(os.path.join(directory, "cells", "%s.json" % victim.digest()))
    del network_builds["build_ecosystem"][:]
    network_builds["select_seeds"] = 0

    rerun = CampaignRunner(specs, directory).run()
    assert (rerun.completed, rerun.skipped) == (1, len(specs) - 1)
    assert network_builds["build_ecosystem"] == [SEEDS[0]]
    assert network_builds["select_seeds"] == 1
    with open(os.path.join(directory, "campaign_summary.json")) as fh:
        assert fh.read() == baseline

    # Every cell checkpointed: no network is built at all.
    CampaignRunner(specs, directory).run()
    assert network_builds["build_ecosystem"] == [SEEDS[0]]


def test_inline_campaign_checkpoints_each_group_as_it_finishes(
    tmp_path, monkeypatch
):
    """An inline campaign writes a group's checkpoints before the next
    group starts, so a run killed mid-campaign keeps every finished
    group."""
    import repro.experiment.campaign as campaign

    specs = _pair_grid()
    directory = str(tmp_path / "campaign")
    build = campaign.build_runner
    seen = []

    def noting_build(spec, *args, **kwargs):
        seen.append((spec, {
            other for other in specs
            if os.path.exists(os.path.join(
                directory, "cells", "%s.json" % other.digest()
            ))
        }))
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(campaign, "build_runner", noting_build)
    CampaignRunner(specs, directory, pool_workers=1).run()
    first_group = {spec for spec in specs if spec.seed == SEEDS[0]}
    spec, checkpointed = next(
        (spec, done) for spec, done in seen if spec.seed == SEEDS[1]
    )
    assert checkpointed == first_group, spec.label()


@pytest.mark.parametrize("pool_workers", [1, 2])
def test_failing_cell_spares_its_group_mates(
    tmp_path, monkeypatch, pool_workers
):
    """A cell that raises inside a group becomes a CellFailure; the
    other cell on its network still completes and checkpoints."""
    import repro.experiment.campaign as campaign

    specs = _pair_grid()
    doomed = next(
        spec for spec in specs
        if spec.seed == SEEDS[0] and spec.experiment == "internet2"
    )
    build = campaign.build_runner

    def failing_build(spec, *args, **kwargs):
        if spec == doomed:
            raise ExperimentError("forced cell failure")
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(campaign, "build_runner", failing_build)
    directory = str(tmp_path / "campaign")
    registry = MetricsRegistry()
    with use_registry(registry), pytest.raises(
        ExperimentError,
        match="1 campaign cell.*%s: forced cell failure" % doomed.label(),
    ):
        CampaignRunner(specs, directory, pool_workers=pool_workers).run()
    for spec in specs:
        path = os.path.join(directory, "cells", "%s.json" % spec.digest())
        assert os.path.exists(path) == (spec != doomed), spec.label()
    counters = registry.snapshot()["counters"]
    assert counters["campaign.cells_failed"] == 1
    assert counters["campaign.cells_completed"] == len(specs) - 1
    if pool_workers > 1 and fork_available():
        assert counters["campaign.cells_forked"] == len(specs) - 1


def test_fault_spec_and_pps_share_a_network(network_builds):
    """Only the seed and the ecosystem config pick the network: cells
    that differ in experiment, fault plan or probing rate share one,
    and each still equals its standalone run."""
    base = ExperimentSpec(seed=SEEDS[0], scale=SCALE, configs=GROUP_CONFIGS)
    specs = [
        base,
        base.replace(fault_spec="loss=1,flap=1"),
        base.replace(pps=50),
        base.replace(experiment="internet2"),
        base.replace(seed=SEEDS[1]),
        base.replace(scenario="deep-transit"),
        base.replace(config_overrides={"base_loss_probability": 0.0}),
    ]
    works = [CellWork(spec=spec) for spec in specs]
    assert [group.cells for group in group_cells(works)] == [
        [0, 1, 2, 3], [4], [5], [6]
    ]

    shared = works[:3]
    outcomes, failures = dispatch_cells(shared)
    assert not failures
    assert network_builds["build_ecosystem"] == [SEEDS[0]]
    assert network_builds["select_seeds"] == 1
    for work, outcome in zip(shared, outcomes):
        assert identity_view(outcome.record) == _standalone_record(
            work.spec
        ), work.spec.label()


# ---------------------------------------------------------------------
# Aggregation math


def _synthetic_record(experiment, seed, fractions, scenario="baseline"):
    return {
        "schema": 1,
        "digest": "%s-%d" % (experiment, seed),
        "experiment": experiment,
        "seed": seed,
        "scenario": scenario,
        "characterized": 100,
        "excluded_loss": 4,
        "fractions": fractions,
        "wall_seconds": float(seed),  # must never influence output
    }


def test_build_campaign_summary_math():
    always_re = InferenceCategory.ALWAYS_RE.value
    always_comm = InferenceCategory.ALWAYS_COMMODITY.value
    records = [
        _synthetic_record("surf", 0, {always_re: 0.80, always_comm: 0.10}),
        _synthetic_record("surf", 1, {always_re: 0.90, always_comm: 0.06}),
    ]
    summary = build_campaign_summary(records)
    assert summary.total_cells == 2
    group = summary.group("surf", "baseline")
    assert group.seeds == [0, 1]
    stat = group.stat(always_re)
    assert stat.mean == pytest.approx(0.85)
    assert stat.minimum == pytest.approx(0.80)
    assert stat.maximum == pytest.approx(0.90)
    assert stat.paper == PAPER_TABLE1_SHARES["surf"][always_re]
    # Derived prepend-insensitive share = always-R&E + always-commodity.
    derived = group.stat(PREPEND_INSENSITIVE)
    assert derived.fractions == pytest.approx([0.90, 0.96])
    # CI brackets the mean and stays within the sample range.
    assert stat.ci_low <= stat.mean <= stat.ci_high
    assert 0.80 <= stat.ci_low and stat.ci_high <= 0.90
    assert group.mean_characterized == pytest.approx(100.0)
    assert group.mean_excluded_loss == pytest.approx(4.0)


def test_summary_deterministic_and_order_independent():
    records = [
        _synthetic_record("surf", s, {"Always R&E": 0.8 + 0.01 * s})
        for s in range(4)
    ]
    forward = build_campaign_summary(records).to_json()
    reverse = build_campaign_summary(list(reversed(records))).to_json()
    assert forward == reverse
    assert build_campaign_summary(records).to_json() == forward


def test_single_seed_ci_collapses():
    summary = build_campaign_summary(
        [_synthetic_record("internet2", 5, {"Always R&E": 0.81})]
    )
    stat = summary.group("internet2", "baseline").stat("Always R&E")
    assert (stat.ci_low, stat.ci_high) == (0.81, 0.81)


def test_bootstrap_ci_validates():
    import random

    with pytest.raises(ValueError):
        bootstrap_ci([], random.Random(0))
    assert bootstrap_ci([0.5], random.Random(0)) == (0.5, 0.5)


def test_summary_render_mentions_paper_targets():
    records = [
        _synthetic_record("surf", 0, {"Always R&E": 0.82}),
    ]
    text = build_campaign_summary(records).render()
    assert "surf / baseline" in text
    assert "paper" in text
    assert "81.8%" in text  # the published Table 1a share


# ---------------------------------------------------------------------
# CLI


def test_cli_sweep_smoke(tmp_path, capsys):
    directory = str(tmp_path / "cli-campaign")
    argv = [
        "sweep", "--campaign-dir", directory, "--scale", str(SCALE),
        "--seeds", "0", "--experiments", "surf",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Campaign summary" in out
    assert "1 cell(s) computed, 0 resumed" in out
    assert os.path.exists(os.path.join(directory, "campaign_summary.json"))

    # Second invocation resumes every cell.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 cell(s) computed, 1 resumed" in out


def test_cli_sweep_seed_ranges(tmp_path, capsys):
    directory = str(tmp_path / "cli-range")
    rc = main([
        "sweep", "--campaign-dir", directory, "--scale", str(SCALE),
        "--seeds", "0,2-3", "--experiments", "surf",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 cell(s) computed" in out


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["sweep", "--campaign-dir", "X", "--seeds", ""], "--seeds"),
        (["sweep", "--campaign-dir", "X", "--seeds", "5-1"], "--seeds"),
        (
            ["sweep", "--campaign-dir", "X", "--scenarios", "atlantis"],
            "scenario",
        ),
        (
            ["sweep", "--campaign-dir", "X", "--campaign-workers", "0"],
            "--campaign-workers",
        ),
    ],
)
def test_cli_sweep_rejects_bad_arguments(tmp_path, capsys, argv, needle):
    argv = [
        a if a != "X" else str(tmp_path / "bad") for a in argv
    ]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err
