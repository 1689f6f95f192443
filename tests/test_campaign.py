"""Campaign sweeps (PR 5 tentpole): grids, the identity contract,
resumable checkpoints, cross-seed aggregation, and the sweep CLI.

The load-bearing guarantees:

- a cell's record (and, with ``keep_results``, its full result) is
  byte-identical to a standalone ``run_experiment`` of the same spec,
  whatever the campaign pool size;
- re-invoking a campaign skips checkpointed cells and recomputes only
  the missing ones, and the re-rendered ``campaign_summary.json`` is
  byte-identical to the uninterrupted run's;
- ``run_experiment_pair`` preserves every ``run_both_experiments``
  guarantee, including the shared seed-plan object.
"""

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
    cell_record,
    identity_view,
    known_scenarios,
    plan_grid,
    run_experiment_pair,
)
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


def test_forced_backend_summary_identical(tmp_path):
    """`backend=` forces the dispatch path without touching results:
    summaries and identity views match the default serial run under
    both forced backends."""
    from repro.experiment.scheduler import fork_available

    specs, _ = _grid(tmp_path)
    serial_dir = str(tmp_path / "serial")
    CampaignRunner(specs, serial_dir, pool_workers=1).run()
    with open(os.path.join(serial_dir, "campaign_summary.json")) as fh:
        serial_bytes = fh.read()
    forced = {"inline": 2}
    if fork_available():
        forced["fork"] = 2
    for backend, pool_workers in forced.items():
        directory = str(tmp_path / ("forced-%s" % backend))
        CampaignRunner(
            specs, directory, pool_workers=pool_workers, backend=backend
        ).run()
        with open(os.path.join(directory, "campaign_summary.json")) as fh:
            assert fh.read() == serial_bytes, backend


def test_campaign_rejects_unknown_backend(tmp_path):
    specs, directory = _grid(tmp_path)
    with pytest.raises(ExperimentError, match="backend"):
        CampaignRunner(specs, directory, backend="asyncio")


def test_heartbeats_stamp_executing_backend(tmp_path):
    """Every cell's heartbeat records the scheduler backend that ran
    it, so mixed inline/fork campaigns are debuggable from `repro
    status`."""
    from repro.experiment.status import STATUS_DIRNAME, CampaignStatus

    specs, directory = _grid(tmp_path)
    CampaignRunner(specs, directory, pool_workers=1).run()
    status_dir = os.path.join(directory, STATUS_DIRNAME)
    for spec in specs:
        with open(os.path.join(
            status_dir, "%s.json" % spec.digest()
        )) as fh:
            beat = json.load(fh)
        assert beat["backend"] == "inline"
    status = CampaignStatus.load(directory)
    assert {cell.backend for cell in status.cells} == {"inline"}
    rendered = status.render(verbose=True)
    assert "backend" in rendered
    assert "inline" in rendered


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
    victim = os.path.join(
        directory, "cells", "%s.json" % specs[0].digest()
    )
    with open(victim, "w") as fh:
        fh.write("{not json")
    rerun = CampaignRunner(specs, directory).run()
    assert rerun.completed == 1
    # The rewritten checkpoint is valid again.
    with open(victim) as fh:
        record = json.load(fh)
    assert record["digest"] == specs[0].digest()


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
