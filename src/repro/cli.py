"""Command-line interface.

``python -m repro <command>``:

- ``reproduce`` — run the full reproduction and print every table and
  figure (optionally writing probe/update JSONL files);
- ``sweep`` — run a campaign: a grid of (seed × scenario × experiment)
  cells with resumable digest-keyed checkpoints and a cross-seed
  summary (see :mod:`repro.experiment.campaign`);
- ``classify`` — re-run the per-prefix classification over a
  scamper-style JSONL results file produced by ``reproduce --export``
  or :func:`repro.dataio.dump_experiment_file`;
- ``explain`` — replay one experiment and print the evidence chain
  behind one probed prefix's inference category (per-round signals,
  winning decision steps, transitions — see
  :mod:`repro.core.explain`);
- ``age-model`` — print the Figure 7 state diagrams;
- ``funnel`` — print the §3.2 seed coverage funnel for a fresh
  ecosystem;
- ``status`` — show a sweep campaign's progress from its
  ``grid.json`` and checkpoints: a cell is done exactly when a resumed
  sweep would skip it (see
  :class:`repro.experiment.campaign.CampaignStatus`);
- ``bench-diff`` — compare the latest benchmark runs against the
  recorded ``BENCH_HISTORY.jsonl`` trajectory and exit non-zero on a
  wall-time regression (see :mod:`repro.obs.benchtrack`; ``--json``
  emits the machine-readable diff);
- ``profile`` — tabulate a ``--trace-out`` span trace: calls,
  inclusive and self seconds per span name (see
  :mod:`repro.obs.export`).  For function-level hotspots run the
  command under ``python -m cProfile -o run.pstats -m repro ...``.

``reproduce``, ``sweep``, ``explain`` and ``whatif`` share identical
common options via argparse parent parsers: the run options
(``--seed/--fault-plan``) and the observability options
(``--log-level/--log-json/--metrics-out/--provenance-out/
--provenance-capacity/--trace-out``).  A command refused for a bad
option exits 2 and leaves no output file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .api import ExperimentSpec, network_of
from .core.age_model import simulate_age_cases
from .core.classify import InferenceCategory, RoundSignal, classify_signals
from .core.report import reproduce_paper
from .dataio import dump_experiment_file, dump_update_log
from .dataio.json_results import (
    load_experiment_records_file,
    signals_from_records,
)
from .errors import AnalysisError, ExperimentError, ReproError
from .obs import configure_logging, get_registry
from .obs.benchtrack import DEFAULT_THRESHOLD_PCT
from .obs.capture import DEFAULT_CAPACITY, EventRing, use_ring
from .obs.export import (
    DEFAULT_TOP_N,
    load_chrome_trace,
    render_span_table,
    span_table,
    write_chrome_trace,
)


def _run_options() -> argparse.ArgumentParser:
    """Shared run options (``parents=`` parser; no help of its own)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument(
        "--fault-plan", metavar="SPEC",
        help="inject scripted faults derived from the seed, e.g. "
             "'loss=2,flap=1' (kinds: loss/flap); probe-loss bursts "
             "and link flaps change the report deterministically",
    )
    return parent


def _obs_options() -> argparse.ArgumentParser:
    """Shared observability options (``parents=`` parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        help="emit structured logs on stderr at this level "
             "(default: silent)",
    )
    parent.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines instead of key=value",
    )
    parent.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a metrics snapshot (engine/prober/runner/campaign "
             "counters) after the run",
    )
    parent.add_argument(
        "--provenance-out", metavar="FILE.jsonl",
        help="record decision provenance (route selections, per-round "
             "prefix signals) and write it as JSON lines after the run",
    )
    parent.add_argument(
        "--provenance-capacity", type=int,
        default=None, metavar="N",
        help="provenance ring-buffer capacity in events (default: "
             "%d; oldest events drop first)" % DEFAULT_CAPACITY,
    )
    parent.add_argument(
        "--trace-out", metavar="FILE.json",
        help="write the run's span tree as Chrome trace-event JSON "
             "(loadable in chrome://tracing or Perfetto); tabulate "
             "where the time went with 'repro profile FILE.json'",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'R&E Routing Policy: Inference and "
            "Implication' (IMC 2025)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_options = _run_options()
    obs_options = _obs_options()

    reproduce = sub.add_parser(
        "reproduce", parents=[run_options, obs_options],
        help="run the full reproduction and print the report",
    )
    reproduce.add_argument("--scale", type=float, default=0.1,
                           help="population scale (1.0 = paper size)")
    reproduce.add_argument(
        "--export", metavar="DIR",
        help="also write probe/update JSONL files into DIR",
    )
    reproduce.add_argument(
        "--figures", action="store_true",
        help="also render Figures 3/5/8 as terminal plots",
    )

    explain = sub.add_parser(
        "explain", parents=[run_options, obs_options],
        help="explain one probed prefix's inference category",
    )
    explain.add_argument("prefix", help="probed prefix, e.g. 10.32.0.0/24")
    explain.add_argument("--scale", type=float, default=0.1,
                         help="population scale (1.0 = paper size)")
    explain.add_argument(
        "--experiment", choices=("surf", "internet2"), default="surf",
    )

    whatif = sub.add_parser(
        "whatif", parents=[run_options, obs_options],
        help="answer warm what-if queries (catchment per config, "
             "policy/link deltas) against one converged session",
    )
    whatif.add_argument("--scale", type=float, default=0.1,
                        help="population scale (1.0 = paper size)")
    whatif.add_argument(
        "--experiment", choices=("surf", "internet2"), default="surf",
    )
    whatif.add_argument(
        "--config", default=None, metavar="LABEL",
        help="prepend configuration to query, e.g. 2-0 (default: the "
             "schedule's first; the warm session steps forward in "
             "canonical order and keeps earlier configs queryable)",
    )
    whatif.add_argument(
        "--prefix", action="append", default=None, metavar="PFX",
        help="probed prefix to predict (repeatable; default: "
             "summarise every studied prefix)",
    )
    whatif.add_argument(
        "--delta", action="append", default=None, metavar="SPEC",
        help="what-if delta applied after the baseline prediction "
             "and re-predicted warm, e.g. prepend:re=3, "
             "localpref:64512:64513=150, flap:64512-64513, "
             "withdraw:commodity (repeatable, applied in order)",
    )
    whatif.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="per-prefix rows to print when summarising (default: 20)",
    )

    sweep = sub.add_parser(
        "sweep", parents=[run_options, obs_options],
        help="run a campaign grid of (seed x scenario x experiment) "
             "cells with resumable checkpoints",
    )
    sweep.add_argument(
        "--campaign-dir", required=True, metavar="DIR",
        help="campaign state directory (cell checkpoints land in "
             "DIR/cells, the aggregate in DIR/campaign_summary.json); "
             "re-invoking with the same directory resumes, skipping "
             "completed cells",
    )
    sweep.add_argument("--scale", type=float, default=0.1,
                       help="population scale (1.0 = paper size)")
    sweep.add_argument(
        "--seeds", default="0", metavar="LIST",
        help="seeds to sweep: comma list and/or ranges, e.g. "
             "'0,1,2' or '0-4' or '0,5-8' (default: 0).  --seed is "
             "ignored by sweep",
    )
    sweep.add_argument(
        "--scenarios", default="baseline", metavar="LIST",
        help="comma list of ecosystem scenario presets, or 'all' "
             "(default: baseline; see repro.topology SCENARIO_PRESETS)",
    )
    sweep.add_argument(
        "--experiments", default="surf,internet2", metavar="LIST",
        help="comma list of experiments (default: surf,internet2)",
    )
    sweep.add_argument(
        "--campaign-workers", type=int, default=1, metavar="N",
        help="processes in the campaign pool, each running whole "
             "network groups (cells sharing a seed and scenario); "
             "default: 1, serial; output is byte-identical at every "
             "count",
    )
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="recompute every cell even when its checkpoint exists",
    )

    classify = sub.add_parser(
        "classify", help="classify prefixes from a JSONL results file"
    )
    classify.add_argument("results", help="probe JSONL file")
    classify.add_argument(
        "--summary-only", action="store_true",
        help="print only the category counts",
    )

    sub.add_parser("age-model", help="print the Figure 7 state diagrams")

    funnel = sub.add_parser(
        "funnel", help="print the seed coverage funnel (§3.2)"
    )
    funnel.add_argument("--scale", type=float, default=0.1)
    funnel.add_argument("--seed", type=int, default=0)

    status = sub.add_parser(
        "status",
        help="show a sweep campaign's progress from its grid.json and "
             "checkpoints (works while the sweep runs in another "
             "process)",
    )
    status.add_argument(
        "campaign_dir", metavar="DIR",
        help="the --campaign-dir of the sweep to inspect",
    )
    status.add_argument(
        "--no-cells", action="store_true",
        help="omit the per-cell table (grid summary only)",
    )

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare the latest benchmark runs against the recorded "
             "BENCH_HISTORY.jsonl trajectory; exits 1 on regression",
    )
    bench_diff.add_argument(
        "--history", metavar="FILE.jsonl", default=None,
        help="history file (default: BENCH_HISTORY.jsonl in "
             "$REPRO_BENCH_OUT or the working directory)",
    )
    bench_diff.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="regression threshold: latest more than PCT%% over the "
             "baseline median fails (default: %.0f)"
             % DEFAULT_THRESHOLD_PCT,
    )
    bench_diff.add_argument(
        "--json", action="store_true",
        help="emit the diff as one JSON document instead of the "
             "fixed-width table (same exit codes)",
    )

    profile = sub.add_parser(
        "profile",
        help="tabulate where a run's time went from its --trace-out "
             "file: calls, inclusive and self seconds per span name",
    )
    profile.add_argument(
        "trace", metavar="TRACE.json",
        help="a Chrome trace-event file written by --trace-out",
    )
    profile.add_argument(
        "--top", type=int, default=DEFAULT_TOP_N, metavar="N",
        help="span names to print, by self seconds (default: %(default)s)",
    )
    return parser


def _check_output_paths(*paths: Optional[str]) -> Optional[str]:
    """Fail on unwritable output paths now, not after the full run.
    A file created only to probe is removed again, so a refused
    command leaves nothing behind."""
    for path in paths:
        if not path:
            continue
        try:
            try:
                with open(path, "x", encoding="utf-8"):
                    pass
            except FileExistsError:
                with open(path, "a", encoding="utf-8"):
                    pass
            else:
                os.remove(path)
        except OSError as error:
            return "cannot write %s: %s" % (path, error)
    return None


def _check_export_dir(path: str) -> Optional[str]:
    """Fail on an ``--export`` directory the run could not create or
    write into, without creating it: its nearest existing ancestor
    must be a writable directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK):
        return None
    return "cannot export to %s: %s is not a writable directory" % (
        path, probe
    )


def _start(
    args, experiment: str = "surf", problem: Optional[str] = None
) -> Optional[ExperimentSpec]:
    """The run commands' shared preamble: configure logging, check the
    output paths and the shared options, then build the spec of the
    shared options (which validates the fault plan and scale).
    *problem* is the command's own option check.  Returns the spec, or
    None after printing why the command is refused (exit status 2)."""
    if args.log_level:
        configure_logging(level=args.log_level, json_lines=args.log_json)
    if args.provenance_capacity is not None and args.provenance_capacity < 1:
        problem = "--provenance-capacity must be >= 1"
    problem = _check_output_paths(
        args.metrics_out, args.provenance_out, args.trace_out,
    ) or problem
    if problem is None:
        try:
            return ExperimentSpec(
                experiment=experiment, seed=args.seed, scale=args.scale,
                fault_spec=args.fault_plan or "",
            )
        except ReproError as error:
            problem = str(error)
    print(problem, file=sys.stderr)
    return None


def _write_metrics(args) -> None:
    if not args.metrics_out:
        return
    with open(args.metrics_out, "w", encoding="utf-8") as stream:
        stream.write(get_registry().to_json())
        stream.write("\n")
    print("wrote metrics snapshot to %s" % args.metrics_out)


def _observing(args, prefix_filter=None):
    """Run a ``with`` block under the ring ``--provenance-out`` asks
    for; yields the ring, or None, for :func:`_write_outputs`."""
    return use_ring(
        EventRing(args.provenance_capacity or DEFAULT_CAPACITY, prefix_filter)
        if args.provenance_out else None
    )


def _write_outputs(args, ring: Optional[EventRing]) -> None:
    """Write the metrics snapshot, the provenance stream and the span
    trace the flags asked for, after the run's report."""
    _write_metrics(args)
    # Stdout: the event stream — and therefore the count — is inside
    # the byte-identity contract, so this line is identical at every
    # campaign worker count.
    if ring is not None:
        count = ring.export_jsonl_file(args.provenance_out)
        suffix = (
            " (%d older events dropped by the ring)" % ring.dropped
            if ring.dropped else ""
        )
        print("wrote %d provenance events to %s%s"
              % (count, args.provenance_out, suffix))
    if args.trace_out:
        count = write_chrome_trace(args.trace_out)
        print("wrote %d trace events to %s" % (count, args.trace_out))


def _cmd_reproduce(args) -> int:
    spec = _start(args, problem=(
        _check_export_dir(args.export) if args.export else None
    ))
    if spec is None:
        return 2
    with _observing(args) as ring:
        report = reproduce_paper(
            spec.ecosystem_config(), seed=spec.seed,
            fault_plan=spec.fault_plan(),
        )
    print(report.render())
    if args.figures:
        from .core.figures import (
            render_churn_figure,
            render_region_map,
            render_switch_cdf_figure,
        )

        print("\nFigure 3 (Internet2 churn):")
        print(render_churn_figure(report.churn_internet2,
                                  report.internet2_result.round_times))
        print("\n" + render_region_map(report.figure5))
        print("\n" + render_region_map(report.figure5, us_states=True))
        print("\nFigure 8 (SURF):")
        print(render_switch_cdf_figure(report.figure8_surf))
        print("\nFigure 8 (Internet2):")
        print(render_switch_cdf_figure(report.figure8_internet2))
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        for result in (report.surf_result, report.internet2_result):
            path = os.path.join(
                args.export, "%s_probes.jsonl" % result.experiment
            )
            count = dump_experiment_file(result, path)
            print("wrote %d records to %s" % (count, path))
            updates_path = os.path.join(
                args.export, "%s_updates.jsonl" % result.experiment
            )
            with open(updates_path, "w", encoding="utf-8") as stream:
                count = dump_update_log(result.update_log, stream)
            print("wrote %d records to %s" % (count, updates_path))
    _write_outputs(args, ring)
    return 0


def _parse_seed_list(text: str) -> List[int]:
    """``'0,2,5-8'`` -> ``[0, 2, 5, 6, 7, 8]`` (order kept, no dups)."""
    seeds: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        # A range like 3-7 (negatives like -2 are a plain seed).
        if "-" in chunk[1:]:
            start_text, _, stop_text = chunk[1:].partition("-")
            start = int(chunk[0] + start_text)
            stop = int(stop_text)
            if stop < start:
                raise ValueError("bad seed range %r" % chunk)
            span = range(start, stop + 1)
        else:
            span = (int(chunk),)
        for seed in span:
            if seed not in seeds:
                seeds.append(seed)
    if not seeds:
        raise ValueError("no seeds in %r" % text)
    return seeds


def _cmd_sweep(args) -> int:
    from .experiment.campaign import (
        CampaignRunner,
        known_scenarios,
        plan_grid,
    )

    if _start(args, problem=(
        "--campaign-workers must be >= 1"
        if args.campaign_workers < 1 else None
    )) is None:
        return 2
    try:
        seeds = _parse_seed_list(args.seeds)
    except ValueError as error:
        print("bad --seeds: %s" % error, file=sys.stderr)
        return 2
    if args.scenarios.strip() == "all":
        scenarios = known_scenarios()
    else:
        scenarios = [
            s.strip() for s in args.scenarios.split(",") if s.strip()
        ]
    experiments = [
        e.strip() for e in args.experiments.split(",") if e.strip()
    ]
    try:
        specs = plan_grid(
            seeds=seeds, scenarios=scenarios, experiments=experiments,
            scale=args.scale, fault_spec=args.fault_plan or "",
        )
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    runner = CampaignRunner(
        specs, args.campaign_dir,
        pool_workers=args.campaign_workers,
        resume=not args.no_resume,
    )
    try:
        with _observing(args) as ring:
            result = runner.run()
    except ExperimentError as error:
        # The requested outputs still land: the metrics snapshot is a
        # failed campaign's durable record (`campaign.cells_failed`).
        print(str(error), file=sys.stderr)
        _write_outputs(args, ring)
        return 1
    print(result.summary.render())
    print()
    print(
        "campaign: %d cell(s) computed, %d resumed from checkpoints; "
        "summary written to %s"
        % (result.completed, result.skipped, runner.summary_path)
    )
    # The rate is wall-clock execution metadata: stderr, not the
    # deterministic stdout report.
    print("%.1f cells/minute" % result.cells_per_minute, file=sys.stderr)
    _write_outputs(args, ring)
    return 0


def _cmd_explain(args) -> int:
    from .core.explain import explain_prefix

    spec = _start(args, experiment=args.experiment)
    if spec is None:
        return 2
    try:
        # explain keeps a filtered provenance ring (only this prefix's
        # events), so the export is the prefix's full evidence chain.
        with _observing(args, prefix_filter=[args.prefix]) as ring:
            narrative = explain_prefix(
                args.prefix,
                experiment=args.experiment,
                scale=args.scale,
                seed=args.seed,
                fault_plan=spec.fault_plan(),
                recorder=ring,
            )
    except ValueError as error:
        # Unparseable prefix text.
        print("bad prefix: %s" % error, file=sys.stderr)
        return 2
    except AnalysisError as error:
        print(str(error), file=sys.stderr)
        return 1
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(narrative)
    _write_outputs(args, ring)
    return 0


def _print_predictions(title, predictions, limit) -> None:
    """Deterministic what-if output: signal tallies, then per-prefix
    rows (capped at *limit*; 0 suppresses them)."""
    counts: dict = {}
    for prediction in predictions:
        counts[prediction.signal] = counts.get(prediction.signal, 0) + 1
    print("%s @ %s: %d prefix(es)" % (
        title, predictions[0].config if predictions else "-",
        len(predictions),
    ))
    for signal in ("re", "commodity", "both", "none"):
        if counts.get(signal):
            print("  %-10s %6d" % (signal, counts[signal]))
    shown = predictions[: max(0, limit)]
    for prediction in shown:
        print("  %-22s %s" % (prediction.prefix, prediction.signal))
    if len(predictions) > len(shown):
        print("  ... %d more" % (len(predictions) - len(shown)))


def _cmd_whatif(args) -> int:
    from .whatif import WhatIfSession, parse_delta

    spec = _start(args, experiment=args.experiment, problem=(
        "--limit must be >= 0" if args.limit < 0 else None
    ))
    if spec is None:
        return 2
    started = time.perf_counter()
    try:
        with _observing(args) as ring:
            session = WhatIfSession(spec)
            # Every delta parses before anything prints, so a malformed
            # one is refused with an empty stdout.
            deltas = [
                (text, parse_delta(text, session))
                for text in args.delta or ()
            ]
            if args.config:
                session.advance_to_config(args.config)
            warm_seconds = time.perf_counter() - started
            prefixes = args.prefix or [
                str(plan.prefix)
                for plan in sorted(
                    session.ecosystem.studied_prefixes(),
                    key=lambda plan: (
                        plan.prefix.network, plan.prefix.length
                    ),
                )
            ]
            query_start = time.perf_counter()
            _print_predictions(
                "baseline", session.predict_batch(prefixes), args.limit
            )
            for delta_text, delta in deltas:
                outcome = session.apply(delta)
                print(
                    "applied %s: dirty_prefixes=%d touched_ases=%d "
                    "runs=%d messages=%d"
                    % (
                        delta_text, len(outcome.dirty_prefixes),
                        outcome.touched_ases, len(outcome.stats),
                        outcome.messages_delivered,
                    )
                )
            if args.delta:
                _print_predictions(
                    "after-deltas", session.predict_batch(prefixes),
                    args.limit,
                )
            query_seconds = time.perf_counter() - query_start
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    # Wall timings are execution metadata: stderr, not the
    # deterministic stdout report.
    print(
        "warm-up %.2fs; %d warm quer%s in %.1fms"
        % (
            warm_seconds, len(prefixes),
            "y" if len(prefixes) == 1 else "ies",
            query_seconds * 1e3,
        ),
        file=sys.stderr,
    )
    _write_outputs(args, ring)
    return 0


_SIGNAL_TABLE = {
    "re": RoundSignal.RE,
    "commodity": RoundSignal.COMMODITY,
    "both": RoundSignal.BOTH,
    "none": RoundSignal.NONE,
}


def _cmd_classify(args) -> int:
    try:
        records = load_experiment_records_file(args.results)
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    signals = signals_from_records(records)
    counts = {}
    for prefix_text in sorted(signals):
        category = classify_signals(
            [_SIGNAL_TABLE[s] for s in signals[prefix_text]]
        )
        counts[category] = counts.get(category, 0) + 1
        if not args.summary_only:
            print("%-22s %s" % (prefix_text, category.value))
    total = sum(counts.values())
    print("\n%d prefixes:" % total)
    for category in InferenceCategory:
        if counts.get(category):
            print(
                "  %-26s %6d (%.1f%%)"
                % (category.value, counts[category],
                   100.0 * counts[category] / total)
            )
    return 0


def _cmd_age_model(_args) -> int:
    print("Figure 7: route selection per configuration "
          "(R = R&E, C = commodity)\n")
    for case in simulate_age_cases():
        print(case.render())
    return 0


def _cmd_funnel(args) -> int:
    try:
        spec = ExperimentSpec(seed=args.seed, scale=args.scale)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    _, plan = network_of(spec)
    for row in plan.funnel.as_rows():
        print(row)
    return 0


def _cmd_status(args) -> int:
    from .experiment.campaign import CampaignStatus

    directory = args.campaign_dir
    if not os.path.isdir(directory):
        print("not a directory: %s" % directory, file=sys.stderr)
        return 2
    status = CampaignStatus.load(directory)
    if status.total == 0:
        print(
            "no campaign state in %s (expected grid.json or cells/ — "
            "is this a --campaign-dir?)" % directory,
            file=sys.stderr,
        )
        return 2
    print(status.render(verbose=not args.no_cells))
    return 0


def _cmd_bench_diff(args) -> int:
    from .obs import benchtrack

    if args.threshold < 0:
        print("--threshold must be >= 0", file=sys.stderr)
        return 2
    path = args.history or benchtrack.history_path()
    try:
        entries = benchtrack.load_history(path)
    except FileNotFoundError:
        print(
            "no benchmark history at %s (run the benchmarks to seed "
            "it)" % path,
            file=sys.stderr,
        )
        return 2
    if not entries:
        print("benchmark history %s is empty" % path, file=sys.stderr)
        return 2
    deltas = benchtrack.diff_latest(entries, threshold_pct=args.threshold)
    if args.json:
        print(benchtrack.render_diff_json(deltas, args.threshold))
    else:
        print(benchtrack.render_diff(deltas, args.threshold))
    return 1 if any(delta.regressed for delta in deltas) else 0


def _cmd_profile(args) -> int:
    if args.top < 1:
        print("--top must be >= 1", file=sys.stderr)
        return 2
    try:
        events = load_chrome_trace(args.trace)
    except OSError as error:
        print("cannot read trace %s: %s" % (args.trace, error),
              file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(render_span_table(span_table(events), top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "reproduce": _cmd_reproduce,
        "sweep": _cmd_sweep,
        "classify": _cmd_classify,
        "explain": _cmd_explain,
        "whatif": _cmd_whatif,
        "age-model": _cmd_age_model,
        "funnel": _cmd_funnel,
        "status": _cmd_status,
        "bench-diff": _cmd_bench_diff,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
