"""End-to-end benchmark of the three things users do with the simulator.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds T] [--trace [0|1]] [--out DIR] [--scale S] [--deltas K]

Runs each workload (``reproduce``, ``sweep``, ``whatif``; default all)
one after another, each in a fresh subprocess, after a golden-report
gate.  Prints every metric as ``workload metric value unit n``, writes
``BENCH_e2e.json`` (and, traced, ``BENCH_e2e.trace.jsonl``) into
``--out``, appends one line per workload to ``<out>/BENCH_HISTORY.jsonl``
and exits non-zero if any correctness check fails.  With one
``--workload``, the last stdout line is one JSON object holding the
verdict and the metrics ``BENCHMARK.json`` names: its end-to-end
metrics untraced, its per-layer metrics with ``--trace``.

``--seconds T`` measures ``max(1, T // 10)`` repetitions of each
workload body (one repetition takes about ten seconds on a 2-CPU host
at the default scale).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "reproduce_seed.txt")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("reproduce", "sweep", "whatif")
BENCH_SEED = 20250605
REP_SECONDS = 10
#: A child still running after this long is killed and counted failed.
CHILD_TIMEOUT = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: reproduce, sweep and whatif."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--seconds", type=int, default=0,
                        help="measure max(1, T // %d) repetitions"
                        % REP_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also make a traced run for per-layer metrics")
    parser.add_argument("--out", default="bench-results")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--deltas", type=int, default=120,
                        help="what-if deltas applied per repetition")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.reps = max(1, args.seconds // REP_SECONDS)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("e2e: no program source under %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.child:
        return run_child(args)
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as stream:
        contract = json.load(stream)
    os.makedirs(args.out, exist_ok=True)

    gate_problem = golden_gate()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    spans = []
    for name in names:
        entry = spawn(name, args, trace=False)
        if args.trace:
            traced = spawn(name, args, trace=True)
            merge_traced(entry, traced)
            for span in traced.get("spans", ()):
                span["workload"] = name
                spans.append(span)
        check(entry, gate_problem is None, gate_problem)
        wanted = [(contract["end_to_end"], entry["metrics"])]
        if args.trace:
            wanted.append((contract["per_layer"], entry["layers"]))
        missing = [
            item["name"] for items, table in wanted for item in items
            if item["name"] not in table
        ]
        check(entry, not missing, "metrics not measured: %s" % missing)
        entry["metrics"]["failed_frac"] = [
            entry["failed"] / entry["attempted"], "ratio", entry["attempted"]
        ]
        results[name] = entry
        print_metrics(name, entry)

    write_outputs(args, gate_problem, results, spans)
    if len(names) == 1:
        print(json.dumps(verdict_line(
            results[names[0]], contract, args.trace
        ), sort_keys=True))
    return 0 if all(not e["problems"] for e in results.values()) else 1


# ---------------------------------------------------------------------
# Parent side


def golden_gate():
    """Reproduce at scale 0.1, seed 0 must render the committed golden
    report byte for byte; returns a problem description or None."""
    from repro.core.report import reproduce_paper
    from repro.topology.re_config import REEcosystemConfig

    try:
        with open(GOLDEN, "r", encoding="utf-8") as stream:
            expected = stream.read()
    except OSError as error:
        return "golden report unreadable: %s" % error
    text = reproduce_paper(REEcosystemConfig(scale=0.1), seed=0).render()
    if text + "\n" != expected:
        return "reproduce at scale 0.1, seed 0 differs from the golden report"
    return None


def spawn(name, args, trace):
    command = [
        sys.executable, os.path.abspath(__file__), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--out", args.out,
        "--scale", repr(args.scale), "--deltas", str(args.deltas),
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return failed_entry("%s run timed out after %d s"
                            % (name, CHILD_TIMEOUT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failed_entry("%s run exited with code %d"
                            % (name, proc.returncode))
    return json.loads(lines[-1])


def failed_entry(problem):
    return {"metrics": {}, "layers": {}, "digest": None,
            "attempted": 1, "failed": 1, "problems": [problem]}


def check(entry, ok, problem):
    entry["attempted"] += 1
    if not ok:
        entry["failed"] += 1
        entry["problems"].append(problem)


def merge_traced(entry, traced):
    """Fold the traced run's per-layer table and verdict into the
    untraced run's entry."""
    entry["layers"] = traced["layers"]
    entry["sites"] = traced.get("sites", {})
    entry["attempted"] += traced["attempted"]
    entry["failed"] += traced["failed"]
    entry["problems"].extend("traced: " + p for p in traced["problems"])
    check(entry, traced["digest"] == entry["digest"],
          "traced and untraced output digests differ")
    untraced = entry["metrics"].get("wall_s")
    traced_wall = traced["metrics"].get("wall_s")
    if untraced and traced_wall:
        entry["layers"]["trace_overhead_frac"] = [
            traced_wall[0] / untraced[0] - 1.0, "ratio", traced_wall[2]
        ]
        entry["traced_wall_s"] = traced_wall


def print_metrics(name, entry):
    for table in (entry["metrics"], entry["layers"]):
        for metric, (value, unit, count) in table.items():
            print("%s %s %r %s %d" % (name, metric, value, unit, count))
    for problem in entry["problems"]:
        print("%s FAILED: %s" % (name, problem), file=sys.stderr)


def verdict_line(entry, contract, trace):
    """The one-line verdict with the metrics BENCHMARK.json names."""
    table = entry["layers"] if trace else entry["metrics"]
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    return {
        "correct": not entry["problems"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            item["name"]: {
                "value": table[item["name"]][0],
                "unit": table[item["name"]][1],
            }
            for item in wanted if item["name"] in table
        },
    }


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_outputs(args, gate_problem, results, spans):
    from repro.obs.benchtrack import append_history

    sha = git_sha()
    document = {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "reps": args.reps,
        "trace": bool(args.trace),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "gate": {"ok": gate_problem is None, "problem": gate_problem},
        "workloads": results,
    }
    with open(os.path.join(args.out, "BENCH_e2e.json"), "w",
              encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")
    if spans:
        with open(os.path.join(args.out, "BENCH_e2e.trace.jsonl"), "w",
                  encoding="utf-8") as stream:
            for span in spans:
                stream.write(json.dumps(span, sort_keys=True) + "\n")
    history = os.path.join(args.out, "BENCH_HISTORY.jsonl")
    for name, entry in results.items():
        if entry["problems"]:
            continue
        metrics = entry["metrics"]
        append_history({
            "bench": "e2e.%s" % name,
            "wall_seconds": metrics["wall_s"][0],
            "counts": {k: v[0] for k, v in metrics.items() if k != "wall_s"},
            "git_sha": sha,
            "scale": args.scale,
            "seed": args.seed,
        }, path=history)


# ---------------------------------------------------------------------
# Child side: one workload, result as one JSON line on stdout


def run_child(args) -> int:
    import tracer
    import workloads

    recorder = sites = None
    if args.trace:
        recorder = tracer.SpanRecorder()
        sites = tracer.install(recorder)
    run = workloads.Run(
        seed=args.seed, scale=args.scale,
        reps=args.reps, deltas=args.deltas,
        scratch=args.out, recorder=recorder,
    )
    payload = workloads.summarize(getattr(workloads, args.child)(run))
    if recorder is not None:
        payload["sites"] = sites
        payload["spans"] = recorder.records()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
