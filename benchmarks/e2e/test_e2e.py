"""Smoke test of the end-to-end benchmark at scale 0.04 with 6 deltas.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
SMOKE = ["--scale", "0.04", "--deltas", "6"]

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    CONTRACT = json.load(_f)


def _run(out, *extra, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *SMOKE, "--out", str(out), *extra],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of every workload: (stdout, BENCH_e2e.json)."""
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("traced%d" % index)
        proc = _run(out, "--trace")
        assert proc.returncode == 0
        with open(out / "BENCH_e2e.json", "r", encoding="utf-8") as stream:
            runs.append((proc.stdout, json.load(stream)))
    return runs


def test_every_benchmark_metric_is_emitted_with_its_unit(traced_runs):
    stdout, document = traced_runs[0]
    printed = set()
    for line in stdout.splitlines():
        workload, metric, value, unit, count = line.split()
        float(value)
        assert int(count) >= 1
        printed.add((workload, metric, unit))
    assert set(document["workloads"]) == {"reproduce", "sweep", "whatif"}
    for workload in document["workloads"]:
        for item in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert (workload, item["name"], item["unit"]) in printed


def test_layer_counts_repeat_across_traced_runs(traced_runs):
    def counts(document):
        return {
            (workload, name): value
            for workload, entry in document["workloads"].items()
            for name, (value, unit, _) in entry["layers"].items()
            if unit == "count"
        }

    first, second = (counts(document) for _, document in traced_runs)
    assert first == second
    assert first[("reproduce", "bgp.fastpath.propagate.calls")] > 0


def test_one_workload_ends_with_the_verdict_line(tmp_path):
    proc = _run(tmp_path, "--workload", "whatif", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        item["name"]: item["unit"] for item in CONTRACT["per_layer"]
    }


def test_flipped_report_byte_is_a_failure(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("e2e_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from repro.core.report import PaperReproduction

    render = PaperReproduction.render

    def flipped(self):
        text = render(self)
        return chr(ord(text[0]) ^ 1) + text[1:]

    monkeypatch.setattr(PaperReproduction, "render", flipped)
    code = run.main([*SMOKE, "--workload", "whatif", "--out", str(tmp_path)])
    assert code != 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not line["correct"] and line["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = _run(tmp_path / "out", "--workload", "reproduce", cwd=tmp_path,
                script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
