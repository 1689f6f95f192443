"""Span recorder and layer wrapping for the traced benchmark run.

The recorder lives in the benchmark, not in :mod:`repro.obs`, so a
change to the program's own observability cannot move the measuring
stick.  Spans are recorded around the public callables that bound each
layer, from outside: functions are rebound in every ``repro.*`` module
whose attribute *is* the original object (so every import site is
found, whichever module a later refactor moves an import to), methods
are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict

#: (layer, module, callable) in report order.  ``Class.method`` names
#: are patched on the class; plain names are rebound at every import
#: site.  ``core.analyses`` groups the remaining bulk analyses.
LAYERS = (
    ("topology.build_ecosystem", "repro.topology.re_ecosystem", "build_ecosystem"),
    ("seeds.select_seeds", "repro.seeds.selection", "select_seeds"),
    ("bgp.engine.apply_delta", "repro.bgp.engine", "PropagationEngine.apply_delta"),
    ("bgp.fastpath.propagate", "repro.bgp.fastpath", "propagate_fastpath"),
    ("collectors.rib.build_collector_rib", "repro.collectors.rib", "build_collector_rib"),
    ("probing.probe_round", "repro.probing.prober", "Prober.probe_round"),
    ("probing.snapshot_capture", "repro.probing.forwarding", "RibSnapshot.capture"),
    ("experiment.runner_run", "repro.experiment.runner", "ExperimentRunner.run"),
    ("experiment.run_experiment_pair", "repro.experiment.campaign", "run_experiment_pair"),
    ("experiment.campaign", "repro.api", "run_campaign"),
    ("core.classify_experiment", "repro.core.classify", "classify_experiment"),
    ("core.build_figure5", "repro.core.ripe", "build_figure5"),
    ("core.analyses", "repro.core.aggregate", "build_table1"),
    ("core.analyses", "repro.core.compare", "build_table2"),
    ("core.analyses", "repro.core.validation", "build_table3"),
    ("core.analyses", "repro.core.prepend_analysis", "build_table4"),
    ("core.analyses", "repro.core.switch_cdf", "build_figure8"),
    ("core.analyses", "repro.collectors.churn", "build_churn_report"),
    ("core.analyses", "repro.core.validation", "operator_ground_truth"),
    ("whatif.apply", "repro.whatif", "WhatIfSession.apply"),
    ("whatif.advance_to_config", "repro.whatif", "WhatIfSession.advance_to_config"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class SpanRecorder:
    """Closed spans kept in memory as ``(id, parent, name, start, end,
    run)`` tuples; *run* is whatever :attr:`run_id` held at close."""

    def __init__(self) -> None:
        self.spans = []
        self.run_id = "setup"
        #: Per-run tallies read from wrapped calls' return values.
        self.tallies = defaultdict(Counter)
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent, name, start, end, self.run_id)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def layer_table(self, run_id):
        """``{layer: (self seconds, calls)}`` over the spans of
        *run_id*; self time is a span's duration minus its children's."""
        spans = [s for s in self.spans if s[5] == run_id]
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for span_id, _, name, start, end, _ in spans:
            own, calls = table.get(name, (0.0, 0))
            table[name] = (own + end - start - child_time[span_id], calls + 1)
        return table

    def records(self):
        keys = ("id", "parent", "name", "start", "end", "run")
        return [dict(zip(keys, span)) for span in self.spans]


def install(recorder: SpanRecorder) -> dict:
    """Wrap every layer callable; returns ``{callable: import sites}``."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    modules = [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]

    def count_memo(rib):
        recorder.tallies[recorder.run_id].update(
            memo_hits=rib.memo_hits, fastpath_runs=rib.fastpath_runs
        )

    sites = {}
    for layer, module_name, qualname in LAYERS:
        owner = importlib.import_module(module_name)
        on_result = count_memo if qualname == "build_collector_rib" else None
        if "." in qualname:
            class_name, method = qualname.split(".")
            cls = getattr(owner, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(layer, raw.__func__))
            else:
                wrapped = recorder.wrap(layer, raw, on_result)
            setattr(cls, method, wrapped)
            sites[qualname] = 1
            continue
        original = getattr(owner, qualname)
        wrapped = recorder.wrap(layer, original, on_result)
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    count += 1
        sites[qualname] = count
    return sites
