"""The three workloads: untimed set-up, a timed body repeated
``reps`` times, and correctness checks run after timing.

Each workload draws its inputs from the workload seed, calls the
public API through module attributes (so the traced run's wrappers are
the ones called), and returns a :class:`Measurement`; :func:`summarize`
turns that into named metrics.  Everything runs in one process on one
thread.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import shutil
import tempfile
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

import repro.api as api
import repro.core.report as report
import repro.experiment.campaign as campaign
import repro.topology.re_ecosystem as re_ecosystem
from repro.bgp.engine import LinkFlap, LocalprefEdit, PrependChange
from repro.bgp.policy import LP_CUSTOMER, LP_PEER, LP_PROVIDER, LP_RE_PREFERRED
from repro.core.classify import InferenceCategory
from repro.obs import get_registry
from repro.topology.re_config import REEcosystemConfig

from tracer import LAYER_NAMES

#: The network reproduce and whatif run on.  The workload seed draws
#: the rest (reproduce: probe seeds, engine jitter, background flaps;
#: whatif: the deltas) but not the topology, whose size varies by about
#: 6% between seeds and would swamp the timings' bounds.
NETWORK_SEED = 20250605
#: Set-up constructions timed per run; ``setup_s`` is their median and
#: the last one built is the one the first repetition uses.
SETUP_RUNS = 5
SWEEP_SCENARIOS = ("baseline", "deep-transit")
EXPERIMENTS = ("surf", "internet2")
#: Paper: ~81% of tested prefixes always reached over R&E (Table 1).
ALWAYS_RE_RANGE = (0.70, 0.90)
LOCALPREFS = (LP_PROVIDER, LP_RE_PREFERRED, LP_PEER, LP_CUSTOMER)

LAYER_UNITS = {
    "bgp.engine.messages_delivered": "count",
    "bgp.engine.best_changes": "count",
    "bgp.fastpath.iterations": "count",
    "bgp.fastpath.cache_hit_ratio": "ratio",
    "collectors.rib.memo_hit_ratio": "ratio",
    "probing.probes_sent": "count",
    "probing.response_ratio": "ratio",
    "unattributed_s": "s",
}
for _layer in LAYER_NAMES:
    LAYER_UNITS[_layer + ".self_s"] = "s"
    LAYER_UNITS[_layer + ".self_frac"] = "ratio"
    LAYER_UNITS[_layer + ".calls"] = "count"


@dataclass
class Run:
    seed: int
    scale: float
    reps: int
    deltas: int
    #: Directory the workload may write scratch files in.
    scratch: str
    recorder: Optional[object] = None


@dataclass
class Measurement:
    recorder: Optional[object]
    setup: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    #: One output digest per repetition; all must be equal.
    digests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Workload-specific end-to-end metrics: name -> (value, unit, n).
    extra: dict = field(default_factory=dict)
    #: Traced run only: one per-layer row per repetition.
    layers: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def time_setup(self, build):
        for _ in range(SETUP_RUNS):
            built = None  # free the previous one before building the next
            started = time.perf_counter()
            built = build()
            self.setup.append(time.perf_counter() - started)
        return built

    @contextmanager
    def rep(self):
        recorder = self.recorder
        run_id = "rep%d" % len(self.walls)
        if recorder is not None:
            recorder.run_id = run_id
            before = get_registry().snapshot()["counters"]
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        self.walls.append(wall)
        if recorder is not None:
            recorder.run_id = "untimed"
            after = get_registry().snapshot()["counters"]
            self.layers.append(_layer_row(recorder, run_id, wall, before, after))

    def end_timing(self) -> None:
        """Read peak memory before any untimed oracle runs."""
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_row(recorder, run_id, wall, before, after) -> dict:
    def delta(name):
        return int(after.get(name, 0) - before.get(name, 0))

    table = recorder.layer_table(run_id)
    row = {}
    attributed = 0.0
    for layer in LAYER_NAMES:
        own, calls = table.get(layer, (0.0, 0))
        attributed += own
        row[layer + ".self_s"] = own
        row[layer + ".self_frac"] = own / wall
        row[layer + ".calls"] = calls
    hits = delta("fastpath.decision_cache_hits")
    misses = delta("fastpath.decision_cache_misses")
    memo = recorder.tallies[run_id]
    probes = delta("prober.probes_sent")
    row.update({
        "bgp.engine.messages_delivered": delta("engine.messages_delivered"),
        "bgp.engine.best_changes": delta("engine.best_changes"),
        "bgp.fastpath.iterations": delta("fastpath.iterations"),
        "bgp.fastpath.cache_hit_ratio": _ratio(hits, hits + misses),
        "collectors.rib.memo_hit_ratio": _ratio(
            memo["memo_hits"], memo["memo_hits"] + memo["fastpath_runs"]
        ),
        "probing.probes_sent": probes,
        "probing.response_ratio": _ratio(delta("prober.responses"), probes),
        "unattributed_s": wall - attributed,
    })
    return row


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------
# reproduce: the paper's pipeline, a batch job.


def reproduce(run: Run) -> Measurement:
    config = REEcosystemConfig(scale=run.scale)
    m = Measurement(run.recorder)
    ecosystem = m.time_setup(
        lambda: re_ecosystem.build_ecosystem(config, seed=NETWORK_SEED)
    )
    paper = None
    for index in range(run.reps):
        if index:
            paper = ecosystem = None
            ecosystem = re_ecosystem.build_ecosystem(config, seed=NETWORK_SEED)
        with m.rep():
            paper = report.reproduce_paper(ecosystem=ecosystem, seed=run.seed)
            text = paper.render()
        m.attempted += 1
        m.digests.append(_sha(text))
    m.end_timing()
    for table in (paper.table1_surf, paper.table1_internet2):
        share = table.row(InferenceCategory.ALWAYS_RE).prefix_share
        low, high = ALWAYS_RE_RANGE
        m.check(
            low <= share <= high,
            "Table 1 (%s) always-R&E share %.3f outside [%.2f, %.2f]"
            % (table.experiment, share, low, high),
        )
    return m


# ---------------------------------------------------------------------
# sweep: a seed x scenario x experiment campaign grid, a batch job.


def sweep(run: Run) -> Measurement:
    grid = campaign.plan_grid(
        [run.seed, run.seed + 1], scenarios=SWEEP_SCENARIOS,
        experiments=EXPERIMENTS, scale=run.scale,
    )
    m = Measurement(run.recorder)
    # No one-time construction: each cell builds its own ecosystem
    # inside the timed wall.  Set-up times that per-cell construction
    # on its own, which also finishes lazy imports before timing.
    first = grid[0]
    m.time_setup(lambda: re_ecosystem.build_ecosystem(
        first.ecosystem_config(), seed=first.seed
    ))
    cells = []
    for _ in range(run.reps):
        directory = tempfile.mkdtemp(prefix="sweep-", dir=run.scratch)
        try:
            with m.rep():
                result = api.run_campaign(
                    grid, directory, pool_workers=1, resume=False
                )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        m.attempted += len(grid)
        m.check(
            result.completed == len(grid) and not result.failures,
            "campaign completed %d of %d cells, %d failure(s)"
            % (result.completed, len(grid), len(result.failures)),
        )
        cells.extend(r["wall_seconds"] for r in result.records.values())
        m.digests.append(_sha(result.summary.to_json()))
    m.end_timing()
    m.extra["cell_p50_s"] = (median(cells), "s", len(cells))
    return m


# ---------------------------------------------------------------------
# whatif: one warm session, closed loop with one client.


def draw_deltas(session, seed: int, count: int) -> list:
    """*count* deltas drawn by ``random.Random(seed)``: link flap,
    localpref edit and prepend change in rotation, edges picked from
    the sorted edge list."""
    rng = random.Random(seed)
    edges = [(link.a, link.b) for link in session.ecosystem.topology.links()]
    origins = (session.re_origin, session.commodity_origin)
    prefix = session.ecosystem.measurement_prefix
    deltas = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            a, b = rng.choice(edges)
            deltas.append(LinkFlap(a, b, action="flap"))
        elif kind == 1:
            a, b = rng.choice(edges)
            if rng.random() < 0.5:
                a, b = b, a
            deltas.append(LocalprefEdit(a, b, rng.choice(LOCALPREFS)))
        else:
            deltas.append(PrependChange(
                rng.choice(origins), prefix, rng.randrange(0, 4)
            ))
    return deltas


def _predict_all(session, prefixes, latencies, digest) -> None:
    clock = time.perf_counter
    signals = []
    for prefix in prefixes:
        started = clock()
        prediction = session.predict(prefix)
        latencies.append(clock() - started)
        signals.append(prediction.signal)
    digest.update("\n".join(signals).encode("utf-8"))


def whatif(run: Run) -> Measurement:
    spec = api.ExperimentSpec(seed=NETWORK_SEED, scale=run.scale)
    m = Measurement(run.recorder)
    session = m.time_setup(lambda: api.WhatIfSession(spec))
    deltas = draw_deltas(session, run.seed, run.deltas)
    queries = array("d")
    applies = array("d")
    for index in range(run.reps):
        if index:
            session = None
            session = api.WhatIfSession(spec)
        prefixes = [plan.prefix for plan in session.ecosystem.studied_prefixes()]
        configs = session.schedule.configs[1:]
        digest = hashlib.sha256()
        with m.rep():
            _predict_all(session, prefixes, queries, digest)
            for config in configs:
                session.advance_to_config(config)
                _predict_all(session, prefixes, queries, digest)
            for delta in deltas:
                started = time.perf_counter()
                session.apply(delta)
                applies.append(time.perf_counter() - started)
                _predict_all(session, prefixes, queries, digest)
        states = 1 + len(configs) + len(deltas)
        m.attempted += len(configs) + len(deltas) + states * len(prefixes)
        m.digests.append(digest.hexdigest())
    m.end_timing()
    cold = session.replay_cold()
    m.check(
        cold.rib_state() == session.rib_state(),
        "replay_cold() RIB state differs from the warm session's",
    )
    for name, q in (("query_p50_us", 0.50), ("query_p99_us", 0.99)):
        m.extra[name] = (_quantile(queries, q) * 1e6, "us", len(queries))
    for name, q in (("delta_p50_ms", 0.50), ("delta_p90_ms", 0.90)):
        m.extra[name] = (_quantile(applies, q) * 1e3, "ms", len(applies))
    return m


# ---------------------------------------------------------------------


def summarize(m: Measurement) -> dict:
    """Named metrics ``{name: [value, unit, samples]}``, the traced
    run's per-layer table in the same form, and the verdict."""
    m.check(
        len(set(m.digests)) == 1,
        "output digest differs between repetitions",
    )
    metrics = {
        "setup_s": [median(m.setup), "s", len(m.setup)],
        "wall_s": [median(m.walls), "s", len(m.walls)],
        "peak_rss_mb": [m.peak_rss_mb, "MB", 1],
    }
    for name, (value, unit, count) in m.extra.items():
        metrics[name] = [value, unit, count]
    layers = {}
    if m.layers:
        for name, unit in LAYER_UNITS.items():
            values = [row[name] for row in m.layers]
            if unit == "count":
                m.check(
                    len(set(values)) == 1,
                    "%s differs between repetitions: %s" % (name, values),
                )
                layers[name] = [values[0], unit, len(values)]
            else:
                layers[name] = [median(values), unit, len(values)]
    return {
        "metrics": metrics,
        "layers": layers,
        "digest": m.digests[0],
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
    }
