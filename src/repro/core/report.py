"""High-level orchestration: run everything and render the report.

:func:`reproduce_paper` is the one-call entry point used by the
examples and benchmarks: build the ecosystem, run both experiments
with shared seeds, classify, and produce every table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..collectors.churn import ChurnReport, build_churn_report
from ..collectors.collector import Collector
from ..experiment.campaign import run_experiment_pair
from ..experiment.records import ExperimentResult
from ..topology.re_config import REEcosystemConfig
from ..topology.re_ecosystem import Ecosystem, build_ecosystem
from .aggregate import Table1, build_table1
from .classify import ExperimentInference, classify_experiment, origin_map
from .compare import Table2, build_table2
from .prepend_analysis import Table4, build_table4
from .ripe import Figure5, build_figure5
from .switch_cdf import Figure8, build_figure8
from .validation import (
    GroundTruthReport,
    Table3,
    build_table3,
    operator_ground_truth,
)


@dataclass
class PaperReproduction:
    """Everything the evaluation section reports."""

    ecosystem: Ecosystem
    surf_result: ExperimentResult
    internet2_result: ExperimentResult
    surf_inference: ExperimentInference
    internet2_inference: ExperimentInference
    table1_surf: Table1
    table1_internet2: Table1
    table2: Table2
    table3: Table3
    table4: Table4
    figure5: Figure5
    figure8_surf: Figure8
    figure8_internet2: Figure8
    churn_internet2: ChurnReport
    ground_truth: GroundTruthReport

    def render(self) -> str:
        sections = [
            self.table1_surf.render(),
            self.table1_internet2.render(),
            self.table2.render(),
            self.table3.render(),
            self.table4.render(),
            self.figure5.render(),
            "Figure 3 (Internet2 churn):",
            *("  " + row for row in self.churn_internet2.summary_rows()),
            self.figure8_surf.render(),
            self.figure8_internet2.render(),
            self.ground_truth.render(),
        ]
        return "\n\n".join(sections)


def experiment_collector(ecosystem: Ecosystem, result: ExperimentResult) -> Collector:
    """A collector with every RouteViews/RIS-analogue session, fed the
    experiment's update log."""
    collector = Collector(
        "routeviews+ris", ecosystem.feeders.all_sessions()
    )
    collector.ingest(result.update_log)
    return collector


def reproduce_paper(
    config: Optional[REEcosystemConfig] = None,
    seed: int = 0,
    ecosystem: Optional[Ecosystem] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
) -> PaperReproduction:
    """Run the full reproduction at the given scale and seed.

    ``workers`` / ``shard_size`` parallelise the probing rounds (see
    :mod:`repro.experiment.parallel`); the report is byte-identical at
    every worker count.  ``fault_plan`` injects scripted faults
    (:mod:`repro.faults`): execution faults are recovered without
    changing the report, environment faults change it
    deterministically; ``shard_timeout`` bounds each shard execution.
    Every route selection, engine and fastpath alike, goes through
    :class:`~repro.bgp.decision.DecisionProcess`.
    """
    if ecosystem is None:
        ecosystem = build_ecosystem(config or REEcosystemConfig(), seed=seed)
    surf_result, internet2_result = run_experiment_pair(
        ecosystem, seed=seed, workers=workers, shard_size=shard_size,
        fault_plan=fault_plan, shard_timeout=shard_timeout,
    )
    origins = origin_map(ecosystem)
    surf_inference = classify_experiment(surf_result, origins)
    internet2_inference = classify_experiment(internet2_result, origins)

    collector = experiment_collector(ecosystem, internet2_result)

    return PaperReproduction(
        ecosystem=ecosystem,
        surf_result=surf_result,
        internet2_result=internet2_result,
        surf_inference=surf_inference,
        internet2_inference=internet2_inference,
        table1_surf=build_table1(surf_inference),
        table1_internet2=build_table1(internet2_inference),
        table2=build_table2(surf_inference, internet2_inference, ecosystem),
        table3=build_table3(ecosystem, internet2_inference,
                            internet2_result),
        table4=build_table4(ecosystem, internet2_inference),
        figure5=build_figure5(ecosystem),
        figure8_surf=build_figure8(ecosystem, surf_inference,
                                   internet2_inference, "surf"),
        figure8_internet2=build_figure8(ecosystem, surf_inference,
                                        internet2_inference, "internet2"),
        churn_internet2=build_churn_report(internet2_result, collector),
        ground_truth=operator_ground_truth(ecosystem, internet2_inference,
                                           seed=seed),
    )
