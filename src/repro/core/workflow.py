"""The Figure-1 workflow: Code -> (build, run)xPlatforms -> FOMs -> Analysis.

The paper's Figure 1 (after Pennycook) draws benchmarking as one code and
problem size flowing through per-platform build+run stages into a set of
comparable FOMs and a final analysis.  :class:`BenchmarkingWorkflow` is
that diagram as an object: configure once, point at N platforms, and get
the assimilated FOM set plus efficiency analysis back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.efficiency import architectural_efficiency
from repro.analysis.portability import performance_portability
from repro.postprocess.dataframe import DataFrame
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor, RunConfig, RunReport
from repro.runner.pipeline import CaseResult

__all__ = ["BenchmarkingWorkflow", "WorkflowResult"]


@dataclass
class WorkflowResult:
    """The right-hand side of Figure 1: FOMs + analysis."""

    reports: Dict[str, RunReport] = field(default_factory=dict)
    #: tidy frame: platform, test, perf_var, value, unit, efficiency
    frame: DataFrame = field(default_factory=DataFrame)

    @property
    def all_results(self) -> List[CaseResult]:
        return [r for rep in self.reports.values() for r in rep.results]

    def fom(self, platform: str, test_name: str, var: str) -> float:
        for r in self.reports[platform].results:
            if r.case.test.name == test_name and var in r.perfvars:
                return r.perfvars[var][0]
        raise KeyError(f"no FOM {var!r} for {test_name!r} on {platform!r}")

    def efficiencies(self, var: str) -> Dict[str, Dict[str, Optional[float]]]:
        """test name -> {platform -> efficiency or None-if-did-not-run}."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for platform, report in self.reports.items():
            for r in report.results:
                name = r.case.test.name
                out.setdefault(name, {})
                if r.passed and var in r.perfvars:
                    peak = r.case.partition.node.peak_bandwidth_gbs
                    out[name][platform] = architectural_efficiency(
                        r.perfvars[var][0], peak
                    )
                else:
                    out[name][platform] = None
        return out

    def portability(self, var: str) -> Dict[str, float]:
        """test name -> Pennycook PP over every platform in the workflow."""
        effs = self.efficiencies(var)
        # PP demands efficiencies <= 1; measured/theoretical-peak satisfies it
        return {
            name: performance_portability(by_platform)
            for name, by_platform in effs.items()
        }


class BenchmarkingWorkflow:
    """Run one benchmark suite across many platforms and analyse the FOMs.

    Every platform runs under the one *config* (journal, result store,
    retries, ...); *selection* takes the
    :meth:`~repro.runner.executor.Executor.expand_cases` keywords.
    """

    def __init__(
        self,
        test_classes: Sequence[Type[RegressionTest]],
        platforms: Sequence[str],
        perflog_prefix: Optional[str] = None,
        config: Optional[RunConfig] = None,
        **selection: Any,
    ):
        self.test_classes = list(test_classes)
        self.platforms = list(platforms)
        self.executor = Executor(perflog_prefix=perflog_prefix)
        self.config = config
        self.selection = selection

    def run(self) -> WorkflowResult:
        result = WorkflowResult()
        records = []
        for platform in self.platforms:
            report = self.executor.run(
                self.test_classes, platform, self.config, **self.selection
            )
            result.reports[platform] = report
            for r in report.results:
                base = {
                    "platform": platform,
                    "test": r.case.test.name,
                    "passed": r.passed,
                }
                if r.passed:
                    peak = r.case.partition.node.peak_bandwidth_gbs
                    for var, (value, unit) in r.perfvars.items():
                        records.append(
                            {
                                **base,
                                "perf_var": var,
                                "value": value,
                                "unit": unit,
                                "efficiency": architectural_efficiency(
                                    value, peak
                                ),
                            }
                        )
                else:
                    records.append(
                        {**base, "perf_var": None, "value": None,
                         "unit": None, "efficiency": None}
                    )
        result.frame = DataFrame.from_records(
            records,
            columns=["platform", "test", "passed", "perf_var", "value",
                     "unit", "efficiency"],
        )
        return result
