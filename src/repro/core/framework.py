"""The Benchmarking Framework facade: the paper's artifact as one object.

Wires together every subsystem the way the excalibur-tests framework wires
Spack + ReFrame + post-processing: suites are selected by name, systems by
the shared configuration, and a campaign produces perflogs, provenance,
a compliance audit and analysis-ready data in one call.

>>> fw = BenchmarkingFramework(perflog_prefix="perflogs")
>>> result = fw.run_campaign("babelstream", ["archer2", "csd3"], tags=["omp"])
>>> fw.audit(result)[0].compliant
True
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.core.principles import ComplianceAuditor, ComplianceReport
from repro.core.provenance import RunProvenance
from repro.core.workflow import BenchmarkingWorkflow, WorkflowResult
from repro.runner.benchmark import RegressionTest
from repro.runner.cli import SUITES, load_suite
from repro.runner.config import SiteConfig, default_site_config
from repro.runner.executor import RunConfig

__all__ = ["BenchmarkingFramework"]


class BenchmarkingFramework:
    """High-level entry point for benchmarking campaigns."""

    def __init__(
        self,
        site: Optional[SiteConfig] = None,
        perflog_prefix: Optional[str] = None,
    ):
        self.site = site or default_site_config()
        self.perflog_prefix = perflog_prefix
        self.auditor = ComplianceAuditor()

    # -- suite discovery ------------------------------------------------------
    @staticmethod
    def available_suites() -> List[str]:
        return sorted(set(SUITES))

    @staticmethod
    def suite(name: str) -> List[Type[RegressionTest]]:
        return load_suite(name)

    def available_systems(self) -> List[str]:
        return sorted(self.site.systems)

    # -- campaigns ----------------------------------------------------------------
    def run_campaign(
        self,
        suite: str,
        platforms: Sequence[str],
        config: Optional[RunConfig] = None,
        **selection: Any,
    ) -> WorkflowResult:
        """Run one suite across platforms (the Figure 1 workflow).

        *config* carries the run options (``RunConfig(journal=...,
        result_store=...)`` for a journaled, incremental campaign);
        *selection* picks cases (``tags=["omp"]``).
        """
        classes = self.suite(suite)
        workflow = BenchmarkingWorkflow(
            classes,
            platforms,
            perflog_prefix=self.perflog_prefix,
            config=config,
            **selection,
        )
        return workflow.run()

    # -- provenance & audit ----------------------------------------------------------
    def provenance(self, result: WorkflowResult) -> Dict[str, RunProvenance]:
        out = {}
        for platform, report in result.reports.items():
            prov = RunProvenance(system=platform)
            for case_result in report.results:
                prov.add_case(case_result)
            if getattr(report, "result_cache", None) is not None:
                prov.attach_result_cache(report.result_cache)
            out[platform] = prov
        return out

    def write_provenance(self, result: WorkflowResult, directory: str) -> List[str]:
        os.makedirs(directory, exist_ok=True)
        paths = []
        for platform, prov in self.provenance(result).items():
            path = os.path.join(
                directory, f"provenance-{platform.replace(':', '-')}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prov.to_json())
            paths.append(path)
        return paths

    def audit(self, result: WorkflowResult) -> List[ComplianceReport]:
        """Audit every passing case against the six Principles."""
        return self.auditor.audit_all(result.all_results)
