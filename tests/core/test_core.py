"""Tests for the Principles auditor, workflow, provenance, and framework."""

import json
import os

import pytest

from repro.core.framework import BenchmarkingFramework
from repro.core.principles import PRINCIPLES, ComplianceAuditor
from repro.core.provenance import RunProvenance
from repro.core.workflow import BenchmarkingWorkflow
from repro.runner.cli import load_suite
from repro.runner.executor import Executor, RunConfig


@pytest.fixture(scope="module")
def omp_result():
    """One real campaign reused across the module (runs take a second)."""
    fw = BenchmarkingFramework()
    return fw, fw.run_campaign("babelstream", ["archer2", "csd3"],
                               tags=["omp"])


class TestPrinciples:
    def test_all_six_stated(self):
        assert sorted(PRINCIPLES) == [1, 2, 3, 4, 5, 6]
        for p in PRINCIPLES.values():
            assert p.statement and p.title

    def test_framework_run_audits_clean(self, omp_result):
        fw, result = omp_result
        reports = fw.audit(result)
        assert reports, "no passing cases to audit"
        for report in reports:
            assert report.compliant, report.violations()

    def test_audit_detects_missing_foms(self, omp_result):
        fw, result = omp_result
        case = result.all_results[0]
        stolen, case.perfvars = case.perfvars, {}
        try:
            report = ComplianceAuditor().audit(case)
            assert not report.compliant
            assert any("P1" in v for v in report.violations())
        finally:
            case.perfvars = stolen

    def test_audit_detects_tampered_foms(self, omp_result):
        """P6: stored FOMs must re-extract from the stored output."""
        fw, result = omp_result
        case = result.all_results[0]
        stolen = dict(case.perfvars)
        case.perfvars = {k: (v * 2, u) for k, (v, u) in stolen.items()}
        try:
            report = ComplianceAuditor().audit(case)
            assert any("P6" in v for v in report.violations())
        finally:
            case.perfvars = stolen

    def test_audit_detects_cached_binary(self):
        """P3: skipping the rebuild is flagged."""
        classes = load_suite("babelstream")
        ex = Executor()
        first = ex.run(classes, "csd3", tags=["omp"])
        # second run with rebuild disabled -> root comes from cache
        cases = ex.expand_cases(classes, "csd3", tags=["omp"],
                                setvars={"rebuild": "false"})
        second = ex.run_cases(cases)
        report = ComplianceAuditor().audit(second.results[0])
        assert any("P3" in v for v in report.violations())

    def test_render_mentions_every_principle(self, omp_result):
        fw, result = omp_result
        text = ComplianceAuditor().audit(result.all_results[0]).render()
        for num in range(1, 7):
            assert f"P{num}" in text


class TestWorkflow:
    def test_frame_has_rows_per_fom(self, omp_result):
        _, result = omp_result
        frame = result.frame
        assert set(frame.unique("platform")) == {"archer2", "csd3"}
        assert len(frame.filter_eq("perf_var", "Triad")) == 2

    def test_fom_lookup(self, omp_result):
        _, result = omp_result
        value = result.fom("archer2", "BabelStreamBenchmark_omp", "Triad")
        assert value > 100
        with pytest.raises(KeyError):
            result.fom("archer2", "BabelStreamBenchmark_omp", "Quad")

    def test_efficiencies_and_portability(self, omp_result):
        _, result = omp_result
        effs = result.efficiencies("Triad")["BabelStreamBenchmark_omp"]
        assert set(effs) == {"archer2", "csd3"}
        assert all(0.5 < e < 1.0 for e in effs.values())
        pp = result.portability("Triad")["BabelStreamBenchmark_omp"]
        assert min(effs.values()) <= pp <= max(effs.values())

    def test_failed_case_appears_with_none(self):
        workflow = BenchmarkingWorkflow(
            load_suite("babelstream"), ["isambard"], tags=["cuda"]
        )
        result = workflow.run()
        effs = result.efficiencies("Triad")
        assert effs["BabelStreamBenchmark_cuda"]["isambard"] is None
        assert result.portability("Triad")["BabelStreamBenchmark_cuda"] == 0.0


class TestProvenance:
    def test_json_roundtrip(self, omp_result):
        fw, result = omp_result
        prov = fw.provenance(result)["archer2"]
        text = prov.to_json()
        doc = json.loads(text)
        assert doc["system"] == "archer2"
        back = RunProvenance.from_json(text)
        assert back.spec_hashes() == prov.spec_hashes()

    def test_provenance_carries_reproduction_material(self, omp_result):
        fw, result = omp_result
        entry = fw.provenance(result)["archer2"].entries[0]
        assert entry["spec"].startswith("babelstream")
        assert entry["job_script"].startswith("#!/bin/bash")
        assert "srun" in entry["run_command"]
        assert entry["perfvars"]["Triad"]["unit"] == "GB/s"

    def test_write_provenance(self, omp_result, tmp_path):
        fw, result = omp_result
        paths = fw.write_provenance(result, str(tmp_path))
        assert len(paths) == 2
        assert all(os.path.exists(p) for p in paths)


class TestFrameworkFacade:
    def test_suite_and_system_discovery(self):
        fw = BenchmarkingFramework()
        assert "babelstream" in fw.available_suites()
        assert "archer2" in fw.available_systems()

    def test_campaign_determinism(self):
        """The reproducibility thesis, end to end: identical campaigns
        produce identical FOMs."""
        fw = BenchmarkingFramework()
        a = fw.run_campaign("babelstream", ["csd3"], tags=["omp"])
        b = fw.run_campaign("babelstream", ["csd3"], tags=["omp"])
        va = a.fom("csd3", "BabelStreamBenchmark_omp", "Triad")
        vb = b.fom("csd3", "BabelStreamBenchmark_omp", "Triad")
        assert va == vb

    def test_run_campaign_takes_a_run_config(self, tmp_path):
        """The facade runs a journaled, store-backed campaign, and a warm
        rerun replays every case into byte-identical perflogs."""
        store = str(tmp_path / "store")
        platforms = ["archer2", "csd3"]
        results = {}
        for run in ("cold", "warm"):
            fw = BenchmarkingFramework(perflog_prefix=str(tmp_path / run))
            journal = tmp_path / f"{run}.jsonl"
            results[run] = fw.run_campaign(
                "babelstream", platforms,
                config=RunConfig(journal=str(journal), result_store=store))
            cases = sum(rep.num_cases for rep in results[run].reports.values())
            assert cases == 20
            assert len(journal.read_text().splitlines()) == cases
        for platform in platforms:
            cold = results["cold"].reports[platform]
            warm = results["warm"].reports[platform]
            assert cold.result_cache["puts"] == cold.num_cases
            assert len(warm.replayed) == warm.num_cases
            assert warm.result_cache["hit_rate"] == 1.0
        assert (read_tree(tmp_path / "cold") == read_tree(tmp_path / "warm"))

    def test_executor_run_splits_config_from_selection(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        report = Executor().run(load_suite("babelstream"), "archer2",
                                RunConfig(journal=str(journal)),
                                tags=["omp"])
        assert [r.case.test.name for r in report.results] == \
            ["BabelStreamBenchmark_omp"]
        assert len(journal.read_text().splitlines()) == 1


def read_tree(root):
    """``{relative path: bytes}`` of every file under *root*."""
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    assert out, f"no files under {root}"
    return out
