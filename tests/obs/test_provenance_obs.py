"""Provenance round-trips for the observability fields (satellite).

``attach_metrics`` + the ``trace_file`` pointer must survive the JSON
round-trip, and provenance files written *before* this PR (no metrics /
trace_file / energy keys) must still load.
"""

import json

from repro.core.provenance import RunProvenance
from repro.obs.metrics import MetricsRegistry


def sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("cases.total").add(3)
    reg.counter("cases.passed").add(2)
    reg.gauge("campaign.aborted").set(0.0)
    reg.histogram("build.seconds").observe(30.0)
    return reg.snapshot()


class TestAttachMetrics:
    def test_accepts_plain_dict(self):
        prov = RunProvenance(system="archer2")
        snap = sample_snapshot()
        prov.attach_metrics(snap, trace_path="trace.jsonl")
        assert prov.metrics == snap
        assert prov.trace_file == "trace.jsonl"

    def test_accepts_registry(self):
        prov = RunProvenance(system="archer2")
        reg = MetricsRegistry()
        reg.counter("cases.total").add(1)
        prov.attach_metrics(reg)
        assert prov.metrics["counters"]["cases.total"] == 1
        assert prov.trace_file is None

    def test_round_trip(self):
        prov = RunProvenance(system="archer2", invocation=["-c", "hpcg"])
        prov.attach_metrics(sample_snapshot(), trace_path="t.jsonl")
        loaded = RunProvenance.from_json(prov.to_json())
        assert loaded.metrics == prov.metrics
        assert loaded.trace_file == "t.jsonl"
        # and the re-serialization is stable
        assert loaded.to_json() == prov.to_json()


class TestBackCompat:
    def test_old_provenance_files_still_load(self):
        """A pre-observability provenance document lacks the new keys."""
        old_doc = {
            "framework_version": "1.0.0",
            "system": "archer2",
            "invocation": [],
            "cases": [{"test": "t", "passed": True}],
            "ingest_cache": None,
            "resilience": None,
            "health": None,
        }
        prov = RunProvenance.from_json(json.dumps(old_doc))
        assert prov.metrics is None
        assert prov.trace_file is None
        assert prov.entries == [{"test": "t", "passed": True}]
        # and it re-serializes without error, now carrying the new keys
        # and without the retired ingest_cache member
        doc = json.loads(prov.to_json())
        assert doc["metrics"] is None and doc["trace_file"] is None
        assert "ingest_cache" not in doc

    def test_old_journal_records_replay_without_energy(self):
        """Journal records written before the energy field still replay."""
        from repro.runner.resilience import result_from_record

        class _Case:
            display_name = "x"

        record = {"status": "passed", "attempts": 1}  # no 'energy' key
        result = result_from_record(_Case(), record)
        assert result.passed and result.resumed
        assert result.energy is None


class TestEnergyJournalRoundTrip:
    def test_energy_survives_journal_record_and_replay(self, tmp_path):
        from repro.machine.telemetry import EnergyReport
        from repro.runner import sanity as sn
        from repro.runner.benchmark import RegressionTest
        from repro.runner.executor import Executor
        from repro.runner.resilience import CampaignJournal, result_from_record

        class Echo(RegressionTest):
            def program(self, ctx):
                return "OUT: 42.0\n", 1.0

            def check_sanity(self, stdout):
                sn.assert_found(r"OUT:", stdout)

        ex = Executor()
        (case,) = ex.expand_cases([Echo], "archer2")
        report = ex.run_cases([case])
        (result,) = report.results
        assert result.energy is not None  # telemetry always captured

        journal = CampaignJournal(str(tmp_path / "journal.jsonl"))
        record = journal.record(result)
        assert record["energy"]["joules"] == result.energy.joules

        replayed = result_from_record(case, journal.load()[
            record["fingerprint"]])
        assert isinstance(replayed.energy, EnergyReport)
        assert replayed.energy.joules == result.energy.joules
        assert replayed.energy.mean_watts == result.energy.mean_watts
        # FOM-per-watt derivable from the replayed result
        assert replayed.energy.fom_per_watt(100.0) > 0
