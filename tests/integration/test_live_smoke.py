"""Live analytics smoke (tier-1): the streaming plane's acceptance run.

The live tentpole's contract, as tests:

* a chaos-seeded campaign watched live produces windowed aggregates
  that reconcile **exactly** with the post-hoc journal counts and the
  end-of-run metrics snapshot -- live is not an estimate;
* ``repro-top --replay`` over the finished trace renders a dashboard
  byte-identical across serial / async policies (the trace is
  byte-identical, so everything derived from it must be too);
* replaying the trace reconstructs the same case/latency/system state
  the live sink accumulated while the campaign ran;
* the live-status artifact survives the fsck contract: sealed lines
  verify, torn tails heal, and ``--provenance`` discovers it.
"""

import json
import os

import pytest

from repro.faults import FaultPlan
from repro.obs.live import read_live_status, replay_trace
from repro.obs.top import main as top_main
from repro.obs.top import render_dashboard
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor
from repro.runner.fields import parameter
from repro.runner.resilience import CampaignJournal, RetryPolicy

pytestmark = pytest.mark.chaos

CHAOS_SPEC = "build:0.3,submit:0.3,timeout:0.3,hook:0.3"
RETRY = RetryPolicy(max_attempts=6, jitter=0.0)


class LiveBench(RegressionTest):
    """Six deterministic cases."""

    size = parameter([1, 2, 3, 4, 5, 6])

    def program(self, ctx):
        return f"bw {self.size}: {self.size * 100.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"bw", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"bandwidth": (v, "MB/s")}


def campaign(tmp_path, tag, seed=42, policy="serial", workers=1,
             trace=True, live=True, **run_kwargs):
    ex = Executor()
    cases = ex.expand_cases([LiveBench], "archer2")
    faults = FaultPlan.parse(CHAOS_SPEC, seed=seed) if seed is not None \
        else None
    trace_path = str(tmp_path / f"trace-{tag}.jsonl") if trace else None
    live_path = str(tmp_path / f"{tag}.live.jsonl") if live else None
    report = ex.run_cases(cases, policy=policy, workers=workers,
                          retry=RETRY, faults=faults, trace=trace_path,
                          metrics=True, live=live_path, **run_kwargs)
    return report, trace_path, live_path


class TestLiveReconciliation:
    def test_live_aggregates_match_journal_and_metrics(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        report, _, live = campaign(tmp_path, "chaos",
                                   journal=journal_path)
        assert report.success
        assert report.live_status_path == live

        _, statuses = read_live_status(live)
        snap = statuses[-1]["snapshot"]
        records = CampaignJournal(journal_path).load().values()
        counters = report.metrics["counters"]

        # the live case tallies equal the journal-derived truth...
        assert snap["cases"]["total"] == len(records) == 6
        assert snap["cases"]["passed"] == sum(
            1 for r in records if r["status"] == "passed")
        assert snap["cases"]["failed"] == sum(
            1 for r in records if r["status"] == "failed")
        assert snap["cases"]["attempts_extra"] == sum(
            r["attempts"] - 1 for r in records)
        # ... and the end-of-run metrics snapshot
        assert snap["cases"]["total"] == counters["cases.total"]
        assert snap["cases"]["retried"] == counters["cases.retried"]
        assert snap["totals"]["faults.injected"] == \
            counters["faults.injected"]

    def test_live_state_equals_trace_replay(self, tmp_path):
        _, trace, live = campaign(tmp_path, "replay")
        _, statuses = read_live_status(live)
        live_snap = statuses[-1]["snapshot"]
        replay_snap = replay_trace(trace).snapshot()
        # perflog rows/files arrive via note_append, which a trace
        # cannot carry; sources differ by construction
        for snap in (live_snap, replay_snap):
            for key in ("source", "rows", "files"):
                snap.pop(key)
            for rec in snap["systems"].values():
                rec.pop("rows")
        assert live_snap == replay_snap

    def test_untraced_campaign_still_aggregates(self, tmp_path):
        report, _, live = campaign(tmp_path, "untraced", trace=False)
        _, statuses = read_live_status(live)
        snap = statuses[-1]["snapshot"]
        assert snap["cases"]["total"] == 6
        assert snap["latency"]["queue"]["count"] >= 6
        assert snap["latency"]["run"]["count"] >= 6
        assert snap["rates"]["cases_per_second"] > 0


class TestReplayDashboardDeterminism:
    def test_byte_identical_across_policies(self, tmp_path, capsys):
        renders = {}
        for policy, workers in (("serial", 1), ("async", 4)):
            _, trace, _ = campaign(tmp_path, policy, policy=policy,
                                   workers=workers, live=False)
            assert top_main(["--replay", trace]) == 0
            renders[policy] = capsys.readouterr().out
        assert renders["serial"] == renders["async"]

    def test_replay_json_is_machine_readable(self, tmp_path, capsys):
        _, trace, _ = campaign(tmp_path, "json", live=False)
        assert top_main(["--replay", trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "replay"
        assert doc["cases"]["total"] == 6


class TestLiveStatusArtifact:
    def test_top_once_over_real_campaign(self, tmp_path, capsys):
        _, _, live = campaign(tmp_path, "cli")
        assert top_main([live, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro-top -- t=+" in out and "archer2" in out

    def test_fsck_verifies_and_heals_live_status(self, tmp_path, capsys):
        from repro.runner.fsck import main as fsck_main

        _, _, live = campaign(tmp_path, "fsck")
        assert fsck_main([live]) == 0
        out = capsys.readouterr().out
        assert "live-status" in out

        # tear the tail mid-append; fsck heals, repro-top still renders
        with open(live, "ab") as fh:
            fh.write(b'{"kind": "status", "torn')
        assert fsck_main([live]) == 1
        assert fsck_main(["--repair", live]) == 0
        capsys.readouterr()
        assert top_main([live, "--once"]) == 0

    def test_provenance_discovers_live_status(self, tmp_path):
        from repro.core.provenance import RunProvenance
        from repro.runner.fsck import targets_from_provenance

        report, trace, live = campaign(tmp_path, "prov")
        prov = RunProvenance(system="archer2")
        for result in report.results:
            prov.add_case(result)
        prov.attach_metrics(report.metrics, trace_path=trace,
                            live_status=report.live_status_path)
        prov_path = str(tmp_path / "provenance.json")
        with open(prov_path, "w", encoding="utf-8") as fh:
            fh.write(prov.to_json())

        loaded = RunProvenance.from_json(open(prov_path).read())
        assert loaded.live_status == live
        assert live in targets_from_provenance(prov_path)


class TestFleetLiveStatus:
    def _submit(self, qpath, tmp_path, tag, *extra):
        from repro.fleet.cli import main as fleet_main

        return fleet_main([
            "submit", "--queue", qpath, "-c", "stream",
            "--system", "archer2",
            "--perflog-dir", str(tmp_path / f"pl-{tag}"), *extra,
        ])

    def test_fleet_run_emits_and_status_reads(self, tmp_path, capsys):
        from repro.fleet.cli import main as fleet_main

        qpath = str(tmp_path / "fleet.q")
        assert self._submit(qpath, tmp_path, "a", "--tenant", "acme") == 0
        assert self._submit(qpath, tmp_path, "b") == 0
        assert fleet_main(["run", "--queue", qpath, "--live-status"]) == 0
        capsys.readouterr()

        live = qpath + ".live.jsonl"
        assert os.path.exists(live)
        _, statuses = read_live_status(live)
        snap = statuses[-1]["snapshot"]
        assert len(snap["fleet"]) == 2
        assert all(c["status"] == "completed"
                   for c in snap["fleet"].values())
        assert snap["tenants"]["acme"]["campaigns"] == 1

        # repro-fleet status surfaces the live per-campaign progress
        assert fleet_main(["status", "--queue", qpath]) == 0
        out = capsys.readouterr().out
        assert "live: t=+" in out
        assert "1/1 case(s) (100%)" in out

        # and repro-top renders the fleet grid from the same artifact
        assert top_main([live, "--once"]) == 0
        out = capsys.readouterr().out
        assert "FLEET" in out and "tenants" in out

    def test_dashboard_renders_fleet_progress_live(self, tmp_path):
        """Supervisor-fed sink: progress is observable between slices."""
        from repro.fleet.queue import CampaignQueue
        from repro.fleet.service import CampaignService, CampaignSpec
        from repro.fleet.supervisor import FleetSupervisor
        from repro.obs.live import LiveStatsSink

        qpath = str(tmp_path / "fleet.q")
        queue = CampaignQueue(qpath)
        spec = CampaignSpec(suites=["stream"], system="archer2",
                            perflog_dir=str(tmp_path / "pl-live"))
        queue.submit(spec.to_doc(), campaign_id="camp-live")
        sink = LiveStatsSink()
        sup = FleetSupervisor(queue, worker="w0",
                              service=CampaignService(), live=sink)
        summary = sup.run()
        assert [c.id for c in summary.completed] == ["camp-live"]
        snap = sink.snapshot()
        info = snap["fleet"]["camp-live"]
        assert info["status"] == "completed"
        assert info["done"] == info["total"] > 0
        text = render_dashboard(snap)
        assert "camp-live" in text and "100%" in text
