"""Crash-safe campaign journal + --resume semantics + perflog durability."""

import json
import os

import pytest

from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor
from repro.runner.fields import parameter, variable
from repro.runner.perflog import PERFLOG_FIELDS
from repro.runner.resilience import (
    CampaignAborted,
    CampaignJournal,
    case_fingerprint,
    result_from_record,
)
from repro.runner.sanity import SanityError

PINNED_TS = "2026-01-01T00:00:00"


class Member(RegressionTest):
    """Four independent cases -- the campaign the crash tests interrupt."""

    size = parameter([1, 2, 3, 4])
    #: class-level kill switch: crash the campaign once `ran` reaches it
    kill_at = None
    ran = 0

    def program(self, ctx):
        cls = Member
        if cls.kill_at is not None and cls.ran >= cls.kill_at:
            raise CampaignAborted("simulated crash (power loss)")
        cls.ran += 1
        return f"size {self.size}: {self.size * 1.5}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"size", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


class Hopeless(RegressionTest):
    """Fails every run -- the quarantine candidate."""

    runs = 0

    def program(self, ctx):
        Hopeless.runs += 1
        return "bad\n", 1.0

    def check_sanity(self, stdout):
        raise SanityError("always wrong")


@pytest.fixture(autouse=True)
def _reset_kill_switch():
    Member.kill_at = None
    Member.ran = 0
    Hopeless.runs = 0
    yield
    Member.kill_at = None
    Member.ran = 0


def make_executor(tmp_path, tag):
    prefix = str(tmp_path / f"perflogs-{tag}")
    return Executor(perflog_prefix=prefix, perflog_timestamp=PINNED_TS), prefix


def read_logs(prefix):
    logs = {}
    for root, _, files in os.walk(prefix):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                logs[os.path.relpath(path, prefix)] = fh.read()
    return logs


class TestFingerprint:
    def test_stable_across_expansions(self):
        a = Executor().expand_cases([Member], "archer2")
        b = Executor().expand_cases([Member], "archer2")
        assert [case_fingerprint(c) for c in a] == \
               [case_fingerprint(c) for c in b]

    def test_distinct_per_coordinate(self):
        ex = Executor()
        cases = ex.expand_cases([Member], "archer2",
                                environs=["default", "gcc@11.2.0"])
        prints = {case_fingerprint(c) for c in cases}
        assert len(prints) == len(cases) == 8


class TestJournalFile:
    def test_record_roundtrip(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "j.jsonl"))
        ex, _ = make_executor(tmp_path, "rt")
        cases = ex.expand_cases([Member], "archer2")
        report = ex.run_cases(cases, journal=journal)
        assert report.success
        state = journal.load()
        assert len(state) == 4
        for case in cases:
            record = state[case_fingerprint(case)]
            assert record["status"] == "passed"
            replayed = result_from_record(case, record)
            assert replayed.passed and replayed.resumed
            assert replayed.perfvars == \
                {"value": (case.test.size * 1.5, "units")}

    def test_lines_are_whole_json_records(self, tmp_path):
        """Satellite: single-write appends -- never a partial line."""
        path = tmp_path / "j.jsonl"
        ex, _ = make_executor(tmp_path, "whole")
        ex.run_cases(ex.expand_cases([Member], "archer2"), journal=str(path))
        raw = path.read_text()
        assert raw.endswith("\n")
        for line in raw.splitlines():
            json.loads(line)  # every line parses on its own

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(str(path))
        ex, _ = make_executor(tmp_path, "torn")
        ex.run_cases(ex.expand_cases([Member], "archer2"), journal=journal)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "deadbeef", "status"')  # torn write
        assert len(list(journal.entries())) == 4  # tail ignored

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json at all\n{"fingerprint": "ok"}\n')
        with pytest.raises(json.JSONDecodeError):
            list(CampaignJournal(str(path)).entries())

    def test_missing_file_is_empty(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "absent.jsonl"))
        assert list(journal.entries()) == []
        assert journal.load() == {}


class TestCrashResume:
    def test_resume_skips_completed_cases(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        # --- the uninterrupted reference run -----------------------------
        ref_ex, ref_prefix = make_executor(tmp_path, "ref")
        ref = ref_ex.run_cases(ref_ex.expand_cases([Member], "archer2"))
        assert len(ref.passed) == 4

        # --- campaign killed after two cases -----------------------------
        Member.ran = 0
        Member.kill_at = 2
        ex1, prefix = make_executor(tmp_path, "crash")
        crashed = ex1.run_cases(ex1.expand_cases([Member], "archer2"),
                                journal=path)
        assert crashed.aborted == "simulated crash (power loss)"
        assert len(crashed.passed) == 2
        assert len(CampaignJournal(path).load()) == 2  # proof of progress

        # --- resumed in a fresh process (fresh executor) ------------------
        Member.kill_at = None
        ran_before_resume = Member.ran
        ex2, _ = make_executor(tmp_path, "crash")  # same perflog prefix
        resumed = ex2.run_cases(ex2.expand_cases([Member], "archer2"),
                                journal=path, resume=True)
        assert resumed.success
        assert len(resumed.passed) == 4
        # the journal proves >= 1 case was skipped, not re-run
        assert len(resumed.resumed) == 2
        # only the two incomplete cases executed again
        assert Member.ran == ran_before_resume + 2

        # merged observable output == the uninterrupted run's
        assert read_logs(prefix) == read_logs(ref_prefix)
        ref_vars = [(r.case.display_name, sorted(r.perfvars.items()))
                    for r in ref.results]
        res_vars = [(r.case.display_name, sorted(r.perfvars.items()))
                    for r in resumed.results]
        assert res_vars == ref_vars
        assert "Resumed 2 case(s)" in resumed.summary()

    def test_resume_without_prior_journal_runs_everything(self, tmp_path):
        ex, _ = make_executor(tmp_path, "noprior")
        report = ex.run_cases(ex.expand_cases([Member], "archer2"),
                              journal=str(tmp_path / "new.jsonl"),
                              resume=True)
        assert len(report.passed) == 4
        assert not report.resumed

    def test_failed_cases_rerun_on_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        ex1, _ = make_executor(tmp_path, "failrerun")
        cases = ex1.expand_cases([Hopeless], "archer2")
        ex1.run_cases(cases, journal=path)
        assert Hopeless.runs == 1
        ex2, _ = make_executor(tmp_path, "failrerun")
        report = ex2.run_cases(ex2.expand_cases([Hopeless], "archer2"),
                               journal=path, resume=True)
        assert Hopeless.runs == 2  # failed != completed: it re-ran
        assert not report.resumed

    def test_repeated_failures_quarantine_across_cycles(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        for cycle in range(2):
            ex, _ = make_executor(tmp_path, f"q{cycle}")
            ex.run_cases(ex.expand_cases([Hopeless], "archer2"),
                         journal=path, resume=True,
                         quarantine_threshold=2)
        assert Hopeless.runs == 2
        ex, _ = make_executor(tmp_path, "q-final")
        report = ex.run_cases(ex.expand_cases([Hopeless], "archer2"),
                              journal=path, resume=True,
                              quarantine_threshold=2)
        assert Hopeless.runs == 2  # quarantined: never executed
        (result,) = report.results
        assert result.quarantined
        assert "quarantined" in result.failure_reason
        assert "Quarantined 1 case(s)" in report.summary()


class TestPerflogDurability:
    def test_finally_flush_persists_rows_on_crash(self, tmp_path):
        """Satellite: a huge batch still hits disk when the campaign dies."""
        prefix = str(tmp_path / "perflogs")
        ex = Executor(perflog_prefix=prefix, perflog_batch=10_000,
                      perflog_timestamp=PINNED_TS)
        Member.kill_at = 2
        report = ex.run_cases(ex.expand_cases([Member], "archer2"))
        assert report.aborted
        logs = read_logs(prefix)
        rows = [line for body in logs.values()
                for line in body.decode().splitlines()
                if not line.startswith("timestamp|")]
        assert len(rows) == 2  # both completed cases' rows survived

    def test_no_partial_lines_ever(self, tmp_path):
        """Satellite: every perflog line is whole and well-formed."""
        prefix = str(tmp_path / "perflogs")
        ex = Executor(perflog_prefix=prefix, perflog_batch=3,
                      perflog_timestamp=PINNED_TS)
        ex.run_cases(ex.expand_cases([Member], "archer2"),
                     journal=str(tmp_path / "j.jsonl"))
        for body in read_logs(prefix).values():
            text = body.decode()
            assert text.endswith("\n")
            for line in text.splitlines():
                assert len(line.split("|")) == len(PERFLOG_FIELDS)

    def test_journal_entry_implies_durable_perflog_rows(self, tmp_path):
        """The ordering invariant: journal line => rows already on disk."""
        prefix = str(tmp_path / "perflogs")
        path = str(tmp_path / "j.jsonl")
        ex = Executor(perflog_prefix=prefix, perflog_batch=10_000,
                      perflog_timestamp=PINNED_TS)
        Member.kill_at = 3
        ex.run_cases(ex.expand_cases([Member], "archer2"), journal=path)
        journaled = {r["test"] for r in CampaignJournal(path).entries()}
        on_disk = set()
        for body in read_logs(prefix).values():
            for line in body.decode().splitlines()[1:]:
                on_disk.add(line.split("|")[2])
        assert journaled <= on_disk
        assert len(journaled) == 3

    def test_journal_batching_writes_identical_bytes(self, tmp_path):
        """Group commit changes fsync count, never bytes -- on either
        policy, with fault-driven retries in the records."""
        from repro.faults import FaultPlan

        def run(tag, policy="serial", workers=1, batch=1):
            ex, prefix = make_executor(tmp_path, tag)
            path = str(tmp_path / f"j-{tag}.jsonl")
            ex.run_cases(ex.expand_cases([Member], "archer2"),
                         policy=policy, workers=workers, journal=path,
                         journal_batch=batch,
                         faults=FaultPlan.parse("build:0.5", seed=7))
            with open(path, "rb") as fh:
                return fh.read(), read_logs(prefix)

        unit = run("unit")
        assert b'"attempts": 2' in unit[0]  # the faults did bite
        assert run("batch", batch=3) == unit
        assert run("async", policy="async", workers=4, batch=3) == unit


class TestCompaction:
    """Satellite: journal compaction keeps only the latest state."""

    def _bloat(self, tmp_path, cycles=3):
        """Re-run the same campaign into one journal, without --resume,
        so every cycle appends four more case records."""
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        for cycle in range(cycles):
            ex, _ = make_executor(tmp_path, f"cycle{cycle}")
            # no auto-compact interference: abort-free runs compact, so
            # bloat via the journal API directly on later cycles
            report = ex.run_cases(ex.expand_cases([Member], "archer2"))
            for result in report.results:
                journal.record(result)
        return journal, path

    def test_compact_keeps_latest_record_per_fingerprint(self, tmp_path):
        journal, _ = self._bloat(tmp_path, cycles=3)
        assert len(list(journal.entries())) == 12
        before = journal.load()  # what --resume would reconstruct
        dropped = journal.compact()
        assert dropped == 8
        assert len(list(journal.entries())) == 4
        assert journal.load() == before  # resume state unchanged

    def test_compact_is_idempotent(self, tmp_path):
        journal, _ = self._bloat(tmp_path, cycles=2)
        assert journal.compact() == 4
        assert journal.compact() == 0  # nothing left to drop

    def test_compact_keeps_last_health_snapshot(self, tmp_path):
        journal, _ = self._bloat(tmp_path, cycles=2)
        journal.record_health({"drained": ["nid0001"], "nodes": {}})
        journal.record_health({"drained": ["nid0001", "nid0002"],
                               "nodes": {}})
        journal.compact()
        assert journal.health_snapshot() == {
            "drained": ["nid0001", "nid0002"], "nodes": {},
        }
        healths = [r for r in journal.entries() if r.get("kind") == "health"]
        assert len(healths) == 1  # older snapshots dropped

    def test_compact_preserves_unknown_record_shapes(self, tmp_path):
        journal, path = self._bloat(tmp_path, cycles=2)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "from-the-future", "x": 1}\n')
        journal.compact()
        assert {"kind": "from-the-future", "x": 1} in list(journal.entries())

    def test_compacted_file_is_atomic_and_whole(self, tmp_path):
        journal, path = self._bloat(tmp_path, cycles=3)
        journal.compact()
        raw = open(path, encoding="utf-8").read()
        assert raw.endswith("\n")
        for line in raw.splitlines():
            json.loads(line)
        assert not os.path.exists(path + ".compact")  # temp cleaned up

    def test_successful_campaign_auto_compacts(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        # crash once (journal keeps failed/partial records, no compact)...
        Member.kill_at = 2
        ex1, _ = make_executor(tmp_path, "auto1")
        crashed = ex1.run_cases(ex1.expand_cases([Member], "archer2"),
                                journal=path)
        assert crashed.aborted
        # ...then resume to completion: the journal is compacted in place
        Member.kill_at = None
        ex2, _ = make_executor(tmp_path, "auto2")
        resumed = ex2.run_cases(ex2.expand_cases([Member], "archer2"),
                                journal=path, resume=True)
        assert resumed.success
        records = list(CampaignJournal(path).entries())
        case_records = [r for r in records if "fingerprint" in r]
        assert len(case_records) == len({r["fingerprint"]
                                         for r in case_records}) == 4

    def test_failed_campaign_is_not_compacted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        for _ in range(2):
            ex, _ = make_executor(tmp_path, "keep")
            report = ex.run_cases(ex.expand_cases([Hopeless], "archer2"),
                                  journal=path, quarantine_threshold=None)
            assert not report.success
        # two failing cycles, two records: failure history is evidence
        assert len(list(CampaignJournal(path).entries())) == 2


class TestCompactionComposition:
    """Satellite: compact() composed with replay records and health
    snapshots -- the mixed-journal shape a store-backed, health-tracked
    campaign actually leaves behind."""

    def _mixed_journal(self, tmp_path):
        """Case records x2 cycles + two replays per case + two healths."""
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        results = []
        for cycle in range(2):
            ex, _ = make_executor(tmp_path, f"mix{cycle}")
            report = ex.run_cases(ex.expand_cases([Member], "archer2"))
            results = report.results
            for result in results:
                journal.record(result)
        journal.record_health({"drained": [], "nodes": {"nid0001": 1}})
        for result in results:
            journal.record_replay(result, key="old-key",
                                  cached_from="run-1")
            journal.record_replay(result, key="new-key",
                                  cached_from="run-2")
        journal.record_health({"drained": ["nid0001"], "nodes": {}})
        return journal, path, results

    def test_compact_keeps_latest_of_every_keyspace(self, tmp_path):
        journal, _, results = self._mixed_journal(tmp_path)
        before = journal.load()
        # 8 case + 2 health + 8 replay = 18 records before compaction
        assert len(list(journal.entries())) == 18
        dropped = journal.compact()
        assert dropped == 9  # 4 stale cases + 4 stale replays + 1 health
        records = list(journal.entries())
        cases = [r for r in records if r.get("kind") is None]
        replays = [r for r in records if r.get("kind") == "replay"]
        healths = [r for r in records if r.get("kind") == "health"]
        assert len(cases) == 4 and journal.load() == before
        # the *latest* replay per fingerprint survived, not the first
        assert len(replays) == 4
        assert all(r["key"] == "new-key" for r in replays)
        assert journal.health_snapshot() == {
            "drained": ["nid0001"], "nodes": {},
        }
        assert len(healths) == 1
        assert journal.compact() == 0  # idempotent on the mixed shape

    def test_resume_after_compact_converges_byte_identically(self, tmp_path):
        """Crash -> compact the partial journal -> resume: same bytes
        as the uninterrupted run.  Compaction must never change what
        --resume reconstructs, even mid-campaign with meta records
        interleaved."""
        path = str(tmp_path / "j.jsonl")
        ref_ex, ref_prefix = make_executor(tmp_path, "cc-ref")
        ref = ref_ex.run_cases(ref_ex.expand_cases([Member], "archer2"))
        assert ref.success

        Member.ran = 0
        Member.kill_at = 2
        ex1, prefix = make_executor(tmp_path, "cc")
        journal = CampaignJournal(path)
        journal.record_health({"drained": [], "nodes": {}})
        crashed = ex1.run_cases(ex1.expand_cases([Member], "archer2"),
                                journal=journal)
        assert crashed.aborted and len(crashed.passed) == 2

        # an operator compacts the crashed campaign's journal offline
        reopened = CampaignJournal(path)
        state_before = reopened.load()
        reopened.compact()
        assert CampaignJournal(path).load() == state_before

        Member.kill_at = None
        ran_before = Member.ran
        ex2, _ = make_executor(tmp_path, "cc")  # same perflog prefix
        resumed = ex2.run_cases(ex2.expand_cases([Member], "archer2"),
                                journal=path, resume=True)
        assert resumed.success and len(resumed.resumed) == 2
        assert Member.ran == ran_before + 2  # nothing re-executed
        assert read_logs(prefix) == read_logs(ref_prefix)
