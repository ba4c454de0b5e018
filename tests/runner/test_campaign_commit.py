"""The per-case commit order, and the bindings the benchmark wraps.

Every finished case writes its artifacts in one fixed order (DESIGN.md
section 6.3): its perflog rows are buffered, a journal batch is appended
only after a perflog flush that covers its cases' rows, the case's spans
are flushed before its result-store put, and nothing of case k+1 is
written before case k's steps are done.  A breaker trip still commits
the tripping case and nothing after it.  These tests spy on the writers
over serial and async campaigns, cold, warm, aborted and resumed.
"""

import pytest

from repro.obs.trace import Tracer
from repro.runner import executor as executor_mod
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor, RunConfig
from repro.runner.fields import parameter
from repro.runner.perflog import PerflogHandler
from repro.runner.resilience import CampaignJournal
from repro.runner.results import CaseResultStore

PINNED_TS = "2026-01-01T00:00:00"


class CommitProbe(RegressionTest):
    """One FOM per point; every third point fails its sanity check."""

    point = parameter(list(range(9)))
    valid_prog_environs = ["*"]

    def program(self, ctx):
        ok = "bad" if self.point % 3 == 2 else "ok"
        return f"{ok} rate={100.0 + self.point}\n", 1.0 + self.point % 4

    def check_sanity(self, stdout):
        sn.assert_found(r"^ok", stdout)

    def extract_performance(self, stdout):
        rate = sn.extractsingle(r"rate=([\d.]+)", stdout, 1, float)
        return {"rate": (rate, "MB/s")}


class WriteLog:
    """Every spied artifact write, in call order, named by its case."""

    def __init__(self, cases):
        self.by_test = {c.test.name: c.display_name for c in cases}
        self.events = []

    def spy(self, monkeypatch):
        def wrap(cls, name, label, describe, before=False):
            original = getattr(cls, name)

            def spied(obj, *args):
                # rows count as buffered before an emit's own auto-flush;
                # every other write counts once it has succeeded
                if before:
                    self.events.append((label, describe(obj, *args)))
                out = original(obj, *args)
                if not before:
                    self.events.append((label, describe(obj, *args)))
                return out

            monkeypatch.setattr(cls, name, spied)

        wrap(PerflogHandler, "emit", "emit",
             lambda h, result: result.case.display_name, before=True)
        wrap(PerflogHandler, "emit_replay", "emit",
             lambda h, relpath, lines: self.by_test[lines[0].split("|")[2]],
             before=True)
        wrap(PerflogHandler, "flush", "rows-flush", lambda h: None)
        wrap(CampaignJournal, "record_many", "journal",
             lambda j, records: [r["case"] for r in records])
        wrap(Tracer, "flush", "spans",
             lambda t, rec: None if rec.track == "campaign" else rec.track)
        wrap(CaseResultStore, "put", "put", lambda s, key, entry: entry["case"])

    @staticmethod
    def case_of(event):
        """The case an event belongs to (a journal batch: its last)."""
        label, what = event
        return what[-1] if label == "journal" else what

    def check(self, report):
        order = {r.case.display_name: k for k, r in enumerate(report.results)}
        pending, flushed, traced = set(), set(), set()
        last = -1
        for event in self.events:
            label, what = event
            if label == "emit":
                pending.add(what)
            elif label == "rows-flush":
                flushed |= pending
                pending.clear()
            elif label == "journal":
                assert set(what) <= flushed, ("journal before rows", event)
            elif label == "spans" and what is not None:
                traced.add(what)
            elif label == "put":
                assert what in traced, ("put before spans", event)
            case = self.case_of(event)
            if case is not None:
                # no step of a case comes after a step of a later case
                assert order[case] >= last, ("out of order", event)
                last = order[case]

    def cases(self, label):
        return [case for name, what in self.events if name == label
                for case in (what if label == "journal" else [what])
                if case is not None]

    def committed(self):
        return {self.case_of(e) for e in self.events} - {None}


def _campaign(tmp_path, monkeypatch, tag, policy, batch, **fields):
    ex = Executor(perflog_prefix=str(tmp_path / "perflogs"),
                  perflog_timestamp=PINNED_TS)
    cases = ex.expand_cases([CommitProbe], "archer2")
    log = WriteLog(cases)
    with monkeypatch.context() as patch:
        log.spy(patch)
        report = ex.run_cases(
            cases,
            RunConfig(policy=policy, workers=2 if policy == "async" else 1,
                      journal_batch=batch),
            trace=str(tmp_path / f"trace-{tag}.jsonl"),
            **fields,
        )
    log.check(report)
    return cases, report, log


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("policy", ["serial", "async"])
def test_commit_order_holds_cold_warm_aborted_and_resumed(
        tmp_path, monkeypatch, policy, batch):
    store = str(tmp_path / "store")
    journal = str(tmp_path / "journal.jsonl")
    _, cold, log = _campaign(tmp_path, monkeypatch, "cold", policy, batch,
                             journal=str(tmp_path / "cold.jsonl"),
                             result_store=store)
    assert cold.num_cases == 9 and len(cold.failed) == 3
    assert len(log.cases("put")) == 9

    _, warm, log = _campaign(tmp_path, monkeypatch, "warm", policy, batch,
                             journal=str(tmp_path / "warm.jsonl"),
                             result_store=store)
    assert len(warm.replayed) == 9
    assert len(log.cases("emit")) == 9 and not log.cases("put")

    cases, aborted, log = _campaign(
        tmp_path, monkeypatch, "abort", policy, batch, journal=journal,
        result_store=str(tmp_path / "store-abort"), max_failures=1)
    assert aborted.aborted is not None
    tripping = aborted.results[-1].case.display_name
    assert not aborted.results[-1].passed
    later = {c.display_name for c in cases} - {
        r.case.display_name for r in aborted.results}
    assert later  # the trip left cases unrun
    assert log.committed() & later == set()
    assert log.cases("journal")[-1] == tripping
    assert log.cases("spans")[-1] == tripping
    assert log.cases("put")[-1] == tripping

    _, resumed, log = _campaign(tmp_path, monkeypatch, "resume", policy,
                                batch, journal=journal, resume=True)
    assert resumed.resumed and resumed.num_cases == 9
    resumed_cases = {r.case.display_name for r in resumed.resumed}
    assert resumed_cases.isdisjoint(log.cases("journal"))
    assert resumed_cases.isdisjoint(log.cases("emit"))


def test_executor_bindings_the_benchmark_wraps(tmp_path, monkeypatch):
    """The module globals a layer wrapper replaces are called by name."""
    calls = {}

    def counting(name):
        original = getattr(executor_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_mod, name, wrapper)

    for name in ("run_waves", "run_case", "replay_result",
                 "case_fingerprint"):
        counting(name)
    store = str(tmp_path / "store")
    for tag, hits in (("cold", 0), ("warm", 9)):
        calls.clear()
        ex = Executor(perflog_prefix=str(tmp_path / f"pl-{tag}"),
                      perflog_timestamp=PINNED_TS)
        report = ex.run_cases(ex.expand_cases([CommitProbe], "archer2"),
                              result_store=store)
        stats = report.result_cache
        assert stats["hits"] == hits == len(report.replayed)
        assert calls.get("replay_result", 0) == stats["hits"]
        assert calls.get("run_case", 0) == stats["misses"] == 9 - hits
        assert calls["run_waves"] == 1
        assert calls["case_fingerprint"] >= report.num_cases
