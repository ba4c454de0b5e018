"""I/O chaos smoke test: a storage-fault storm must converge or fail loudly.

The storage-resilience tentpole's headline properties:

* Under ``--durability degrade``, a seeded storm of all five I/O fault
  kinds (``enospc``, ``eio``, ``torn``, ``bitrot``, ``fsync-lie``) at
  >=5% per artifact operation completes the campaign and produces
  perflogs *byte-identical* to a fault-free run -- on both execution
  policies.  Accelerator artifacts (result store, trace) may degrade
  away; the primary record may not.
* Under ``--durability strict`` the same storm fail-stops
  deterministically, naming the artifact that could not be persisted.
* ``repro-fsck`` detects and heals 100% of injected artifact
  corruption: torn tails, mid-file bit rot, rotten store pack lines.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.iofaults import flip_byte, tear_tail
from repro.obs.jsonl import read_jsonl, verify_line
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor
from repro.runner.fields import parameter
from repro.runner.fsck import main as fsck_main
from repro.runner.resilience import RetryPolicy
from repro.runner.results import CaseResultStore

pytestmark = pytest.mark.iochaos

PINNED_TS = "2026-01-01T00:00:00"
RETRY = RetryPolicy(max_attempts=3, jitter=0.0)

#: every I/O fault kind at once, 8% per artifact operation
STORM = "enospc:0.08,eio:0.08,torn:0.08,bitrot:0.08,fsync-lie:0.08"


class IoChaosBench(RegressionTest):
    """Six deterministic cases."""

    size = parameter([1, 2, 3, 4, 5, 6])

    def program(self, ctx):
        return f"bw {self.size}: {self.size * 100.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"bw", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"bandwidth": (v, "MB/s")}


def campaign(tmp_path, tag, *, spec=None, seed=0, policy="serial",
             workers=1, durability="strict", trace=False, store=False,
             journal=False, **run_kwargs):
    """One campaign run -> (outcome, report, {relpath: perflog bytes}).

    The storm campaigns deliberately run *without* a journal: journal
    write failures always fail-stop (by design), which would make
    convergence-under-storm a coin flip rather than a property.
    """
    prefix = str(tmp_path / f"perflogs-{tag}")
    ex = Executor(perflog_prefix=prefix, perflog_timestamp=PINNED_TS)
    cases = ex.expand_cases([IoChaosBench], "archer2")
    faults = FaultPlan.parse(spec, seed=seed) if spec is not None else None
    report = ex.run_cases(
        cases,
        policy=policy,
        workers=workers,
        retry=RETRY,
        faults=faults,
        durability=durability,
        trace=str(tmp_path / f"trace-{tag}.jsonl") if trace else None,
        result_store=str(tmp_path / f"store-{tag}") if store else None,
        journal=str(tmp_path / f"journal-{tag}.jsonl") if journal else None,
        **run_kwargs,
    )
    logs = {}
    for root, _, files in os.walk(prefix):
        for fname in files:
            if not fname.endswith(".log"):
                continue  # .sums sidecars are storm-only, by design
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                logs[os.path.relpath(path, prefix)] = fh.read()
    outcome = [
        (r.case.display_name, r.passed, sorted(r.perfvars.items()))
        for r in report.results
    ]
    return outcome, report, logs


def test_seed_3_storm_actually_bites(tmp_path):
    """Guard: the storm degrades real artifacts, or this file lies."""
    _, report, _ = campaign(tmp_path, "guard", spec=STORM, seed=3,
                            durability="degrade", trace=True, store=True)
    assert report.success
    assert report.degraded, "no storage faults absorbed -- storm too weak"
    assert "Degraded:" in report.summary()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_storm_converges_to_clean_perflogs(tmp_path_factory, seed):
    """Degrade mode: every seed's storm ends in byte-identical perflogs."""
    tmp_path = tmp_path_factory.mktemp(f"iochaos-{seed}")
    clean_outcome, clean_report, clean_logs = campaign(tmp_path, "clean")
    for policy, workers in (("serial", 1), ("async", 4)):
        storm_outcome, storm_report, storm_logs = campaign(
            tmp_path, f"storm-{policy}", spec=STORM, seed=seed,
            policy=policy, workers=workers, durability="degrade",
            trace=True, store=True,
        )
        assert storm_report.success
        assert storm_outcome == clean_outcome
        assert storm_logs == clean_logs  # byte-identical perflogs
    assert clean_report.degraded is None


def test_strict_mode_aborts_deterministically(tmp_path):
    """A perflog that cannot be persisted fail-stops, naming the artifact."""
    runs = []
    for tag in ("a", "b"):
        _, report, _ = campaign(tmp_path, f"strict-{tag}",
                                spec="enospc:1.0@perflog", seed=42,
                                durability="strict")
        runs.append(report)
    for report in runs:
        assert not report.success
        assert report.aborted is not None
        assert "perflog" in report.aborted
    # identical diagnostics modulo the per-run output directory
    assert (runs[0].aborted.replace("strict-a", "strict-b")
            == runs[1].aborted)
    assert ([r.case.display_name for r in runs[0].results]
            == [r.case.display_name for r in runs[1].results])


def test_degrade_survives_total_store_and_trace_loss(tmp_path):
    """Accelerators failing 100% of the time still cost only speed."""
    clean_outcome, _, clean_logs = campaign(tmp_path, "clean")
    outcome, report, logs = campaign(
        tmp_path, "dead-accels", spec="eio:1.0@store,eio:1.0@trace",
        seed=1, durability="degrade", trace=True, store=True,
    )
    assert report.success
    assert outcome == clean_outcome
    assert logs == clean_logs
    assert report.degraded
    assert set(report.degraded) <= {"store", "trace"}


def _one_perflog(prefix):
    for root, _, files in os.walk(prefix):
        for fname in files:
            if fname.endswith(".log"):
                return os.path.join(root, fname)
    raise AssertionError("campaign produced no perflog")


def test_fsck_heals_all_injected_corruption(tmp_path, capsys):
    """The healer end-to-end: detect, repair, verify clean."""
    prefix = str(tmp_path / "perflogs-heal")
    ex = Executor(perflog_prefix=prefix, perflog_timestamp=PINNED_TS)
    ex.perflog.enable_sums()  # arm sidecars so mid-file rot is healable
    cases = ex.expand_cases([IoChaosBench], "archer2")
    journal = str(tmp_path / "journal.jsonl")
    trace = str(tmp_path / "trace.jsonl")
    store_root = str(tmp_path / "store")
    report = ex.run_cases(cases, retry=RETRY, journal=journal,
                          trace=trace, result_store=store_root)
    assert report.success

    # injected damage: one of every corruption class
    tear_tail(journal, drop=9)          # torn tail (crash signature)
    flip_byte(trace)                    # mid-file bit rot
    log = _one_perflog(prefix)
    flip_byte(log)                      # rot inside a checksummed range
    pack = os.path.join(store_root, "pack.jsonl")
    with open(pack, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    flip_byte(pack, offset=len(lines[0]) + 1 + len(lines[1]) // 2)
    tear_tail(pack, drop=5)

    targets = [prefix, journal, trace, store_root]
    assert fsck_main(targets) == 1          # check mode: damage reported
    assert fsck_main(["--repair"] + targets) == 0  # every problem healed
    assert fsck_main(targets) == 0          # independent clean re-check
    capsys.readouterr()

    # healed artifacts are actually consumable again
    assert read_jsonl(journal)
    assert read_jsonl(trace)
    reopened = CaseResultStore(store_root)
    assert len(reopened) == len(lines) - 2  # rotten and torn became misses
    # the rebuilt pack is byte-equal to what put writes for the surviving
    # entries, so the healed store keeps pack load's raw-CRC fast path
    fresh = CaseResultStore(str(tmp_path / "fresh"))
    with open(pack, encoding="utf-8") as fh:
        healed = fh.read()
    for line in [lines[0]] + lines[2:-1]:  # all but the rotten and torn
        doc = json.loads(line)
        fresh.put(doc["key"], verify_line(json.dumps(doc["entry"])))
    with open(str(tmp_path / "fresh" / "pack.jsonl"), encoding="utf-8") as fh:
        assert healed == fh.read()


def test_fsck_provenance_seeding(tmp_path, capsys):
    """--provenance walks the campaign's own artifact naming."""
    prov = {
        "system": "archer2",
        "cases": [],
        "trace_file": str(tmp_path / "trace.jsonl"),
        "resilience": {"journal": str(tmp_path / "journal.jsonl")},
    }
    with open(tmp_path / "trace.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "meta"}) + "\n")
    with open(tmp_path / "journal.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "case"}) + "\n")
    prov_path = tmp_path / "provenance.json"
    with open(prov_path, "w", encoding="utf-8") as fh:
        json.dump(prov, fh)
    assert fsck_main(["--provenance", str(prov_path)]) == 0
    out = capsys.readouterr().out
    assert "trace.jsonl" in out and "journal.jsonl" in out
