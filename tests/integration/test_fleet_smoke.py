"""Fleet chaos smoke: the supervisor's robustness contract, end to end.

The ISSUE's acceptance criteria, as tests:

* N >= 4 campaigns multiplexed over a shared simulated cluster under a
  case-level fault storm produce perflogs byte-identical to their
  standalone one-shot runs;
* the supervisor killed mid-fleet at swept seeds and restarted
  converges to the same bytes, with completed cases never re-executed;
* one campaign forced to abort (breaker trip) does not prevent the
  others from completing (bulkhead isolation);
* a drain request checkpoints running campaigns and a restarted
  supervisor resumes them with zero re-executed completed cases;
* a crashed supervisor's leases expire and a *different* worker
  reclaims and finishes its campaigns.

Execution counting is file-based (the temp suite appends every real
program invocation to ``FLEET_COUNT_FILE``) because the suite module is
re-executed per prepare; class-level counters would reset.
"""

import os

import pytest

from repro.faults import FaultPlan
from repro.fleet.queue import CampaignQueue
from repro.fleet.service import CampaignService, CampaignSpec
from repro.fleet.supervisor import FleetSupervisor, SupervisorCrash
from repro.fleet.timeline import ResultsTimeline

pytestmark = pytest.mark.chaos

PINNED_TS = "2026-01-01T00:00:00"

#: case-level transient storm + enough retry budget to absorb it
CASE_STORM = "build:0.3,submit:0.3,timeout:0.3,hook:0.3"
STORM_RETRIES = 5

SUITE_SRC = '''
"""Temp fleet suite: deterministic FOMs + file-based execution count."""

import os

from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest, rfm_test
from repro.runner.fields import parameter


def _note(name):
    path = os.environ.get("FLEET_COUNT_FILE")
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(name + "\\n")


def _drift():
    path = os.environ.get("FLEET_DRIFT_FILE")
    if not path or not os.path.exists(path):
        return 1.0
    text = open(path, encoding="utf-8").read().strip()
    return float(text) if text else 1.0


@rfm_test
class FleetBenchX(RegressionTest):
    size = parameter([1, 2, 3, 4, 5, 6])

    def program(self, ctx):
        _note(self.name)
        return "bw: {0}\\n".format(self.size * 100.0), 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"bw", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r"bw: ([\\d.]+)", stdout, 1, float)
        return {"bandwidth": (v, "MB/s")}


@rfm_test
class FleetBenchY(RegressionTest):
    size = parameter([1, 2])

    def program(self, ctx):
        _note(self.name)
        return "bw: {0}\\n".format(self.size * 50.0 * _drift()), 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"bw", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r"bw: ([\\d.]+)", stdout, 1, float)
        return {"bandwidth": (v, "MB/s")}
'''


@pytest.fixture
def suite(tmp_path):
    path = tmp_path / "fleet_suite.py"
    path.write_text(SUITE_SRC)
    return str(path)


def make_spec(tmp_path, suite, tag, storm=True, **overrides):
    base = dict(
        suites=[suite],
        system="archer2",
        perflog_dir=str(tmp_path / f"perflogs-{tag}"),
        perflog_timestamp=PINNED_TS,
        inject_faults=CASE_STORM if storm else None,
        max_retries=STORM_RETRIES if storm else 2,
        fault_seed=42,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def perflog_bytes(prefix):
    out = {}
    for root, _, files in os.walk(prefix):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, prefix)] = fh.read()
    return out


def standalone_logs(tmp_path, suite, n, storm=True):
    """Each campaign's reference run: one-shot, serial, no supervisor."""
    logs = []
    for i in range(n):
        spec = make_spec(tmp_path, suite, f"solo-{i}", storm=storm)
        report = CampaignService().prepare(spec).run()
        assert report.success
        logs.append(perflog_bytes(spec.perflog_dir))
    return logs


def submit_fleet(tmp_path, suite, n, storm=True, **spec_overrides):
    queue = CampaignQueue(str(tmp_path / "fleet.q"))
    ids = []
    for i in range(n):
        spec = make_spec(
            tmp_path, suite, f"fleet-{i}", storm=storm,
            journal=str(tmp_path / f"journal-{i}.jsonl"),
            **spec_overrides,
        )
        # an explicit id: a derived one hashes the spec, which holds
        # tmp_path, and the supervisor-crash clause selects by id
        ids.append(queue.submit(spec.to_doc(), campaign_id=f"fleet-{i}",
                                now=queue.max_time()))
    return queue, ids


def test_fleet_matches_standalone_runs_under_fault_storm(tmp_path, suite):
    """Acceptance: N=4 multiplexed storm campaigns, byte-identical."""
    solo = standalone_logs(tmp_path, suite, 4)
    queue, ids = submit_fleet(tmp_path, suite, 4)
    report = FleetSupervisor(queue, slice_cases=3, max_concurrent=4).run()
    assert len(report.completed) == 4
    for i in range(4):
        fleet_logs = perflog_bytes(str(tmp_path / f"perflogs-fleet-{i}"))
        assert fleet_logs and fleet_logs == solo[i]
    states = queue.load()
    assert all(states[cid].status == "completed" for cid in ids)
    assert all(states[cid].passed == 8 for cid in ids)
    assert report.metrics["counters"]["fleet.slices"] >= 12  # multiplexed


@pytest.mark.parametrize("seed", [1, 3, 5, 11])
def test_supervisor_killed_and_restarted_converges(tmp_path, suite, seed):
    """Acceptance: kill the supervisor mid-fleet at swept seeds, restart
    with the same identity, converge to the standalone bytes."""
    solo = standalone_logs(tmp_path, suite, 4)
    queue, ids = submit_fleet(tmp_path, suite, 4)
    plan = FaultPlan.parse("supervisor-crash:0.7x2", seed=seed)
    crashes = 0
    while True:
        supervisor = FleetSupervisor(
            queue, worker="w0", slice_cases=3, max_concurrent=4,
            faults=plan,
        )
        try:
            report = supervisor.run()
            break
        except SupervisorCrash:
            crashes += 1
            assert crashes < 20, "crash storm failed to converge"
    states = queue.load()
    assert all(states[cid].status == "completed" for cid in ids)
    for i in range(4):
        fleet_logs = perflog_bytes(str(tmp_path / f"perflogs-fleet-{i}"))
        assert fleet_logs and fleet_logs == solo[i]
    # the sweep must actually kill somewhere or this test is vacuous;
    # rate 0.7 over 4 campaigns x seeds {1,3,5,11} selects every time
    assert crashes >= 1


def test_aborted_campaign_is_bulkheaded(tmp_path, suite):
    """Acceptance: one campaign trips its breaker; the others finish."""
    queue, good_ids = submit_fleet(tmp_path, suite, 3)
    doomed_spec = make_spec(
        tmp_path, suite, "doomed", storm=False,
        inject_faults="build:1.0x99",  # permanent once retries exhaust
        max_retries=0, max_failures=1,
        journal=str(tmp_path / "journal-doomed.jsonl"),
    )
    doomed = queue.submit(doomed_spec.to_doc(), now=queue.max_time())
    supervisor = FleetSupervisor(queue, slice_cases=3, max_concurrent=4)
    report = supervisor.run()
    states = queue.load()
    assert states[doomed].status == "aborted"
    assert "circuit breaker" in states[doomed].detail \
        or states[doomed].detail  # breaker message recorded
    for cid in good_ids:
        assert states[cid].status == "completed"
    assert report.metrics["counters"]["fleet.degraded.aborted"] == 1
    assert len(report.completed) == 3


def test_drain_checkpoints_and_restart_never_reexecutes(
    tmp_path, suite, monkeypatch
):
    """Acceptance: drain mid-fleet; the restarted supervisor resumes
    with zero re-executed completed cases (execution-counted)."""
    count_file = tmp_path / "invocations.txt"
    monkeypatch.setenv("FLEET_COUNT_FILE", str(count_file))
    queue, ids = submit_fleet(tmp_path, suite, 2, storm=False)

    supervisor = FleetSupervisor(queue, worker="w0", slice_cases=2,
                                 max_concurrent=2)
    slices_seen = []
    supervisor.on_slice = lambda cid, n: (
        slices_seen.append(cid),
        supervisor.request_drain() if len(slices_seen) == 3 else None,
    )
    report = supervisor.run()
    assert report.drained
    assert all(o.status == "released" for o in report.outcomes.values())
    executed_at_drain = count_file.read_text().splitlines()
    assert 0 < len(executed_at_drain) < 16  # genuinely mid-fleet
    # drain marker is durable
    assert any(r.get("kind") == "drain" for r in queue.entries())

    resumed = FleetSupervisor(queue, worker="w0", slice_cases=2,
                              max_concurrent=2).run()
    assert len(resumed.completed) == 2
    states = queue.load()
    assert all(states[cid].status == "completed" for cid in ids)
    executed = count_file.read_text().splitlines()
    # 2 campaigns x 8 cases, each executed exactly once across the
    # drain/restart boundary: zero re-execution of completed cases
    assert len(executed) == 16
    from collections import Counter
    assert all(n == 2 for n in Counter(executed).values())  # once per campaign


def test_cross_queue_drain_request_reaches_running_supervisor(
    tmp_path, suite
):
    """`repro-fleet drain` path: a drain-request *record* (another
    process) stops the supervisor at the next slice boundary."""
    queue, ids = submit_fleet(tmp_path, suite, 2, storm=False)
    supervisor = FleetSupervisor(queue, slice_cases=2, max_concurrent=2)
    supervisor.on_slice = lambda cid, n: (
        queue.request_drain(now=supervisor.clock.now) if n == 1 else None
    )
    report = supervisor.run()
    assert report.drained
    # and a fresh supervisor (no drain flag) finishes the fleet
    final = FleetSupervisor(queue, slice_cases=2, max_concurrent=2).run()
    assert not final.drained  # old requests don't re-trigger
    assert all(s.status == "completed" for s in queue.load().values())


def test_crashed_workers_leases_expire_and_another_worker_finishes(
    tmp_path, suite, monkeypatch
):
    """Lease-based recovery across *identities*: w1 must wait out w0's
    lease TTL, then reclaim, resume from the journal and finish."""
    count_file = tmp_path / "invocations.txt"
    monkeypatch.setenv("FLEET_COUNT_FILE", str(count_file))
    solo = standalone_logs(tmp_path, suite, 2, storm=False)
    # the reference runs above counted executions too; start clean
    count_file.write_text("")
    queue, ids = submit_fleet(tmp_path, suite, 2, storm=False)

    w0 = FleetSupervisor(
        queue, worker="w0", slice_cases=2, max_concurrent=2,
        faults=FaultPlan.parse("supervisor-crash:1.0", seed=0),
    )
    with pytest.raises(SupervisorCrash):
        w0.run()
    mid = queue.load()
    assert any(s.status == "leased" and s.worker == "w0"
               for s in mid.values())

    w1 = FleetSupervisor(queue, worker="w1", slice_cases=2,
                         max_concurrent=2)
    report = w1.run()
    assert len(report.completed) == 2
    for i in range(2):
        fleet_logs = perflog_bytes(str(tmp_path / f"perflogs-fleet-{i}"))
        assert fleet_logs and fleet_logs == solo[i]
    from collections import Counter
    counts = Counter(count_file.read_text().splitlines())
    assert all(n == 2 for n in counts.values())  # nothing re-executed


def test_lease_expire_fault_is_contained_and_converges(tmp_path, suite):
    """The lease-expire chaos kind: the supervisor abandons leases
    mid-campaign, reclaims them after the TTL, and still converges."""
    solo = standalone_logs(tmp_path, suite, 2, storm=False)
    queue, ids = submit_fleet(tmp_path, suite, 2, storm=False)
    supervisor = FleetSupervisor(
        queue, worker="w0", slice_cases=2, max_concurrent=2,
        faults=FaultPlan.parse("lease-expire:1.0", seed=0),
    )
    report = supervisor.run()
    assert report.metrics["counters"]["fleet.leases.expired"] >= 1
    assert all(s.status == "completed" for s in queue.load().values())
    for i in range(2):
        fleet_logs = perflog_bytes(str(tmp_path / f"perflogs-fleet-{i}"))
        assert fleet_logs and fleet_logs == solo[i]


def test_node_quotas_gate_admission(tmp_path, suite):
    """Per-tenant quotas + the cluster budget serialize node-hungry
    campaigns without starving them."""
    queue = CampaignQueue(str(tmp_path / "fleet.q"))
    ids = []
    for i, tenant in enumerate(["acme", "acme", "labs"]):
        spec = make_spec(
            tmp_path, suite, f"fleet-{i}", storm=False,
            journal=str(tmp_path / f"journal-{i}.jsonl"),
        )
        ids.append(queue.submit(spec.to_doc(), tenant=tenant, nodes=2,
                                now=queue.max_time()))
    supervisor = FleetSupervisor(
        queue, slice_cases=4, max_concurrent=4,
        cluster_nodes=4, tenant_quotas={"acme": 2},
    )
    report = supervisor.run()
    assert len(report.completed) == 3  # gated, not starved
    counters = report.metrics["counters"]
    assert counters.get("fleet.admission.quota", 0) >= 1
    assert all(s.status == "completed" for s in queue.load().values())


def test_timeline_flags_the_stepped_cell_over_sequential_runs(
    tmp_path, suite, monkeypatch
):
    """Acceptance: an injected FOM step-change across 6 sequential
    fleet runs flags exactly the (benchmark x system) cells that
    stepped -- FleetBenchY's, never FleetBenchX's."""
    drift_file = tmp_path / "drift.txt"
    drift_file.write_text("1.0")
    monkeypatch.setenv("FLEET_DRIFT_FILE", str(drift_file))
    queue = CampaignQueue(str(tmp_path / "fleet.q"))
    timeline = ResultsTimeline(str(tmp_path / "fleet.timeline"))
    spec_doc = make_spec(tmp_path, suite, "seq", storm=False).to_doc()
    for run in range(6):
        if run == 3:
            drift_file.write_text("1.3")  # the injected step
        queue.submit(dict(spec_doc), now=queue.max_time())
        report = FleetSupervisor(
            queue, slice_cases=4, timeline=timeline
        ).run()
        assert len(report.completed) == 1
    findings = timeline.detect_regressions(min_runs=5)
    assert findings, "the injected step was not detected"
    flagged_tests = {f.key[0] for f in findings}
    assert all(t.startswith("FleetBenchY") for t in flagged_tests)
    assert len(findings) == 2  # both FleetBenchY sizes stepped
    for f in findings:
        assert f.change.index == 3
        assert f.change.direction == "improved"
    # all six runs share one spec content id (one timeline row family)
    assert len({f.key[2] for f in findings}) == 1
