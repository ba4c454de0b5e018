"""``repro-fleet``: the operator surface over queue + supervisor."""

import signal

import pytest

from repro.fleet.cli import main as fleet_main
from repro.fleet.queue import CampaignQueue
from repro.fleet.timeline import ResultsTimeline


@pytest.fixture
def qpath(tmp_path):
    return str(tmp_path / "fleet.q")


def submit(qpath, tmp_path, tag, *extra):
    return fleet_main([
        "submit", "--queue", qpath, "-c", "stream", "--system", "archer2",
        "--perflog-dir", str(tmp_path / f"pl-{tag}"), *extra,
    ])


def test_submit_run_status_round_trip(qpath, tmp_path, capsys):
    assert submit(qpath, tmp_path, "a") == 0
    assert submit(qpath, tmp_path, "b", "--tenant", "acme",
                  "--priority", "3") == 0
    out = capsys.readouterr().out
    assert out.count("submitted: c") == 2

    assert fleet_main(["run", "--queue", qpath, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "FLEET SUMMARY" in out
    assert "2 completed, 0 degraded" in out
    assert "fleet.campaigns.completed" in out  # --metrics renders counters

    assert fleet_main(["status", "--queue", qpath]) == 0
    out = capsys.readouterr().out
    assert "completed=2" in out
    assert "tenant=acme priority=3" in out


def test_run_exit_codes_follow_campaign_outcomes(qpath, tmp_path, capsys):
    submit(qpath, tmp_path, "doomed",
           "--inject-faults", "build:1.0x99", "--max-retries", "0",
           "--max-failures", "1")
    submit(qpath, tmp_path, "fine")
    assert fleet_main(["run", "--queue", qpath]) == 2  # abort dominates
    out = capsys.readouterr().out
    assert "aborted" in out and "completed" in out


def test_drain_requests_then_later_supervisor_finishes(
    qpath, tmp_path, capsys
):
    submit(qpath, tmp_path, "a")
    assert fleet_main(["drain", "--queue", qpath]) == 0
    assert "drain requested" in capsys.readouterr().out
    # the request targets supervisors running *when it was made*; a
    # supervisor started afterwards just runs the fleet
    assert fleet_main(["run", "--queue", qpath]) == 0
    assert "1 completed" in capsys.readouterr().out


def test_run_installs_and_restores_sigterm_handler(qpath, tmp_path):
    submit(qpath, tmp_path, "a")
    before = signal.getsignal(signal.SIGTERM)
    assert fleet_main(["run", "--queue", qpath]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_tenant_quota_parse_errors(qpath, capsys):
    rc = fleet_main(["run", "--queue", qpath, "--tenant-quota", "oops"])
    assert rc == 1
    assert "expected TENANT=NODES" in capsys.readouterr().err
    rc = fleet_main(["run", "--queue", qpath,
                     "--tenant-quota", "acme=lots"])
    assert rc == 1


def test_bad_fault_spec_is_a_usage_error(qpath, capsys):
    rc = fleet_main(["run", "--queue", qpath,
                     "--inject-faults", "nope:0.5"])
    assert rc == 1
    assert "--inject-faults" in capsys.readouterr().err


def test_regressions_command_gates_on_direction(tmp_path, capsys):
    tl = ResultsTimeline(str(tmp_path / "fleet.timeline"))
    for run in range(6):
        value = 100.0 if run < 3 else 70.0
        tl.record_run(f"c{run}", "spec-a", [{
            "test": "BenchA", "system": "archer2:compute",
            "var": "bandwidth", "value": value, "unit": "MB/s",
        }])
    rc = fleet_main(["regressions", "--timeline",
                     str(tmp_path / "fleet.timeline")])
    assert rc == 1  # a regression gates CI
    assert "BenchA" in capsys.readouterr().out
    # improvements report but do not gate
    tl2 = ResultsTimeline(str(tmp_path / "up.timeline"))
    for run in range(6):
        value = 100.0 if run < 3 else 140.0
        tl2.record_run(f"c{run}", "spec-b", [{
            "test": "BenchB", "system": "archer2:compute",
            "var": "bandwidth", "value": value, "unit": "MB/s",
        }])
    assert fleet_main(["regressions", "--timeline",
                       str(tmp_path / "up.timeline")]) == 0


def test_config_error_surfaces_as_failed_campaign(qpath, tmp_path, capsys):
    fleet_main([
        "submit", "--queue", qpath, "-c", "no-such-suite",
        "--system", "archer2",
        "--perflog-dir", str(tmp_path / "pl-bad"),
    ])
    rc = fleet_main(["run", "--queue", qpath])
    assert rc == 1
    out = capsys.readouterr().out
    assert "unknown benchmark suite" in out
    states = CampaignQueue(qpath).load()
    assert all(s.status == "failed" for s in states.values())


def test_invalid_run_option_fails_only_its_campaign(qpath, tmp_path, capsys):
    """A bad run option fails its campaign at prepare; the rest run."""
    submit(qpath, tmp_path, "bad", "--max-failures", "0")
    submit(qpath, tmp_path, "good")
    assert fleet_main(["run", "--queue", qpath]) == 1
    states = sorted(CampaignQueue(qpath).load().values(), key=lambda s: s.seq)
    assert [s.status for s in states] == ["failed", "completed"]
    assert "--max-failures must be >= 1" in states[0].detail
    assert states[1].failed == 0 and states[1].passed > 0
