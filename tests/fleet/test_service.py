"""CampaignService: the embeddable API repro-bench and the fleet share."""

import pytest

from repro.fleet.service import (
    CampaignConfigError,
    CampaignService,
    CampaignSpec,
)

PINNED_TS = "2026-01-01T00:00:00"


def spec(tmp_path, tag="svc", **overrides):
    base = dict(
        suites=["stream"],
        system="archer2",
        perflog_dir=str(tmp_path / f"perflogs-{tag}"),
        perflog_timestamp=PINNED_TS,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_spec_round_trips_through_json_doc(tmp_path):
    import json

    original = spec(tmp_path, setvar=["num_times=5"], max_retries=3)
    doc = json.loads(json.dumps(original.to_doc()))
    assert CampaignSpec.from_doc(doc) == original


def test_from_doc_ignores_unknown_fields(tmp_path):
    doc = spec(tmp_path).to_doc()
    doc["future_field"] = "whatever"  # a v2 writer's spec still loads
    assert CampaignSpec.from_doc(doc).suites == ["stream"]


def test_content_id_tracks_what_runs_not_how(tmp_path):
    # perflog_dir/policy/workers/journal are run mechanics: same id
    assert spec(tmp_path).content_id() == \
        spec(tmp_path, tag="other").content_id()
    assert spec(tmp_path).content_id() == \
        spec(tmp_path, policy="async", max_workers=8,
             journal="j.jsonl").content_id()
    assert spec(tmp_path).content_id() != \
        spec(tmp_path, setvar=["num_times=5"]).content_id()
    assert spec(tmp_path).content_id() != \
        spec(tmp_path, system="isambard-macs:cascadelake").content_id()


#: a spec with every field set, and its queue-record doc and content id
#: at the commit that introduced RunConfig: queued records and timeline
#: keys written by earlier releases must keep meaning the same campaign
FIXTURE_SPEC = CampaignSpec(
    suites=["stream", "hpcg"], system="archer2", site_yaml=["site.yaml"],
    setvar=["num_times=5"], spack_var=["spack_spec=babelstream@4.0"],
    name=["Stream"], exclude=["HPCG_Intel"], tags=["omp"],
    job_options=["--qos=standard"], environs=["gnu"], perflog_dir="pl",
    policy="async", max_workers=2, max_retries=3, max_failures=4,
    journal="j.jsonl", journal_batch=8, result_store="store",
    inject_faults="build:0.3", fault_seed=7, durability="degrade",
    watchdog="run=40", speculate=True, straggler_factor=1.5,
    drain_after=2, trace="t.jsonl", metrics=True,
    live_status="live.jsonl", perflog_timestamp=PINNED_TS,
)
GOLDEN_FIXTURE_DOC = (
    '{"suites": ["stream", "hpcg"], "system": "archer2", '
    '"site_yaml": ["site.yaml"], "setvar": ["num_times=5"], '
    '"spack_var": ["spack_spec=babelstream@4.0"], "name": ["Stream"], '
    '"exclude": ["HPCG_Intel"], "tags": ["omp"], '
    '"job_options": ["--qos=standard"], "environs": ["gnu"], '
    '"perflog_dir": "pl", "policy": "async", "max_workers": 2, '
    '"max_retries": 3, "max_failures": 4, "journal": "j.jsonl", '
    '"journal_batch": 8, "result_store": "store", '
    '"inject_faults": "build:0.3", "fault_seed": 7, '
    '"durability": "degrade", "watchdog": "run=40", "speculate": true, '
    '"straggler_factor": 1.5, "drain_after": 2, "trace": "t.jsonl", '
    '"metrics": true, "live_status": "live.jsonl", '
    '"perflog_timestamp": "2026-01-01T00:00:00"}'
)


def test_spec_doc_and_content_id_goldens():
    import json

    assert json.dumps(FIXTURE_SPEC.to_doc()) == GOLDEN_FIXTURE_DOC
    assert FIXTURE_SPEC.content_id() == "fd2b8849580ba9d3"
    assert CampaignSpec().content_id() == "613b30372cd24a59"


def test_prepare_validates_with_cli_error_messages(tmp_path):
    service = CampaignService()
    checks = [
        (dict(max_workers=0), "-j/--max-workers must be >= 1"),
        (dict(max_retries=-1), "--max-retries must be >= 0"),
        (dict(straggler_factor=1.0), "--straggler-factor must be > 1"),
        (dict(drain_after=0), "--drain-after must be >= 1"),
        (dict(journal_batch=0), "--journal-batch must be >= 1"),
        (dict(max_failures=0), "--max-failures must be >= 1"),
        (dict(durability="bogus"), "--durability must be one of"),
        (dict(setvar=["oops"]), "expected VAR=VALUE, got 'oops'"),
        (dict(inject_faults="nope:0.5"), "--inject-faults"),
        (dict(watchdog="bogus=1"), "--watchdog"),
        (dict(suites=["no-such-suite"]), "unknown benchmark suite"),
        (dict(name=["zzz-matches-nothing"]), "no tests match the selection"),
        (dict(journal_batch=4), "--journal-batch requires --journal PATH"),
        (dict(straggler_factor=3.0), "--straggler-factor requires --speculate"),
    ]
    for overrides, fragment in checks:
        with pytest.raises(CampaignConfigError) as err:
            service.prepare(spec(tmp_path, **overrides))
        assert fragment in str(err.value), overrides
    with pytest.raises(CampaignConfigError) as err:
        service.prepare(spec(tmp_path, journal=None), resume=True)
    assert "--resume requires --journal PATH" in str(err.value)
    with pytest.raises(CampaignConfigError):
        service.prepare(CampaignSpec(suites=[]))


def test_prepare_rejects_unknown_policy(tmp_path):
    # e.g. a queue record written when a process-pool policy existed
    doc = spec(tmp_path).to_doc()
    doc["policy"] = "procs"
    with pytest.raises(CampaignConfigError) as err:
        CampaignService().prepare(CampaignSpec.from_doc(doc))
    assert "'procs'" in str(err.value)
    assert "serial, async" in str(err.value)


def test_prepare_then_run_matches_one_shot(tmp_path):
    service = CampaignService()
    prepared = service.prepare(spec(tmp_path, tag="a"))
    assert prepared.cases and prepared.system == "archer2"
    report_a = prepared.run()
    report_b = CampaignService().run(spec(tmp_path, tag="b"))
    assert report_a.success and report_b.success
    assert [r.case.display_name for r in report_a.results] == \
           [r.case.display_name for r in report_b.results]


def test_sliced_run_with_resume_converges_to_whole_run(tmp_path):
    """The supervisor's multiplexing primitive: slices + journal resume
    reproduce the single-shot campaign byte for byte."""
    import os

    def logs(prefix):
        out = {}
        for root, _, files in os.walk(prefix):
            for fname in files:
                path = os.path.join(root, fname)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, prefix)] = fh.read()
        return out

    whole = CampaignService().run(spec(tmp_path, tag="whole", suites=["hpcg"],
                                       exclude=["HPCG_Intel"]))
    assert whole.success

    sliced_spec = spec(tmp_path, tag="sliced", suites=["hpcg"],
                       exclude=["HPCG_Intel"],
                       journal=str(tmp_path / "sliced.jsonl"))
    prepared = CampaignService().prepare(sliced_spec)
    n = len(prepared.cases)
    assert n >= 2
    reports = []
    for start in range(0, n, 2):
        reports.append(
            prepared.run(cases=prepared.cases[start:start + 2], resume=True)
        )
    assert all(r.success for r in reports)
    assert sum(len(r.results) for r in reports) == n
    assert logs(sliced_spec.perflog_dir) == \
        logs(spec(tmp_path, tag="whole").perflog_dir)
    assert logs(sliced_spec.perflog_dir)  # non-vacuous: bytes exist


def test_result_store_probe_degrades_into_warning(tmp_path):
    service = CampaignService()
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a dir")  # makedirs will fail
    with pytest.raises(CampaignConfigError) as err:
        service.prepare(
            spec(tmp_path, result_store=str(blocked), durability="strict")
        )
    assert "--result-store directory" in str(err.value)
    prepared = service.prepare(
        spec(tmp_path, result_store=str(blocked), durability="degrade")
    )
    assert prepared.config.result_store is None
    assert any("continuing without the result store" in w
               for w in prepared.warnings)
