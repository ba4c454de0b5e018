"""RunConfig: every run flag of both CLIs reaches the config it runs under.

A flag that is parsed and then dropped on the way to ``run_cases`` is
the failure these tests catch: each CLI is driven with every flag set
to a non-default value, and each run option is read back from
``PreparedCampaign.config``.
"""

import dataclasses

import pytest

from repro.apps.babelstream.benchmark import StreamBenchmark
from repro.fleet.cli import build_parser as fleet_parser
from repro.fleet.cli import main as fleet_main
from repro.fleet.queue import CampaignQueue
from repro.fleet.service import CampaignService, CampaignSpec
from repro.runner.cli import build_parser as bench_parser
from repro.runner.executor import Executor, RunConfig

#: dests that steer the CLI itself, not the campaign spec
BENCH_CLI_ONLY = {"help", "run", "list", "performance_report", "dry_run",
                  "resume", "cache_stats", "profile"}
SUBMIT_CLI_ONLY = {"help", "queue", "tenant", "priority", "nodes"}


def selection_argv(tmp_path):
    """Non-default values for the flags that choose *what* runs."""
    site = tmp_path / "site.yaml"
    site.write_text(
        "systems:\n"
        "  - name: extra\n"
        "    description: a site-local system\n"
        "    scheduler: slurm\n"
        "    num_nodes: 4\n"
    )
    return [
        "-c", "stream", "--system", "archer2", "--site", str(site),
        "-S", "spack_spec=stream +openmp", "--setvar", "num_times=5",
        "-n", "Stream", "-x", "Nope", "--tag", "stream",
        "-J--qos=standard", "--environ", "gnu",
        "--perflog-dir", str(tmp_path / "pl"),
    ]


def submit_run_argv(tmp_path):
    """Non-default values for every run flag repro-fleet submit takes."""
    return [
        "--policy", "async", "-j", "3", "--max-retries", "4",
        "--max-failures", "5", "--journal", str(tmp_path / "j.jsonl"),
        "--journal-batch", "6", "--result-store", str(tmp_path / "store"),
        "--inject-faults", "build:0.1", "--fault-seed", "7",
        "--durability", "degrade", "--watchdog", "run=40",
    ]


#: what submit_run_argv asks for, as observed(config) reads it back
SUBMIT_EXPECTED = {
    "policy": "async",
    "workers": 3,
    "retry": (5, 7),
    "faults": ("build:0.1", 7),
    "max_failures": 5,
    "journal": "j.jsonl",
    "journal_batch": 6,
    "result_store": "store",
    "durability": "degrade",
    "watchdog": "run=40,heartbeat=30",
}
BENCH_EXPECTED = dict(
    SUBMIT_EXPECTED,
    resume=True,
    speculation=True,
    straggler_factor=1.7,
    drain_after=2,
    trace="t.jsonl",
    metrics=True,
    live="live.jsonl",
)


def observed(config, tmp_path):
    """The run options of *config*, as plain comparable values."""
    def rel(path):
        return None if path is None else str(path).replace(
            str(tmp_path) + "/", "")

    return {
        "policy": config.policy,
        "workers": config.workers,
        "retry": (config.retry.max_attempts, config.retry.seed),
        "faults": (
            (config.faults.format(), config.faults.seed)
            if config.faults is not None else None
        ),
        "max_failures": config.max_failures,
        "journal": rel(config.journal),
        "resume": config.resume,
        "watchdog": (
            config.watchdog.spec.format()
            if config.watchdog is not None else None
        ),
        "speculation": config.speculation,
        "straggler_factor": config.straggler_factor,
        "drain_after": config.drain_after,
        "trace": rel(config.trace),
        "metrics": config.metrics,
        "journal_batch": config.journal_batch,
        "result_store": rel(config.result_store),
        "durability": config.durability,
        "live": rel(config.live),
    }


def default_options(tmp_path):
    """What a CLI run with no run flags gets."""
    prepared = CampaignService().prepare(
        CampaignSpec(suites=["stream"], system="archer2",
                     perflog_dir=str(tmp_path / "pl0")))
    return observed(prepared.config, tmp_path)


def spec_dests(parser):
    fields = {f.name for f in dataclasses.fields(CampaignSpec)}
    dests = {a.dest for a in parser._actions}
    return dests & fields, dests - fields


def assert_every_spec_flag_set(parser, args, cli_only):
    """The argv under test sets every flag that feeds the spec."""
    spec_flags, other = spec_dests(parser)
    assert other == cli_only, "a new flag is neither spec nor CLI-only"
    unset = {d for d in spec_flags
             if getattr(args, d) == parser.get_default(d)}
    assert not unset, f"argv leaves these flags at their default: {unset}"


def test_every_repro_bench_flag_lands_in_the_config(tmp_path):
    parser = bench_parser()
    argv = selection_argv(tmp_path) + submit_run_argv(tmp_path) + [
        "-r", "--resume", "--speculate", "--straggler-factor", "1.7",
        "--drain-after", "2", "--trace", str(tmp_path / "t.jsonl"),
        "--metrics", "--live-status", str(tmp_path / "live.jsonl"),
    ]
    args = parser.parse_args(argv)
    assert_every_spec_flag_set(parser, args, BENCH_CLI_ONLY)

    prepared = CampaignService().prepare(
        CampaignSpec.from_args(args), resume=args.resume)
    got = observed(prepared.config, tmp_path)
    assert {k: got[k] for k in BENCH_EXPECTED} == BENCH_EXPECTED
    default = default_options(tmp_path)
    assert all(default[k] != v for k, v in BENCH_EXPECTED.items())
    case = prepared.cases[0]
    assert (case.environ_name, case.qos, case.test.num_times,
            case.test.spack_spec) == ("gnu", "standard", 5, "stream +openmp")


def test_every_repro_fleet_submit_flag_lands_in_the_config(tmp_path):
    parser = fleet_parser()
    qpath = str(tmp_path / "fleet.q")
    argv = (["submit", "--queue", qpath] + selection_argv(tmp_path)
            + submit_run_argv(tmp_path))
    submit = parser._subparsers._group_actions[0].choices["submit"]
    assert_every_spec_flag_set(
        submit, parser.parse_args(argv), SUBMIT_CLI_ONLY)

    assert fleet_main(argv) == 0
    (state,) = CampaignQueue(qpath).load().values()
    prepared = CampaignService().prepare(CampaignSpec.from_doc(state.spec))
    got = observed(prepared.config, tmp_path)
    assert {k: got[k] for k in SUBMIT_EXPECTED} == SUBMIT_EXPECTED
    # flags submit does not declare keep their RunConfig defaults
    default = default_options(tmp_path)
    for key in set(BENCH_EXPECTED) - set(SUBMIT_EXPECTED):
        assert got[key] == default[key], key


def test_from_args_keeps_defaults_for_undeclared_fields():
    import argparse

    spec = CampaignSpec.from_args(argparse.Namespace(
        suites=["stream"], queue="q", tenant="acme"))
    assert spec == CampaignSpec(suites=["stream"])


def test_run_cases_keywords_replace_config_fields():
    ex = Executor()
    cases = ex.expand_cases([StreamBenchmark], "archer2")
    base = RunConfig(policy="async", workers=2)
    a = ex.run_cases(cases, base, policy="serial")
    b = Executor().run_cases(cases, policy="serial", workers=2)
    assert a.success and b.success
    assert [r.perfvars for r in a.results] == [r.perfvars for r in b.results]
    with pytest.raises(TypeError):
        ex.run_cases(cases, base, no_such_option=1)


@pytest.mark.parametrize("fields, fragment", [
    (dict(policy="turbo"), "unknown execution policy 'turbo'"),
    (dict(workers=0), "-j/--max-workers must be >= 1"),
    (dict(journal_batch=0), "--journal-batch must be >= 1"),
    (dict(straggler_factor=1.0), "--straggler-factor must be > 1"),
    (dict(drain_after=0), "--drain-after must be >= 1"),
    (dict(max_failures=0), "--max-failures must be >= 1"),
    (dict(durability="bogus"), "--durability must be one of strict, "
                               "degrade, got 'bogus'"),
    (dict(resume=True), "--resume requires --journal PATH"),
    (dict(resume=True, journal=""), "--resume requires --journal PATH"),
])
def test_run_config_validates_once(fields, fragment):
    with pytest.raises(ValueError) as err:
        RunConfig(**fields)
    assert fragment in str(err.value)
    # the same check guards the keyword form, before anything runs
    with pytest.raises(ValueError):
        Executor().run_cases([], **fields)


def test_run_config_declares_the_eighteen_run_options():
    assert len(dataclasses.fields(RunConfig)) == 18
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().policy = "async"
