"""Tests for --dry-run, repro-plot --check-regressions, repro-pkg env,
and the line-chart renderer."""

import pytest

from repro.pkgmgr.cli import main as pkg_main
from repro.postprocess.cli import main as plot_main
from repro.postprocess.plotting import line_chart_svg
from repro.runner.cli import main as bench_main


class TestDryRun:
    def test_renders_paper_job_script_without_running(self, capsys, tmp_path):
        rc = bench_main([
            "-c", "hpgmg", "-r", "--dry-run", "--system", "archer2",
            "-J--qos=standard",
            "--setvar=num_tasks=8", "--setvar=num_tasks_per_node=2",
            "--setvar=num_cpus_per_task=8",
            "--perflog-dir", str(tmp_path / "pl"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "#SBATCH --nodes=4" in out
        assert "srun --ntasks=8 --cpus-per-task=8 hpgmg-fv 7 8" in out
        assert "spec: hpgmg@0.4%gcc@11.2.0" in out
        # nothing ran: no perflogs
        assert not (tmp_path / "pl").exists()

    def test_dry_run_shows_build_conflicts(self, capsys):
        rc = bench_main([
            "-c", "babelstream", "-r", "--dry-run", "--tag", "cuda",
            "--system", "csd3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BUILD WOULD FAIL" in out

    def test_dry_run_pbs_dialect(self, capsys):
        rc = bench_main([
            "-c", "babelstream", "-r", "--dry-run", "--tag", "omp",
            "--system", "isambard",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "#PBS" in out and "aprun" in out


class TestSlowFaultFlags:
    """repro-bench --watchdog / --speculate / --drain-after plumbing."""

    def _run(self, tmp_path, *extra):
        return bench_main([
            "-c", "stream", "-r", "--system", "archer2",
            "--perflog-dir", str(tmp_path / "pl"), *extra,
        ])

    def test_quiet_run_with_all_flags(self, capsys, tmp_path):
        rc = self._run(
            tmp_path,
            "--watchdog", "run=600,build=300,heartbeat=10",
            "--speculate", "--straggler-factor", "3.0",
            "--drain-after", "2",
        )
        out = capsys.readouterr().out
        assert rc == 0
        # a healthy campaign: the machinery stays silent in the summary
        assert "Hung" not in out
        assert "Drained" not in out

    def test_watchdog_with_chaos_reports_hung(self, capsys, tmp_path):
        rc = self._run(
            tmp_path,
            "--inject-faults", "hang@*", "--fault-seed", "7",
            "--watchdog", "run=100", "--max-retries", "3",
        )
        out = capsys.readouterr().out
        assert rc == 0  # the watchdog + retry recovered the hang
        assert "Hung:" in out

    def test_bad_watchdog_spec_rejected(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--watchdog", "run=abc")
        assert rc == 1
        assert "--watchdog" in capsys.readouterr().err

    def test_bad_straggler_factor_rejected(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--speculate", "--straggler-factor", "0.5")
        assert rc == 1
        assert "--straggler-factor" in capsys.readouterr().err

    def test_bad_drain_after_rejected(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--drain-after", "0")
        assert rc == 1
        assert "--drain-after" in capsys.readouterr().err


class TestPlotCiGate:
    def _populate(self, tmp_path, runs=4):
        for _ in range(runs):
            assert bench_main([
                "-c", "osu", "-r", "--system", "csd3",
                "--perflog-dir", str(tmp_path),
            ]) == 0

    def test_green_on_stable_history(self, tmp_path, capsys):
        self._populate(tmp_path)
        rc = plot_main([str(tmp_path), "--check-regressions"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 regression(s)" in out

    def test_red_on_injected_regression(self, tmp_path, capsys):
        self._populate(tmp_path)
        import glob

        log = sorted(glob.glob(str(tmp_path / "**" / "*.log"),
                               recursive=True))[0]
        last = open(log).read().strip().splitlines()[-1].split("|")
        # max_bandwidth is higher-is-better: halving it is a regression
        last[9] = str(float(last[9]) * 0.5)
        with open(log, "a") as fh:
            fh.write("|".join(last) + "\n")
        rc = plot_main([str(tmp_path), "--check-regressions"])
        assert rc == 1
        assert "regressed" in capsys.readouterr().out


class TestPkgEnvCommand:
    def test_env_for_system(self, capsys):
        assert pkg_main(["env", "archer2"]) == 0
        out = capsys.readouterr().out
        assert "cray-mpich@8.1.23" in out
        assert "mpi -> cray-mpich@8.1.23" in out
        assert "PrgEnv-gnu" in out

    def test_env_defaults_to_generic(self, capsys):
        assert pkg_main(["env"]) == 0
        out = capsys.readouterr().out
        assert "environment: generic" in out


class TestLineChart:
    SERIES = {"archer2": [(1, 1.0), (8, 5.9), (64, 20.1)],
              "csd3": [(1, 1.0), (8, 6.5)]}

    def test_wellformed_svg(self):
        svg = line_chart_svg(self.SERIES, title="speedup", log_x=True)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<path") == 2
        assert svg.count("<circle") == 5
        assert "speedup" in svg

    def test_empty_series(self):
        svg = line_chart_svg({"a": []})
        assert svg.startswith("<svg")


class TestScalingFlags:
    """repro-bench --site / --journal-batch / --profile."""

    FLEET_YAML = (
        "systems:\n"
        "  - name: fleet\n"
        "    description: synthetic test fleet\n"
        "    scheduler: slurm\n"
        "    num_nodes: 512\n"
    )

    def _run(self, tmp_path, *extra):
        return bench_main([
            "-c", "stream", "-r", "--system", "archer2",
            "--perflog-dir", str(tmp_path / "pl"), *extra,
        ])

    def test_site_yaml_adds_a_fleet_system(self, capsys, tmp_path):
        site = tmp_path / "fleet.yaml"
        site.write_text(self.FLEET_YAML)
        rc = bench_main([
            "-c", "stream", "-r", "--system", "fleet",
            "--site", str(site),
            "--perflog-dir", str(tmp_path / "pl"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet" in out

    def test_missing_site_file_errors(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--site", str(tmp_path / "nope.yaml"))
        assert rc == 1
        assert "--site" in capsys.readouterr().err

    def test_journal_batch_plumbs_through(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        rc = self._run(tmp_path, "--journal", str(journal),
                       "--journal-batch", "8")
        assert rc == 0
        assert journal.exists()

    def test_bad_journal_batch_rejected(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--journal-batch", "0")
        assert rc == 1
        assert "--journal-batch" in capsys.readouterr().err

    def test_flags_of_an_unarmed_feature_rejected(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--journal-batch", "4")
        assert rc == 1
        assert "--journal-batch requires --journal PATH" in \
            capsys.readouterr().err
        rc = self._run(tmp_path, "--straggler-factor", "3")
        assert rc == 1
        assert "--straggler-factor requires --speculate" in \
            capsys.readouterr().err

    def test_profile_prints_hotspot_table(self, capsys, tmp_path):
        rc = self._run(tmp_path, "--profile")
        err = capsys.readouterr().err
        assert rc == 0
        assert "profile (top 25" in err
        assert "cumulative" in err

    def test_profile_dumps_pstats_file(self, capsys, tmp_path):
        out_path = tmp_path / "prof.pstats"
        rc = self._run(tmp_path, "--profile", str(out_path))
        err = capsys.readouterr().err
        assert rc == 0
        assert out_path.exists()
        assert str(out_path) in err


class TestSweepFiles:
    """repro-bench -c my_sweep.py: user sweep files, reframe-style."""

    SWEEP = '''
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest, rfm_test
from repro.runner.fields import parameter


@rfm_test
class FleetSweep(RegressionTest):
    point = parameter([1, 2, 3, 4])

    def program(self, ctx):
        return f"p {self.point}: {self.point * 10.0}\\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"p", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\\d.]+)", stdout, 1, float)
        return {"value": (v, "MB/s")}
'''

    CYCLE = '''
from repro.runner.benchmark import RegressionTest, rfm_test


@rfm_test
class CycleLeft(RegressionTest):
    depends_on_tests = ("CycleRight",)

    def program(self, ctx):
        return "x\\n", 1.0


@rfm_test
class CycleRight(RegressionTest):
    depends_on_tests = ("CycleLeft",)

    def program(self, ctx):
        return "x\\n", 1.0
'''

    def test_fleet_walkthrough_with_async(self, capsys, tmp_path):
        # the README walkthrough end to end: custom sweep file, synthetic
        # fleet from a --site YAML, thread-pool policy, batched journal
        sweep = tmp_path / "fleet_sweep.py"
        sweep.write_text(self.SWEEP)
        site = tmp_path / "fleet.yaml"
        site.write_text(TestScalingFlags.FLEET_YAML)
        rc = bench_main([
            "-c", str(sweep), "-r", "--system", "fleet",
            "--site", str(site), "--policy=async", "-j", "2",
            "--journal", str(tmp_path / "j.jsonl"), "--journal-batch", "8",
            "--perflog-dir", str(tmp_path / "pl"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 passed" in out
        assert (tmp_path / "j.jsonl").exists()

    def test_missing_sweep_file_errors(self, capsys, tmp_path):
        rc = bench_main([
            "-c", str(tmp_path / "nope.py"), "-r", "--system", "archer2",
        ])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_broken_sweep_file_errors_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        rc = bench_main(["-c", str(bad), "-r", "--system", "archer2"])
        assert rc == 1
        assert "SyntaxError" in capsys.readouterr().err

    def test_dependency_cycle_errors_cleanly(self, capsys, tmp_path):
        cyc = tmp_path / "cyc.py"
        cyc.write_text(self.CYCLE)
        rc = bench_main(["-c", str(cyc), "-r", "--system", "archer2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: test dependency cycle: ")
        # the cycle is named by case, not by list index
        assert "CycleLeft @archer2" in err and "CycleRight @archer2" in err
        assert "(0, 1)" not in err

    def test_sweep_classes_hash_from_their_source(self, tmp_path):
        # load_suite registers the sweep module in sys.modules, which is
        # what lets inspect.getsource find the class: its result-store
        # source key then follows the file's text, so an edit invalidates
        from repro.runner.cli import load_suite
        from repro.runner.resilience import benchmark_source_hash

        sweep = tmp_path / "src_sweep.py"
        sweep.write_text(self.SWEEP)
        [before] = load_suite(str(sweep))
        before_hash = benchmark_source_hash(before)
        # an edit to a method body: no data attribute changes, so only
        # the source text can tell the two versions apart
        sweep.write_text(
            self.SWEEP.replace("p {self.point}", "point {self.point}")
        )
        [after] = load_suite(str(sweep))
        assert benchmark_source_hash(after) != before_hash
