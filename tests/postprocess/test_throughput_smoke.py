"""Tier-1 smoke gate: reduced-size runs of both throughput benches.

CI cannot afford the full ~1M-row / 44-case regeneration campaigns in
``benchmarks/``, but perf regressions must not land silently.  This
module re-runs both measurements at a reduced size inside the tier-1
time budget and fails when:

* the vectorized ingest speedup over the row-at-a-time reference drops
  below half the claimed 5x (a hardware-independent *relative* gate), or
* measured throughput regresses more than 2x against the committed
  baselines in ``BENCH_postprocess.json`` / ``BENCH_runner.json``
  (an *absolute* gate; the 2x allowance absorbs machine variance).

The measurement code itself is imported from ``benchmarks/`` -- the gate
runs the same campaign generators and timing helpers as the full bench,
only smaller, so a regression cannot hide in a code path the smoke test
does not exercise.
"""

import json
import os

import pytest

from benchmarks.test_postprocess_throughput import (
    SMOKE_TESTS,
    measure_ingest_smoke,
)
from benchmarks.test_runner_throughput import (
    CASE_LATENCY,
    ThroughputProbe,
    _run_policy,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: a regression is flagged when throughput falls below committed/2
REGRESSION_ALLOWANCE = 2.0
#: the full bench claims >= 5x; the smoke floor is half of that
SMOKE_INGEST_FLOOR = 2.5


def committed_baseline(name, key):
    """The committed ``key`` of ``BENCH_<name>.json``.

    A gate whose baseline is missing fails, naming the file and the key:
    skipping would switch the gate off without anyone noticing.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh).get(key)
    except FileNotFoundError:
        value = None
    if not value:
        pytest.fail(f"BENCH_{name}.json has no committed {key!r} baseline",
                    pytrace=False)
    return value


def test_missing_baseline_key_fails():
    with pytest.raises(pytest.fail.Exception, match=(
        r"BENCH_runner\.json has no committed 'no_such_key' baseline"
    )):
        committed_baseline("runner", "no_such_key")
    with pytest.raises(pytest.fail.Exception, match=r"BENCH_absent\.json"):
        committed_baseline("absent", "async_cases_per_second")


class TestIngestSmoke:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("smoke-campaign")
        return measure_ingest_smoke(str(root))

    def test_campaign_shape(self, smoke):
        assert smoke["n_files"] == 10 * SMOKE_TESTS
        assert smoke["n_rows"] == smoke["n_files"] * 2_000

    def test_vectorized_ingest_relative_floor(self, smoke):
        speedup = smoke["vec_rate"] / smoke["ref_rate"]
        assert speedup >= SMOKE_INGEST_FLOOR, (
            f"vectorized ingest only {speedup:.2f}x the reference reader "
            f"(floor {SMOKE_INGEST_FLOOR}x) -- "
            f"{smoke['vec_rate']:,.0f} vs {smoke['ref_rate']:,.0f} rows/s"
        )

    def test_ingest_throughput_vs_committed_baseline(self, smoke):
        committed = committed_baseline(
            "postprocess", "smoke_ingest_vectorized_rows_per_second"
        )
        floor = committed / REGRESSION_ALLOWANCE
        assert smoke["vec_rate"] >= floor, (
            f"ingest regressed >{REGRESSION_ALLOWANCE}x: "
            f"{smoke['vec_rate']:,.0f} rows/s vs committed "
            f"{committed:,.0f} rows/s"
        )


class TestRunnerSmoke:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("smoke-runner")
        serial = _run_policy("serial", 1, str(tmp / "serial"),
                             classes=[ThroughputProbe],
                             platforms=["archer2"])
        parallel = _run_policy("async", 4, str(tmp / "async"),
                               classes=[ThroughputProbe],
                               platforms=["archer2"])
        return serial, parallel

    def test_async_speedup_floor(self, campaign):
        serial, parallel = campaign
        speedup = serial["elapsed"] / parallel["elapsed"]
        assert serial["n_cases"] == 22
        assert speedup >= 2.0, f"async speedup only {speedup:.2f}x"

    def test_output_identical_across_policies(self, campaign):
        serial, parallel = campaign
        assert parallel["summary"] == serial["summary"]
        assert parallel["foms"] == serial["foms"]
        assert parallel["logs"] == serial["logs"]
        assert serial["logs"], "campaign produced no perflogs"

    def test_async_rate_vs_committed_baseline(self, campaign):
        _, parallel = campaign
        committed = committed_baseline("runner", "async_cases_per_second")
        rate = parallel["n_cases"] / parallel["elapsed"]
        floor = committed / REGRESSION_ALLOWANCE
        assert rate >= floor, (
            f"runner throughput regressed >{REGRESSION_ALLOWANCE}x: "
            f"{rate:.1f} cases/s vs committed {committed:.1f} "
            f"(case latency {CASE_LATENCY * 1e3:.0f} ms)"
        )
