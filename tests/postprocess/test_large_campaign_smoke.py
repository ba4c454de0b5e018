"""Tier-1 smoke gate for the fleet-campaign (simulator hot path) bench.

The full ``benchmarks/test_large_campaign.py`` run sweeps 100k cases
over a 4096-node synthetic fleet -- minutes of wall clock CI cannot
spend per commit.  This gate re-runs the same generator at the 5k-case
scale recorded alongside the headline in ``BENCH_runner.json`` and
fails when serial throughput falls below half the committed rate (the
same 2x allowance as the other smoke gates, absorbing machine
variance).  The campaign generator and runner helper are imported from
``benchmarks/`` so a regression cannot hide in an unexercised path.
"""

import gc

import pytest

from benchmarks.test_large_campaign import SmokeProbe, fleet_site, run_fleet
from tests.postprocess.test_throughput_smoke import (
    REGRESSION_ALLOWANCE,
    committed_baseline,
)


def _floor():
    return committed_baseline(
        "runner", "large_campaign_smoke_cases_per_second"
    ) / REGRESSION_ALLOWANCE


class TestFleetCampaignSmoke:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        # full artifact stack on, matching how the committed baseline
        # rate was measured by the identity stage of the full bench.
        # One cold-cache outlier must not fail tier-1, so a run below
        # the gate's floor earns a single retry (best rate kept);
        # a real regression fails both runs.
        floor = _floor()
        best = None
        for attempt in range(2):
            tmp = tmp_path_factory.mktemp(f"fleet-smoke{attempt}")
            rate, elapsed, report, _ = run_fleet(
                SmokeProbe, site=fleet_site(), artifact_dir=str(tmp),
            )
            if best is None or rate > best[0]:
                best = (rate, elapsed, report)
            if best[0] >= floor:
                break
        # drop the 5k-case campaign state before the timing-sensitive
        # gates that run after this one
        gc.collect()
        return best

    def test_campaign_shape(self, smoke):
        _, _, report = smoke
        assert report.num_cases == 5_000
        assert report.success

    def test_serial_rate_vs_committed_baseline(self, smoke):
        committed = committed_baseline(
            "runner", "large_campaign_smoke_cases_per_second"
        )
        rate, _, _ = smoke
        floor = committed / REGRESSION_ALLOWANCE
        assert rate >= floor, (
            f"fleet-campaign throughput regressed "
            f">{REGRESSION_ALLOWANCE}x: {rate:.0f} cases/s vs committed "
            f"{committed:.0f} cases/s"
        )
