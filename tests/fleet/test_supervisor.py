"""FleetSupervisor: every campaign it runs is journaled and sliced."""

import os

from repro.fleet.queue import CampaignQueue
from repro.fleet.service import CampaignSpec
from repro.fleet.supervisor import FleetSupervisor
from repro.runner.resilience import CampaignJournal

SUITE_SRC = '''
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest, rfm_test
from repro.runner.fields import parameter


@rfm_test
class SliceProbe(RegressionTest):
    size = parameter([1, 2, 3, 4, 5])

    def program(self, ctx):
        return "bw: {0}\\n".format(self.size * 10.0), 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"bw", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r"bw: ([\\d.]+)", stdout, 1, float)
        return {"bandwidth": (v, "MB/s")}
'''


def test_empty_journal_path_gets_the_default_journal(tmp_path):
    """``--journal ""`` is no journal: the fleet assigns its own."""
    suite = tmp_path / "slice_suite.py"
    suite.write_text(SUITE_SRC)
    queue = CampaignQueue(str(tmp_path / "fleet.q"))
    spec = CampaignSpec(
        suites=[str(suite)],
        system="archer2",
        perflog_dir=str(tmp_path / "pl"),
        perflog_timestamp="2026-01-01T00:00:00",
        journal="",
    )
    cid = queue.submit(spec.to_doc(), now=0.0)
    report = FleetSupervisor(queue, slice_cases=2).run()
    outcome = report.outcomes[cid]
    assert (outcome.status, outcome.passed, outcome.slices) == \
        ("completed", 5, 3)
    journal = f"{queue.path}.journals/{cid}.jsonl"
    assert os.path.exists(journal)
    assert len(CampaignJournal(journal).load()) == 5
