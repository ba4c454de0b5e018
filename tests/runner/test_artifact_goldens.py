"""Golden digests of a small campaign's artifacts.

One non-Spack probe campaign runs with every artifact writer armed: a
pinned perflog timestamp, a batched journal, a group-committed tracer
(header record and metrics trailer included) and a result store, under
the retry, fault, watchdog, speculation and drain options.  The sha256
of its trace, journal and perflog tree, and of a warm rerun's trace, are
pinned.  A change that moves any of them changes an artifact format, and
must re-record the digests on purpose.
"""

import hashlib
import os

from repro.faults import FaultPlan
from repro.obs.trace import Tracer
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor, RunConfig
from repro.runner.fields import parameter

PINNED_TS = "2026-01-01T00:00:00"

GOLDEN = {
    "cold_trace":
        "3e46ff610aef35ce6585b5837c87f97c7d1adf4258bb372764338ea06402a4b2",
    "cold_journal":
        "3410d3d4b0b360578c68336bf24cb228d28f6810d486473712c283690eba1cc4",
    "cold_perflogs":
        "a29ae2b3621628b670196a9d7132a7662ffdd5ea8b3e64b5d4e13dc482089880",
    "warm_trace":
        "86d7b068a3d5ecf22d5e5bc05eb05e0b1e52be7de6da7c6021398ef9075ea609",
}


class GoldenProbe(RegressionTest):
    """Two FOMs per point; every fourth point fails its sanity check."""

    point = parameter(list(range(12)))
    valid_prog_environs = ["*"]

    def program(self, ctx):
        ok = "ok" if self.point % 4 else "bad"
        rate = 100.0 + 7.25 * self.point
        return f"{ok} rate={rate} lat={1.0 / rate}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"^ok", stdout)

    def extract_performance(self, stdout):
        rate = sn.extractsingle(r"rate=([\d.]+)", stdout, 1, float)
        lat = sn.extractsingle(r"lat=([\d.e-]+)", stdout, 1, float)
        return {"rate": (rate, "MB/s"), "lat": (lat, "s")}


CONFIG = RunConfig(
    faults=FaultPlan.parse("submit:0.2,slow:0.3", seed=7),
    watchdog="run=40,heartbeat=10",
    speculation=True,
    straggler_factor=1.5,
    drain_after=2,
    journal_batch=3,
)


def _sha_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha_tree(root):
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def _campaign(tmp_path, tag):
    ex = Executor(
        perflog_prefix=str(tmp_path / f"perflogs-{tag}"),
        perflog_timestamp=PINNED_TS,
    )
    cases = ex.expand_cases([GoldenProbe], "archer2")
    trace = tmp_path / f"trace-{tag}.jsonl"
    journal = tmp_path / f"journal-{tag}.jsonl"
    report = ex.run_cases(
        cases,
        CONFIG,
        journal=str(journal),
        trace=Tracer(str(trace), batch=4),
        result_store=str(tmp_path / "store"),
    )
    return report, {
        "trace": _sha_file(trace),
        "journal": _sha_file(journal),
        "perflogs": _sha_tree(tmp_path / f"perflogs-{tag}"),
    }


def test_artifact_digests_are_pinned(tmp_path):
    cold, cold_digests = _campaign(tmp_path, "cold")
    warm, warm_digests = _campaign(tmp_path, "warm")
    assert cold.num_cases == 12 and not cold.replayed
    assert len(warm.replayed) == len(
        [r for r in cold.results if not r.resumed and not r.quarantined]
    )
    assert warm_digests["perflogs"] == cold_digests["perflogs"]
    got = {
        "cold_trace": cold_digests["trace"],
        "cold_journal": cold_digests["journal"],
        "cold_perflogs": cold_digests["perflogs"],
        "warm_trace": warm_digests["trace"],
    }
    assert got == GOLDEN
