"""``repro-fsck --repair`` makes each healed file durable before the
rename that swaps it in: a crash just after the rename must not lose
the records the repair kept."""

import os

import pytest

from repro.obs.jsonl import seal_line
from repro.runner.fsck import fsck_perflog, fsck_store
from repro.runner.perflog import PERFLOG_FIELDS
from repro.runner.results import _pack_line


@pytest.fixture
def fsyncs_per_replace(monkeypatch):
    """``[(renamed-to file name, fsyncs since the previous rename)]``."""
    log = []
    pending = [0]
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        pending[0] += 1
        real_fsync(fd)

    def replace(src, dst):
        log.append((os.path.basename(dst), pending[0]))
        pending[0] = 0
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def test_perflog_repair_syncs_the_log_and_its_sidecar(tmp_path,
                                                      fsyncs_per_replace):
    row = "|".join(["2026-01-01T00:00:00", "repro-1.0.0", "T", "sys", "part",
                    "gcc", "stream@1.0", "8", "Triad", "1", "GB/s", "pass"])
    log = tmp_path / "a.log"
    log.write_text("|".join(PERFLOG_FIELDS) + "\n" + row + "\n2026|repro|T")

    report = fsck_perflog(str(log), repair=True)

    assert (report["invalid"], report["healed"]) == (1, 1)
    assert log.read_text().endswith(row + "\n")
    assert fsyncs_per_replace == [("a.log", 1), ("a.log.sums", 1)]


def test_store_repair_syncs_the_pack(tmp_path, fsyncs_per_replace):
    store = tmp_path / "store"
    store.mkdir()
    intact = "".join(_pack_line(f"{i:064x}", seal_line({"i": i}))
                     for i in range(2))
    (store / "pack.jsonl").write_text(intact + intact[:40] + "\n")

    report = fsck_store(str(store), repair=True)

    assert (report["checked"], report["invalid"], report["healed"]) == \
        (3, 1, 1)
    assert (store / "pack.jsonl").read_text() == intact
    assert fsyncs_per_replace == [("pack.jsonl", 1)]
