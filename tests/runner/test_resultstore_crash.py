"""Crash-point sweep for the result store's durable commit sites.

Every durable mutation of :class:`CaseResultStore` is one of two kinds:
a ``put`` appends one line to ``pack.jsonl``, and compaction rewrites
the pack by temp-write + ``os.replace``.  This sweep kills the process
-- simulated as an exception -- at every such site in a representative
workload: mid-append (a prefix of the line landed) or between the temp
write and the rename.  It then reopens the store and checks the
crash-consistency contract:

* reopening never raises, and every lookup returns either ``None`` (a
  tolerated miss) or exactly the entry that was put;
* leftover ``.tmp`` files are invisible (never counted, never served);
* after recovery plus one compaction, ``pack.jsonl`` carries exactly
  one valid line per key -- no duplicates, no torn lines -- each
  byte-equal to the line a fresh ``put`` writes, so a compacted store
  keeps pack load's raw-CRC fast path.
"""

import json
import os

import pytest

from repro.iofaults import FaultyIO, tear_tail
from repro.runner.results import ENTRY_VERSION, CaseResultStore

pytestmark = pytest.mark.iochaos

KEYS = 5


class SimulatedCrash(BaseException):
    """Not an Exception: nothing in the store may swallow a crash."""


class CrashClock:
    """Records the commit sites visited; crashes at the Nth *kind* site.

    ``kind`` is ``"append"`` or ``"rename"``; without one it never
    crashes and only records.
    """

    def __init__(self, kind: str = "", n: int = 0):
        self.kind, self.n = kind, n
        self.sites = []

    def tick(self, site: str) -> bool:
        self.sites.append(site)
        return site == self.kind and self.sites.count(site) == self.n


class CrashingIO(FaultyIO):
    """A clean FaultyIO whose appends can die half-written."""

    def __init__(self, clock: CrashClock):
        super().__init__()
        self.clock = clock

    def append(self, path, data, label, sync=True):
        if self.clock.tick("append"):
            with open(path, "ab") as fh:
                fh.write(data[: len(data) // 2])
            raise SimulatedCrash(path)
        super().append(path, data, label, sync=sync)


def _key(i: int) -> str:
    return f"cafe{i:04d}" * 5


def _entry(i: int) -> dict:
    return {
        "version": ENTRY_VERSION,
        "key": _key(i),
        "fingerprint": f"fp-{i}",
        "case": f"Case_{i}",
        "record": {"passed": True},
        "perflog": None,
        "trace": None,
    }


def _workload(root: str, clock: CrashClock) -> None:
    """Exercises every commit site: fresh appends, superseding appends,
    and enough supersedes that flush() compacts."""
    store = CaseResultStore(root)
    store.attach_io(CrashingIO(clock))
    for i in range(KEYS):
        store.put(_key(i), _entry(i))
    store.flush()
    for _ in range(20):
        store.put(_key(0), _entry(0))  # supersedes pile up pack lines
    store.flush()


def _run(root: str, monkeypatch, clock: CrashClock) -> None:
    real_replace = os.replace

    def crashing_replace(src, dst):
        if clock.tick("rename"):
            # the temp file is fully written; the commit never happens
            raise SimulatedCrash(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crashing_replace)
    try:
        _workload(root, clock)
    finally:
        monkeypatch.undo()


def put_pack_line(root: str, key: str, entry: dict) -> str:
    """The pack line a fresh store's ``put`` writes for *entry*."""
    CaseResultStore(root).put(key, entry)
    with open(os.path.join(root, "pack.jsonl"), encoding="utf-8") as fh:
        [line] = fh.read().splitlines()
    return line


def _recovery_invariants(root: str) -> None:
    store = CaseResultStore(root)
    for i in range(KEYS):
        entry = store.lookup(_key(i))
        if entry is not None:
            # whatever survived is exactly what was put, never garbage
            assert entry["fingerprint"] == f"fp-{i}"
            assert entry["record"] == {"passed": True}
    # recovery: re-put everything; a later process compacts what is on
    # disk, and the pack must come out canonical -- one valid line per
    # key, no duplicates
    for i in range(KEYS):
        store.put(_key(i), _entry(i))
    compactor = CaseResultStore(root)
    with compactor._lock:
        compactor._compact_locked()
    with open(os.path.join(root, "pack.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = []
    for line in lines:
        doc = json.loads(line)  # every line parses
        i = int(doc["key"][4:8])
        # and is exactly what put writes (so it verifies by raw CRC)
        assert line == put_pack_line(f"{root}-ref-{i}", _key(i), _entry(i))
        keys.append(doc["key"])
    assert sorted(keys) == [_key(i) for i in range(KEYS)], "lost or dup"
    reopened = CaseResultStore(root)
    assert [reopened.lookup(_key(i)) is not None
            for i in range(KEYS)] == [True] * KEYS


def test_workload_covers_both_kinds_of_commit_site(tmp_path, monkeypatch):
    """Guard: the sweeps below really visit put appends AND compaction
    renames, or they prove nothing."""
    clock = CrashClock()
    _run(str(tmp_path / "guard"), monkeypatch, clock)
    assert clock.sites.count("append") == KEYS + 20
    assert clock.sites.count("rename") >= 1


def _sweep(tmp_path, monkeypatch, kind: str) -> None:
    census = CrashClock()
    _run(str(tmp_path / "count"), monkeypatch, census)
    for n in range(1, census.sites.count(kind) + 1):
        root = str(tmp_path / f"crash-{kind}-{n}")
        with pytest.raises(SimulatedCrash):
            _run(root, monkeypatch, CrashClock(kind, n))
        _recovery_invariants(root)


def test_crash_mid_append_at_every_put(tmp_path, monkeypatch):
    _sweep(tmp_path, monkeypatch, "append")


def test_crash_between_temp_write_and_rename_at_every_site(
    tmp_path, monkeypatch
):
    _sweep(tmp_path, monkeypatch, "rename")


def test_torn_pack_append_tail_is_a_miss_not_poison(tmp_path):
    """A crash mid-append tears pack.jsonl's last line; the store reopens,
    counts the torn key a corrupted miss, and the next append does not
    glue itself onto the fragment."""
    root = str(tmp_path / "torn")
    store = CaseResultStore(root)
    for i in range(3):
        store.put(_key(i), _entry(i))
    tear_tail(os.path.join(root, "pack.jsonl"), drop=11)
    reopened = CaseResultStore(root)
    assert reopened.lookup(_key(2)) is None
    assert reopened.stats.corrupted == 1
    assert reopened.lookup(_key(1)) is not None
    _recovery_invariants(root)


def test_leftover_tmp_files_are_invisible(tmp_path):
    root = str(tmp_path / "tmps")
    store = CaseResultStore(root)
    store.put(_key(0), _entry(0))
    store.flush()
    # a crash's droppings, at the compaction site
    with open(os.path.join(root, "pack.jsonl.tmp"), "w",
              encoding="utf-8") as fh:
        fh.write("{ half a record")
    reopened = CaseResultStore(root)
    assert len(reopened) == 1
    assert reopened.lookup(_key(0)) is not None
    assert reopened.stats.corrupted == 0
