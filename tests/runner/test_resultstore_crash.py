"""Crash-point sweep for the result store's atomic-commit sites.

Every durable mutation of :class:`CaseResultStore` commits through a
temp-write + ``os.replace`` pair (object files, ``index.json``, pack
compaction) or a single append (``pack.jsonl``).  This sweep kills the
process -- simulated as an exception -- *between the temp write and the
rename* at every such site in a representative workload, then reopens
the store and checks the crash-consistency contract:

* reopening never raises, and every lookup returns either ``None`` (a
  tolerated miss) or exactly the entry that was put;
* leftover ``.tmp`` files are invisible (never counted, never served);
* after recovery plus one compaction, ``pack.jsonl`` carries exactly
  one valid line per surviving object -- no duplicates, no torn lines --
  each byte-equal to the line a fresh ``put`` writes, so a compacted
  store keeps pack load's raw-CRC fast path.
"""

import json
import os

import pytest

from repro.iofaults import tear_tail
from repro.runner.results import ENTRY_VERSION, CaseResultStore

pytestmark = pytest.mark.iochaos


class SimulatedCrash(BaseException):
    """Not an Exception: nothing in the store may swallow a crash."""


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


def _workload(root: str) -> None:
    """Exercises every rename site: object puts, index flush, pack
    append, and a supersede-heavy phase that forces compaction."""
    store = CaseResultStore(root)
    for i in range(5):
        store.put(_key(i), _entry(i))
    store.flush()
    store.lookup(_key(0))  # loads the pack, arming compaction
    for _ in range(20):
        store.put(_key(0), _entry(0))  # supersedes pile up pack lines
    store.flush()


def put_pack_line(root: str, key: str, entry: dict) -> str:
    """The pack line a fresh store's ``put`` writes for *entry*."""
    store = CaseResultStore(root)
    store.put(key, entry)
    store.flush()
    with open(os.path.join(root, "pack.jsonl"), encoding="utf-8") as fh:
        [line] = fh.read().splitlines()
    return line


def _recovery_invariants(root: str) -> None:
    store = CaseResultStore(root)
    for i in range(5):
        entry = store.lookup(_key(i))
        if entry is not None:
            # whatever survived is exactly what was put, never garbage
            assert entry["fingerprint"] == f"fp-{i}"
            assert entry["record"] == {"passed": True}
    # recovery: re-put everything, then compact; the pack must come out
    # canonical -- one valid line per object, no duplicates
    for i in range(5):
        store.put(_key(i), _entry(i))
    store.flush()
    with store._lock:
        store._load_pack_locked()
        store._compact_pack_locked()
    with open(os.path.join(root, "pack.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = []
    for line in lines:
        doc = json.loads(line)  # every line parses
        i = int(doc["key"][4:8])
        # and is exactly what put writes (so it verifies by raw CRC)
        assert line == put_pack_line(f"{root}-ref-{i}", _key(i), _entry(i))
        assert os.path.exists(
            os.path.join(root, "objects", doc["key"] + ".json")
        )
        keys.append(doc["key"])
    assert len(keys) == len(set(keys)), "duplicate pack lines"


def _count_renames(tmp_path, monkeypatch) -> int:
    real_replace = os.replace
    calls = []
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (calls.append(dst), real_replace(src, dst))[1],
    )
    _workload(str(tmp_path / "count"))
    monkeypatch.undo()
    return len(calls)


def test_workload_covers_all_three_rename_sites(tmp_path, monkeypatch):
    """Guard: the sweep below really visits object, index AND pack-
    compaction renames, or it proves nothing."""
    real_replace = os.replace
    dsts = []
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (dsts.append(dst), real_replace(src, dst))[1],
    )
    _workload(str(tmp_path / "guard"))
    assert any(d.endswith(".json") and "objects" in d for d in dsts)
    assert any(d.endswith("index.json") for d in dsts)
    assert any(d.endswith("pack.jsonl") for d in dsts)


def test_crash_between_temp_write_and_rename_at_every_site(
    tmp_path, monkeypatch
):
    total = _count_renames(tmp_path, monkeypatch)
    assert total >= 7  # multiple sites, or the sweep is trivial
    real_replace = os.replace
    for crash_at in range(1, total + 1):
        root = str(tmp_path / f"crash-{crash_at}")
        remaining = [crash_at]

        def crashing_replace(src, dst):
            remaining[0] -= 1
            if remaining[0] == 0:
                # the temp file is fully written; the commit never happens
                raise SimulatedCrash(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(SimulatedCrash):
            _workload(root)
        monkeypatch.undo()
        _recovery_invariants(root)


def test_torn_pack_append_tail_is_a_miss_not_poison(tmp_path):
    """A crash mid-append tears pack.jsonl's last line; the store reopens,
    serves the torn key from its canonical object file, and compaction
    writes the pack back whole."""
    root = str(tmp_path / "torn")
    store = CaseResultStore(root)
    for i in range(3):
        store.put(_key(i), _entry(i))
    store.flush()
    tear_tail(os.path.join(root, "pack.jsonl"), drop=11)
    _recovery_invariants(root)


def test_leftover_tmp_files_are_invisible(tmp_path):
    root = str(tmp_path / "tmps")
    store = CaseResultStore(root)
    store.put(_key(0), _entry(0))
    store.flush()
    # a crash's droppings, at every site
    for name in ("objects/zzz.json.tmp", "index.json.tmp",
                 "pack.jsonl.tmp"):
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write("{ half a record")
    reopened = CaseResultStore(root)
    assert len(reopened) == 1
    assert reopened.lookup(_key(0)) is not None
    assert reopened.stats.corrupted == 0
