"""Incremental ingest store: manifest hits, invalidation, persistence,
writer hooks, CLI flags and provenance surfacing."""

import os

import numpy as np
import pytest

from repro.postprocess.dataframe import DataFrame
from repro.postprocess.perflog_reader import (
    PerflogFormatError,
    read_perflog,
    read_perflogs,
)
from repro.postprocess.store import PerflogStore
from repro.runner.perflog import PERFLOG_FIELDS

HEADER = "|".join(PERFLOG_FIELDS)


def record(test="T", system="sys", value=1.0, var="Triad"):
    return "|".join([
        "2026-01-01T00:00:00", "repro-1.0.0", test, system, "part",
        "gcc", "stream@1.0", "8", var, f"{value:.6g}", "GB/s", "pass",
    ])


def write_log(path, n_rows, start=0, header=True):
    lines = ([HEADER] if header else []) + [
        record(value=float(start + i), var=f"v{(start + i) % 3}")
        for i in range(n_rows)
    ]
    mode = "w" if header else "a"
    with open(path, mode, encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def frames_equal(a: DataFrame, b: DataFrame) -> bool:
    if a.columns != b.columns or len(a) != len(b):
        return False
    for name in a.columns:
        if a[name].dtype != b[name].dtype:
            return False
        if list(a[name]) != list(b[name]):
            return False
    return True


class TestStoreBasics:
    def test_cold_then_full_hit(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 10)
        store = PerflogStore()
        first = read_perflog(str(log), store=store)
        again = read_perflog(str(log), store=store)
        assert store.stats.misses == 1
        assert store.stats.full_hits == 1
        assert frames_equal(first, again)
        assert frames_equal(first, read_perflog(str(log)))  # == direct

    def test_append_parses_only_new_bytes(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 50)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        parsed_cold = store.stats.bytes_parsed
        write_log(log, 5, start=50, header=False)
        appended = os.path.getsize(log) - parsed_cold
        frame = read_perflog(str(log), store=store)
        assert store.stats.partial_hits == 1
        assert store.stats.bytes_parsed - parsed_cold == appended
        assert frames_equal(frame, read_perflog(str(log)))

    def test_regrowth_loop_high_hit_rate(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 20)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        for round_ in range(5):
            write_log(log, 4, start=20 + 4 * round_, header=False)
            frame = read_perflog(str(log), store=store)
        assert store.stats.misses == 1
        assert store.stats.partial_hits == 5
        assert store.stats.byte_reuse_rate > 0.5
        assert frames_equal(frame, read_perflog(str(log)))

    def test_returned_arrays_are_copies(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 3)
        store = PerflogStore()
        frame = read_perflog(str(log), store=store)
        frame["perf_value"][0] = -1.0
        clean = read_perflog(str(log), store=store)
        assert clean["perf_value"][0] != -1.0

    def test_coalesced_header_in_appended_range(self, tmp_path):
        # `cat`-style growth re-introduces the header mid-file
        log = tmp_path / "a.log"
        write_log(log, 3)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        write_log(log, 2, start=3, header=True)  # append WITH header line
        # hand-append: write_log with header truncates; redo properly
        store2 = PerflogStore()
        log2 = tmp_path / "b.log"
        write_log(log2, 3)
        read_perflog(str(log2), store=store2)
        with open(log2, "a", encoding="utf-8") as fh:
            fh.write(HEADER + "\n" + record(value=99.0) + "\n")
        frame = read_perflog(str(log2), store=store2)
        assert store2.stats.partial_hits == 1
        assert len(frame) == 4
        assert frames_equal(frame, read_perflog(str(log2)))


class TestStoreInvalidation:
    def test_truncation_invalidates(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 20)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        write_log(log, 5)  # rewritten, shorter
        frame = read_perflog(str(log), store=store)
        assert store.stats.invalidations == 1
        assert store.stats.misses == 2
        assert frames_equal(frame, read_perflog(str(log)))

    def test_in_place_rewrite_detected_by_head_probe(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 10)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        # rewrite history to same+longer content with different head
        lines = [HEADER] + [record(value=float(100 + i), test="REWRITTEN")
                            for i in range(30)]
        log.write_text("\n".join(lines) + "\n")
        frame = read_perflog(str(log), store=store)
        assert store.stats.invalidations == 1
        assert frames_equal(frame, read_perflog(str(log)))

    def test_seam_probe_catches_tail_edit(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 50)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        # edit the last parsed line (head probe alone cannot see this),
        # then grow the file past its previous size
        text = log.read_text().splitlines()
        text[-1] = record(value=999.0, test="EDITED")
        text.append(record(value=50.0))
        text.append(record(value=51.0))
        log.write_text("\n".join(text) + "\n")
        frame = read_perflog(str(log), store=store)
        assert store.stats.invalidations == 1
        assert frames_equal(frame, read_perflog(str(log)))

    def test_partial_trailing_line_held_back(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 5)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(record(value=6.0))  # no trailing newline yet
        frame = read_perflog(str(log), store=store)
        assert len(frame) == 5  # incomplete record not surfaced
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("\n")
        frame = read_perflog(str(log), store=store)
        assert len(frame) == 6

    def test_malformed_appended_lines_still_raise(self, tmp_path):
        log = tmp_path / "a.log"
        write_log(log, 3)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("only|three|fields\n")
        with pytest.raises(PerflogFormatError, match=r"a\.log:5"):
            read_perflog(str(log), store=store)


class TestStorePersistence:
    def test_cross_instance_warm_start(self, tmp_path):
        log = tmp_path / "a.log"
        cache = tmp_path / "cache"
        write_log(log, 25)
        store = PerflogStore(cache_dir=str(cache))
        read_perflog(str(log), store=store)
        assert store.stats.misses == 1
        # a brand-new store (fresh process) starts warm from disk
        warm = PerflogStore(cache_dir=str(cache))
        frame = warm.read(str(log))
        assert warm.stats.full_hits == 1
        assert warm.stats.misses == 0
        assert list(frame["perf_value"]) == list(
            read_perflog(str(log))["perf_value"])

    def test_cross_instance_incremental(self, tmp_path):
        log = tmp_path / "a.log"
        cache = tmp_path / "cache"
        write_log(log, 25)
        PerflogStore(cache_dir=str(cache)).read(str(log))
        write_log(log, 5, start=25, header=False)
        warm = PerflogStore(cache_dir=str(cache))
        warm.read(str(log))
        assert warm.stats.partial_hits == 1
        assert warm.stats.byte_reuse_rate > 0.5

    def test_corrupt_cache_falls_back_to_full_parse(self, tmp_path):
        log = tmp_path / "a.log"
        cache = tmp_path / "cache"
        write_log(log, 5)
        PerflogStore(cache_dir=str(cache)).read(str(log))
        for fname in os.listdir(cache):
            if fname.endswith(".npz"):
                (cache / fname).write_bytes(b"garbage")
        fresh = PerflogStore(cache_dir=str(cache))
        frame = fresh.read(str(log))
        assert fresh.stats.misses == 1
        assert len(frame["perf_value"]) == 5


class TestReaderIntegration:
    def test_read_perflogs_with_store_and_workers(self, tmp_path):
        for i in range(6):
            write_log(tmp_path / f"log{i}.log", 8, start=10 * i)
        store = PerflogStore()
        serial = read_perflogs(str(tmp_path))
        parallel = read_perflogs(str(tmp_path), store=store, workers=4)
        assert frames_equal(serial, parallel)
        assert store.stats.misses == 6
        warm = read_perflogs(str(tmp_path), store=store, workers=4)
        assert store.stats.full_hits == 6
        assert frames_equal(serial, warm)

    def test_cli_cache_flags(self, tmp_path, capsys):
        from repro.postprocess.cli import main as plot_main

        logdir = tmp_path / "perflogs"
        logdir.mkdir()
        write_log(logdir / "a.log", 5)
        cache = tmp_path / "cache"
        rc = plot_main([str(logdir), "--cache-dir", str(cache),
                        "--cache-stats", "--csv", "-j", "2"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "ingest cache" in err
        assert "1 misses" in err
        # second invocation (same process boundary as CI re-run): warm
        rc = plot_main([str(logdir), "--cache-dir", str(cache),
                        "--cache-stats", "--csv"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "1 hits (1 full" in captured.err
        assert "0 misses" in captured.err

    def test_provenance_surfaces_ingest_cache(self, tmp_path):
        import json

        from repro.core.provenance import RunProvenance

        log = tmp_path / "a.log"
        write_log(log, 4)
        store = PerflogStore()
        read_perflog(str(log), store=store)
        read_perflog(str(log), store=store)
        prov = RunProvenance(system="archer2")
        prov.attach_ingest_cache(store.stats)
        doc = json.loads(prov.to_json())
        assert doc["ingest_cache"]["hits"] == 1
        assert doc["ingest_cache"]["misses"] == 1
        back = RunProvenance.from_json(prov.to_json())
        assert back.ingest_cache["hit_rate"] == store.stats.hit_rate
