"""Tests for the shared crash-safe JSONL helper (repro.obs.jsonl)."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.jsonl import (
    JsonlAppender,
    read_jsonl,
    scan_jsonl,
    seal_line,
    verify_line,
    write_jsonl_atomic,
)


class TestAppender:
    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        appender = JsonlAppender(path)
        appender.append({"a": 1})
        appender.append({"b": [1, 2], "c": "x"})
        assert read_jsonl(path) == [{"a": 1}, {"b": [1, 2], "c": "x"}]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "er" / "log.jsonl")
        JsonlAppender(path).append({"ok": True})
        assert read_jsonl(path) == [{"ok": True}]

    def test_sorted_keys_deterministic_bytes(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        JsonlAppender(p1).append({"z": 1, "a": 2})
        JsonlAppender(p2).append({"a": 2, "z": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_append_many_batches(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        n = JsonlAppender(path).append_many([{"i": i} for i in range(5)])
        assert n == 5
        assert [r["i"] for r in read_jsonl(path)] == list(range(5))

    def test_append_many_empty_is_noop(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        assert JsonlAppender(path).append_many([]) == 0
        assert not os.path.exists(path)


class TestTornTail:
    def test_read_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        JsonlAppender(path).append_many([{"i": 0}, {"i": 1}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"i": 2, "x"')  # the crash signature
        assert [r["i"] for r in read_jsonl(path)] == [0, 1]

    def test_read_raises_on_mid_file_corruption(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"i": 0}\nnot json\n{"i": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)

    def test_append_repairs_torn_tail_first(self, tmp_path):
        """Appending after a crash must not glue two records together."""
        path = str(tmp_path / "log.jsonl")
        JsonlAppender(path).append({"i": 0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"i": 1, "x"')
        # a *new* appender (fresh process after the crash)
        JsonlAppender(path).append({"i": 2})
        assert [r["i"] for r in read_jsonl(path)] == [0, 2]

    def test_repair_of_file_with_no_newline_at_all(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"torn')
        JsonlAppender(path).append({"i": 0})
        assert [r["i"] for r in read_jsonl(path)] == [0]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "absent.jsonl")) == []


class TestAtomicRewrite:
    def test_write_jsonl_atomic_replaces(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        JsonlAppender(path).append_many([{"i": i} for i in range(4)])
        write_jsonl_atomic(path, [{"i": 99}])
        assert read_jsonl(path) == [{"i": 99}]
        assert not os.path.exists(path + ".tmp")

    def test_write_jsonl_atomic_creates_dirs(self, tmp_path):
        path = str(tmp_path / "a" / "b.jsonl")
        write_jsonl_atomic(path, [{"x": 1}])
        assert read_jsonl(path) == [{"x": 1}]


class TestSealing:
    def test_seal_verify_round_trip(self):
        record = {"z": [1, 2], "a": "text"}
        line = seal_line(record)
        assert verify_line(line) == record

    def test_sealed_line_is_plain_flat_json(self):
        """Sealing must stay invisible to naive json.loads consumers."""
        doc = json.loads(seal_line({"k": 1}))
        assert doc["k"] == 1 and "cs" in doc

    def test_empty_record_seals(self):
        assert verify_line(seal_line({})) == {}

    def test_corrupted_payload_detected(self):
        line = seal_line({"value": 12345})
        assert verify_line(line.replace("12345", "12346")) is None

    def test_legacy_unsealed_record_accepted(self):
        assert verify_line('{"old": true}') == {"old": True}

    def test_non_object_line_rejected(self):
        assert verify_line("[1, 2]") is None
        assert verify_line("garbage") is None

    def test_damaged_seal_name_rejected(self):
        """Renaming ``cs`` must not pass the record off as an unsealed
        one carrying an extra field."""
        line = seal_line({"value": 1})
        assert verify_line(line.replace('"cs"', '"cx"', 1)) is None

    def test_other_layout_verifies_by_reencoding(self):
        """Text sealed by an older writer (compact, unsorted) still
        verifies: it falls back to the canonical re-encoding."""
        doc = json.loads(seal_line({"b": 1, "a": [2.5, None]}))
        compact = json.dumps(doc, separators=(",", ":"))
        assert verify_line(compact) == {"b": 1, "a": [2.5, None]}
        rotten = compact.replace("2.5", "3.5")
        assert verify_line(rotten) is None

    def test_appender_seals_by_default(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        JsonlAppender(path).append({"i": 0})
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        assert raw.startswith('{"cs":"')
        assert read_jsonl(path) == [{"i": 0}]  # cs stripped on read

    def test_read_drops_checksum_failing_tail(self, tmp_path):
        """The generalized heal: a rotten *suffix*, not just a torn line."""
        path = str(tmp_path / "log.jsonl")
        JsonlAppender(path).append_many([{"i": 0}, {"i": 1}])
        bad = seal_line({"i": 2}).replace('"i": 2', '"i": 3')
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
            fh.write('{"torn')
        assert [r["i"] for r in read_jsonl(path)] == [0, 1]

    def test_quarantine_skips_mid_file_damage(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(seal_line({"i": 0}) + "\n")
            fh.write("not json\n")
            fh.write(seal_line({"i": 2}) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)
        assert [r["i"] for r in read_jsonl(path, quarantine=True)] == [0, 2]

    def test_scan_triage_counts(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(seal_line({"i": 0}) + "\n")
            fh.write("rot\n")
            fh.write(seal_line({"i": 2}) + "\n")
            fh.write('{"torn')
        records, stats = scan_jsonl(path)
        assert [r["i"] for r in records] == [0, 2]
        assert stats == {"ok": 2, "bad_mid": 1, "bad_tail": 1}


class TestShortWriteRepair:
    """Satellite: a torn batched append keeps its complete earlier lines."""

    def _short_write(self, monkeypatch, keep_bytes):
        real_write = os.write
        fired = []

        def shorting(fd, payload):
            if not fired and len(payload) > keep_bytes:
                fired.append(True)
                return real_write(fd, payload[:keep_bytes])
            return real_write(fd, payload)

        monkeypatch.setattr(os, "write", shorting)
        return fired

    def test_mid_batch_short_write_keeps_complete_lines(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "log.jsonl")
        appender = JsonlAppender(path)
        appender.append({"i": 0})
        batch = [{"i": 1}, {"i": 2}, {"i": 3}]
        lines = [seal_line(r) + "\n" for r in batch]
        # tear inside the final line of the batch
        keep = len("".join(lines[:2])) + 4
        fired = self._short_write(monkeypatch, keep)
        with pytest.raises(OSError):
            appender.append_many(batch)
        assert fired
        # lines 1 and 2 of the batch survived; only the torn tail dropped
        assert [r["i"] for r in read_jsonl(path)] == [0, 1, 2]
        # and the file needs no further repair: the next append just works
        appender.append({"i": 9})
        assert [r["i"] for r in read_jsonl(path)] == [0, 1, 2, 9]

    def test_short_write_mid_first_line_drops_whole_batch(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "log.jsonl")
        appender = JsonlAppender(path)
        appender.append({"i": 0})
        self._short_write(monkeypatch, 3)
        with pytest.raises(OSError):
            appender.append_many([{"i": 1}, {"i": 2}])
        assert [r["i"] for r in read_jsonl(path)] == [0]


# --------------------------------------------------------------------------
# the raw-CRC fast path, property-tested
# --------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
#: ``cs`` is the seal's own member, never a record field
RECORDS = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key != "cs"), JSON_VALUES,
    max_size=5,
)


class TestFastVerify:
    @given(RECORDS)
    def test_round_trip(self, record):
        assert verify_line(seal_line(record)) == record

    @settings(max_examples=60, deadline=None)
    @given(RECORDS, st.integers(0, 255))
    def test_single_byte_substitution_never_yields_another_record(
        self, record, byte
    ):
        data = seal_line(record).encode("utf-8")
        for i in range(len(data)):
            if data[i] == byte:
                continue
            mutated = data[:i] + bytes([byte]) + data[i + 1:]
            got = verify_line(mutated.decode("utf-8", "replace"))
            assert got is None or got == record, (i, mutated)

    @given(RECORDS, st.booleans())
    def test_reserialized_record_verifies_by_fallback(self, record, flip):
        doc = json.loads(seal_line(record))
        if flip:
            doc = dict(reversed(list(doc.items())))
        for text in (json.dumps(doc, separators=(",", ":")),
                     json.dumps(doc, indent=1)):
            assert verify_line(text) == record
