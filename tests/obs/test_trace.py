"""Tests for spans, recorders, the tracer and trace-file analysis."""

import json

import pytest

from repro.obs.jsonl import read_jsonl
from repro.obs.trace import (
    CaseTimeline,
    SpanRecorder,
    TraceError,
    Tracer,
    as_tracer,
    chrome_trace,
    load_trace,
    validate_nesting,
)


class TestSpanRecorder:
    def test_record_and_event(self):
        rec = SpanRecorder("t")
        rec.record("a", 0.0, 2.0, "stage")
        rec.event("b", 1.0, "io")
        assert [s.name for s in rec.spans] == ["a", "b"]
        assert rec.spans[1].duration == 0.0
        assert rec.end_time == 2.0

    def test_nesting_assigns_parents(self):
        rec = SpanRecorder("t")
        outer = rec.start("outer", 0.0)
        inner = rec.record("inner", 1.0, 2.0)
        rec.finish(outer, 3.0)
        after = rec.record("after", 3.0, 4.0)
        assert inner.parent_id == outer.local_id
        assert after.parent_id is None

    def test_finish_closes_abandoned_children(self):
        """An early-return failure path leaves children open; the parent
        close sweeps them to its own end time (containment holds)."""
        rec = SpanRecorder("t")
        outer = rec.start("outer", 0.0)
        child = rec.start("child", 1.0)  # never finished explicitly
        rec.finish(outer, 5.0)
        assert child.t1 == 5.0
        assert rec._stack == []

    def test_negative_duration_rejected(self):
        rec = SpanRecorder("t")
        with pytest.raises(TraceError):
            rec.record("bad", 2.0, 1.0)
        span = rec.start("s", 3.0)
        with pytest.raises(TraceError):
            rec.finish(span, 1.0)

    def test_offset_recorder_shifts_and_shares_nesting(self):
        rec = SpanRecorder("t")
        outer = rec.start("run", 10.0)
        shifted = rec.at_offset(10.0)
        job = shifted.record("job", 0.0, 5.0, "sched")
        rec.finish(outer, 20.0)
        assert (job.t0, job.t1) == (10.0, 15.0)
        assert job.parent_id == outer.local_id
        # offsets compose
        assert shifted.at_offset(5.0).event("e", 0.0).t0 == 15.0


class TestCaseTimeline:
    def test_cursor_advances_through_spans(self):
        rec = SpanRecorder("t")
        tl = CaseTimeline(rec)
        tl.span("build", 30.0, cat="stage")
        tl.advance(5.0)
        tl.instant("sanity")
        assert tl.t == 35.0
        assert rec.spans[0].t1 == 30.0
        assert rec.spans[1].t0 == 35.0

    def test_inert_without_recorder(self):
        tl = CaseTimeline(None)
        assert not tl.active
        tl.span("x", 1.0)
        tl.instant("y")
        tl.finish(tl.start("z"))
        assert tl.t == 1.0  # cursor still advances

    def test_negative_advance_clamped(self):
        tl = CaseTimeline(None)
        tl.advance(-3.0)
        assert tl.t == 0.0


class TestTracer:
    def test_flush_assigns_global_ids_in_order(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        r1 = tracer.recorder("one")
        s = r1.start("a", 0.0)
        r1.record("b", 0.0, 1.0)
        r1.finish(s, 1.0)
        r2 = tracer.recorder("two")
        r2.record("c", 0.0, 2.0)
        tracer.flush(r1)
        tracer.flush(r2)
        records = read_jsonl(path)
        assert records[0]["kind"] == "meta"
        spans = [r for r in records if r["kind"] == "span"]
        assert [s["id"] for s in spans] == [1, 2, 3]
        assert spans[1]["parent"] == 1  # remapped local ids
        assert spans[2]["parent"] is None

    def test_memory_only_without_path(self):
        tracer = Tracer()
        rec = tracer.recorder("t")
        rec.record("a", 0.0, 1.0)
        records = tracer.flush(rec)
        assert tracer.path is None
        assert [r["kind"] for r in records] == ["meta", "span"]
        assert len(tracer.flushed) == 1

    def test_write_metrics_appends_final_record(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        rec = tracer.recorder("t")
        rec.record("a", 0.0, 1.0)
        tracer.flush(rec)
        tracer.write_metrics({"counters": {"cases.total": 1}})
        meta, spans, metrics = load_trace(path)
        assert metrics == {"counters": {"cases.total": 1}}
        assert len(spans) == 1

    def test_wall_clock_off_by_default(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        rec = tracer.recorder("t")
        rec.record("a", 0.0, 1.0)
        tracer.flush(rec)
        (span,) = load_trace(path)[1]
        assert "w0" not in span

    def test_as_tracer_coercion(self, tmp_path):
        assert as_tracer(None) is None
        t = Tracer()
        assert as_tracer(t) is t
        t2 = as_tracer(str(tmp_path / "x.jsonl"))
        assert t2.path.endswith("x.jsonl")


class TestLoadAndValidate:
    def _write_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        rec = tracer.recorder("case")
        outer = rec.start("attempt", 0.0, "attempt")
        rec.record("build", 0.0, 30.0, "stage")
        rec.record("run", 30.0, 40.0, "stage")
        rec.finish(outer, 40.0)
        tracer.flush(rec)
        return path

    def test_load_trace_round_trip(self, tmp_path):
        path = self._write_trace(tmp_path)
        meta, spans, metrics = load_trace(path)
        assert meta["format"] == "repro-trace"
        assert [s["name"] for s in spans] == ["attempt", "build", "run"]
        assert metrics is None

    def test_load_trace_rejects_empty(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(TraceError):
            load_trace(path)

    def test_load_trace_rejects_foreign_format(self, tmp_path):
        path = str(tmp_path / "foreign.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "format": "other"}) + "\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_validate_nesting_clean(self, tmp_path):
        _, spans, _ = load_trace(self._write_trace(tmp_path))
        assert validate_nesting(spans) == []

    def test_validate_nesting_flags_escape(self):
        spans = [
            {"id": 1, "parent": None, "track": "t", "name": "p",
             "t0": 0.0, "t1": 10.0},
            {"id": 2, "parent": 1, "track": "t", "name": "c",
             "t0": 5.0, "t1": 15.0},  # escapes the parent
        ]
        problems = validate_nesting(spans)
        assert len(problems) == 1 and "outside parent" in problems[0]

    def test_validate_nesting_flags_unknown_parent(self):
        spans = [{"id": 2, "parent": 9, "track": "t", "name": "c",
                  "t0": 0.0, "t1": 1.0}]
        assert "not seen" in validate_nesting(spans)[0]


class TestChromeExport:
    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer()
        rec = tracer.recorder("case-1")
        rec.record("build", 0.0, 30.0, "stage", cache_hit=False)
        rec.event("sanity", 30.0, "stage")
        tracer.flush(rec)
        doc = chrome_trace([s.as_record(i + 1, None)
                            for i, s in enumerate(tracer.flushed)])
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "case-1"
        assert complete[0]["dur"] == pytest.approx(30e6)  # seconds -> us
        assert complete[0]["args"] == {"cache_hit": False}
        assert instants[0]["s"] == "t"
        json.dumps(doc)  # must serialize
