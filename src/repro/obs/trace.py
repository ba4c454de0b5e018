"""Structured spans: where a campaign's (simulated) time actually went.

Principles 4-5 demand that *all* run metadata be captured alongside the
FOM; the provenance layer records outcomes, this module records the
*shape of the work*: pipeline stages, queue waits, retries, backoff
sleeps, watchdog events, speculative duplicates.  Continuous-benchmarking
systems (exaCB) treat this telemetry as what makes unattended campaigns
debuggable at scale.

Model
-----

* A :class:`Span` is a named interval ``[t0, t1]`` on a **track** (one
  track per case, plus the ``campaign`` track), with a parent span, a
  category and free-form attributes.  Instant events are zero-duration
  spans.
* Timestamps are **simulated seconds** -- the same deterministic
  quantities the discrete-event scheduler produces -- so a trace for a
  given seed is *byte-identical* across serial, async and speculative
  execution (the trace is itself a reproducibility artifact).  Each case
  track starts at its own ``t=0``; the campaign track lays cases
  end-to-end in the deterministic serial consumption order.  Wall-clock
  time is never recorded: it is not reproducible.
* A :class:`SpanRecorder` collects one case's spans in memory (a
  nesting stack assigns parents); the :class:`Tracer` flushes whole
  recorders to the crash-safe JSONL trace file in the deterministic
  result order, assigning global span ids at flush time.  Under
  speculative execution only the *accepted* attempt's recorder is ever
  flushed -- the loser's spans vanish with it, exactly like its perflog
  rows.

Trace-file records (one JSON object per line, via
:mod:`repro.obs.jsonl` -- same torn-tail tolerance as the campaign
journal)::

    {"kind": "meta",    "format": "repro-trace", "version": 1, ...}
    {"kind": "span",    "id": 7, "parent": 5, "track": "...", "name": "...",
     "cat": "stage", "t0": 1.0, "t1": 31.0, "attrs": {...}}
    {"kind": "metrics", "metrics": {...}}        # final snapshot

``repro-trace`` renders timelines and Chrome ``chrome://tracing`` JSON
from these records (:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.jsonl import JsonlAppender, read_jsonl, seal_line

__all__ = [
    "CaseTimeline",
    "Span",
    "SpanRecorder",
    "ReplayedSpans",
    "TraceError",
    "Tracer",
    "as_tracer",
    "chrome_trace",
    "load_trace",
    "recorder_from_spans",
    "serialize_spans",
    "strip_replay_attrs",
    "validate_nesting",
]

#: trace-file format marker (bumped on incompatible record changes)
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: span categories used by the built-in instrumentation (the taxonomy
#: table in DESIGN.md section 7); free-form strings are also accepted
CATEGORIES = (
    "case",        # one whole case on the campaign track
    "attempt",     # one pipeline pass
    "stage",       # setup/build/run/sanity/performance
    "pkg",         # concretize/install
    "sched",       # submit/queue-wait/job-run/cancel
    "retry",       # backoff sleeps
    "watchdog",    # heartbeats and kills
    "spec",        # speculation decisions
    "io",          # perflog flushes, journal writes
    "wave",        # dependency wavefront boundaries
)


class TraceError(ValueError):
    """A malformed or inconsistent trace file."""


@dataclass
class Span:
    """One named interval on a track (instant events have ``t0 == t1``)."""

    name: str
    t0: float
    t1: float
    cat: str = ""
    track: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: recorder-local id / parent id (remapped to global ids at flush)
    local_id: int = 0
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_record(self, span_id: int, parent: Optional[int]) -> Dict[str, Any]:
        return {
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "track": self.track,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects one track's spans; a nesting stack assigns parents.

    A recorder is used by exactly one thread at a time (each case runs
    its pipeline on one worker), so it needs no locking; the *tracer*
    serializes flushes.  ``at_offset`` returns a view shifted by a
    constant -- how scheduler-clock times (which restart at 0 per case)
    are mapped onto the case timeline.
    """

    def __init__(self, track: str):
        self.track = track
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_local = 1

    # -- recording -----------------------------------------------------------
    def _new(self, name: str, t0: float, t1: float, cat: str,
             attrs: Dict[str, Any]) -> Span:
        span = Span(
            name=name, t0=float(t0), t1=float(t1), cat=cat,
            track=self.track, attrs=attrs,
            local_id=self._next_local,
            parent_id=self._stack[-1].local_id if self._stack else None,
        )
        self._next_local += 1
        self.spans.append(span)
        return span

    def record(self, name: str, t0: float, t1: float, cat: str = "",
               **attrs: Any) -> Span:
        """A complete interval under the current nesting parent."""
        if t1 < t0:
            raise TraceError(f"span {name!r} ends before it starts")
        return self._new(name, t0, t1, cat, attrs)

    def event(self, name: str, t: float, cat: str = "", **attrs: Any) -> Span:
        """An instant (zero-duration span)."""
        return self._new(name, t, t, cat, attrs)

    def start(self, name: str, t0: float, cat: str = "",
              **attrs: Any) -> Span:
        """Open a span and push it as the nesting parent."""
        span = self._new(name, t0, t0, cat, attrs)
        self._stack.append(span)
        return span

    def finish(self, span: Span, t1: float) -> Span:
        """Close *span* (popping it and anything left open inside it)."""
        if t1 < span.t0:
            raise TraceError(f"span {span.name!r} ends before it starts")
        span.t1 = float(t1)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            # a child left open by an early return (failure paths bail
            # out of the pipeline mid-stage): close it where its parent
            # closes, so nesting containment survives every exit path
            if top.t1 < span.t1:
                top.t1 = span.t1
        return span

    def at_offset(self, offset: float) -> "_OffsetRecorder":
        """A view whose timestamps are shifted by *offset* seconds."""
        return _OffsetRecorder(self, float(offset))

    # -- accounting ----------------------------------------------------------
    @property
    def end_time(self) -> float:
        """The track's extent (max ``t1`` over recorded spans)."""
        return max((s.t1 for s in self.spans), default=0.0)


class _OffsetRecorder:
    """A :class:`SpanRecorder` proxy adding a constant time offset.

    Shares the underlying recorder's span list *and* nesting stack, so
    offset spans (scheduler events) nest correctly under pipeline-stage
    spans recorded on the base timeline.
    """

    def __init__(self, base: SpanRecorder, offset: float):
        self._base = base
        self.offset = offset

    def record(self, name: str, t0: float, t1: float, cat: str = "",
               **attrs: Any) -> Span:
        return self._base.record(name, t0 + self.offset, t1 + self.offset,
                                 cat, **attrs)

    def event(self, name: str, t: float, cat: str = "", **attrs: Any) -> Span:
        return self._base.event(name, t + self.offset, cat, **attrs)

    def start(self, name: str, t0: float, cat: str = "",
              **attrs: Any) -> Span:
        return self._base.start(name, t0 + self.offset, cat, **attrs)

    def finish(self, span: Span, t1: float) -> Span:
        return self._base.finish(span, t1 + self.offset)

    def at_offset(self, offset: float) -> "_OffsetRecorder":
        return _OffsetRecorder(self._base, self.offset + offset)


class CaseTimeline:
    """A per-case virtual-time cursor for pipeline instrumentation.

    The pipeline's stages have no shared clock -- build and job
    durations are produced by independent deterministic simulations --
    so the timeline lays them end-to-end: ``advance(d)`` moves the
    cursor, ``span(name, d)`` records ``[t, t+d]`` and advances.  The
    final cursor value is the case's total simulated cost.
    """

    def __init__(self, recorder: Optional[SpanRecorder], start: float = 0.0):
        self.rec = recorder
        self.t = float(start)

    @property
    def active(self) -> bool:
        return self.rec is not None

    def advance(self, seconds: float) -> float:
        self.t += max(float(seconds), 0.0)
        return self.t

    def instant(self, name: str, cat: str = "stage", **attrs: Any) -> None:
        if self.rec is not None:
            self.rec.event(name, self.t, cat, **attrs)

    def span(self, name: str, seconds: float, cat: str = "stage",
             **attrs: Any) -> None:
        """Record ``[t, t + seconds]`` and advance the cursor."""
        seconds = max(float(seconds), 0.0)
        if self.rec is not None:
            self.rec.record(name, self.t, self.t + seconds, cat, **attrs)
        self.t += seconds

    def start(self, name: str, cat: str = "stage", **attrs: Any) -> Optional[Span]:
        if self.rec is None:
            return None
        return self.rec.start(name, self.t, cat, **attrs)

    def finish(self, span: Optional[Span]) -> None:
        if self.rec is not None and span is not None:
            self.rec.finish(span, self.t)


class ReplayedSpans:
    """A stored trace bundle, flush-ready without ``Span`` rebuilding.

    The result store keeps each case's *final encoded trace lines* --
    the exact ``sort_keys=True`` JSON the cold run wrote -- plus the
    global id of the first span and the span count.  On replay,
    :meth:`Tracer.flush` checks whether its id cursor matches
    ``first_id``; when it does (the common case: the prefix of the
    campaign before this case is unchanged) the lines are appended
    *verbatim*, with zero per-span decode/encode work.  When an edit
    upstream shifted the id sequence, every id is a dense flush-order
    counter, so the records are remapped by a constant offset.

    The trade-off (inherited from the earlier document-based replay
    path): replayed spans are not re-materialized into
    ``Tracer.flushed``.
    """

    __slots__ = ("track", "bundle")

    def __init__(self, track: str, bundle: Dict[str, Any]):
        self.track = track
        self.bundle = bundle

    @property
    def count(self) -> int:
        return int(self.bundle.get("count", 0))

    @property
    def end_time(self) -> float:
        """The track's extent (max ``t1``), matching ``SpanRecorder``."""
        return float(self.bundle.get("end_time", 0.0))


class Tracer:
    """Campaign-wide span collection + crash-safe JSONL export.

    ``path`` (or an explicit :class:`~repro.obs.jsonl.JsonlAppender`)
    enables on-disk streaming: each flushed recorder's spans go down as
    one append batch, so a campaign killed mid-run leaves a readable
    trace of everything consumed so far (at most the final record torn
    -- which :func:`load_trace` skips, like the journal).  Without a
    path the tracer collects in memory only (tests, API users).

    Global span ids are assigned *at flush time*, in flush order --
    flushes happen in the executor's deterministic result-consumption
    order, which is what makes the file byte-identical across execution
    policies.
    """

    def __init__(
        self,
        path: Optional[Union[str, JsonlAppender]] = None,
        sync: bool = True,
        batch: int = 1,
    ):
        if isinstance(path, JsonlAppender):
            self._appender: Optional[JsonlAppender] = path
            self.path: Optional[str] = path.path
        elif path is not None:
            self._appender = JsonlAppender(str(path), sync=sync)
            self.path = str(path)
        else:
            self._appender = None
            self.path = None
        if batch < 1:
            raise ValueError("batch must be >= 1")
        #: group-commit factor: records from this many flush() calls are
        #: coalesced into one append (one write + fsync).  ``1`` keeps
        #: the per-case crash-safety granularity; large campaigns trade
        #: a bounded tail-loss window for ~batch x fewer fsyncs.  The
        #: on-disk byte sequence is identical either way -- batching
        #: changes only where the write syscalls fall.
        self.batch = batch
        self._lock = threading.Lock()
        self._next_id = 1
        self._wrote_meta = False
        #: flush subscribers -- duck-typed objects with
        #: ``note_flush(path, lines)``, the mirror of the perflog
        #: handler's append sinks.  Each flushed batch of sealed
        #: lines is fanned out in flush order (the deterministic result
        #: order), so a sink sees exactly the byte stream the trace file
        #: receives without subclassing the tracer.  A sink that raises
        #: is dropped -- observers must never fail the campaign.
        self._sinks: List[Any] = []
        #: group-commit buffer of *encoded* lines (encoding happens at
        #: flush time so replayed bundles can blit verbatim bytes in)
        self._pending_lines: List[str] = []
        self._pending_flushes = 0
        #: flushed spans, in flush (= global id) order
        self.flushed: List[Span] = []
        #: spans written to disk so far
        self.spans_written = 0
        #: the last *live* flush's storable bundle: first global id,
        #: span count and the exact encoded lines.  The executor stows
        #: this in the result store so a warm run can replay the bytes.
        self.last_flush_bundle: Optional[Dict[str, Any]] = None

    # -- recorders -----------------------------------------------------------
    def recorder(self, track: str) -> SpanRecorder:
        """A fresh recorder for one track (no shared state touched)."""
        return SpanRecorder(track)

    # -- flush subscribers ---------------------------------------------------
    def add_sink(self, sink: Any) -> None:
        """Subscribe *sink* to span flushes.

        ``sink.note_flush(path, items)`` is called with the trace path
        (``None`` for in-memory tracers) and every flushed batch, in
        flush order.  The mirror of ``PerflogHandler.add_sink``.  Each
        item is the decoded record dict when the tracer has it in hand
        (the live-flush hot path skips a re-parse + checksum round
        trip) and the raw sealed line otherwise (result-store blits);
        sinks must accept both.  Idempotent per sink object.
        """
        if sink not in self._sinks:
            self._sinks.append(sink)

    def _notify_sinks(
        self, items: List[Union[str, Dict[str, Any]]]
    ) -> None:
        if not self._sinks or not items:
            return
        for sink in list(self._sinks):
            try:
                sink.note_flush(self.path, items)
            except Exception:
                # observers never fail the campaign: a broken sink is
                # dropped and the trace keeps flowing to disk.
                self._sinks.remove(sink)

    # -- storage-fault plumbing ----------------------------------------------
    def attach_io(self, io: Any, label: str = "trace") -> None:
        """Route trace appends through a :class:`FaultyIO` shim."""
        if self._appender is not None:
            self._appender.attach_io(io, label)

    def disable_disk(self) -> None:
        """Demote to in-memory collection (``--durability degrade``).

        Span accounting continues -- ids, ``flushed``, replay bundles --
        so the campaign's results are unaffected; only the on-disk trace
        stops growing.  Called when a trace append keeps failing and the
        durability policy says the campaign matters more than the file.
        """
        with self._lock:
            self._appender = None
            self._pending_lines = []
            self._pending_flushes = 0

    # -- flushing ------------------------------------------------------------
    def _meta_record(self) -> Dict[str, Any]:
        return {
            "kind": "meta",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "clock": "simulated-seconds",
            # spans carry simulated time only; the constant member keeps
            # trace headers byte-identical across releases
            "wall": False,
        }

    def flush(
        self, recorder: "Union[SpanRecorder, ReplayedSpans]"
    ) -> List[Dict[str, Any]]:
        """Assign global ids to *recorder*'s spans and append them.

        Returns the records written (tests introspect them).  Safe to
        call from the executor's single consumption thread; the lock
        guards id assignment for API users who flush concurrently.

        Accepts either a live :class:`SpanRecorder` or a
        :class:`ReplayedSpans` bundle from the result store; the latter
        appends the stored encoded lines directly -- verbatim when the
        global-id cursor matches the bundle's ``first_id``, offset by a
        constant otherwise (ids are a dense flush-order counter, and
        parents are always within-case).  The blit path returns ``[]``
        rather than re-parsing what it wrote; only live flushes feed
        ``Tracer.flushed`` and the returned record list.
        """
        with self._lock:
            lines: List[str] = []
            meta_rec: Optional[Dict[str, Any]] = None
            if not self._wrote_meta:
                meta_rec = self._meta_record()
                lines.append(seal_line(meta_rec))
                self._wrote_meta = True
            if isinstance(recorder, ReplayedSpans):
                n_spans = recorder.count
                first_id = int(recorder.bundle.get("first_id", self._next_id))
                stored = recorder.bundle.get("lines") or []
                if self._next_id == first_id:
                    lines.extend(stored)  # verbatim: the common warm path
                else:
                    delta = self._next_id - first_id
                    for line in stored:
                        rec = json.loads(line)
                        rec.pop("cs", None)  # resealed after the id shift
                        rec["id"] += delta
                        if rec.get("parent") is not None:
                            rec["parent"] += delta
                        lines.append(seal_line(rec))
                self._next_id += n_spans
                records: List[Dict[str, Any]] = []
            else:
                n_spans = len(recorder.spans)
                first_id = self._next_id
                mapping: Dict[int, int] = {}
                records = [meta_rec] if meta_rec is not None else []
                span_lines: List[str] = []
                for span in recorder.spans:
                    span_id = self._next_id
                    self._next_id += 1
                    mapping[span.local_id] = span_id
                    parent = (
                        mapping.get(span.parent_id)
                        if span.parent_id is not None else None
                    )
                    record = span.as_record(span_id, parent)
                    records.append(record)
                    span_lines.append(seal_line(record))
                    self.flushed.append(span)
                lines.extend(span_lines)
                self.last_flush_bundle = {
                    "first_id": first_id,
                    "count": n_spans,
                    "lines": span_lines,
                }
            if self._appender is not None and lines:
                if self.batch > 1:
                    self._pending_lines.extend(lines)
                    self._pending_flushes += 1
                    if self._pending_flushes >= self.batch:
                        self._drain_locked()
                else:
                    self._appender.append_lines(lines)
                self.spans_written += n_spans
            # sinks hear every flush -- even in-memory or degraded-disk
            # tracers keep the live plane fed.  Live flushes hand over
            # the decoded records; blits only have the stored lines.
            self._notify_sinks(records if records else lines)
            return records

    def _drain_locked(self) -> None:
        if self._pending_lines:
            self._appender.append_lines(self._pending_lines)
            self._pending_lines = []
        self._pending_flushes = 0

    def drain(self) -> None:
        """Write any group-committed records still buffered (batch > 1)."""
        with self._lock:
            if self._appender is not None:
                self._drain_locked()

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Append the end-of-campaign metrics snapshot record."""
        with self._lock:
            records: List[Dict[str, Any]] = []
            if not self._wrote_meta:
                records.append(self._meta_record())
                self._wrote_meta = True
            records.append({"kind": "metrics", "metrics": snapshot})
            if self._appender is not None:
                if self._pending_lines:
                    self._drain_locked()
                self._appender.append_many(records)
            self._notify_sinks(list(records))


def serialize_spans(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """Portable span documents for one recorder (the result store's format).

    Local/parent ids are preserved -- they are recorder-relative, so a
    recorder rebuilt from these documents flushes to exactly the same
    trace records as the original (global ids are assigned at flush
    time either way).
    """
    docs: List[Dict[str, Any]] = []
    for span in recorder.spans:
        docs.append({
            "name": span.name,
            "t0": span.t0,
            "t1": span.t1,
            "cat": span.cat,
            "attrs": dict(span.attrs),
            "local_id": span.local_id,
            "parent_id": span.parent_id,
        })
    return docs


def recorder_from_spans(
    track: str, docs: List[Dict[str, Any]]
) -> SpanRecorder:
    """Rebuild a flush-ready :class:`SpanRecorder` from stored documents.

    The inverse of :func:`serialize_spans`: a result-store replay hands
    the rebuilt recorder to the tracer exactly like a freshly executed
    case, so flush order, span counts and hence global span ids match
    the cold run's byte for byte.
    """
    recorder = SpanRecorder(track)
    next_local = 1
    for doc in docs:
        span = Span(
            name=str(doc["name"]),
            t0=float(doc["t0"]),
            t1=float(doc["t1"]),
            cat=str(doc.get("cat", "")),
            track=track,
            attrs=dict(doc.get("attrs") or {}),
            local_id=int(doc["local_id"]),
            parent_id=(
                int(doc["parent_id"])
                if doc.get("parent_id") is not None else None
            ),
        )
        recorder.spans.append(span)
        next_local = max(next_local, span.local_id + 1)
    recorder._next_local = next_local
    return recorder


def strip_replay_attrs(
    records: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Copies of span records minus the ``replayed`` cache annotation.

    The byte-identity gate compares a warm run's trace to a cold run's
    *modulo cache annotations* (same contract as provenance's
    ``cached_from``): the executor marks replayed cases with a
    ``replayed=true`` attribute on their campaign-track span, and this
    strips exactly that, leaving every other byte to the comparison.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        attrs = record.get("attrs")
        if isinstance(attrs, dict) and "replayed" in attrs:
            record = dict(record)
            attrs = dict(attrs)
            attrs.pop("replayed")
            record["attrs"] = attrs
        out.append(record)
    return out


def as_tracer(value: Any) -> Optional[Tracer]:
    """Coerce CLI/API input (path | Tracer | None) to a Tracer."""
    if value is None or isinstance(value, Tracer):
        return value
    return Tracer(value)


# --------------------------------------------------------------------------
# reading & analysis
# --------------------------------------------------------------------------

def load_trace(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Parse a trace file -> (meta, span records, metrics snapshot).

    Torn trailing records (a crashed campaign) are skipped by the shared
    JSONL reader; an empty or meta-less file raises :class:`TraceError`.
    """
    records = read_jsonl(path)
    if not records:
        raise TraceError(f"{path}: empty trace file")
    meta: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    for record in records:
        kind = record.get("kind")
        if kind == "meta" and meta is None:
            meta = record
        elif kind == "span":
            spans.append(record)
        elif kind == "metrics":
            metrics = record.get("metrics")
    if meta is None:
        raise TraceError(f"{path}: no meta record (not a repro trace?)")
    if meta.get("format") != TRACE_FORMAT:
        raise TraceError(
            f"{path}: unknown trace format {meta.get('format')!r}"
        )
    return meta, spans, metrics


def validate_nesting(spans: List[Dict[str, Any]],
                     epsilon: float = 1e-9) -> List[str]:
    """Structural checks on span records; returns a list of violations.

    * every ``parent`` id references an earlier span on the same track;
    * every child interval lies within its parent's (to *epsilon*);
    * no span ends before it starts.

    An empty list means the trace nests correctly -- what the tier-1
    smoke test asserts for chaos campaigns.
    """
    by_id: Dict[int, Dict[str, Any]] = {}
    problems: List[str] = []
    for span in spans:
        sid = span["id"]
        if span["t1"] < span["t0"] - epsilon:
            problems.append(
                f"span {sid} ({span['name']}): ends before it starts"
            )
        parent_id = span.get("parent")
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {sid} ({span['name']}): parent {parent_id} "
                    f"not seen before it"
                )
            else:
                if parent["track"] != span["track"]:
                    problems.append(
                        f"span {sid} ({span['name']}): parent on a "
                        f"different track"
                    )
                if (span["t0"] < parent["t0"] - epsilon
                        or span["t1"] > parent["t1"] + epsilon):
                    problems.append(
                        f"span {sid} ({span['name']}): "
                        f"[{span['t0']:g}, {span['t1']:g}] outside parent "
                        f"{parent_id} [{parent['t0']:g}, {parent['t1']:g}]"
                    )
        by_id[sid] = span
    return problems


def chrome_trace(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert span records to Chrome trace-event JSON (``chrome://tracing``).

    Tracks map to thread ids (with ``thread_name`` metadata events);
    simulated seconds map to microseconds.  Complete events (``ph: X``)
    carry the span attributes in ``args``.
    """
    tracks: List[str] = []
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        track = span["track"] or "campaign"
        if track not in tids:
            tids[track] = len(tids)
            tracks.append(track)
    for i, track in enumerate(tracks):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": i,
            "args": {"name": track},
        })
    for span in spans:
        track = span["track"] or "campaign"
        duration_us = (span["t1"] - span["t0"]) * 1e6
        event = {
            "name": span["name"],
            "cat": span.get("cat") or "span",
            "ph": "X" if duration_us > 0 else "i",
            "ts": span["t0"] * 1e6,
            "pid": 1,
            "tid": tids[track],
            "args": dict(span.get("attrs") or {}),
        }
        if duration_us > 0:
            event["dur"] = duration_us
        else:
            event["s"] = "t"  # instant scope: thread
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"format": TRACE_FORMAT, "clock": "simulated-seconds"},
    }
