"""Live analytics plane: streaming ingest + windowed aggregates.

Post-processing in this repo was post-hoc: perflogs and traces become
queryable only after a campaign ends.  This module closes the loop --
``LiveStatsSink`` subscribes to the writer hooks that already exist
(``PerflogWriter.note_append``, ``Tracer.note_flush``) and maintains
windowed aggregates *while campaigns run*:

- per-system throughput (cases/s over a sliding window of fixed-width
  buckets on the **simulated clock** -- dashboards are therefore
  byte-reproducible across serial/async policies),
- queue-wait / job-run / whole-case percentiles from the same
  fixed-bucket histograms the metrics registry uses,
- retry / fault / degraded rates and result-store hit rates folded in
  from metrics snapshots,
- per-campaign fleet progress and per-tenant occupancy fed by the
  fleet supervisor.

The sink is exposed three ways:

1. **in-process**: the executor and fleet supervisor feed it directly;
   ``snapshot()`` is a cheap copy-under-lock read any thread may call.
2. **on disk**: a crash-safe sealed-JSONL ``live-status`` artifact
   (same :mod:`repro.obs.jsonl` contract as the journal and trace)
   that a *second process* can tail -- ``repro-fleet status`` and
   ``repro-top`` read it without touching the running campaign.
3. **replay**: ``replay_trace`` rebuilds the identical sink state from
   a finished trace file, which is how tests prove live == post-hoc.

``TailCursor`` gives followers exactly-once incremental reads of the
status file from an offset checked by a head probe and a seam probe.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .jsonl import JsonlAppender, read_jsonl, verify_line
from .metrics import Histogram

__all__ = [
    "LIVE_FORMAT",
    "LIVE_VERSION",
    "LiveStatsSink",
    "TailCursor",
    "as_live_sink",
    "read_live_status",
    "replay_trace",
]

LIVE_FORMAT = "repro-live"
LIVE_VERSION = 1

#: sliding-window width (simulated seconds) for throughput rates
DEFAULT_WINDOW = 60.0
#: fixed bucket width the window is built from; rates and sparklines
#: are bucket-aligned so they are independent of *when* you look
DEFAULT_BUCKET = 5.0
#: sparkline history length, in buckets
DEFAULT_HISTORY = 16
#: emit a status record every N completed cases (when a path is set)
DEFAULT_EMIT_EVERY = 64
#: slowest-span leaderboard size
DEFAULT_TOP_N = 5

_CASE_KEYS = (
    "total", "passed", "failed", "skipped", "retried", "attempts_extra",
    "resumed", "replayed", "speculated", "quarantined",
)


def system_of(display_name: str) -> str:
    """The system a case display name attributes to.

    Display names are ``"{test} @{system}:{partition}+{environ}"``;
    the parse is shared by live ingestion (executor callback) and
    replay ingestion (trace records) so both attribute identically.
    """
    _, sep, rest = display_name.rpartition("@")
    if not sep:
        return "?"
    for stop in (":", "+"):
        idx = rest.find(stop)
        if idx >= 0:
            rest = rest[:idx]
    return rest or "?"


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 9)


def _hist_summary(hist: Histogram) -> Dict[str, Any]:
    doc = hist.as_dict()
    return {
        "count": doc["count"],
        "p50": _round(doc["p50"]),
        "p90": _round(doc["p90"]),
        "p99": _round(doc["p99"]),
        "max": _round(doc["max"]),
    }


class TailCursor:
    """Exactly-once incremental reader for an append-only line file.

    Remember ``(offset, head digest, seam digest)`` and on each poll
    verify that the file still *begins* the same (head probe) and that
    the bytes just before our offset are the ones we already consumed
    (seam probe).  If both hold, everything past ``offset`` is new and
    is returned exactly once; if either fails the file was rewritten
    (heal, truncate, rotation) and the cursor resets to a full re-read,
    reporting ``reset=True`` so the caller can rebuild derived state.

    Only *complete* lines are surfaced -- a torn tail mid-append is
    left for the next poll, mirroring the sealed-JSONL crash contract.
    """

    HEAD_PROBE_BYTES = 4096
    SEAM_PROBE_BYTES = 64

    def __init__(self, path: str):
        self.path = path
        self.offset = 0
        self._head: Optional[str] = None
        self._seam: Optional[str] = None

    @staticmethod
    def _digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def _verify(self, fh) -> bool:
        if self.offset == 0:
            return True
        size = os.fstat(fh.fileno()).st_size
        if size < self.offset:
            return False
        head_len = min(self.offset, self.HEAD_PROBE_BYTES)
        fh.seek(0)
        if self._digest(fh.read(head_len)) != self._head:
            return False
        seam_len = min(self.offset, self.SEAM_PROBE_BYTES)
        fh.seek(self.offset - seam_len)
        return self._digest(fh.read(seam_len)) == self._seam

    def read_new(self) -> Tuple[List[str], bool]:
        """``(new complete lines, reset?)`` since the last poll."""
        try:
            fh = open(self.path, "rb")
        except OSError:
            return [], False
        with fh:
            reset = not self._verify(fh)
            if reset:
                self.offset = 0
            fh.seek(self.offset)
            chunk = fh.read()
            nl = chunk.rfind(b"\n")
            if nl < 0:
                return [], reset
            new_offset = self.offset + nl + 1
            head_len = min(new_offset, self.HEAD_PROBE_BYTES)
            fh.seek(0)
            self._head = self._digest(fh.read(head_len))
            seam_len = min(new_offset, self.SEAM_PROBE_BYTES)
            fh.seek(new_offset - seam_len)
            self._seam = self._digest(fh.read(seam_len))
            lines = chunk[:nl].decode("utf-8", "replace").split("\n")
            self.offset = new_offset
            return lines, reset


class LiveStatsSink:
    """Streaming aggregator over the writer hooks.

    One instance serves one campaign *or* a whole fleet (the supervisor
    shares a single sink across campaigns and labels progress through
    :meth:`note_fleet`).  Two sources, one state machine:

    - ``source="live"``: the executor calls :meth:`observe_case` per
      completed case (the same name/extent/attrs it records on the
      campaign trace track) and the writer hooks stream perflog rows
      (:meth:`note_append`) and span batches (:meth:`note_flush`).
      Campaign-track case spans arriving through ``note_flush`` are
      *skipped* -- they are the end-of-run summary of what
      ``observe_case`` already counted.
    - ``source="replay"``: everything -- case summaries included -- is
      ingested from trace records via :meth:`note_flush`, so a finished
      trace deterministically reconstructs the live state.

    All timestamps are simulated seconds; nothing here reads a wall
    clock, which is what makes snapshots (and the dashboards rendered
    from them) byte-identical across execution policies.
    """

    def __init__(
        self,
        status_path: Optional[str] = None,
        source: str = "live",
        window: float = DEFAULT_WINDOW,
        bucket: float = DEFAULT_BUCKET,
        history: int = DEFAULT_HISTORY,
        emit_every: int = DEFAULT_EMIT_EVERY,
        top_n: int = DEFAULT_TOP_N,
        sync: bool = False,
    ):
        if source not in ("live", "replay"):
            raise ValueError(f"source must be 'live' or 'replay': {source!r}")
        if bucket <= 0 or window <= 0:
            raise ValueError("window and bucket must be positive")
        self.source = source
        self.status_path = str(status_path) if status_path else None
        self.window = float(window)
        self.bucket = float(bucket)
        self.history = max(1, int(history))
        self.emit_every = max(1, int(emit_every))
        self.top_n = max(1, int(top_n))
        self._sync = sync
        self._appender: Optional[JsonlAppender] = None
        self._wrote_meta = False
        self._lock = threading.Lock()

        self.clock = 0.0
        self.cases: Dict[str, int] = {k: 0 for k in _CASE_KEYS}
        self.rows = 0
        self.files: set = set()
        self.events: Dict[str, int] = {
            "spans": 0, "waves": 0, "backoffs": 0, "perflog_flushes": 0,
        }
        #: per-system tallies + completion-time bucket ring
        self.systems: Dict[str, Dict[str, Any]] = {}
        self._global_buckets: Dict[int, int] = {}
        self.hist_queue = Histogram("live.queue_seconds")
        self.hist_job = Histogram("live.job_seconds")
        self.hist_case = Histogram("live.case_seconds")
        #: ``(duration, track, name)`` leaderboard, deterministic order
        self.slowest: List[Tuple[float, str, str]] = []
        #: counters folded from metrics snapshots (fleet slices add up)
        self.totals: Dict[str, int] = {}
        #: per-campaign fleet progress, fed by the supervisor
        self.fleet: Dict[str, Dict[str, Any]] = {}
        self._emitted = 0
        self._since_emit = 0

    # -- writer hooks --------------------------------------------------------
    def note_append(self, path: str, lines: Sequence[str],
                    wrote_header: bool = False) -> None:
        """Perflog hook: count durable rows, attribute them per system."""
        with self._lock:
            self.files.add(path)
            self.rows += len(lines)
            for line in lines:
                parts = line.split("|")
                if len(parts) > 3:
                    rec = self._system(parts[3])
                    rec["rows"] += 1

    def note_flush(
        self, path: Optional[str],
        lines: Sequence[Union[str, Dict[str, Any]]],
    ) -> None:
        """Trace hook: ingest a flushed batch of trace records.

        Items are decoded record dicts (the tracer's in-process hot
        path skips a re-parse + checksum round trip) or sealed JSONL
        lines (replay, result-store blits); lines are verified and
        damaged ones skipped.
        """
        with self._lock:
            for line in lines:
                rec = line if isinstance(line, dict) else verify_line(line)
                if rec is None:
                    continue
                kind = rec.get("kind")
                if kind == "span":
                    self._ingest_span(rec)
                elif kind == "metrics" and self.source == "replay":
                    self._fold_metrics(rec.get("metrics") or {})

    # -- live-mode feeds (executor / supervisor) -----------------------------
    def observe_case(
        self,
        name: str,
        t0: float,
        t1: float,
        attrs: Dict[str, Any],
        durations: Optional[Dict[str, float]] = None,
    ) -> None:
        """One completed case, straight from the executor.

        ``(name, t0, t1, attrs)`` are exactly what the executor records
        on the campaign trace track, so live state matches a later
        replay of the trace byte for byte.  *durations* carries
        queue/job seconds for **untraced** runs only -- when a tracer
        is armed the same figures arrive as ``sched`` spans through
        :meth:`note_flush` and feeding both would double-count.
        """
        with self._lock:
            self._ingest_case(name, t0, t1, attrs)
            if durations:
                for key, hist in (("queue", self.hist_queue),
                                  ("job", self.hist_job)):
                    value = durations.get(key)
                    if value is not None:
                        hist.observe(value)
            self._since_emit += 1
            if (self.status_path is not None
                    and self._since_emit >= self.emit_every):
                self._emit_locked(self.clock)

    def note_fleet(
        self,
        campaign_id: str,
        tenant: str = "default",
        nodes: int = 0,
        done: int = 0,
        total: int = 0,
        slices: int = 0,
        status: str = "running",
        now: Optional[float] = None,
    ) -> None:
        """Per-campaign fleet progress, fed by the supervisor per slice."""
        with self._lock:
            if now is not None:
                self.clock = max(self.clock, float(now))
            self.fleet[campaign_id] = {
                "tenant": tenant,
                "nodes": int(nodes),
                "done": int(done),
                "total": int(total),
                "slices": int(slices),
                "status": status,
            }

    def finalize(self, metrics: Optional[Dict[str, Any]] = None,
                 now: Optional[float] = None) -> None:
        """Fold an end-of-run metrics snapshot and emit a final status.

        Called once per campaign run (or per fleet slice -- counters
        fold additively, matching ``MetricsRegistry.merge_snapshot``).
        """
        with self._lock:
            if metrics:
                self._fold_metrics(metrics)
            if now is not None:
                self.clock = max(self.clock, float(now))
            if self.status_path is not None:
                self._emit_locked(self.clock)

    def emit_status(self, now: Optional[float] = None) -> None:
        """Append a status record to the live-status artifact now."""
        with self._lock:
            if now is not None:
                self.clock = max(self.clock, float(now))
            if self.status_path is not None:
                self._emit_locked(self.clock)

    # -- ingestion internals (lock held) -------------------------------------
    def _system(self, name: str) -> Dict[str, Any]:
        rec = self.systems.get(name)
        if rec is None:
            rec = {"cases": 0, "passed": 0, "failed": 0, "rows": 0,
                   "buckets": {}}
            self.systems[name] = rec
        return rec

    def _ingest_span(self, rec: Dict[str, Any]) -> None:
        track = rec.get("track")
        name = rec.get("name") or ""
        cat = rec.get("cat")
        t0 = float(rec.get("t0") or 0.0)
        t1 = float(rec.get("t1") or t0)
        attrs = rec.get("attrs") or {}
        self.events["spans"] += 1
        if cat == "case" and track == "campaign":
            # the campaign track's per-case summary spans: authoritative
            # in replay, already counted via observe_case when live
            if self.source == "replay":
                self._ingest_case(name, t0, t1, attrs)
            return
        dur = t1 - t0
        if cat == "sched":
            if name == "queue-wait":
                self.hist_queue.observe(dur)
            elif name == "job-run":
                self.hist_job.observe(dur)
        elif cat == "retry":
            self.events["backoffs"] += 1
        elif cat == "wave":
            self.events["waves"] += 1
        elif cat == "io" and name == "perflog-flush":
            self.events["perflog_flushes"] += 1
        elif cat == "case":
            # per-case track lifecycle events (zero-length markers)
            if name == "quarantined":
                self.cases["quarantined"] += 1
        if dur > 0:
            self._note_slowest(dur, str(track), name)

    def _ingest_case(self, name: str, t0: float, t1: float,
                     attrs: Dict[str, Any]) -> None:
        self.clock = max(self.clock, t1)
        c = self.cases
        c["total"] += 1
        status = attrs.get("status")
        if status == "passed":
            c["passed"] += 1
        elif status == "skipped":
            c["skipped"] += 1
        else:
            c["failed"] += 1
        attempts = int(attrs.get("attempts") or 1)
        if attempts > 1:
            c["retried"] += 1
            c["attempts_extra"] += attempts - 1
        for flag in ("resumed", "replayed", "speculated"):
            if attrs.get(flag):
                c[flag] += 1
        self.hist_case.observe(t1 - t0)
        rec = self._system(system_of(name))
        rec["cases"] += 1
        if status == "passed":
            rec["passed"] += 1
        elif status != "skipped":
            rec["failed"] += 1
        idx = int(t1 // self.bucket)
        rec["buckets"][idx] = rec["buckets"].get(idx, 0) + 1
        self._global_buckets[idx] = self._global_buckets.get(idx, 0) + 1
        self._prune(rec["buckets"])
        self._prune(self._global_buckets)

    def _prune(self, buckets: Dict[int, int]) -> None:
        keep = max(self.history, int(self.window / self.bucket) + 1)
        if len(buckets) <= keep + 8:
            return
        floor = int(self.clock // self.bucket) - keep
        for idx in [i for i in buckets if i < floor]:
            del buckets[idx]

    def _note_slowest(self, dur: float, track: str, name: str) -> None:
        dur = round(dur, 9)
        # hot path: a full leaderboard rejects strictly-slower entries
        # without sorting (ties still enter, for deterministic order)
        if len(self.slowest) >= self.top_n and dur < self.slowest[-1][0]:
            return
        self.slowest.append((dur, track, name))
        # ties break on (track, name): deterministic across policies
        self.slowest.sort(key=lambda s: (-s[0], s[1], s[2]))
        del self.slowest[self.top_n:]

    def _fold_metrics(self, snapshot: Dict[str, Any]) -> None:
        for key, value in (snapshot.get("counters") or {}).items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self.totals[key] = self.totals.get(key, 0) + value

    # -- windowed reads ------------------------------------------------------
    def _rate(self, buckets: Dict[int, int]) -> float:
        """Cases/s over the sliding window ending at the current clock."""
        if not buckets:
            return 0.0
        end = int(self.clock // self.bucket)
        span = int(self.window / self.bucket)
        n = sum(buckets.get(i, 0) for i in range(end - span + 1, end + 1))
        # early campaigns: don't divide by time that hasn't elapsed yet
        elapsed = min(self.window, max(self.clock, self.bucket))
        return n / elapsed

    def _history(self, buckets: Dict[int, int]) -> List[int]:
        end = int(self.clock // self.bucket)
        start = max(0, end - self.history + 1)
        return [buckets.get(i, 0) for i in range(start, end + 1)]

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain, deterministic, JSON-able view of the live state."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        total = self.cases["total"]
        systems: Dict[str, Any] = {}
        for name in sorted(self.systems):
            rec = self.systems[name]
            systems[name] = {
                "cases": rec["cases"],
                "passed": rec["passed"],
                "failed": rec["failed"],
                "rows": rec["rows"],
                "rate": _round(self._rate(rec["buckets"])),
                "history": self._history(rec["buckets"]),
            }
        hits = self.totals.get("resultstore.hits", 0)
        misses = self.totals.get("resultstore.misses", 0)
        degraded = sum(v for k, v in self.totals.items()
                       if k.startswith("io.degraded."))
        rates = {
            "cases_per_second": _round(self._rate(self._global_buckets)),
            "retry_rate": _round(self.cases["retried"] / total
                                 if total else 0.0),
            "fault_rate": _round(self.totals.get("faults.injected", 0)
                                 / total if total else 0.0),
            "store_hit_rate": _round(hits / (hits + misses)
                                     if hits + misses else 0.0),
            "degraded_streams": degraded,
        }
        alerts: List[str] = []
        if self.cases["failed"]:
            alerts.append(f"{self.cases['failed']} case(s) failed")
        if self.cases["quarantined"]:
            alerts.append(
                f"{self.cases['quarantined']} case(s) quarantined")
        for key in sorted(self.totals):
            if key.startswith("io.degraded.") and self.totals[key]:
                alerts.append(
                    f"degraded stream: {key[len('io.degraded.'):]}")
        for cid in sorted(self.fleet):
            st = self.fleet[cid]["status"]
            if st not in ("running", "completed", "queued"):
                alerts.append(f"campaign {cid}: {st}")
        tenants: Dict[str, Dict[str, int]] = {}
        for cid in sorted(self.fleet):
            info = self.fleet[cid]
            slot = tenants.setdefault(
                info["tenant"], {"campaigns": 0, "nodes": 0})
            slot["campaigns"] += 1
            if info["status"] == "running":
                slot["nodes"] += info["nodes"]
        return {
            "clock": _round(self.clock),
            "source": self.source,
            "cases": {k: self.cases[k] for k in _CASE_KEYS},
            "rows": self.rows,
            "files": len(self.files),
            "events": {k: self.events[k] for k in sorted(self.events)},
            "systems": systems,
            "latency": {
                "queue": _hist_summary(self.hist_queue),
                "run": _hist_summary(self.hist_job),
                "case": _hist_summary(self.hist_case),
            },
            "rates": rates,
            "slowest": [list(s) for s in self.slowest],
            "fleet": {cid: dict(self.fleet[cid])
                      for cid in sorted(self.fleet)},
            "tenants": tenants,
            "alerts": alerts,
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
        }

    # -- live-status artifact ------------------------------------------------
    def _emit_locked(self, now: float) -> None:
        if self._appender is None:
            self._appender = JsonlAppender(self.status_path, sync=self._sync)
        records: List[Dict[str, Any]] = []
        if not self._wrote_meta:
            records.append({
                "kind": "meta",
                "format": LIVE_FORMAT,
                "version": LIVE_VERSION,
                "clock": "simulated-seconds",
                "window": self.window,
                "bucket": self.bucket,
            })
            self._wrote_meta = True
        self._since_emit = 0
        self._emitted += 1
        records.append({"kind": "status", "seq": self._emitted,
                        "t": _round(now),
                        "snapshot": self._snapshot_locked()})
        try:
            self._appender.append_many(records)
        except Exception:
            # the live plane must never fail the campaign: degrade to
            # in-memory aggregation only
            self.status_path = None
            self._appender = None


def as_live_sink(
    value: Optional[Union[str, LiveStatsSink]],
) -> Optional[LiveStatsSink]:
    """Coerce a CLI/run-option value into a sink (``None`` passes through)."""
    if value is None or isinstance(value, LiveStatsSink):
        return value
    return LiveStatsSink(status_path=str(value))


def read_live_status(
    path: str,
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(meta, status records)`` from a live-status artifact.

    Torn tails are healed by the sealed-JSONL reader; a follower that
    wants only the latest view takes ``statuses[-1]["snapshot"]``.
    """
    records = read_jsonl(path)
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    statuses = [r for r in records if r.get("kind") == "status"]
    return meta, statuses


def replay_trace(trace_path: str, **kwargs: Any) -> LiveStatsSink:
    """Rebuild the live sink state from a finished trace file.

    Every intact line is fed through the same ``note_flush`` path a
    live tracer uses; because the trace is byte-identical across
    execution policies, so is the resulting sink state.
    """
    sink = LiveStatsSink(source="replay", **kwargs)
    with open(trace_path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    sink.note_flush(trace_path, lines)
    return sink
