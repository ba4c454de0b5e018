"""Perflog output: the performance record the whole analysis chain reads.

"Benchmark output data is appended to a performance log (also known as a
'perflog') associated with the benchmark on each system, and these logs
can be collated directly and post-processed" (Section 2.4).

Format: pipe-separated, one line per Figure of Merit per run, append-only,
one file per (system, partition, test) under::

    <prefix>/<system>/<partition>/<testname>.log

The format is plain enough to grep yet structured enough for
:mod:`repro.postprocess.perflog_reader` to load losslessly.

Writing is **batched**: :meth:`PerflogHandler.emit` buffers formatted
records per target file and :meth:`PerflogHandler.flush` coalesces each
file's pending lines into a single append -- one ``open``/``write`` pair
per file per flush instead of one per record, which matters when an async
campaign emits hundreds of FOM lines.  ``batch_size=1`` (the default for
direct construction) preserves the historical write-through behaviour;
the executor uses a larger batch and flushes at end of run.  Buffered
lines are flushed in emission order, so the on-disk byte sequence is
identical to write-through mode.

Observers subscribe with :meth:`PerflogHandler.add_sink`: each hears
every durable append, in flush order, as ``note_append(path, lines,
wrote_header)`` -- how the live plane sees rows the moment they land.
"""

from __future__ import annotations

import datetime as _dt
import os
import zlib
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.runner.pipeline import CaseResult

__all__ = [
    "PerflogHandler",
    "PERFLOG_FIELDS",
    "format_record",
    "sums_path",
    "verify_sums",
]

#: column names, in file order
PERFLOG_FIELDS = (
    "timestamp",
    "version",
    "test",
    "system",
    "partition",
    "environ",
    "spec",
    "num_tasks",
    "perf_var",
    "perf_value",
    "perf_unit",
    "result",
)

_VERSION = "repro-1.0.0"


def format_record(result: CaseResult, timestamp: Optional[str] = None) -> List[str]:
    """Perflog lines for one finished case (one per FOM; one if failed)."""
    case = result.case
    ts = timestamp or _dt.datetime.now(_dt.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S"
    )
    spec = (
        result.concrete_spec.format(deps=False)
        if result.concrete_spec is not None
        else ""
    )
    base = [
        ts,
        _VERSION,
        case.test.name,
        case.system.name,
        case.partition.name,
        case.environ_name,
        spec,
        str(case.test.num_tasks),
    ]
    status = "pass" if result.passed else f"fail:{result.failing_stage}"
    lines = []
    if result.perfvars:
        for var, (value, unit) in sorted(result.perfvars.items()):
            lines.append("|".join(base + [var, f"{value:.6g}", unit, status]))
    else:
        lines.append("|".join(base + ["-", "nan", "-", status]))
    return lines


def sums_path(path: str) -> str:
    """The checksum sidecar for perflog *path* (invisible to analytics:
    ``read_perflogs`` discovers ``*.log`` only)."""
    return path + ".sums"


def _sums_entries(start: int, data: bytes) -> Tuple[List[str], int]:
    """Per-line checksum entries for a chunk appended at byte *start*.

    Each entry is ``"<start> <length> <crc32>"`` over one newline-
    terminated line of the chunk.  Entries are self-contained ranges, so
    two runs that batch the same lines differently (a degraded run
    retries merge batches) still produce identical sidecars.
    """
    entries: List[str] = []
    offset = start
    for line in data.split(b"\n")[:-1]:
        chunk = line + b"\n"
        crc = zlib.crc32(chunk) & 0xFFFFFFFF
        entries.append(f"{offset} {len(chunk)} {crc:08x}")
        offset += len(chunk)
    return entries, offset


def verify_sums(path: str) -> Dict[str, object]:
    """Check *path* against its ``.sums`` sidecar.

    Returns ``{"covered": n, "valid": n, "invalid": [entry_index...],
    "uncovered_bytes": n}``.  A file shorter than an entry's range
    counts that entry invalid (torn tail); bytes past the last entry are
    *uncovered* (rows appended without a sidecar -- legal, unverifiable).
    A missing sidecar covers nothing.
    """
    report: Dict[str, object] = {
        "covered": 0, "valid": 0, "invalid": [], "uncovered_bytes": 0,
    }
    side = sums_path(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        data = b""
    if not os.path.exists(side):
        report["uncovered_bytes"] = len(data)
        return report
    end = 0
    invalid: List[int] = []
    with open(side, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh):
            parts = raw.split()
            if len(parts) != 3:
                invalid.append(i)
                continue
            try:
                start, length = int(parts[0]), int(parts[1])
                want = int(parts[2], 16)
            except ValueError:
                invalid.append(i)
                continue
            report["covered"] = int(report["covered"]) + 1
            chunk = data[start : start + length]
            if (len(chunk) == length
                    and (zlib.crc32(chunk) & 0xFFFFFFFF) == want):
                report["valid"] = int(report["valid"]) + 1
            else:
                invalid.append(i)
            end = max(end, start + length)
    report["invalid"] = invalid
    report["uncovered_bytes"] = max(0, len(data) - end)
    return report


class PerflogHandler:
    """Appends case results to per-(system, partition, test) log files.

    Parameters
    ----------
    prefix:
        Root directory of the perflog tree.
    batch_size:
        Number of buffered lines that triggers an automatic flush.  ``1``
        writes through immediately (the historical behaviour); larger
        values coalesce appends.  Call :meth:`flush` (or use the handler
        as a context manager) to drain the buffer explicitly.
    timestamp:
        Optional fixed timestamp string, or a zero-argument callable
        returning one, stamped on every record.  Pinning the timestamp
        makes perflogs *byte-reproducible* across runs and execution
        policies -- what the serial-vs-async equivalence tests rely on.
        Default: wall-clock UTC at emit time.
    faults:
        Optional fault plan (:class:`repro.faults.FaultPlan`); ``perflog``
        faults fire here, *before* a file's append, to exercise the
        durability path.  Duck-typed: anything with ``fire(kind, target)``.
    """

    def __init__(
        self,
        prefix: str,
        batch_size: int = 1,
        timestamp: Optional[Union[str, Callable[[], str]]] = None,
        faults: Optional[object] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.prefix = prefix
        self.batch_size = batch_size
        self.timestamp = timestamp
        self.faults = faults
        self.written: List[str] = []
        #: set twin of ``written`` -- membership checks on the flush hot
        #: path are O(1) instead of scanning the list per flushed file
        self._written_set: set = set()
        #: directories already created (skip repeated makedirs syscalls)
        self._made_dirs: set = set()
        #: path -> pending lines (insertion-ordered: flush order is
        #: deterministic and equals emission order per file)
        self._buffer: Dict[str, List[str]] = {}
        self._pending = 0
        #: (path, lines) of the most recent emit/emit_replay -- how the
        #: result store captures the exact bytes a case contributed
        #: without re-formatting (re-formatting would consume a callable
        #: timestamp twice and could stamp a different value)
        self.last_emit: Optional[tuple] = None
        #: optional FaultyIO shim the raw append is routed through
        self._io: Optional[object] = None
        #: append subscribers -- duck-typed objects with
        #: ``note_append(path, lines, wrote_header=...)``; best-effort:
        #: a sink that raises is dropped (the rows are already durable)
        self._sinks: List[object] = []
        #: sidecars are best-effort: once one fails, stop writing it
        self._sums_disabled: set = set()
        #: ``.sums`` sidecars are opt-in (armed with the fault shim or
        #: :meth:`enable_sums`): a quiet campaign's perflog tree stays
        #: byte-for-byte what it always was
        self.sums_enabled = False

    def attach_io(self, io: object) -> None:
        """Route perflog appends through a :class:`FaultyIO` shim."""
        self._io = io
        self.sums_enabled = True

    def enable_sums(self) -> None:
        """Write ``.sums`` checksum sidecars alongside each perflog."""
        self.sums_enabled = True

    def add_sink(self, sink: object) -> None:
        """Subscribe *sink* to appends: ``note_append(path, lines, wrote_header)``.

        Sinks hear every durable append once, in flush order, so live
        observers see rows the moment they hit disk.  ``wrote_header``
        is true only for the append that created the file.  Idempotent
        per sink object.
        """
        if sink not in self._sinks:
            self._sinks.append(sink)

    def path_for(self, result: CaseResult) -> str:
        case = result.case
        return os.path.join(
            self.prefix,
            case.system.name,
            case.partition.name,
            f"{case.test.name}.log",
        )

    def _stamp(self) -> Optional[str]:
        if callable(self.timestamp):
            return self.timestamp()
        return self.timestamp

    def emit(self, result: CaseResult) -> str:
        """Buffer one case's record(s); auto-flush at ``batch_size``."""
        path = self.path_for(result)
        lines = format_record(result, timestamp=self._stamp())
        self.last_emit = (path, list(lines))
        self._buffer.setdefault(path, []).extend(lines)
        self._pending += len(lines)
        if self._pending >= self.batch_size:
            self.flush()
        return path

    def relpath_for(self, path: str) -> str:
        """A portable (``/``-separated) store key for a perflog path."""
        rel = os.path.relpath(path, self.prefix)
        return rel.replace(os.sep, "/")

    def emit_replay(self, relpath: str, lines: List[str]) -> str:
        """Buffer pre-formatted rows a result store replayed for one case.

        The rows were captured verbatim from the cold run's
        :meth:`emit`, so a warm campaign's perflog byte stream is
        identical to the cold one -- same lines, same per-file order --
        and flows through the same flush path (fault sites, append
        sinks, batch coalescing included).
        """
        path = os.path.join(self.prefix, *relpath.split("/"))
        self.last_emit = (path, list(lines))
        self._buffer.setdefault(path, []).extend(lines)
        self._pending += len(lines)
        if self._pending >= self.batch_size:
            self.flush()
        return path

    def flush(self) -> None:
        """Coalesce every file's pending lines into one append each.

        Files are drained *one at a time*, each removed from the buffer
        only after its append succeeded.  A write error (injected or
        real) therefore leaves exactly the unwritten files buffered --
        already-flushed files are never re-appended (no duplicate rows),
        and a later :meth:`flush` retries just the remainder.  Each
        file's batch goes down in a single newline-terminated ``write``
        call, so readers (and the campaign journal, which always lives
        in a different file) never observe a partial line.
        """
        while self._buffer:
            path = next(iter(self._buffer))
            lines = self._buffer[path]
            # fault site sits *before* the append: an injected perflog
            # error is indistinguishable from a failed write -- the
            # file's lines stay buffered for the retry
            if self.faults is not None:
                self.faults.fire("perflog", path)
            parent = os.path.dirname(path)
            if parent not in self._made_dirs:
                os.makedirs(parent, exist_ok=True)
                self._made_dirs.add(parent)
            seen = path in self._written_set
            data = "\n".join(lines) + "\n"
            if self._io is not None:
                # fault-injectable path: the shim appends atomically-or-
                # fails, so a failed file keeps its lines buffered and a
                # retry lays down byte-identical content
                pre_size = (0 if not os.path.exists(path)
                            else os.path.getsize(path))
                new_file = False if seen else pre_size == 0
                if new_file:
                    data = "|".join(PERFLOG_FIELDS) + "\n" + data
                payload = data.encode("utf-8")
                self._io.append(path, payload, "perflog", sync=False)
            else:
                # raw os.open/os.write: file creation dominates large
                # campaigns' flush cost, and the io.open text layer
                # roughly doubles it.  fstat on the open fd doubles as
                # the new-file check (header needed iff the file is
                # empty), and header + batch still go down in ONE write
                # -- readers never observe a partial line
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                             0o644)
                try:
                    pre_size = os.fstat(fd).st_size
                    new_file = False if seen else pre_size == 0
                    if new_file:
                        data = "|".join(PERFLOG_FIELDS) + "\n" + data
                    payload = data.encode("utf-8")
                    os.write(fd, payload)
                finally:
                    os.close(fd)
            self._write_sums(path, pre_size, payload)
            for sink in list(self._sinks):
                try:
                    sink.note_append(path, lines, wrote_header=new_file)
                except Exception:
                    # observers never fail (or re-run) a flush: the rows
                    # are durable, so a broken sink is simply dropped.
                    self._sinks.remove(sink)
            if not seen:
                self.written.append(path)
                self._written_set.add(path)
            del self._buffer[path]
            self._pending -= len(lines)
        self._pending = 0

    def _write_sums(self, path: str, pre_size: int, payload: bytes) -> None:
        """Mirror a successful append into the ``.sums`` sidecar.

        Plain os calls on purpose -- never routed through the fault
        shim, never allowed to fail a flush: the sidecar is a read-time
        verification aid, and a run that cannot write it degrades to
        exactly the pre-sidecar verification story.
        """
        if not self.sums_enabled or path in self._sums_disabled:
            return
        entries, _ = _sums_entries(pre_size, payload)
        if not entries:
            return
        try:
            fd = os.open(sums_path(path),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, ("\n".join(entries) + "\n").encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            self._sums_disabled.add(path)

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "PerflogHandler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
