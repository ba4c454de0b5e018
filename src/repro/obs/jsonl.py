"""Crash-safe, self-verifying JSONL append/read (journal + trace + metrics).

PR 3 gave the campaign journal its durability contract: every record is
appended with a *single* ``write`` call (readers never observe an
interleaved partial record), flushed and fsynced before the writer moves
on, and a torn trailing line -- the signature a crash leaves -- is
detected and skipped on read instead of poisoning the whole file.

This PR hardens the same primitives against a *misbehaving disk* rather
than just a dying process:

* **Self-verifying records.**  :func:`seal_line` prefixes each record
  with a ``cs`` field -- a CRC32 over the canonical (``sort_keys``)
  payload -- so silent corruption (bit rot, a torn batch that happens to
  re-align on a newline) is *detected* at read time instead of being
  parsed into plausible garbage.  :func:`verify_line` checks the CRC
  over the line's own bytes (falling back to decode + re-encode for
  text in any other layout) and strips the field on the way back out,
  so sealing is invisible to every consumer of :func:`read_jsonl`;
  records written before sealing existed (no ``cs``) remain readable.
* **Generalized tail heal.**  :func:`read_jsonl` now drops the maximal
  *invalid suffix* -- any run of undecodable or checksum-failing lines
  at the end of the file -- not just a single unterminated fragment.
  That is exactly the state a lying fsync leaves after a power cut.
  Damage *before* intact records still raises (it cannot be a crash
  artifact), unless ``quarantine=True`` skips and counts it for
  ``repro-fsck``-style repair flows.
* **Batched torn-write repair.**  The appender writes through raw
  ``os.write`` and, on a short or failed write, truncates back to the
  last complete line *within the same batch* -- earlier records of a
  multi-line ``append_many`` survive; only the torn final line drops.
* **Fault routing.**  :meth:`JsonlAppender.attach_io` points the
  appender at a :class:`repro.iofaults.FaultyIO` shim, labelling its
  operations for the ``--inject-faults`` I/O grammar.

Both the :class:`~repro.runner.resilience.CampaignJournal` and the
:class:`~repro.obs.trace.Tracer` are thin layers over these primitives,
which is what makes ``--resume`` and ``repro-fsck`` treat the artifacts
identically.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "JsonlAppender",
    "read_jsonl",
    "scan_jsonl",
    "seal_line",
    "verify_line",
    "write_jsonl_atomic",
]


def _crc(payload: str) -> str:
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def seal_line(record: Dict[str, Any]) -> str:
    """Serialize *record* with a ``cs`` checksum field (no newline).

    The checksum is a CRC32 over the canonical ``sort_keys`` encoding of
    the record *without* the ``cs`` field, spliced in front so the line
    stays a single flat JSON object.  The input dict is not mutated.
    """
    payload = json.dumps(record, sort_keys=True)
    cs = _crc(payload)
    if payload == "{}":
        return '{"cs":"%s"}' % cs
    return '{"cs":"%s",%s' % (cs, payload[1:])


def _seal_member(line: str) -> Optional[str]:
    """The first member's name when *line* is in :func:`seal_line`'s
    byte layout and its CRC matches the bytes that follow it.

    A sealed line is ``{"cs":"XXXXXXXX",`` plus the canonical payload
    minus its ``{``, so the check needs no decode and no re-encode.
    ``None`` means "not provably intact as stored": text in another
    layout (an older writer, a hand re-serialization) or damaged bytes,
    both of which :func:`verify_line` settles by re-encoding.
    """
    if line[:2] != '{"' or line[4:7] != '":"':
        return None
    if line[15:17] == '",':
        payload = "{" + line[17:]
    elif line[15:] == '"}':
        payload = "{}"
    else:
        return None
    if _crc(payload) != line[7:15]:
        return None
    return line[2:4]


def verify_line(line: str) -> Optional[Dict[str, Any]]:
    """Decode + verify one JSONL line; ``None`` when damaged.

    A line in :func:`seal_line`'s exact layout is verified by a CRC over
    its own bytes.  Any other record carrying ``cs`` must round-trip to
    the checksummed canonical payload; a record without one (written
    before sealing existed) is accepted as-is.  The returned dict never
    contains the ``cs`` field.
    """
    member = _seal_member(line)
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    if member is not None:
        # the stored bytes are intact, so only the seal's own member
        # name can be damaged -- which would pass the record off as an
        # unsealed one carrying an extra field
        if member != "cs":
            return None
        del record["cs"]
        return record
    if "cs" not in record:
        return record
    cs = record.pop("cs")
    if _crc(json.dumps(record, sort_keys=True)) != cs:
        return None
    return record


class JsonlAppender:
    """Append-only JSONL writer with the crash-safety contract.

    Each :meth:`append` seals one record (``sort_keys=True`` payload +
    ``cs`` checksum: the byte layout is deterministic and self-verifying),
    writes it in a single ``os.write``, and -- unless ``sync=False`` --
    fsyncs.  A lock serializes appends from worker threads.
    """

    def __init__(self, path: str, sync: bool = True, seal: bool = True):
        self.path = path
        self.sync = sync
        self.seal = seal
        self._lock = threading.Lock()
        self._checked_tail = False
        self._io = None
        self._io_label = "jsonl"

    def attach_io(self, io: Any, label: str) -> None:
        """Route writes through a :class:`~repro.iofaults.FaultyIO` shim."""
        self._io = io
        self._io_label = label

    def _encode(self, record: Dict[str, Any]) -> str:
        if self.seal:
            return seal_line(record)
        return json.dumps(record, sort_keys=True)

    def _prepare(self) -> None:
        """Pre-append housekeeping (call with the lock held).

        Creates parent directories, and -- once per appender, or again
        after a torn write -- repairs an unterminated tail: appending
        *after* an unterminated line would glue two records into one
        undecodable middle line, which readers rightly treat as
        corruption.  Truncating back to the last complete record keeps
        resumed journals and traces parseable; the dropped fragment was
        never readable anyway.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if self._checked_tail:
            return
        self._checked_tail = True
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb+") as fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return
            keep = data.rfind(b"\n") + 1  # 0 when no newline at all
            fh.truncate(keep)

    def _write_payload(self, payload: bytes) -> None:
        """One-shot append of *payload* (call with the lock held).

        Routed through the attached :class:`FaultyIO` when armed.  On
        the plain-os path, a short or failed ``os.write`` mid-batch is
        repaired *immediately*: the file is truncated back to the last
        newline among the bytes that actually landed, so complete
        earlier lines of the batch survive and only the torn final line
        drops -- then the error propagates so the caller knows the tail
        of the batch is not durable.
        """
        if self._io is not None:
            self._io.append(self.path, payload, self._io_label,
                            sync=self.sync)
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            pre_size = os.fstat(fd).st_size
            error: Optional[BaseException] = None
            try:
                written = os.write(fd, payload)
            except OSError as exc:
                error = exc
                written = max(0, os.fstat(fd).st_size - pre_size)
            if error is None and written >= len(payload):
                if self.sync:
                    os.fsync(fd)
                return
            # torn batch: keep the complete lines that landed, drop the rest
            keep = payload[:written].rfind(b"\n") + 1
            os.ftruncate(fd, pre_size + keep)
            if self.sync:
                os.fsync(fd)
            self._checked_tail = True  # tail is clean again
            if error is not None:
                raise error
            raise OSError(
                errno.EIO,
                f"short write: {written}/{len(payload)} bytes",
                self.path,
            )
        finally:
            os.close(fd)

    def append(self, record: Dict[str, Any]) -> None:
        line = self._encode(record) + "\n"
        with self._lock:
            self._prepare()
            self._write_payload(line.encode("utf-8"))

    def append_many(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append a batch in one open/write/fsync cycle; returns count.

        The batch goes down as one ``write`` of newline-terminated
        lines, so a crash tears at most the *final* record of the batch
        -- exactly the invariant :func:`read_jsonl` recovers from.
        """
        lines = [self._encode(r) + "\n" for r in records]
        if not lines:
            return 0
        with self._lock:
            self._prepare()
            self._write_payload("".join(lines).encode("utf-8"))
        return len(lines)

    def append_lines(self, lines: List[str]) -> int:
        """Append pre-encoded JSON lines (without trailing newlines).

        The replay fast path: lines captured verbatim from a previous
        ``append_many`` (same sealed encoding) go back down without a
        decode/encode round-trip.  Same single-write batch contract as
        :meth:`append_many`.
        """
        if not lines:
            return 0
        with self._lock:
            self._prepare()
            self._write_payload(("\n".join(lines) + "\n").encode("utf-8"))
        return len(lines)


def scan_jsonl(path: str) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Verify every line of *path*; returns ``(records, stats)``.

    ``records`` holds each intact record (``cs`` stripped) in order,
    with damaged lines elided.  ``stats`` counts the triage:
    ``{"ok": intact, "bad_tail": invalid-suffix lines, "bad_mid":
    invalid lines before the last intact record}``.  This is the shared
    scanner under both :func:`read_jsonl` and ``repro-fsck``.
    """
    stats = {"ok": 0, "bad_tail": 0, "bad_mid": 0}
    if not os.path.exists(path):
        return [], stats
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    entries: List[Optional[Dict[str, Any]]] = []
    for line in raw.split("\n"):
        if not line.strip():
            continue
        entries.append(verify_line(line))
    last_ok = -1
    for i, record in enumerate(entries):
        if record is not None:
            last_ok = i
    records: List[Dict[str, Any]] = []
    for i, record in enumerate(entries):
        if record is None:
            stats["bad_mid" if i < last_ok else "bad_tail"] += 1
        else:
            stats["ok"] += 1
            records.append(record)
    return records, stats


def read_jsonl(path: str, quarantine: bool = False) -> List[Dict[str, Any]]:
    """Every intact record in *path*, oldest first (invalid tail healed).

    The maximal run of damaged lines at the *end* of the file -- torn
    fragments, checksum-failing leftovers of a lying fsync -- is
    silently dropped: it can only be what a crash left behind.  Damage
    *before* intact records raises ``json.JSONDecodeError`` (single-
    write appends cannot produce it, so it is worth surfacing) unless
    ``quarantine=True``, which skips it and keeps the survivors.
    """
    records, stats = scan_jsonl(path)
    if stats["bad_mid"] and not quarantine:
        raise json.JSONDecodeError(
            f"{stats['bad_mid']} damaged record(s) before intact data "
            f"in {path}",
            "",
            0,
        )
    return records


def write_jsonl_atomic(
    path: str,
    records: Iterable[Dict[str, Any]],
    sync: bool = True,
    io: Any = None,
    label: str = "jsonl",
) -> None:
    """Replace *path* wholesale with *records* (temp + fsync + rename).

    A crash mid-rewrite leaves either the old file or the new one, never
    a torn mix.  Records are sealed, same as appended ones.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    body = "".join(seal_line(record) + "\n" for record in records)
    if io is not None:
        io.write_atomic(path, body.encode("utf-8"), label, sync=sync)
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
