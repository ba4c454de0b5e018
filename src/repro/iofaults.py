"""Deterministic storage-fault injection: the I/O plane of the chaos layer.

``repro.faults`` makes the *scheduler* lie on command; this module makes
the *disk* lie.  Every durable artifact the runner produces -- campaign
journal, trace, perflogs, the case-result store's pack -- funnels its
raw ``os.open/write/fsync/replace`` calls through one :class:`FaultyIO`
shim, which consults a
:class:`repro.faults.FaultPlan` *per operation* (``FaultPlan.check_io``)
and acts out five storage pathologies:

``enospc``
    The volume is full: the operation fails cleanly before any byte
    lands (``errno.ENOSPC``).
``eio``
    The device errored: ditto, with ``errno.EIO``.
``torn``
    A partial write: a prefix of the payload physically lands, then the
    operation errors.  The shim rolls the file back to its pre-operation
    size before raising, so the *caller* observes atomic-or-fail -- the
    torn state only survives a simulated crash (:meth:`FaultyIO.
    lose_unsynced`) or an explicit damage helper, which is exactly how a
    real page cache behaves between a torn write and the crash that
    exposes it.
``bitrot``
    Silent corruption: an appended payload is rolled back and the
    operation errors (append sites can retry), but an *atomic-commit*
    site (:meth:`FaultyIO.write_atomic`) commits the flipped byte and
    reports success -- the canonical silent-corruption scenario that
    only a read-time checksum can catch.
``fsync-lie``
    The write "succeeds" and fsync returns, but the data never became
    durable.  The shim records the unsynced watermark per path;
    :meth:`FaultyIO.lose_unsynced` then simulates the power cut: each
    affected file is truncated back to its watermark plus a torn
    fragment of the first unsynced payload.

Every fault raises :class:`InjectedIOFault`, an ``OSError`` subclass, so
code written against real I/O errors handles injected ones identically.
All draws are pure functions of ``(seed, kind, label, op_ordinal)`` --
rerunning a campaign with the same ``--fault-seed`` tears exactly the
same bytes.

Damage helpers (:func:`tear_tail`, :func:`flip_byte`) mutate artifacts
*post hoc* for heal/``repro-fsck`` testing, independent of any plan.
"""

from __future__ import annotations

import errno
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.faults import Fault, FaultPlan

__all__ = [
    "FaultyIO",
    "InjectedIOFault",
    "flip_byte",
    "tear_tail",
]

_ERRNO = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "torn": errno.EIO,
    "bitrot": errno.EIO,
    "fsync-lie": 0,
}


class InjectedIOFault(OSError):
    """An injected storage failure (an ``OSError``, so real handlers apply).

    ``transient`` is always true in the retry taxonomy: storage faults
    are drawn per operation, so the next attempt faces fresh odds.
    """

    def __init__(self, fault: Fault, path: str):
        code = _ERRNO.get(fault.kind, errno.EIO)
        super().__init__(
            code,
            f"injected-io:{fault.kind}@{fault.target}#{fault.attempt}",
            path,
        )
        self.fault = fault
        self.artifact = fault.target

    @property
    def transient(self) -> bool:
        return True


def _flip(data: bytes, ordinal: int) -> Tuple[bytes, int]:
    """Flip one deterministic bit of *data*; returns (mutated, offset)."""
    if not data:
        return data, 0
    offset = ordinal % len(data)
    mutated = bytearray(data)
    mutated[offset] ^= 0x40  # stays printable-ish, never flips a newline
    return bytes(mutated), offset


class FaultyIO:
    """The storage shim: raw os-level I/O with deterministic sabotage.

    One instance serves a whole campaign; callers tag each operation
    with the *artifact label* (``journal``, ``trace``, ``perflog``,
    ``store``; :data:`repro.faults.IO_LABELS`) that the fault-spec
    globs select on.  With no matching clause armed, every method is a
    thin wrapper over the plain os calls.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan
        self._lock = threading.Lock()
        #: path -> (watermark_size, first_unsynced_payload)
        self._unsynced: Dict[str, Tuple[int, bytes]] = {}
        #: every fault acted out, for diagnostics: (kind, label, path)
        self.damage_log: List[Tuple[str, str, str]] = []

    # -- consultation --------------------------------------------------------
    def _consult(self, label: str) -> Optional[Fault]:
        if self.plan is None:
            return None
        return self.plan.check_io(label)

    def _record(self, fault: Fault, path: str) -> None:
        with self._lock:
            self.damage_log.append((fault.kind, fault.target, path))

    # -- operations ----------------------------------------------------------
    def append(self, path: str, data: bytes, label: str,
               sync: bool = True) -> None:
        """Append *data* to *path* atomically-or-fail.

        A clean run is open/write/fsync/close.  Injected ``torn`` and
        ``bitrot`` faults physically write damaged bytes, then roll the
        file back to its pre-operation size before raising -- the caller
        sees a failed op against an unchanged file, and the damage only
        becomes durable through :meth:`lose_unsynced` (simulated crash).
        """
        fault = self._consult(label)
        if fault is not None and fault.kind in ("enospc", "eio"):
            self._record(fault, path)
            raise InjectedIOFault(fault, path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            pre_size = os.fstat(fd).st_size
            if fault is None:
                os.write(fd, data)
                if sync:
                    os.fsync(fd)
                return
            self._record(fault, path)
            if fault.kind == "torn":
                torn_at = max(1, fault.attempt % max(1, len(data)))
                os.write(fd, data[:torn_at])
                os.ftruncate(fd, pre_size)
                raise InjectedIOFault(fault, path)
            if fault.kind == "bitrot":
                os.write(fd, _flip(data, fault.attempt)[0])
                os.ftruncate(fd, pre_size)
                raise InjectedIOFault(fault, path)
            # fsync-lie: the write lands and "succeeds", but nothing is
            # durable past pre_size until a real sync happens later.
            os.write(fd, data)
            with self._lock:
                if path not in self._unsynced:
                    self._unsynced[path] = (pre_size, data)
        finally:
            os.close(fd)

    def write_atomic(self, path: str, data: bytes, label: str,
                     sync: bool = True) -> None:
        """tmp-write + rename commit, with per-site sabotage.

        ``enospc``/``eio`` fail before commit (tmp removed); ``torn``
        simulates a crash between tmp-write and rename (no commit);
        ``bitrot`` *commits* a flipped byte and returns success -- the
        silent-corruption case read-time checksums exist for;
        ``fsync-lie`` commits without durability and is exposed by
        :meth:`lose_unsynced`.
        """
        fault = self._consult(label)
        if fault is not None and fault.kind in ("enospc", "eio", "torn"):
            self._record(fault, path)
            raise InjectedIOFault(fault, path)
        tmp = path + ".tmp"
        payload = data
        if fault is not None and fault.kind == "bitrot":
            self._record(fault, path)
            payload = _flip(data, fault.attempt)[0]
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, payload)
            if sync and not (fault is not None and fault.kind == "fsync-lie"):
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        if fault is not None and fault.kind == "fsync-lie":
            self._record(fault, path)
            with self._lock:
                if path not in self._unsynced:
                    self._unsynced[path] = (0, payload)

    def replace(self, src: str, dst: str, label: str) -> None:
        """``os.replace`` guarded by the fault plan."""
        fault = self._consult(label)
        if fault is not None and fault.kind in ("enospc", "eio", "torn"):
            self._record(fault, src)
            raise InjectedIOFault(fault, dst)
        os.replace(src, dst)

    # -- crash simulation ----------------------------------------------------
    def lose_unsynced(self) -> List[str]:
        """Simulate the power cut that exposes every ``fsync-lie``.

        Each affected file is truncated back to its unsynced watermark,
        then a torn fragment of the first unsynced payload is
        re-appended -- the classic post-crash state: a valid prefix plus
        a garbage tail that read-time checksums (or ``repro-fsck``) must
        detect and drop.  Returns the damaged paths.
        """
        with self._lock:
            pending = dict(self._unsynced)
            self._unsynced.clear()
        damaged = []
        for path, (watermark, payload) in sorted(pending.items()):
            if not os.path.exists(path):
                continue
            frag = payload[: max(1, len(payload) // 2)] if payload else b""
            with open(path, "r+b") as handle:
                handle.truncate(watermark)
                handle.seek(watermark)
                handle.write(frag)
            damaged.append(path)
        return damaged

    @property
    def unsynced_paths(self) -> List[str]:
        with self._lock:
            return sorted(self._unsynced)


# -- post-hoc damage helpers (tests + fsck fixtures) -------------------------

def tear_tail(path: str, drop: int = 7) -> int:
    """Truncate the last *drop* bytes off *path* (a torn final record).

    Returns the new size.  ``drop`` is clamped so the file never
    empties completely unless it was already shorter than *drop*.
    """
    size = os.path.getsize(path)
    new_size = max(0, size - drop)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path: str, offset: Optional[int] = None) -> int:
    """Corrupt one byte of *path* in place; returns the offset flipped.

    The default picks a deterministic mid-file position and never lands
    on a newline, so record framing survives while content rots --
    precisely the damage only checksums can see.
    """
    with open(path, "r+b") as handle:
        data = handle.read()
        if not data:
            return 0
        pos = (len(data) // 2) if offset is None else offset % len(data)
        for probe in range(len(data)):
            candidate = (pos + probe) % len(data)
            if data[candidate : candidate + 1] != b"\n":
                pos = candidate
                break
        handle.seek(pos)
        handle.write(bytes([data[pos] ^ 0x40]))
    return pos
