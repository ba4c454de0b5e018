"""Incremental perflog ingest cache: parse each appended byte once.

Perflogs are **append-only** (Section 2.4): a continuous-benchmarking
campaign grows the same per-``(system, partition, test)`` files run after
run, and the exaCB-style observation is that re-parsing the whole history
on every analytics pass is the scaling bottleneck.  This module keeps a
**content/offset manifest** per perflog --

``(path, size, mtime_ns, line count, head digest, seam digest, offset)``

-- plus the parsed, typed columns.  Re-reading a grown log validates the
cheap invariants (size monotonicity, a sha256 probe over the file head
and over the bytes just before the previously parsed offset) and then
parses **only the appended byte range**, concatenating the new rows onto
the cached columns.  The contract mirrors PR 1's concretization memo:
one full parse per unique ``(file, offset)``, with hit/miss accounting
surfaced through :class:`StoreStats` exactly the way
``ConcretizationCache.stats`` surfaces solver reuse (and recordable in
provenance via :meth:`repro.core.provenance.RunProvenance.attach_ingest_cache`).

Invalidation rules (checked in order, all cheap):

* no manifest entry -> **miss** (full parse);
* file shrank below the parsed offset -> **invalidation** (truncated or
  replaced; full reparse);
* head probe (first ``min(size, 4096)`` bytes) digest mismatch ->
  **invalidation** (file was rewritten in place);
* seam probe (last ``min(offset, 64)`` bytes of the parsed region)
  digest mismatch -> **invalidation** (history edited at the seam);
* same size + same mtime -> **full hit** (no I/O at all);
* otherwise -> **partial hit**: parse ``[offset, size)`` only.

A trailing partial line (a writer mid-append without its final newline)
is held back: the offset only ever advances to the last complete line,
so the next read re-parses the completed line and never splits a record.

With ``cache_dir`` set the manifest (JSON) and columns (``.npz``) are
persisted, so a *separate process* -- e.g. the next ``repro-plot
--cache-dir ...`` invocation in a CI loop -- starts warm.  The store is
thread-safe and shared by the parallel reader
(``read_perflogs(..., store=..., workers=N)``).

Incremental campaigns (``repro-bench --result-store``, DESIGN.md
section 8) compose with this cache for free: a replayed case's perflog
rows are re-emitted through the normal
:meth:`~repro.runner.perflog.PerflogHandler.flush` path as ordinary
appends -- verbatim bytes from the cold run -- so the seam/head probes
see exactly the append-only growth this manifest is built for.  A warm
campaign therefore extends manifests instead of invalidating them,
whether a row was executed or replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.obs.metrics import HitStats
from repro.postprocess.perflog_reader import parse_block
from repro.runner.perflog import PERFLOG_FIELDS

__all__ = ["PerflogStore", "StoreStats", "ManifestEntry"]

_MANIFEST_VERSION = 1
HEAD_PROBE_BYTES = 4096
SEAM_PROBE_BYTES = 64


def _n_rows(cols: Dict[str, np.ndarray]) -> int:
    return len(next(iter(cols.values()))) if cols else 0


class StoreStats(HitStats):
    """Hit/miss accounting for the perflog ingest cache."""

    FIELDS = ("full_hits", "partial_hits", "hits", "misses",
              "invalidations", "bytes_parsed", "bytes_reused",
              "rows_parsed", "rows_reused")
    RATES = ("hit_rate", "byte_reuse_rate")
    PREFIX = "ingest"

    @property
    def hits(self) -> int:
        return self.full_hits + self.partial_hits

    @property
    def byte_reuse_rate(self) -> float:
        total = self.bytes_parsed + self.bytes_reused
        return self.bytes_reused / total if total else 0.0


@dataclass
class ManifestEntry:
    """Everything needed to trust + extend a cached parse of one perflog."""

    path: str
    size: int              # file size at last parse (bytes)
    mtime_ns: int
    offset: int            # bytes parsed through (<= size; line-aligned)
    n_lines: int           # physical lines in the parsed region
    n_rows: int            # data rows parsed (headers/blanks excluded)
    head_len: int          # length of the head probe region
    head_sha: str          # sha256 of bytes [0, head_len)
    seam_len: int          # length of the seam probe region
    seam_sha: str          # sha256 of bytes [offset - seam_len, offset)
    columns: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def meta_dict(self) -> dict:
        return {
            "version": _MANIFEST_VERSION,
            "path": self.path,
            "size": self.size,
            "mtime_ns": self.mtime_ns,
            "offset": self.offset,
            "n_lines": self.n_lines,
            "n_rows": self.n_rows,
            "head_len": self.head_len,
            "head_sha": self.head_sha,
            "seam_len": self.seam_len,
            "seam_sha": self.seam_sha,
        }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _concat_columns(
    old: Dict[str, np.ndarray], new: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name in PERFLOG_FIELDS:
        a, b = old[name], new[name]
        if len(a) == 0:
            out[name] = b
        elif len(b) == 0:
            out[name] = a
        else:
            out[name] = np.concatenate([a, b])
    return out


class PerflogStore:
    """Manifest-backed incremental perflog parser (see module docstring).

    Parameters
    ----------
    cache_dir:
        Optional directory for cross-process persistence.  Each perflog
        gets ``<sha256(abspath)>.json`` (manifest) + ``.npz`` (columns).
    head_probe / seam_probe:
        Sizes of the rewrite-detection digests (bytes).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        head_probe: int = HEAD_PROBE_BYTES,
        seam_probe: int = SEAM_PROBE_BYTES,
    ):
        self.cache_dir = cache_dir
        self.head_probe = head_probe
        self.seam_probe = seam_probe
        self.stats = StoreStats()
        self._table: Dict[str, ManifestEntry] = {}
        self._lock = threading.RLock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return self._key(path) in self._table

    @staticmethod
    def _key(path: str) -> str:
        return os.path.abspath(path)

    # -- public API ------------------------------------------------------------------
    def read(self, path: str) -> Dict[str, np.ndarray]:
        """Columns for ``path``, parsing only bytes not yet in the manifest.

        Returns copies of the cached arrays so callers can never mutate
        the store through a returned DataFrame.
        """
        key = self._key(path)
        st = os.stat(path)
        with self._lock:
            entry = self._table.get(key)
            if entry is None and self.cache_dir:
                entry = self._load_persisted(key)
            if entry is not None:
                result = self._read_with_entry(key, entry, st, path)
                if result is not None:
                    return result
                self.stats.invalidations += 1
                self._table.pop(key, None)
            # cold (or invalidated): one full parse for this (file, offset)
            self.stats.misses += 1
            entry = self._full_parse(key, st, path)
            return {k: v.copy() for k, v in entry.columns.items()}

    def invalidate(self, path: str) -> None:
        with self._lock:
            self._table.pop(self._key(path), None)

    # -- internals -------------------------------------------------------------------
    def _read_with_entry(
        self, key: str, entry: ManifestEntry, st: os.stat_result, path: str
    ) -> Optional[Dict[str, np.ndarray]]:
        """Serve from the manifest, or ``None`` to signal invalidation."""
        if st.st_size < entry.offset:
            return None  # truncated/replaced with something shorter
        if st.st_size == entry.size and st.st_mtime_ns == entry.mtime_ns:
            self.stats.full_hits += 1
            self.stats.bytes_reused += entry.offset
            self.stats.rows_reused += entry.n_rows
            return {k: v.copy() for k, v in entry.columns.items()}
        with open(path, "rb") as fh:
            head = fh.read(entry.head_len)
            if len(head) != entry.head_len or _sha(head) != entry.head_sha:
                return None
            if entry.seam_len:
                fh.seek(entry.offset - entry.seam_len)
                seam = fh.read(entry.seam_len)
                if _sha(seam) != entry.seam_sha:
                    return None
            fh.seek(entry.offset)
            tail = fh.read()
        # hold back a trailing partial line (no final newline yet)
        cut = tail.rfind(b"\n") + 1
        tail = tail[:cut]
        if not tail:
            # nothing newly completed: a metadata-only change (touch)
            self.stats.full_hits += 1
            self.stats.bytes_reused += entry.offset
            self.stats.rows_reused += entry.n_rows
            entry.size = st.st_size
            entry.mtime_ns = st.st_mtime_ns
            return {k: v.copy() for k, v in entry.columns.items()}
        cols, n_phys = parse_block(
            tail.decode("utf-8"), path, entry.n_lines + 1
        )
        new_rows = _n_rows(cols)
        self.stats.partial_hits += 1
        self.stats.bytes_reused += entry.offset
        self.stats.bytes_parsed += len(tail)
        self.stats.rows_reused += entry.n_rows
        self.stats.rows_parsed += new_rows
        entry.columns = _concat_columns(entry.columns, cols)
        entry.n_lines += n_phys
        entry.n_rows += new_rows
        entry.offset += len(tail)
        entry.size = st.st_size
        entry.mtime_ns = st.st_mtime_ns
        self._reseam(entry, tail)
        self._persist(key, entry)
        return {k: v.copy() for k, v in entry.columns.items()}

    def _full_parse(
        self, key: str, st: os.stat_result, path: str
    ) -> ManifestEntry:
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.rfind(b"\n") + 1
        parsed = data[:cut]
        cols, n_phys = parse_block(parsed.decode("utf-8"), path, 1)
        self.stats.bytes_parsed += len(parsed)
        self.stats.rows_parsed += _n_rows(cols)
        head_len = min(len(parsed), self.head_probe)
        seam_len = min(len(parsed), self.seam_probe)
        entry = ManifestEntry(
            path=key,
            size=st.st_size,
            mtime_ns=st.st_mtime_ns,
            offset=len(parsed),
            n_lines=n_phys,
            n_rows=_n_rows(cols),
            head_len=head_len,
            head_sha=_sha(parsed[:head_len]),
            seam_len=seam_len,
            seam_sha=_sha(parsed[len(parsed) - seam_len:]),
            columns=cols,
        )
        self._table[key] = entry
        self._persist(key, entry)
        return entry

    def _reseam(self, entry: ManifestEntry, appended: bytes) -> None:
        """Refresh the seam probe after the parsed region grew."""
        if len(appended) >= self.seam_probe:
            entry.seam_len = self.seam_probe
            entry.seam_sha = _sha(appended[-self.seam_probe:])
        else:
            # seam spans the append boundary: re-read from disk
            entry.seam_len = min(entry.offset, self.seam_probe)
            with open(entry.path, "rb") as fh:
                fh.seek(entry.offset - entry.seam_len)
                entry.seam_sha = _sha(fh.read(entry.seam_len))

    # -- persistence -----------------------------------------------------------------
    def _cache_paths(self, key: str) -> "tuple[str, str]":
        stem = hashlib.sha256(key.encode()).hexdigest()[:32]
        base = os.path.join(self.cache_dir, stem)
        return base + ".json", base + ".npz"

    def _persist(self, key: str, entry: ManifestEntry) -> None:
        if not self.cache_dir:
            return
        meta_path, cols_path = self._cache_paths(key)
        tmp = cols_path + ".tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, **entry.columns)
        os.replace(tmp, cols_path)
        tmp = meta_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry.meta_dict(), fh, indent=1, sort_keys=True)
        os.replace(tmp, meta_path)

    def _load_persisted(self, key: str) -> Optional[ManifestEntry]:
        meta_path, cols_path = self._cache_paths(key)
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("version") != _MANIFEST_VERSION:
                return None
            with np.load(cols_path, allow_pickle=True) as npz:
                columns = {name: npz[name] for name in PERFLOG_FIELDS}
        except Exception:
            # a corrupt / truncated / foreign cache file is never fatal:
            # fall back to a cold parse (np.load raises zipfile / pickle
            # errors beyond the obvious OSError/ValueError set)
            return None
        entry = ManifestEntry(
            path=meta["path"],
            size=meta["size"],
            mtime_ns=meta["mtime_ns"],
            offset=meta["offset"],
            n_lines=meta["n_lines"],
            n_rows=meta["n_rows"],
            head_len=meta["head_len"],
            head_sha=meta["head_sha"],
            seam_len=meta["seam_len"],
            seam_sha=meta["seam_sha"],
            columns=columns,
        )
        self._table[key] = entry
        return entry
