"""Content-addressed whole-case result store: incremental campaigns.

The cold path is fast (PR 6), but continuous benchmarking re-runs the
same collection over and over with near-total redundancy -- the exaCB
move (PAPERS.md) is to content-address *entire case results* and
re-execute only the invalidated delta.  This module is that store:

* :class:`CaseResultStore` persists one JSON entry per **composite
  fingerprint** -- :func:`~repro.runner.resilience.content_address`
  over (case coordinates, concretization-problem hash from
  :meth:`~repro.pkgmgr.memo.ConcretizationCache.key_for`,
  :meth:`~repro.runner.config.SystemConfig.fingerprint`,
  :func:`~repro.runner.resilience.benchmark_source_hash`,
  :meth:`~repro.runner.executor.RunConfig.fingerprint`);
* an entry holds everything the executor's downstream consumers read
  from a finished case: the journal-shaped outcome record, stdout /
  run command / job script / build log, the rendered concrete spec,
  the case's **verbatim perflog lines** and its **verbatim encoded
  trace lines** -- enough for ``repro-bench --result-store DIR`` to
  *replay* the case byte-identically instead of re-running it;
* :class:`ResultStoreStats` mirrors the ``CacheStats`` /
  ``StoreStats`` accounting idiom (hits / misses / invalidated /
  corrupted), published to the metrics registry under
  ``resultstore.*``.

Durability follows the ``obs.jsonl`` philosophy: entries are written
atomically (temp + rename), and a torn or corrupted entry is a cache
*miss* plus a counter -- never a crash (the case simply re-executes and
the entry is rewritten).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.jsonl import seal_line, verify_line
from repro.obs.metrics import HitStats
from repro.runner.resilience import (
    benchmark_source_hash,
    case_fingerprint,
    content_address,
)

__all__ = [
    "CaseResultStore",
    "ResultStoreStats",
    "StoredSpec",
    "as_result_store",
    "make_entry",
    "replay_result",
]

#: entry schema version (bumped on incompatible changes; a version
#: mismatch is treated as a miss, exactly like corruption)
ENTRY_VERSION = 1


def _pack_line(key: str, sealed: str) -> str:
    """One ``pack.jsonl`` line: the entry's sealed object text, verbatim.

    Splicing the same :func:`~repro.obs.jsonl.seal_line` text the object
    file holds keeps the line's decoded values ``{"key", "entry"}`` while
    letting pack load verify the entry by a CRC over its stored bytes.
    """
    return '{"key":%s,"entry":%s}\n' % (json.dumps(key), sealed)


def _unpack_line(line: str) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(key, verified entry)`` from one pack line; ``None`` if damaged."""
    line = line.rstrip("\n")
    head, sep = '{"key":"', '","entry":'
    end = line.find(sep, len(head))
    if not line.startswith(head) or end < 0 or not line.endswith("}"):
        return None
    key = line[len(head):end]
    if "\\" in key:  # keys are hex digests: an escape means damage
        return None
    entry = verify_line(line[end + len(sep):-1])
    return None if entry is None else (key, entry)


class ResultStoreStats(HitStats):
    """Hit/miss accounting for the case result store.

    ``invalidated`` counts misses where an *older* result for the same
    case identity exists under a different composite key -- the case
    was invalidated by an edit, not simply never seen; ``corrupted``
    counts unreadable/torn/version-skewed entries tolerated as misses.
    ``evictions`` is always 0 (the store does not evict); it stays in
    the published ``resultstore.*`` namespace so metrics snapshots keep
    their shape.
    """

    FIELDS = ("hits", "misses", "invalidated", "corrupted", "evictions",
              "puts")
    PREFIX = "resultstore"


class StoredSpec:
    """A rendered stand-in for a concrete Spec, replayed from the store.

    Provenance and the perflog formatter only ever call ``format()``,
    ``dag_hash()`` and ``dag_dict()`` on a result's ``concrete_spec``;
    this shim serves the strings the cold run's real Spec rendered, so
    a replayed case's provenance entry and perflog rows are identical
    without re-concretizing anything.
    """

    def __init__(self, doc: Dict[str, Any]):
        self._doc = doc

    def format(self, *, deps: bool = True, hashes: bool = False) -> str:
        if hashes:
            return self._doc.get("format_hashes", self._doc["format"])
        return self._doc["format"] if deps else self._doc["format_nodeps"]

    def dag_hash(self, length: int = 7) -> str:
        full = self._doc["dag_hash_full"]
        return full[:length]

    def dag_dict(self) -> Dict[str, Any]:
        return self._doc["dag_dict"]

    def __repr__(self) -> str:
        return f"StoredSpec({self._doc['format_nodeps']!r})"


def _spec_doc(spec: Any) -> Dict[str, Any]:
    """Serialize the renderings downstream consumers actually read."""
    return {
        "format": spec.format(),
        "format_nodeps": spec.format(deps=False),
        "format_hashes": spec.format(deps=True, hashes=True),
        "dag_hash_full": spec.dag_hash(length=64),
        "dag_dict": spec.dag_dict(),
    }


def make_entry(
    result: Any,
    key: str,
    run_id: str,
    record: Dict[str, Any],
    perflog: Optional[Dict[str, Any]] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The persistent store entry for one freshly executed result.

    *record* is the journal-shaped outcome dict (the same bytes a
    ``CampaignJournal`` case record carries); *perflog* is
    ``{"relpath", "lines"}`` with the verbatim rows the cold run
    emitted; *trace* is ``{"first_id", "count", "end_time", "lines"}``
    -- the exact encoded span lines the cold run's tracer wrote, plus
    the global id of the first one, so replay can blit them verbatim
    (or shift ids by a constant when an upstream edit moved the
    sequence; see :class:`repro.obs.trace.ReplayedSpans`).
    """
    return {
        "version": ENTRY_VERSION,
        "key": key,
        "fingerprint": case_fingerprint(result.case),
        "case": result.case.display_name,
        "run_id": run_id,
        "record": record,
        "stdout": result.stdout,
        "run_command": result.run_command,
        "job_script": result.job_script,
        "build_log": list(result.build_log),
        "concretize_cache_hit": result.concretize_cache_hit,
        "spec": (
            _spec_doc(result.concrete_spec)
            if result.concrete_spec is not None else None
        ),
        "perflog": perflog,
        "trace": trace,
    }


def replay_result(case: Any, entry: Dict[str, Any]) -> Any:
    """Reconstruct a CaseResult from a store entry (``replayed=True``).

    Unlike a journal resume (``resumed=True``), a store replay *does*
    re-emit the case's perflog rows (the stored bytes) and re-flush its
    spans -- the warm run's artifacts must be byte-identical to a cold
    run's -- so the executor treats the result as fresh everywhere
    except execution itself.
    """
    from repro.runner.resilience import result_from_record

    result = result_from_record(case, entry["record"], resumed=False)
    result.replayed = True
    result.cached_from = entry.get("run_id")
    result.stdout = entry.get("stdout", "")
    result.run_command = entry.get("run_command", "")
    result.job_script = entry.get("job_script", "")
    result.build_log = list(entry.get("build_log") or [])
    result.concretize_cache_hit = entry.get("concretize_cache_hit")
    spec_doc = entry.get("spec")
    if spec_doc is not None:
        result.concrete_spec = StoredSpec(spec_doc)
    result._replay = entry
    return result


class CaseResultStore:
    """Persistent content-addressed store of whole-case results.

    Layout under *root* (all writes atomic temp+rename)::

        objects/<composite-key>.json    one entry per result content
        pack.jsonl                      sequential replica of entries
        index.json                      case identity -> its latest key

    The per-key object files are canonical: atomic, individually
    deletable, randomly addressable.  The **pack** is a git-packfile
    analogue -- the same entries as ``{"key", "entry"}`` lines in one
    append-only file -- loaded *once* per process so a warm campaign
    pays one sequential read instead of one open+parse per case.  A
    pack line is served only while its object file still exists (an
    ``os.stat``): a corrupted entry and ``repro-fsck --repair`` both
    delete objects, and the object files stay authoritative.  Keys
    missing from the pack (a crash between object write and pack
    append, or entries from a pre-pack store) fall back to the per-file
    path.

    The identity index is what distinguishes *invalidated* (this case
    ran before, under different content -- an edit) from a plain miss
    (never seen), the counter the ISSUE wants reconciled against
    journal counts.  Both the index and the pack are maintained
    **write-behind**: puts buffer in memory and :meth:`flush` persists
    -- a handful of file writes per campaign instead of two per case,
    which at 5k cases is most of the put cost.
    """

    #: write-behind safety valve: persist the identity index and the
    #: buffered pack lines every this many puts even if the campaign
    #: never reaches its final flush()
    INDEX_FLUSH_EVERY = 1024

    #: compact the pack (drop superseded/deleted lines) when it holds
    #: more than this many lines per live entry
    PACK_SLACK = 2

    def __init__(self, root: str):
        self.root = str(root)
        self.stats = ResultStoreStats()
        self._objects = os.path.join(self.root, "objects")
        self._index_file = os.path.join(self.root, "index.json")
        self._pack_file = os.path.join(self.root, "pack.jsonl")
        os.makedirs(self._objects, exist_ok=True)
        #: fingerprint -> latest composite key (lazy-loaded)
        self._index: Optional[Dict[str, str]] = None
        self._index_dirty = 0
        #: key -> entry, the pack's content (lazy-loaded, last-wins)
        self._pack: Optional[Dict[str, Dict[str, Any]]] = None
        #: pack lines buffered in memory until the next flush()
        self._pack_pending: List[str] = []
        #: lines currently in the pack file (maintained after load)
        self._pack_lines = 0
        self._lock = threading.Lock()
        # per-campaign key-component memos (system fingerprints and
        # package environments are invariant within one process run)
        self._system_keys: Dict[int, Tuple[Any, str]] = {}
        self._env_cache: Dict[str, Tuple[Any, Any]] = {}
        #: optional FaultyIO shim the write paths are routed through
        self._io: Optional[Any] = None

    def attach_io(self, io: Any) -> None:
        """Route object/pack/index writes through a FaultyIO shim."""
        self._io = io

    # -- key computation -----------------------------------------------------
    def _system_key(self, system: Any) -> str:
        memo = self._system_keys.get(id(system))
        if memo is not None and memo[0] is system:
            return memo[1]
        fingerprint = system.fingerprint()
        self._system_keys[id(system)] = (system, fingerprint)
        return fingerprint

    def _spec_key(self, case: Any) -> str:
        """The concretization *problem* content address (or '').

        Uses :meth:`ConcretizationCache.key_for` -- computable without
        solving, and (the solver being deterministic) equivalent to
        addressing by the solution.  Non-Spack cases have no spec
        component.
        """
        test = case.test
        spec_text = getattr(test, "spack_spec", "") or ""
        if not spec_text:
            return ""
        from repro.pkgmgr.concretizer import Concretizer
        from repro.pkgmgr.memo import ConcretizationCache
        from repro.pkgmgr.spec import Spec
        from repro.runner.pipeline import _pkg_environment

        cached = self._env_cache.get(case.platform)
        if cached is None:
            env = _pkg_environment(case.platform)
            repo = Concretizer(env=env).repo
            self._env_cache[case.platform] = cached = (env, repo)
        env, repo = cached
        spec = Spec(spec_text)
        if spec.compiler is None:
            environ = case.partition.environ(case.environ_name)
            spec = spec.constrain(Spec(f"%{environ.compiler_spec}"))
        return ConcretizationCache.key_for(spec, env, repo)

    def key_for(self, case: Any, config_key: str = "") -> str:
        """The composite content address of one case's result."""
        return content_address(
            case,
            spec_key=self._spec_key(case),
            system_key=self._system_key(case.system),
            source_key=benchmark_source_hash(type(case.test)),
            config_key=config_key,
        )

    # -- paths ---------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self._objects, f"{key}.json")

    def _write_atomic(self, path: str, body: str,
                      label: str = "store") -> None:
        if self._io is not None:
            self._io.write_atomic(path, body.encode("utf-8"), label,
                                  sync=False)
            return
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)

    # -- identity index (write-behind) ---------------------------------------
    def _load_index_locked(self) -> Dict[str, str]:
        if self._index is None:
            try:
                with open(self._index_file, encoding="utf-8") as fh:
                    loaded = json.load(fh)
                self._index = (
                    {str(k): str(v) for k, v in loaded.items()}
                    if isinstance(loaded, dict) else {}
                )
            except (OSError, ValueError):
                # missing or torn: the index is advisory, start fresh
                self._index = {}
        return self._index

    def _flush_index_locked(self) -> None:
        if self._index is not None and self._index_dirty:
            # compact separators: the index is re-read by every campaign
            body = json.dumps(self._index, separators=(",", ":"))
            self._write_atomic(self._index_file, body, label="index")
            self._index_dirty = 0

    # -- pack (write-behind entry replica) -----------------------------------
    def _load_pack_locked(self) -> Dict[str, Dict[str, Any]]:
        if self._pack is None:
            pack: Dict[str, Dict[str, Any]] = {}
            lines = 0
            try:
                # errors="replace": a rotted byte fails its line's CRC
                # instead of aborting the whole load
                with open(self._pack_file, encoding="utf-8",
                          errors="replace") as fh:
                    for line in fh:
                        lines += 1
                        unpacked = _unpack_line(line)
                        if unpacked is not None:
                            pack[unpacked[0]] = unpacked[1]
            except OSError:
                pass
            self._pack = pack
            self._pack_lines = lines
        return self._pack

    def _flush_pack_locked(self) -> None:
        if not self._pack_pending:
            return
        if self._io is not None:
            self._io.append(
                self._pack_file,
                "".join(self._pack_pending).encode("utf-8"),
                "pack",
                sync=False,
            )
        else:
            with open(self._pack_file, "a", encoding="utf-8") as fh:
                fh.write("".join(self._pack_pending))
        self._pack_lines += len(self._pack_pending)
        self._pack_pending = []
        # compact when superseded/deleted lines dominate -- needs the
        # pack in memory, so only bother once something loaded it
        if self._pack is not None and self._pack_lines > max(
            self.PACK_SLACK * len(self._pack), 16
        ):
            self._compact_pack_locked()

    def _compact_pack_locked(self) -> None:
        pack = self._load_pack_locked()
        live = {
            key: entry for key, entry in pack.items()
            if os.path.exists(self._entry_path(key))
        }
        body = "".join(
            _pack_line(key, seal_line(entry)) for key, entry in live.items()
        )
        if self._io is not None:
            self._io.write_atomic(self._pack_file, body.encode("utf-8"),
                                  "pack", sync=False)
        else:
            tmp = f"{self._pack_file}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, self._pack_file)
        self._pack = live
        self._pack_lines = len(live)

    def flush(self) -> None:
        """Persist the write-behind index and pack (end of campaign)."""
        with self._lock:
            self._flush_index_locked()
            self._flush_pack_locked()

    # -- lookup / put --------------------------------------------------------
    def lookup(
        self,
        key: str,
        fingerprint: Optional[str] = None,
        need_perflog: bool = False,
        need_spans: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for *key*, or ``None`` (a miss).

        An unreadable or version-skewed entry is a tolerated miss
        (``corrupted`` counter); an entry lacking an artifact this
        campaign needs (perflog rows while perflogs are armed, trace
        lines while tracing) is also a miss -- the case re-executes and
        the rewritten entry carries the missing artifact.  On a miss,
        *fingerprint* (when given) classifies it: an identity-index
        entry pointing at a *different* key means the case was seen
        before and an edit invalidated it.

        Entries are served from the pack when it has them (one
        sequential load for the whole campaign, validated against the
        object file's existence so a deleted object is respected);
        otherwise from the per-key object file.
        """
        path = self._entry_path(key)
        with self._lock:
            entry = self._load_pack_locked().get(key)
            if entry is not None and not os.path.exists(path):
                # deleted (or never-landed) object: the pack line is
                # stale, the object files are canonical
                self._pack.pop(key, None)
                entry = None
            if entry is not None and entry.get("version") != ENTRY_VERSION:
                entry = None  # skewed replica: fall back to the file
            if entry is None:
                try:
                    with open(path, encoding="utf-8") as fh:
                        entry = verify_line(fh.read())
                    if entry is None:
                        raise ValueError("entry checksum mismatch")
                    if entry.get("version") != ENTRY_VERSION:
                        raise ValueError(
                            f"entry version {entry.get('version')!r}"
                        )
                except FileNotFoundError:
                    entry = None
                except (OSError, ValueError):
                    # torn/corrupted entry: tolerate as a miss, drop the
                    # file so the re-executed case rewrites it cleanly
                    self.stats.corrupted += 1
                    entry = None
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            if entry is not None and (
                (need_perflog and entry.get("perflog") is None)
                or (need_spans and entry.get("trace") is None)
            ):
                entry = None  # incomplete for this campaign's needs
            if entry is None:
                self.stats.misses += 1
                if fingerprint:
                    self._note_invalidation(fingerprint, key)
                return None
            self.stats.hits += 1
            return entry

    def _note_invalidation(self, fingerprint: str, key: str) -> None:
        """Classify a miss: invalidated (seen before, edited) or new."""
        known = self._load_index_locked().get(fingerprint)
        if known is not None and known != key:
            self.stats.invalidated += 1

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Persist one entry (atomic), update the index and pack."""
        path = self._entry_path(key)
        sealed = seal_line(entry)
        with self._lock:
            self._write_atomic(path, sealed, label="store")
            self.stats.puts += 1
            self._pack_pending.append(_pack_line(key, sealed))
            if self._pack is not None:
                self._pack[key] = entry
            fingerprint = entry.get("fingerprint")
            if fingerprint:
                index = self._load_index_locked()
                if index.get(fingerprint) != key:
                    index[fingerprint] = key
                    self._index_dirty += 1
            if (self._index_dirty >= self.INDEX_FLUSH_EVERY
                    or len(self._pack_pending) >= self.INDEX_FLUSH_EVERY):
                self._flush_index_locked()
                self._flush_pack_locked()

    def __len__(self) -> int:
        """The number of entry objects on disk (counted on demand)."""
        return sum(
            1 for name in os.listdir(self._objects) if name.endswith(".json")
        )

    def __repr__(self) -> str:
        return (
            f"CaseResultStore({self.root!r}, {len(self)} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )


StoreLike = Union[str, CaseResultStore]


def as_result_store(store: Optional[StoreLike]) -> Optional[CaseResultStore]:
    """Coerce CLI/API input (path | store | None) to a store."""
    if store is None or isinstance(store, CaseResultStore):
        return store
    return CaseResultStore(str(store))
