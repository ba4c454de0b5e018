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
* :class:`ResultStoreStats` mirrors the concretization memo's
  ``CacheStats`` accounting idiom (hits / misses / invalidated /
  corrupted), published to the metrics registry under
  ``resultstore.*``.

Durability follows the ``obs.jsonl`` philosophy: each entry is one
CRC-sealed line appended to a single ``pack.jsonl``, and a torn or
corrupted line is a cache *miss* plus a counter -- never a crash (the
case simply re-executes and a fresh line is appended).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.iofaults import FaultyIO
from repro.obs.jsonl import _seal_member, seal_line, verify_line
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
    """One ``pack.jsonl`` line: the entry's sealed text, spliced verbatim.

    The line decodes to ``{"key", "entry"}``, and splicing the
    :func:`~repro.obs.jsonl.seal_line` text lets pack load verify the
    entry by a CRC over its stored bytes.
    """
    return '{"key":%s,"entry":%s}\n' % (json.dumps(key), sealed)


def _unpack_line(line: str) -> Tuple[Optional[str], Optional[str]]:
    """``(key, verified sealed entry text)`` from one pack line.

    A line in :func:`~repro.obs.jsonl.seal_line`'s layout is verified by
    a CRC over its stored bytes and its text kept as it is, with no
    decode; a line an older writer laid out otherwise is verified by a
    decode and re-sealed, so the text always reads back as ``put``
    writes it.  A damaged entry yields ``(key, None)`` while the key is
    still legible (so a lookup can count it ``corrupted``), and
    ``(None, None)`` when not even the key survived.
    """
    line = line.rstrip("\n")
    head, sep = '{"key":"', '","entry":'
    end = line.find(sep, len(head))
    if not line.startswith(head) or end < 0:
        return None, None
    key = line[len(head):end]
    if "\\" in key:  # keys are hex digests: an escape means damage
        return None, None
    if not line.endswith("}"):
        return key, None
    text = line[end + len(sep):-1]
    member = _seal_member(text)
    if member == "cs":
        return key, text
    if member is None:
        entry = verify_line(text)
        if entry is not None:
            return key, seal_line(entry)
    return key, None


#: how the top-level fingerprint member starts in sealed entry text
_FINGERPRINT = '"fingerprint": '


def _entry_fingerprint(sealed: str) -> Any:
    """The ``fingerprint`` member of sealed entry text, mostly undecoded.

    Sealed text is canonical ``sort_keys`` JSON, so every ``"`` inside a
    string is escaped and a ``"fingerprint": `` match is a real member
    name.  With no ``{`` before it but the entry's own, that member is
    at the top level; anything less plain is settled by a decode.
    """
    at = sealed.find(_FINGERPRINT)
    if at < 0:
        return None
    start = at + len(_FINGERPRINT)
    if sealed.find("{", 1, at) < 0 and sealed.startswith('"', start):
        end = sealed.find('"', start + 1)
        value = sealed[start + 1:end]
        if end > 0 and "\\" not in value:
            return value
    entry = _decode_entry(sealed)
    return None if entry is None else entry.get("fingerprint")


def _decode_entry(sealed: str) -> Optional[Dict[str, Any]]:
    """The entry dict of verified sealed text (``None`` if unreadable)."""
    try:
        entry = json.loads(sealed)
    except ValueError:
        return None
    del entry["cs"]
    return entry


class ResultStoreStats(HitStats):
    """Hit/miss accounting for the case result store.

    ``invalidated`` counts misses where an *older* result for the same
    case identity exists under a different composite key -- the case
    was invalidated by an edit, not simply never seen; ``corrupted``
    counts unreadable/torn/version-skewed entries tolerated as misses.
    The store never evicts, so it has no eviction counter.
    """

    FIELDS = ("hits", "misses", "invalidated", "corrupted", "puts")
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

    The store is one file under *root*, ``pack.jsonl``: one
    ``{"key", "entry"}`` line per :meth:`put`, appended as it happens,
    each entry CRC-sealed.  It is loaded *once* per process, so a warm
    campaign pays one sequential read instead of one open+parse per
    case.  Loading checks each line's CRC and keeps its entry as sealed
    text; a :meth:`lookup` decodes just the line it serves.  A key put
    twice keeps its last line; a damaged, torn or version-skewed line is
    a miss counted ``corrupted``.  A crash can only tear the final line,
    and the next append terminates that fragment first so it never
    swallows a good line.

    The identity index (case fingerprint -> latest key) is rebuilt from
    the lines in put order.  It is what distinguishes *invalidated*
    (this case ran before, under different content -- an edit) from a
    plain miss (never seen).  :meth:`flush` compacts the file (temp +
    rename) once superseded or damaged lines dominate, writing the live
    entries in last-put order so the rebuilt index is unchanged.

    Stores written before the single-file layout also hold
    ``objects/`` and ``index.json``; both are ignored and left alone.
    """

    #: compact the pack (drop superseded/damaged lines) when it holds
    #: more than this many lines per live entry
    PACK_SLACK = 2

    def __init__(self, root: str):
        self.root = str(root)
        self.stats = ResultStoreStats()
        self._pack_file = os.path.join(self.root, "pack.jsonl")
        os.makedirs(self.root, exist_ok=True)
        #: key -> verified sealed entry text, in last-put order
        #: (lazy-loaded with the rest); text, not a decoded tree, so a
        #: loaded pack costs the cyclic GC nothing to walk
        self._pack: Optional[Dict[str, str]] = None
        #: fingerprint -> latest composite key
        self._index: Dict[str, str] = {}
        #: keys whose only lines are damaged or torn
        self._damaged: Set[str] = set()
        #: lines in the pack file, superseded and damaged ones included
        self._lines = 0
        #: the file ends in an unterminated (torn) line
        self._torn_tail = False
        self._lock = threading.Lock()
        # per-campaign key-component memos (system fingerprints and
        # package environments are invariant within one process run)
        self._system_keys: Dict[int, Tuple[Any, str]] = {}
        self._env_cache: Dict[str, Tuple[Any, Any]] = {}
        self._io = FaultyIO()

    def attach_io(self, io: Any) -> None:
        """Route the store's writes through a fault-armed FaultyIO."""
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

    # -- the pack -----------------------------------------------------------
    def _load_locked(self) -> Dict[str, str]:
        if self._pack is None:
            pack: Dict[str, str] = {}
            line = "\n"
            try:
                # errors="replace": a rotted byte fails its line's CRC
                # instead of aborting the whole load
                with open(self._pack_file, encoding="utf-8",
                          errors="replace") as fh:
                    for line in fh:
                        self._lines += 1
                        key, sealed = _unpack_line(line)
                        if sealed is None:
                            if key is not None:
                                self._damaged.add(key)
                            continue
                        pack.pop(key, None)  # keep last-put order
                        pack[key] = sealed
                        fingerprint = _entry_fingerprint(sealed)
                        if fingerprint:
                            self._index[fingerprint] = key
            except OSError:
                pass
            self._damaged.difference_update(pack)
            self._torn_tail = not line.endswith("\n")
            self._pack = pack
        return self._pack

    def _compact_locked(self) -> None:
        pack = self._load_locked()
        body = "".join(
            _pack_line(key, sealed) for key, sealed in pack.items()
        )
        self._io.write_atomic(self._pack_file, body.encode("utf-8"),
                              "store", sync=False)
        self._lines = len(pack)
        self._torn_tail = False

    def flush(self) -> None:
        """Compact the pack when superseded or damaged lines dominate."""
        with self._lock:
            if self._pack is not None and self._lines > max(
                self.PACK_SLACK * len(self._pack), 16
            ):
                self._compact_locked()

    # -- lookup / put --------------------------------------------------------
    def lookup(
        self,
        key: str,
        fingerprint: Optional[str] = None,
        need_perflog: bool = False,
        need_spans: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for *key*, or ``None`` (a miss).

        A damaged or version-skewed entry is a tolerated miss
        (``corrupted`` counter); an entry lacking an artifact this
        campaign needs (perflog rows while perflogs are armed, trace
        lines while tracing) is also a miss -- the case re-executes and
        the rewritten entry carries the missing artifact.  On a miss,
        *fingerprint* (when given) classifies it: an identity-index
        entry pointing at a *different* key means the case was seen
        before and an edit invalidated it.
        """
        with self._lock:
            sealed = self._load_locked().get(key)
            # one line decoded per lookup: the pack itself stays text
            entry = None if sealed is None else _decode_entry(sealed)
            if entry is None:
                if sealed is not None or key in self._damaged:
                    self.stats.corrupted += 1
            elif entry.get("version") != ENTRY_VERSION:
                self.stats.corrupted += 1
                entry = None
            elif ((need_perflog and entry.get("perflog") is None)
                    or (need_spans and entry.get("trace") is None)):
                entry = None  # incomplete for this campaign's needs
            if entry is None:
                self.stats.misses += 1
                known = self._index.get(fingerprint) if fingerprint else None
                if known is not None and known != key:
                    self.stats.invalidated += 1
                return None
            self.stats.hits += 1
            return entry

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Append one entry's line to the pack and index it."""
        sealed = seal_line(entry)
        line = _pack_line(key, sealed)
        with self._lock:
            pack = self._load_locked()
            if self._torn_tail:
                # end the torn fragment as its own (damaged) line
                line = "\n" + line
            self._io.append(self._pack_file, line.encode("utf-8"), "store",
                            sync=False)
            self._lines += 2 if self._torn_tail else 1
            self._torn_tail = False
            self.stats.puts += 1
            pack.pop(key, None)
            pack[key] = sealed
            fingerprint = entry.get("fingerprint")
            if fingerprint:
                self._index[fingerprint] = key

    def __len__(self) -> int:
        """The number of live entries."""
        with self._lock:
            return len(self._load_locked())

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
