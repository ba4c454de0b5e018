"""Campaign resilience: retry, quarantine, circuit breaking, crash-safe resume.

The paper wants *automated, unattended* benchmarking (Principles 4-6);
exaCB and the continuous-benchmarking literature add that long campaigns
only stay unattended if they survive partial infrastructure failure.
This module is that survival layer:

* :class:`RetryPolicy` -- bounded retries with exponential backoff and
  *deterministic* jitter, slept on the virtual
  :class:`~repro.faults.FaultClock` (a campaign never sleeps wall-clock
  time, and its backoff schedule is reproducible provenance);
* :func:`is_transient` -- the retry taxonomy: which failures blame the
  infrastructure (scheduler submit errors, build flakes, job timeouts,
  node failures, transient injected faults) and which blame the
  experiment (concretization conflicts, sanity failures, admission
  control) and must never be retried;
* :class:`CircuitBreaker` -- the campaign-wide failure budget behind
  ``repro-bench --max-failures``: once too many cases have failed, the
  rest of the campaign is declined instead of burning allocation;
* :class:`Quarantine` -- a per-case failure ledger (persisted through the
  journal) so a case that keeps failing across resume cycles degrades to
  an immediate FAILED result without sinking its wavefront;
* :class:`CampaignJournal` -- an append-only JSONL journal keyed by a
  stable :func:`case_fingerprint`, written as results land; with
  ``repro-bench --journal PATH --resume`` completed cases are replayed
  from the journal and only failed/interrupted ones re-run.

Every knob here preserves the determinism contract: with transient-only
faults and enough attempts, a retried campaign's perflogs are
byte-identical to a fault-free serial run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.faults import FaultClock, InjectedFault, unit_hash
from repro.obs.jsonl import JsonlAppender, read_jsonl, write_jsonl_atomic
from repro.pkgmgr.concretizer import ConcretizationError
from repro.pkgmgr.installer import BuildFailure
from repro.runner.sanity import SanityError
from repro.scheduler.base import AdmissionError, SchedulerError

__all__ = [
    "CampaignAborted",
    "CampaignJournal",
    "CircuitBreaker",
    "DurabilityError",
    "DurabilityPolicy",
    "Quarantine",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "benchmark_source_hash",
    "case_fingerprint",
    "check_record_version",
    "content_address",
    "is_transient",
    "make_case_record",
    "result_from_record",
]

#: record-shape version stamped (as ``"v"``) on journal *meta* records
#: and every fleet-queue/timeline record.  Readers accept any record at
#: or below their own version -- and records with no ``"v"`` at all,
#: which predate versioning -- but refuse records from the future
#: instead of silently misreading a shape they do not understand.
SCHEMA_VERSION = 1


class SchemaVersionError(ValueError):
    """A record written by a newer repro than the one reading it."""

    def __init__(self, path: str, record_version: int):
        super().__init__(
            f"{path}: record schema v{record_version} is newer than this "
            f"repro understands (v{SCHEMA_VERSION}); upgrade before "
            f"reading -- refusing to guess at its shape"
        )
        self.path = path
        self.record_version = record_version


def check_record_version(record: Dict[str, Any], path: str) -> None:
    """Raise :class:`SchemaVersionError` for a future-versioned record.

    Legacy records carry no ``"v"`` key and pass unchallenged -- they
    predate versioning and every reader still understands their shape.
    """
    version = record.get("v", 0)
    if isinstance(version, int) and version > SCHEMA_VERSION:
        raise SchemaVersionError(path, version)


class CampaignAborted(BaseException):
    """A deliberate campaign kill (operator abort / simulated crash).

    Derives from :class:`BaseException` on purpose: the hardening layers
    convert every *unexpected* ``Exception`` into a structured case
    failure, but an abort must cut straight through them -- exactly like
    ``KeyboardInterrupt``.  The executor's ``finally`` blocks still flush
    perflogs and leave the journal consistent, which is what makes
    ``--resume`` after a kill work.
    """


class DurabilityError(CampaignAborted):
    """A durable artifact could not be written and policy says fail-stop.

    A :class:`CampaignAborted` subclass on purpose: storage failure on a
    must-be-durable artifact (the journal under any policy; everything
    under ``--durability strict``) has to cut through the per-case retry
    and hardening layers the same way an operator abort does -- a
    campaign whose provenance cannot be recorded must not keep burning
    allocation.  The message names the artifact and path so the
    operator's first ``repro-fsck`` target is in the diagnostic.
    """

    def __init__(self, artifact: str, path: str, cause: BaseException):
        super().__init__(
            f"durable artifact {artifact!r} failed at {path}: {cause}"
        )
        self.artifact = artifact
        self.path = path
        self.cause = cause


class DurabilityPolicy:
    """What happens when a durable artifact's I/O fails (DESIGN.md §6.6).

    ``strict`` (the default): every artifact failure is fail-stop -- the
    campaign aborts with a :class:`DurabilityError` naming the artifact.
    ``degrade``: *optional* artifacts (result store, trace) demote to
    their uncached/untraced execution path and the campaign carries on,
    counting each demotion; the journal and the perflogs themselves
    remain fail-stop under either policy, because a campaign that cannot
    record results has nothing to degrade *to*.
    """

    MODES = ("strict", "degrade")

    def __init__(self, mode: str = "strict"):
        if mode not in self.MODES:
            raise ValueError(
                f"unknown durability mode {mode!r}; known: "
                f"{', '.join(self.MODES)}"
            )
        self.mode = mode
        #: artifact label -> demotion count (feeds ``io.degraded.*``)
        self.degraded: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    def absorb(self, artifact: str, path: str, exc: BaseException) -> None:
        """Record a failed optional-artifact write, or abort under strict.

        Raises :class:`DurabilityError` in strict mode; in degrade mode
        counts the demotion and returns, leaving the caller to disable
        the artifact and continue.
        """
        if self.strict:
            raise DurabilityError(artifact, path, exc) from exc
        with self._lock:
            self.degraded[artifact] = self.degraded.get(artifact, 0) + 1

    @property
    def total_degraded(self) -> int:
        with self._lock:
            return sum(self.degraded.values())

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.degraded)


# --------------------------------------------------------------------------
# retry taxonomy
# --------------------------------------------------------------------------

#: exception families whose failures are worth retrying (infrastructure)
TRANSIENT_TYPES = (SchedulerError, BuildFailure, OSError)

#: exception families that no retry can fix (experiment/configuration);
#: checked *before* TRANSIENT_TYPES so subclasses override
PERMANENT_TYPES = (AdmissionError, ConcretizationError, SanityError,
                   ValueError, KeyError, TypeError)


def is_transient(exc: BaseException) -> bool:
    """Whether retrying the failed stage could plausibly succeed.

    The taxonomy (DESIGN.md section 6): injected faults carry their own
    transience; admission control, concretization conflicts and sanity
    errors are permanent; scheduler errors, build failures and I/O errors
    are transient.  Anything unknown is treated as permanent -- an
    unattended campaign must not burn its allocation retrying a bug.
    """
    if isinstance(exc, InjectedFault):
        return exc.transient
    if isinstance(exc, PERMANENT_TYPES):
        return False
    return isinstance(exc, TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-stage retry with deterministic exponential backoff.

    ``backoff(attempt, key)`` returns
    ``min(base * factor**(attempt-1), max) * (1 + jitter * u)`` where
    ``u`` is a deterministic draw in [-1, 1) from ``(seed, key,
    attempt)`` -- the same case backs off identically in every run and
    under every execution policy, so the recorded backoff schedule is
    itself reproducible provenance.
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @classmethod
    def single(cls) -> "RetryPolicy":
        """No retries: one attempt, the historical run_case behaviour."""
        return cls(max_attempts=1)

    def backoff(self, attempt: int, key: str = "") -> float:
        """Seconds of (virtual) backoff after failed attempt *attempt*."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        spread = 2.0 * unit_hash(self.seed, "backoff", key, str(attempt)) - 1.0
        return raw * (1.0 + self.jitter * spread)

    def schedule(self, key: str = "") -> List[float]:
        """The full backoff schedule this policy would sleep for *key*."""
        return [self.backoff(a, key) for a in range(1, self.max_attempts)]


# --------------------------------------------------------------------------
# circuit breaker & quarantine
# --------------------------------------------------------------------------

class CircuitBreaker:
    """Campaign-wide failure budget (``--max-failures``).

    Failures are recorded by the executor in deterministic result order
    (the same order the serial policy produces), so whether -- and where
    -- the breaker trips is identical under serial and async execution.
    Once open, remaining cases are declined with a structured failure
    instead of being run.
    """

    def __init__(self, max_failures: Optional[int] = None):
        if max_failures is not None and max_failures < 1:
            raise ValueError("max_failures must be >= 1 (or None)")
        self.max_failures = max_failures
        self._failures = 0
        self._lock = threading.Lock()

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    @property
    def tripped(self) -> bool:
        if self.max_failures is None:
            return False
        with self._lock:
            return self._failures >= self.max_failures

    def describe(self) -> str:
        return (
            f"circuit breaker open: {self.failures} case failure(s) "
            f">= --max-failures={self.max_failures}"
        )


class Quarantine:
    """Per-case failure ledger: repeatedly failing cases stop running.

    Counts are keyed by :func:`case_fingerprint` and seeded from the
    journal on ``--resume``, so a case that has already failed (retries
    included) in ``threshold`` earlier campaigns degrades straight to a
    FAILED result -- its wavefront, and the rest of the campaign, keep
    going.  ``threshold=None`` disables quarantine.
    """

    def __init__(self, threshold: Optional[int] = 3):
        if threshold is not None and threshold < 1:
            raise ValueError("quarantine threshold must be >= 1 (or None)")
        self.threshold = threshold
        self._failures: Dict[str, int] = {}
        self._lock = threading.Lock()

    def seed(self, counts: Dict[str, int]) -> None:
        with self._lock:
            for fingerprint, count in counts.items():
                self._failures[fingerprint] = max(
                    self._failures.get(fingerprint, 0), int(count)
                )

    def record_failure(self, fingerprint: str) -> int:
        with self._lock:
            count = self._failures.get(fingerprint, 0) + 1
            self._failures[fingerprint] = count
            return count

    def failures(self, fingerprint: str) -> int:
        with self._lock:
            return self._failures.get(fingerprint, 0)

    def is_quarantined(self, fingerprint: str) -> bool:
        if self.threshold is None:
            return False
        with self._lock:
            return self._failures.get(fingerprint, 0) >= self.threshold


# --------------------------------------------------------------------------
# fingerprints & the campaign journal
# --------------------------------------------------------------------------

def case_fingerprint(case: Any) -> str:
    """A stable identity for one (test, platform, environment) case.

    Built from declarative case coordinates only -- never from runtime
    state -- so the same campaign expansion yields the same fingerprints
    across processes, which is what lets a resumed run match journal
    records written before a crash.

    Memoized on the case object (same idiom as ``TestCase.display_name``):
    the coordinates are fixed at expansion time and the runner asks for
    the fingerprint more than once per case (journal + result store).
    """
    cache = getattr(case, "__dict__", None)
    if cache is not None:
        cached = cache.get("_fingerprint")
        if cached is not None:
            return cached
    parts = [
        case.test.name,
        case.platform,
        case.environ_name,
        str(case.test.num_tasks),
        str(getattr(case.test, "spack_spec", "") or ""),
    ]
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    fingerprint = digest[:16]
    if cache is not None:
        cache["_fingerprint"] = fingerprint
    return fingerprint


#: source-hash memo: a campaign hashes each benchmark class once, not
#: once per case (the sweep benches expand thousands of cases per class).
#: Weak-keyed so a hashed class can still be garbage collected.
_SOURCE_HASH_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: per-class source text: ``inspect.getsource`` re-parses a class's whole
#: module on every call, and a framework base (``RegressionTest``) sits
#: in the MRO of every leaf class hashed
_SOURCE_TEXT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: JSON-able class attributes folded into the source hash.  Factory-made
#: classes (the sweep benches build them with ``type()``/``setattr``)
#: share their ``inspect.getsource`` text, so a behaviour-bearing class
#: attribute is the only place an "edit" can show up.
_PLAIN_ATTR_TYPES = (str, int, float, bool, type(None), list, tuple, dict)


def benchmark_source_hash(cls: type) -> str:
    """Content hash of a benchmark class's *behaviour*.

    Walks the MRO (``object`` excluded) hashing each class's source text
    -- so editing a test, or the framework base class it inherits, both
    invalidate -- plus every plain-data class attribute, which is where
    dynamically built classes (``type(...)`` factories, ``setattr``
    edits) carry behaviour that ``inspect.getsource`` cannot see.
    Classes without retrievable source (REPL, exec) hash a stable
    placeholder; their data attributes still participate.
    """
    cached = _SOURCE_HASH_CACHE.get(cls)
    if cached is not None:
        return cached
    parts: List[str] = [f"{cls.__module__}.{cls.__qualname__}"]
    for klass in cls.__mro__:
        if klass is object:
            continue
        parts.append(_class_source(klass))
        for name, value in sorted(vars(klass).items()):
            if name.startswith("__"):
                continue
            if isinstance(value, _PLAIN_ATTR_TYPES):
                parts.append(f"{klass.__qualname__}.{name}={value!r}")
    digest = _sha_text("\x1f".join(parts))
    _SOURCE_HASH_CACHE[cls] = digest
    return digest


def _class_source(klass: type) -> str:
    """*klass*'s source text (or a stable placeholder), read once."""
    text = _SOURCE_TEXT_CACHE.get(klass)
    if text is None:
        try:
            text = inspect.getsource(klass)
        except (OSError, TypeError):
            text = f"<no-source:{klass.__module__}.{klass.__qualname__}>"
        _SOURCE_TEXT_CACHE[klass] = text
    return text


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_address(
    case: Any,
    *,
    spec_key: str = "",
    system_key: str = "",
    source_key: str = "",
    config_key: str = "",
) -> str:
    """The full content address of one case's *result* (the store key).

    Extends :func:`case_fingerprint` (which only identifies the case)
    into a key that identifies the case's **outcome**.  Invalidation
    rules -- a warm run re-executes a case iff any component changed:

    ==================  ====================================================
    component           invalidated by
    ==================  ====================================================
    case coordinates    test/variant name, platform, environment, task
                        layout (``num_tasks``/``per_node``), ``time_limit``,
                        executable + options, account/QoS overrides
    ``spec_key``        the concretization *problem* hash from
                        ``ConcretizationCache.key_for`` (abstract spec,
                        package-environment fingerprint, repo inventory)
    ``system_key``      ``SystemConfig.fingerprint()``: partition layout,
                        scheduler/launcher, node hardware, environments,
                        account/QoS requirements and defaults
    ``source_key``      :func:`benchmark_source_hash` of the test class
    ``config_key``      ``RunConfig.fingerprint()``: retry policy,
                        fault plan + seed, watchdog, speculation, draining
    ==================  ====================================================

    All components are hashed through sorted-key JSON -- never Python
    ``hash()`` -- so the key is stable across process restarts, dict
    insertion orders and execution policies (hypothesis-tested in
    ``tests/runner/test_resultstore.py``).
    """
    test = case.test
    blob = json.dumps(
        {
            "case": {
                "test": test.name,
                "platform": case.platform,
                "environ": case.environ_name,
                "num_tasks": test.num_tasks,
                "num_tasks_per_node": test.num_tasks_per_node,
                "time_limit": test.time_limit,
                "executable": getattr(test, "executable", ""),
                "executable_opts": list(
                    getattr(test, "executable_opts", ()) or ()
                ),
                "account": case.account,
                "qos": case.qos,
            },
            "spec": spec_key,
            "system": system_key,
            "source": source_key,
            "config": config_key,
        },
        sort_keys=True,
    )
    return _sha_text(blob)


#: journal statuses that mean "do not re-run this case on --resume"
COMPLETED_STATUSES = ("passed", "skipped")


def _status_of(result: Any) -> str:
    if result.passed:
        return "passed"
    if result.skipped:
        return "skipped"
    return "failed"


def make_case_record(
    result: Any,
    fingerprint: Optional[str] = None,
    failures: Optional[int] = None,
) -> Dict[str, Any]:
    """The journal-record dict for one result (no journal required).

    Shared by :meth:`CampaignJournal.make_record` and the result store
    (:mod:`repro.runner.results`), which persists the same shape inside
    each cache entry so a replayed case rebuilds its
    :class:`~repro.runner.pipeline.CaseResult` through the exact
    ``result_from_record`` path ``--resume`` already exercises.
    """
    fingerprint = fingerprint or case_fingerprint(result.case)
    return {
        "fingerprint": fingerprint,
        "case": result.case.display_name,
        "test": result.case.test.name,
        "platform": result.case.platform,
        "environ": result.case.environ_name,
        "status": _status_of(result),
        "failing_stage": result.failing_stage,
        "failure_reason": result.failure_reason,
        "attempts": result.attempts,
        "backoff_schedule": list(result.backoff_schedule),
        "faults": list(result.fault_log),
        "quarantined": result.quarantined,
        "failures": (
            failures if failures is not None
            else (0 if result.passed else 1)
        ),
        "perfvars": {
            var: [value, unit]
            for var, (value, unit) in sorted(result.perfvars.items())
        },
        "build_seconds": result.build_seconds,
        "job_seconds": result.job_seconds,
        "queue_seconds": result.queue_seconds,
        "speculated": result.speculated,
        "speculation_won": result.speculation_won,
        "hung_attempts": result.hung_attempts,
        # energy provenance (satellite: a resumed campaign must not
        # lose the joules its crashed predecessor measured)
        "energy": (
            result.energy.as_dict()
            if getattr(result, "energy", None) is not None else None
        ),
    }


class CampaignJournal:
    """Append-only JSONL campaign journal (crash-safe resume).

    One JSON object per line, one line per finished case, appended (and
    fsynced) the moment the result lands -- after its perflog rows were
    flushed, so a journal entry implies durable perflog data.  The
    durability machinery (single-write appends, fsync, torn-tail
    tolerance, atomic rewrites) lives in :mod:`repro.obs.jsonl` and is
    shared with the span trace file, so both artifacts survive a crash
    the same way -- and a post-crash ``--resume`` can append after a
    torn tail without gluing two records together (the appender repairs
    the tail before its first write).
    """

    def __init__(self, path: str, sync: bool = True):
        self.path = path
        self.sync = sync
        self._appender = JsonlAppender(path, sync=sync)
        self._lock = threading.Lock()
        # compact() fast path: a journal this session created from
        # scratch, where no fingerprint was appended twice (in either
        # the case or the replay keyspace) and at most one health
        # snapshot was written, is compact by construction -- the
        # end-of-campaign compact() can skip re-parsing every line
        try:
            self._preexisting = os.path.getsize(path) > 0
        except OSError:
            self._preexisting = False
        self._seen_case_fps: set = set()
        self._seen_replay_fps: set = set()
        self._session_health = 0
        self._session_compact = True

    def attach_io(self, io: Any, label: str = "journal") -> None:
        """Route journal appends through a :class:`FaultyIO` shim."""
        self._appender.attach_io(io, label)

    # -- writing -------------------------------------------------------------
    def record(
        self,
        result: Any,
        fingerprint: Optional[str] = None,
        failures: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Append one case result; returns the record written."""
        record = self.make_record(result, fingerprint=fingerprint,
                                  failures=failures)
        self._append(record)
        return record

    def make_record(
        self,
        result: Any,
        fingerprint: Optional[str] = None,
        failures: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Build (without writing) the journal record for one result.

        Group-commit support: the executor's ``journal_batch`` mode
        formats records as results arrive and appends a whole batch in
        one fsynced write via :meth:`record_many` -- the on-disk byte
        sequence is identical to per-case appends.
        """
        return make_case_record(result, fingerprint=fingerprint,
                                failures=failures)

    def record_many(self, records: List[Dict[str, Any]]) -> None:
        """Append a batch of prebuilt records in one durable write."""
        if not records:
            return
        with self._lock:
            for record in records:
                self._track_locked(record)
            self._appender.append_many(records)

    def _track_locked(self, record: Dict[str, Any]) -> None:
        """Maintain the compact-by-construction invariant (see compact)."""
        if not self._session_compact:
            return
        kind = record.get("kind")
        if kind == "health":
            self._session_health += 1
            if self._session_health > 1:
                self._session_compact = False
        elif kind == "replay" and "fingerprint" in record:
            fp = record["fingerprint"]
            if fp in self._seen_replay_fps:
                self._session_compact = False
            else:
                self._seen_replay_fps.add(fp)
        elif kind is None and "fingerprint" in record:
            fp = record["fingerprint"]
            if fp in self._seen_case_fps:
                self._session_compact = False
            else:
                self._seen_case_fps.add(fp)
        # unknown shapes are always preserved by compact(): no effect

    def make_replay_record(
        self,
        result: Any,
        key: str,
        cached_from: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Build a ``kind='replay'`` meta record for a store-replayed case.

        Replayed cases must not journal as ordinary case records: a later
        ``--resume`` would then double-count them (their perflog rows
        were re-emitted by the replay, not by a run this journal
        describes), and ``failure_counts`` would re-learn old failures.
        The meta record still carries the fingerprint and outcome so
        ``repro-trace``/auditors can reconcile the store's hit counters
        against the journal.
        """
        return {
            "kind": "replay",
            "v": SCHEMA_VERSION,
            "fingerprint": fingerprint or case_fingerprint(result.case),
            "case": result.case.display_name,
            "status": _status_of(result),
            "key": key,
            "cached_from": cached_from,
        }

    def record_health(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Append a node-health snapshot (``kind='health'`` meta record).

        Written whenever the tracker changed since the last journal
        write, so a resumed campaign restores the drain/score state the
        crashed one had accumulated.  Case-record readers
        (:meth:`load`, :meth:`failure_counts`) skip meta records; the
        *last* health record wins on restore.
        """
        record = {"kind": "health", "v": SCHEMA_VERSION, "health": snapshot}
        self._append(record)
        return record

    def _append(self, record: Dict[str, Any]) -> None:
        # the journal-level lock additionally serializes appends against
        # compact(): an append never races the atomic rewrite
        with self._lock:
            self._track_locked(record)
            self._appender.append(record)

    # -- reading -------------------------------------------------------------
    def entries(self) -> Iterable[Dict[str, Any]]:
        """Every intact record, oldest first (torn tail skipped)."""
        return self._entries_unlocked()

    def _entries_unlocked(self) -> List[Dict[str, Any]]:
        records = read_jsonl(self.path)
        for record in records:
            # a v2 meta record would be *silently misread* by the v1
            # shape accessors below; refusing up front is the contract
            check_record_version(record, self.path)
        return records

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Latest case record per fingerprint (the resume state)."""
        state: Dict[str, Dict[str, Any]] = {}
        for record in self.entries():
            fingerprint = record.get("fingerprint")
            if fingerprint is None or "kind" in record:
                continue  # meta record (health snapshot, store replay...)
            state[fingerprint] = record
        return state

    def failure_counts(self) -> Dict[str, int]:
        """Cumulative failure count per fingerprint (quarantine seed).

        Meta records are skipped: a ``kind='replay'`` line describes a
        *stored* outcome being served again, not a fresh failure -- the
        cold run that produced it already journaled the case record.
        """
        counts: Dict[str, int] = {}
        for record in self.entries():
            if (record.get("status") == "failed"
                    and "fingerprint" in record and "kind" not in record):
                counts[record["fingerprint"]] = max(
                    counts.get(record["fingerprint"], 0),
                    int(record.get("failures", 1)),
                )
        return counts

    def health_snapshot(self) -> Optional[Dict[str, Any]]:
        """The latest node-health snapshot, if any was journaled."""
        latest: Optional[Dict[str, Any]] = None
        for record in self.entries():
            if record.get("kind") == "health":
                latest = record.get("health")
        return latest

    # -- maintenance ---------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the journal keeping only the *latest* record per key.

        An append-only journal grows without bound across retries and
        resume cycles (every re-run of a case appends another line).
        Compaction keeps the last case record per fingerprint -- exactly
        what :meth:`load` would reconstruct -- plus the last health
        snapshot, preserving their relative order, and replaces the file
        atomically (write temp + fsync + rename), so a crash mid-compact
        leaves either the old journal or the new one, never a torn mix.
        The executor runs this automatically when a campaign completes
        successfully.  Returns the number of records dropped.
        """
        with self._lock:
            if not self._preexisting and self._session_compact:
                # every record this journal holds was appended by this
                # session, each unique in its keyspace: compact would
                # keep all of them -- skip the full re-parse
                return 0
            records = list(self._entries_unlocked())
            keep_index: Dict[str, int] = {}
            # store replays compact in their own keyspace: the latest
            # replay record per fingerprint survives alongside the
            # latest case record (a case can have both -- cold run, then
            # a warm replay -- and each tells a different story)
            replay_index: Dict[str, int] = {}
            last_health = -1
            # unknown record shapes are preserved: compaction must never
            # destroy data a newer writer understood and we do not
            unknown: List[int] = []
            for i, record in enumerate(records):
                kind = record.get("kind")
                if kind == "health":
                    last_health = i
                elif kind == "replay" and "fingerprint" in record:
                    replay_index[record["fingerprint"]] = i
                elif kind is None and "fingerprint" in record:
                    keep_index[record["fingerprint"]] = i
                else:
                    unknown.append(i)
            keep = set(keep_index.values())
            keep.update(replay_index.values())
            if last_health >= 0:
                keep.add(last_health)
            keep.update(unknown)
            kept = [records[i] for i in sorted(keep)]
            dropped = len(records) - len(kept)
            if dropped <= 0:
                return 0
            write_jsonl_atomic(self.path, kept, sync=self.sync)
            return dropped


JournalLike = Union[str, CampaignJournal]


def as_journal(journal: Optional[JournalLike]) -> Optional[CampaignJournal]:
    if journal is None or isinstance(journal, CampaignJournal):
        return journal
    return CampaignJournal(str(journal))


def result_from_record(case: Any, record: Dict[str, Any],
                       resumed: bool = True) -> Any:
    """Reconstruct a completed CaseResult from its journal record.

    Used by ``--resume``: the case is *not* re-run; the replayed result
    is marked ``resumed=True`` so the executor neither re-emits its
    perflog rows nor re-journals it, and provenance shows exactly which
    results came from the journal.  The result store reuses this with
    ``resumed=False``: a store replay *does* re-emit perflog rows (the
    stored bytes) and journals a replay meta record instead.
    """
    from repro.runner.pipeline import CaseResult

    result = CaseResult(case=case)
    status = record.get("status", "failed")
    result.passed = status == "passed"
    result.skipped = status == "skipped"
    result.failing_stage = record.get("failing_stage")
    result.failure_reason = record.get("failure_reason", "")
    result.attempts = int(record.get("attempts", 1))
    result.backoff_schedule = [float(x) for x in
                               record.get("backoff_schedule", [])]
    result.fault_log = list(record.get("faults", []))
    result.quarantined = bool(record.get("quarantined", False))
    result.perfvars = {
        var: (float(value), str(unit))
        for var, (value, unit) in record.get("perfvars", {}).items()
    }
    result.build_seconds = float(record.get("build_seconds", 0.0))
    result.job_seconds = float(record.get("job_seconds", 0.0))
    result.queue_seconds = float(record.get("queue_seconds", 0.0))
    result.speculated = bool(record.get("speculated", False))
    result.speculation_won = bool(record.get("speculation_won", False))
    result.hung_attempts = int(record.get("hung_attempts", 0))
    energy = record.get("energy")
    if energy:
        # journals written before the energy field simply lack the key
        # (back-compat: .get returns None and the result stays None)
        from repro.machine.telemetry import EnergyReport

        result.energy = EnergyReport(
            joules=float(energy.get("joules", 0.0)),
            mean_watts=float(energy.get("mean_watts", 0.0)),
            duration_s=float(energy.get("duration_s", 0.0)),
            nodes=int(energy.get("nodes", 1)),
            mean_mem_util=float(energy.get("mean_mem_util", 0.0)),
            mean_network_util=float(energy.get("mean_network_util", 0.0)),
            mean_filesystem_util=float(
                energy.get("mean_filesystem_util", 0.0)
            ),
        )
    result.resumed = resumed
    return result
