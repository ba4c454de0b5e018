"""Content-addressed memoization of concretizer solutions.

A benchmarking campaign (the paper's Figure 1 workflow) fans one abstract
spec out over many ``(variant, environment)`` cases, and most of those
cases concretize *exactly the same* dependency DAG: ``babelstream%gcc``
against the ARCHER2 environment resolves identically no matter which
BabelStream variant asked.  Re-running the greedy fixpoint solver per case
is pure waste -- exaCB-style incremental collections show that caching the
solve is the key scaling lever.

The cache is **content-addressed**: the key is a hash of

* the abstract spec's canonical rendering,
* the environment's *configuration fingerprint* (compilers, externals,
  preferences, architecture facts -- the ``packages.yaml`` equivalent),
* the recipe repository's package inventory.

so a changed system configuration (a new external, a different preferred
MPI) can never serve a stale solution: the key simply differs and the
solver runs again (the "invalidation by construction" property).

Reproducibility invariants:

* Cache hits return a **deep copy** of the stored concrete spec, so no
  caller can mutate the cached DAG.
* The cache memoizes only the *solve*; installation is untouched.  The
  root is still rebuilt on every run (Principle 3) by the installer, and
  the environment lockfile still records every concretization
  (archaeological reproducibility, Principle 4).
* Hit/miss accounting is exposed via :class:`CacheStats` so provenance
  records can carry whether a case's spec came from the memo table.

Thread safety: a single lock guards the table; the cache is shared by all
workers of the async execution policy (:mod:`repro.runner.parallel`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs.metrics import HitStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pkgmgr.environment import Environment
    from repro.pkgmgr.repository import RepoPath
    from repro.pkgmgr.spec import Spec

__all__ = ["CacheStats", "ConcretizationCache", "MemoizedFailure"]


class MemoizedFailure:
    """A memoized *unsatisfiable* concretization.

    Conflicts are a function of the same content key as solutions (a
    ``babelstream +cuda`` solve against a CPU system fails identically
    every time), so the campaign pays exactly **one miss per unique
    spec x system** -- impossible combinations included.  The concretizer
    re-raises the recorded message on a hit.
    """

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"MemoizedFailure({self.message!r})"


class CacheStats(HitStats):
    """Hit/miss accounting for one concretization memo."""

    FIELDS = ("hits", "misses", "evictions")
    PREFIX = "concretize"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ConcretizationCache:
    """LRU memo table ``(abstract spec, env config, repo) -> concrete Spec``.

    Pass one instance to every :class:`~repro.pkgmgr.concretizer.Concretizer`
    that should share solutions (the executor threads one through a whole
    campaign).  ``max_entries`` bounds memory; eviction is LRU.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._table: "OrderedDict[str, Spec]" = OrderedDict()
        self._lock = threading.Lock()

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def key_for(spec: "Spec", env: "Environment", repo: "RepoPath") -> str:
        """The content address of one concretization problem."""
        blob = json.dumps(
            {
                "spec": spec.format(),
                "env": env.config_fingerprint(),
                "repo": _sha(",".join(repo.all_package_names())),
            },
            sort_keys=True,
        )
        return _sha(blob)

    # -- table ----------------------------------------------------------------
    def lookup(self, key: str):
        """The memoized outcome, or ``None`` on miss.

        A hit is either a concrete :class:`Spec` (returned as a defensive
        copy) or a :class:`MemoizedFailure` (immutable, returned as-is)
        when the same problem previously proved unsatisfiable.
        """
        with self._lock:
            cached = self._table.get(key)
            if cached is None:
                self.stats.misses += 1
                return None
            self._table.move_to_end(key)
            self.stats.hits += 1
            if isinstance(cached, MemoizedFailure):
                return cached
            return cached.copy()

    def store(self, key: str, concrete: "Spec") -> None:
        """Memoize a freshly-solved concrete spec."""
        self._store(key, concrete.copy())

    def store_failure(self, key: str, message: str) -> None:
        """Memoize an unsatisfiable problem (e.g. a variant conflict)."""
        self._store(key, MemoizedFailure(message))

    def _store(self, key: str, payload) -> None:
        with self._lock:
            self._table[key] = payload
            self._table.move_to_end(key)
            while len(self._table) > self.max_entries:
                self._table.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def __repr__(self) -> str:
        return (
            f"ConcretizationCache({len(self)} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )
