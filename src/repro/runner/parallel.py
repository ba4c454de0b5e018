"""The asynchronous, dependency-aware execution policy.

DESIGN.md advertises "serial & async execution policies"; this module is
the one execution path behind both (serial is async with one worker).
A benchmark campaign (the paper's Figure 1 workflow:
~10 programming models x 7 platforms x N environments) consists of
mostly-independent :class:`~repro.runner.pipeline.TestCase` objects --
only ReFrame-style ``depends_on_tests`` edges order them.  The engine
therefore schedules the topologically-ordered case list in
**dependency wavefronts**:

* wave *k* holds every case whose longest dependency chain has length *k*;
* cases within a wave are independent by construction and run concurrently
  on a worker pool (threads: each case drives its own discrete-event
  scheduler simulation, and the shared installer / concretization cache
  are lock-protected);
* the ``finished`` map -- which dependents read their producers' results
  from -- is updated between waves **in the input order**, so dependency
  resolution is bit-for-bit the serial policy's.

Determinism: results are returned in the exact order the serial policy
would produce them (the topological order computed by
:func:`order_by_dependencies`), and the optional ``on_result`` callback
(the executor's perflog emission) fires in that same order.  With a
pinned perflog timestamp, serial and async runs therefore produce
*byte-identical* perflogs and identical reports -- the property
``tests/runner/test_parallel.py`` locks in.
"""

from __future__ import annotations

import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.pkgmgr.concretizer import DependencyCycle, topological_sort
from repro.runner.pipeline import CaseResult, TestCase, infra_failure

__all__ = [
    "SpeculationPolicy",
    "order_by_dependencies",
    "dependency_waves",
    "resolve_dependencies",
    "run_waves",
]

#: key identifying a producer in the finished-results map (ReFrame
#: semantics: dependencies match by base class name on the same platform)
FinishedKey = Tuple[str, str]


def _dependency_edges(cases: Sequence[TestCase]) -> List[Tuple[int, int]]:
    """The (producer, consumer) index edges of *cases*."""
    by_key: Dict[FinishedKey, List[int]] = {}
    for i, case in enumerate(cases):
        key = (case.platform, type(case.test).base_name())
        by_key.setdefault(key, []).append(i)
    edges: List[Tuple[int, int]] = []
    for i, case in enumerate(cases):
        for dep_name in getattr(case.test, "depends_on_tests", ()):
            for j in by_key.get((case.platform, dep_name), []):
                edges.append((j, i))
    return edges


def _has_dependencies(cases: Sequence[TestCase]) -> bool:
    """Whether any case declares a ``depends_on_tests`` edge.

    The common large campaign is dependency-free; detecting that in one
    O(n) attribute sweep lets ordering and wave partitioning skip the
    graph machinery (and the per-case key construction) entirely.
    """
    return any(
        getattr(case.test, "depends_on_tests", ()) for case in cases
    )


def order_by_dependencies(cases: Sequence[TestCase]) -> List[TestCase]:
    """Topologically order cases so test dependencies run first.

    Dependencies are matched by *base class name* within the same
    platform (ReFrame semantics).  A cycle is a configuration error.
    Dependency-free campaigns keep their input order without building a
    graph at all.
    """
    if not _has_dependencies(cases):
        return list(cases)
    edges = _dependency_edges(cases)
    try:
        order = topological_sort(range(len(cases)), edges)
    except DependencyCycle as exc:
        path = [cases[u].display_name for u, _ in exc.cycle]
        path.append(cases[exc.cycle[0][0]].display_name)
        raise ValueError(
            f"test dependency cycle: {' -> '.join(path)}"
        ) from None
    return [cases[i] for i in order]


def dependency_waves(ordered: Sequence[TestCase]) -> List[List[int]]:
    """Partition an already-ordered case list into concurrent wavefronts.

    Wave of case *i* = 1 + max(wave of its producers), so every producer
    sits in a strictly earlier wave and each wave's members are mutually
    independent.  Within a wave, input order is preserved (determinism).
    A campaign without dependencies is one single, fully-parallel wave
    (computed without touching the edge machinery).
    """
    if not _has_dependencies(ordered):
        return [list(range(len(ordered)))] if ordered else []
    edges = _dependency_edges(ordered)
    producers: Dict[int, List[int]] = {}
    for j, i in edges:
        producers.setdefault(i, []).append(j)
    level = [0] * len(ordered)
    # `ordered` is topological, so producers are resolved before consumers
    for i in range(len(ordered)):
        deps = producers.get(i)
        if deps:
            level[i] = 1 + max(level[j] for j in deps)
    waves: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for i, lvl in enumerate(level):
        waves[lvl].append(i)
    return waves


def resolve_dependencies(
    case: TestCase, finished: Dict[FinishedKey, CaseResult]
) -> Optional[CaseResult]:
    """Inject producer results into *case*; return a failure on unmet deps.

    Mirrors the serial policy exactly: every declared dependency must have
    a finished, *passed* result on the same platform; otherwise the case
    fails in ``setup`` without entering the pipeline.
    """
    deps = getattr(case.test, "depends_on_tests", ())
    if not deps:
        return None
    resolved: Dict[str, CaseResult] = {}
    missing: List[str] = []
    for dep_name in deps:
        dep_result = finished.get((case.platform, dep_name))
        if dep_result is None or not dep_result.passed:
            missing.append(dep_name)
        else:
            resolved[dep_name] = dep_result
    if missing:
        failure = CaseResult(case=case)
        failure.failing_stage = "setup"
        failure.failure_reason = (
            f"dependencies not satisfied on {case.platform}: "
            f"{', '.join(missing)}"
        )
        return failure
    case.test.dependency_results = resolved
    return None


def _case_duration(result: CaseResult) -> float:
    """The simulated seconds one finished case spent doing work."""
    return float(result.job_seconds) + float(result.build_seconds)


@dataclass
class SpeculationPolicy:
    """Straggler mitigation: speculative duplicates for slow cases.

    When a case's duration exceeds ``straggler_factor x`` the running
    median duration of its completed peers (and at least ``min_peers``
    peers have completed -- a median of one case is noise), one
    speculative duplicate attempt is launched.  *First completion wins*
    on the simulated timeline -- i.e. the attempt with the smaller
    duration -- with a deterministic tie-break preferring the original,
    and a failing duplicate never displaces a passing original.  Only
    the accepted attempt is ever streamed to ``on_result``, so perflog
    rows and journal entries stay single-writer and the output is
    byte-identical to a serial, speculation-free run.

    Why a duplicate can be faster: transient ``slow`` faults clear on
    the next attempt, and health-aware allocation steers the duplicate
    away from nodes that have since been drained.
    """

    straggler_factor: float = 2.0
    #: completed peers needed before the median is trusted
    min_peers: int = 3
    #: simulated duration of a finished case
    duration_of: Callable[[CaseResult], float] = _case_duration

    def __post_init__(self) -> None:
        if self.straggler_factor <= 1.0:
            raise ValueError(
                f"straggler_factor must be > 1, got {self.straggler_factor}"
            )
        if self.min_peers < 1:
            raise ValueError("min_peers must be >= 1")

    # runtime state (campaign-scoped, lock-protected: the consuming loop
    # is single-threaded but shared policies may outlive one run_waves)
    _durations: List[float] = field(default_factory=list, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def note_completed(self, result: CaseResult) -> None:
        """Feed one *accepted* result into the running median."""
        if result.resumed or (not result.passed and not result.skipped):
            return  # replayed/failed cases say nothing about healthy pace
        if result.skipped:
            return
        with self._lock:
            self._durations.append(self.duration_of(result))

    def is_straggler(self, result: CaseResult) -> bool:
        """Whether *result* ran suspiciously slower than its peers."""
        if result.resumed or not result.passed:
            return False  # failures go through the retry path instead
        with self._lock:
            if len(self._durations) < self.min_peers:
                return False
            median = statistics.median(self._durations)
        if median <= 0:
            return False
        return self.duration_of(result) > self.straggler_factor * median

    def choose(
        self, original: CaseResult, duplicate: CaseResult
    ) -> CaseResult:
        """First completion wins; ties (and failures) keep the original."""
        if not duplicate.passed:
            return original
        if self.duration_of(duplicate) < self.duration_of(original):
            return duplicate
        return original


def _speculate(
    case: TestCase,
    original: CaseResult,
    runner: Callable[[TestCase], CaseResult],
    policy: SpeculationPolicy,
) -> CaseResult:
    """Run one speculative duplicate and return the accepted attempt.

    Exactly one of the two attempts is returned (and thus perflogged /
    journaled); the loser is dropped on the floor, mirroring how a real
    speculative executor cancels the slower clone.  The accepted result
    is annotated for provenance either way.
    """
    duplicate = runner(case)
    winner = policy.choose(original, duplicate)
    winner.speculated = True
    winner.speculation_won = winner is duplicate
    return winner


def run_waves(
    ordered: Sequence[TestCase],
    case_runner: Callable[[TestCase], CaseResult],
    workers: int = 1,
    on_result: Optional[Callable[[CaseResult], None]] = None,
    speculation: Optional[SpeculationPolicy] = None,
    on_wave: Optional[Callable[[int, int], None]] = None,
) -> List[CaseResult]:
    """Execute a topologically-ordered campaign wave by wave.

    ``workers == 1`` degenerates to the serial policy (no pool, no
    threads); ``workers > 1`` runs each wave on a thread pool.  Results
    come back in input order regardless of completion order, and
    ``on_result`` streams in that order too -- *per case*, as soon as the
    case's result is available in order (not batched at wave boundaries),
    so a crash-safe observer (the executor's journal) has every finished
    case on disk before the next one is consumed.  In serial mode the
    result iterator is lazy, so ``on_result`` for case *k* fires strictly
    before case *k+1* starts running.

    Robustness: ``case_runner`` is wrapped so that any unexpected
    exception (``run_case`` is itself hardened, but observers and
    wrappers stacked on top of it may not be) becomes a structured
    infrastructure-failure :class:`CaseResult` instead of tearing down
    the whole campaign.  :class:`~repro.runner.resilience.CampaignAborted`
    is a ``BaseException`` precisely so it cuts through this guard --
    it is the circuit breaker's deliberate stop signal.

    Straggler mitigation: with a ``speculation`` policy, a case whose
    duration exceeds ``straggler_factor x`` the running median of its
    completed peers gets one speculative duplicate; the accepted attempt
    (first simulated completion, original preferred on ties) is the
    *only* one published to results/``on_result``, so downstream
    perflog/journal writers never see a double write.  Speculation
    decisions are made in the deterministic consumption order, so serial
    and async campaigns speculate identically.

    Observability: ``on_wave(index, size)`` fires once per wavefront,
    before any of its cases is dispatched, in deterministic wave order
    (the tracer's campaign track marks wave boundaries with it).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results: List[Optional[CaseResult]] = [None] * len(ordered)
    finished: Dict[FinishedKey, CaseResult] = {}
    dep_failed: set = set()

    def guarded(case: TestCase) -> CaseResult:
        try:
            return case_runner(case)
        except Exception as exc:  # CampaignAborted passes through
            return infra_failure(case, exc)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for wave_index, wave in enumerate(dependency_waves(ordered)):
            if on_wave is not None:
                on_wave(wave_index, len(wave))
            runnable: List[TestCase] = []
            for i in wave:
                failure = resolve_dependencies(ordered[i], finished)
                if failure is not None:
                    results[i] = failure
                    dep_failed.add(i)
                else:
                    runnable.append(ordered[i])
            if pool is not None and len(runnable) > 1:
                result_iter = pool.map(guarded, runnable)
            else:
                result_iter = map(guarded, runnable)  # lazy: serial policy
            # Consume the wave in input order.  Cases that failed
            # dependency resolution already hold a result; runnable ones
            # are pulled from the (in-order) iterator.  Producer results
            # are published as soon as they arrive -- intra-wave cases
            # are independent by construction, so no same-wave consumer
            # can observe them early -- and ``on_result`` fires per case
            # in the exact serial sequence.
            for i in wave:
                if i in dep_failed:
                    result = results[i]
                else:
                    result = next(result_iter)
                    if speculation is not None and speculation.is_straggler(
                        result  # type: ignore[arg-type]
                    ):
                        result = _speculate(
                            ordered[i],
                            result,  # type: ignore[arg-type]
                            guarded,
                            speculation,
                        )
                    results[i] = result
                    key = (
                        ordered[i].platform,
                        type(ordered[i].test).base_name(),
                    )
                    finished[key] = result  # last duplicate key wins
                    if speculation is not None:
                        speculation.note_completed(
                            result  # type: ignore[arg-type]
                        )
                if on_result is not None:
                    on_result(result)  # type: ignore[arg-type]
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return results  # type: ignore[return-value]
