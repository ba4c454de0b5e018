"""Outside-in per-layer tracing for the benchmark's traced run.

The program under test is a black box: nothing inside ``src/`` records
spans.  Instead :class:`LayerPatches` replaces, for the duration of one
traced pass, the bindings through which one layer calls the next -- a
module attribute the caller looks up at call time (the executor calls
``run_case`` by its imported name, so the wrapper goes on
``repro.runner.executor.run_case``), or a method on the class that
defines it.  Each wrapper opens a span on :class:`SpanClock`, whose
stacks are kept per thread, so a layer's *self* time is its span's
duration minus the spans it called on the same thread.  Every patch is
undone by :meth:`LayerPatches.restore`, leaving untraced runs with no
wrapper in the call path.

:func:`layer_metrics` folds the spans into the per-layer metrics named
in ``BENCHMARK.json``; :data:`LAYERS` says which metrics belong to which
module, so a layer a workload never called is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: layer (named by its module) -> the per-layer metrics it owns
LAYERS: Dict[str, Tuple[str, ...]] = {
    "executor": ("executor.expand_s", "executor.self_s"),
    "runner.parallel": ("parallel.run_waves_s", "parallel.idle_s"),
    "runner.pipeline": (
        "pipeline.cases", "pipeline.run_case_s", "pipeline.self_s",
        "pipeline.case_p50_ms", "pipeline.case_p99_ms",
        "pipeline.attempts_per_case",
    ),
    "scheduler": (
        "scheduler.build_s", "scheduler.submit_s", "scheduler.wait_s",
        "scheduler.events", "allocation.allocate_s", "allocation.calls",
    ),
    "pkgmgr": (
        "pkgmgr.concretize_s", "pkgmgr.concretize_calls",
        "pkgmgr.memo_hit_rate", "pkgmgr.install_s", "pkgmgr.packages_built",
    ),
    "apps": ("apps.program_s",),
    "machine": (
        "machine.telemetry_s", "machine.rng_s", "machine.rng_calls",
    ),
    "runner.sanity": ("sanity.check_s",),
    "runner.perflog": (
        "perflog.emit_s", "perflog.flush_s", "perflog.flushes",
        "perflog.rows", "perflog.bytes",
    ),
    "runner.resilience": (
        "journal.write_s", "journal.records", "journal.compact_s",
        "resilience.fingerprint_s",
    ),
    "obs.trace": ("trace.flush_s", "trace.spans"),
    "runner.results": (
        "results.key_s", "results.lookup_s", "results.hits",
        "results.hit_rate", "results.replay_s", "results.put_s",
        "results.flush_s",
    ),
    "postprocess": (
        "postprocess.read_s", "postprocess.files", "postprocess.rows",
        "postprocess.groupby_s",
    ),
    # the fleet/incremental probes' own payload: benchmark code, not a
    # layer of the program, but timed so it is not left unattributed
    "probe": ("probe.program_s",),
    "coverage": ("unattributed_s", "trace_overhead"),
}

#: metric name -> unit, for every per-layer metric
UNITS: Dict[str, str] = {
    name: (
        "s" if name.endswith("_s") else
        "ms" if name.endswith("_ms") else
        "ratio" if name.endswith(("_rate", "_overhead", "_per_case")) else
        "bytes" if name.endswith(".bytes") else
        "count"
    )
    for names in LAYERS.values() for name in names
}

#: span names each layer's wrappers open (a layer is present when any
#: of them was entered at least once)
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "executor": ("executor.expand", "executor.run_cases"),
    "runner.parallel": ("parallel.run_waves",),
    "runner.pipeline": ("pipeline.run_case",),
    "scheduler": ("scheduler.build", "scheduler.submit", "scheduler.wait",
                  "allocation"),
    "pkgmgr": ("pkgmgr.concretize", "pkgmgr.install"),
    "apps": ("apps.program",),
    "machine": ("machine.telemetry", "machine.rng"),
    "runner.sanity": ("sanity",),
    "runner.perflog": ("perflog.emit", "perflog.flush"),
    "runner.resilience": ("journal.write", "journal.compact",
                          "resilience.fingerprint"),
    "obs.trace": ("trace.flush",),
    "runner.results": ("results.key", "results.lookup", "results.replay",
                       "results.put", "results.flush"),
    "postprocess": ("postprocess.read", "postprocess.groupby"),
    "probe": ("probe.program",),
}


class _ThreadSpans:
    """One thread's span stack and accumulators."""

    __slots__ = ("main", "stack", "self_s", "total_s", "calls", "counts",
                 "durations")

    def __init__(self, main: bool):
        self.main = main
        #: open spans: [name, start, time covered by finished children]
        self.stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}

    def push(self, name: str, now: float) -> None:
        self.stack.append([name, now, 0.0])

    def pop(self, now: float, keep: bool = False) -> None:
        name, start, children = self.stack.pop()
        elapsed = now - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
        self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        if keep:
            self.durations.setdefault(name, []).append(elapsed)
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class SpanClock:
    """Per-thread span stacks, merged on demand."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._main = threading.main_thread()

    def thread(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread() is self._main)
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def threads(self) -> List[_ThreadSpans]:
        with self._lock:
            return list(self._threads)

    def total(self, attr: str, main: Optional[bool] = None) -> Dict[str, Any]:
        """``attr`` (``self_s``/``total_s``/``calls``/``counts``) summed
        over threads; ``main`` restricts to the main or the other threads."""
        out: Dict[str, Any] = {}
        for spans in self.threads():
            if main is not None and spans.main != main:
                continue
            for name, value in getattr(spans, attr).items():
                out[name] = out.get(name, 0) + value
        return out

    def durations(self, name: str) -> List[float]:
        out: List[float] = []
        for spans in self.threads():
            out.extend(spans.durations.get(name, ()))
        return out


# -- wrappers ---------------------------------------------------------------

#: hook run after a wrapped call returns: (thread spans, args, result)
After = Callable[[_ThreadSpans, tuple, Any], None]


def spanned(clock: SpanClock, name: str, fn: Callable,
            after: Optional[After] = None, keep: bool = False) -> Callable:
    """``fn`` inside a span called ``name`` (``keep``: per-call times)."""
    now = clock.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = clock.thread()
        spans.push(name, now())
        try:
            out = fn(*args, **kwargs)
        finally:
            spans.pop(now(), keep)
        if after is not None:
            after(spans, args, out)
        return out

    return wrapper


def counted(clock: SpanClock, fn: Callable, after: After) -> Callable:
    """``fn`` with a counting hook but no span (its time stays with the
    enclosing span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(clock.thread(), args, out)
        return out

    return wrapper


class LayerPatches:
    """Installs wrappers on module bindings and class methods; undoes them."""

    def __init__(self, clock: SpanClock):
        self.clock = clock
        self._undo: List[Tuple[Any, str, Any]] = []
        self._done: set = set()

    def _swap(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        key = (id(owner), attr)
        if key in self._done:
            return
        raw = vars(owner)[attr]
        setattr(owner, attr, make(raw))
        self._undo.append((owner, attr, raw))
        self._done.add(key)

    def span(self, owner: Any, attr: str, name: str,
             after: Optional[After] = None, keep: bool = False) -> None:
        self._swap(owner, attr,
                   lambda fn: spanned(self.clock, name, fn, after, keep))

    def count(self, owner: Any, attr: str, after: After) -> None:
        self._swap(owner, attr, lambda fn: counted(self.clock, fn, after))

    @property
    def installed(self) -> List[Tuple[Any, str, Any]]:
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        self._done.clear()


def _add(counter: str, measure: Callable[[tuple, Any], float]) -> After:
    return lambda spans, args, out: spans.count(counter, measure(args, out))


def install_layers(patches: LayerPatches,
                   test_classes: Sequence[type] = ()) -> None:
    """Wrap every layer boundary the per-layer metrics need.

    ``test_classes`` are the workload's benchmark classes: their
    ``program`` and sanity/performance methods are wrapped on whichever
    class in the MRO defines them.
    """
    executor = importlib.import_module("repro.runner.executor")
    pipeline = importlib.import_module("repro.runner.pipeline")
    resilience = importlib.import_module("repro.runner.resilience")
    results = importlib.import_module("repro.runner.results")
    perflog = importlib.import_module("repro.runner.perflog")
    sched = importlib.import_module("repro.scheduler.base")
    events = importlib.import_module("repro.scheduler.events")
    allocation = importlib.import_module("repro.scheduler.allocation")
    concretizer = importlib.import_module("repro.pkgmgr.concretizer")
    installer = importlib.import_module("repro.pkgmgr.installer")
    clock_mod = importlib.import_module("repro.machine.clock")
    trace = importlib.import_module("repro.obs.trace")
    reader = importlib.import_module("repro.postprocess.perflog_reader")
    dataframe = importlib.import_module("repro.postprocess.dataframe")

    ex = executor.Executor
    patches.span(ex, "expand_cases", "executor.expand")
    patches.span(ex, "run_cases", "executor.run_cases")
    patches.span(executor, "run_waves", "parallel.run_waves")
    patches.span(executor, "run_case", "pipeline.run_case", keep=True,
                 after=_add("pipeline.attempts", lambda a, r: r.attempts))

    patches.span(pipeline, "make_scheduler", "scheduler.build")
    patches.span(sched.BatchScheduler, "submit", "scheduler.submit")
    patches.span(sched.BatchScheduler, "wait_all", "scheduler.wait")
    patches.count(events.EventQueue, "run_until_idle",
                  _add("scheduler.events", lambda a, n: n))
    patches.span(allocation.NodePool, "allocate", "allocation")
    patches.span(allocation.NodePool, "release", "allocation")

    patches.span(concretizer.Concretizer, "concretize", "pkgmgr.concretize",
                 after=_add("pkgmgr.memo_hits",
                            lambda a, r: bool(a[0].last_cache_hit)))
    patches.span(installer.Installer, "install", "pkgmgr.install",
                 after=_add("pkgmgr.packages_built",
                            lambda a, recs: sum(r.fresh for r in recs)))

    patches.span(pipeline, "capture_telemetry", "machine.telemetry")
    patches.span(clock_mod.DeterministicRNG, "__init__", "machine.rng")
    for cls in test_classes:
        for klass in cls.__mro__:
            if klass is object:
                continue
            owned = vars(klass)
            if "program" in owned:
                layer = ("apps.program"
                         if klass.__module__.startswith("repro.apps.")
                         else "probe.program")
                patches.span(klass, "program", layer)
            for attr in ("check_sanity", "extract_performance",
                         "check_references"):
                if attr in owned:
                    patches.span(klass, attr, "sanity")

    ph = perflog.PerflogHandler
    patches.span(ph, "emit", "perflog.emit",
                 after=_add("perflog.rows",
                            lambda a, _: len(a[0].last_emit[1])))
    patches.span(ph, "emit_replay", "perflog.emit",
                 after=_add("perflog.rows", lambda a, _: len(a[2])))
    patches.span(ph, "flush", "perflog.flush")

    cj = resilience.CampaignJournal
    patches.span(cj, "record_many", "journal.write",
                 after=_add("journal.records", lambda a, _: len(a[1])))
    patches.span(cj, "compact", "journal.compact")
    for module in (executor, results, resilience):
        patches.span(module, "case_fingerprint", "resilience.fingerprint")
    patches.span(results, "content_address", "resilience.fingerprint")
    patches.span(results, "benchmark_source_hash", "resilience.fingerprint")

    patches.span(trace.Tracer, "flush", "trace.flush")
    patches.span(trace.Tracer, "write_metrics", "trace.flush")

    store = results.CaseResultStore
    patches.span(store, "key_for", "results.key")
    patches.span(store, "lookup", "results.lookup",
                 after=_add("results.hits", lambda a, e: e is not None))
    patches.span(executor, "replay_result", "results.replay")
    patches.span(store, "put", "results.put")
    patches.span(store, "flush", "results.flush")

    patches.span(reader, "read_perflogs", "postprocess.read",
                 after=_add("postprocess.rows", lambda a, frame: len(frame)))
    patches.count(reader, "read_perflog",
                  _add("postprocess.files", lambda a, _: 1))
    patches.span(dataframe.DataFrame, "groupby", "postprocess.groupby")


# -- metrics ----------------------------------------------------------------

def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(clock: SpanClock, wall_s: float, workers: int,
                  extra_counts: Optional[Dict[str, float]] = None
                  ) -> Tuple[Dict[str, float], List[str], float]:
    """Per-layer metrics of one traced pass.

    Returns ``(metrics, absent layers, denominator)``.  The denominator
    is the pass's wall time, or its thread-seconds when cases ran on
    worker threads (wall plus ``workers`` x the ``run_waves`` wall): the
    base that layer shares and ``unattributed_s`` refer to.
    ``extra_counts`` carries counts the workload read from its own
    artifacts (``perflog.bytes``, ``trace.spans``).
    """
    self_s = clock.total("self_s")
    total_s = clock.total("total_s")
    calls = clock.total("calls")
    counts = clock.total("counts")
    counts.update(extra_counts or {})

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    case_ms = [d * 1000.0 for d in clock.durations("pipeline.run_case")]
    cases = n("pipeline.run_case")
    lookups = n("results.lookup")
    concretizes = n("pkgmgr.concretize")
    run_waves_wall = total_s.get("parallel.run_waves", 0.0)
    idle = workers * run_waves_wall - total_s.get("pipeline.run_case", 0.0)
    threaded = "pipeline.run_case" in clock.total("calls", main=False)
    denominator = wall_s + (workers * run_waves_wall if threaded else 0.0)
    attributed = sum(self_s.values()) + (idle if threaded else 0.0)

    metrics: Dict[str, float] = {
        "executor.expand_s": s("executor.expand"),
        "executor.self_s": s("executor.run_cases"),
        "parallel.run_waves_s": s("parallel.run_waves"),
        "parallel.idle_s": idle,
        "pipeline.cases": cases,
        "pipeline.run_case_s": total_s.get("pipeline.run_case", 0.0),
        "pipeline.self_s": s("pipeline.run_case"),
        "pipeline.case_p50_ms": _quantile(case_ms, 0.50) if case_ms else 0.0,
        "pipeline.case_p99_ms": _quantile(case_ms, 0.99) if case_ms else 0.0,
        "pipeline.attempts_per_case": (
            counts.get("pipeline.attempts", 0) / cases if cases else 0.0),
        "scheduler.build_s": s("scheduler.build"),
        "scheduler.submit_s": s("scheduler.submit"),
        "scheduler.wait_s": s("scheduler.wait"),
        "scheduler.events": counts.get("scheduler.events", 0),
        "allocation.allocate_s": s("allocation"),
        "allocation.calls": n("allocation"),
        "pkgmgr.concretize_s": s("pkgmgr.concretize"),
        "pkgmgr.concretize_calls": concretizes,
        "pkgmgr.memo_hit_rate": (
            counts.get("pkgmgr.memo_hits", 0) / concretizes
            if concretizes else 0.0),
        "pkgmgr.install_s": s("pkgmgr.install"),
        "pkgmgr.packages_built": counts.get("pkgmgr.packages_built", 0),
        "apps.program_s": s("apps.program"),
        "machine.telemetry_s": s("machine.telemetry"),
        "machine.rng_s": s("machine.rng"),
        "machine.rng_calls": n("machine.rng"),
        "sanity.check_s": s("sanity"),
        "perflog.emit_s": s("perflog.emit"),
        "perflog.flush_s": s("perflog.flush"),
        "perflog.flushes": n("perflog.flush"),
        "perflog.rows": counts.get("perflog.rows", 0),
        "perflog.bytes": counts.get("perflog.bytes", 0),
        "journal.write_s": s("journal.write"),
        "journal.records": counts.get("journal.records", 0),
        "journal.compact_s": s("journal.compact"),
        "resilience.fingerprint_s": s("resilience.fingerprint"),
        "trace.flush_s": s("trace.flush"),
        "trace.spans": counts.get("trace.spans", 0),
        "results.key_s": s("results.key"),
        "results.lookup_s": s("results.lookup"),
        "results.hits": counts.get("results.hits", 0),
        "results.hit_rate": (
            counts.get("results.hits", 0) / lookups if lookups else 0.0),
        "results.replay_s": s("results.replay"),
        "results.put_s": s("results.put"),
        "results.flush_s": s("results.flush"),
        "postprocess.read_s": s("postprocess.read"),
        "postprocess.files": counts.get("postprocess.files", 0),
        "postprocess.rows": counts.get("postprocess.rows", 0),
        "postprocess.groupby_s": s("postprocess.groupby"),
        "probe.program_s": s("probe.program"),
        "unattributed_s": denominator - attributed,
    }
    absent = [
        layer for layer, spans in LAYER_SPANS.items()
        if not any(n(span) for span in spans)
    ]
    return metrics, absent, denominator
