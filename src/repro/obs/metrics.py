"""A process-local metrics registry: counters, gauges, histograms.

Before this PR the campaign's operational counters were scattered --
``RunReport`` summary properties (Retried/Resumed/Quarantined/Hung/
Speculated/Drained), ``CacheStats`` on the concretization memo,
``ResultStoreStats`` on the case result store, heartbeat tallies on the
watchdog.  The :class:`MetricsRegistry` unifies them under one namespace
so that one snapshot -- attached to :class:`~repro.core.provenance
.RunProvenance` via ``attach_metrics`` and appended to the trace file --
answers "what did this campaign *do*" without grepping four objects.

Zero dependencies, deterministic snapshots (sorted keys, counters are
order-independent sums), thread-safe (async campaigns increment from
worker threads).  Histograms use **fixed bucket boundaries**, so two
campaigns that did the same simulated work produce byte-identical
histogram snapshots regardless of execution policy; percentiles are
bucket-upper-bound estimates (the standard fixed-bucket trade-off).

Naming convention (the metrics catalogue in DESIGN.md section 7):
dotted paths, ``<layer>.<thing>[.<outcome>]`` --
``cases.passed``, ``retry.attempts_extra``, ``concretize.hits``,
``sched.queue_seconds`` (histogram), ``watchdog.heartbeats``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "HitStats",
    "MetricsRegistry",
]

#: default histogram boundaries for simulated-seconds durations: fine
#: below a minute (stage costs), coarse up to an hour (whole campaigns)
DURATION_BUCKETS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0, 600.0, 1800.0, 3600.0,
)

#: percentiles every histogram snapshot reports
_PERCENTILES = (50, 90, 99)


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with percentile estimates.

    ``boundaries`` are inclusive upper bounds; one implicit ``+inf``
    bucket catches the overflow.  ``observe`` is O(log buckets); the
    snapshot reports count/sum/min/max, the per-bucket tallies and
    bucket-resolution p50/p90/p99 (the percentile estimate is the upper
    bound of the bucket containing that rank -- clamped to the observed
    max so a half-empty top bucket cannot inflate it).
    """

    __slots__ = ("name", "boundaries", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 boundaries: Sequence[float] = DURATION_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name}: boundaries must be strictly increasing"
            )
        self.name = name
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Bucket-resolution estimate of the *q*-th percentile (0-100)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            return self._percentile_unlocked(q)

    def _percentile_unlocked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        seen = 0
        for i, n in enumerate(self._counts):
            seen += n
            if seen >= rank and n:
                upper = (
                    self.boundaries[i]
                    if i < len(self.boundaries)
                    else (self._max if self._max is not None else 0.0)
                )
                if self._max is not None:
                    upper = min(upper, self._max)
                return upper
        return self._max if self._max is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            buckets: Dict[str, int] = {}
            for i, n in enumerate(self._counts):
                label = (
                    f"{self.boundaries[i]:g}"
                    if i < len(self.boundaries) else "+inf"
                )
                buckets[label] = n
            out: Dict[str, Any] = {
                "count": self._count,
                "sum": round(self._sum, 9),
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }
            for q in _PERCENTILES:
                out[f"p{q}"] = self._percentile_unlocked(q)
            return out


class MetricsRegistry:
    """A namespace of metrics, created on first touch.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get-or-
    create; asking for an existing name with a different instrument
    type is an error (one name, one meaning).  ``snapshot()`` renders
    the whole registry as a plain, deterministic, JSON-able dict --
    what lands in provenance and in the trace file's final record.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args: Any):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  boundaries: Sequence[float] = DURATION_BUCKETS) -> Histogram:
        return self._get(name, Histogram, boundaries)

    # -- bulk ingestion ------------------------------------------------------
    def merge_counts(self, prefix: str, counts: Dict[str, Any]) -> None:
        """Fold a plain ``{key: int}`` dict in as ``prefix.key`` counters.

        The adapter :meth:`HitStats.publish` folds through: rates and
        other non-integer values are skipped -- they are derivable from
        the counts and would not merge additively.
        """
        for key, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            if value < 0:
                continue
            self.counter(f"{prefix}.{key}").add(value)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict from another registry into this one.

        The fleet-aggregation primitive: each campaign's run produces
        its own registry snapshot, and the supervisor folds them into
        one fleet registry.  Counters add; gauges take the incoming
        value (last write wins, matching single-registry semantics);
        histograms merge bucket tallies, counts, sums and min/max --
        exact for everything except the percentile estimates, which
        stay bucket-resolution by construction.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self.counter(name).add(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(float(value))
        for name, data in (snapshot.get("histograms") or {}).items():
            buckets = data.get("buckets") or {}
            labels = [b for b in buckets if b != "+inf"]
            boundaries = (
                sorted(float(b) for b in labels)
                if labels else DURATION_BUCKETS
            )
            hist = self.histogram(name, boundaries)
            incoming_bounds = tuple(float(b) for b in boundaries)
            if hist.boundaries != incoming_bounds:
                raise ValueError(
                    f"histogram {name!r}: cannot merge snapshot with "
                    f"different bucket boundaries"
                )
            with hist._lock:
                for i, bound in enumerate(hist.boundaries):
                    hist._counts[i] += int(buckets.get(f"{bound:g}", 0))
                hist._counts[-1] += int(buckets.get("+inf", 0))
                hist._count += int(data.get("count", 0))
                hist._sum += float(data.get("sum", 0.0))
                for key, pick in (("min", min), ("max", max)):
                    incoming = data.get(key)
                    if incoming is None:
                        continue
                    current = getattr(hist, f"_{key}")
                    setattr(
                        hist, f"_{key}",
                        float(incoming) if current is None
                        else pick(current, float(incoming)),
                    )

    # -- snapshots -----------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            items = sorted(self._metrics.items())
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, metric in items:
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[name] = metric.as_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    as_dict = snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self)} metrics)"


class HitStats:
    """Hit/miss accounting for one cache, published as ``PREFIX.*``.

    The base of the caches' stats objects (``CacheStats``,
    ``ResultStoreStats``).  A subclass lists its integer counters in
    ``FIELDS``, in :meth:`as_dict` order, which ends with ``hit_rate``
    rounded to four places.  ``PREFIX`` is the metrics namespace.
    """

    FIELDS: Tuple[str, ...]
    PREFIX: str

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        doc = {name: getattr(self, name) for name in self.FIELDS}
        doc["hit_rate"] = round(self.hit_rate, 4)
        return doc

    def publish(self, registry: MetricsRegistry,
                prefix: Optional[str] = None) -> None:
        """Fold the counts into *registry* as ``prefix.*`` counters.

        ``hit_rate`` is skipped by :meth:`MetricsRegistry.merge_counts`:
        it is derivable from the counts and would not merge.
        """
        registry.merge_counts(prefix or self.PREFIX, self.as_dict())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"
