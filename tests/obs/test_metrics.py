"""Tests for the metrics registry (repro.obs.metrics)."""

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_add_accumulates(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_thread_safety(self):
        c = Counter("x")
        threads = [
            threading.Thread(target=lambda: [c.add() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("h")
        for v in (0.05, 2.0, 700.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["min"] == 0.05 and d["max"] == 700.0
        assert d["sum"] == pytest.approx(702.05)

    def test_bucket_assignment(self):
        h = Histogram("h", boundaries=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        buckets = h.as_dict()["buckets"]
        assert buckets == {"1": 2, "10": 1, "+inf": 1}

    def test_percentiles_clamped_to_max(self):
        h = Histogram("h", boundaries=(1.0, 10.0, 100.0))
        for _ in range(10):
            h.observe(2.0)
        # bucket upper bound is 10, but the observed max is 2.0
        assert h.percentile(50) == 2.0
        assert h.percentile(99) == 2.0

    def test_empty_percentile_zero(self):
        assert Histogram("h").percentile(90) == 0.0

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5,
                              allow_nan=False), min_size=1, max_size=50))
    def test_percentile_bounds_property(self, values):
        """Any percentile estimate lies within [0, observed max]."""
        h = Histogram("h")
        for v in values:
            h.observe(v)
        for q in (0, 50, 90, 99, 100):
            assert 0.0 <= h.percentile(q) <= max(values)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_is_sorted_and_json_able(self):
        reg = MetricsRegistry()
        reg.counter("z.count").add(2)
        reg.counter("a.count").add(1)
        reg.gauge("m.g").set(0.5)
        reg.histogram("h.d").observe(3.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.count", "z.count"]
        json.dumps(snap)  # must be plain data

    def test_snapshot_order_independent(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("a").add(1)
        r1.counter("b").add(2)
        r2.counter("b").add(2)
        r2.counter("a").add(1)
        assert r1.snapshot() == r2.snapshot()

    def test_merge_counts_skips_non_ints(self):
        reg = MetricsRegistry()
        reg.merge_counts("cache", {
            "hits": 3, "misses": 1, "hit_rate": 0.75,
            "enabled": True, "negative": -2,
        })
        counters = reg.snapshot()["counters"]
        assert counters == {"cache.hits": 3, "cache.misses": 1}

    def test_merge_counts_is_additive(self):
        reg = MetricsRegistry()
        reg.merge_counts("c", {"hits": 1})
        reg.merge_counts("c", {"hits": 2})
        assert reg.counter("c.hits").value == 3

    def test_default_buckets_strictly_increasing(self):
        assert list(DURATION_BUCKETS) == sorted(set(DURATION_BUCKETS))


class TestStatsPublishers:
    """The legacy stats objects fold into the unified namespace."""

    def test_cache_stats_publish(self):
        from repro.pkgmgr.memo import CacheStats

        stats = CacheStats()
        stats.hits = 3
        stats.misses = 2
        reg = MetricsRegistry()
        stats.publish(reg)
        counters = reg.snapshot()["counters"]
        assert counters["concretize.hits"] == 3
        assert counters["concretize.misses"] == 2
        assert "concretize.hit_rate" not in counters  # derivable, skipped

    def test_store_stats_publish(self):
        from repro.postprocess.store import StoreStats

        stats = StoreStats()
        stats.misses = 4
        reg = MetricsRegistry()
        stats.publish(reg)
        assert reg.snapshot()["counters"]["ingest.misses"] == 4

    def test_stats_dict_key_order_is_pinned(self):
        """Provenance, metrics and --cache-stats bytes follow this order."""
        from repro.pkgmgr.memo import CacheStats
        from repro.postprocess.store import StoreStats
        from repro.runner.results import ResultStoreStats

        assert list(CacheStats().as_dict()) == [
            "hits", "misses", "evictions", "hit_rate"]
        assert list(StoreStats().as_dict()) == [
            "full_hits", "partial_hits", "hits", "misses", "invalidations",
            "bytes_parsed", "bytes_reused", "rows_parsed", "rows_reused",
            "hit_rate", "byte_reuse_rate"]
        assert list(ResultStoreStats().as_dict()) == [
            "hits", "misses", "invalidated", "corrupted", "evictions",
            "puts", "hit_rate"]

    def test_derived_counts_and_rates(self):
        from repro.postprocess.store import StoreStats
        from repro.runner.results import ResultStoreStats

        stats = StoreStats()
        stats.full_hits, stats.partial_hits, stats.misses = 2, 1, 1
        stats.bytes_parsed, stats.bytes_reused = 1, 2
        doc = stats.as_dict()
        assert (doc["hits"], doc["hit_rate"], doc["byte_reuse_rate"]) == \
            (3, 0.75, 0.6667)
        reg = MetricsRegistry()
        stats.publish(reg)
        counters = reg.snapshot()["counters"]
        assert counters["ingest.hits"] == 3  # a derived count still merges
        assert "ingest.byte_reuse_rate" not in counters
        rs = ResultStoreStats()
        rs.hits, rs.misses = 1, 3
        rs.publish(reg)
        assert reg.snapshot()["counters"]["resultstore.misses"] == 3
        assert rs.lookups == 4 and rs.hit_rate == 0.25


class TestMergeSnapshot:
    """Fleet-aggregation edge cases: merge_snapshot must stay exact."""

    def test_empty_snapshot_is_a_no_op(self):
        reg = MetricsRegistry()
        reg.counter("cases.total").add(3)
        before = reg.snapshot()
        reg.merge_snapshot({})
        reg.merge_snapshot({"counters": None, "gauges": None,
                           "histograms": None})
        assert reg.snapshot() == before

    def test_counters_add_but_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.counter("cases.total").add(2)
        reg.gauge("fleet.occupancy").set(3.0)
        reg.merge_snapshot({
            "counters": {"cases.total": 5},
            "gauges": {"fleet.occupancy": 1.0},
        })
        snap = reg.snapshot()
        assert snap["counters"]["cases.total"] == 7  # additive
        assert snap["gauges"]["fleet.occupancy"] == 1.0  # last write wins

    def test_bool_and_non_int_counters_skipped(self):
        reg = MetricsRegistry()
        reg.merge_snapshot({
            "counters": {"ok": True, "rate": 0.5, "real": 2},
        })
        counters = reg.snapshot()["counters"]
        assert counters == {"real": 2}

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("sched.job_seconds", [1.0, 2.0]).observe(1.5)
        incoming = {
            "histograms": {
                "sched.job_seconds": {
                    "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5,
                    "buckets": {"0.5": 1, "4": 0, "+inf": 0},
                },
            },
        }
        with pytest.raises(ValueError, match="bucket boundaries"):
            reg.merge_snapshot(incoming)

    def test_histogram_merge_is_exact_for_tallies(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.05, 2.0):
            a.histogram("h").observe(v)
        for v in (700.0,):
            b.histogram("h").observe(v)
        a.merge_snapshot(b.snapshot())
        merged = a.snapshot()["histograms"]["h"]
        one = MetricsRegistry()
        for v in (0.05, 2.0, 700.0):
            one.histogram("h").observe(v)
        assert merged == one.snapshot()["histograms"]["h"]

    def test_merge_into_fresh_registry_reproduces_snapshot(self):
        src = MetricsRegistry()
        src.counter("cases.total").add(4)
        src.gauge("g").set(2.5)
        src.histogram("h").observe(1.0)
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        assert dst.snapshot() == src.snapshot()
