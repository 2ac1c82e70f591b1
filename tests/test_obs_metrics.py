"""Metrics registry: counters, gauges, histogram quantiles, thread safety."""

import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        counter = Counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("ops").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_summary_tracks_exact_sum_count_min_max(self):
        histogram = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 16.0
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == 4.0

    def test_quantiles_within_bucket_resolution(self):
        histogram = Histogram("latency")
        values = [float(v) for v in range(1, 1001)]  # uniform 1..1000
        for value in values:
            histogram.observe(value)

        def bucket_width(true_value):
            bounds = (0.0,) + histogram.bounds + (float("inf"),)
            for lo, hi in zip(bounds, bounds[1:]):
                if lo < true_value <= hi:
                    return hi - lo
            return float("inf")

        for q, true_value in ((0.50, 500.0), (0.95, 950.0), (0.99, 990.0)):
            estimate = histogram.quantile(q)
            assert abs(estimate - true_value) <= bucket_width(true_value), (
                f"p{int(q * 100)} estimate {estimate} too far from {true_value}"
            )

    def test_quantile_single_value(self):
        histogram = Histogram("latency")
        histogram.observe(42.0)
        assert histogram.quantile(0.5) == pytest.approx(42.0)
        assert histogram.quantile(1.0) == pytest.approx(42.0)

    def test_quantile_empty_histogram(self):
        assert Histogram("latency").quantile(0.5) == 0.0

    def test_quantile_validates_q(self):
        with pytest.raises(ValueError):
            Histogram("latency").quantile(0.0)
        with pytest.raises(ValueError):
            Histogram("latency").quantile(1.5)

    def test_overflow_bucket(self):
        histogram = Histogram("latency", buckets=(1.0, 10.0))
        histogram.observe(1e9)
        cumulative = dict(histogram.bucket_counts())
        assert cumulative[float("inf")] == 1
        assert cumulative[10.0] == 0
        assert histogram.quantile(1.0) == pytest.approx(1e9)

    def test_custom_buckets_sorted_and_deduped(self):
        histogram = Histogram("latency", buckets=(10.0, 1.0, 10.0))
        assert histogram.bounds == (1.0, 10.0)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("latency", buckets=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3
        assert "a" in registry and "z" not in registry

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(2.5)
        snapshot = registry.snapshot()
        assert snapshot["ops"] == {"type": "counter", "value": 3}
        assert snapshot["depth"] == {"type": "gauge", "value": 7}
        assert snapshot["lat"]["type"] == "histogram"
        assert snapshot["lat"]["count"] == 1

    def test_reset(self):
        """Reset zeroes counters and histograms in place and keeps every
        registration, so an instrument bound before it keeps exporting;
        a gauge keeps its value."""
        registry = MetricsRegistry()
        ops = registry.counter("ops")
        ops.inc(3)
        lat = registry.histogram("lat")
        lat.observe(2.5)
        depth = registry.gauge("depth")
        depth.set(7)
        registry.reset()
        assert len(registry) == 3
        assert registry.counter("ops") is ops and ops.value == 0
        assert registry.histogram("lat") is lat
        assert lat.summary() == registry.histogram("fresh").summary()
        assert lat.bucket_counts()[-1] == (float("inf"), 0)
        assert registry.gauge("depth") is depth and depth.value == 7
        ops.inc()
        lat.observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["ops"]["value"] == 1
        assert snapshot["lat"]["count"] == 1 and snapshot["lat"]["min"] == 1.0

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        num_threads, increments = 8, 2000

        def work():
            counter = registry.counter("shared")
            histogram = registry.histogram("lat")
            for index in range(increments):
                counter.inc()
                histogram.observe(float(index % 50))

        threads = [threading.Thread(target=work) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared").value == num_threads * increments
        assert registry.histogram("lat").count == num_threads * increments

    def test_default_buckets_cover_millisecond_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 60000.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
