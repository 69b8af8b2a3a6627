"""Unit tests for the metrics registry: instruments, rendering, snapshots."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    SIZE_BUCKETS,
)


class TestCounter:
    def test_push_counter_increments(self):
        registry = MetricsRegistry()
        c = registry.counter("reqs_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_callback_counter_reads_live_state(self):
        stats = {"sent": 0}
        registry = MetricsRegistry()
        c = registry.counter("sent_total", fn=lambda: stats["sent"])
        stats["sent"] = 7
        assert c.value == 7.0

    def test_callback_counter_rejects_inc(self):
        registry = MetricsRegistry()
        c = registry.counter("cb_total", fn=lambda: 1)
        with pytest.raises(ValueError):
            c.inc()

    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        # Distinct labels -> distinct series.
        assert registry.counter("a_total", labels={"g": "1"}) is not registry.counter(
            "a_total", labels={"g": "2"}
        )

    def test_reregistering_callback_rebinds(self):
        # A restarted component re-registers and the series must follow the
        # *new* instance, not the dead one.
        registry = MetricsRegistry()
        registry.counter("x_total", fn=lambda: 1)
        c = registry.counter("x_total", fn=lambda: 2)
        assert c.value == 2


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == 7.0

    def test_callback_gauge(self):
        pending = ["a", "b"]
        g = MetricsRegistry().gauge("pending", fn=lambda: len(pending))
        assert g.value == 2.0
        pending.clear()
        assert g.value == 0.0


class TestHistogramEdgeCases:
    def test_empty_histogram(self):
        h = Histogram("lat_ms")
        assert h.total == 0
        assert h.percentile(0.5) is None
        assert h.summary()["p99"] is None
        assert h.min is None and h.max is None

    def test_single_sample(self):
        h = Histogram("lat_ms")
        h.observe(3.0)
        assert h.total == 1
        assert h.min == 3.0 and h.max == 3.0
        # Percentile reports the bucket upper bound: conservative, <=2x off.
        p50 = h.percentile(0.5)
        assert p50 is not None and 3.0 <= p50 <= 6.0

    def test_overflow_bucket_reports_exact_max(self):
        h = Histogram("lat_ms")
        huge = DEFAULT_BUCKETS[-1] * 10
        h.observe(huge)
        assert h.overflow == 1
        assert h.percentile(0.999) == huge

    def test_percentile_ordering(self):
        h = Histogram("lat_ms")
        for v in (1.0, 2.0, 4.0, 8.0, 1000.0):
            h.observe(v)
        assert h.percentile(0.5) <= h.percentile(0.99) <= h.percentile(0.999)

    def test_invalid_quantile_rejected(self):
        h = Histogram("lat_ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-4, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        q=st.sampled_from([0.01, 0.5, 0.9, 0.99, 0.999, 1.0]),
    )
    @example(samples=[3.0] * 100, q=0.99)
    def test_percentile_brackets_exact_quantile(self, samples, q):
        # Against the exact nearest-rank quantile: the estimate never
        # under-reports it, and never leaves the observed [min, max].
        h = Histogram("lat_ms")
        for value in samples:
            h.observe(value)
        ordered = sorted(samples)
        exact = ordered[max(1, int(q * len(ordered) + 0.999999)) - 1]
        estimate = h.percentile(q)
        assert estimate is not None
        assert ordered[0] <= estimate <= ordered[-1]
        assert estimate >= exact

    def test_weighted_observation_counts_population(self):
        # 1-in-N sampled hot paths observe with weight=N; the histogram
        # must keep estimating the full population.
        h = Histogram("diff_items", bounds=SIZE_BUCKETS)
        h.observe(2.0, weight=4)
        assert h.total == 4
        assert h.sum == 8.0
        assert h.percentile(0.99) == 2.0

    def test_merge(self):
        a = Histogram("lat_ms")
        b = Histogram("lat_ms")
        a.observe(1.0)
        b.observe(100.0)
        b.observe(DEFAULT_BUCKETS[-1] * 2)  # overflow
        a.merge(b)
        assert a.total == 3
        assert a.min == 1.0
        assert a.max == DEFAULT_BUCKETS[-1] * 2
        assert a.overflow == 1

    def test_merge_rejects_different_bounds(self):
        a = Histogram("x", bounds=DEFAULT_BUCKETS)
        b = Histogram("x", bounds=SIZE_BUCKETS)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(2.0, 1.0))


class TestPrometheusRendering:
    def render(self):
        registry = MetricsRegistry()
        registry.counter(
            "reqs_total", "Requests.", labels={"group": "1"}
        ).inc(3)
        registry.gauge("depth", "Queue depth.").set(2.0)
        h = registry.histogram("lat_ms", "Latency.", bounds=(1.0, 2.0, 4.0))
        h.observe(1.5)
        h.observe(100.0)  # overflow
        return registry.render_prometheus()

    def test_headers_and_samples(self):
        text = self.render()
        assert "# HELP reqs_total Requests.\n# TYPE reqs_total counter" in text
        assert 'reqs_total{group="1"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text

    def test_histogram_series_shape(self):
        text = self.render()
        # Cumulative buckets, +Inf always present, sum and count trailers.
        assert 'lat_ms_bucket{le="2"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_sum 101.5" in text
        assert "lat_ms_count 2" in text

    def test_empty_buckets_elided_but_cumulative_correct(self):
        text = self.render()
        # The le="1" and le="4" buckets saw no samples and are elided.
        assert 'le="1"' not in text
        assert 'le="4"' not in text

    def test_text_format_is_line_oriented_and_terminated(self):
        text = self.render()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            assert line.startswith("#") or " " in line

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"path": 'a"b\\c'}).inc()
        text = registry.render_prometheus()
        assert 'path="a\\"b\\\\c"' in text

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")


class TestSnapshot:
    def test_snapshot_round_trips_through_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("g", labels={"k": "v"}).set(1.5)
        registry.histogram("h_ms").observe(4.0)
        path = tmp_path / "snap.json"
        registry.dump_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["a_total"] == 2
        assert loaded["gauges"]['g{k="v"}'] == 1.5
        assert loaded["histograms"]["h_ms"]["count"] == 1.0
