"""Tests for the metrics core: the latency histogram, snapshots,
merging, and Prometheus rendering (repro.obs.metrics)."""

import pickle

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramData,
    MetricsSnapshot,
    merge_snapshots,
    render_prometheus,
)


class TestInstruments:
    def test_histogram_buckets_and_overflow(self):
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        data = hist.data()
        assert data.counts == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert data.count == 3
        assert data.sum == pytest.approx(5.55)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.1))


class TestHistogramQuantile:
    def test_interpolates_within_the_bucket(self):
        data = HistogramData(bounds=[0.01, 0.1], counts=[10, 0, 0],
                             sum=0.05, count=10)
        # All samples in [0, 0.01]: the median interpolates to 0.005.
        assert data.quantile(0.5) == pytest.approx(0.005)

    def test_empty_histogram_is_zero(self):
        data = HistogramData(bounds=[1.0], counts=[0, 0])
        assert data.quantile(0.99) == 0.0

    def test_overflow_bucket_clamps_to_last_bound(self):
        data = HistogramData(bounds=[1.0], counts=[0, 5], sum=50.0, count=5)
        assert data.quantile(0.5) == 1.0

    def test_rejects_out_of_range(self):
        data = HistogramData(bounds=[1.0], counts=[1, 0], count=1)
        with pytest.raises(ValueError):
            data.quantile(1.5)


class TestSnapshots:
    def test_snapshots_pickle(self):
        snap = MetricsSnapshot()
        snap.counter("c", 1.0, help="h")
        snap.histogram("lat", HistogramData(bounds=[1.0], counts=[1, 0],
                                            sum=0.5, count=1))
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.counters == snap.counters
        assert clone.histograms["lat"].counts == [1, 0]

    def test_as_dict_has_stable_schema_and_quantiles(self):
        snap = MetricsSnapshot()
        snap.counter("c", 2.0)
        hist = Histogram()
        hist.observe(0.003)
        snap.histogram("lat", hist.data())
        doc = snap.as_dict()
        assert doc["schema"] == "repro-metrics/1"
        assert doc["counters"] == {"c": 2.0}
        assert {"p50", "p95", "p99"} <= set(doc["histograms"]["lat"])


class TestMerge:
    def test_counters_and_gauges_sum(self):
        a, b = MetricsSnapshot(), MetricsSnapshot()
        a.counter("c", 1.0)
        b.counter("c", 2.0)
        a.gauge("g", 5.0, labels={"shard": "0"})
        b.gauge("g", 7.0, labels={"shard": "1"})
        merged = merge_snapshots([a, b])
        assert merged.counters["c"] == 3.0
        assert merged.gauges['g{shard="0"}'] == 5.0
        assert merged.gauges['g{shard="1"}'] == 7.0

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsSnapshot(), MetricsSnapshot()
        for snap, value in ((a, 0.0001), (b, 9.0)):
            hist = Histogram()
            hist.observe(value)
            snap.histogram("lat", hist.data())
        merged = merge_snapshots([a, b])
        assert merged.histograms["lat"].count == 2
        assert merged.histograms["lat"].sum == pytest.approx(9.0001)

    def test_mismatched_buckets_are_an_error(self):
        a, b = MetricsSnapshot(), MetricsSnapshot()
        a.histogram("h", HistogramData(bounds=[1.0], counts=[0, 0]))
        b.histogram("h", HistogramData(bounds=[2.0], counts=[0, 0]))
        with pytest.raises(ValueError, match="mismatched buckets"):
            merge_snapshots([a, b])

    def test_empty_merge_is_identity(self):
        assert merge_snapshots([]).as_dict()["counters"] == {}


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        snap = MetricsSnapshot()
        snap.counter("repro_frames_total", 42.0, help="frames")
        snap.gauge("repro_depth", 3.0, labels={"shard": "0"})
        text = render_prometheus(snap)
        assert "# HELP repro_frames_total frames" in text
        assert "# TYPE repro_frames_total counter" in text
        assert "repro_frames_total 42" in text
        assert 'repro_depth{shard="0"} 3' in text

    def test_histogram_renders_cumulative_buckets(self):
        snap = MetricsSnapshot()
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap.histogram("lat", hist.data(), help="latency")
        text = render_prometheus(snap)
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_labeled_histogram_keeps_labels_before_le(self):
        snap = MetricsSnapshot()
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.5)
        snap.histogram("lat", hist.data(), labels={"shard": "2"})
        text = render_prometheus(snap)
        assert 'lat_bucket{shard="2",le="1"} 1' in text
        assert 'lat_sum{shard="2"}' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsSnapshot()) == ""

    def test_default_buckets_cover_sub_ms_to_ten_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0
