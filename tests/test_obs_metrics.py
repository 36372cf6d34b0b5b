"""Tests for the metrics core: instruments, snapshots, merging,
Prometheus rendering, and the profile adapters (repro.obs.metrics)."""

import pickle

import pytest

from repro.hb import QueryProfile
from repro.hb.builder import BuildProfile
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
    profile_snapshot,
    render_prometheus,
)
from repro.stream import StreamProfile


class TestInstruments:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

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

    def test_null_instrument_absorbs_everything(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.dec()
        NULL_INSTRUMENT.set(3)
        NULL_INSTRUMENT.observe(0.5)


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


class TestRegistry:
    def test_disabled_registry_hands_out_nulls_and_stays_empty(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_INSTRUMENT
        assert registry.gauge("g") is NULL_INSTRUMENT
        assert registry.histogram("h") is NULL_INSTRUMENT
        registry.register_profile("p", StreamProfile)
        assert len(registry) == 0
        snap = registry.snapshot()
        assert not snap.counters and not snap.gauges
        assert not snap.histograms and not snap.families

    def test_same_name_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert (
            registry.gauge("g", labels={"shard": "0"})
            is registry.gauge("g", labels={"shard": "0"})
        )
        assert registry.gauge("g") is not registry.gauge("g", labels={"shard": "0"})

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_reflects_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits", help="hits").inc(3)
        registry.gauge("depth", labels={"shard": "1"}).set(7)
        registry.histogram("lat").observe(0.002)
        snap = registry.snapshot()
        assert snap.counters["hits"] == 3
        assert snap.gauges['depth{shard="1"}'] == 7
        assert snap.histograms["lat"].count == 1
        assert snap.families["hits"] == ("counter", "hits")

    def test_register_profile_probes_at_snapshot_time(self):
        registry = MetricsRegistry()
        profile = StreamProfile(ops_ingested=5, closure_bytes=100)
        registry.register_profile("repro_stream", lambda: profile)
        profile.ops_ingested = 9  # the probe reads the live object
        snap = registry.snapshot()
        assert snap.counters["repro_stream_ops_ingested"] == 9
        # closure_bytes is a point-in-time quantity -> gauge
        assert snap.gauges["repro_stream_closure_bytes"] == 100


class TestProfileAdaptation:
    def test_stream_profile_fields_split_counter_vs_gauge(self):
        snap = MetricsSnapshot()
        profile = StreamProfile(
            ops_ingested=10, peak_closure_bytes=50, closure_bytes=40,
            retired_addresses=3,
        )
        profile_snapshot(snap, "s", profile)
        assert snap.counters["s_ops_ingested"] == 10
        for gauge_field in ("closure_bytes", "peak_closure_bytes",
                            "retired_addresses"):
            assert f"s_{gauge_field}" in snap.gauges

    def test_build_profile_skips_non_numeric_fields(self):
        snap = MetricsSnapshot()
        profile_snapshot(snap, "b", BuildProfile(scan_seconds=0.5))
        assert snap.counters["b_scan_seconds"] == 0.5
        # edges_per_round is a list, QueryProfile.fast a bool: neither exports
        profile_snapshot(snap, "q", QueryProfile(queries=3))
        assert snap.counters["q_queries"] == 3
        names = set(snap.counters) | set(snap.gauges)
        assert not any("edges_per_round" in n for n in names)
        assert "q_fast" not in names


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

    def test_roundtrip_through_dict(self):
        snap = MetricsSnapshot()
        snap.gauge("g", 4.0)
        snap.histogram("h", HistogramData(bounds=[1.0], counts=[2, 1],
                                          sum=3.0, count=3))
        clone = MetricsSnapshot.from_dict(snap.as_dict())
        assert clone.gauges == snap.gauges
        assert clone.histograms["h"].counts == [2, 1]


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
