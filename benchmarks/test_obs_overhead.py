"""Experiment P9 — telemetry instrumentation overhead.

The same 24-session fleet as the sharding benchmark (``bounds_pr8``)
is ingested through a sharded :class:`~repro.stream.SessionRouter`
twice: once with metrics + span tracing fully enabled (per-shard
telemetry shipping, feed-latency stamping, span recording) and once
with telemetry off.  Two gates, recorded in ``bounds_pr9.json``:

* **Overhead bound.**  Enabled-mode ingest throughput must be at
  least ``min_throughput_ratio`` (0.9x) of disabled-mode throughput.
  The two settings run in ``runs_per_config`` alternating pairs, and
  which one goes first alternates too, so host drift over the runs
  falls on both sides; the gate is the median of the per-pair ratios.
  It compares runs on the same machine, so it arms everywhere.

* **Fidelity.**  The per-session reports from the enabled and
  disabled runs must be identical — telemetry observes the pipeline,
  it never participates in it.  Exact, machine-independent, always
  runs.
"""

import json
import statistics
import time
from pathlib import Path

from repro.analysis import bench_scale
from repro.apps import make_app
from repro.obs import disable_tracing, enable_tracing
from repro.stream import SessionRouter, concat_sessions
from repro.trace import dumps_trace_bytes, encode_mux_header, encode_session

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr9.json").read_text(encoding="utf-8")
)

STREAM_SCALE = bench_scale(default=0.02)


def _fleet_stream(bounds):
    trace = make_app(
        bounds["app"], scale=STREAM_SCALE, seed=bounds["seed"]
    ).run().trace
    payload = dumps_trace_bytes(
        concat_sessions(trace, bounds["copies_per_session"])
    )
    frame_lists = [
        encode_session(f"device-{k}", payload, chunk_size=1 << 14)
        for k in range(bounds["sessions"])
    ]
    buf = bytearray(encode_mux_header())
    for i in range(max(len(frames) for frames in frame_lists)):
        for frames in frame_lists:
            if i < len(frames):
                buf += frames[i]
    return bytes(buf), len(payload) * bounds["sessions"]


def _ingest(stream, shards, metrics):
    if metrics:
        enable_tracing()
    try:
        router = SessionRouter(shards, metrics=metrics)
        start = time.perf_counter()
        for i in range(0, len(stream), 1 << 16):
            router.feed(stream[i : i + (1 << 16)])
        if metrics:
            # Exercise the scrape path the live endpoints would drive.
            router.metrics_snapshot()
        report = router.drain()
        seconds = time.perf_counter() - start
    finally:
        disable_tracing()
    return report, seconds


def _fingerprint(report):
    return {
        sid: (session.reports, session.ops, session.ended)
        for sid, session in report.sessions.items()
    }


def test_telemetry_overhead_is_bounded(benchmark):
    bounds = BOUNDS["instrumentation_overhead"]
    stream, payload_bytes = _fleet_stream(bounds)

    reports = {}
    ratios = []

    def run():
        for k in range(bounds["runs_per_config"]):
            seconds = {}
            for metrics in (k % 2 == 1, k % 2 == 0):
                report, seconds[metrics] = _ingest(
                    stream, bounds["shards"], metrics
                )
                reports.setdefault(metrics, report)
            # enabled over disabled throughput, for one pair of runs
            ratios.append(seconds[False] / seconds[True])
        return ratios

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Fidelity gate: telemetry is invisible in the analysis output.
    baseline = _fingerprint(reports[False])
    assert len(baseline) == bounds["sessions"]
    assert _fingerprint(reports[True]) == baseline, (
        "session reports diverged between telemetry-on and telemetry-off"
    )

    ratio = statistics.median(ratios)
    benchmark.extra_info["payload_bytes"] = payload_bytes
    benchmark.extra_info["pair_ratios"] = [round(r, 3) for r in ratios]
    benchmark.extra_info["enabled_over_disabled_ratio"] = round(ratio, 3)

    assert ratio >= bounds["min_throughput_ratio"], (
        f"telemetry-enabled ingest throughput is {ratio:.2f}x the "
        f"disabled baseline in the median pair (bound: "
        f"{bounds['min_throughput_ratio']}x; pairs "
        f"{benchmark.extra_info['pair_ratios']}); "
        "instrumentation is no longer near-zero-cost"
    )
