"""Experiment P6 — the online streaming detection service.

Two claims, the first pinned by a recorded bound in
``bounds_pr6.json``:

* **Bounded memory.**  Streaming a 10x-length synthetic session stream
  (ten renamed copies of the connectbot trace, each quiescing before
  the next begins) through the analyzer with epoch GC must keep the
  peak closure footprint within ``max_peak_closure_ratio`` of the
  single-session peak.  Without retirement the closure grows with
  every session; the recorded unbounded peak is ~14x the bounded one.

* **Fidelity.**  The bound means nothing unless the online reports are
  byte-identical to the offline detector's on the same stream — the
  differential gate runs inside the benchmark body.

The ratio compares deterministic byte counts of the same closure
structures on a deterministic workload, so it is machine-independent
and exact.
"""

import json
from pathlib import Path

from repro.analysis import bench_scale, soak_trace
from repro.apps import make_app
from repro.detect import UseFreeDetector
from repro.stream import StreamAnalyzer, concat_sessions
from repro.trace import dumps_trace

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr6.json").read_text(encoding="utf-8")
)

STREAM_SCALE = bench_scale(default=0.02)


def _stream(trace, gc):
    analyzer = StreamAnalyzer(gc=gc)
    for line in dumps_trace(trace, version=2).splitlines(keepends=True):
        analyzer.feed(line)
    reports = [str(r) for r in analyzer.finish()]
    return analyzer.profile, reports


def test_epoch_gc_bounds_peak_closure(benchmark):
    """Ten back-to-back sessions must stream within the recorded
    multiple of one session's closure footprint — and produce the
    offline detector's reports exactly."""
    bounds = BOUNDS["bounded_memory"]
    base = make_app(
        bounds["app"], scale=STREAM_SCALE, seed=bounds["seed"]
    ).run().trace
    combined = concat_sessions(base, sessions=bounds["sessions"])

    def run():
        single, _ = _stream(base, gc=True)
        bounded, online = _stream(combined, gc=True)
        return single, bounded, online

    single, bounded, online = benchmark.pedantic(run, rounds=1, iterations=1)

    # Differential gate: online == offline on the full stream.
    offline = [str(r) for r in UseFreeDetector(combined).detect().reports]
    assert online == offline

    assert bounded.epochs_retired == bounds["sessions"]
    assert bounded.cross_epoch_accesses == 0
    ratio = bounded.peak_closure_bytes / single.peak_closure_bytes
    assert ratio <= bounds["max_peak_closure_ratio"], (
        f"peak closure grew to {bounded.peak_closure_bytes} bytes "
        f"({ratio:.2f}x the single-session peak of "
        f"{single.peak_closure_bytes}); epoch retirement is no longer "
        "reclaiming the closure between sessions"
    )


def test_online_soak_throughput(benchmark):
    """Record the cost of a full online replay (the soak harness) so
    streaming-path slowdowns show up in the benchmark history."""
    trace = make_app("connectbot", scale=STREAM_SCALE, seed=1).run().trace

    result = benchmark.pedantic(
        lambda: soak_trace(trace, name="connectbot"), rounds=1, iterations=1
    )
    assert result.identical, result.format()
