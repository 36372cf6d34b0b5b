"""Experiment P7 — the v3 binary columnar trace format.

Two claims, each pinned by a recorded bound in ``bounds_pr7.json``:

* **Parse speed.**  Decoding the v3 framed binary (batch column
  adoption straight into the store's typed arrays, symbols, addresses
  and task records from a few table frames) must beat decoding the
  same trace from v2 JSONL text by ``min_parse_speedup``.  v2 lands
  each feed's ops as one column batch too, but scans every line as
  JSON first.  The recorded win is ~4.1x (median of 15 best-of-5
  rounds at ``REPRO_BENCH_SCALE=0.02``; ~1.9x with one frame per
  symbol, address and task record); the bound is 2.0x, between the
  two, so v3 decoding that falls back to the cost of per-record
  frames fails while machine jitter does not.

* **Wire density.**  The v3 encoding must stay under
  ``max_size_ratio`` of the v2 text size and under
  ``max_v3_bytes_per_op`` — deterministic byte counts, exact.

The fidelity gate (decoded traces and race reports byte-identical
across v1/v2/v3) lives in ``tests/test_trace_v3_binary.py``; these
benchmarks only pin the performance envelope.
"""

import io
import json
import time
from pathlib import Path

from repro.analysis import bench_scale
from repro.apps import make_app
from repro.trace import dumps_trace_bytes, loads_trace

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr7.json").read_text(encoding="utf-8")
)

SCALE = bench_scale(default=0.05)


def _workload():
    bounds = BOUNDS["format"]
    trace = make_app(bounds["app"], scale=SCALE, seed=bounds["seed"]).run().trace
    return trace, dumps_trace_bytes(trace, version=2), dumps_trace_bytes(
        trace, version=3
    )


def _best_of(fn, rounds=5):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_v3_parses_faster_than_v2(benchmark):
    """v3 batch adoption must beat v2's per-line JSON scan by the
    recorded multiple on the same trace."""
    bounds = BOUNDS["format"]
    trace, v2_blob, v3_blob = _workload()

    def run():
        t2 = _best_of(lambda: loads_trace(v2_blob))
        t3 = _best_of(lambda: loads_trace(v3_blob))
        return t2, t3

    t2, t3 = benchmark.pedantic(run, rounds=1, iterations=1)
    # fidelity first: the fast path decodes the same trace
    assert loads_trace(v3_blob).ops == trace.ops
    speedup = t2 / t3
    assert speedup >= bounds["min_parse_speedup"], (
        f"v3 parse is only {speedup:.2f}x faster than v2 "
        f"({t3 * 1e3:.2f}ms vs {t2 * 1e3:.2f}ms); the batch column "
        "adoption path has regressed toward the cost of decoding text"
    )


def test_v3_wire_density(benchmark):
    """v3 must stay denser than v2 by the recorded (exact) ratios."""
    bounds = BOUNDS["format"]

    def run():
        return _workload()

    trace, v2_blob, v3_blob = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = len(v3_blob) / len(v2_blob)
    per_op = len(v3_blob) / len(trace)
    assert ratio <= bounds["max_size_ratio"], (
        f"v3 is {ratio:.3f}x the v2 size "
        f"(bound {bounds['max_size_ratio']}); the adaptive column "
        "widths or interning have regressed"
    )
    assert per_op <= bounds["max_v3_bytes_per_op"], (
        f"v3 spends {per_op:.1f} bytes/op "
        f"(bound {bounds['max_v3_bytes_per_op']})"
    )
