"""The columnar trace store — memory, build/serialize/load timings, and
the streaming-reader guarantee.

Run with ``--benchmark-json=BENCH_pr3.json`` (CI uploads the result
next to ``BENCH_pr2.json``).  The memory bound uses the exact
:class:`~repro.trace.store.TraceProfile` accounting (column + side-table
bytes).
"""

import time
import tracemalloc

from repro.analysis import bench_scale
from repro.apps import MusicApp
from repro.trace import load_trace_file, save_trace_file

BASE = bench_scale(default=0.05)

#: the streaming measurements run at least at this scale — below it the
#: columnar store's fixed overhead (one bucket per occurring kind)
#: distorts the bytes/op amortization
MEMORY_SCALE = max(bench_scale(default=0.1), 0.1)

#: bytes/op ceiling for music at scale 0.1, seed 1: half of the 166.38
#: bytes/op the one-object-per-operation list needed on CPython 3.11
#: before it was removed (the columnar store measured 66.03 there), so
#: the original at-least-2x memory gate holds on the surviving store
MAX_BYTES_PER_OP = 83.19


def record(scale):
    return MusicApp(scale=scale, seed=1).run().trace


def test_columnar_store_halves_memory_per_op(benchmark):
    """The struct-of-arrays layout must hold the recorded workload in
    at most ``MAX_BYTES_PER_OP`` (exact, deterministic accounting)."""
    profile = benchmark.pedantic(
        lambda: record(0.1).profile(), rounds=1, iterations=1
    )
    benchmark.extra_info["columnar_bytes_per_op"] = round(profile.bytes_per_op, 2)
    assert profile.ops > 0
    assert profile.bytes_per_op <= MAX_BYTES_PER_OP


def test_trace_build_and_serialize_timings(benchmark, tmp_path):
    """One build/dump/load cycle per format version, with the
    wall-clock split recorded for the artifact.  v2 must be the
    smaller wire format."""

    def cycle():
        timings = {}
        t0 = time.perf_counter()
        trace = record(BASE)
        timings["build_columnar_s"] = time.perf_counter() - t0
        paths = {
            "v1": (tmp_path / "t.v1.jsonl", 1),
            "v2": (tmp_path / "t.v2.jsonl", 2),
            "v2_gz": (tmp_path / "t.v2.jsonl.gz", 2),
        }
        sizes = {}
        for name, (path, version) in paths.items():
            t0 = time.perf_counter()
            save_trace_file(trace, path, version=version)
            timings[f"dump_{name}_s"] = time.perf_counter() - t0
            sizes[name] = path.stat().st_size
            t0 = time.perf_counter()
            back = load_trace_file(path)
            timings[f"load_{name}_s"] = time.perf_counter() - t0
            assert len(back) == len(trace)
        return timings, sizes

    timings, sizes = benchmark.pedantic(cycle, rounds=1, iterations=1)
    for key, value in timings.items():
        benchmark.extra_info[key] = round(value, 4)
    for name, size in sizes.items():
        benchmark.extra_info[f"size_{name}_bytes"] = size
    assert sizes["v2"] < sizes["v1"]
    assert sizes["v2_gz"] < sizes["v2"]


def test_v2_reader_streams_in_constant_transient_memory(benchmark, tmp_path):
    """The v2 reader's transient allocation (peak minus the resident
    trace it returns) must grow sub-linearly with trace length — the
    streaming contract: live reader state is the line buffer plus the
    interning tables, which grow with *distinct* symbols only."""

    def load_transient(scale):
        trace = record(scale)
        path = tmp_path / f"t_{scale}.jsonl"
        save_trace_file(trace, path)
        tracemalloc.start()
        back = load_trace_file(path)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return len(back), peak - current

    def sweep():
        small_scale, large_scale = MEMORY_SCALE, MEMORY_SCALE * 4
        return load_transient(small_scale), load_transient(large_scale)

    (small_ops, small_transient), (large_ops, large_transient) = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    ops_ratio = large_ops / small_ops
    transient_ratio = large_transient / max(small_transient, 1)
    benchmark.extra_info["ops_ratio"] = round(ops_ratio, 2)
    benchmark.extra_info["transient_ratio"] = round(transient_ratio, 2)
    assert ops_ratio > 2  # the sweep really scaled the trace
    # Sub-linear: transient growth stays well under the op-count growth.
    assert transient_ratio <= ops_ratio * 0.75
