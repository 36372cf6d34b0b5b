"""Experiment P1 — Section 6.4: offline analysis time vs. trace size.

"The running time of the offline analysis depends on the number of
events in a trace" (30 minutes to a day on the paper's hardware).
The benchmark sweeps the background event load and checks the
monotone-growth shape; absolute times are of course incomparable.

The detection-phase benchmark at the bottom runs the use-free and
low-level detectors on the largest catalog workload: its memoized query
work per candidate pair must stay under the bound recorded in
``bounds_pr2.json`` (the workload is deterministic, so that ratio is
exact and machine-independent).
"""

import json
from pathlib import Path

from repro.analysis import analysis_scaling, bench_scale, detection_benchmark
from repro.apps import CameraApp, MusicApp, MyTracksApp, VlcApp

BASE = bench_scale(default=0.05)

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr2.json").read_text(encoding="utf-8")
)

#: recorded build-side counters (see the comment inside the file)
BUILD_BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr3.json").read_text(encoding="utf-8")
)


def test_analysis_time_grows_with_events(benchmark):
    points = benchmark.pedantic(
        lambda: analysis_scaling(VlcApp, scales=[BASE, BASE * 2, BASE * 4], seed=1),
        rounds=1,
        iterations=1,
    )
    events = [p.events for p in points]
    assert events == sorted(events) and events[0] < events[-1]
    # Shape: the largest trace must cost more than the smallest one.
    assert points[-1].total_seconds > points[0].total_seconds


def test_hb_build_dominates_at_scale(benchmark):
    """The happens-before build is the expensive phase, as §4.2's
    design discussion implies: detection on the built relation costs
    less than building it (about a quarter on VLC at scales 0.08–0.4)."""
    points = benchmark.pedantic(
        lambda: analysis_scaling(VlcApp, scales=[BASE * 4], seed=1),
        rounds=1,
        iterations=1,
    )
    point = points[0]
    assert point.detect_seconds > 0
    assert point.hb_seconds > point.detect_seconds
    benchmark.extra_info["hb_over_detect"] = (
        point.hb_seconds / point.detect_seconds
    )


def test_incremental_closure_is_computed_once(benchmark):
    """The fixpoint maintains the closure in place: one full
    computation regardless of how many rounds the derived rules run."""
    points = benchmark.pedantic(
        lambda: analysis_scaling(MyTracksApp, scales=[BASE * 2], seed=1),
        rounds=1,
        iterations=1,
    )
    point = points[0]
    assert point.fixpoint_rounds >= 2  # the derived rules do real work
    assert point.closure_recomputations == 1


def test_closure_work_grows_subquadratically(benchmark):
    """Incrementally-propagated reachability bits must grow strictly
    slower than the squared key-node count as the trace scales up."""
    points = benchmark.pedantic(
        lambda: analysis_scaling(CameraApp, scales=[BASE, BASE * 2, BASE * 4], seed=1),
        rounds=1,
        iterations=1,
    )
    first, last = points[0], points[-1]
    assert last.key_nodes > first.key_nodes
    node_growth = last.key_nodes / first.key_nodes
    bit_growth = last.bits_propagated / max(first.bits_propagated, 1)
    assert bit_growth < node_growth**2


def test_build_side_counters_stay_under_recorded_bounds(benchmark):
    """The closure-build counters are deterministic in (app, scale,
    seed), so the recorded bounds pin them exactly: one full closure
    computation, and no more incrementally-propagated bits than the
    build that recorded ``bounds_pr3.json`` needed — regardless of how
    many fixpoint rounds the derived rules run."""
    points = benchmark.pedantic(
        lambda: analysis_scaling(
            MyTracksApp, scales=[BUILD_BOUNDS["scale"]], seed=BUILD_BOUNDS["seed"]
        ),
        rounds=1,
        iterations=1,
    )
    point = points[0]
    assert point.fixpoint_rounds >= BUILD_BOUNDS["min_fixpoint_rounds"]
    assert (
        point.closure_recomputations
        <= BUILD_BOUNDS["max_closure_recomputations"]
    )
    assert point.bits_propagated <= BUILD_BOUNDS["max_bits_propagated"]
    benchmark.extra_info["closure_recomputations"] = point.closure_recomputations
    benchmark.extra_info["bits_propagated"] = point.bits_propagated


def test_detection_query_work_is_sublinear(benchmark):
    """The memo must collapse the per-candidate-pair query work to
    well below one reachability test per pair; the exact ratio is
    deterministic, so it is pinned by the recorded bound."""
    result = benchmark.pedantic(
        lambda: detection_benchmark(
            MusicApp, scale=BOUNDS["scale"], seed=BOUNDS["seed"]
        ),
        rounds=1,
        iterations=1,
    )
    profile = result.query_profile
    assert result.workload_pairs > 1000  # a real workload, not a toy
    assert profile.memo_misses < profile.batched_pairs  # sub-linear
    assert result.memo_misses_per_pair <= BOUNDS["max_memo_misses_per_pair"]
