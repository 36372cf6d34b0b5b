"""Performance evaluation — Figure 8 and the §6.4 analysis-time study.

Figure 8 reports the CPU-time slowdown of running each application on
the instrumented ROM versus the stock system (2x–6x).  Here the same
application workload is executed twice on the simulator — once with
the tracer enabled, once disabled — and the slowdown is the ratio of
total virtual CPU time, which emerges from each app's density of
instrumented operations relative to its plain computation.

Section 6.4 also notes that the offline analysis time grows with the
number of events in the trace (30 minutes to a day on the paper's
traces); :func:`analysis_scaling` measures our analyzer's wall-clock
time across a sweep of event counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Type

from ..apps.base import AppModel
from ..detect import (
    DetectorOptions,
    LowLevelDetector,
    UseFreeDetector,
    detect_use_free_races,
    extract_accesses,
)
from ..hb import QueryProfile, build_happens_before


@dataclass
class SlowdownResult:
    """One Figure 8 bar."""

    name: str
    traced_cpu: int
    untraced_cpu: int
    trace_records: int
    paper_slowdown: Optional[float] = None

    @property
    def slowdown(self) -> float:
        if self.untraced_cpu == 0:
            return float("nan")
        return self.traced_cpu / self.untraced_cpu


def measure_slowdown(
    app_cls: Type[AppModel], scale: float = 0.1, seed: int = 0
) -> SlowdownResult:
    """Run one workload with and without tracing; compare CPU time."""
    traced = app_cls(scale=scale, seed=seed).run(tracing=True)
    untraced = app_cls(scale=scale, seed=seed).run(tracing=False)
    return SlowdownResult(
        name=app_cls.name,
        traced_cpu=traced.system.total_cpu_time,
        untraced_cpu=untraced.system.total_cpu_time,
        trace_records=len(traced.trace) if traced.trace is not None else 0,
        paper_slowdown=getattr(app_cls, "paper_slowdown", None),
    )


@dataclass
class ScalingPoint:
    """One point of the §6.4 analysis-time scaling sweep.

    Besides wall-clock times, the point records the closure-work
    counters of the happens-before build: how many *full* transitive
    closures were computed and how many reachability bits incremental
    propagation touched.  ``benchmarks/test_analysis_scaling.py`` uses
    them to assert the fixpoint no longer recomputes the closure per
    round and that closure work grows sub-quadratically.
    """

    events: int
    trace_ops: int
    hb_seconds: float
    detect_seconds: float
    key_nodes: int = 0
    fixpoint_rounds: int = 0
    closure_recomputations: int = 0
    bits_propagated: int = 0
    #: ordering queries the detection phase evaluated
    hb_queries: int = 0
    #: candidate pairs answered through the batched query API
    batched_pairs: int = 0
    #: queries that had to touch the reachability bitsets (memo misses)
    query_memo_misses: int = 0
    #: bytes held by the closure's reachability bitsets (sharing-aware)
    closure_bytes: int = 0
    #: rule members the fixpoint evaluated in rounds after the first
    events_repropagated: int = 0
    #: distinct chunk objects backing the sparse closure
    chunks_allocated: int = 0
    #: chunk references satisfied by copy-on-write sharing
    chunks_shared: int = 0

    @property
    def total_seconds(self) -> float:
        return self.hb_seconds + self.detect_seconds


def analysis_scaling(
    app_cls: Type[AppModel],
    scales: List[float],
    seed: int = 0,
) -> List[ScalingPoint]:
    """Offline-analysis wall-clock time across event-count scales."""
    points: List[ScalingPoint] = []
    for scale in scales:
        run = app_cls(scale=scale, seed=seed).run(tracing=True)
        assert run.trace is not None
        start = time.perf_counter()
        hb = build_happens_before(run.trace)
        hb_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        result = detect_use_free_races(run.trace)
        detect_elapsed = time.perf_counter() - start
        query_profile = result.hb.query_profile
        profile = hb.profile
        points.append(
            ScalingPoint(
                events=run.event_count,
                trace_ops=len(run.trace),
                hb_seconds=hb_elapsed,
                detect_seconds=detect_elapsed,
                key_nodes=hb.graph.node_count,
                fixpoint_rounds=hb.iterations,
                closure_recomputations=hb.graph.closure_recomputations,
                bits_propagated=hb.graph.bits_propagated,
                hb_queries=query_profile.queries,
                batched_pairs=query_profile.batched_pairs,
                query_memo_misses=query_profile.memo_misses,
                closure_bytes=profile.closure_bytes,
                events_repropagated=profile.events_repropagated,
                chunks_allocated=profile.chunks_allocated,
                chunks_shared=profile.chunks_shared,
            )
        )
    return points


def _matrix_cell(
    app_cls: Type[AppModel],
    scales: List[float],
    seed: int,
) -> List[ScalingPoint]:
    """One app's row of the cross-app scaling matrix (pool worker)."""
    return analysis_scaling(app_cls, scales, seed=seed)


@dataclass
class DetectionBenchmark:
    """The detection phase of one trace: use-free plus low-level
    detection, with the happens-before relation, access index and site
    index prebuilt (the classification's vector-clock pass runs inside
    the phase).  The timing is the best of :data:`TIMING_REPEATS` runs,
    each on a fresh relation, so no run starts from another's memo.
    """

    app: str
    scale: float
    trace_ops: int
    #: the detection phase (best of the runs)
    detect_seconds: float
    #: query counters of one run's relation
    query_profile: QueryProfile
    use_free_reports: int = 0
    low_level_races: int = 0

    @property
    def workload_pairs(self) -> int:
        """Concurrency probes the detection phase issued."""
        return self.query_profile.batched_pairs

    @property
    def memo_misses_per_pair(self) -> float:
        """Reachability tests per batched candidate pair (< 1 means the
        memo collapses the workload to sub-linear query work)."""
        return self.query_profile.memo_misses / max(
            self.query_profile.batched_pairs, 1
        )


#: runs per detection-benchmark timing, of which the fastest counts: a
#: single 10–100 ms sample swings up to 2x on a shared host (garbage
#: collection, CPU contention), more than the gaps being gated
TIMING_REPEATS = 3


def detection_benchmark(
    app_cls: Type[AppModel],
    scale: float = 0.5,
    seed: int = 1,
) -> DetectionBenchmark:
    """Time the detection phase on one app workload."""
    run = app_cls(scale=scale, seed=seed).run(tracing=True)
    assert run.trace is not None
    trace = run.trace
    options = DetectorOptions()
    accesses = extract_accesses(trace)
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        # a prebuilt relation: the phase times queries, not builds
        hb = build_happens_before(trace, options.model)
        detector = UseFreeDetector(trace, hb=hb, accesses=accesses)
        low = LowLevelDetector(trace, hb=hb, accesses=accesses)
        low.sites  # prebuilt site index
        start = time.perf_counter()
        result = detector.detect()
        low_result = low.detect()
        best = min(best, time.perf_counter() - start)
    return DetectionBenchmark(
        app=app_cls.name,
        scale=scale,
        trace_ops=len(trace),
        detect_seconds=best,
        query_profile=hb.query_profile,
        use_free_reports=len(result.reports),
        low_level_races=low_result.race_count(),
    )
