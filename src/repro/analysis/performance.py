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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Tuple, Type

from ..apps.base import AppModel
from ..detect import (
    DetectorOptions,
    LowLevelDetector,
    UseFreeDetector,
    detect_use_free_races,
    extract_accesses,
)
from ..hb import HappensBefore, ModelConfig, QueryProfile, build_happens_before
from ..stream.incremental import IncrementalHB
from ..trace import Trace


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


class _RecordingHB:
    """Happens-before stand-in that records every batched query.

    Duck-types the one method the detectors use (plus attribute
    passthrough), so the detection benchmark can capture the exact
    query workload a detection phase issues and replay it through both
    query paths.
    """

    def __init__(self, hb: HappensBefore, sink: List[Tuple[int, int]]):
        self._hb = hb
        self._sink = sink

    def concurrent_pairs(self, pairs: Iterable[Tuple[int, int]]) -> List[bool]:
        pairs = list(pairs)
        self._sink.extend(pairs)
        return self._hb.concurrent_pairs(pairs)

    def __getattr__(self, name):
        return getattr(self._hb, name)


@dataclass
class DetectionBenchmark:
    """Fast-vs-scan measurement of one trace's detection phase.

    The fast path is the offline relation of
    :func:`~repro.hb.build_happens_before`; the scan path is the
    streaming view (:meth:`~repro.stream.IncrementalHB.relation`) over
    the same trace, fully ingested and polled.  Two timings per query
    path: the *detection phase* (use-free + low-level detectors, with
    the happens-before relation, access index, and site index
    prebuilt, and one shared conventional-model relation for the
    handful of classification queries) and a *query-workload replay*
    (the exact ``concurrent_pairs`` workload the phase issued, replayed
    against the phase's relation with its memo reset — steady-state
    query cost with warm per-op indexes and no detector overhead mixed
    in).  Every timing is the best of :data:`TIMING_REPEATS` runs, the
    fast phase on a fresh relation each time.  The fast path must win the replay
    outright and must not regress the full phase; the results must be
    bit-identical.
    """

    app: str
    scale: float
    trace_ops: int
    #: concurrency probes the detection phase issued
    workload_pairs: int
    #: full detection phase, range-probe + memo path
    fast_detect_seconds: float
    #: full detection phase, bit-scan path of the streaming view
    scan_detect_seconds: float
    #: workload replay through the fast path (cold memo)
    fast_replay_seconds: float
    #: workload replay through the scan path
    scan_replay_seconds: float
    #: query counters of the fast detection phase
    fast_profile: QueryProfile
    #: use-free reports identical between the two paths
    reports_identical: bool = False
    #: low-level baseline races identical between the two paths
    low_level_identical: bool = False
    use_free_reports: int = 0
    low_level_races: int = 0

    @property
    def replay_speedup(self) -> float:
        """How much faster the fast path answers the same workload."""
        return self.scan_replay_seconds / max(self.fast_replay_seconds, 1e-12)

    @property
    def detect_speedup(self) -> float:
        return self.scan_detect_seconds / max(self.fast_detect_seconds, 1e-12)

    @property
    def memo_misses_per_pair(self) -> float:
        """Reachability tests per batched candidate pair (< 1 means the
        memo collapses the workload to sub-linear query work)."""
        return self.fast_profile.memo_misses / max(
            self.fast_profile.batched_pairs, 1
        )


#: runs per detection-benchmark timing, of which the fastest counts: a
#: single 10–100 ms sample swings up to 2x on a shared host (garbage
#: collection, CPU contention), more than the gaps being gated
TIMING_REPEATS = 3


def scan_relation(trace: Trace, model: ModelConfig) -> HappensBefore:
    """The streaming view's relation over a whole trace: every op
    ingested into an :class:`~repro.stream.IncrementalHB`, then one
    poll to close the derived-rule fixpoint."""
    incremental = IncrementalHB(trace, model)
    for i in range(len(trace)):
        incremental.ingest(i)
    incremental.poll()
    return incremental.relation()


def detection_benchmark(
    app_cls: Type[AppModel],
    scale: float = 0.5,
    seed: int = 1,
) -> DetectionBenchmark:
    """Measure the detection phase fast-vs-scan on one app workload."""
    run = app_cls(scale=scale, seed=seed).run(tracing=True)
    assert run.trace is not None
    trace = run.trace
    options = DetectorOptions()
    accesses = extract_accesses(trace)
    conventional_hb = build_happens_before(trace, options.conventional_model)

    def detect_phase(relation: Callable[[], HappensBefore]):
        best = float("inf")
        for _ in range(TIMING_REPEATS):
            # prebuilt relations: the phase times queries, not builds
            hb = relation()
            detector = UseFreeDetector(
                trace, hb=hb, accesses=accesses, conventional_hb=conventional_hb
            )
            low = LowLevelDetector(trace, hb=hb, accesses=accesses)
            low.sites  # prebuilt site index, common to both paths
            start = time.perf_counter()
            result = detector.detect()
            low_result = low.detect()
            best = min(best, time.perf_counter() - start)
        return best, result, low_result, hb

    fast_elapsed, fast_result, fast_low, fast_hb = detect_phase(
        lambda: build_happens_before(trace, options.model)
    )
    # snapshot before the recording pass below adds its own queries
    fast_profile = replace(fast_hb.query_profile)
    scan_hb = scan_relation(trace, options.model)
    scan_elapsed, scan_result, scan_low, _ = detect_phase(lambda: scan_hb)

    # Capture the exact query workload of the phase ...
    workload: List[Tuple[int, int]] = []
    recorder = _RecordingHB(fast_hb, workload)
    UseFreeDetector(
        trace,
        hb=recorder,  # type: ignore[arg-type]
        accesses=accesses,
        conventional_hb=conventional_hb,
    ).detect()
    LowLevelDetector(
        trace, hb=recorder, accesses=accesses  # type: ignore[arg-type]
    ).detect()

    # ... and replay it through each path.  The fast relation's one-time
    # per-op indexes and per-task ranges are warm from the phase, and
    # the memo is reset before each timed run: the timing is
    # steady-state query work, every verdict recomputed.
    def replay(hb: HappensBefore):
        best = float("inf")
        for _ in range(TIMING_REPEATS):
            hb.reset_query_memo()
            start = time.perf_counter()
            verdicts = hb.concurrent_pairs(workload)
            best = min(best, time.perf_counter() - start)
        return best, verdicts

    fast_replay, fast_verdicts = replay(fast_hb)
    scan_replay, scan_verdicts = replay(scan_hb)
    if fast_verdicts != scan_verdicts:  # pragma: no cover - differential bug
        raise AssertionError(
            "fast and scan query paths disagree on the replayed workload"
        )

    return DetectionBenchmark(
        app=app_cls.name,
        scale=scale,
        trace_ops=len(trace),
        workload_pairs=len(workload),
        fast_detect_seconds=fast_elapsed,
        scan_detect_seconds=scan_elapsed,
        fast_replay_seconds=fast_replay,
        scan_replay_seconds=scan_replay,
        fast_profile=fast_profile,
        reports_identical=(
            [str(r) for r in fast_result.reports]
            == [str(r) for r in scan_result.reports]
            and [str(r) for r in fast_result.filtered_reports]
            == [str(r) for r in scan_result.filtered_reports]
            and fast_result.dynamic_candidates == scan_result.dynamic_candidates
        ),
        low_level_identical=(
            [str(r) for r in fast_low.races] == [str(r) for r in scan_low.races]
        ),
        use_free_reports=len(fast_result.reports),
        low_level_races=fast_low.race_count(),
    )
