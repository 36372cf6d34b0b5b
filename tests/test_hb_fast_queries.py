"""Differential testing: the batch relation's range-probe + memo query
path vs. the bit-scan path of the streaming view.

:func:`build_happens_before` answers queries through per-task
contiguous key-node ranges and memo tables;
:meth:`repro.stream.IncrementalHB.relation` — the same relation grown
op by op — answers them by scanning the target task's key-node prefix.
These tests demand bit-for-bit agreement on ``ordered``,
``concurrent``, ``concurrent_pairs``, and ``event_ordered`` — for
generated traces under the stock models and a set of rule ablations,
and for the full batched detector on a real workload.
"""

from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.analysis.performance import scan_relation
from repro.apps import MusicApp
from repro.detect import DetectorOptions, UseFreeDetector
from repro.hb import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    DEFAULT_MEMO_CAPACITY,
    NO_QUEUE_MODEL,
    build_happens_before,
    hb_stats,
)
from repro.testing import TraceBuilder

from tests.test_property_runtime_hb import program_specs, run_program

#: the stock models plus ablations that stress different rule subsets
MODELS = [
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    NO_QUEUE_MODEL,
    replace(CAFA_MODEL, atomicity=False),
    replace(CAFA_MODEL, listener=False, ipc=False),
    replace(CAFA_MODEL, external_input=False, fork_join=False),
    replace(CAFA_MODEL, queue_rule_2=False, queue_rule_4=False),
    replace(CONVENTIONAL_MODEL, lock_edges=False, signal_wait=False),
]


def assert_query_paths_agree(trace, config):
    fast = build_happens_before(trace, config)
    scan = scan_relation(trace, config)
    n = len(trace)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        assert fast.ordered(i, j) == scan.ordered(i, j), (i, j, config)
        assert fast.concurrent(i, j) == scan.concurrent(i, j), (i, j, config)
    assert fast.concurrent_pairs(pairs) == scan.concurrent_pairs(pairs)
    events = trace.events()
    for e1 in events:
        for e2 in events:
            if e1 == e2:
                continue
            try:
                verdict = fast.event_ordered(e1, e2)
            except KeyError:
                with pytest.raises(KeyError):
                    scan.event_ordered(e1, e2)
                continue
            assert verdict == scan.event_ordered(e1, e2), (e1, e2, config)


@settings(max_examples=20, deadline=None)
@given(program_specs())
def test_fast_queries_match_scan_cafa_model(spec):
    trace = run_program(spec)
    if len(trace) > 120:  # keep the all-pairs sweep tractable
        return
    assert_query_paths_agree(trace, CAFA_MODEL)


@settings(max_examples=10, deadline=None)
@given(program_specs())
def test_fast_queries_match_scan_all_ablations(spec):
    trace = run_program(spec)
    if len(trace) > 80:
        return
    for config in MODELS:
        assert_query_paths_agree(trace, config)


class TestCuratedAgreement:
    """Traces where the queue rules and sendAtFront reordering bite."""

    def _fig4d(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("S")
        b.event("C", looper="L")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("S"); b.send("S", "C"); b.end("S")
        b.begin("C"); b.send("C", "A"); b.send_at_front("C", "B"); b.end("C")
        b.begin("B"); b.end("B")
        b.begin("A"); b.end("A")
        return b.build()

    def test_fig4d_agreement_all_models(self):
        trace = self._fig4d()
        for config in MODELS:
            assert_query_paths_agree(trace, config)


class TestQueryProfile:
    """The fast path's observability contract."""

    def _two_event_trace(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("T"); b.send("T", "A"); b.send("T", "B"); b.end("T")
        b.begin("A"); b.read("A", "x"); b.end("A")
        b.begin("B"); b.write("B", "x"); b.end("B")
        return b.build()

    def test_counters_attribute_queries(self):
        hb = build_happens_before(self._two_event_trace())
        prof = hb.query_profile
        assert prof.fast and prof.queries == 0
        hb.ordered(0, 1)
        assert prof.queries == 1
        assert prof.same_task == 1  # ops 0 and 1 are both in task T
        before = prof.memo_misses
        a = next(i for i, op in enumerate(hb._op_task) if op == "A")
        b = next(i for i, op in enumerate(hb._op_task) if op == "B")
        hb.ordered(a, b)
        hb.ordered(a, b)  # second call must be a memo hit
        assert prof.memo_misses == before + 1
        assert prof.memo_hits >= 1
        assert 0.0 < prof.memo_hit_rate <= 1.0

    def test_masks_materialize_lazily_and_are_counted(self):
        hb = build_happens_before(self._two_event_trace())
        prof = hb.query_profile
        assert prof.mask_tasks == 0 and prof.mask_bytes == 0
        a = next(i for i, op in enumerate(hb._op_task) if op == "A")
        b = next(i for i, op in enumerate(hb._op_task) if op == "B")
        hb.ordered(a, b)
        assert prof.mask_tasks >= 1
        assert prof.mask_bytes > 0

    def test_batched_pairs_counted_in_both_modes(self):
        trace = self._two_event_trace()
        relations = [build_happens_before(trace), scan_relation(trace, CAFA_MODEL)]
        for hb, fast in zip(relations, (True, False)):
            hb.concurrent_pairs([(0, 1), (1, 2), (2, 3)])
            assert hb.query_profile.batched_pairs == 3
            assert hb.query_profile.fast is fast

    def test_reset_query_memo_keeps_verdicts_stable(self):
        trace = self._two_event_trace()
        hb = build_happens_before(trace)
        n = len(trace)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        first = hb.concurrent_pairs(pairs)
        hb.reset_query_memo()
        assert hb._memo == {} and hb._pair_memo == {}
        assert hb.concurrent_pairs(pairs) == first

    def test_stats_surface_the_query_profile(self):
        trace = self._two_event_trace()
        hb = build_happens_before(trace)
        hb.concurrent_pairs([(0, 1)])
        text = hb_stats(trace, hb).format()
        assert "query path [prefix-mask+memo]" in text
        assert "prefix masks:" in text
        scan = scan_relation(trace, CAFA_MODEL)
        scan.ordered(0, 1)
        text = hb_stats(trace, scan).format()
        assert "query path [bit-scan (streaming view)]" in text


class TestBatchedDetectorRegression:
    """The batched detector must be invisible in its results."""

    @pytest.fixture(scope="class")
    def run(self):
        return MusicApp(scale=0.05, seed=1).run()

    def _fingerprint(self, result):
        return (
            [
                (str(r.key), r.race_class, [str(w) for w in r.witnesses])
                for r in result.reports
            ],
            [
                (str(r.key), [w.filtered_by for w in r.witnesses])
                for r in result.filtered_reports
            ],
            result.dynamic_candidates,
        )

    def _scan_detect(self, trace, options):
        """The detector over the streaming view's scan relations."""
        return UseFreeDetector(
            trace,
            options=options,
            hb=scan_relation(trace, options.model),
            conventional_hb=scan_relation(trace, options.conventional_model),
        ).detect()

    def test_reports_identical_under_both_query_paths(self, run):
        options = DetectorOptions()
        fast = UseFreeDetector(run.trace, options=options).detect()
        scan = self._scan_detect(run.trace, options)
        assert self._fingerprint(fast) == self._fingerprint(scan)

    def test_ablation_options_identical_under_both_query_paths(self, run):
        options = DetectorOptions(
            if_guard=False, intra_event_allocation=False, lockset_filter=False
        )
        fast = UseFreeDetector(run.trace, options=options).detect()
        scan = self._scan_detect(run.trace, options)
        assert self._fingerprint(fast) == self._fingerprint(scan)


class TestMemoBound:
    """The LRU bound on the query memo tables: capacity is enforced,
    evictions are observable, and verdicts never depend on it."""

    def _trace(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        events = [f"E{i}" for i in range(6)]
        for name in events:
            b.event(name, looper="L")
        b.begin("T")
        for name in events:
            b.send("T", name)
        b.end("T")
        for name in events:
            b.begin(name); b.read(name, "x"); b.end(name)
        return b.build()

    def _all_pairs(self, trace):
        n = len(trace)
        return [(i, j) for i in range(n) for j in range(n) if i != j]

    def test_default_capacity_is_recorded(self):
        hb = build_happens_before(self._trace())
        assert hb.query_profile.memo_capacity == DEFAULT_MEMO_CAPACITY
        assert hb.query_profile.memo_evictions == 0

    def test_zero_means_unbounded(self):
        trace = self._trace()
        hb = build_happens_before(trace, memo_capacity=0)
        hb.concurrent_pairs(self._all_pairs(trace))
        assert hb.query_profile.memo_capacity is None
        assert hb.query_profile.memo_evictions == 0
        assert not isinstance(hb._memo, OrderedDict)

    def test_capacity_bounds_both_tables_and_counts_evictions(self):
        trace = self._trace()
        capacity = 4
        hb = build_happens_before(trace, memo_capacity=capacity)
        pairs = self._all_pairs(trace)
        hb.concurrent_pairs(pairs)
        for i, j in pairs[:50]:
            hb.ordered(i, j)
        assert len(hb._memo) <= capacity
        assert len(hb._pair_memo) <= capacity
        assert hb.query_profile.memo_evictions > 0

    def test_lru_keeps_the_hot_entry(self):
        trace = self._trace()
        hb = build_happens_before(trace, memo_capacity=2)
        reads = [trace.ops_of(f"E{i}")[1] for i in range(6)]
        misses = hb.query_profile.memo_misses
        hot = (reads[0], reads[5])
        hb.ordered(*hot)  # miss; the memo now holds the hot answer
        for other in reads[1:5]:
            hb.ordered(reads[0], other)  # churn past the capacity ...
            hb.ordered(*hot)  # ... but re-touch the hot pair each time
        # one miss for the hot pair, one per churn pair, zero re-misses
        assert hb.query_profile.memo_misses == misses + 1 + 4

    def test_verdicts_identical_across_capacities(self):
        trace = self._trace()
        pairs = self._all_pairs(trace)
        reference = build_happens_before(trace, memo_capacity=0).concurrent_pairs(
            pairs
        )
        for capacity in (1, 3, 64):
            hb = build_happens_before(trace, memo_capacity=capacity)
            assert hb.concurrent_pairs(pairs) == reference

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="memo_capacity"):
            build_happens_before(self._trace(), memo_capacity=-1)

    def test_detector_options_thread_the_bound(self, tmp_path):
        trace = self._trace()
        unbounded = UseFreeDetector(
            trace, options=DetectorOptions(memo_capacity=0)
        )
        bounded = UseFreeDetector(
            trace, options=DetectorOptions(memo_capacity=2)
        )
        assert [str(r.key) for r in unbounded.detect().reports] == [
            str(r.key) for r in bounded.detect().reports
        ]
        assert bounded.hb.query_profile.memo_capacity == 2

    def test_stats_surface_the_bound(self):
        trace = self._trace()
        hb = build_happens_before(trace, memo_capacity=8)
        hb.concurrent_pairs(self._all_pairs(trace))
        text = hb_stats(trace, hb).format()
        assert "memo bound: 8 entries/table" in text
        unbounded = build_happens_before(trace, memo_capacity=0)
        unbounded.ordered(0, 1)
        assert "memo bound: unbounded" in hb_stats(trace, unbounded).format()
