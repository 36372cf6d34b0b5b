"""Differential testing: the relation's query path vs. the reference
oracle.

:func:`build_happens_before` answers queries through per-task
contiguous key-node ranges and a pair memo;
:class:`~repro.hb.reference.ReferenceHappensBefore` — the literal model,
one vertex per operation — answers them from its own closure.  These
tests demand bit-for-bit agreement on ``ordered``, ``concurrent``,
``concurrent_pairs``, and ``event_ordered`` — for generated traces
under the stock models and a set of rule ablations, and for the
Figure 4d trace.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

import repro.hb.graph
from repro.hb import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    NO_QUEUE_MODEL,
    build_happens_before,
    hb_stats,
)
from repro.hb.reference import ReferenceHappensBefore
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
    hb = build_happens_before(trace, config)
    oracle = ReferenceHappensBefore(trace, config)
    n = len(trace)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        assert hb.ordered(i, j) == oracle.ordered(i, j), (i, j, config)
        assert hb.concurrent(i, j) == oracle.concurrent(i, j), (i, j, config)
    assert hb.concurrent_pairs(pairs) == [oracle.concurrent(i, j) for i, j in pairs]
    events = trace.events()
    for e1 in events:
        for e2 in events:
            if e1 == e2:
                continue
            try:
                end1, begin2 = hb.task_bounds(e1)[1], hb.task_bounds(e2)[0]
            except KeyError:
                with pytest.raises(KeyError):
                    hb.event_ordered(e1, e2)
                continue
            assert hb.event_ordered(e1, e2) == oracle.ordered(end1, begin2), (
                e1,
                e2,
                config,
            )


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
        assert prof.queries == 0
        hb.ordered(0, 1)
        assert prof.queries == 1
        assert prof.same_task == 1  # ops 0 and 1 are both in task T
        before = prof.memo_misses
        a = next(i for i, op in enumerate(hb._op_task) if op == "A")
        b = next(i for i, op in enumerate(hb._op_task) if op == "B")
        hb.ordered(a, b)  # a range probe: counted as a lookup
        assert prof.memo_misses == before + 1
        hb.concurrent_pairs([(a, b), (a, b)])  # the second is a memo hit
        assert prof.memo_misses == before + 2
        assert prof.memo_hits == 1
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

    def test_stats_surface_the_query_profile(self):
        trace = self._two_event_trace()
        hb = build_happens_before(trace)
        hb.concurrent_pairs([(0, 1)])
        text = hb_stats(trace, hb).format()
        assert "query path: 1 queries (1 same-task, 1 batched)" in text
        assert "memo bound: 1048576 entries, 0 evictions" in text
        assert "task ranges:" in text

    def test_signatures_are_computed_for_queried_ops_only(self):
        trace = self._two_event_trace()
        hb = build_happens_before(trace)
        a = next(i for i, op in enumerate(hb._op_task) if op == "A")
        b = next(i for i, op in enumerate(hb._op_task) if op == "B")
        hb.concurrent_pairs([(a, b)])
        assert set(hb._op_sig) == {a, b}


class TestMemoBound:
    """The LRU bound on the pair memo (``DEFAULT_MEMO_CAPACITY``,
    patched small here): capacity is enforced, evictions are
    observable, the hot entry survives, and verdicts never depend on
    it."""

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

    def test_pair_memo_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(repro.hb.graph, "DEFAULT_MEMO_CAPACITY", 4)
        trace = self._trace()
        hb = build_happens_before(trace)
        hb.concurrent_pairs(self._all_pairs(trace))
        assert len(hb._pair_memo) == 4
        assert hb.query_profile.memo_evictions > 0

    def test_lru_keeps_the_hot_entry(self, monkeypatch):
        monkeypatch.setattr(repro.hb.graph, "DEFAULT_MEMO_CAPACITY", 2)
        trace = self._trace()
        hb = build_happens_before(trace)
        reads = [trace.ops_of(f"E{i}")[1] for i in range(6)]
        misses = hb.query_profile.memo_misses
        hot = (reads[0], reads[5])
        hb.concurrent_pairs([hot])  # miss; the memo now holds the hot verdict
        for other in reads[1:5]:
            # churn past the capacity, but re-touch the hot pair each time
            hb.concurrent_pairs([(reads[0], other), hot])
        # one miss for the hot pair, one per churn pair, zero re-misses
        assert hb.query_profile.memo_misses == misses + 1 + 4

    def test_verdicts_identical_across_capacities(self, monkeypatch):
        trace = self._trace()
        pairs = self._all_pairs(trace)
        reference = build_happens_before(trace).concurrent_pairs(pairs)
        for capacity in (1, 3, 64):
            monkeypatch.setattr(repro.hb.graph, "DEFAULT_MEMO_CAPACITY", capacity)
            assert build_happens_before(trace).concurrent_pairs(pairs) == reference
