"""Tests for happens-before statistics and rule attribution."""

from repro import build_happens_before
from repro.hb import (
    RULE_ATOMICITY,
    RULE_EXTERNAL,
    RULE_FORK,
    RULE_PROGRAM_ORDER,
    RULE_QUEUE_1,
    RULE_SEND,
    hb_stats,
)
from repro.testing import TraceBuilder


def build_mixed_trace():
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.thread("U")
    b.event("A", looper="L")
    b.event("B", looper="L")
    b.event("X", looper="L", external=True)
    b.event("Y", looper="L", external=True)
    b.begin("T")
    b.fork("T", "U")
    b.begin("U")
    b.end("U")
    b.send("T", "A", delay=1)
    b.send("T", "B", delay=1)
    b.end("T")
    b.begin("A"); b.end("A")
    b.begin("B"); b.end("B")
    b.begin("X"); b.end("X")
    b.begin("Y"); b.end("Y")
    return b.build()


class TestHbStats:
    def test_counts_cover_every_edge(self):
        trace = build_mixed_trace()
        hb = build_happens_before(trace)
        stats = hb_stats(trace, hb)
        assert sum(stats.rule_counts.values()) == stats.edges
        assert stats.edges == hb.graph.edge_count

    def test_expected_rules_present(self):
        trace = build_mixed_trace()
        stats = hb_stats(trace, build_happens_before(trace))
        for rule in (RULE_PROGRAM_ORDER, RULE_FORK, RULE_SEND, RULE_EXTERNAL):
            assert stats.rule_counts.get(rule, 0) >= 1, rule
        # ordered sends with equal delays: queue rule 1 fires (seeded)
        assert stats.rule_counts.get(RULE_QUEUE_1, 0) >= 1

    def test_task_kind_counts(self):
        trace = build_mixed_trace()
        stats = hb_stats(trace, build_happens_before(trace))
        assert stats.events == 4
        assert stats.loopers == 1
        assert stats.threads == 2

    def test_atomicity_attribution_on_fig4a(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("S1"); b.thread("S2"); b.thread("T")
        b.event("A", looper="L"); b.event("B", looper="L")
        b.begin("S1"); b.send("S1", "A"); b.end("S1")
        b.begin("S2"); b.send("S2", "B"); b.end("S2")
        b.begin("A"); b.fork("A", "T"); b.end("A")
        b.begin("T"); b.register("T", "Lst"); b.end("T")
        b.begin("B"); b.perform("B", "Lst"); b.end("B")
        trace = b.build()
        stats = hb_stats(trace, build_happens_before(trace))
        assert stats.rule_counts.get(RULE_ATOMICITY, 0) == 1
        assert stats.derived_edges == 1

    def test_format_is_readable(self):
        trace = build_mixed_trace()
        stats = hb_stats(trace, build_happens_before(trace))
        text = stats.format()
        assert "key nodes" in text
        assert "edges by rule" in text
        assert "program-order" in text

    def test_closure_work_counters_populated(self):
        trace = build_mixed_trace()
        hb = build_happens_before(trace)
        stats = hb_stats(trace, hb)
        assert stats.profile.closure_recomputations == 1
        assert stats.profile.bits_propagated == hb.graph.bits_propagated
        assert stats.profile is hb.profile
        assert sum(stats.profile.edges_per_round) == stats.derived_edges

    def test_format_reports_phases_and_closure_work(self):
        trace = build_mixed_trace()
        stats = hb_stats(trace, build_happens_before(trace))
        text = stats.format()
        assert "closure work: 1 full recomputation(s)" in text
        assert "phase timings: scan" in text
        assert "fixpoint groups:" in text

