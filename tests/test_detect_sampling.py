"""The sampled detector: budget semantics, screen soundness, seed
determinism, and the all-apps differential against full detection."""

import pytest

from repro.apps import ALL_APPS
from repro.detect import (
    DetectorOptions,
    SampledDetector,
    SamplerOptions,
    UseFreeDetector,
    detect_sampled,
)
from repro.hb import QueryBudget, build_happens_before
from repro.testing import TraceBuilder

AMPLE = 1 << 30


def keys_of(result):
    return {r.key for r in result.reports}


def race_keys(sampled):
    return {r.key for r in sampled.races}


def suspect_ids(sampled):
    return [(u.read_index, f.index) for u, f, _ in sampled.suspects]


def use_free_trace():
    """One cross-thread use-free race plus a same-task pair."""
    b = TraceBuilder()
    b.thread("main")
    b.thread("worker")
    b.begin("main")
    b.ptr_read("main", "obj.f", 7)
    b.deref("main", 7)
    b.end("main")
    b.begin("worker")
    b.ptr_read("worker", "obj.f", 7)
    b.deref("worker", 7)
    b.ptr_write("worker", "obj.f", None)
    b.end("worker")
    return b.build()


class TestBudgetSemantics:
    def test_exhaustive_when_population_fits(self):
        sampled = detect_sampled(use_free_trace(), SamplerOptions(budget=100))
        profile = sampled.profile
        assert profile.exhaustive
        assert profile.pairs_sampled == profile.pairs_population == 2
        assert profile.screened_same_task == 1  # the worker's own pair
        assert profile.suspects == 1
        assert sampled.flagged

    def test_budget_caps_sampled_pairs(self):
        sampled = detect_sampled(use_free_trace(), SamplerOptions(budget=1))
        assert not sampled.profile.exhaustive
        assert sampled.profile.pairs_sampled == 1

    def test_budget_spent_never_exceeds_allowance(self):
        for app_cls in ALL_APPS[:3]:
            trace = app_cls(scale=0.02, seed=0).run().trace
            for budget in (1, 3, 7):
                sampled = detect_sampled(trace, SamplerOptions(budget=budget))
                assert sampled.profile.pairs_sampled <= budget


class TestScreens:
    def test_same_task_pairs_are_screened(self):
        sampled = detect_sampled(use_free_trace(), SamplerOptions(budget=100))
        assert sampled.profile.screened_same_task == 1

    def test_lockset_screen_follows_detector_options(self):
        b = TraceBuilder()
        b.thread("main")
        b.thread("worker")
        b.begin("main")
        b.acquire("main", "L")
        b.ptr_read("main", "obj.f", 7)
        b.deref("main", 7)
        b.release("main", "L")
        b.end("main")
        b.begin("worker")
        b.acquire("worker", "L")
        b.ptr_write("worker", "obj.f", None)
        b.release("worker", "L")
        b.end("worker")
        trace = b.build()
        locked = detect_sampled(trace, SamplerOptions(budget=100))
        assert locked.profile.screened_lockset == 1
        assert not locked.flagged
        raw = detect_sampled(
            trace,
            SamplerOptions(
                budget=100, detector=DetectorOptions(lockset_filter=False)
            ),
        )
        assert raw.profile.screened_lockset == 0
        assert raw.flagged

    def test_fork_ordered_pair_is_screened(self):
        b = TraceBuilder()
        b.thread("main")
        b.thread("child")
        b.begin("main")
        b.ptr_read("main", "obj.f", 7)
        b.deref("main", 7)
        b.fork("main", "child")
        b.end("main")
        b.begin("child")
        b.ptr_write("child", "obj.f", None)
        b.end("child")
        sampled = detect_sampled(b.build(), SamplerOptions(budget=100))
        assert sampled.profile.screened_order == 1
        assert not sampled.flagged

    def test_send_chain_ordered_pair_is_screened(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("main")
        b.event("e1", "L")
        b.event("e2", "L")
        b.begin("main")
        b.ptr_read("main", "obj.f", 7)
        b.deref("main", 7)
        b.send("main", "e1")
        b.send("main", "e2")
        b.end("main")
        b.begin("e1")
        b.end("e1")
        b.begin("e2")
        b.ptr_write("e2", "obj.f", None)
        b.end("e2")
        trace = b.build()
        sampled = detect_sampled(trace, SamplerOptions(budget=100))
        assert sampled.profile.screened_order == 1
        assert not sampled.flagged
        # The screen agrees with the real relation.
        assert not UseFreeDetector(trace).detect().reports

    def test_screen_never_hides_a_reported_race(self):
        # Exhaustive screen-mode flagging covers full detection on
        # every stock app: a racy trace is always flagged.
        for app_cls in ALL_APPS:
            trace = app_cls(scale=0.02, seed=0).run().trace
            full = UseFreeDetector(trace).detect()
            sampled = detect_sampled(trace, SamplerOptions(budget=AMPLE))
            if full.reports:
                assert sampled.flagged, app_cls.name


class TestDeterminism:
    @pytest.mark.parametrize("budget", [1, 4, 64])
    def test_identical_seeds_identical_results(self, budget):
        trace = ALL_APPS[0](scale=0.05, seed=1).run().trace
        options = SamplerOptions(budget=budget, seed=9, confirm=True)
        first = detect_sampled(trace, options)
        second = detect_sampled(trace, options)
        assert suspect_ids(first) == suspect_ids(second)
        assert race_keys(first) == race_keys(second)
        assert first.profile == second.profile

    def test_seed_changes_the_sample(self):
        trace = ALL_APPS[4](scale=0.05, seed=1).run().trace  # browser
        population = detect_sampled(
            trace, SamplerOptions(budget=AMPLE)
        ).profile.pairs_population
        assert population > 8
        draws = {
            tuple(
                suspect_ids(
                    detect_sampled(trace, SamplerOptions(budget=4, seed=seed))
                )
            )
            for seed in range(8)
        }
        assert len(draws) > 1


class TestDifferentialAllApps:
    """Acceptance: sampled vs full detection on all ten apps."""

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
    def test_confirmed_races_subset_and_exhaustively_equal(self, app_cls):
        trace = app_cls(scale=0.02, seed=0).run().trace
        full_keys = keys_of(UseFreeDetector(trace).detect())
        exhaustive = detect_sampled(
            trace, SamplerOptions(budget=AMPLE, confirm=True)
        )
        assert race_keys(exhaustive) == full_keys
        partial = detect_sampled(trace, SamplerOptions(budget=3, confirm=True))
        assert race_keys(partial) <= full_keys


class TestQueryBudget:
    def test_truncates_and_charges(self):
        trace = use_free_trace()
        hb = build_happens_before(trace)
        pairs = [(1, 7), (1, 7), (5, 7), (1, 7)]
        budget = QueryBudget(limit=3)
        verdicts = hb.concurrent_pairs(pairs, budget=budget)
        assert len(verdicts) == 3
        assert budget.spent == 3
        assert budget.exhausted
        assert budget.remaining == 0
        # spent accumulates across batches; nothing more is answered
        assert hb.concurrent_pairs(pairs, budget=budget) == []
        assert budget.spent == 3

    def test_budgeted_prefix_matches_unbudgeted(self):
        trace = ALL_APPS[0](scale=0.02, seed=0).run().trace
        hb = build_happens_before(trace)
        accesses = SampledDetector(trace).accesses
        pairs = [
            (use.read_index, free.index)
            for use in accesses.uses
            for free in accesses.frees
        ]
        full = hb.concurrent_pairs(pairs)
        budget = QueryBudget(limit=5)
        assert hb.concurrent_pairs(pairs, budget=budget) == full[:5]


class TestAccessIndexInjection:
    def test_injected_index_matches_extraction(self):
        trace = ALL_APPS[0](scale=0.02, seed=0).run().trace
        own = detect_sampled(trace, SamplerOptions(budget=AMPLE))
        injected = SampledDetector(
            trace,
            SamplerOptions(budget=AMPLE),
            accesses=UseFreeDetector(trace).accesses,
        ).detect()
        assert suspect_ids(own) == suspect_ids(injected)
        assert own.profile == injected.profile
