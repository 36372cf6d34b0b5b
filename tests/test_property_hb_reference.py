"""Differential testing: the optimized builder vs. the literal model.

The optimized happens-before builder (key-node graph, bitset closure,
masked rule application, chain seeding) must agree with the brute-force
reference implementation of Section 3.3 on *every* ordering query, for
every generated trace and for several model configurations.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_happens_before
from repro.hb import CAFA_MODEL, CONVENTIONAL_MODEL, NO_QUEUE_MODEL, ModelConfig
from repro.hb.builder import (
    RULE_ATOMICITY,
    RULE_QUEUE_1,
    RULE_QUEUE_2,
    RULE_QUEUE_3,
    RULE_QUEUE_4,
)
from repro.hb.reference import ReferenceHappensBefore
from repro.runtime import AndroidSystem
from repro.stream import IncrementalHB
from repro.testing import TraceBuilder
from repro.trace import Trace

from tests.test_property_runtime_hb import program_specs, run_program


def assert_equivalent(trace, config):
    fast = build_happens_before(trace, config)
    slow = ReferenceHappensBefore(trace, config)
    n = len(trace)
    for i in range(n):
        for j in range(n):
            assert fast.ordered(i, j) == slow.ordered(i, j), (
                i,
                j,
                trace[i],
                trace[j],
                config,
            )


@settings(max_examples=25, deadline=None)
@given(program_specs())
def test_builder_matches_reference_cafa_model(spec):
    trace = run_program(spec)
    if len(trace) > 120:  # keep the O(n^3) oracle tractable
        trace.ops = trace.ops  # no truncation — skip instead
        return
    assert_equivalent(trace, CAFA_MODEL)


@settings(max_examples=15, deadline=None)
@given(program_specs())
def test_builder_matches_reference_conventional_model(spec):
    trace = run_program(spec)
    if len(trace) > 120:
        return
    assert_equivalent(trace, CONVENTIONAL_MODEL)


@settings(max_examples=15, deadline=None)
@given(program_specs())
def test_builder_matches_reference_no_queue_model(spec):
    trace = run_program(spec)
    if len(trace) > 120:
        return
    assert_equivalent(trace, NO_QUEUE_MODEL)


# ---------------------------------------------------------------------------
# programs where every derived rule can fire
# ---------------------------------------------------------------------------
#
# ``program_specs`` has one looper and handlers that never post, so it
# never exercises queue rules 2-4.  Here handlers post too, to their
# own looper or another one, with mixed delays and sendAtFront: a
# handler that posts to its own looper orders its posts before the
# events it posted begin (atomicity), which is the premise rules 2 and
# 4 need.

VARIABLES = ("x", "y", "z")


def _actions(rng, n_loopers, depth):
    """A task's actions; the handlers its posts run nest ``depth`` deep."""
    kinds = ["read", "write"] + ["post", "front"] * 2 * (depth > 0)
    actions = []
    for _ in range(rng.randrange(5)):
        kind = rng.choice(kinds)
        if kind in ("read", "write"):
            actions.append((kind, rng.randrange(len(VARIABLES))))
        elif kind == "post":
            actions.append((kind, rng.randrange(n_loopers), rng.randrange(4),
                            _actions(rng, n_loopers, depth - 1)))
        else:
            actions.append((kind, rng.randrange(n_loopers),
                            _actions(rng, n_loopers, depth - 1)))
    return actions


def run_multi_looper_program(seed):
    """Simulate the program ``seed`` picks: two or three loopers, one or
    two threads, and handlers that post up to two levels deep."""
    rng = random.Random(seed)
    n_loopers = rng.randint(2, 3)
    threads = [_actions(rng, n_loopers, 2) for _ in range(rng.randint(1, 2))]
    system = AndroidSystem(seed=seed)
    app = system.process("app")
    loopers = [app.looper(f"L{i}") for i in range(n_loopers)]

    def perform(ctx, actions):
        for action in actions:
            kind = action[0]
            if kind == "read":
                ctx.read(VARIABLES[action[1]])
            elif kind == "write":
                ctx.write(VARIABLES[action[1]], 0)
            elif kind == "post":
                ctx.post(loopers[action[1]], handler(action[3]), delay_ms=action[2])
            else:
                ctx.post_at_front(loopers[action[1]], handler(action[2]))

    def handler(actions):
        return lambda ctx: perform(ctx, actions)

    for t, actions in enumerate(threads):
        app.thread(f"t{t}", lambda ctx, actions=actions: perform(ctx, actions))
    system.run(max_ms=2000)
    return system.trace()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_builder_matches_reference_with_posting_handlers(seed):
    trace = run_multi_looper_program(seed)
    if len(trace) > 120:
        return
    assert_equivalent(trace, CAFA_MODEL)
    assert_equivalent(trace, NO_QUEUE_MODEL)


def test_posting_handler_programs_fire_every_derived_rule():
    """The generator above reaches every derived rule: over a fixed
    seed list, each rule labels at least one edge."""
    labels = set()
    for seed in range(16):
        hb = build_happens_before(run_multi_looper_program(seed))
        labels.update(rule for _, _, rule in hb.graph.edges())
    assert {
        RULE_ATOMICITY, RULE_QUEUE_1, RULE_QUEUE_2, RULE_QUEUE_3, RULE_QUEUE_4
    } <= labels


class TestCuratedEquivalence:
    """The Figure 4 traces, where the fixpoint does real work."""

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

    def test_fig4d_equivalence_all_models(self):
        trace = self._fig4d()
        for config in (CAFA_MODEL, CONVENTIONAL_MODEL, NO_QUEUE_MODEL):
            assert_equivalent(trace, config)

    def test_fig4a_equivalence(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("S1"); b.thread("S2"); b.thread("T")
        b.event("A", looper="L"); b.event("B", looper="L")
        b.begin("S1"); b.send("S1", "A"); b.end("S1")
        b.begin("S2"); b.send("S2", "B"); b.end("S2")
        b.begin("A"); b.fork("A", "T"); b.end("A")
        b.begin("T"); b.register("T", "Lst"); b.end("T")
        b.begin("B"); b.perform("B", "Lst"); b.end("B")
        assert_equivalent(b.build(), CAFA_MODEL)

    def test_reference_agrees_on_fig4d_verdict(self):
        slow = ReferenceHappensBefore(self._fig4d())
        trace = self._fig4d()
        end_b = max(i for i, op in enumerate(trace.ops) if op.task == "B")
        begin_a = min(i for i, op in enumerate(trace.ops) if op.task == "A")
        assert slow.ordered(end_b, begin_a)

    def test_queue_rule_seeding_adds_nothing_extra(self):
        """A long same-task send chain: the seeded consecutive edges
        must yield exactly the reference orderings (no more, no less)."""
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        names = [f"E{i}" for i in range(6)]
        for name in names:
            b.event(name, looper="L")
        b.begin("T")
        for name in names:
            b.send("T", name, delay=2)
        b.end("T")
        for name in names:
            b.begin(name)
            b.end(name)
        assert_equivalent(b.build(), CAFA_MODEL)


def first_and_last_ops(trace, stop):
    """task -> (first op, last op) among ``trace``'s first ``stop``."""
    spans = {}
    for i in range(stop):
        task = trace.task_of(i)
        spans[task] = (spans.get(task, (i, i))[0], i)
    return spans


class TestScanEdgeCases:
    """Inputs generated traces never produce: a task with no key op,
    and a streamed relation whose store holds ops past its last
    ingest.  Each must agree with the oracle under both models."""

    def _no_key_op_trace(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.thread("U")
        b.event("E", looper="L")
        b.event("F", looper="L")
        b.begin("T"); b.send("T", "E"); b.write("T", "x")
        # U and F have no key op: only a read and a write each
        b.read("U", "x"); b.write("U", "y")
        b.end("T")
        b.read("F", "y"); b.write("F", "x")
        b.begin("E"); b.read("E", "x"); b.write("E", "y"); b.end("E")
        return b.build(validate=False)

    @pytest.mark.parametrize(
        "config", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
    )
    def test_a_task_with_no_key_op_has_one_node_at_its_last_op(self, config):
        trace = self._no_key_op_trace()
        assert_equivalent(trace, config)
        nodes = build_happens_before(trace, config).graph
        node_ops = {nodes.op_of(n) for n in range(nodes.node_count)}
        spans = first_and_last_ops(trace, len(trace))
        assert spans["U"][1] in node_ops and spans["U"][0] not in node_ops
        if config is CAFA_MODEL:
            assert spans["F"][1] in node_ops and spans["F"][0] not in node_ops

    def _late_tasks_trace(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.thread("U")
        b.event("E", looper="L")
        b.begin("L")
        b.begin("T"); b.send("T", "E"); b.write("T", "x"); b.fork("T", "U")
        b.end("T")
        b.begin("E"); b.read("E", "x"); b.end("E")
        b.begin("U"); b.write("U", "x"); b.end("U")
        b.end("L")
        return b.build()

    @pytest.mark.parametrize(
        "config", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
    )
    def test_a_streamed_prefix_builds_only_the_prefix(self, config):
        """At every cut, ops past the last ingest are in the store but
        not in the relation: a task whose first op lies past the cut
        has no node, and each task's chain ends at its last op inside
        the cut."""
        trace = self._late_tasks_trace()
        for stop in range(1, len(trace) + 1):
            online = IncrementalHB(trace, config)
            online.ingest(0, stop)
            online.poll()
            hb = online.relation()
            prefix = Trace([trace[i] for i in range(stop)], tasks=trace.tasks)
            oracle = ReferenceHappensBefore(prefix, config)
            for i in range(stop):
                for j in range(stop):
                    assert hb.ordered(i, j) == oracle.ordered(i, j), (stop, i, j)
            graph = hb.graph
            node_ops = [graph.op_of(n) for n in range(graph.node_count)]
            assert max(node_ops) == stop - 1
            if config is CAFA_MODEL:
                lasts = {last for _, last in first_and_last_ops(trace, stop).values()}
                assert lasts <= set(node_ops)
