"""The incremental reachability index vs. rebuild-from-scratch.

:class:`KeyGraph` maintains its transitive closure across
``add_node``/``add_edge`` once computed.  At every point the live
closure must equal the closure of a fresh graph built from the same
nodes and edges and closed once — hypothesis drives randomized
interleavings of construction and queries, and the app traces exercise
the full builder, which must also agree with the reference oracle.
"""

import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.analysis import bench_scale
from repro.apps import ALL_APPS, MyTracksApp
from repro.hb import HBCycleError, KeyGraph, build_happens_before
from repro.hb.reference import ReferenceHappensBefore

#: scale for the whole-app differentials (REPRO_BENCH_SCALE overrides)
SCALE = bench_scale(default=0.02)


@st.composite
def graph_scripts(draw):
    """A random interleaving of add_node / add_edge / reaches steps.

    Edges always point from a lower to a higher node id, so the graph
    stays acyclic by construction.
    """
    initial = draw(st.integers(min_value=2, max_value=5))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["edge", "query", "node"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=60,
        )
    )
    return initial, steps


def rebuilt(graph):
    """A fresh graph with ``graph``'s nodes and edges, closed once."""
    fresh = KeyGraph()
    for node in range(graph.node_count):
        fresh.add_node(graph.op_of(node))
    for u, v, rule in graph.edges():
        fresh.add_edge(u, v, rule)
    fresh.close()
    return fresh


def replay(script):
    """Run one script on a live graph, checking every query against a
    rebuild of the graph as it stands at that point."""
    initial, steps = script
    inc = KeyGraph()
    count = 0
    for _ in range(initial):
        inc.add_node(count)
        count += 1
    for kind, x, y in steps:
        if kind == "node":
            inc.add_node(count)
            count += 1
        elif kind == "edge":
            a, b = x % count, y % count
            if a == b:
                continue
            u, v = min(a, b), max(a, b)
            fresh_edge = inc.edge_rule(u, v) is None
            assert inc.add_edge(u, v, "r") == fresh_edge
        else:  # query — forces closure at an arbitrary point
            a, b = x % count, y % count
            assert inc.reaches(a, b) == rebuilt(inc).reaches(a, b), (a, b)
    return inc, rebuilt(inc)


@settings(max_examples=200, deadline=None)
@given(graph_scripts())
def test_incremental_closure_matches_rebuild(script):
    inc, fresh = replay(script)
    assert inc.reach_vector() == fresh.reach_vector()
    assert inc.edge_count == fresh.edge_count


@settings(max_examples=100, deadline=None)
@given(graph_scripts())
def test_incremental_computes_at_most_one_full_closure(script):
    inc, fresh = replay(script)
    assert inc.closure_recomputations <= 1
    assert fresh.closure_recomputations == 1
    assert fresh.bits_propagated == 0


@settings(max_examples=100, deadline=None)
@given(graph_scripts(), st.randoms(use_true_random=False))
def test_projection_ors_own_bits_over_the_reach_set(script, rnd):
    """The fixpoint's projection pass runs over the cached topological
    order, which nodes and edges added after the closure invalidate."""
    inc, fresh = replay(script)
    position = {v: i for i, v in enumerate(inc.topological_order())}
    assert sorted(position) == list(range(inc.node_count))
    assert all(position[u] < position[v] for u, v, _ in inc.edges())
    own = {
        v: rnd.randrange(3 * inc.node_count)
        for v in range(inc.node_count)
        if rnd.random() < 0.5
    }
    proj = inc.project(own)
    for x in range(inc.node_count):
        expected = 0
        for y in fresh.reach_set(x):
            if y in own:
                expected |= 1 << own[y]
        assert proj[x] == expected, x


class TestIncrementalMechanics:
    def closed_chain(self, n=4):
        g = KeyGraph()
        nodes = [g.add_node(i) for i in range(n)]
        for u, v in zip(nodes, nodes[1:]):
            g.add_edge(u, v, "po")
        g.close()
        return g, nodes

    def test_edge_on_closed_graph_updates_in_place(self):
        g, nodes = self.closed_chain()
        before = g.closure_recomputations
        extra = g.add_node(99)
        g.add_edge(nodes[-1], extra, "x")
        assert g.reaches(nodes[0], extra)
        assert g.closure_recomputations == before
        assert g.bits_propagated > 0

    def test_implied_edge_propagates_nothing(self):
        g, nodes = self.closed_chain()
        spent = g.bits_propagated
        g.add_edge(nodes[0], nodes[2], "shortcut")
        assert g.bits_propagated == spent

    def test_back_edge_on_closed_graph_raises_immediately(self):
        g, nodes = self.closed_chain()
        with pytest.raises(HBCycleError) as excinfo:
            g.add_edge(nodes[3], nodes[0], "back")
        assert len(excinfo.value.cycle) >= 2

    def test_self_loop_on_closed_graph_raises_immediately(self):
        g, nodes = self.closed_chain()
        with pytest.raises(HBCycleError):
            g.add_edge(nodes[1], nodes[1], "self")

    def test_projection_follows_edges_added_after_the_closure(self):
        g = KeyGraph()
        a, b, c = (g.add_node(i) for i in range(3))
        g.add_edge(b, a, "x")
        g.close()  # caches an order with c before a
        g.add_edge(a, c, "y")
        order = g.topological_order()
        assert order.index(b) < order.index(a) < order.index(c)
        assert g.project({c: 0, b: 1}) == [0b01, 0b11, 0b01]

    def test_close_is_idempotent(self):
        g, nodes = self.closed_chain()
        g.close()
        g.close()
        assert g.closure_recomputations == 1


def _sample_pairs(n, k, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]


class TestBuilderDifferential:
    """The builder's live closure vs. a rebuild, and vs. the oracle."""

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
    def test_incremental_build_is_bit_identical(self, app_cls):
        """The closure the fixpoint maintained edge by edge equals the
        closure of its final edge set computed from scratch."""
        run = app_cls(scale=SCALE, seed=0).run()
        hb = build_happens_before(run.trace)
        fresh = rebuilt(hb.graph)
        assert hb.graph.reach_vector() == fresh.reach_vector()
        assert hb.graph.closure_recomputations == 1

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
    def test_incremental_build_matches_reference_oracle(self, app_cls):
        """The builder agrees with the literal §3.3 model (the staged-
        round oracle, plain-int rows) on sampled ordering queries."""
        run = app_cls(scale=0.01, seed=0).run()
        fast = build_happens_before(run.trace)
        oracle = ReferenceHappensBefore(run.trace)
        for a, b in _sample_pairs(len(run.trace), 1000, seed=7):
            assert fast.ordered(a, b) == oracle.ordered(a, b), (
                a,
                b,
                run.trace[a],
                run.trace[b],
            )

    def test_incremental_build_closes_once_despite_rounds(self):
        run = MyTracksApp(scale=0.05, seed=0).run()
        hb = build_happens_before(run.trace)
        assert hb.iterations >= 2  # the fixpoint does real work here
        assert hb.graph.closure_recomputations == 1
