"""Tests for the vector-clock pass of Section 4.2.

With events folded into their loopers the pass must answer exactly what
``build_happens_before(trace, CONVENTIONAL_MODEL)`` answers; with every
task its own component, exactly what the same model without
``sequential_events`` answers.  The differential gate checks both on
the ten stock apps, on generated programs and on random traces that
exercise every base rule.
"""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import CAFA_MODEL, build_happens_before
from repro.apps import ALL_APPS
from repro.hb import CONVENTIONAL_MODEL, ModelNotApplicableError, VectorClockAnalysis
from repro.testing import TraceBuilder

from tests.test_property_hb_reference import run_multi_looper_program
from tests.test_property_runtime_hb import program_specs, run_program

#: fold_events -> the graph configuration the pass must reproduce
MODELS = {
    True: CONVENTIONAL_MODEL,
    False: replace(CONVENTIONAL_MODEL, sequential_events=False),
}
FOLDS = pytest.mark.parametrize("fold", [True, False], ids=["folded", "unfolded"])

ADDR = ("obj", 1, "ptr")


def assert_pass_matches_graph(trace, pairs, fold):
    hb = build_happens_before(trace, MODELS[fold])
    vc = VectorClockAnalysis(trace, {op for pair in pairs for op in pair}, fold_events=fold)
    for a, b in pairs:
        assert vc.ordered(a, b) == hb.ordered(a, b), (a, b, trace[a], trace[b], fold)
    assert vc.concurrent_pairs(pairs) == hb.concurrent_pairs(pairs)


def all_pairs(trace):
    n = len(trace)
    return [(a, b) for a in range(n) for b in range(n)]


class TestVectorClockAnalysis:
    def test_program_order_respected(self):
        b = TraceBuilder()
        b.thread("t")
        b.begin("t")
        i = b.read("t", "x")
        j = b.write("t", "x")
        b.end("t")
        vc = VectorClockAnalysis(b.build())
        assert vc.ordered(i, j)
        assert not vc.ordered(j, i)

    def test_fork_join_edges(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        f = b.fork("t", "u")
        b.begin("u")
        w = b.write("u", "x")
        b.end("u")
        j = b.join("t", "u")
        r = b.read("t", "x")
        b.end("t")
        vc = VectorClockAnalysis(b.build())
        assert vc.ordered(f, w)
        assert vc.ordered(w, r)

    def test_send_edge(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.event("E", looper="L")
        b.begin("T")
        s = b.send("T", "E")
        b.end("T")
        b.begin("E")
        r = b.read("E", "x")
        b.end("E")
        vc = VectorClockAnalysis(b.build())
        assert vc.ordered(s, r)

    def test_agrees_with_graph_on_conventional_rules(self):
        """On a trace with no atomicity/queue-rule structure the VC
        ordering must coincide with the graph ordering."""
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.write("t", "x")
        b.fork("t", "u")
        b.begin("u")
        b.read("u", "x")
        ticket = b.next_ticket()
        b.notify("u", "m", ticket=ticket)
        b.end("u")
        b.wait("t", "m", ticket=ticket)
        b.end("t")
        trace = b.build()
        hb = build_happens_before(trace, CAFA_MODEL)
        vc = VectorClockAnalysis(trace)
        n = len(trace)
        for i in range(n):
            for j in range(n):
                assert vc.ordered(i, j) == hb.ordered(i, j), (i, j)

    def test_underapproximates_on_atomicity_trace(self):
        """The paper's point: the atomicity conclusion is invisible to
        the online algorithm, and the VC order is a strict subset."""
        b = TraceBuilder()
        b.looper("L")
        b.thread("S1")
        b.thread("S2")
        b.thread("T")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("S1"); b.send("S1", "A"); b.end("S1")
        b.begin("S2"); b.send("S2", "B"); b.end("S2")
        b.begin("A"); b.fork("A", "T"); b.end("A")
        b.begin("T"); b.register("T", "Lst"); b.end("T")
        b.begin("B"); b.perform("B", "Lst"); b.end("B")
        trace = b.build()
        hb = build_happens_before(trace, CAFA_MODEL)
        vc = VectorClockAnalysis(trace)
        n = len(trace)
        vc_pairs = {(i, j) for i in range(n) for j in range(n) if vc.ordered(i, j)}
        hb_pairs = {(i, j) for i in range(n) for j in range(n) if hb.ordered(i, j)}
        assert vc_pairs < hb_pairs  # strict subset

    def test_external_chain_applied(self):
        b = TraceBuilder()
        b.looper("L")
        b.event("e1", looper="L", external=True)
        b.event("e2", looper="L", external=True)
        b.begin("e1")
        i = b.read("e1", "x")
        b.end("e1")
        b.begin("e2")
        j = b.write("e2", "x")
        b.end("e2")
        vc = VectorClockAnalysis(b.build())
        assert vc.ordered(i, j)

    def test_ipc_edges_applied(self):
        b = TraceBuilder()
        b.thread("a")
        b.thread("b")
        b.begin("a")
        b.begin("b")
        w = b.write("a", "x")
        b.ipc_call("a", txn=1, service="s")
        b.ipc_handle("b", txn=1, service="s")
        r = b.read("b", "x")
        b.ipc_reply("b", txn=1, service="s")
        b.ipc_return("a", txn=1, service="s")
        r2 = b.read("a", "y")
        b.end("a")
        b.end("b")
        vc = VectorClockAnalysis(b.build())
        assert vc.ordered(w, r)
        assert vc.ordered(r, r2)

    def test_ticketless_wait_joins_every_earlier_notify(self):
        """Without a ticket the signal-wait rule orders *every* earlier
        notify of the monitor before the wait, not only the latest."""
        b = TraceBuilder()
        for name in ("n1", "n2", "w"):
            b.thread(name)
            b.begin(name)
        first = b.write("n1", "x")
        b.notify("n1", "m")
        second = b.write("n2", "y")
        b.notify("n2", "m")
        b.wait("w", "m")
        r = b.read("w", "x")
        for name in ("n1", "n2", "w"):
            b.end(name)
        trace = b.build()
        for fold in MODELS:
            vc = VectorClockAnalysis(trace, fold_events=fold)
            assert vc.ordered(first, r) and vc.ordered(second, r)
            assert_pass_matches_graph(trace, all_pairs(trace), fold)

    def test_folded_events_take_their_loopers_program_order(self):
        """Folded, two events of one looper are ordered by dispatch
        order, as the conventional model says; unfolded they are not."""
        b = TraceBuilder()
        b.looper("L")
        b.thread("T1")
        b.thread("T2")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("T1"); b.send("T1", "A"); b.end("T1")
        b.begin("T2"); b.send("T2", "B"); b.end("T2")
        b.begin("A"); w = b.write("A", "x"); b.end("A")
        b.begin("B"); r = b.read("B", "x"); b.end("B")
        trace = b.build()
        assert VectorClockAnalysis(trace, [w, r], fold_events=True).ordered(w, r)
        assert VectorClockAnalysis(trace, [w, r]).concurrent(w, r)

    def test_only_the_queried_ops_keep_a_clock(self):
        """Each queried op keeps one clock over the queried ops'
        components; an op that was not queried has no answer."""
        trace = ALL_APPS[0](scale=0.02, seed=0).run().trace
        ops = [len(trace) // 3, len(trace) // 2]
        vc = VectorClockAnalysis(trace, ops, fold_events=True)
        assert set(vc._stamp) == set(ops)
        assert all(len(clock) <= len(ops) for _, _, clock in vc._stamp.values())
        with pytest.raises(KeyError):
            vc.ordered(ops[0], ops[1] + 1)


# ---------------------------------------------------------------------------
# the differential gate
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def app_trace(name):
    app_cls = next(cls for cls in ALL_APPS if cls.name == name)
    return app_cls(scale=0.02, seed=0).run().trace


@FOLDS
@pytest.mark.parametrize("app", [cls.name for cls in ALL_APPS])
def test_pass_matches_graph_on_stock_apps(app, fold):
    """4,000 random pairs plus every pair of an 80-op window in the
    middle of the trace."""
    trace = app_trace(app)
    n = len(trace)
    rng = random.Random(app)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4000)]
    window = range(n // 2 - 40, n // 2 + 40)
    pairs += [(a, b) for a in window for b in window]
    assert_pass_matches_graph(trace, pairs, fold)


@settings(max_examples=25, deadline=None)
@given(program_specs())
def test_pass_matches_graph_on_generated_programs(spec):
    trace = run_program(spec)
    if len(trace) > 120:
        return
    for fold in MODELS:
        assert_pass_matches_graph(trace, all_pairs(trace), fold)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pass_matches_graph_with_posting_handlers(seed):
    trace = run_multi_looper_program(seed)
    if len(trace) > 120:
        return
    for fold in MODELS:
        assert_pass_matches_graph(trace, all_pairs(trace), fold)


def base_rule_trace(seed):
    """A random trace that exercises every base rule, with every
    partner in trace order: forks and sends before the BEGIN they
    target, joins after the END, each external event after its
    predecessor ended.  Built unvalidated, so a looper's events may
    overlap."""
    rng = random.Random(seed)
    b = TraceBuilder()
    loopers = ["L0", "L1"]
    for looper in loopers:
        b.looper(looper)
    live, pending, ended = [], [], []
    tickets, calls, replies = [], [], []
    externals = [f"X{k}" for k in range(rng.randrange(4))]
    for k, name in enumerate(externals):
        b.event(name, looper=loopers[k % 2], external=True)
    for name in ("T0", "T1"):
        b.thread(name)
        b.begin(name)
        live.append(name)
    for step in range(rng.randrange(10, 60)):
        action = rng.choice(
            "write notify wait register perform fork send front begin end "
            "join call handle reply return external".split()
        )
        if not live and action not in ("begin", "external"):
            continue
        task = rng.choice(live) if live else None
        if action == "write":
            b.write(task, rng.choice("xy"))
        elif action == "notify":
            ticket = b.next_ticket() if rng.random() < 0.5 else -1
            if ticket >= 0:
                tickets.append(ticket)
            b.notify(task, rng.choice(["m0", "m1"]), ticket=ticket)
        elif action == "wait":
            ticket = rng.choice(tickets) if tickets and rng.random() < 0.5 else -1
            b.wait(task, rng.choice(["m0", "m1"]), ticket=ticket)
        elif action in ("register", "perform"):
            getattr(b, action)(task, rng.choice(["l0", "l1"]))
        elif action == "fork":
            child = f"F{step}"
            b.thread(child)
            b.fork(task, child)
            pending.append(child)
        elif action in ("send", "front"):
            event = f"E{step}"
            b.event(event, looper=rng.choice(loopers))
            (b.send if action == "send" else b.send_at_front)(task, event)
            pending.append(event)
        elif action == "begin" and pending:
            started = pending.pop(rng.randrange(len(pending)))
            b.begin(started)
            live.append(started)
        elif action == "end":
            live.remove(task)
            b.end(task)
            ended.append(task)
        elif action == "join" and ended:
            b.join(task, rng.choice(ended))
        elif action == "call":
            calls.append(len(calls) + 1)
            b.ipc_call(task, txn=calls[-1])
        elif action == "handle" and calls:
            b.ipc_handle(task, txn=rng.choice(calls))
        elif action == "reply" and calls:
            replies.append(rng.choice(calls))
            b.ipc_reply(task, txn=replies[-1])
        elif action == "return" and replies:
            b.ipc_return(task, txn=rng.choice(replies))
        elif action == "external" and externals:
            if not any(name.startswith("X") for name in live):
                started = externals.pop(0)
                b.begin(started)
                live.append(started)
    return b.build(validate=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pass_matches_graph_on_random_base_rule_traces(seed):
    trace = base_rule_trace(seed)
    for fold in MODELS:
        assert_pass_matches_graph(trace, all_pairs(trace), fold)


# ---------------------------------------------------------------------------
# partners out of trace order
# ---------------------------------------------------------------------------


def late_fork_trace():
    """Thread U begins, frees a pointer and ends before T forks it; an
    event of T's then uses the pointer.  The trace validates, but the
    fork rule would order the later fork before U's earlier ops."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.thread("U")
    b.event("A", looper="L")
    b.begin("T")
    b.begin("U")
    b.ptr_write("U", ADDR, value=None, container=1, method="onFree", pc=0)
    b.end("U")
    b.send("T", "A")
    b.fork("T", "U")
    b.end("T")
    b.begin("A")
    b.ptr_read("A", ADDR, object_id=9, method="onUse", pc=0)
    b.deref("A", object_id=9, method="onUse", pc=1)
    b.end("A")
    return b.build()


def late_fork_same_looper_trace():
    """Thread T forks U after U began and ended; two events on looper
    L, sent by U and by T, use and free a pointer.  Their race stays on
    one looper, so no report needs the vector-clock pass."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.thread("U")
    b.event("A", looper="L")
    b.event("B", looper="L")
    b.begin("L")
    b.begin("T")
    b.begin("U")
    b.send("U", "A")
    b.end("U")
    b.fork("T", "U")
    b.send("T", "B")
    b.end("T")
    b.begin("A")
    b.ptr_read("A", ADDR, object_id=9, method="onUse", pc=0)
    b.deref("A", object_id=9, method="onUse", pc=1)
    b.end("A")
    b.begin("B")
    b.ptr_write("B", ADDR, value=None, container=1, method="onFree", pc=0)
    b.end("B")
    b.end("L")
    return b.build()


def late_send_trace(front):
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.event("A", looper="L")
    b.begin("T")
    b.begin("A")
    b.end("A")
    (b.send_at_front if front else b.send)("T", "A")
    b.end("T")
    return b.build()


def early_join_trace():
    b = TraceBuilder()
    b.thread("T")
    b.thread("U")
    b.begin("T")
    b.fork("T", "U")
    b.join("T", "U")
    b.end("T")
    b.begin("U")
    b.end("U")
    return b.build()


def overlapping_externals_trace():
    b = TraceBuilder()
    b.looper("L1")
    b.looper("L2")
    b.event("X1", looper="L1", external=True)
    b.event("X2", looper="L2", external=True)
    b.begin("X1")
    b.begin("X2")
    b.end("X2")
    b.end("X1")
    return b.build()


def _op(trace, kind, task):
    return next(i for i, op in enumerate(trace.ops) if op.kind.value == kind and op.task == task)


@FOLDS
@pytest.mark.parametrize(
    "make, rule, source, target",
    [
        (late_fork_trace, "fork", ("fork", "T"), ("begin", "U")),
        (lambda: late_send_trace(False), "send", ("send", "T"), ("begin", "A")),
        (lambda: late_send_trace(True), "sendAtFront", ("sendAtFront", "T"), ("begin", "A")),
        (early_join_trace, "join", ("end", "U"), ("join", "T")),
        (overlapping_externals_trace, "external-input", ("end", "X1"), ("begin", "X2")),
    ],
    ids=["fork", "send", "sendAtFront", "join", "external-input"],
)
def test_out_of_order_partner_is_a_named_error(make, rule, source, target, fold):
    """Edges that would point back in the trace: the graph builder and
    the pass both refuse them, naming both ops in the same words."""
    trace = make()
    u, v = _op(trace, *source), _op(trace, *target)
    assert v < u
    with pytest.raises(ModelNotApplicableError) as built:
        build_happens_before(trace, MODELS[fold])
    with pytest.raises(ModelNotApplicableError) as excinfo:
        VectorClockAnalysis(trace, fold_events=fold)
    message = str(excinfo.value)
    assert f"the {rule} rule orders op #{u} " in message
    assert f"before op #{v} " in message
    assert str(built.value) == message
