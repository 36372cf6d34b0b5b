"""Build-time consistency checks of the happens-before builder.

Regression tests for two bugs:

* the closure/cycle check used to run only as a side effect of the
  derived-rule fixpoint, so ablation configurations that disable the
  fixpoint (``sequential_events=True``, or atomicity and all queue
  rules off) deferred :class:`HBCycleError` to whichever ``ordered()``
  query happened to run first — now the builder closes the graph
  unconditionally and an inconsistent trace fails at build time under
  *every* configuration;
* ``HappensBefore.explain`` guarded its internal invariants with bare
  ``assert`` statements that vanish under ``python -O`` — they are now
  :class:`HBInvariantError` with descriptive messages.
"""

import pytest

from repro.hb import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    NO_QUEUE_MODEL,
    HBCycleError,
    HBInvariantError,
    ModelConfig,
    build_happens_before,
)
from repro.hb.builder import _BuildState, _scan
from repro.testing import TraceBuilder
from repro.trace import Begin, End, Send, SendAtFront, Trace


def cyclic_trace():
    """A hand-written trace whose derived order is cyclic.

    Thread A joins on B *before* forking it: join gives
    ``end(B) < join`` and fork gives ``fork < begin(B)``, which closes
    a cycle through A's program order.  Both tasks are plain threads,
    so the cycle exists under every configuration (fork/join is never
    ablated), including the ones that skip the derived-rule fixpoint.
    """
    b = TraceBuilder()
    b.thread("A")
    b.thread("B")
    b.begin("A")
    b.join("A", "B")
    b.fork("A", "B")
    b.end("A")
    b.begin("B")
    b.end("B")
    return b.build(validate=False)


def shared_queue_trace():
    """Two loopers draining one queue: outside the model (§3.1)."""
    b = TraceBuilder()
    b.looper("L1")
    b.looper("L2")
    b.thread("T")
    b.event("A", looper="L1", queue="shared")
    b.event("B", looper="L2", queue="shared")
    b.begin("T")
    b.send("T", "A")
    b.send("T", "B")
    b.end("T")
    for event in ("A", "B"):
        b.begin(event)
        b.end(event)
    return b.build()


ABLATIONS = [
    pytest.param(CAFA_MODEL, id="cafa"),
    pytest.param(CONVENTIONAL_MODEL, id="conventional"),
    pytest.param(NO_QUEUE_MODEL, id="no-queue"),
    pytest.param(ModelConfig(sequential_events=True), id="sequential-events"),
    pytest.param(
        ModelConfig(
            atomicity=False,
            queue_rule_1=False,
            queue_rule_2=False,
            queue_rule_3=False,
            queue_rule_4=False,
        ),
        id="derived-rules-off",
    ),
]


class TestBuildTimeCycleCheck:
    @pytest.mark.parametrize("config", ABLATIONS)
    def test_cycle_raises_at_build_time(self, config):
        with pytest.raises(HBCycleError) as excinfo:
            build_happens_before(cyclic_trace(), config)
        assert len(excinfo.value.cycle) >= 2

    def test_acyclic_trace_still_builds_under_ablations(self):
        b = TraceBuilder()
        b.thread("A")
        b.thread("B")
        b.begin("A")
        b.fork("A", "B")
        b.end("A")
        b.begin("B")
        b.end("B")
        trace = b.build()
        for param in ABLATIONS:
            hb = build_happens_before(trace, param.values[0])
            assert hb.ordered(0, len(trace) - 1)


def two_disjoint_threads():
    b = TraceBuilder()
    b.thread("T1")
    b.thread("T2")
    b.begin("T1")
    b.end("T1")
    b.begin("T2")
    b.end("T2")
    return b.build()


class TestExplainInvariantErrors:
    """White-box: force each internal inconsistency and check the error."""

    def test_explain_reports_broken_edge_lists(self):
        b = TraceBuilder()
        b.thread("T1")
        b.thread("T2")
        b.begin("T1")
        b.fork("T1", "T2")
        b.end("T1")
        b.begin("T2")
        b.end("T2")
        trace = b.build()
        hb = build_happens_before(trace)
        a, z = 0, len(trace) - 1
        assert trace.task_of(a) == "T1" and trace.task_of(z) == "T2"
        assert hb.explain(a, z) is not None
        # Corrupt the successor lists: reachability (cached bitsets)
        # still says ordered, but no edge path exists any more.
        for succ in hb.graph._succ:
            succ.clear()
        with pytest.raises(HBInvariantError, match="disagree with the edge lists"):
            hb.explain(a, z)

    def test_explain_reports_inconsistent_closure(self):
        hb = build_happens_before(two_disjoint_threads())
        # Ops 0..1 are T1, 2..3 are T2 — genuinely concurrent.  Lie
        # about ordered() so explain() walks into the bitset lookup.
        hb.ordered = lambda a, b: True
        with pytest.raises(HBInvariantError, match="closure bitsets are inconsistent"):
            hb.explain(0, 3)

    def test_explain_reports_missing_key_node(self):
        hb = build_happens_before(two_disjoint_threads())
        hb.ordered = lambda a, b: True
        hb._first_key_at_or_after = lambda task, pos: None
        with pytest.raises(HBInvariantError, match="no key node at or after"):
            hb.explain(0, 3)

    def test_invariant_error_is_a_runtime_error(self):
        # Callers that catch RuntimeError keep working.
        assert issubclass(HBInvariantError, RuntimeError)


class TestHarvestOrder:
    """White-box: the scan harvests each event's send and dispatch
    facts in trace order, and the last writer wins."""

    L_QUEUE = "L.queue"

    def _ops(self, *sends):
        """T sends ``sends`` to event A; then A runs on looper L."""
        ops = [Begin(task="T", time=0)]
        for k, (front, queue) in enumerate(sends, start=1):
            if front:
                ops.append(SendAtFront(task="T", time=k, event="A", queue=queue))
            else:
                ops.append(Send(task="T", time=k, event="A", delay=k, queue=queue))
        ops += [End(task="T", time=10), Begin(task="A", time=11), End(task="A", time=12)]
        return ops

    def _scanned(self, ops, stop):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.event("A", looper="L")
        tasks = b.build(validate=False).tasks
        state = _BuildState(trace=Trace(ops, tasks=tasks), config=CAFA_MODEL)
        _scan(state, 0, stop)
        return state

    def test_a_send_after_a_send_at_front_rewrites_it(self):
        ops = self._ops((True, "Q1"), (False, "Q2"))
        rec = self._scanned(ops, 3).events["A"]
        assert (rec.send_index, rec.at_front, rec.delay) == (2, False, 2)
        assert rec.queue == "Q2"

    def test_a_send_at_front_after_a_send_rewrites_it(self):
        ops = self._ops((False, "Q1"), (True, ""))
        rec = self._scanned(ops, 3).events["A"]
        assert (rec.send_index, rec.at_front, rec.delay) == (2, True, 0)
        # a send with no queue leaves the queue as it was
        assert rec.queue == "Q1"

    def test_the_begin_and_a_later_send_write_the_queue(self):
        ops = self._ops((False, "Q1"))
        state = self._scanned(ops, len(ops))
        rec = state.events["A"]
        # the BEGIN's task-table entry comes after the send
        assert rec.queue == self.L_QUEUE and rec.looper == "L"
        assert (rec.begin_index, rec.end_index) == (3, 4)
        late = Send(task="T", time=13, event="A", delay=0, queue="Q3")
        state = self._scanned(ops + [late], len(ops) + 1)
        rec = state.events["A"]
        assert rec.queue == "Q3" and rec.send_index == len(ops)

    def test_scanned_ranges_harvest_as_one_scan(self):
        ops = self._ops((False, "Q1"), (True, ""), (False, ""))
        whole = self._scanned(ops, len(ops)).events
        state = self._scanned(ops, 2)
        for start, stop in ((2, 4), (4, len(ops))):
            _scan(state, start, stop)
        assert state.events == whole
