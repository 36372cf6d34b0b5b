"""The columnar trace store: append/materialize round-trips, cached
index views, the OpsView sequence protocol, memory accounting, and the
external-input validation invariant."""

import pytest

from repro.testing import TraceBuilder
from repro.trace import (
    Begin,
    BranchKind,
    Deref,
    End,
    OpKind,
    OpsView,
    TaskInfo,
    TaskKind,
    Trace,
    TraceError,
    TraceStore,
    Wait,
    trace_profile,
)
from tests.test_property_structures import operation_st

from hypothesis import given, settings


def rich_trace():
    """One of every interesting payload shape."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.event("E", looper="L", external=True)
    b.begin("T")
    b.fork("T", "T2")
    b.write("T", "x", site="w:x")
    b.read("T", "x", site="r:x")
    b.acquire("T", "m")
    b.release("T", "m")
    b.send("T", "E", delay=3)
    b.end("T")
    b.begin("E")
    b.ptr_read("E", ("obj", 4, "p"), object_id=8, method="onE", pc=1)
    b.deref("E", object_id=8, method="onE", pc=2)
    b.branch("E", branch_kind=BranchKind.IF_EQZ, pc=3, target=9, object_id=8)
    b.ptr_write("E", ("obj", 4, "p"), value=None, container=4, method="onE", pc=4)
    b.ipc_call("E", txn=7, service="svc", oneway=True)
    b.end("E")
    return b.build()


def store_columns(store):
    """Everything ``store`` holds, as plain values: the global columns,
    each kind bucket's index array and payload columns, both interning
    tables and the per-task index (column-for-column equality)."""
    return {
        "kinds": bytes(store.kinds),
        "times": list(store.times),
        "task_ids": list(store.task_ids),
        "rows": list(store.rows),
        "buckets": [
            None if bucket is None
            else (list(bucket.indices), [list(col) for col in bucket.columns])
            for bucket in store._buckets
        ],
        "symbols": [store.symbols.value(k) for k in range(len(store.symbols))],
        "addresses": [
            store.addresses.value(k) for k in range(len(store.addresses))
        ],
        "task_ops": {tid: list(ops) for tid, ops in store._task_ops.items()},
    }


class TestRoundTrip:
    def test_every_op_materializes_identically(self):
        ops = list(rich_trace().ops)
        trace = Trace(ops=ops)
        assert len(trace) == len(ops)
        for i, op in enumerate(ops):
            assert trace.ops[i] == op
            assert type(trace.ops[i]) is type(op)

    @settings(max_examples=200)
    @given(operation_st)
    def test_any_single_operation_survives_the_columns(self, op):
        store = TraceStore()
        i = store.append(op)
        back = store.op(i)
        assert back == op
        assert type(back) is type(op)
        assert store.kind_of(i) is op.kind
        assert store.task_of(i) == op.task
        assert store.time_of(i) == op.time

    def test_meta_iteration_is_payload_free_and_ordered(self):
        trace = rich_trace()
        meta = list(trace.store.iter_meta())
        assert [m[0] for m in meta] == list(range(len(trace)))
        for i, kind, task, time in meta:
            op = trace.ops[i]
            assert (kind, task, time) == (op.kind, op.task, op.time)


class TestFailedAppend:
    """A row whose value does not fit its column raises and leaves the
    op columns and indices as they were, so every op still
    materializes."""

    @pytest.mark.parametrize("pc", ["x", 1 << 70, 1.5])
    def test_bad_payload_value_changes_nothing(self, pc):
        trace = rich_trace()
        before = store_columns(trace.store)
        # method "onE" is interned already, so no string is new either
        op = Deref(task="E", time=99, object_id=8, method="onE", pc=pc)
        with pytest.raises((TypeError, OverflowError)):
            trace.append(op)
        assert store_columns(trace.store) == before
        assert list(trace.ops) == list(rich_trace().ops)

    def test_bad_time_changes_nothing(self):
        trace = rich_trace()
        before = store_columns(trace.store)
        with pytest.raises(OverflowError):
            trace.append(End(task="T", time=1 << 70))
        assert store_columns(trace.store) == before

    def test_first_op_of_a_kind_leaves_no_bucket_behind(self):
        trace = rich_trace()
        before = store_columns(trace.store)
        with pytest.raises(TypeError):
            trace.append(Wait(task="T", time=99, monitor="m", ticket="x"))
        assert store_columns(trace.store) == before
        assert trace.by_kind(OpKind.WAIT) == []


class TestAdoptTail:
    """The epoch hand-off: ops ``start..`` of one store adopted into
    another as column slices."""

    @pytest.mark.parametrize("start", [0, 1, 9, 14])
    def test_tail_materializes_identically_with_its_own_tables(self, start):
        ops = list(rich_trace().ops)
        old = Trace(ops=ops).store
        fresh = TraceStore()
        fresh.adopt_tail(old, start)
        tail = ops[start:]
        assert [fresh.op(i) for i in range(len(fresh))] == tail
        reference = Trace(ops=tail).store
        strings = {reference.symbols.value(k) for k in range(len(reference.symbols))}
        assert {fresh.symbols.value(k) for k in range(len(fresh.symbols))} == strings
        assert len(fresh.addresses) == len(reference.addresses)
        for kind in OpKind:
            assert fresh.by_kind(kind) == reference.by_kind(kind)
        for task in {op.task for op in ops}:
            assert fresh.ops_of(task) == reference.ops_of(task)

    def test_adopting_past_the_end_adds_nothing(self):
        old = rich_trace().store
        fresh = TraceStore()
        fresh.adopt_tail(old, len(old))
        assert len(fresh) == 0 and len(fresh.symbols) == 0


class TestIndexViews:
    """The cached index views against a linear scan of the ops."""

    def test_ops_of_matches_legacy_scan(self):
        trace = rich_trace()
        for task in ("T", "E", "absent"):
            scan = [i for i, op in enumerate(trace.ops) if op.task == task]
            assert trace.ops_of(task) == scan

    def test_by_kind_matches_legacy_scan(self):
        trace = rich_trace()
        for kind in OpKind:
            scan = [i for i, op in enumerate(trace.ops) if op.kind is kind]
            assert trace.by_kind(kind) == scan

    def test_indices_of_merges_ascending(self):
        store = rich_trace().store
        merged = store.indices_of(OpKind.BEGIN, OpKind.END, OpKind.SEND)
        assert merged == sorted(merged)
        assert merged == sorted(
            store.by_kind(OpKind.BEGIN)
            + store.by_kind(OpKind.END)
            + store.by_kind(OpKind.SEND)
        )

    def test_indices_of_absent_kinds_is_empty(self):
        assert rich_trace().store.indices_of(OpKind.JOIN, OpKind.WAIT) == []

    def test_indices_of_a_range_matches_legacy_scan(self):
        trace = rich_trace()
        kinds = (OpKind.BEGIN, OpKind.SEND, OpKind.JOIN, OpKind.PTR_WRITE)
        n = len(trace)
        for start in range(n + 1):
            for stop in range(start, n + 1):
                scan = [i for i in range(start, stop) if trace[i].kind in kinds]
                assert trace.store.indices_of(*kinds, start=start, stop=stop) == scan

    def test_task_last_ops_matches_legacy_scan(self):
        trace = rich_trace()
        store = trace.store
        for stop in range(len(trace) + 1):
            last = {}
            for i in range(stop):
                last[trace[i].task] = i
            spans = [(store.symbols.value(tid), i) for tid, i in store.task_last_ops(stop)]
            assert spans == list(last.items())

    def test_column_exposes_raw_ids(self):
        store = rich_trace().store
        indices, col = store.column(OpKind.READ, "var")
        assert len(indices) == len(col) == 1
        assert store.symbols.value(col[0]) == "x"
        with pytest.raises(KeyError):
            store.column(OpKind.READ, "no_such_field")


class TestOpsView:
    def test_slicing_and_negative_indexing(self):
        trace = rich_trace()
        view = trace.ops
        assert isinstance(view, OpsView)
        assert view[-1] == view[len(view) - 1]
        assert view[2:5] == list(view)[2:5]
        with pytest.raises(IndexError):
            view[len(view)]

    def test_equality_against_lists_and_views(self):
        trace, ops = rich_trace(), list(rich_trace().ops)
        assert trace.ops == ops
        assert not (trace.ops != rich_trace().ops)
        assert trace.ops != ops[:-1]


class TestProfile:
    def test_profile_counts_and_format(self):
        trace = rich_trace()
        profile = trace.profile(disk_bytes=123)
        assert profile.ops == len(trace)
        assert profile.tasks == len(trace.tasks)
        assert profile.symbols == len(trace.store.symbols)
        assert profile.memory_bytes > 0
        text = profile.format()
        assert "trace store: " in text and "on disk: 123 bytes" in text

    def test_trace_profile_free_function_matches_method(self):
        trace = rich_trace()
        assert trace_profile(trace) == trace.profile()


class TestExternalSeqValidation:
    """Satellite: duplicate ``external_seq`` values among external
    events must be rejected — a duplicate makes the external-input
    chain order ambiguous."""

    def test_duplicate_external_seq_rejected(self):
        trace = Trace()
        trace.add_task(TaskInfo(task="L", task_kind=TaskKind.LOOPER))
        for name in ("E1", "E2"):
            trace.add_task(
                TaskInfo(
                    task=name,
                    task_kind=TaskKind.EVENT,
                    looper="L",
                    queue="L.queue",
                    external=True,
                    external_seq=7,
                )
            )
        with pytest.raises(TraceError, match="share external_seq 7"):
            trace.validate()

    def test_duplicate_external_seq_error_names_colliding_ops(self):
        """The error must point at the colliding operations: each
        event's first operation index and kind (or "no operations" for
        an event never dispatched), so the offending records can be
        found in the trace without a manual scan."""
        trace = Trace()
        trace.add_task(TaskInfo(task="L", task_kind=TaskKind.LOOPER))
        for name in ("E1", "E2"):
            trace.add_task(
                TaskInfo(
                    task=name,
                    task_kind=TaskKind.EVENT,
                    looper="L",
                    queue="L.queue",
                    external=True,
                    external_seq=9,
                )
            )
        trace.append(Begin(task="E1"))
        trace.append(End(task="E1"))
        with pytest.raises(TraceError) as excinfo:
            trace.validate()
        message = str(excinfo.value)
        assert "share external_seq 9" in message
        # E1 was dispatched: its first op's index and kind are named.
        assert "'E1' (first op #0 (begin))" in message
        # E2 never ran: the message says so rather than pointing nowhere.
        assert "'E2' (no operations)" in message

    def test_distinct_external_seq_accepted(self):
        b = TraceBuilder()
        b.looper("L")
        b.event("E1", looper="L", external=True)
        b.event("E2", looper="L", external=True)
        b.begin("E1"); b.end("E1")
        b.begin("E2"); b.end("E2")
        b.build().validate()  # distinct seqs: no error

    def test_internal_events_may_share_the_sentinel(self):
        # Non-external events all carry external_seq=-1; that is fine.
        b = TraceBuilder()
        b.looper("L")
        b.event("E1", looper="L")
        b.event("E2", looper="L")
        b.begin("E1"); b.end("E1")
        b.begin("E2"); b.end("E2")
        b.build().validate()
