"""Property-based tests on core data structures: the event queue,
trace serialization, and the key-node graph."""

from hypothesis import given, settings, strategies as st

from repro.hb import KeyGraph
from repro.runtime import EventQueue, SimEvent
from repro.trace import (
    Begin,
    Branch,
    BranchKind,
    Deref,
    End,
    Fork,
    IpcCall,
    Notify,
    Operation,
    PtrRead,
    PtrWrite,
    Read,
    Send,
    SendAtFront,
    Wait,
    Write,
    operation_from_dict,
)


# ---------------------------------------------------------------------------
# EventQueue
# ---------------------------------------------------------------------------

queue_ops_st = st.lists(
    st.tuples(
        st.sampled_from(["enqueue", "enqueue_front", "pop"]),
        st.integers(min_value=0, max_value=20),  # delay / time advance
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(queue_ops_st)
def test_event_queue_pop_respects_readiness_and_fifo(script):
    queue = EventQueue("q")
    now = 0
    counter = 0
    normal_order = []  # ids of tail-enqueued events, in enqueue order
    popped = []
    when_of = {}
    for action, arg in script:
        if action == "enqueue":
            counter += 1
            when = now + arg
            when_of[counter] = when
            queue.enqueue(SimEvent(task_id=str(counter), label="", handler=None, when=when))
            normal_order.append(counter)
        elif action == "enqueue_front":
            counter += 1
            when_of[counter] = now
            queue.enqueue_front(
                SimEvent(task_id=str(counter), label="", handler=None, when=now)
            )
        else:
            now += arg
            event = queue.pop_ready(now)
            if event is not None:
                # readiness: the constraint must have elapsed
                assert event.when <= now
                popped.append(int(event.task_id))

    # FIFO among tail-enqueued events with non-decreasing deadlines:
    # if a was enqueued before b and a.when <= b.when, a pops first
    # (this is the foundation of queue rule 1).
    popped_positions = {e: i for i, e in enumerate(popped)}
    for i, a in enumerate(normal_order):
        for b in normal_order[i + 1 :]:
            if when_of[a] <= when_of[b] and a in popped_positions and b in popped_positions:
                assert popped_positions[a] < popped_positions[b], (a, b)


@settings(max_examples=100, deadline=None)
@given(queue_ops_st)
def test_event_queue_conserves_events(script):
    queue = EventQueue("q")
    now, counter, popped = 0, 0, 0
    for action, arg in script:
        if action == "enqueue":
            counter += 1
            queue.enqueue(SimEvent(task_id=str(counter), label="", handler=None, when=now + arg))
        elif action == "enqueue_front":
            counter += 1
            queue.enqueue_front(SimEvent(task_id=str(counter), label="", handler=None, when=now))
        else:
            now += arg
            if queue.pop_ready(now) is not None:
                popped += 1
    assert len(queue) == counter - popped
    assert queue.enqueued == counter


# ---------------------------------------------------------------------------
# operation serialization
# ---------------------------------------------------------------------------

task_st = st.sampled_from(["t", "u", "ev1:handler"])
addr_st = st.tuples(
    st.sampled_from(["obj", "static"]),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["p", "db", "handler"]),
)

operation_st = st.one_of(
    st.builds(Begin, task=task_st, time=st.integers(0, 100)),
    st.builds(End, task=task_st, time=st.integers(0, 100)),
    st.builds(Read, task=task_st, time=st.integers(0, 100), var=st.text(max_size=5), site=st.text(max_size=5)),
    st.builds(Write, task=task_st, time=st.integers(0, 100), var=st.text(max_size=5), site=st.text(max_size=5)),
    st.builds(Fork, task=task_st, child=st.text(max_size=5)),
    st.builds(Wait, task=task_st, monitor=st.text(max_size=5), ticket=st.integers(-1, 50)),
    st.builds(Notify, task=task_st, monitor=st.text(max_size=5), ticket=st.integers(-1, 50)),
    st.builds(Send, task=task_st, event=st.text(max_size=5), delay=st.integers(0, 100), queue=st.text(max_size=5)),
    st.builds(SendAtFront, task=task_st, event=st.text(max_size=5), queue=st.text(max_size=5)),
    st.builds(
        PtrRead,
        task=task_st,
        address=addr_st,
        object_id=st.one_of(st.none(), st.integers(1, 99)),
        method=st.text(max_size=5),
        pc=st.integers(-1, 99),
    ),
    st.builds(
        PtrWrite,
        task=task_st,
        address=addr_st,
        value=st.one_of(st.none(), st.integers(1, 99)),
        container=st.one_of(st.none(), st.integers(1, 99)),
        method=st.text(max_size=5),
        pc=st.integers(-1, 99),
    ),
    st.builds(Deref, task=task_st, object_id=st.integers(1, 99), method=st.text(max_size=5), pc=st.integers(0, 99)),
    st.builds(
        Branch,
        task=task_st,
        branch_kind=st.sampled_from(list(BranchKind)),
        pc=st.integers(0, 99),
        target=st.integers(0, 99),
        object_id=st.one_of(st.none(), st.integers(1, 99)),
        method=st.text(max_size=5),
    ),
    st.builds(IpcCall, task=task_st, txn=st.integers(1, 999), service=st.text(max_size=5), oneway=st.booleans()),
)


@settings(max_examples=300)
@given(operation_st)
def test_any_operation_round_trips_through_dict(op):
    back = operation_from_dict(op.to_dict())
    assert back == op
    assert type(back) is type(op)


# ---------------------------------------------------------------------------
# KeyGraph on random DAGs
# ---------------------------------------------------------------------------

edges_st = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] < e[1]),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(edges_st)
def test_keygraph_closure_matches_dfs_on_random_dags(edges):
    g = KeyGraph()
    for i in range(15):
        g.add_node(i)
    adjacency = {i: set() for i in range(15)}
    for u, v in edges:
        g.add_edge(u, v, "e")
        adjacency[u].add(v)

    def dfs_reaches(src, dst):
        seen, stack = set(), [src]
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    for u in range(15):
        for v in range(15):
            expected = u == v or dfs_reaches(u, v)
            assert g.reaches(u, v) == expected, (u, v)
