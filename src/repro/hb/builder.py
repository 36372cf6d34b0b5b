"""Construction of the happens-before relation from a trace.

This is the offline analysis of Section 4.2: build a graph whose
vertices are the trace operations and whose edges encode the causality
model of Section 3.3, then answer ordering queries by reachability.

The base rules (program order, fork-join, signal-and-wait, event
listener, send, external input, IPC) produce edges directly from the
trace.  The atomicity rule and the four event-queue rules are *derived*
rules: their premises are happens-before facts, so they are applied to
a fixpoint — each round finds every rule instance whose premise holds
and whose conclusion is not yet implied, adds the concluded edges, and
repeats until no rule fires.

The fixpoint is *incremental*: the transitive closure is computed once
before round one and maintained in place by
:meth:`repro.hb.graph.KeyGraph.add_edge` as conclusions land, so the
rules read live reach sets instead of per-round snapshots.  Dirty
tracking makes later rounds cheap, at two granularities: a looper's
atomicity group or a queue's rule group is only re-examined when the
reach set of one of its premise nodes (event begins, send operations)
actually changed since the group last ran, and *inside* a dirty group
only the members whose own premise node changed are re-read — one
moving event in a thousand-event looper re-examines one member, not a
thousand (``events_repropagated`` vs ``group_dirty_events`` in the
:class:`BuildProfile`).  Edges concluded in a round are still staged
and applied between rounds, so each round is a function of the closure
at round entry, exactly as in a snapshot-per-round fixpoint.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..trace import (
    Begin,
    End,
    OpKind,
    Send,
    SendAtFront,
    SYNC_KINDS,
    TaskKind,
    Trace,
)
from ..obs.spans import span
from ..trace.store import KIND_LIST
from .bits import SparseBits
from .config import CAFA_MODEL, ModelConfig
from .graph import HappensBefore, KeyGraph

# Rule labels used as edge provenance.
RULE_PROGRAM_ORDER = "program-order"
RULE_FORK = "fork"
RULE_JOIN = "join"
RULE_SIGNAL_WAIT = "signal-wait"
RULE_LISTENER = "listener"
RULE_SEND = "send"
RULE_SEND_AT_FRONT = "sendAtFront"
RULE_EXTERNAL = "external-input"
RULE_IPC_CALL = "ipc-call"
RULE_IPC_REPLY = "ipc-reply"
RULE_LOCK = "lock"
RULE_ATOMICITY = "atomicity"
RULE_QUEUE_1 = "queue-rule-1"
RULE_QUEUE_2 = "queue-rule-2"
RULE_QUEUE_3 = "queue-rule-3"
RULE_QUEUE_4 = "queue-rule-4"


@dataclass
class BuildProfile:
    """Per-phase timings and closure-work counters of one build.

    Attached to :class:`~repro.hb.graph.HappensBefore` as ``profile``
    and surfaced by ``repro.hb.stats`` / ``python -m repro stats`` so
    the cost of each phase — and the effect of the incremental closure
    — is observable without a profiler.
    """

    #: trace scan + event-record harvesting
    scan_seconds: float = 0.0
    #: key-graph construction + base-rule edges
    base_seconds: float = 0.0
    #: the initial transitive closure (and with it the cycle check)
    closure_seconds: float = 0.0
    #: derived-rule fixpoint (rule evaluation + incremental closure upkeep)
    fixpoint_seconds: float = 0.0
    #: fixpoint rounds (== HappensBefore.iterations)
    rounds: int = 0
    #: derived edges applied after each round (excludes the final empty round)
    edges_per_round: List[int] = field(default_factory=list)
    #: full from-scratch closure builds (1 per build: the fixpoint
    #: maintains the closure in place)
    closure_recomputations: int = 0
    #: reachability bits newly set by incremental propagation
    bits_propagated: int = 0
    #: rule groups (per looper / per queue) evaluated across all rounds
    groups_examined: int = 0
    #: rule groups skipped because no premise node's reach set changed
    groups_skipped: int = 0
    #: distinct chunk objects in the final reach vector
    chunks_allocated: int = 0
    #: block-table entries resolved by sharing a chunk already owned by
    #: another node (copy-on-write adoption)
    chunks_shared: int = 0
    #: fraction of chunk references that are the all-ones FULL_CHUNK
    #: (served by the dense-chunk fast path)
    dense_chunk_ratio: float = 0.0
    #: bytes retained by the final closure (sharing-aware)
    closure_bytes: int = 0
    #: rule members whose premise reach sets were re-read in dirty
    #: (post-first) fixpoint rounds — the per-event dirty granularity
    events_repropagated: int = 0
    #: rule members the historical per-group dirty tracking would have
    #: re-read in those same rounds (every member of a dirty group);
    #: ``events_repropagated <= group_dirty_events`` always, and the
    #: gap is the win of per-event tracking
    group_dirty_events: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.scan_seconds
            + self.base_seconds
            + self.closure_seconds
            + self.fixpoint_seconds
        )


@dataclass
class EventRecord:
    """Send/dispatch facts about one event, harvested from the trace."""

    event: str
    queue: Optional[str] = None
    looper: Optional[str] = None
    send_index: Optional[int] = None
    delay: int = 0
    at_front: bool = False
    begin_index: Optional[int] = None
    end_index: Optional[int] = None

    @property
    def dispatched(self) -> bool:
        return self.begin_index is not None and self.end_index is not None


@dataclass
class _BuildState:
    """Internal indices shared by the edge-derivation passes."""

    trace: Trace
    config: ModelConfig
    op_task: List[str] = field(default_factory=list)
    op_pos: List[int] = field(default_factory=list)
    task_ops: Dict[str, List[int]] = field(default_factory=dict)
    events: Dict[str, EventRecord] = field(default_factory=dict)
    task_begin: Dict[str, int] = field(default_factory=dict)
    task_end: Dict[str, int] = field(default_factory=dict)
    #: per-op key flags, precomputed by :func:`_scan`
    is_key: List[bool] = field(default_factory=list)


def _harvest(state: _BuildState, i: int, op) -> None:
    """Record task bounds and event send/dispatch facts for one op
    (the streaming builder's per-op form of :func:`_harvest_store`)."""
    trace = state.trace
    if isinstance(op, Begin):
        state.task_begin.setdefault(op.task, i)
        info = trace.tasks.get(op.task)
        if info is not None and info.task_kind is TaskKind.EVENT:
            rec = state.events.setdefault(op.task, EventRecord(op.task))
            rec.begin_index = i
            rec.looper = info.looper
            rec.queue = info.queue
    elif isinstance(op, End):
        state.task_end[op.task] = i
        info = trace.tasks.get(op.task)
        if info is not None and info.task_kind is TaskKind.EVENT:
            state.events.setdefault(op.task, EventRecord(op.task)).end_index = i
    elif isinstance(op, Send):
        rec = state.events.setdefault(op.event, EventRecord(op.event))
        rec.send_index = i
        rec.delay = op.delay
        rec.at_front = False
        if op.queue:
            rec.queue = op.queue
    elif isinstance(op, SendAtFront):
        rec = state.events.setdefault(op.event, EventRecord(op.event))
        rec.send_index = i
        rec.delay = 0
        rec.at_front = True
        if op.queue:
            rec.queue = op.queue


def _scan(state: _BuildState) -> None:
    """First pass: positions, task bounds, and event records.

    Per-op bookkeeping comes straight from the int columns (no
    :class:`Operation` materialization), then a sparse harvest runs
    over only the kinds that carry event/bound facts.  With
    ``sequential_events`` (the conventional baseline) every event's
    operations are folded into its looper thread's program order.
    """
    trace, config = state.trace, state.config
    store = trace.store
    tasks = trace.tasks
    sequential = config.sequential_events
    symbols = store.symbols
    # task symbol id -> effective task name, resolved lazily (the
    # symbol table also interns non-task strings).
    effective: List[Optional[str]] = [None] * len(symbols)
    op_task, op_pos, task_ops = state.op_task, state.op_pos, state.task_ops
    for i, tid in enumerate(store.task_ids):
        name = effective[tid]
        if name is None:
            name = symbols.value(tid)
            if sequential:
                info = tasks.get(name)
                if (
                    info is not None
                    and info.task_kind is TaskKind.EVENT
                    and info.looper
                ):
                    name = info.looper
            effective[tid] = name
        ops = task_ops.get(name)
        if ops is None:
            ops = task_ops[name] = []
        op_task.append(name)
        op_pos.append(len(ops))
        ops.append(i)
    # Key-op flags from the kind column alone; _build_key_graph indexes
    # this instead of materializing one op per candidate.
    lock_kinds = (OpKind.ACQUIRE, OpKind.RELEASE)
    key_by_code = [
        kind in SYNC_KINDS or (config.lock_edges and kind in lock_kinds)
        for kind in KIND_LIST
    ]
    state.is_key = [key_by_code[code] for code in store.kinds]
    _harvest_store(state, store)


def _harvest_store(state: _BuildState, store) -> None:
    """Columnar :func:`_harvest`: the same facts in the same overwrite
    order, read straight from the kind buckets.

    The four kinds' entries are merged back into trace order because
    their writes interact: a Send after a SendAtFront overwrites
    ``send_index``/``at_front`` (and vice versa), and ``rec.queue`` is
    written by Begin (from the task table) *and* by sends (from the op)
    — last writer in trace order must win, exactly as in the
    materializing sweep.
    """
    tasks = state.trace.tasks
    events = state.events
    task_begin, task_end = state.task_begin, state.task_end
    sym = store.symbols.value
    task_of = store.task_of

    begin_idx = store.by_kind(OpKind.BEGIN)
    end_idx = store.by_kind(OpKind.END)
    send_idx, send_event = store.column(OpKind.SEND, "event")
    _, send_delay = store.column(OpKind.SEND, "delay")
    _, send_queue = store.column(OpKind.SEND, "queue")
    front_idx, front_event = store.column(OpKind.SEND_AT_FRONT, "event")
    _, front_queue = store.column(OpKind.SEND_AT_FRONT, "queue")

    entries = [(i, 0, r) for r, i in enumerate(begin_idx)]
    entries += [(i, 1, r) for r, i in enumerate(end_idx)]
    entries += [(i, 2, r) for r, i in enumerate(send_idx)]
    entries += [(i, 3, r) for r, i in enumerate(front_idx)]
    entries.sort()
    for i, tag, r in entries:
        if tag == 0:  # Begin
            task = task_of(i)
            task_begin.setdefault(task, i)
            info = tasks.get(task)
            if info is not None and info.task_kind is TaskKind.EVENT:
                rec = events.setdefault(task, EventRecord(task))
                rec.begin_index = i
                rec.looper = info.looper
                rec.queue = info.queue
        elif tag == 1:  # End
            task = task_of(i)
            task_end[task] = i
            info = tasks.get(task)
            if info is not None and info.task_kind is TaskKind.EVENT:
                events.setdefault(task, EventRecord(task)).end_index = i
        elif tag == 2:  # Send
            event = sym(send_event[r])
            rec = events.setdefault(event, EventRecord(event))
            rec.send_index = i
            rec.delay = send_delay[r]
            rec.at_front = False
            queue = sym(send_queue[r])
            if queue:
                rec.queue = queue
        else:  # SendAtFront
            event = sym(front_event[r])
            rec = events.setdefault(event, EventRecord(event))
            rec.send_index = i
            rec.delay = 0
            rec.at_front = True
            queue = sym(front_queue[r])
            if queue:
                rec.queue = queue


def _build_key_graph(
    state: _BuildState,
) -> Tuple[KeyGraph, Dict[str, List[int]], Dict[str, List[int]]]:
    """Create nodes for every key op and chain them per task.

    Each task's chain goes through :meth:`KeyGraph.add_chain`, which
    allocates its nodes in one uninterrupted run and thereby
    *guarantees* the contiguous-id invariant behind the sparse query
    path's range probes (a broken run raises instead of degrading).
    """
    graph = KeyGraph()
    task_key_positions: Dict[str, List[int]] = {}
    task_key_nodes: Dict[str, List[int]] = {}
    is_key = state.is_key
    for task, ops in state.task_ops.items():
        last = len(ops) - 1
        positions = [
            pos
            for pos, op_index in enumerate(ops)
            if is_key[op_index] or pos == last
        ]
        task_key_positions[task] = positions
        task_key_nodes[task] = graph.add_chain(
            [ops[pos] for pos in positions], RULE_PROGRAM_ORDER
        )
    return graph, task_key_positions, task_key_nodes


def _add_base_edges(state: _BuildState, graph: KeyGraph) -> None:
    """Edges whose premises are syntactic facts of the trace."""
    trace, config = state.trace, state.config
    notify_by_ticket: Dict[int, int] = {}
    notify_by_monitor: Dict[str, List[int]] = {}
    registers: Dict[str, List[int]] = {}
    ipc_calls: Dict[int, int] = {}
    ipc_replies: Dict[int, int] = {}
    last_release: Dict[str, int] = {}

    def edge(u_op: int, v_op: int, rule: str) -> None:
        graph.add_edge(graph.node_of(u_op), graph.node_of(v_op), rule)

    store = trace.store
    # Per-kind handlers over the raw columns — no :class:`Operation`
    # is ever materialized.  Entries of every enabled kind are merged
    # back into trace order before dispatch because the base rules are
    # stateful scans (a Wait pairs with *earlier* Notifies, an Acquire
    # with the *latest* Release).
    sym = store.symbols.value
    handlers: List[Callable[[int, int], None]] = []
    entries: List[Tuple[int, int, int]] = []

    def add_kind(kind: OpKind, handler: Callable[[int, int], None]) -> None:
        indices = store.by_kind(kind)
        if indices:
            tag = len(handlers)
            handlers.append(handler)
            entries.extend((i, tag, r) for r, i in enumerate(indices))

    if config.fork_join:
        _, fork_child = store.column(OpKind.FORK, "child")

        def h_fork(i: int, r: int) -> None:
            begin = state.task_begin.get(sym(fork_child[r]))
            if begin is not None:
                edge(i, begin, RULE_FORK)

        add_kind(OpKind.FORK, h_fork)
        _, join_child = store.column(OpKind.JOIN, "child")

        def h_join(i: int, r: int) -> None:
            end = state.task_end.get(sym(join_child[r]))
            if end is not None:
                edge(end, i, RULE_JOIN)

        add_kind(OpKind.JOIN, h_join)
    if config.signal_wait:
        _, notify_mon = store.column(OpKind.NOTIFY, "monitor")
        _, notify_ticket = store.column(OpKind.NOTIFY, "ticket")

        def h_notify(i: int, r: int) -> None:
            ticket = notify_ticket[r]
            if ticket >= 0:
                notify_by_ticket[ticket] = i
            notify_by_monitor.setdefault(sym(notify_mon[r]), []).append(i)

        add_kind(OpKind.NOTIFY, h_notify)
        _, wait_mon = store.column(OpKind.WAIT, "monitor")
        _, wait_ticket = store.column(OpKind.WAIT, "ticket")

        def h_wait(i: int, r: int) -> None:
            ticket = wait_ticket[r]
            if ticket >= 0 and ticket in notify_by_ticket:
                edge(notify_by_ticket[ticket], i, RULE_SIGNAL_WAIT)
            else:
                # No pairing information: apply the rule as written —
                # every earlier notify of the monitor orders the wait.
                for n in notify_by_monitor.get(sym(wait_mon[r]), ()):
                    edge(n, i, RULE_SIGNAL_WAIT)

        add_kind(OpKind.WAIT, h_wait)
    if config.listener:
        _, reg_listener = store.column(OpKind.REGISTER, "listener")

        def h_register(i: int, r: int) -> None:
            registers.setdefault(sym(reg_listener[r]), []).append(i)

        add_kind(OpKind.REGISTER, h_register)
        _, perf_listener = store.column(OpKind.PERFORM, "listener")

        def h_perform(i: int, r: int) -> None:
            for x in registers.get(sym(perf_listener[r]), ()):
                edge(x, i, RULE_LISTENER)

        add_kind(OpKind.PERFORM, h_perform)
    if config.send_begin:
        _, send_event = store.column(OpKind.SEND, "event")

        def h_send(i: int, r: int) -> None:
            begin = state.task_begin.get(sym(send_event[r]))
            if begin is not None:
                edge(i, begin, RULE_SEND)

        add_kind(OpKind.SEND, h_send)
        _, front_event = store.column(OpKind.SEND_AT_FRONT, "event")

        def h_front(i: int, r: int) -> None:
            begin = state.task_begin.get(sym(front_event[r]))
            if begin is not None:
                edge(i, begin, RULE_SEND_AT_FRONT)

        add_kind(OpKind.SEND_AT_FRONT, h_front)
    if config.ipc:
        _, call_txn = store.column(OpKind.IPC_CALL, "txn")

        def h_call(i: int, r: int) -> None:
            ipc_calls[call_txn[r]] = i

        add_kind(OpKind.IPC_CALL, h_call)
        _, handle_txn = store.column(OpKind.IPC_HANDLE, "txn")

        def h_handle(i: int, r: int) -> None:
            call = ipc_calls.get(handle_txn[r])
            if call is not None:
                edge(call, i, RULE_IPC_CALL)

        add_kind(OpKind.IPC_HANDLE, h_handle)
        _, reply_txn = store.column(OpKind.IPC_REPLY, "txn")

        def h_reply(i: int, r: int) -> None:
            ipc_replies[reply_txn[r]] = i

        add_kind(OpKind.IPC_REPLY, h_reply)
        _, return_txn = store.column(OpKind.IPC_RETURN, "txn")

        def h_return(i: int, r: int) -> None:
            reply = ipc_replies.get(return_txn[r])
            if reply is not None:
                edge(reply, i, RULE_IPC_REPLY)

        add_kind(OpKind.IPC_RETURN, h_return)
    if config.lock_edges:
        _, release_lock = store.column(OpKind.RELEASE, "lock")

        def h_release(i: int, r: int) -> None:
            last_release[sym(release_lock[r])] = i

        add_kind(OpKind.RELEASE, h_release)
        _, acquire_lock = store.column(OpKind.ACQUIRE, "lock")

        def h_acquire(i: int, r: int) -> None:
            rel = last_release.get(sym(acquire_lock[r]))
            if rel is not None:
                edge(rel, i, RULE_LOCK)

        add_kind(OpKind.ACQUIRE, h_acquire)
    entries.sort()
    for i, tag, r in entries:
        handlers[tag](i, r)

    if config.external_input:
        external = trace.external_events()
        for e1, e2 in zip(external, external[1:]):
            end1 = state.task_end.get(e1)
            begin2 = state.task_begin.get(e2)
            if end1 is not None and begin2 is not None:
                edge(end1, begin2, RULE_EXTERNAL)

    if config.queue_rule_1 and not config.sequential_events:
        _seed_queue_rule_1_chains(state, graph)


def _seed_queue_rule_1_chains(state: _BuildState, graph: KeyGraph) -> None:
    """Pre-apply queue rule 1 along each task's own send sequence.

    A task that sends many events to one queue orders them pairwise by
    rule 1 (its sends are in program order).  Left to the fixpoint this
    produces a quadratic number of derived edges for event-dense traces;
    seeding the *consecutive* conclusions here keeps the later rounds'
    implied-edge check effective, so the fixpoint only adds the edges
    transitivity cannot reach.  This is purely an optimization: the
    edges added are ordinary rule-1 conclusions.
    """
    per_task_queue: Dict[Tuple[str, str], List[EventRecord]] = {}
    task_of = state.trace.task_of
    for rec in state.events.values():
        if rec.send_index is None or rec.at_front or not rec.dispatched:
            continue
        if not rec.queue:
            continue
        per_task_queue.setdefault((task_of(rec.send_index), rec.queue), []).append(rec)
    for recs in per_task_queue.values():
        recs.sort(key=lambda r: r.send_index)  # type: ignore[arg-type, return-value]
        for i, rec in enumerate(recs):
            for later in recs[i + 1 :]:
                if later.delay >= rec.delay:
                    graph.add_edge(
                        graph.node_of(rec.end_index),  # type: ignore[arg-type]
                        graph.node_of(later.begin_index),  # type: ignore[arg-type]
                        RULE_QUEUE_1,
                    )
                    break


class ModelNotApplicableError(Exception):
    """The trace violates a structural assumption of the model.

    Section 3.1: the causality model applies to systems that allocate
    one looper thread per event queue; if multiple loopers share a
    queue, the FIFO-processing guarantees behind the queue rules do
    not hold and no causal order can be derived from them.
    """


def _check_one_looper_per_queue(state: _BuildState) -> None:
    looper_of_queue: Dict[str, str] = {}
    for rec in state.events.values():
        if not rec.queue or not rec.looper:
            continue
        existing = looper_of_queue.setdefault(rec.queue, rec.looper)
        if existing != rec.looper:
            raise ModelNotApplicableError(
                f"queue {rec.queue!r} is drained by loopers {existing!r} "
                f"and {rec.looper!r}; the causality model assumes one "
                "looper thread per event queue (Section 3.1)"
            )


@dataclass
class _AtomicityGroup:
    """One looper's dispatched events, in execution order."""

    recs: List[EventRecord]
    begin_node: List[int]
    #: end-node suffix masks: suffix[i] = OR of end nodes after position i-1
    suffix: List[SparseBits]
    event_of_end_node: Dict[int, EventRecord]
    #: nodes whose reach sets the rule's premise reads
    premise: FrozenSet[int]


@dataclass
class _QueueGroup:
    """One queue's dispatched sends (sorted by delay) and sendAtFronts."""

    sends: List[EventRecord]
    fronts: List[EventRecord]
    delays: List[int]
    send_node: List[int]
    #: send-node suffix masks over the delay-sorted sends
    suffix: List[SparseBits]
    event_of_send_node: Dict[int, EventRecord]
    all_sends_mask: SparseBits
    front_node: List[int]
    front_begin_node: List[int]
    #: premise node sets per rule — re-examine only when one of these
    #: nodes' reach set changed
    premise_sends: FrozenSet[int]
    premise_fronts: FrozenSet[int]
    #: union of both premise sets, for the either-sided rule 2
    premise_any: FrozenSet[int]


def _extend_mask(mask: SparseBits, node: int) -> SparseBits:
    out = mask.copy()
    out.set(node)
    return out


class _DerivedRules:
    """Applies the atomicity + event-queue rules to a fixpoint.

    All per-looper / per-queue candidate structures (suffix masks,
    node maps, premise sets) are precomputed once; each round then
    reads the graph's *live* reach vector.  When the caller hands a
    ``dirty`` node set, skipping happens at two granularities.  First
    per group, as before: a group none of whose premise nodes changed
    cannot produce a new conclusion.  Second — the refinement — *per
    event inside a dirty group*: a rule instance's premise is a
    reachability fact read from specific source nodes, so only members
    whose own premise node is in ``dirty`` are re-examined.  One huge
    looper with a single moving event no longer repays its whole
    group; ``events_repropagated`` (members actually re-read) against
    ``group_dirty_events`` (what group granularity would have re-read)
    makes the gap observable.
    """

    def __init__(self, state: _BuildState, graph: KeyGraph) -> None:
        self.state = state
        self.graph = graph
        self.groups_examined = 0
        self.groups_skipped = 0
        #: rule members re-examined in dirty rounds (per-event tracking)
        self.events_repropagated = 0
        #: rule members the per-group scheme would have re-examined
        self.group_dirty_events = 0
        config = state.config
        dispatched = [
            rec for rec in state.events.values() if rec.dispatched and rec.queue
        ]
        # Events grouped per looper, in actual execution order.
        per_looper: Dict[str, List[EventRecord]] = {}
        if config.atomicity:
            for rec in dispatched:
                if rec.looper:
                    per_looper.setdefault(rec.looper, []).append(rec)
        empty = SparseBits()
        self.atom_groups: List[_AtomicityGroup] = []
        for recs in per_looper.values():
            if len(recs) < 2:
                continue
            recs.sort(key=lambda r: r.begin_index)  # type: ignore[arg-type, return-value]
            begin_node = [self._node(r.begin_index) for r in recs]  # type: ignore[arg-type]
            end_node = [self._node(r.end_index) for r in recs]  # type: ignore[arg-type]
            suffix = [empty] * (len(recs) + 1)
            for i in range(len(recs) - 1, -1, -1):
                suffix[i] = _extend_mask(suffix[i + 1], end_node[i])
            self.atom_groups.append(
                _AtomicityGroup(
                    recs=recs,
                    begin_node=begin_node,
                    suffix=suffix,
                    event_of_end_node={n: r for n, r in zip(end_node, recs)},
                    premise=frozenset(begin_node[:-1]),
                )
            )
        # Sends grouped per queue for the queue rules.
        sends: Dict[str, List[EventRecord]] = {}
        fronts: Dict[str, List[EventRecord]] = {}
        if config.any_queue_rule:
            for rec in dispatched:
                if rec.send_index is None:
                    continue
                bucket = fronts if rec.at_front else sends
                bucket.setdefault(rec.queue, []).append(rec)  # type: ignore[arg-type]
        self.queue_groups: List[_QueueGroup] = []
        for queue in sorted(sends.keys() | fronts.keys()):
            s = sorted(sends.get(queue, []), key=lambda r: r.delay)
            f = fronts.get(queue, [])
            send_node = [self._node(r.send_index) for r in s]  # type: ignore[arg-type]
            qsuffix = [empty] * (len(s) + 1)
            for i in range(len(s) - 1, -1, -1):
                qsuffix[i] = _extend_mask(qsuffix[i + 1], send_node[i])
            front_node = [self._node(r.send_index) for r in f]  # type: ignore[arg-type]
            premise_sends = frozenset(send_node)
            premise_fronts = frozenset(front_node)
            self.queue_groups.append(
                _QueueGroup(
                    sends=s,
                    fronts=f,
                    delays=[r.delay for r in s],
                    send_node=send_node,
                    suffix=qsuffix,
                    event_of_send_node={n: r for n, r in zip(send_node, s)},
                    all_sends_mask=qsuffix[0],
                    front_node=front_node,
                    front_begin_node=[self._node(r.begin_index) for r in f],  # type: ignore[arg-type]
                    premise_sends=premise_sends,
                    premise_fronts=premise_fronts,
                    premise_any=premise_sends | premise_fronts,
                )
            )

    def _node(self, op_index: int) -> int:
        return self.graph.node_of(op_index)

    def _fresh(self, dirty: Optional[Set[int]], premise: FrozenSet[int]) -> bool:
        """Should a group with these premise nodes run this round?"""
        if dirty is None or not premise.isdisjoint(dirty):
            self.groups_examined += 1
            return True
        self.groups_skipped += 1
        return False

    def apply(
        self, dirty: Optional[Set[int]] = None
    ) -> List[Tuple[int, int, str]]:
        """One round: all rule instances enabled by the current closure.

        ``dirty`` is the node set from ``KeyGraph.drain_dirty`` —
        groups none of whose premise nodes appear in it are skipped,
        and inside a surviving group only the members whose own premise
        node changed are re-examined (``None`` examines everything, as
        in round one).  Concluded edges are returned, *not* added:
        staging them keeps each round a function of the closure at
        round entry, as in a snapshot-per-round fixpoint.
        """
        reach = self.graph.reach_vector()
        new_edges: List[Tuple[int, int, str]] = []
        seen = set()
        test = SparseBits.test

        def conclude(e1: EventRecord, e2: EventRecord, rule: str) -> None:
            """Record conclusion end(e1) < begin(e2) unless implied."""
            u = self._node(e1.end_index)  # type: ignore[arg-type]
            v = self._node(e2.begin_index)  # type: ignore[arg-type]
            if (u, v) in seen:
                return
            if test(reach[u], v):
                return
            seen.add((u, v))
            new_edges.append((u, v, rule))

        config = self.state.config
        if config.atomicity:
            self._atomicity(reach, conclude, dirty)
        if config.queue_rule_1:
            self._queue_rule_1(reach, conclude, dirty)
        if config.queue_rule_2:
            self._queue_rule_2(reach, conclude, dirty)
        if config.queue_rule_3:
            self._queue_rule_3(reach, conclude, dirty)
        if config.queue_rule_4:
            self._queue_rule_4(reach, conclude, dirty)
        return new_edges

    # -- Atomicity rule ---------------------------------------------------
    # If begin(e1) < end(e2) then end(e1) < begin(e2), for events of the
    # same looper thread.  Only pairs in actual execution order can
    # satisfy the premise in a consistent trace, so we scan each looper's
    # events in dispatch order and intersect the reachability set of
    # begin(e_i) with the end-nodes of later events in one bitset AND.

    def _atomicity(self, reach, conclude, dirty) -> None:
        and_nodes = SparseBits.and_iter
        for g in self.atom_groups:
            if not self._fresh(dirty, g.premise):
                continue
            track = dirty is not None
            if track:
                self.group_dirty_events += len(g.recs) - 1
            for i, rec in enumerate(g.recs[:-1]):
                # Per-event: the premise begin(e_i) < end(e_j) is a
                # fact about reach[begin(e_i)] — unchanged reach set,
                # no new conclusions from this member.
                if track:
                    if g.begin_node[i] not in dirty:
                        continue
                    self.events_repropagated += 1
                for n in and_nodes(reach[g.begin_node[i]], g.suffix[i + 1]):
                    conclude(rec, g.event_of_end_node[n], RULE_ATOMICITY)

    # -- Queue rule 1 -------------------------------------------------------
    # send(t1,e1,d1) < send(t2,e2,d2) and d1 <= d2  =>  end(e1) < begin(e2).

    def _queue_rule_1(self, reach, conclude, dirty) -> None:
        and_nodes = SparseBits.and_iter
        for g in self.queue_groups:
            if len(g.sends) < 2:
                continue
            if not self._fresh(dirty, g.premise_sends):
                continue
            track = dirty is not None
            if track:
                self.group_dirty_events += len(g.sends)
            for i, rec in enumerate(g.sends):
                self_node = g.send_node[i]
                if track:
                    if self_node not in dirty:
                        continue
                    self.events_repropagated += 1
                # Candidate partners: delay >= d1 (sends sorted by delay).
                mask = g.suffix[bisect_left(g.delays, rec.delay)]
                for n in and_nodes(reach[self_node], mask):
                    if n == self_node:
                        continue
                    conclude(rec, g.event_of_send_node[n], RULE_QUEUE_1)

    # -- Queue rule 2 -------------------------------------------------------
    # send(t1,e1,d1) < sendAtFront(t2,e2) and sendAtFront(t2,e2) < begin(e1)
    #   =>  end(e2) < begin(e1).

    def _queue_rule_2(self, reach, conclude, dirty) -> None:
        test = SparseBits.test
        for g in self.queue_groups:
            if not g.fronts or not g.sends:
                continue
            if not self._fresh(dirty, g.premise_any):
                continue
            track = dirty is not None
            if track:
                self.group_dirty_events += len(g.fronts) * len(g.sends)
            for j, front in enumerate(g.fronts):
                f_node = g.front_node[j]
                # The pair's premise reads reach[send] (send < front)
                # and reach[front] (front < begin) — re-examine when
                # either side moved.
                front_dirty = track and f_node in dirty
                for i, send in enumerate(g.sends):
                    s_node = g.send_node[i]
                    if track:
                        if not front_dirty and s_node not in dirty:
                            continue
                        self.events_repropagated += 1
                    b_node = self._node(send.begin_index)  # type: ignore[arg-type]
                    if test(reach[s_node], f_node) and test(
                        reach[f_node], b_node
                    ):
                        conclude(front, send, RULE_QUEUE_2)

    # -- Queue rule 3 -------------------------------------------------------
    # sendAtFront(t1,e1) < send(t2,e2,d2)  =>  end(e1) < begin(e2).

    def _queue_rule_3(self, reach, conclude, dirty) -> None:
        and_nodes = SparseBits.and_iter
        for g in self.queue_groups:
            if not g.fronts or not g.sends:
                continue
            if not self._fresh(dirty, g.premise_fronts):
                continue
            track = dirty is not None
            if track:
                self.group_dirty_events += len(g.fronts)
            for j, front in enumerate(g.fronts):
                if track:
                    if g.front_node[j] not in dirty:
                        continue
                    self.events_repropagated += 1
                for n in and_nodes(reach[g.front_node[j]], g.all_sends_mask):
                    conclude(front, g.event_of_send_node[n], RULE_QUEUE_3)

    # -- Queue rule 4 -------------------------------------------------------
    # sendAtFront(t1,e1) < sendAtFront(t2,e2) and
    # sendAtFront(t2,e2) < begin(e1)  =>  end(e2) < begin(e1).

    def _queue_rule_4(self, reach, conclude, dirty) -> None:
        test = SparseBits.test
        for g in self.queue_groups:
            if len(g.fronts) < 2:
                continue
            if not self._fresh(dirty, g.premise_fronts):
                continue
            track = dirty is not None
            if track:
                self.group_dirty_events += len(g.fronts) * (len(g.fronts) - 1)
            for i, f1 in enumerate(g.fronts):
                n1 = g.front_node[i]
                b1 = g.front_begin_node[i]
                # Premise reads reach[n1] and reach[n2]; skip pairs
                # where neither moved.
                n1_dirty = track and n1 in dirty
                for j, f2 in enumerate(g.fronts):
                    if f1 is f2:
                        continue
                    n2 = g.front_node[j]
                    if track:
                        if not n1_dirty and n2 not in dirty:
                            continue
                        self.events_repropagated += 1
                    if test(reach[n1], n2) and test(reach[n2], b1):
                        conclude(f2, f1, RULE_QUEUE_4)


def build_happens_before(
    trace: Trace,
    config: ModelConfig = CAFA_MODEL,
    memo_capacity: Optional[int] = None,
) -> HappensBefore:
    """Build the happens-before relation of ``trace`` under ``config``.

    Returns a :class:`~repro.hb.graph.HappensBefore` answering ordering
    queries between arbitrary operation indices.  Raises
    :class:`~repro.hb.graph.HBCycleError` *here, at build time,* if the
    derived relation is cyclic (an inconsistent trace) — under every
    configuration, including the ablations that disable the derived
    rules.

    ``memo_capacity`` bounds the query memoization tables (LRU):
    ``None`` uses :data:`~repro.hb.graph.DEFAULT_MEMO_CAPACITY`, ``0``
    keeps them unbounded, any positive value is the entry cap.
    """
    profile = BuildProfile()
    tick = time.perf_counter
    t0 = tick()
    with span("hb.scan", ops=len(trace)):
        state = _BuildState(trace=trace, config=config)
        _scan(state)
        _check_one_looper_per_queue(state)
    profile.scan_seconds = tick() - t0

    t0 = tick()
    with span("hb.base_edges"):
        graph, task_key_positions, task_key_nodes = _build_key_graph(state)
        _add_base_edges(state, graph)
    profile.base_seconds = tick() - t0

    # Build-time consistency check: close (and thereby cycle-check) the
    # base graph unconditionally, so a cyclic trace fails here rather
    # than from whichever ordered() query happens to run first.
    t0 = tick()
    with span("hb.closure"):
        graph.close()
    profile.closure_seconds = tick() - t0

    iterations = 0
    derived_edges = 0
    if not config.sequential_events and (config.atomicity or config.any_queue_rule):
        t0 = tick()
        with span("hb.fixpoint"):
            rules = _DerivedRules(state, graph)
            graph.drain_dirty()  # the initial closure marked every node dirty
            dirty: Optional[Set[int]] = None  # round one examines every group
            while True:
                iterations += 1
                new_edges = rules.apply(dirty)
                if not new_edges:
                    break
                added = 0
                for u, v, rule in new_edges:
                    if graph.add_edge(u, v, rule):
                        added += 1
                derived_edges += added
                profile.edges_per_round.append(added)
                # Only candidates whose reachability changed need another look.
                dirty = graph.drain_dirty()
        profile.fixpoint_seconds = tick() - t0
        profile.groups_examined = rules.groups_examined
        profile.groups_skipped = rules.groups_skipped
        profile.events_repropagated = rules.events_repropagated
        profile.group_dirty_events = rules.group_dirty_events

    profile.rounds = iterations
    profile.closure_recomputations = graph.closure_recomputations
    profile.bits_propagated = graph.bits_propagated
    profile.closure_bytes = graph.closure_bytes()
    chunk_stats = graph.chunk_stats()
    if chunk_stats is not None:
        profile.chunks_allocated = chunk_stats.chunks_allocated
        profile.chunks_shared = chunk_stats.chunks_shared
        profile.dense_chunk_ratio = chunk_stats.dense_chunk_ratio

    bounds: Dict[str, Tuple[int, int]] = {}
    for task, begin in state.task_begin.items():
        end = state.task_end.get(task)
        if end is None:
            ops = state.task_ops.get(_effective_task_of_id(state, task), [])
            end = ops[-1] if ops else begin
        bounds[task] = (begin, end)

    return HappensBefore(
        graph=graph,
        op_task=state.op_task,
        op_pos=state.op_pos,
        task_key_positions=task_key_positions,
        task_key_nodes=task_key_nodes,
        event_bounds=bounds,
        iterations=iterations,
        derived_edges=derived_edges,
        profile=profile,
        memo_capacity=memo_capacity,
    )


def _effective_task_of_id(state: _BuildState, task: str) -> str:
    if not state.config.sequential_events:
        return task
    info = state.trace.tasks.get(task)
    if info is not None and info.task_kind is TaskKind.EVENT and info.looper:
        return info.looper
    return task
