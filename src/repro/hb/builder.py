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

Every rule is implemented once, here, over the store's columns (no
:class:`Operation` is materialized): :func:`_scan` takes the key ops
from the store's per-kind index, files each under its task and
harvests the event facts they carry (no other op is visited), and
:func:`_build_relation` builds the relation of everything scanned:
:func:`_build_key_graph` lays each task's key nodes out, ending each
chain at the task's last op, :class:`_BaseRules` adds the base edges
each key op enables
and the edges read off whole chains (the external-input chain and the
queue-rule-1 seeding), and :func:`_fixpoint` runs the derived rules.
:func:`build_happens_before` scans a complete trace and builds;
:class:`repro.stream.IncrementalHB` scans op ranges as they arrive and
builds when polled, so a streamed relation is node for node the batch
relation of the same ops.

The fixpoint is *output-sensitive*: the transitive closure is computed
once before round one and maintained in place by
:meth:`repro.hb.graph.KeyGraph.add_edge` as conclusions land, and each
round makes one reverse-topological pass over the closed graph that
projects every node's reach set onto the END, BEGIN and send nodes of
the grouped events (:class:`_DerivedRules`).  Each rule then reads
its *new* conclusions for an event as an AND-NOT of two projections,
so a round costs the pass plus its output, not one probe per pair the
graph already orders.  Edges concluded in a round are staged and
applied between rounds, so each round is a function of the closure at
round entry, exactly as in a snapshot-per-round fixpoint.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..trace import OpKind, SYNC_KINDS, TaskKind, Trace
from ..obs.spans import span
from ..trace.store import KIND_CODES, KIND_LIST, TraceStore
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

_BEGIN = KIND_CODES[OpKind.BEGIN]
_END = KIND_CODES[OpKind.END]
_SEND = KIND_CODES[OpKind.SEND]
_SEND_AT_FRONT = KIND_CODES[OpKind.SEND_AT_FRONT]
#: kind codes whose ops carry task-bound or event facts
_HARVESTED = frozenset({_BEGIN, _END, _SEND, _SEND_AT_FRONT})


@dataclass
class BuildProfile:
    """Per-phase timings and closure-work counters of one build.

    Attached to :class:`~repro.hb.graph.HappensBefore` as ``profile``
    and surfaced by ``repro.hb.stats`` / ``python -m repro stats`` so
    the cost of each phase — and the effect of the incremental closure
    — is observable without a profiler.
    """

    #: key-op scan + event-record harvesting
    scan_seconds: float = 0.0
    #: key-graph construction + base-rule edges
    base_seconds: float = 0.0
    #: the initial transitive closure (and with it the cycle check)
    closure_seconds: float = 0.0
    #: derived-rule fixpoint (rule evaluation + incremental closure upkeep)
    fixpoint_seconds: float = 0.0
    #: fixpoint rounds (read as HappensBefore.iterations)
    rounds: int = 0
    #: derived edges applied after each round (excludes the final empty
    #: round); their sum is HappensBefore.derived_edges
    edges_per_round: List[int] = field(default_factory=list)
    #: full from-scratch closure builds (1 per build: the fixpoint
    #: maintains the closure in place)
    closure_recomputations: int = 0
    #: reachability bits newly set by incremental propagation
    bits_propagated: int = 0
    #: rule groups (per looper / per queue) evaluated, per rule and round
    groups_examined: int = 0
    # The four closure-storage fields below take a walk of the whole
    # closure, so no build fills them: HappensBefore.profile measures
    # them on its first read.
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
    #: rule members (the events whose premise node a rule reads)
    #: evaluated in fixpoint rounds after the first
    events_repropagated: int = 0

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
    """The scan so far, shared by the edge-derivation passes."""

    trace: Trace
    config: ModelConfig
    events: Dict[str, EventRecord] = field(default_factory=dict)
    task_begin: Dict[str, int] = field(default_factory=dict)
    task_end: Dict[str, int] = field(default_factory=dict)
    #: task symbol id -> the task whose program order its ops join
    task_of_id: Dict[int, str] = field(default_factory=dict)
    #: the key ops (graph nodes), in trace order
    key_ops: List[int] = field(default_factory=list)
    #: task -> its key ops, ascending
    task_keys: Dict[str, List[int]] = field(default_factory=dict)
    #: the scan covers ops 0 to ``scanned - 1``
    scanned: int = 0
    store: TraceStore = field(init=False)
    #: the kinds of the key ops (graph nodes)
    key_kinds: Tuple[OpKind, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.store = self.trace.store
        locks = (OpKind.ACQUIRE, OpKind.RELEASE) if self.config.lock_edges else ()
        self.key_kinds = tuple(
            kind for kind in KIND_LIST if kind in SYNC_KINDS or kind in locks
        )


def _effective_task(state: _BuildState, task: str) -> str:
    """The task whose program order ``task``'s ops join: with
    ``sequential_events`` (the conventional baseline) an event's ops
    are folded into its looper thread's."""
    if state.config.sequential_events:
        info = state.trace.tasks.get(task)
        if info is not None and info.task_kind is TaskKind.EVENT and info.looper:
            return info.looper
    return task


def _register_task(state: _BuildState, tid: int) -> str:
    """Map task symbol id ``tid`` to the task whose program order its
    ops join, and return that task."""
    task = state.task_of_id[tid] = _effective_task(
        state, state.store.symbols.value(tid)
    )
    state.task_keys.setdefault(task, [])
    return task


def _scan(state: _BuildState, start: int, stop: int) -> None:
    """Scan ops ``start`` to ``stop - 1``: take the range's key ops
    (the graph nodes) from the store's per-kind index, and in trace
    order add each to its task's key ops and harvest the task bound or
    event fact it carries.  No other op is visited; the relation
    locates one by its index alone
    (:class:`~repro.hb.graph.HappensBefore`)."""
    store = state.store
    keys = store.indices_of(*state.key_kinds, start=start, stop=stop)
    state.key_ops += keys
    state.scanned = stop
    kinds, task_ids = store.kinds, store.task_ids
    task_of_id, task_keys = state.task_of_id, state.task_keys
    sends = _send_columns(store)
    for i in keys:
        tid = task_ids[i]
        task = task_of_id.get(tid)
        if task is None:
            task = _register_task(state, tid)
        task_keys[task].append(i)
        code = kinds[i]
        # every harvested kind is a sync kind, hence a key op
        if code in _HARVESTED:
            _harvest(state, i, code, sends)


def _event_record(state: _BuildState, event: str) -> EventRecord:
    rec = state.events.get(event)
    if rec is None:
        rec = state.events[event] = EventRecord(event)
    return rec


#: kind code -> the (event, delay, queue) payload columns of its ops
_SendColumns = Dict[int, Tuple[array, Optional[array], array]]


def _send_columns(store: TraceStore) -> _SendColumns:
    """The payload columns of the store's sends and sendAtFronts (a
    sendAtFront has no delay)."""
    columns: _SendColumns = {}
    for kind in (OpKind.SEND, OpKind.SEND_AT_FRONT):
        delay = store.column(kind, "delay")[1] if kind is OpKind.SEND else None
        columns[KIND_CODES[kind]] = (
            store.column(kind, "event")[1],
            delay,
            store.column(kind, "queue")[1],
        )
    return columns


def _harvest(state: _BuildState, i: int, code: int, sends: _SendColumns) -> None:
    """Record the task bound or event send/dispatch fact of op ``i``;
    a send's fields are read off ``sends`` (:func:`_send_columns`) at
    its row.

    Facts are overwritten in trace order: a Send after a SendAtFront of
    the same event rewrites ``send_index``/``at_front`` (and vice
    versa), and ``queue`` is written by a Begin (from the task table)
    and by sends (from the op) — the last writer wins.
    """
    store = state.store
    if code == _BEGIN or code == _END:
        task = store.task_of(i)
        if code == _BEGIN:
            state.task_begin.setdefault(task, i)
        else:
            state.task_end[task] = i
        info = state.trace.tasks.get(task)
        if info is None or info.task_kind is not TaskKind.EVENT:
            return
        rec = _event_record(state, task)
        if code == _BEGIN:
            rec.begin_index = i
            rec.looper = info.looper
            rec.queue = info.queue
        else:
            rec.end_index = i
        return
    events, delays, queues = sends[code]
    row = store.rows[i]
    symbol = store.symbols.value
    rec = _event_record(state, symbol(events[row]))
    rec.send_index = i
    rec.at_front = code == _SEND_AT_FRONT
    rec.delay = 0 if rec.at_front else delays[row]
    queue = symbol(queues[row])
    if queue:
        rec.queue = queue


def _build_key_graph(
    state: _BuildState,
) -> Tuple[KeyGraph, Dict[str, List[int]], Dict[str, List[int]]]:
    """Create nodes for every key op and chain them per task.

    Tasks are laid out in the order they first appear in the scanned
    prefix.  Each task's chain goes through :meth:`KeyGraph.add_chain`,
    which allocates its nodes in one uninterrupted run and thereby
    *guarantees* the contiguous-id invariant behind the query path's
    range probes (a broken run raises instead of degrading).  Each task
    also gets a node at its last op inside the prefix, read off the
    store's per-task index, so it has one at its very end.  Returns the
    graph and each task's node ops and key nodes.
    """
    last_op: Dict[str, int] = {}
    for tid, last in state.store.task_last_ops(state.scanned):
        task = state.task_of_id.get(tid)
        if task is None:
            task = _register_task(state, tid)
        if last_op.get(task, -1) < last:
            last_op[task] = last
    graph = KeyGraph()
    task_node_ops: Dict[str, List[int]] = {}
    task_key_nodes: Dict[str, List[int]] = {}
    for task, last in last_op.items():
        # a copy: the scan keeps appending to its own list
        ops = list(state.task_keys[task])
        if not ops or ops[-1] != last:
            ops.append(last)
        task_node_ops[task] = ops
        task_key_nodes[task] = graph.add_chain(ops, RULE_PROGRAM_ORDER)
    return graph, task_node_ops, task_key_nodes


class _BaseRules:
    """The base rules whose premises are syntactic facts of the trace,
    as one :meth:`step` per key op in trace order, then
    :meth:`chain_edges`.

    The rules are stateful scans — a Wait pairs with *earlier*
    Notifies, an Acquire with the *latest* Release.  Fork, join and
    send edges look their partner BEGIN or END up in the completed
    scan, where every partner that exists already has its node.
    """

    def __init__(self, state: _BuildState, graph: KeyGraph) -> None:
        self.state = state
        self.graph = graph
        self.store = state.store
        self._field = state.store.field_of
        self._notify_by_ticket: Dict[int, int] = {}
        self._notify_by_monitor: Dict[str, List[int]] = {}
        self._registers: Dict[str, List[int]] = {}
        self._ipc_calls: Dict[int, int] = {}
        self._ipc_replies: Dict[int, int] = {}
        self._last_release: Dict[str, int] = {}
        #: (source op, target op, rule) of the first edge added that
        #: points back in the trace, if any
        self.late: Optional[Tuple[int, int, str]] = None
        config = state.config
        # Plain functions, called with ``self``: a table of bound methods
        # would be a reference cycle, keeping the scan and the graph
        # alive until the cyclic collector runs.
        cls = type(self)
        handlers = {}
        if config.fork_join:
            handlers[OpKind.FORK] = cls._fork
            handlers[OpKind.JOIN] = cls._join
        if config.signal_wait:
            handlers[OpKind.NOTIFY] = cls._notify
            handlers[OpKind.WAIT] = cls._wait
        if config.listener:
            handlers[OpKind.REGISTER] = cls._register
            handlers[OpKind.PERFORM] = cls._perform
        if config.send_begin:
            handlers[OpKind.SEND] = cls._send
            handlers[OpKind.SEND_AT_FRONT] = cls._send_at_front
        if config.ipc:
            handlers[OpKind.IPC_CALL] = cls._ipc_call
            handlers[OpKind.IPC_HANDLE] = cls._ipc_handle
            handlers[OpKind.IPC_REPLY] = cls._ipc_reply
            handlers[OpKind.IPC_RETURN] = cls._ipc_return
        if config.lock_edges:
            handlers[OpKind.RELEASE] = cls._release
            handlers[OpKind.ACQUIRE] = cls._acquire
        self._handlers = [handlers.get(kind) for kind in KIND_LIST]

    def step(self, i: int) -> None:
        """Add the base edges key op ``i`` enables."""
        handler = self._handlers[self.store.kinds[i]]
        if handler is not None:
            handler(self, i)

    def chain_edges(self) -> None:
        """Edges read off whole chains of the scan rather than one op:
        the external-input chain and the queue-rule-1 seeding."""
        state = self.state
        config = state.config
        if config.external_input:
            # External inputs are delivered in generation order: each
            # external event ends before the next one begins.
            external = state.trace.external_events()
            for e1, e2 in zip(external, external[1:]):
                end1 = state.task_end.get(e1)
                begin2 = state.task_begin.get(e2)
                if end1 is not None and begin2 is not None:
                    self._edge(end1, begin2, RULE_EXTERNAL)
        if config.queue_rule_1 and not config.sequential_events:
            _seed_queue_rule_1_chains(state, self.graph)

    def _edge(self, u_op: int, v_op: int, rule: str) -> None:
        if u_op > v_op and self.late is None:
            self.late = (u_op, v_op, rule)
        node_of = self.graph.node_of
        self.graph.add_edge(node_of(u_op), node_of(v_op), rule)

    def _to_begin(self, i: int, task: str, rule: str) -> None:
        begin = self.state.task_begin.get(task)
        if begin is not None:
            self._edge(i, begin, rule)

    def _fork(self, i: int) -> None:
        self._to_begin(i, self._field(i, "child"), RULE_FORK)

    def _join(self, i: int) -> None:
        end = self.state.task_end.get(self._field(i, "child"))
        if end is not None:
            self._edge(end, i, RULE_JOIN)

    def _notify(self, i: int) -> None:
        ticket = self._field(i, "ticket")
        if ticket >= 0:
            self._notify_by_ticket[ticket] = i
        self._notify_by_monitor.setdefault(self._field(i, "monitor"), []).append(i)

    def _wait(self, i: int) -> None:
        ticket = self._field(i, "ticket")
        if ticket >= 0 and ticket in self._notify_by_ticket:
            self._edge(self._notify_by_ticket[ticket], i, RULE_SIGNAL_WAIT)
        else:
            # No pairing information: apply the rule as written —
            # every earlier notify of the monitor orders the wait.
            for n in self._notify_by_monitor.get(self._field(i, "monitor"), ()):
                self._edge(n, i, RULE_SIGNAL_WAIT)

    def _register(self, i: int) -> None:
        self._registers.setdefault(self._field(i, "listener"), []).append(i)

    def _perform(self, i: int) -> None:
        for r in self._registers.get(self._field(i, "listener"), ()):
            self._edge(r, i, RULE_LISTENER)

    def _send(self, i: int) -> None:
        self._to_begin(i, self._field(i, "event"), RULE_SEND)

    def _send_at_front(self, i: int) -> None:
        self._to_begin(i, self._field(i, "event"), RULE_SEND_AT_FRONT)

    def _ipc_call(self, i: int) -> None:
        self._ipc_calls[self._field(i, "txn")] = i

    def _ipc_handle(self, i: int) -> None:
        call = self._ipc_calls.get(self._field(i, "txn"))
        if call is not None:
            self._edge(call, i, RULE_IPC_CALL)

    def _ipc_reply(self, i: int) -> None:
        self._ipc_replies[self._field(i, "txn")] = i

    def _ipc_return(self, i: int) -> None:
        reply = self._ipc_replies.get(self._field(i, "txn"))
        if reply is not None:
            self._edge(reply, i, RULE_IPC_REPLY)

    def _release(self, i: int) -> None:
        self._last_release[self._field(i, "lock")] = i

    def _acquire(self, i: int) -> None:
        release = self._last_release.get(self._field(i, "lock"))
        if release is not None:
            self._edge(release, i, RULE_LOCK)


def _seed_queue_rule_1_chains(state: _BuildState, graph: KeyGraph) -> None:
    """Pre-apply queue rule 1 along each task's own send sequence.

    A task that sends many events to one queue orders them pairwise by
    rule 1 (its sends are in program order).  Left to the fixpoint this
    produces a quadratic number of derived edges for event-dense traces;
    seeding the *consecutive* conclusions here makes the rest implied
    before the first round, so the fixpoint only adds the edges
    transitivity cannot reach.  The edges added are ordinary rule-1
    conclusions, and the golden fixture pins the edge set they give.
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


def backward_edge_error(
    store: TraceStore, source: int, target: int, rule: str
) -> ModelNotApplicableError:
    """The error for a ``rule`` edge from op ``source`` to the earlier
    op ``target``: a fork or send after its target began, a join before
    the child ended, or an external event that began before its
    predecessor ended.  The builder and the vector-clock pass raise the
    same text."""

    def op(j: int) -> str:
        return f"op #{j} ({KIND_LIST[store.kinds[j]].value} of {store.task_of(j)!r})"

    return ModelNotApplicableError(
        f"the {rule} rule orders {op(source)} before {op(target)}, "
        "which comes earlier in the trace; a happens-before edge "
        "cannot point back in the trace"
    )


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


def _mask(events: List[int], slot: int) -> int:
    """The projection bits of ``slot`` (0 END, 1 BEGIN, 2 send) for
    ``events``."""
    bits = 0
    for k in events:
        bits |= 1 << (3 * k + slot)
    return bits


def _events_in(bits: int) -> Iterator[int]:
    """The indices of the events with a bit set in ``bits``."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield (low.bit_length() - 1) // 3


class _DerivedRules:
    """Applies the atomicity + event-queue rules to a fixpoint.

    Every premise and conclusion of these rules is a reachability fact
    between the END, BEGIN and send nodes of *grouped* events (per
    looper for atomicity, per queue for the queue rules).  Each such
    event gets one index ``k`` and three projection bits: END at
    ``3k``, BEGIN at ``3k + 1`` and its send or sendAtFront at
    ``3k + 2``.  Later-beginning events get lower indices, so a node's
    projection is about as wide as the events after it.

    Each round, one pass over the closed graph
    (:meth:`~repro.hb.graph.KeyGraph.project`) gives every node ``x``
    the bits ``P[x]`` of the event nodes it reaches, and each rule
    reads a member's *new* conclusions as an AND-NOT of two
    projections: the partners its premise reaches, minus the events
    whose BEGIN the concluded END already reaches.  A round costs the
    pass plus word operations per member and per conclusion, never a
    probe per already-implied pair.
    """

    def __init__(self, state: _BuildState, graph: KeyGraph) -> None:
        self.config = config = state.config
        self.graph = graph
        #: rounds applied so far
        self.rounds = 0
        #: rule groups evaluated, per rule and round
        self.groups_examined = 0
        #: rule members evaluated in rounds after the first
        self.events_repropagated = 0
        dispatched = [
            rec for rec in state.events.values() if rec.dispatched and rec.queue
        ]
        # Events grouped per looper, in actual execution order.
        per_looper: Dict[str, List[EventRecord]] = {}
        if config.atomicity:
            for rec in dispatched:
                if rec.looper:
                    per_looper.setdefault(rec.looper, []).append(rec)
        loopers = [recs for recs in per_looper.values() if len(recs) >= 2]
        for recs in loopers:
            recs.sort(key=lambda r: r.begin_index)  # type: ignore[arg-type, return-value]
        # Sends grouped per queue for the queue rules.
        sends: Dict[str, List[EventRecord]] = {}
        fronts: Dict[str, List[EventRecord]] = {}
        if config.any_queue_rule:
            for rec in dispatched:
                if rec.send_index is not None:
                    bucket = fronts if rec.at_front else sends
                    bucket.setdefault(rec.queue, []).append(rec)  # type: ignore[arg-type]
        queues = [
            (sorted(sends.get(queue, []), key=lambda r: r.delay), fronts.get(queue, []))
            for queue in sorted(sends.keys() | fronts.keys())
        ]
        grouped = {rec.event: rec for recs in loopers for rec in recs}
        for s, f in queues:
            grouped.update((rec.event, rec) for rec in s + f)
        events = sorted(
            grouped.values(), key=lambda r: r.begin_index, reverse=True  # type: ignore[arg-type, return-value]
        )
        index = {rec.event: k for k, rec in enumerate(events)}
        node = graph.node_of
        #: END and BEGIN node of each event
        self.end = [node(rec.end_index) for rec in events]  # type: ignore[arg-type]
        self.begin = [node(rec.begin_index) for rec in events]  # type: ignore[arg-type]
        #: node -> the projection bit it owns
        self.own_bit: Dict[int, int] = {}
        for k in range(len(events)):
            self.own_bit[self.end[k]] = 3 * k
            self.own_bit[self.begin[k]] = 3 * k + 1
        #: event -> its send or sendAtFront node (queue-grouped events)
        self.send: Dict[int, int] = {}
        for s, f in queues:
            for rec in s + f:
                k = index[rec.event]
                self.send[k] = node(rec.send_index)  # type: ignore[arg-type]
                self.own_bit[self.send[k]] = 3 * k + 2
        #: each looper's events, in execution order
        self.loopers = [[index[rec.event] for rec in recs] for recs in loopers]
        #: each queue's sends (sorted by delay), their delays, and its
        #: sendAtFronts
        self.queues = [
            ([index[r.event] for r in s], [r.delay for r in s], [index[r.event] for r in f])
            for s, f in queues
        ]

    def apply(self) -> List[Tuple[int, int, str]]:
        """One round: all rule instances enabled by the current closure.

        Concluded edges are returned, *not* added: staging them keeps
        each round a function of the closure at round entry, as in a
        snapshot-per-round fixpoint.  The rules run in a fixed order
        (atomicity, then queue rules 1–4), and the first to conclude an
        edge labels it.
        """
        self.rounds += 1
        if not self.own_bit:
            return []
        with span("hb.fixpoint.project"):
            proj = self.graph.project(self.own_bit)
        reach = self.graph.reach_vector()
        end, begin = self.end, self.begin
        new_edges: List[Tuple[int, int, str]] = []
        seen = set()

        def conclude(k1: int, k2: int, rule: str) -> None:
            """Record conclusion end(k1) < begin(k2) unless implied."""
            u, v = end[k1], begin[k2]
            if (u, v) in seen or reach[u].test(v):
                return
            seen.add((u, v))
            new_edges.append((u, v, rule))

        config = self.config
        if config.atomicity:
            self._atomicity(proj, conclude)
        if config.queue_rule_1:
            self._queue_rule_1(proj, conclude)
        if config.queue_rule_2:
            self._queue_rule_2(proj, conclude)
        if config.queue_rule_3:
            self._queue_rule_3(proj, conclude)
        if config.queue_rule_4:
            self._queue_rule_4(proj, conclude)
        return new_edges

    def _examine(self, members: int) -> None:
        self.groups_examined += 1
        if self.rounds > 1:
            self.events_repropagated += members

    # Each rule concludes in the order a pairwise scan of its premise
    # would (members in group order, partners by node id): successor
    # lists keep insertion order, and find_path explanations and cycle
    # reports follow them.

    # -- Atomicity rule ---------------------------------------------------
    # If begin(e1) < end(e2) then end(e1) < begin(e2), for events of the
    # same looper thread.  Only pairs in actual execution order can
    # satisfy the premise in a consistent trace, so each event reads the
    # END bits of the looper's later events in P[begin(e1)].

    def _atomicity(self, proj, conclude) -> None:
        begin, end = self.begin, self.end
        for ks in self.loopers:
            self._examine(len(ks) - 1)
            later = 0  # END bits of the events after ks[i]
            found = []
            for i in range(len(ks) - 2, -1, -1):
                later |= 1 << 3 * ks[i + 1]
                k = ks[i]
                new = proj[begin[k]] & later
                if new:
                    new &= ~(proj[end[k]] >> 1)
                    if new:
                        found.append((k, new))
            for k, new in reversed(found):
                for j in sorted(_events_in(new), key=end.__getitem__):
                    conclude(k, j, RULE_ATOMICITY)

    # -- Queue rule 1 -------------------------------------------------------
    # send(t1,e1,d1) < send(t2,e2,d2) and d1 <= d2  =>  end(e1) < begin(e2).

    def _queue_rule_1(self, proj, conclude) -> None:
        send, end = self.send, self.end
        for ks, delays, _ in self.queues:
            if len(ks) < 2:
                continue
            self._examine(len(ks))
            found = []
            partners = 0  # send bits of the sends with delay >= delays[lo]
            hi = len(ks)
            while hi:
                lo = bisect_left(delays, delays[hi - 1])
                partners |= _mask(ks[lo:hi], 2)
                for i in range(lo, hi):
                    k = ks[i]
                    # partners includes k's own send, which P[send] has
                    new = (proj[send[k]] & partners) ^ (1 << (3 * k + 2))
                    if new:
                        new &= ~(proj[end[k]] << 1)
                        if new:
                            found.append((i, new))
                hi = lo
            for i, new in sorted(found):
                for j in sorted(_events_in(new), key=send.__getitem__):
                    conclude(ks[i], j, RULE_QUEUE_1)

    # -- Queue rule 2 -------------------------------------------------------
    # send(t1,e1,d1) < sendAtFront(t2,e2) and sendAtFront(t2,e2) < begin(e1)
    #   =>  end(e2) < begin(e1).

    def _queue_rule_2(self, proj, conclude) -> None:
        send, end = self.send, self.end
        for ks, _, fronts in self.queues:
            if not fronts or not ks:
                continue
            self._examine(len(fronts))
            begins = _mask(ks, 1)
            position = {k: i for i, k in enumerate(ks)}
            for f in fronts:
                new = proj[send[f]] & begins
                if new:
                    new &= ~proj[end[f]]
                front_bit = 3 * f + 2
                hits = [k for k in _events_in(new) if proj[send[k]] >> front_bit & 1]
                for k in sorted(hits, key=position.__getitem__):
                    conclude(f, k, RULE_QUEUE_2)

    # -- Queue rule 3 -------------------------------------------------------
    # sendAtFront(t1,e1) < send(t2,e2,d2)  =>  end(e1) < begin(e2).

    def _queue_rule_3(self, proj, conclude) -> None:
        send, end = self.send, self.end
        for ks, _, fronts in self.queues:
            if not fronts or not ks:
                continue
            self._examine(len(fronts))
            sends = _mask(ks, 2)
            for f in fronts:
                new = proj[send[f]] & sends
                if new:
                    new &= ~(proj[end[f]] << 1)
                    for k in sorted(_events_in(new), key=send.__getitem__):
                        conclude(f, k, RULE_QUEUE_3)

    # -- Queue rule 4 -------------------------------------------------------
    # sendAtFront(t1,e1) < sendAtFront(t2,e2) and
    # sendAtFront(t2,e2) < begin(e1)  =>  end(e2) < begin(e1).

    def _queue_rule_4(self, proj, conclude) -> None:
        send, end = self.send, self.end
        for _, _, fronts in self.queues:
            if len(fronts) < 2:
                continue
            self._examine(len(fronts))
            begins = _mask(fronts, 1)
            position = {k: i for i, k in enumerate(fronts)}
            pairs = []
            for f2 in fronts:
                new = proj[send[f2]] & begins
                if new:
                    new &= ~proj[end[f2]]
                front_bit = 3 * f2 + 2
                for f1 in _events_in(new):
                    if f1 != f2 and proj[send[f1]] >> front_bit & 1:
                        pairs.append((position[f1], position[f2]))
            for i, j in sorted(pairs):
                conclude(fronts[j], fronts[i], RULE_QUEUE_4)


def _fixpoint(state: _BuildState, graph: KeyGraph, profile: BuildProfile) -> None:
    """Apply the derived rules to the closed ``graph`` until none fires.

    Every round evaluates every rule group afresh; the first round
    that concludes nothing new ends the fixpoint.  Rounds,
    per-round edge counts, the rule-group counters and the time spent
    go into ``profile``; models with no derived rule run no round.
    """
    config = state.config
    if config.sequential_events or not (config.atomicity or config.any_queue_rule):
        return
    with span("hb.fixpoint") as timed:
        rules = _DerivedRules(state, graph)
        while True:
            profile.rounds += 1
            with span("hb.fixpoint.rules"):
                new_edges = rules.apply()
            if not new_edges:
                break
            with span("hb.fixpoint.propagate"):
                added = sum(graph.add_edge(u, v, rule) for u, v, rule in new_edges)
            profile.edges_per_round.append(added)
    profile.fixpoint_seconds = timed.seconds
    profile.groups_examined = rules.groups_examined
    profile.events_repropagated = rules.events_repropagated


def _task_bounds(
    state: _BuildState, task_node_ops: Dict[str, List[int]]
) -> Dict[str, Tuple[int, int]]:
    """(begin op, end op) of every begun task; a task with no END
    scanned ends at the last op of its program order in the prefix."""
    bounds: Dict[str, Tuple[int, int]] = {}
    task_ids = state.store.task_ids
    for task, begin in state.task_begin.items():
        end = state.task_end.get(task)
        if end is None:
            end = task_node_ops[state.task_of_id[task_ids[begin]]][-1]
        bounds[task] = (begin, end)
    return bounds


def _build_relation(state: _BuildState, profile: BuildProfile) -> HappensBefore:
    """The relation of every op scanned into ``state``.

    Lays the key nodes out task by task, adds the base edges in trace
    order and the chain edges, closes the graph and runs the fixpoint;
    the phase timings and closure-work counters go into ``profile``
    (the closure's storage is sized when the relation's ``profile`` is
    first read).  The build only registers the scanned tasks that have
    no key op, as a later scan would, so a later scan can extend the
    state and build again.  Raises
    :class:`~repro.hb.graph.HBCycleError` if the base graph is cyclic,
    then :class:`ModelNotApplicableError` if a base edge points back in
    the trace.
    """
    _check_one_looper_per_queue(state)
    with span("hb.base_edges") as timed:
        graph, task_node_ops, task_key_nodes = _build_key_graph(state)
        base = _BaseRules(state, graph)
        for i in state.key_ops:
            base.step(i)
        base.chain_edges()
    profile.base_seconds = timed.seconds

    # Build-time consistency check: close (and thereby cycle-check) the
    # base graph unconditionally, so a cyclic trace fails here rather
    # than from whichever ordered() query happens to run first.
    with span("hb.closure") as timed:
        graph.close()
    profile.closure_seconds = timed.seconds
    if base.late is not None:
        raise backward_edge_error(state.store, *base.late)

    _fixpoint(state, graph, profile)
    profile.closure_recomputations = graph.closure_recomputations
    profile.bits_propagated = graph.bits_propagated
    return HappensBefore(
        graph=graph,
        task_ids=state.store.task_ids,
        task_of_id=state.task_of_id,
        task_key_ops=task_node_ops,
        task_key_nodes=task_key_nodes,
        event_bounds=_task_bounds(state, task_node_ops),
        profile=profile,
    )


def build_happens_before(
    trace: Trace,
    config: ModelConfig = CAFA_MODEL,
) -> HappensBefore:
    """Build the happens-before relation of ``trace`` under ``config``.

    Returns a :class:`~repro.hb.graph.HappensBefore` answering ordering
    queries between arbitrary operation indices.  Raises
    :class:`~repro.hb.graph.HBCycleError` *here, at build time,* if the
    derived relation is cyclic (an inconsistent trace) — under every
    configuration, including the ablations that disable the derived
    rules — and :class:`ModelNotApplicableError` if a base edge points
    back in the trace.
    """
    profile = BuildProfile()
    with span("hb.scan", ops=len(trace)) as timed:
        state = _BuildState(trace=trace, config=config)
        _scan(state, 0, len(trace))
    profile.scan_seconds = timed.seconds

    return _build_relation(state, profile)
