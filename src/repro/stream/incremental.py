"""Incremental happens-before construction for the streaming service.

:func:`repro.hb.builder.build_happens_before` is a batch pipeline: scan
the whole trace, allocate the key graph, add every base edge, close,
then run the derived-rule fixpoint.  :class:`IncrementalHB` runs the
same passes *op by op* against the live incremental closure that
:class:`~repro.hb.graph.KeyGraph` already maintains (once closed, it
appends self-only closure rows on ``add_node`` and worklist-propagates
on ``add_edge``), so the relation is extended as records arrive instead
of rebuilt.

The streaming construction reuses the builder's own machinery — the
shared :class:`~repro.hb.builder._BuildState` scan bookkeeping,
:func:`~repro.hb.builder._harvest` for event records, and
:class:`~repro.hb.builder._DerivedRules` for the fixpoint — so there is
one implementation of every rule, exercised by both modes.  Three
things differ from the batch order of operations, none of which changes
the final relation:

* **Forward references.**  Batch mode resolves ``fork → begin``,
  ``end → join`` and ``send → begin`` by looking the partner up in the
  completed scan.  Online, the partner op may not have arrived yet, so
  unresolved edges are parked in pending tables keyed by task/event
  name and resolved when the matching ``begin``/``end`` arrives.  The
  final edge set is identical.

* **External-input chain.**  The chain links *adjacent* external events
  by ``external_seq``, and an event's neighbours can change as later
  external events arrive.  The chain is therefore re-walked from the
  trace's sorted external-event list on every :meth:`poll` after a
  relevant ``begin``/``end`` (``add_edge`` deduplicates, so the re-walk
  is cheap), converging on exactly the batch edge set.

* **Trailing key nodes.**  Batch mode adds a node at each task's last
  op even when it is not a synchronization op, purely so the task has a
  node at its very end.  Online, "last op" is a moving target, so these
  nodes are never created.  This is verdict-neutral: a trailing
  non-sync node has no incident cross-task edges (base rules only touch
  sync/lock ops), so it is reachable exactly when its program-order
  predecessor is, and no query verdict depends on it.  The streaming
  relation must be queried with ``fast_queries=False`` (the scan path),
  which :meth:`relation` enforces.

The derived-rule fixpoint is where incrementality pays off.  Between
polls the graph accumulates dirty node marks; a poll runs
``_DerivedRules.apply`` seeded with exactly those nodes, so rule groups
whose premises did not move are skipped (PR 5's per-event dirty
tracking).  One subtlety: ``_DerivedRules`` snapshots group membership
(the dispatched events per looper/queue) at construction, and a member
that *joins* a group late — its ``end`` arrives many polls after its
``begin`` — may have premise-reach changes that were already drained in
earlier polls.  Per-member dirty skipping would silently miss its
conclusions.  The poll therefore fingerprints group membership; when it
changes, the rules are rebuilt and that poll's first round runs with
``dirty=None`` (full examination — the batch round-one semantics),
which is sound because the implied-edge check already skips everything
the closure knows.  ``_seed_queue_rule_1_chains`` (a batch-only
warm-start optimization) is skipped; the fixpoint derives the same
edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..hb.builder import (
    RULE_EXTERNAL,
    RULE_FORK,
    RULE_IPC_CALL,
    RULE_IPC_REPLY,
    RULE_JOIN,
    RULE_LISTENER,
    RULE_LOCK,
    RULE_PROGRAM_ORDER,
    RULE_SEND,
    RULE_SEND_AT_FRONT,
    RULE_SIGNAL_WAIT,
    _BuildState,
    _check_one_looper_per_queue,
    _DerivedRules,
    _effective_task_of_id,
    _harvest,
)
from ..hb.config import CAFA_MODEL, ModelConfig
from ..hb.graph import HappensBefore, KeyGraph
from ..trace import (
    Acquire,
    Begin,
    End,
    Fork,
    IpcCall,
    IpcHandle,
    IpcReply,
    IpcReturn,
    Join,
    Notify,
    OpKind,
    Perform,
    Register,
    Release,
    Send,
    SendAtFront,
    SYNC_KINDS,
    TaskKind,
    Trace,
    Wait,
)

_LOCK_KINDS = (OpKind.ACQUIRE, OpKind.RELEASE)

#: every field of an :class:`~repro.hb.builder.EventRecord` that
#: :class:`~repro.hb.builder._DerivedRules` reads when forming groups —
#: the membership fingerprint must cover all of them
_MEMBER_FIELDS = (
    "event",
    "queue",
    "looper",
    "send_index",
    "delay",
    "at_front",
    "begin_index",
    "end_index",
)


class IncrementalHB:
    """One happens-before relation, grown record by record.

    Usage: :meth:`ingest` every op of ``trace`` in order as it arrives,
    :meth:`poll` whenever the derived closure should catch up, and
    :meth:`relation` for a queryable
    :class:`~repro.hb.graph.HappensBefore` view over the live state.
    """

    def __init__(
        self,
        trace: Trace,
        config: ModelConfig = CAFA_MODEL,
    ) -> None:
        self.trace = trace
        self.config = config
        self.graph = KeyGraph()
        self.state = _BuildState(trace=trace, config=config)
        self.task_key_positions: Dict[str, List[int]] = {}
        self.task_key_nodes: Dict[str, List[int]] = {}
        self._prev_key_node: Dict[str, int] = {}
        self._closed = False
        # Base edges whose partner op has not arrived yet.
        self._pending_forks: Dict[str, List[int]] = {}
        self._pending_joins: Dict[str, List[int]] = {}
        self._pending_sends: Dict[str, List[Tuple[int, str]]] = {}
        # Past-only pairing state (mirrors _add_base_edges; arrival
        # order is trace order, so the lookups resolve identically).
        self._notify_by_ticket: Dict[int, int] = {}
        self._notify_by_monitor: Dict[str, List[int]] = {}
        self._registers: Dict[str, List[int]] = {}
        self._ipc_calls: Dict[int, int] = {}
        self._ipc_replies: Dict[int, int] = {}
        self._last_release: Dict[str, int] = {}
        self._external_dirty = False
        self._ingested = 0
        self._dirty: Set[int] = set()
        self._rules: Optional[_DerivedRules] = None
        self._membership: Optional[Tuple[tuple, ...]] = None
        self.rounds = 0
        self.derived_edges = 0
        self._derived_enabled = not config.sequential_events and (
            config.atomicity or config.any_queue_rule
        )

    # -- ingestion -----------------------------------------------------

    def ingest(self, i: int) -> None:
        """Process ``trace[i]``; ops must be ingested in trace order."""
        if i != self._ingested:
            raise ValueError(
                f"out-of-order ingest: expected op {self._ingested}, got {i}"
            )
        self._ingested += 1
        state = self.state
        op = self.trace[i]
        # Scan bookkeeping (mirrors _scan, one op at a time).
        task = op.task
        if state.config.sequential_events:
            info = self.trace.tasks.get(task)
            if (
                info is not None
                and info.task_kind is TaskKind.EVENT
                and info.looper
            ):
                task = info.looper
        ops = state.task_ops.setdefault(task, [])
        state.op_task.append(task)
        state.op_pos.append(len(ops))
        ops.append(i)
        _harvest(state, i, op)
        kind = op.kind
        if kind in SYNC_KINDS or (
            state.config.lock_edges and kind in _LOCK_KINDS
        ):
            node = self.graph.add_node(i)
            if not self._closed:
                # Close on the first node so every later add_node /
                # add_edge extends the closure live.
                self.graph.close()
                self._closed = True
            prev = self._prev_key_node.get(task)
            if prev is not None:
                self.graph.add_edge(prev, node, RULE_PROGRAM_ORDER)
            self._prev_key_node[task] = node
            self.task_key_positions.setdefault(task, []).append(
                state.op_pos[-1]
            )
            self.task_key_nodes.setdefault(task, []).append(node)
            self._base_edges(i, op)

    def _edge(self, u_op: int, v_op: int, rule: str) -> None:
        self.graph.add_edge(
            self.graph.node_of(u_op), self.graph.node_of(v_op), rule
        )

    def _is_external_event(self, task: str) -> bool:
        info = self.trace.tasks.get(task)
        return (
            info is not None
            and info.task_kind is TaskKind.EVENT
            and info.external
        )

    def _base_edges(self, i: int, op) -> None:
        """Base-rule edges enabled by op ``i`` (mirrors _add_base_edges'
        ``step``, plus resolution of parked forward references)."""
        config, state, edge = self.config, self.state, self._edge
        if isinstance(op, Begin):
            for j, rule in self._pending_sends.pop(op.task, ()):
                edge(j, i, rule)
            for j in self._pending_forks.pop(op.task, ()):
                edge(j, i, RULE_FORK)
            if config.external_input and self._is_external_event(op.task):
                self._external_dirty = True
        elif isinstance(op, End):
            for j in self._pending_joins.pop(op.task, ()):
                edge(i, j, RULE_JOIN)
            if config.external_input and self._is_external_event(op.task):
                self._external_dirty = True
        elif isinstance(op, Fork) and config.fork_join:
            begin = state.task_begin.get(op.child)
            if begin is not None:
                edge(i, begin, RULE_FORK)
            else:
                self._pending_forks.setdefault(op.child, []).append(i)
        elif isinstance(op, Join) and config.fork_join:
            end = state.task_end.get(op.child)
            if end is not None:
                edge(end, i, RULE_JOIN)
            else:
                self._pending_joins.setdefault(op.child, []).append(i)
        elif isinstance(op, Notify) and config.signal_wait:
            if op.ticket >= 0:
                self._notify_by_ticket[op.ticket] = i
            self._notify_by_monitor.setdefault(op.monitor, []).append(i)
        elif isinstance(op, Wait) and config.signal_wait:
            if op.ticket >= 0 and op.ticket in self._notify_by_ticket:
                edge(self._notify_by_ticket[op.ticket], i, RULE_SIGNAL_WAIT)
            else:
                for n in self._notify_by_monitor.get(op.monitor, ()):
                    edge(n, i, RULE_SIGNAL_WAIT)
        elif isinstance(op, Register) and config.listener:
            self._registers.setdefault(op.listener, []).append(i)
        elif isinstance(op, Perform) and config.listener:
            for r in self._registers.get(op.listener, ()):
                edge(r, i, RULE_LISTENER)
        elif isinstance(op, (Send, SendAtFront)) and config.send_begin:
            rule = RULE_SEND if isinstance(op, Send) else RULE_SEND_AT_FRONT
            begin = state.task_begin.get(op.event)
            if begin is not None:
                edge(i, begin, rule)
            else:
                self._pending_sends.setdefault(op.event, []).append((i, rule))
        elif isinstance(op, IpcCall) and config.ipc:
            self._ipc_calls[op.txn] = i
        elif isinstance(op, IpcHandle) and config.ipc:
            call = self._ipc_calls.get(op.txn)
            if call is not None:
                edge(call, i, RULE_IPC_CALL)
        elif isinstance(op, IpcReply) and config.ipc:
            self._ipc_replies[op.txn] = i
        elif isinstance(op, IpcReturn) and config.ipc:
            reply = self._ipc_replies.get(op.txn)
            if reply is not None:
                edge(reply, i, RULE_IPC_REPLY)
        elif isinstance(op, Release) and config.lock_edges:
            self._last_release[op.lock] = i
        elif isinstance(op, Acquire) and config.lock_edges:
            rel = self._last_release.get(op.lock)
            if rel is not None:
                edge(rel, i, RULE_LOCK)

    def _refresh_external_chain(self) -> None:
        if not self._external_dirty:
            return
        self._external_dirty = False
        state = self.state
        external = self.trace.external_events()
        for e1, e2 in zip(external, external[1:]):
            end1 = state.task_end.get(e1)
            begin2 = state.task_begin.get(e2)
            if end1 is not None and begin2 is not None:
                self._edge(end1, begin2, RULE_EXTERNAL)

    # -- derived fixpoint ----------------------------------------------

    def _membership_key(self) -> Tuple[tuple, ...]:
        return tuple(
            tuple(getattr(rec, name) for name in _MEMBER_FIELDS)
            for rec in self.state.events.values()
            if rec.dispatched and rec.queue
        )

    def poll(self) -> int:
        """Catch the derived closure up with everything ingested.

        Returns the number of derived edges added.  Cheap when nothing
        relevant changed: no dirty nodes and unchanged group membership
        means no fixpoint round runs at all.
        """
        if not self._closed:
            return 0
        if self.config.external_input:
            self._refresh_external_chain()
        self._dirty |= self.graph.drain_dirty()
        if not self._derived_enabled:
            self._dirty.clear()
            return 0
        membership = self._membership_key()
        dirty: Optional[Set[int]]
        if membership != self._membership:
            self._membership = membership
            _check_one_looper_per_queue(self.state)
            self._rules = _DerivedRules(self.state, self.graph)
            # Newly built rule structures: examine every group once
            # (see module docstring — a member that joined a group may
            # have premise changes drained in earlier polls).
            dirty = None
            self._dirty.clear()
        else:
            if self._rules is None or not self._dirty:
                self._dirty.clear()
                return 0
            dirty = self._dirty
            self._dirty = set()
        added_total = 0
        rules = self._rules
        while True:
            new_edges = rules.apply(dirty)
            if not new_edges:
                break
            self.rounds += 1
            added = 0
            for u, v, rule in new_edges:
                if self.graph.add_edge(u, v, rule):
                    added += 1
            self.derived_edges += added
            added_total += added
            dirty = self.graph.drain_dirty()
        return added_total

    # -- queries -------------------------------------------------------

    def closure_bytes(self) -> int:
        return self.graph.closure_bytes() if self._closed else 0

    def relation(self) -> HappensBefore:
        """A queryable view over the live graph and scan state.

        The view is constructed with ``fast_queries=False``: the scan
        query path reads only the live references handed here (none of
        the lazily built per-task masks or memo tables), so it stays
        correct as more records are ingested after the call.
        """
        state = self.state
        bounds: Dict[str, Tuple[int, int]] = {}
        for task, begin in state.task_begin.items():
            end = state.task_end.get(task)
            if end is None:
                ops = state.task_ops.get(_effective_task_of_id(state, task), [])
                end = ops[-1] if ops else begin
            bounds[task] = (begin, end)
        return HappensBefore(
            graph=self.graph,
            op_task=state.op_task,
            op_pos=state.op_pos,
            task_key_positions=self.task_key_positions,
            task_key_nodes=self.task_key_nodes,
            event_bounds=bounds,
            iterations=self.rounds,
            derived_edges=self.derived_edges,
            fast_queries=False,
        )
