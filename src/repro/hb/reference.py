"""A brute-force reference implementation of the causality model.

This module exists for *differential testing only*: it implements the
rules of Section 3.3 in the most literal way possible — one vertex per
trace operation, a dense reachability matrix recomputed from scratch
every round, and a fixpoint that re-scans every rule instance on every
round quantifying over **all** operation pairs.  No key-node reduction,
no incremental maintenance, no seeding, no candidate masks.  (The
matrix rows are stored as big-int bitsets and each round's conclusions
are staged and applied together — pure mechanics that keep the oracle
usable on whole app traces without changing the computed relation.)
It is O(n^3/64)-ish and only usable on small traces, which is exactly
what the property and differential tests feed it: the optimized
builder in :mod:`repro.hb.builder` must agree with this oracle on
every ordering query.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..trace import (
    Begin,
    End,
    Fork,
    IpcCall,
    IpcHandle,
    IpcReply,
    IpcReturn,
    Join,
    Notify,
    Perform,
    Register,
    Send,
    SendAtFront,
    TaskKind,
    Trace,
    Wait,
)
from .config import CAFA_MODEL, ModelConfig


class ReferenceHappensBefore:
    """The literal model.  Query with :meth:`ordered`.

    The reachability rows are plain Python ints, deliberately sharing
    no code with the builder's :class:`~repro.hb.bits.SparseBits`
    closure it is differentially tested against.
    """

    def __init__(
        self,
        trace: Trace,
        config: ModelConfig = CAFA_MODEL,
    ) -> None:
        self.trace = trace
        self.config = config
        n = len(trace)
        self._n = n
        #: adjacency: edge[i][j] True if i -> j directly
        self._edge: List[Set[int]] = [set() for _ in range(n)]
        #: per-row reachability bitsets: bit j of _reach[i] set iff i ->* j
        self._reach: Optional[List[int]] = None
        self._build()

    # -- construction -----------------------------------------------------

    def _add(self, i: int, j: int) -> bool:
        if j in self._edge[i]:
            return False
        self._edge[i].add(j)
        self._reach = None
        return True

    def _closure(self) -> List[int]:
        if self._reach is not None:
            return self._reach
        n = self._n
        reach = [(1 << i) for i in range(n)]
        for i in range(n):
            for j in self._edge[i]:
                reach[i] |= 1 << j
        # Floyd-Warshall, one big-int row per vertex
        for k in range(n):
            row_k = reach[k]
            for i in range(n):
                if (reach[i] >> k) & 1:
                    reach[i] |= row_k
        self._reach = reach
        return reach

    def _lt(self, a: int, b: int) -> bool:
        """Strict: a < b (reflexive closure minus identity)."""
        if a == b:
            return False
        return (self._closure()[a] >> b) & 1 == 1

    def _build(self) -> None:
        trace, config = self.trace, self.config
        n = self._n

        def effective_task(op) -> str:
            if config.sequential_events:
                info = trace.tasks.get(op.task)
                if info is not None and info.task_kind is TaskKind.EVENT and info.looper:
                    return info.looper
            return op.task

        # program order
        last: Dict[str, int] = {}
        for i, op in enumerate(trace.ops):
            task = effective_task(op)
            if task in last:
                self._add(last[task], i)
            last[task] = i

        begin_of: Dict[str, int] = {}
        end_of: Dict[str, int] = {}
        for i, op in enumerate(trace.ops):
            if isinstance(op, Begin):
                begin_of.setdefault(op.task, i)
            elif isinstance(op, End):
                end_of[op.task] = i

        notifies: List[Tuple[int, Notify]] = []
        registers: List[Tuple[int, Register]] = []
        calls: Dict[int, int] = {}
        replies: Dict[int, int] = {}
        for i, op in enumerate(trace.ops):
            if isinstance(op, Fork) and config.fork_join:
                if op.child in begin_of:
                    self._add(i, begin_of[op.child])
            elif isinstance(op, Join) and config.fork_join:
                if op.child in end_of:
                    self._add(end_of[op.child], i)
            elif isinstance(op, Notify):
                notifies.append((i, op))
            elif isinstance(op, Wait) and config.signal_wait:
                for j, notify in notifies:
                    if j >= i or notify.monitor != op.monitor:
                        continue
                    if op.ticket >= 0:
                        if notify.ticket == op.ticket:
                            self._add(j, i)
                    else:
                        self._add(j, i)
            elif isinstance(op, Register):
                registers.append((i, op))
            elif isinstance(op, Perform) and config.listener:
                for j, reg in registers:
                    if j < i and reg.listener == op.listener:
                        self._add(j, i)
            elif isinstance(op, (Send, SendAtFront)) and config.send_begin:
                if op.event in begin_of:
                    self._add(i, begin_of[op.event])
            elif isinstance(op, IpcCall) and config.ipc:
                calls[op.txn] = i
            elif isinstance(op, IpcHandle) and config.ipc:
                if op.txn in calls:
                    self._add(calls[op.txn], i)
            elif isinstance(op, IpcReply) and config.ipc:
                replies[op.txn] = i
            elif isinstance(op, IpcReturn) and config.ipc:
                if op.txn in replies:
                    self._add(replies[op.txn], i)

        if config.external_input:
            external = trace.external_events()
            for e1, e2 in zip(external, external[1:]):
                if e1 in end_of and e2 in begin_of:
                    self._add(end_of[e1], begin_of[e2])

        if not config.sequential_events:
            self._fixpoint(begin_of, end_of)

    def _fixpoint(self, begin_of: Dict[str, int], end_of: Dict[str, int]) -> None:
        trace, config = self.trace, self.config

        events = [
            (task, info)
            for task, info in trace.tasks.items()
            if info.task_kind is TaskKind.EVENT
            and task in begin_of
            and task in end_of
        ]
        sends: List[Tuple[int, Send]] = []
        fronts: List[Tuple[int, SendAtFront]] = []
        for i, op in enumerate(trace.ops):
            if isinstance(op, Send) and op.event in begin_of and op.event in end_of:
                sends.append((i, op))
            elif isinstance(op, SendAtFront) and op.event in begin_of and op.event in end_of:
                fronts.append((i, op))

        # Each round scans every rule instance against the closure of the
        # edges known at the start of the round; the round's conclusions
        # are applied together afterwards.  The loop still runs to the
        # least fixpoint (the rules are monotone), it just rebuilds the
        # closure once per round instead of once per added edge.
        changed = True
        while changed:
            staged: List[Tuple[int, int]] = []
            if config.atomicity:
                for t1, i1 in events:
                    for t2, i2 in events:
                        if t1 == t2 or i1.looper != i2.looper or not i1.looper:
                            continue
                        if self._lt(begin_of[t1], end_of[t2]):
                            staged.append((end_of[t1], begin_of[t2]))
            if config.queue_rule_1:
                for i, s1 in sends:
                    for j, s2 in sends:
                        if i == j or s1.queue != s2.queue:
                            continue
                        if s1.delay <= s2.delay and self._lt(i, j):
                            staged.append((end_of[s1.event], begin_of[s2.event]))
            if config.queue_rule_2:
                for i, s1 in sends:
                    for j, f2 in fronts:
                        if s1.queue != f2.queue:
                            continue
                        if self._lt(i, j) and self._lt(j, begin_of[s1.event]):
                            staged.append((end_of[f2.event], begin_of[s1.event]))
            if config.queue_rule_3:
                for i, f1 in fronts:
                    for j, s2 in sends:
                        if f1.queue != s2.queue:
                            continue
                        if self._lt(i, j):
                            staged.append((end_of[f1.event], begin_of[s2.event]))
            if config.queue_rule_4:
                for i, f1 in fronts:
                    for j, f2 in fronts:
                        if i == j or f1.queue != f2.queue:
                            continue
                        if self._lt(i, j) and self._lt(j, begin_of[f1.event]):
                            staged.append((end_of[f2.event], begin_of[f1.event]))
            reach = self._closure()
            changed = False
            for src, dst in staged:
                if not (reach[src] >> dst) & 1:
                    if self._add(src, dst):
                        changed = True

    # -- queries ----------------------------------------------------------

    def ordered(self, a: int, b: int) -> bool:
        """Strict happens-before between operation indices."""
        if self.trace[a].task == self.trace[b].task:
            return a < b
        if self.config.sequential_events:
            ta = self._effective(a)
            tb = self._effective(b)
            if ta == tb:
                return a < b
        return self._lt(a, b)

    def _effective(self, i: int) -> str:
        op = self.trace[i]
        info = self.trace.tasks.get(op.task)
        if info is not None and info.task_kind is TaskKind.EVENT and info.looper:
            return info.looper
        return op.task

    def concurrent(self, a: int, b: int) -> bool:
        return not self.ordered(a, b) and not self.ordered(b, a)
