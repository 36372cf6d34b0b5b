"""One forward vector-clock pass over an event-driven trace.

Section 4.2 argues that the classic online vector-clock algorithm
(FastTrack-style) cannot implement the event-driven causality model:
the atomicity rule depends on *future* operations (Figure 4a), and the
queue rules need checks over past operations that a clock comparison
cannot express (Figure 4d).  The conventional thread-based model has
neither rule, so for it one forward pass is exact.

:class:`VectorClockAnalysis` is that pass.  It applies exactly the base
rules of :mod:`repro.hb.builder`: a wait joins its ticket's notify, or
every earlier notify of its monitor; a perform joins every earlier
register; the consecutive external-input chain; fork/join; send; and
IPC.  It reads the store's columns and ticks at sync ops only.

With ``fold_events=True`` each event joins its looper thread's clock
component, and the pass computes
``build_happens_before(trace, CONVENTIONAL_MODEL)`` exactly; the
detector classifies reports with it.  With ``fold_events=False`` each
task is its own component: the §4.2 baseline, exact for
``replace(CONVENTIONAL_MODEL, sequential_events=False)`` and an
under-approximation of the CAFA relation, strictly so on traces that
exercise the atomicity and queue rules.

A forward pass cannot apply an edge that points back in the trace — a
fork or send after its target began, a join before the child ended, an
external event that began before its predecessor ended — so it raises
:class:`~repro.hb.builder.ModelNotApplicableError` naming both ops,
with the text the graph builder raises for the same edge.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..trace import OpKind, SYNC_KINDS, TaskKind, Trace
from ..trace.store import KIND_CODES, KIND_LIST
from .builder import backward_edge_error

#: per kind code: 1 for the sync ops, the only ops that tick
_SYNC = bytes(kind in SYNC_KINDS for kind in KIND_LIST)
_BEGIN, _END, _JOIN, _NOTIFY, _WAIT, _REGISTER = (
    KIND_CODES[OpKind[name]]
    for name in ("BEGIN", "END", "JOIN", "NOTIFY", "WAIT", "REGISTER")
)
#: kinds ordered before the BEGIN of the task a field names: rule, field
_TO_BEGIN = {
    KIND_CODES[OpKind.FORK]: ("fork", "child"),
    KIND_CODES[OpKind.SEND]: ("send", "event"),
    KIND_CODES[OpKind.SEND_AT_FRONT]: ("sendAtFront", "event"),
}
#: receiving kind -> the sending kind it pairs with, and the field both
#: carry; a wait or a perform joins every earlier sender, IPC the latest
_RECEIVE = {
    _WAIT: (_NOTIFY, "monitor"),
    KIND_CODES[OpKind.PERFORM]: (_REGISTER, "listener"),
    KIND_CODES[OpKind.IPC_HANDLE]: (KIND_CODES[OpKind.IPC_CALL], "txn"),
    KIND_CODES[OpKind.IPC_RETURN]: (KIND_CODES[OpKind.IPC_REPLY], "txn"),
}
_SENDERS = dict(_RECEIVE.values())


class VectorClockAnalysis:
    """Happens-before among the ops ``ops`` (all ops when None), from
    one pass over ``trace``; see the module docstring.

    Clocks range over the queried ops' components only: joins are
    pointwise maxima, so each component's entry evolves on its own and
    dropping the others is exact.  A clock is a list that is never
    mutated once a component holds it, so a clock kept for a later
    join, or at a queried op, is a reference and not a copy.
    """

    def __init__(
        self,
        trace: Trace,
        ops: Optional[Iterable[int]] = None,
        *,
        fold_events: bool = False,
    ) -> None:
        self.trace = trace
        self.fold_events = fold_events
        #: component -> its entry in the clocks (-1: not queried)
        self._slot: List[int] = []
        #: queried op -> (component, its component's sync ops before it,
        #: its clock)
        self._stamp: Dict[int, Tuple[int, int, List[int]]] = {}
        self._forward_pass(set(range(len(trace)) if ops is None else ops))

    def ordered(self, a: int, b: int) -> bool:
        """Strict happens-before between queried op indices: ``a < b``.

        True when a's component has a sync op at or after ``a`` and
        b's clock has reached it: a's own count plus one.
        """
        comp_a, count_a, _ = self._stamp[a]
        comp_b, _, clock_b = self._stamp[b]
        if comp_a == comp_b:
            return a < b
        return clock_b[self._slot[comp_a]] > count_a

    def concurrent(self, a: int, b: int) -> bool:
        return not self.ordered(a, b) and not self.ordered(b, a)

    def concurrent_pairs(self, pairs: Iterable[Tuple[int, int]]) -> List[bool]:
        """:meth:`concurrent` over ``(a, b)`` op pairs, in input order."""
        return [self.concurrent(a, b) for a, b in pairs]

    def _forward_pass(self, want: Set[int]) -> None:
        trace, store = self.trace, self.trace.store
        kinds, task_ids = store.kinds, store.task_ids
        symbols = store.symbols
        # task symbol id -> clock component
        component: Dict[str, int] = {}
        comp_of: Dict[int, int] = {}
        for tid in set(task_ids):
            name = symbols.value(tid)
            info = trace.tasks.get(name)
            if self.fold_events and info is not None and info.looper:
                if info.task_kind is TaskKind.EVENT:
                    name = info.looper
            comp_of[tid] = component.setdefault(name, len(component))
        queried = {comp_of[task_ids[i]] for i in want}
        slot = self._slot = [-1] * len(component)
        for k, c in enumerate(queried):
            slot[c] = k

        # payload fields are read off their kind's column at the op's
        # row; the senders and receivers pair on raw values, which for
        # a string field is its symbol id
        rows = store.rows

        def column(code: int, field: str) -> array:
            return store.column(KIND_LIST[code], field)[1]

        children = column(_JOIN, "child")
        tickets = {code: column(code, "ticket") for code in (_NOTIFY, _WAIT)}
        to_begin = {
            code: (rule, column(code, field))
            for code, (rule, field) in _TO_BEGIN.items()
        }
        receive = {
            code: (sender, column(code, field))
            for code, (sender, field) in _RECEIVE.items()
        }
        senders = {code: column(code, field) for code, field in _SENDERS.items()}
        external = trace.external_events()
        next_external = dict(zip(external, external[1:]))
        prev_external = dict(zip(external[1:], external))
        # only the ENDs some JOIN names keep their clocks
        joinable = set(map(symbols.value, set(children)))

        clocks = [[0] * len(queried)] * len(component)
        begun: Dict[str, int] = {}  # task -> its first BEGIN
        joined: Dict[str, int] = {}  # task -> the first JOIN naming it
        waiting: Dict[str, List[List[int]]] = {}  # task -> fork/send clocks
        # END clocks of the joined tasks and of the chained externals
        ended: Dict[str, List[int]] = {}
        sent: Dict[Tuple[int, int], List[int]] = {}  # (kind, raw field) -> clock
        notified: Dict[int, List[int]] = {}  # ticket -> its notify's clock
        stamps = self._stamp

        sync_ops = compress(range(len(kinds)), map(_SYNC.__getitem__, kinds))
        for i in sorted(want.union(sync_ops)):
            code = kinds[i]
            c = comp_of[task_ids[i]]
            vc = clocks[c]
            if _SYNC[code]:
                task = symbols.value(task_ids[i])
                sources: List[List[int]] = []
                if code == _BEGIN and task not in begun:
                    begun[task] = i
                    sources = waiting.pop(task, sources)
                    if prev_external.get(task) in ended:
                        sources.append(ended[prev_external[task]])
                elif code == _JOIN:
                    child = symbols.value(children[rows[i]])
                    joined.setdefault(child, i)
                    if child in ended:
                        sources.append(ended[child])
                elif code in receive:
                    sender, values = receive[code]
                    src = None
                    if code == _WAIT:
                        src = notified.get(tickets[_WAIT][rows[i]])
                    if src is None:
                        src = sent.get((sender, values[rows[i]]))
                    if src is not None:
                        sources.append(src)
                for src in sources:
                    vc = [x if x > y else y for x, y in zip(vc, src)]
                own = slot[c]
                if own >= 0:
                    if not sources:
                        vc = vc.copy()
                    vc[own] += 1
                clocks[c] = vc

                if code == _END:
                    if task in joined:
                        raise backward_edge_error(store, i, joined[task], "join")
                    succ = next_external.get(task)
                    if succ in begun:
                        raise backward_edge_error(
                            store, i, begun[succ], "external-input"
                        )
                    if succ is not None or task in joinable:
                        ended[task] = vc
                elif code in to_begin:
                    rule, values = to_begin[code]
                    target = symbols.value(values[rows[i]])
                    if target in begun:
                        raise backward_edge_error(store, i, begun[target], rule)
                    waiting.setdefault(target, []).append(vc)
                elif code in senders:
                    key = (code, senders[code][rows[i]])
                    earlier = sent.get(key)
                    if earlier is not None and code in (_NOTIFY, _REGISTER):
                        sent[key] = [x if x > y else y for x, y in zip(earlier, vc)]
                    else:
                        sent[key] = vc
                    if code == _NOTIFY and tickets[_NOTIFY][rows[i]] >= 0:
                        notified[tickets[_NOTIFY][rows[i]]] = vc
            if i in want:
                stamps[i] = (c, vc[slot[c]] - _SYNC[code], vc)
