"""The trace container: an ordered operation list plus a task table.

A :class:`Trace` is the interchange format between the online tracer
(:mod:`repro.runtime.tracer`) and the offline analysis
(:mod:`repro.hb`, :mod:`repro.detect`).  It records

* the global, totally ordered list of :class:`~repro.trace.operations.Operation`
  records observed during an execution, and
* a table of :class:`TaskInfo` entries describing every task (thread or
  event) that appears in the trace — which process it belongs to, which
  looper/queue an event ran on, and whether it was generated by the
  external world (the external-input rule of Section 3.3 applies only
  to those).

The operations live in a :class:`~repro.trace.store.TraceStore`
(struct-of-arrays; see ``docs/trace.md``): ``trace.ops`` is a sequence
*view* that materializes the frozen dataclasses on demand, while
``trace.store`` exposes the raw columns to the analysis hot paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .operations import OpKind, Operation
from .store import TraceProfile, TraceStore, trace_profile


class TaskKind(enum.Enum):
    """A task is a regular thread, a looper thread, or an event."""

    THREAD = "thread"
    LOOPER = "looper"
    EVENT = "event"


@dataclass
class TaskInfo:
    """Static metadata about one task appearing in a trace.

    Attributes:
        task: the task id (unique within the trace).
        task_kind: thread, looper thread, or event.
        process: id of the process the task belongs to.
        looper: for events, the looper thread that processed the event.
        queue: for events, the event queue the event was enqueued to.
        external: ``True`` if the task is an event generated by an
            entity external to the application (sensor input, user
            touch, network); the external-input rule chains these.
        external_seq: global generation order among external events.
        label: human-readable description (e.g. handler name).
    """

    task: str
    task_kind: TaskKind
    process: str = ""
    looper: Optional[str] = None
    queue: Optional[str] = None
    external: bool = False
    external_seq: int = -1
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "task_kind": self.task_kind.value,
            "process": self.process,
            "looper": self.looper,
            "queue": self.queue,
            "external": self.external,
            "external_seq": self.external_seq,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskInfo":
        data = dict(data)
        data["task_kind"] = TaskKind(data["task_kind"])
        return cls(**data)


class TraceError(Exception):
    """Raised for malformed traces (validation failures)."""


class TraceFormatError(TraceError):
    """A malformed, corrupted, or truncated trace stream.

    ``line`` is the 1-based line number of the offending record, or
    ``None`` when the damage is not attributable to a single line
    (a header/stream count mismatch noticed at EOF, a compressed
    stream that ended mid-member, or any damage in the binary v3
    format, whose errors name byte offsets in the message instead).
    """

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class StreamDamageError(TraceFormatError):
    """The bytes beneath the records are damaged: a compressed member
    cut short or corrupt, or text that is not UTF-8.

    The chunk reader (:func:`repro.trace.reader.tail_chunks`) raises it
    after the pieces before the damage; a consumer that salvages hands
    it to :meth:`~repro.trace.serialization.AnyTraceDecoder.mark_damaged`.
    """

    def __init__(self, cause: object):
        super().__init__(f"damaged trace stream: {cause}")


class OpsView(Sequence):
    """Read-only sequence view over a store's operations.

    Materializes frozen :class:`~repro.trace.operations.Operation`
    instances on demand, so ``trace.ops`` keeps list semantics
    (indexing, slicing, iteration, equality) over the columnar store.
    """

    __slots__ = ("_store",)

    def __init__(self, store: TraceStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Operation, List[Operation]]:
        store = self._store
        if isinstance(index, slice):
            return [store.op(i) for i in range(*index.indices(len(store)))]
        n = len(store)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace operation index out of range")
        return store.op(index)

    def __iter__(self) -> Iterator[Operation]:
        store = self._store
        op = store.op
        for i in range(len(store)):
            yield op(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpsView):
            if other._store is self._store:
                return True
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"<OpsView of {len(self)} operations>"


class Trace:
    """An execution trace: operations in observation order + task table,
    the operations held in a :class:`~repro.trace.store.TraceStore`."""

    def __init__(
        self,
        ops: Optional[Iterable[Operation]] = None,
        tasks: Optional[Dict[str, TaskInfo]] = None,
    ) -> None:
        self.tasks: Dict[str, TaskInfo] = dict(tasks) if tasks else {}
        #: counters of the decode that produced this trace (set by the
        #: load entry points; None for traces built in-process)
        self.decode_stats = None
        self._store = TraceStore()
        self._ops_view = OpsView(self._store)
        if ops:
            self.extend(ops)

    # -- storage -------------------------------------------------------

    @property
    def store(self) -> TraceStore:
        """The columnar operation store."""
        return self._store

    @property
    def ops(self) -> Sequence[Operation]:
        """The operations, in observation order: an :class:`OpsView`
        materializing them from the store on demand."""
        return self._ops_view

    def profile(self, disk_bytes: Optional[int] = None) -> TraceProfile:
        """Size report of the operation storage (see
        :func:`repro.trace.store.trace_profile`)."""
        return trace_profile(self, disk_bytes=disk_bytes)

    # -- construction --------------------------------------------------

    def append(self, op: Operation) -> int:
        """Append an operation; returns its global index."""
        return self._store.append(op)

    def append_fields(self, op_cls: type, task: str, time: int, **fields: Any) -> int:
        """Append from an operation class plus keyword payload.

        The online tracer's fast path: the values go straight into the
        typed columns and no :class:`Operation` instance is ever built.
        """
        return self._store.append_fields(op_cls, task, time, fields)

    def add_task(self, info: TaskInfo) -> None:
        if info.task in self.tasks:
            raise TraceError(f"duplicate task id {info.task!r}")
        self.tasks[info.task] = info

    def extend(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.append(op)

    # -- sequence protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> Operation:
        return self.ops[index]

    # -- payload-free per-op accessors ---------------------------------

    def kind_of(self, i: int) -> OpKind:
        """Op ``i``'s kind without materializing it."""
        return self._store.kind_of(i)

    def task_of(self, i: int) -> str:
        """Op ``i``'s task without materializing it."""
        return self._store.task_of(i)

    def time_of(self, i: int) -> int:
        """Op ``i``'s timestamp without materializing it."""
        return self._store.time_of(i)

    def __repr__(self) -> str:
        return f"Trace({len(self)} ops, {len(self.tasks)} tasks)"

    # -- convenience views ---------------------------------------------

    def ops_of(self, task: str) -> List[int]:
        """Indices of all operations executed by ``task``, in order (a
        cached index lookup)."""
        return self._store.ops_of(task)

    def by_kind(self, kind: OpKind) -> List[int]:
        """Indices of all operations of the given kind, in order (a
        cached index lookup)."""
        return self._store.by_kind(kind)

    def events(self) -> List[str]:
        """Ids of all event tasks, in task-table insertion order."""
        return [
            t for t, info in self.tasks.items() if info.task_kind is TaskKind.EVENT
        ]

    def external_events(self) -> List[str]:
        """Ids of external events sorted by generation order."""
        ext = [
            info
            for info in self.tasks.values()
            if info.task_kind is TaskKind.EVENT and info.external
        ]
        ext.sort(key=lambda info: info.external_seq)
        return [info.task for info in ext]

    def info(self, task: str) -> TaskInfo:
        try:
            return self.tasks[task]
        except KeyError:
            raise TraceError(f"unknown task {task!r}") from None

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check well-formedness; raises :class:`TraceError` on failure.

        Enforced invariants:

        * every operation's task appears in the task table;
        * each task has at most one ``begin`` and one ``end``, the
          ``begin`` precedes all of the task's other operations and the
          ``end`` follows them;
        * events executed on a looper thread do not overlap each other
          (the atomicity guarantee of Section 2.1);
        * timestamps are non-decreasing;
        * external events carry pairwise-distinct ``external_seq``
          values — a duplicate would make the external-input rule's
          chain order ambiguous.
        """
        def first_op(task: str) -> str:
            # Name the colliding event's first operation (index + kind)
            # so the offending trace position is findable directly from
            # the message, not just the task name.
            ops = self.ops_of(task)
            if not ops:
                return "no operations"
            return f"first op #{ops[0]} ({self[ops[0]].kind.value})"

        seen_seq: Dict[int, str] = {}
        for info in self.tasks.values():
            if info.task_kind is TaskKind.EVENT and info.external:
                other = seen_seq.get(info.external_seq)
                if other is not None:
                    raise TraceError(
                        f"external events {other!r} ({first_op(other)}) and "
                        f"{info.task!r} ({first_op(info.task)}) share "
                        f"external_seq {info.external_seq}; the external-"
                        "input chain order is ambiguous"
                    )
                seen_seq[info.external_seq] = info.task
        seen_begin: Dict[str, int] = {}
        seen_end: Dict[str, int] = {}
        last_time = 0
        # Track which event is currently open per looper for atomicity.
        open_event: Dict[str, str] = {}
        tasks = self.tasks
        for i, kind, task, time in self._store.iter_meta():
            if task not in tasks:
                raise TraceError(f"op #{i} references unknown task {task!r}")
            if time < last_time:
                raise TraceError(
                    f"op #{i} time {time} precedes previous time {last_time}"
                )
            last_time = time
            info = tasks[task]
            if kind is OpKind.BEGIN:
                if task in seen_begin:
                    raise TraceError(f"task {task!r} begins twice")
                seen_begin[task] = i
                if info.task_kind is TaskKind.EVENT and info.looper:
                    current = open_event.get(info.looper)
                    if current is not None:
                        raise TraceError(
                            f"event {task!r} begins on looper "
                            f"{info.looper!r} while {current!r} is still open"
                        )
                    open_event[info.looper] = task
            elif kind is OpKind.END:
                if task not in seen_begin:
                    raise TraceError(f"task {task!r} ends before beginning")
                if task in seen_end:
                    raise TraceError(f"task {task!r} ends twice")
                seen_end[task] = i
                if info.task_kind is TaskKind.EVENT and info.looper:
                    if open_event.get(info.looper) != task:
                        raise TraceError(
                            f"event {task!r} ends but is not the open "
                            f"event of looper {info.looper!r}"
                        )
                    del open_event[info.looper]
            else:
                if task not in seen_begin:
                    raise TraceError(
                        f"op #{i} ({kind.value}) of task {task!r} "
                        "precedes its begin"
                    )
                if task in seen_end:
                    raise TraceError(
                        f"op #{i} ({kind.value}) of task {task!r} "
                        "follows its end"
                    )
