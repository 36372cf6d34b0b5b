"""Reconstruction of high-level accesses from low-level trace records.

The instrumented interpreter logs pointer reads, pointer writes,
dereferences, and guarded branches (Section 5.3).  The offline analyzer
recovers from these:

* **uses** — a pointer read whose value is later dereferenced.  A
  dereference record is matched with its *nearest previous* pointer
  read in the same task that yielded the same object id (the paper's
  heuristic; it is neither sound nor complete, which is the source of
  Type III false positives).
* **frees** — pointer writes of null; **allocations** — pointer writes
  of a reference.
* **guards** — branch records, matched to the pointer they test with
  the same nearest-previous-read heuristic.
* **locksets** — the set of locks held at each operation, reconstructed
  per task from acquire/release records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..trace import (
    Acquire,
    Address,
    Branch,
    Deref,
    OpKind,
    PtrRead,
    PtrWrite,
    Release,
    Trace,
)
from ..trace.store import KIND_LIST


@dataclass
class Use:
    """A pointer read later dereferenced (Section 4.1)."""

    read_index: int
    address: Address
    object_id: Optional[int]
    method: str
    read_pc: int
    task: str
    #: indices of the dereference records matched to this read
    deref_indices: List[int] = field(default_factory=list)

    @property
    def site(self) -> Tuple[str, int]:
        """Static location of the use (method, pc of the pointer read)."""
        return (self.method, self.read_pc)


@dataclass
class PointerWrite:
    """A free (null write) or allocation (reference write)."""

    index: int
    address: Address
    value: Optional[int]
    method: str
    pc: int
    task: str

    @property
    def is_free(self) -> bool:
        return self.value is None

    @property
    def site(self) -> Tuple[str, int]:
        return (self.method, self.pc)


@dataclass
class Guard:
    """A logged branch certifying a pointer non-null, matched to the
    pointer read it tests."""

    index: int
    address: Optional[Address]
    method: str
    pc: int
    target: int
    task: str


@dataclass
class AccessIndex:
    """All recovered accesses of a trace, grouped for the detectors."""

    trace: Trace
    uses: List[Use] = field(default_factory=list)
    frees: List[PointerWrite] = field(default_factory=list)
    allocs: List[PointerWrite] = field(default_factory=list)
    guards: List[Guard] = field(default_factory=list)
    #: op index -> frozenset of held lock names
    locksets: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    # lazy per-address groupings (built on first access, after the
    # extraction pass has fully populated the lists above)
    _uses_by_address: Optional[Dict[Address, List[Use]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _frees_by_address: Optional[Dict[Address, List[PointerWrite]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def uses_by_address(self) -> Dict[Address, List[Use]]:
        """Uses grouped per address, in trace order (cached).

        Keys appear in the order their first use appears in ``uses``.
        Callers must treat the mapping and its lists as read-only.
        """
        if self._uses_by_address is None:
            grouped: Dict[Address, List[Use]] = {}
            for use in self.uses:
                grouped.setdefault(use.address, []).append(use)
            self._uses_by_address = grouped
        return self._uses_by_address

    def frees_by_address(self) -> Dict[Address, List[PointerWrite]]:
        """Frees grouped per address, in trace order (cached)."""
        if self._frees_by_address is None:
            grouped: Dict[Address, List[PointerWrite]] = {}
            for free in self.frees:
                grouped.setdefault(free.address, []).append(free)
            self._frees_by_address = grouped
        return self._frees_by_address

    def uses_of(self, address: Address) -> List[Use]:
        return list(self.uses_by_address().get(address, ()))

    def frees_of(self, address: Address) -> List[PointerWrite]:
        return list(self.frees_by_address().get(address, ()))

    def lockset(self, op_index: int) -> FrozenSet[str]:
        return self.locksets.get(op_index, frozenset())


#: how far back (in same-task pointer reads) the deref matcher looks
MATCH_WINDOW = 64


#: the only operation kinds the extraction pass reads — every other
#: kind is skipped without materialization
_EXTRACT_KINDS = (
    OpKind.ACQUIRE,
    OpKind.RELEASE,
    OpKind.READ,
    OpKind.WRITE,
    OpKind.PTR_READ,
    OpKind.PTR_WRITE,
    OpKind.DEREF,
    OpKind.BRANCH,
)


_EXTRACT_KIND_SET = frozenset(_EXTRACT_KINDS)


class AccessExtractor:
    """Incremental access recovery: the extraction pass as an object.

    Holds the rolling per-task matcher state (read windows, held
    locks, uses already created per read) so ops can be fed one at a
    time as they arrive — the streaming service's driver.
    :func:`extract_accesses` is the one-shot batch wrapper over the
    same code, so both modes recover byte-identical access sets.

    :meth:`feed` accepts ops of any kind and skips the ones the pass
    does not read.  :meth:`index` snapshots an :class:`AccessIndex`
    over the *live* lists; each call returns a fresh instance so the
    lazy per-address groupings are rebuilt rather than served stale.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.uses: List[Use] = []
        self.frees: List[PointerWrite] = []
        self.allocs: List[PointerWrite] = []
        self.guards: List[Guard] = []
        self.locksets: Dict[int, FrozenSet[str]] = {}
        self._read_history: Dict[str, List[PtrRead]] = {}
        self._read_op_index: Dict[str, List[int]] = {}
        self._use_by_read: Dict[int, Use] = {}
        self._held: Dict[str, set] = {}

    def feed(self, i: int, op=None) -> None:
        """Process op ``i``; non-access kinds are no-ops.

        The kind is read from the store's int column, so skipped and
        high-level read/write ops are never materialized; pass ``op``
        when it is already at hand.
        """
        store = self.trace.store
        kind = KIND_LIST[store.kinds[i]] if op is None else op.kind
        if kind not in _EXTRACT_KIND_SET:
            return
        if kind is OpKind.READ or kind is OpKind.WRITE:
            # High-level reads/writes only need their lockset snapshot.
            task = op.task if op is not None else store.task_of(i)
            current_locks = self._held.get(task)
            if current_locks:
                self.locksets[i] = frozenset(current_locks)
            return
        if op is None:
            op = store.op(i)
        self._step(i, op, op.task)

    def _step(self, i: int, op, task: str) -> None:
        if isinstance(op, Acquire):
            self._held.setdefault(task, set()).add(op.lock)
        elif isinstance(op, Release):
            self._held.setdefault(task, set()).discard(op.lock)
        current_locks = self._held.get(task)
        if current_locks:
            self.locksets[i] = frozenset(current_locks)

        if isinstance(op, PtrRead):
            history = self._read_history.setdefault(task, [])
            history.append(op)
            self._read_op_index.setdefault(task, []).append(i)
            if len(history) > MATCH_WINDOW:
                history.pop(0)
                self._read_op_index[task].pop(0)
        elif isinstance(op, PtrWrite):
            record = PointerWrite(
                index=i,
                address=op.address,
                value=op.value,
                method=op.method,
                pc=op.pc,
                task=task,
            )
            if record.is_free:
                self.frees.append(record)
            else:
                self.allocs.append(record)
        elif isinstance(op, Deref):
            matched = _match_nearest_read(
                self._read_history.get(task, ()),
                self._read_op_index.get(task, ()),
                op.object_id,
            )
            if matched is None:
                return
            read_op, read_idx = matched
            use = self._use_by_read.get(read_idx)
            if use is None:
                use = Use(
                    read_index=read_idx,
                    address=read_op.address,
                    object_id=read_op.object_id,
                    method=read_op.method,
                    read_pc=read_op.pc,
                    task=task,
                )
                self._use_by_read[read_idx] = use
                self.uses.append(use)
            use.deref_indices.append(i)
        elif isinstance(op, Branch):
            matched = _match_nearest_read(
                self._read_history.get(task, ()),
                self._read_op_index.get(task, ()),
                op.object_id,
            )
            self.guards.append(
                Guard(
                    index=i,
                    address=matched[0].address if matched else None,
                    method=op.method,
                    pc=op.pc,
                    target=op.target,
                    task=task,
                )
            )

    def index(self) -> AccessIndex:
        """An :class:`AccessIndex` over the accesses recovered so far.

        The lists are shared by reference with the extractor (they keep
        growing as more ops are fed); the per-address groupings are
        lazy on the returned instance, so take a fresh snapshot after
        feeding rather than reusing an old one.
        """
        return AccessIndex(
            trace=self.trace,
            uses=self.uses,
            frees=self.frees,
            allocs=self.allocs,
            guards=self.guards,
            locksets=self.locksets,
        )


def extract_accesses(trace: Trace) -> AccessIndex:
    """Recover uses, frees, allocations, guards, and locksets.

    Only the kinds carrying access facts are materialized (merged
    per-kind index walk); lockset snapshots are recorded at access and
    lock operations — the only indices the detectors query.
    """
    extractor = AccessExtractor(trace)
    for i in trace.store.indices_of(*_EXTRACT_KINDS):
        extractor.feed(i)
    return extractor.index()


def _match_nearest_read(history, indices, object_id):
    """The nearest previous pointer read yielding ``object_id``."""
    if object_id is None:
        return None
    for read_op, read_idx in zip(reversed(history), reversed(indices)):
        if read_op.object_id == object_id:
            return read_op, read_idx
    return None
