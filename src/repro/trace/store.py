"""The columnar trace store — struct-of-arrays backing for :class:`Trace`.

The record-once / analyze-offline workflow makes the trace the largest
live object of every analysis run, and a Python list of per-operation
dataclass instances costs ~350 bytes per operation (56-byte object +
296-byte ``__dict__``) before counting payload references.  The
:class:`TraceStore` keeps the same information as parallel typed
columns instead:

* three global arrays — operation kind (1 byte), timestamp (8 bytes),
  and interned task id (4 bytes) — indexed by the global op index;
* one *bucket* per :class:`~repro.trace.operations.OpKind` holding the
  kind's payload fields as typed columns plus an ascending index array
  (which doubles as the ``by_kind`` index);
* side tables interning the rare, repetitive payloads: a string
  :class:`SymbolTable` (task ids, variable names, sites, methods, …)
  and an :class:`AddressTable` for pointer-slot tuples.

Operations are materialized back into their frozen dataclasses on
demand (``store.op(i)``), value-identical to what was appended, so the
object API of :class:`~repro.trace.trace.Trace` is preserved exactly;
hot paths (:mod:`repro.hb.builder`, :mod:`repro.detect.accesses`) read
the columns directly and skip materialization.

Column type tags:

``s``  interned string (4-byte symbol id)
``a``  interned address tuple (4-byte id into the address table)
``i``  plain int (8 bytes, signed)
``?``  optional int (8 bytes; ``None`` encoded as INT64_MIN)
``b``  bool (1 byte)
``e``  :class:`~repro.trace.operations.BranchKind` (1-byte member index)
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .operations import (
    Address,
    BranchKind,
    OpKind,
    Operation,
    _REGISTRY,
)

#: stable kind -> small-int code mapping (enum definition order)
KIND_LIST: Tuple[OpKind, ...] = tuple(OpKind)
KIND_CODES: Dict[OpKind, int] = {kind: i for i, kind in enumerate(KIND_LIST)}

_CLASS_LIST: Tuple[type, ...] = tuple(_REGISTRY[kind] for kind in KIND_LIST)

_CODE_OF_CLASS: Dict[type, int] = {cls: i for i, cls in enumerate(_CLASS_LIST)}

_BRANCH_KINDS: Tuple[BranchKind, ...] = tuple(BranchKind)
_BRANCH_INDEX: Dict[BranchKind, int] = {b: i for i, b in enumerate(_BRANCH_KINDS)}

#: ``None`` sentinel for optional-int columns (INT64_MIN; object ids are
#: small non-negative heap counters, so the value cannot collide)
_NONE = -(1 << 63)

# Column type tags (see module docstring).
STR, ADDR, INT, OPT_INT, BOOL, ENUM = "s", "a", "i", "?", "b", "e"

_ARRAY_TYPE = {STR: "i", ADDR: "i", INT: "q", OPT_INT: "q", BOOL: "B", ENUM: "B"}

#: payload schema per kind: (field name, column type) in dataclass
#: declaration order (after the shared ``task``/``time`` fields)
SCHEMAS: Dict[OpKind, Tuple[Tuple[str, str], ...]] = {
    OpKind.BEGIN: (),
    OpKind.END: (),
    OpKind.READ: (("var", STR), ("site", STR)),
    OpKind.WRITE: (("var", STR), ("site", STR)),
    OpKind.FORK: (("child", STR),),
    OpKind.JOIN: (("child", STR),),
    OpKind.WAIT: (("monitor", STR), ("ticket", INT)),
    OpKind.NOTIFY: (("monitor", STR), ("ticket", INT)),
    OpKind.SEND: (("event", STR), ("delay", INT), ("queue", STR)),
    OpKind.SEND_AT_FRONT: (("event", STR), ("queue", STR)),
    OpKind.REGISTER: (("listener", STR),),
    OpKind.PERFORM: (("listener", STR),),
    OpKind.PTR_READ: (
        ("address", ADDR),
        ("object_id", OPT_INT),
        ("method", STR),
        ("pc", INT),
    ),
    OpKind.PTR_WRITE: (
        ("address", ADDR),
        ("value", OPT_INT),
        ("container", OPT_INT),
        ("method", STR),
        ("pc", INT),
    ),
    OpKind.DEREF: (("object_id", OPT_INT), ("method", STR), ("pc", INT)),
    OpKind.BRANCH: (
        ("branch_kind", ENUM),
        ("pc", INT),
        ("target", INT),
        ("object_id", OPT_INT),
        ("method", STR),
    ),
    OpKind.ACQUIRE: (("lock", STR),),
    OpKind.RELEASE: (("lock", STR),),
    OpKind.METHOD_ENTER: (("method", STR), ("return_pc", INT)),
    OpKind.METHOD_EXIT: (
        ("method", STR),
        ("return_pc", INT),
        ("via_exception", BOOL),
    ),
    OpKind.IPC_CALL: (("txn", INT), ("service", STR), ("oneway", BOOL)),
    OpKind.IPC_HANDLE: (("txn", INT), ("service", STR)),
    OpKind.IPC_REPLY: (("txn", INT), ("service", STR)),
    OpKind.IPC_RETURN: (("txn", INT), ("service", STR)),
}

_SCHEMA_LIST: Tuple[Tuple[Tuple[str, str], ...], ...] = tuple(
    SCHEMAS[kind] for kind in KIND_LIST
)


def _check_schemas() -> None:
    """The schemas must track the dataclass vocabulary field-for-field."""
    for kind in KIND_LIST:
        declared = [
            f.name
            for f in dataclass_fields(_REGISTRY[kind])
            if f.name not in ("task", "time", "kind")
        ]
        schema = [name for name, _ in SCHEMAS[kind]]
        if declared != schema:
            raise RuntimeError(
                f"column schema for {kind} out of sync with "
                f"{_REGISTRY[kind].__name__}: {schema} != {declared}"
            )


_check_schemas()

#: per-kind payload (field name, dataclass default) pairs, schema order —
#: the keyword-arguments append path resolves omitted fields through this
_FIELD_SPECS: Tuple[Tuple[Tuple[str, Any], ...], ...] = tuple(
    tuple(
        (f.name, f.default)
        for f in dataclass_fields(_REGISTRY[kind])
        if f.name not in ("task", "time", "kind")
    )
    for kind in KIND_LIST
)


class SymbolTable:
    """Bidirectional string interner with dense integer ids."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []

    def intern(self, value: str) -> int:
        sid = self._ids.get(value)
        if sid is None:
            sid = len(self._values)
            self._ids[value] = sid
            self._values.append(value)
        return sid

    def id_of(self, value: str) -> Optional[int]:
        return self._ids.get(value)

    def value(self, sid: int) -> str:
        return self._values[sid]

    def __len__(self) -> int:
        return len(self._values)

    def memory_bytes(self) -> int:
        return (
            sys.getsizeof(self._ids)
            + sys.getsizeof(self._values)
            + sum(sys.getsizeof(v) for v in self._values)
        )


class AddressTable:
    """Interner for pointer-slot :data:`~repro.trace.operations.Address`
    tuples (``(scope, owner, field)``), dense integer ids."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[Address, int] = {}
        self._values: List[Address] = []

    def intern(self, value: Address) -> int:
        if not isinstance(value, tuple):
            value = tuple(value)  # type: ignore[assignment]
        aid = self._ids.get(value)
        if aid is None:
            aid = len(self._values)
            self._ids[value] = aid
            self._values.append(value)
        return aid

    def value(self, aid: int) -> Address:
        return self._values[aid]

    def __len__(self) -> int:
        return len(self._values)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._ids) + sys.getsizeof(self._values)
        for tup in self._values:
            total += sys.getsizeof(tup)
            total += sum(sys.getsizeof(c) for c in tup)
        return total


class _KindBucket:
    """Payload columns + ascending global-index array for one kind."""

    __slots__ = ("schema", "indices", "columns")

    def __init__(self, schema: Tuple[Tuple[str, str], ...]) -> None:
        self.schema = schema
        self.indices = array("i")
        self.columns: Tuple[array, ...] = tuple(
            array(_ARRAY_TYPE[typ]) for _, typ in schema
        )

    def __len__(self) -> int:
        return len(self.indices)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self.indices)
        for col in self.columns:
            total += sys.getsizeof(col)
        return total


class TraceStore:
    """Struct-of-arrays storage for a trace's operation list."""

    __slots__ = ("kinds", "times", "task_ids", "rows", "symbols", "addresses",
                 "_buckets", "_task_ops")

    def __init__(self) -> None:
        #: per-op kind code ('B'), timestamp ('q'), task symbol id ('i')
        self.kinds = array("B")
        self.times = array("q")
        self.task_ids = array("i")
        #: per-op row number inside its kind bucket ('i')
        self.rows = array("i")
        self.symbols = SymbolTable()
        self.addresses = AddressTable()
        self._buckets: List[Optional[_KindBucket]] = [None] * len(KIND_LIST)
        #: task symbol id -> ascending op indices (the ``ops_of`` index),
        #: in the order the tasks first appear
        self._task_ops: Dict[int, array] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    # -- append -----------------------------------------------------------

    def append(self, op: Operation) -> int:
        """Decompose ``op`` into the columns; returns its global index."""
        code = KIND_CODES[op.kind]
        values = [getattr(op, name) for name, _ in _SCHEMA_LIST[code]]
        return self.append_row(code, op.time, op.task, values)

    def append_fields(
        self, op_cls: type, task: str, time: int, fields: Dict[str, Any]
    ) -> int:
        """Append from an operation class plus keyword payload — the
        online tracer's path: no :class:`Operation` is ever built.
        Omitted fields resolve to the dataclass defaults."""
        code = _CODE_OF_CLASS[op_cls]
        get = fields.get
        values = [get(name, default) for name, default in _FIELD_SPECS[code]]
        if MISSING in values:
            missing = [
                name
                for (name, _d), v in zip(_FIELD_SPECS[code], values)
                if v is MISSING
            ]
            raise TypeError(
                f"{op_cls.__name__} record lacks required fields {missing}"
            )
        return self.append_row(code, time, task, values)

    def append_row(self, code: int, time: int, task: str, values: Sequence[Any]) -> int:
        """Append one pre-decomposed operation row (no
        :class:`Operation` instance is ever built).

        A value that does not fit its column raises, and the op columns
        and indices are left as they were: every op in the store still
        materializes.  Strings interned before the failing value stay
        in the side tables, unreferenced.
        """
        i = len(self.kinds)
        try:
            self.kinds.append(code)
            self.times.append(time)
            tid = self.symbols.intern(task)
            self.task_ids.append(tid)
            bucket = self._buckets[code]
            if bucket is None:
                bucket = self._buckets[code] = _KindBucket(_SCHEMA_LIST[code])
            self.rows.append(len(bucket.indices))
            bucket.indices.append(i)
            intern_sym = self.symbols.intern
            for (name, typ), col, value in zip(bucket.schema, bucket.columns, values):
                if typ == STR:
                    col.append(intern_sym(value))
                elif typ == INT:
                    col.append(value)
                elif typ == OPT_INT:
                    col.append(_NONE if value is None else value)
                elif typ == ADDR:
                    col.append(self.addresses.intern(value))
                elif typ == BOOL:
                    col.append(1 if value else 0)
                else:  # ENUM
                    col.append(_BRANCH_INDEX[value])
        except BaseException:
            self._truncate(i)
            raise
        ops = self._task_ops.get(tid)
        if ops is None:
            ops = self._task_ops[tid] = array("i")
        ops.append(i)
        return i

    def _truncate(self, n: int) -> None:
        """Cut the op columns and indices back to the first ``n`` ops
        (a failed append's partial row)."""
        for column in (self.kinds, self.times, self.task_ids, self.rows):
            del column[n:]
        for code, bucket in enumerate(self._buckets):
            if bucket is None:
                continue
            keep = bisect_left(bucket.indices, n)
            del bucket.indices[keep:]
            for col in bucket.columns:
                del col[keep:]
            if not keep:
                self._buckets[code] = None

    def adopt_batch(
        self,
        kinds: bytes,
        times: array,
        task_ids: array,
        bucket_columns: Dict[int, List[array]],
    ) -> None:
        """Bulk-append one decoded column batch (the path of every
        decoder and of :meth:`adopt_tail`).

        ``kinds`` holds local kind codes, ``times``/``task_ids`` are
        typed arrays of the same length, and ``bucket_columns`` maps a
        kind code to its payload columns (store typecodes, interned
        ids) covering exactly the batch's rows of that kind, in order.
        The caller guarantees that every id indexes this store's
        symbol/address tables (:func:`remap_batch` translates a
        batch's ids into them), so the columns are adopted wholesale
        and only the derived indices (``rows``, bucket index arrays,
        the per-task index) are computed here, in one scatter pass.
        """
        base = len(self.kinds)
        self.kinds.frombytes(kinds)
        self.times.extend(times)
        self.task_ids.extend(task_ids)
        buckets = self._buckets
        task_ops = self._task_ops
        rows_append = self.rows.append
        cursor: Dict[int, list] = {}
        i = base
        for code, tid in zip(kinds, task_ids):
            ent = cursor.get(code)
            if ent is None:
                bucket = buckets[code]
                if bucket is None:
                    bucket = buckets[code] = _KindBucket(_SCHEMA_LIST[code])
                ent = cursor[code] = [len(bucket.indices), bucket.indices.append]
            row = ent[0]
            ent[0] = row + 1
            rows_append(row)
            ent[1](i)
            ops = task_ops.get(tid)
            if ops is None:
                ops = task_ops[tid] = array("i")
            ops.append(i)
            i += 1
        for code, columns in bucket_columns.items():
            bucket = buckets[code]
            if bucket is None:
                bucket = buckets[code] = _KindBucket(_SCHEMA_LIST[code])
            for col, extra in zip(bucket.columns, columns):
                col.extend(extra)

    def adopt_tail(self, other: "TraceStore", start: int) -> None:
        """Append ops ``start..`` of ``other`` as column slices (the
        streaming service's epoch hand-off).

        The slices go through :meth:`adopt_batch`; their symbol and
        address ids are first re-interned into this store's own tables
        (:func:`remap_batch`), so the tables hold only the strings of
        the ops appended here.
        """
        kinds = other.kinds[start:]
        if not kinds:
            return
        bucket_columns: Dict[int, List[array]] = {}
        for code, bucket in enumerate(other._buckets):
            if bucket is None:
                continue
            first = bisect_left(bucket.indices, start)
            if first < len(bucket.indices):
                bucket_columns[code] = [col[first:] for col in bucket.columns]
        task_ids, bucket_columns = remap_batch(
            other.task_ids[start:],
            bucket_columns,
            self,
            ([-1] * len(other.symbols), other.symbols.value),
            ([-1] * len(other.addresses), other.addresses.value),
        )
        self.adopt_batch(kinds.tobytes(), other.times[start:], task_ids, bucket_columns)

    # -- materialization --------------------------------------------------

    def op(self, i: int) -> Operation:
        """Materialize operation ``i`` as its frozen dataclass,
        value-identical to what was appended."""
        code = self.kinds[i]
        bucket = self._buckets[code]
        row = self.rows[i]
        args: List[Any] = [self.symbols.value(self.task_ids[i]), self.times[i]]
        if bucket is not None and bucket.schema:
            sym_value = self.symbols.value
            for (name, typ), col in zip(bucket.schema, bucket.columns):
                raw = col[row]
                if typ == STR:
                    args.append(sym_value(raw))
                elif typ == INT:
                    args.append(raw)
                elif typ == OPT_INT:
                    args.append(None if raw == _NONE else raw)
                elif typ == ADDR:
                    args.append(self.addresses.value(raw))
                elif typ == BOOL:
                    args.append(bool(raw))
                else:  # ENUM
                    args.append(_BRANCH_KINDS[raw])
        return _CLASS_LIST[code](*args)

    def kind_of(self, i: int) -> OpKind:
        return KIND_LIST[self.kinds[i]]

    def task_of(self, i: int) -> str:
        return self.symbols.value(self.task_ids[i])

    def time_of(self, i: int) -> int:
        return self.times[i]

    def column(self, kind: OpKind, field: str) -> Tuple[array, array]:
        """(bucket index array, raw column array) for one kind's field.

        Raw symbol/address ids are returned as stored; callers decode
        through :attr:`symbols` / :attr:`addresses`.  Empty arrays when
        the kind never occurred.
        """
        bucket = self._buckets[KIND_CODES[kind]]
        if bucket is None:
            return array("i"), array("i")
        for (name, _typ), col in zip(bucket.schema, bucket.columns):
            if name == field:
                return bucket.indices, col
        raise KeyError(f"{kind} has no column {field!r}")

    def field_of(self, i: int, field: str, default: Any = None) -> Any:
        """Decoded payload field ``field`` of op ``i``, or ``default``
        when op ``i``'s kind has no such field — one-off column access
        without materializing the operation."""
        code = self.kinds[i]
        bucket = self._buckets[code]
        if bucket is None:
            return default
        for (name, typ), col in zip(bucket.schema, bucket.columns):
            if name != field:
                continue
            raw = col[self.rows[i]]
            if typ == STR:
                return self.symbols.value(raw)
            if typ == OPT_INT:
                return None if raw == _NONE else raw
            if typ == ADDR:
                return self.addresses.value(raw)
            if typ == BOOL:
                return bool(raw)
            if typ == ENUM:
                return _BRANCH_KINDS[raw]
            return raw
        return default

    # -- index views ------------------------------------------------------

    def ops_of(self, task: str) -> List[int]:
        """Ascending indices of ``task``'s operations — O(1) lookup."""
        tid = self.symbols.id_of(task)
        if tid is None:
            return []
        ops = self._task_ops.get(tid)
        return list(ops) if ops is not None else []

    def by_kind(self, kind: OpKind) -> List[int]:
        """Ascending indices of one kind's operations — O(1) lookup."""
        bucket = self._buckets[KIND_CODES[kind]]
        return list(bucket.indices) if bucket is not None else []

    def indices_of(
        self, *kinds: OpKind, start: int = 0, stop: Optional[int] = None
    ) -> List[int]:
        """Ascending merged indices of several kinds' operations, those
        from ``start`` to ``stop - 1`` (default: all), read off the
        per-kind index arrays: no other op is visited."""
        if stop is None:
            stop = len(self.kinds)
        found: List[int] = []
        for kind in kinds:
            bucket = self._buckets[KIND_CODES[kind]]
            if bucket is not None:
                indices = bucket.indices
                found += indices[bisect_left(indices, start):bisect_left(indices, stop)]
        found.sort()
        return found

    def task_last_ops(self, stop: int) -> Iterator[Tuple[int, int]]:
        """``(task symbol id, its last op before stop)`` for every task
        with an op before ``stop``, in the order the tasks first
        appear, read off the per-task index."""
        for tid, ops in self._task_ops.items():
            last = ops[-1]
            if last >= stop:
                if ops[0] >= stop:
                    continue
                last = ops[bisect_left(ops, stop) - 1]
            yield tid, last

    def iter_meta(self) -> Iterator[Tuple[int, OpKind, str, int]]:
        """Yield ``(index, kind, task, time)`` without materializing
        payloads (the validator's fast path)."""
        sym_value = self.symbols.value
        kind_list = KIND_LIST
        for i, (code, tid, time) in enumerate(
            zip(self.kinds, self.task_ids, self.times)
        ):
            yield i, kind_list[code], sym_value(tid), time

    def rows_encoded(self) -> Iterator[Tuple[int, int, str, List[Any]]]:
        """Yield ``(kind code, time, task, payload values)`` per op in
        trace order — the serializer's path around materialization."""
        sym_value = self.symbols.value
        addr_value = self.addresses.value
        buckets = self._buckets
        for i, (code, tid, time, row) in enumerate(
            zip(self.kinds, self.task_ids, self.times, self.rows)
        ):
            bucket = buckets[code]
            values: List[Any] = []
            if bucket is not None and bucket.schema:
                for (_name, typ), col in zip(bucket.schema, bucket.columns):
                    raw = col[row]
                    if typ == STR:
                        values.append(sym_value(raw))
                    elif typ == INT:
                        values.append(raw)
                    elif typ == OPT_INT:
                        values.append(None if raw == _NONE else raw)
                    elif typ == ADDR:
                        values.append(addr_value(raw))
                    elif typ == BOOL:
                        values.append(bool(raw))
                    else:  # ENUM
                        values.append(_BRANCH_KINDS[raw])
            yield code, time, sym_value(tid), values

    # -- accounting -------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes held by the columns and side tables (interned strings
        and address tuples included)."""
        total = (
            sys.getsizeof(self.kinds)
            + sys.getsizeof(self.times)
            + sys.getsizeof(self.task_ids)
            + sys.getsizeof(self.rows)
            + self.symbols.memory_bytes()
            + self.addresses.memory_bytes()
        )
        for bucket in self._buckets:
            if bucket is not None:
                total += bucket.memory_bytes()
        total += sys.getsizeof(self._task_ops)
        for ops in self._task_ops.values():
            total += sys.getsizeof(ops)
        return total


def remap_batch(
    task_ids: array,
    bucket_columns: Dict[int, List[array]],
    store: TraceStore,
    symbols: Tuple[List[int], Callable[[int], str]],
    addresses: Tuple[List[int], Callable[[int], Address]],
) -> Tuple[array, Dict[int, List[array]]]:
    """One column batch's symbol and address ids as ids of ``store``'s
    tables, ready for :meth:`TraceStore.adopt_batch`.

    ``symbols`` and ``addresses`` are each ``(store_ids, value_of)``:
    ``store_ids[i]`` is source id ``i``'s id in the store's table, -1
    while unmapped, and ``value_of(i)`` is its value.  The batch's
    unmapped ids are interned in ascending source-id order across all
    of its id columns at once, so a source table in first-use order
    gives a store table in first-use order.  ``store_ids`` is updated
    in place for later batches.  Returns the translated
    ``(task_ids, bucket_columns)``.
    """
    sym_columns = [task_ids]
    addr_columns = []
    for code, columns in bucket_columns.items():
        for (_name, typ), column in zip(_SCHEMA_LIST[code], columns):
            if typ == STR:
                sym_columns.append(column)
            elif typ == ADDR:
                addr_columns.append(column)
    for columns, (store_ids, value_of), table in (
        (sym_columns, symbols, store.symbols),
        (addr_columns, addresses, store.addresses),
    ):
        used = set()
        for column in columns:
            used.update(column)
        intern = table.intern
        for raw in sorted(raw for raw in used if store_ids[raw] < 0):
            store_ids[raw] = intern(value_of(raw))
    sym_id, addr_id = symbols[0].__getitem__, addresses[0].__getitem__
    translated: Dict[int, List[array]] = {}
    for code, columns in bucket_columns.items():
        out = translated[code] = []
        for (_name, typ), column in zip(_SCHEMA_LIST[code], columns):
            if typ == STR:
                column = array("i", map(sym_id, column))
            elif typ == ADDR:
                column = array("i", map(addr_id, column))
            out.append(column)
    return array("i", map(sym_id, task_ids)), translated


@dataclass(frozen=True)
class DecodeStats:
    """Per-format decode counters of one load, surfaced by
    ``python -m repro stats`` next to the size profile.

    The text formats (v1/v2) count lines as frames and every op as
    decoded from text: v1 appends op by op, v2 checks each line and
    lands each feed's ops as one column batch.  The binary v3 format
    counts real frames and batches, and every v3 op as adopted
    wholesale by column ``frombytes``.
    """

    #: trace format version the stream declared
    version: int
    #: frames read (v3) or lines consumed (v1/v2)
    frames: int = 0
    #: logical records decoded (ops + interning defs + task infos)
    records: int = 0
    #: v3 op batches decoded
    batches: int = 0
    #: ops loaded by one-shot column adoption (v3, ``array.frombytes``)
    ops_adopted: int = 0
    #: ops decoded from text (v1/v2)
    ops_decoded: int = 0
    #: v3 columns adopted without row-by-row decode
    columns_adopted: int = 0
    #: stream bytes consumed by the decode
    bytes_read: int = 0

    def format(self) -> str:
        lines = [
            f"decode [v{self.version}]: {self.frames} frames, "
            f"{self.records} records, {self.batches} batches",
            f"  ops adopted {self.ops_adopted} "
            f"(columns {self.columns_adopted}), "
            f"row-decoded {self.ops_decoded}",
            f"  bytes read {self.bytes_read}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceProfile:
    """Size report of one trace's in-memory representation, surfaced by
    ``python -m repro stats`` and the trace-store benchmarks."""

    ops: int
    tasks: int
    #: interned strings
    symbols: int
    #: interned address tuples
    addresses: int
    #: bytes held in memory by the operation storage
    memory_bytes: int
    #: serialized size of the file the trace came from / went to, if known
    disk_bytes: Optional[int] = None
    #: counters of the decode that produced the trace, if it was loaded
    decode: Optional[DecodeStats] = None

    @property
    def bytes_per_op(self) -> float:
        return self.memory_bytes / max(self.ops, 1)

    def format(self) -> str:
        lines = [
            f"trace store: {self.ops} ops, "
            f"{self.tasks} tasks, {self.symbols} interned symbols, "
            f"{self.addresses} interned addresses",
            f"memory: {self.memory_bytes} bytes "
            f"({self.bytes_per_op:.1f} bytes/op)",
        ]
        if self.disk_bytes is not None:
            lines.append(f"on disk: {self.disk_bytes} bytes")
        if self.decode is not None:
            lines.append(self.decode.format())
        return "\n".join(lines)


def trace_profile(trace, disk_bytes: Optional[int] = None) -> TraceProfile:
    """Measure a trace's in-memory operation storage: exact column +
    side-table bytes."""
    store = trace.store
    return TraceProfile(
        ops=len(store),
        tasks=len(trace.tasks),
        symbols=len(store.symbols),
        addresses=len(store.addresses),
        memory_bytes=store.memory_bytes(),
        disk_bytes=disk_bytes,
        decode=trace.decode_stats,
    )
