"""Trace format v3: length-prefixed binary frames + columnar segments.

The text formats pay full JSON parsing for every record on every scan.
v3 keeps the same logical model as v2 — a negotiated header, incremental
symbol/address interning, positional payloads laid out by the kind
schemas (:data:`repro.trace.store.SCHEMAS`) — but stores it as binary
*frames*, and stores the operations themselves as *columnar batches*
whose per-column blocks are contiguous on disk, so a reader reloads
:class:`~repro.trace.store.TraceStore` columns with ``array.frombytes``
in one shot per column per batch instead of decoding records one by
one.

Wire layout
-----------

::

    MAGIC (12 bytes)  "\\x93CAFA-T3\\r\\n\\x1a\\x00"
    frame*            tag:u8  length:uvarint  payload[length]
    trailer (16B)     footer_offset:u64le  "CAFA3FT\\n"

Frame tags: 1 header (JSON), 5 op batch, 6 footer (JSON), 7 table
(JSON).  ``uvarint`` is LEB128 (7 data bits per byte, high bit =
continuation).  The first payload byte of the file is ``0x93`` — never
a printable character, so readers sniff text vs binary from one byte.

A table frame holds, as one JSON object, the symbols and addresses
defined since the previous table frame (``"symbols"``, a list of
strings, and ``"addresses"``, a list of 3-lists; each defines the next
ids in order) and the task records written since then (``"tasks"``,
one list per :class:`~repro.trace.trace.TaskInfo` field, rows in
order); a section with nothing new is left out.  The writer emits one
before each batch that brings something new, one at ``finish``, and
one whenever :data:`TABLE_TASK_ROWS` task records are pending.  Task
records carry their own strings: a symbol is defined only for the ops'
use, so a reader's symbol ids stay the store's.  Files written before
table frames define each record in its own frame: 2 task (JSON), 3
symbol (raw UTF-8), 4 address (JSON list); the reader still takes them.

A batch payload is a mini segment: op count, a section directory
(``key:uvarint enc:u8 count:uvarint bytes:uvarint`` per section), then
the sections' data blocks back to back.  Section keys 0/1/2 are the
global kind/time/task-id columns; key ``16 + kind_code*16 + field_index``
is one payload column of one kind.  Rows of a kind appear in trace
order, so the global index/bucket-row structures are *derived* on load
and never stored.  Integer columns use adaptive-width little-endian raw
encodings (``enc`` 0-7 = u8/u16/u32/u64/i8/i16/i32/i64, the narrowest
that fits the batch), except optional-int columns, which are always
i64 so the ``None`` sentinel passes through verbatim.

The header is the v2 header plus a ``branch_kinds`` vocabulary (the
enum column's wire values are indices into it), and version negotiation
works exactly as in v2: positions in the header tables define the wire
codes, a reader remaps them to its own vocabulary or fails loudly.
The footer records the frame offsets of every batch and table frame,
and the trailer points back at the footer, so a byte cut *anywhere* is
detectable: strict loads require the footer+trailer and the header
count checks, salvage loads analyze the longest valid frame prefix.

This module writes v3 (:class:`TraceWriterV3`) and parses its frames
(:class:`_FrameParser`); reading goes through
:class:`~repro.trace.serialization.AnyTraceDecoder`, which owns the
header negotiation, the symbol and address tables, the task records
and the store that every parsed batch lands in.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import IO, Any, Dict, List, Optional, Tuple

from .operations import BranchKind
from .store import (
    ADDR,
    BOOL,
    ENUM,
    KIND_LIST,
    OPT_INT,
    STR,
    _ARRAY_TYPE,
    _BRANCH_INDEX,
    _BRANCH_KINDS,
    _NONE,
    _SCHEMA_LIST,
)
from .trace import TASK_FIELDS, TaskInfo, TaskKind, TraceError, TraceFormatError

#: first bytes of every v3 file; byte 0 (0x93) is invalid UTF-8 *and*
#: invalid JSON, so text-format readers reject v3 input immediately and
#: the sniffing decoder needs exactly one byte
MAGIC_V3 = b"\x93CAFA-T3\r\n\x1a\x00"
#: end of every complete v3 file: u64le footer offset + this marker
TRAILER_MAGIC = b"CAFA3FT\n"
TRAILER_LEN = 8 + len(TRAILER_MAGIC)

# Frame tags.  Tags 2-4 define one record each; only files written
# before table frames hold them.
TAG_HEADER = 1
TAG_TASK = 2
TAG_SYM = 3
TAG_ADDR = 4
TAG_BATCH = 5
TAG_FOOTER = 6
TAG_TABLE = 7

# Global section keys inside a batch; payload columns use
# _column_key(kind_code, field_index).
SEC_KINDS = 0
SEC_TIMES = 1
SEC_TASK_IDS = 2
_SEC_COLUMN_BASE = 16
_SEC_COLUMN_STRIDE = 16

#: ops buffered per batch by the streaming writer — small enough for
#: constant transient memory, large enough that per-batch overhead
#: (directory + adoption scatter) amortizes away
DEFAULT_BATCH_OPS = 4096

#: task records a table frame holds at most: the writer flushes its
#: pending records at this count, so it holds few at a time even when
#: every task is written before the first op
TABLE_TASK_ROWS = 512

#: the sections a table frame may hold
_TABLE_KEYS = frozenset({"symbols", "addresses", "tasks"})

#: task-kind wire name -> TaskKind
_TASK_KIND_OF = {kind.value: kind for kind in TaskKind}

#: sanity cap on a single frame (a corrupt length must not allocate)
_MAX_FRAME = 1 << 31

_BIG_ENDIAN = sys.byteorder == "big"


def _column_key(code: int, field_index: int) -> int:
    return _SEC_COLUMN_BASE + code * _SEC_COLUMN_STRIDE + field_index


def _typecode_of(size: int, signed: bool) -> str:
    for tc in "bhilq" if signed else "BHILQ":
        if array(tc).itemsize == size:
            return tc
    raise RuntimeError(f"no array typecode of width {size}")  # pragma: no cover


#: enc value 0-7 -> (width, signed) and a matching array typecode
_ENC_SPECS = ((1, False), (2, False), (4, False), (8, False),
              (1, True), (2, True), (4, True), (8, True))
_ENC_TYPECODES = tuple(_typecode_of(w, s) for w, s in _ENC_SPECS)


class _Truncated(Exception):
    """Internal: the buffer ends inside a varint/frame (need more bytes)."""


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return


def _read_uvarint(buf, pos: int, limit: int) -> Tuple[int, int]:
    """Decode one LEB128 varint from ``buf[pos:limit]``.

    Returns ``(value, next_pos)``; raises :class:`_Truncated` when the
    window ends mid-varint and ``ValueError`` on an over-long encoding.
    """
    result = 0
    shift = 0
    while True:
        if pos >= limit:
            raise _Truncated
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("over-long varint")


def _encode_ints(values, enc: Optional[int] = None) -> Tuple[int, bytes]:
    """Pack ``values`` at the narrowest width that fits (or force ``enc``)."""
    if enc is None:
        if len(values) == 0:
            enc = 0
        else:
            lo, hi = min(values), max(values)
            if lo >= 0:
                enc = (0 if hi < (1 << 8) else 1 if hi < (1 << 16)
                       else 2 if hi < (1 << 32) else 3)
            else:
                enc = (4 if lo >= -(1 << 7) and hi < (1 << 7)
                       else 5 if lo >= -(1 << 15) and hi < (1 << 15)
                       else 6 if lo >= -(1 << 31) and hi < (1 << 31) else 7)
    packed = array(_ENC_TYPECODES[enc], values)
    if _BIG_ENDIAN and packed.itemsize > 1:
        packed.byteswap()
    return enc, packed.tobytes()


def _decode_ints(data, enc: int, count: int, typecode: str) -> array:
    """Unpack a little-endian column into an ``array(typecode)``.

    One ``frombytes`` when the wire width matches the store typecode;
    otherwise a single C-level widening copy.  Raises ``ValueError`` on
    a width/count mismatch and ``OverflowError`` when a (corrupt) value
    does not fit the target typecode.
    """
    if not 0 <= enc < 8:
        raise ValueError(f"unknown column encoding {enc}")
    src = array(_ENC_TYPECODES[enc])
    src.frombytes(bytes(data))
    if len(src) != count:
        raise ValueError(
            f"column holds {len(src)} values, directory says {count}"
        )
    if _BIG_ENDIAN and src.itemsize > 1:
        src.byteswap()
    if src.typecode == typecode:
        return src
    return array(typecode, src)


def _top_id(column: array, limit: int, what: str) -> int:
    """The largest id in ``column`` (-1 when it is empty); raises
    ``ValueError`` unless every id indexes a table of ``limit`` entries."""
    if not column:
        return -1
    top = max(column)
    if min(column) < 0 or top >= limit:
        raise ValueError(f"{what} id out of range")
    return top


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _address(record: Any) -> tuple:
    """An address record (a JSON 3-list) as the tuple it interns as;
    raises ``ValueError`` or ``TypeError`` when it is none."""
    if type(record) is not list or len(record) != 3:
        raise ValueError("an address is a 3-element list")
    value = tuple(record)
    hash(value)  # it must intern
    return value


def _task_rows(columns: Any) -> List[TaskInfo]:
    """The task records of a table frame's ``tasks`` section, one list
    per :class:`~repro.trace.trace.TaskInfo` field; raises
    ``ValueError`` when the section is malformed."""
    if type(columns) is not dict or columns.keys() != set(TASK_FIELDS):
        raise ValueError(f"task columns are not the fields {list(TASK_FIELDS)}")
    lists = [columns[name] for name in TASK_FIELDS]
    if any(type(column) is not list for column in lists) or len(
        {len(column) for column in lists}
    ) != 1:
        raise ValueError("task columns are not lists of one length")
    try:
        lists[1] = [_TASK_KIND_OF[kind] for kind in lists[1]]
    except (KeyError, TypeError):
        unknown = next(
            kind for kind in lists[1]
            if type(kind) is not str or kind not in _TASK_KIND_OF
        )
        raise ValueError(f"unknown task kind {unknown!r}") from None
    return list(map(TaskInfo, *lists))


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class TraceWriterV3:
    """Streaming v3 writer: rows in, framed columnar batches out.

    Rows arrive pre-decomposed (``write_row(code, time, task, values)``
    with decoded payload values, exactly what the v2 serializer
    consumes) and are buffered up to ``batch_ops`` before one BATCH
    frame is emitted, so transient memory is constant in trace length.
    Symbols and addresses are interned on first use and task records
    buffered; a TABLE frame defines them before the batch that
    references them, and another goes out whenever
    :data:`TABLE_TASK_ROWS` task records are pending.  ``finish``
    flushes the final partial batch and table and writes the footer
    directory + trailer.
    """

    def __init__(
        self,
        fp: IO[bytes],
        tasks: int = 0,
        ops: int = 0,
        batch_ops: int = DEFAULT_BATCH_OPS,
    ) -> None:
        from .serialization import FORMAT_NAME

        if batch_ops < 1:
            raise ValueError("batch_ops must be >= 1")
        self._fp = fp
        self._batch_ops = batch_ops
        fp.write(MAGIC_V3)
        self._offset = len(MAGIC_V3)
        self._sym_ids: Dict[str, int] = {}
        self._addr_ids: Dict[tuple, int] = {}
        self._tables: List[int] = []
        self._batches: List[Tuple[int, int]] = []
        self._ops_written = 0
        self._tasks_written = 0
        self._finished = False
        # what the next table frame defines
        self._t_syms: List[str] = []
        self._t_addrs: List[list] = []
        self._t_tasks: List[list] = [[] for _ in TASK_FIELDS]
        # batch buffers
        self._b_kinds = bytearray()
        self._b_times: List[int] = []
        self._b_tids: List[int] = []
        self._b_cols: Dict[int, List[List[int]]] = {}
        header = {
            "format": FORMAT_NAME,
            "version": 3,
            "tasks": tasks,
            "ops": ops,
            "kinds": [kind.value for kind in KIND_LIST],
            "branch_kinds": [branch.value for branch in _BRANCH_KINDS],
        }
        self._frame(TAG_HEADER, _json_bytes(header))

    def _frame(self, tag: int, payload: bytes) -> int:
        """Write one frame; returns the absolute offset of its tag byte."""
        head = bytearray((tag,))
        _write_uvarint(head, len(payload))
        offset = self._offset
        self._fp.write(bytes(head))
        self._fp.write(payload)
        self._offset = offset + len(head) + len(payload)
        return offset

    def _sym(self, value: str) -> int:
        sid = self._sym_ids.get(value)
        if sid is None:
            sid = self._sym_ids[value] = len(self._sym_ids)
            self._t_syms.append(value)
        return sid

    def _addr(self, value) -> int:
        key = tuple(value)
        aid = self._addr_ids.get(key)
        if aid is None:
            aid = self._addr_ids[key] = len(self._addr_ids)
            self._t_addrs.append(list(key))
        return aid

    def write_task(self, info: Dict[str, Any]) -> None:
        """Buffer one task record (a :meth:`TaskInfo.to_dict` dict)."""
        for column, name in zip(self._t_tasks, TASK_FIELDS):
            column.append(info[name])
        self._tasks_written += 1
        if len(self._t_tasks[0]) >= TABLE_TASK_ROWS:
            self._flush_table()

    def _flush_table(self) -> None:
        """Write the symbols, addresses and task records defined since
        the last table frame as one table frame, if there are any."""
        table: Dict[str, Any] = {}
        if self._t_syms:
            table["symbols"] = self._t_syms
        if self._t_addrs:
            table["addresses"] = self._t_addrs
        if self._t_tasks[0]:
            table["tasks"] = dict(zip(TASK_FIELDS, self._t_tasks))
        if not table:
            return
        self._tables.append(self._frame(TAG_TABLE, _json_bytes(table)))
        self._t_syms = []
        self._t_addrs = []
        self._t_tasks = [[] for _ in TASK_FIELDS]

    def write_row(self, code: int, time: int, task: str, values) -> None:
        """Buffer one op row (decoded payload values, schema order)."""
        self._b_kinds.append(code)
        self._b_times.append(time)
        self._b_tids.append(self._sym(task))
        schema = _SCHEMA_LIST[code]
        columns = self._b_cols.get(code)
        if columns is None:
            columns = self._b_cols[code] = [[] for _ in schema]
        for (_name, typ), column, value in zip(schema, columns, values):
            if typ == STR:
                column.append(self._sym(value))
            elif typ == OPT_INT:
                column.append(_NONE if value is None else value)
            elif typ == ADDR:
                column.append(self._addr(value))
            elif typ == BOOL:
                column.append(1 if value else 0)
            elif typ == ENUM:
                column.append(_BRANCH_INDEX[value])
            else:  # INT
                column.append(value)
        self._ops_written += 1
        if len(self._b_kinds) >= self._batch_ops:
            self._flush_batch()

    def _flush_batch(self) -> None:
        n = len(self._b_kinds)
        if not n:
            return
        self._flush_table()
        sections: List[Tuple[int, int, int, bytes]] = [
            (SEC_KINDS, 0, n, bytes(self._b_kinds))
        ]
        enc, data = _encode_ints(self._b_times)
        sections.append((SEC_TIMES, enc, n, data))
        enc, data = _encode_ints(self._b_tids)
        sections.append((SEC_TASK_IDS, enc, n, data))
        for code in sorted(self._b_cols):
            schema = _SCHEMA_LIST[code]
            for field_index, ((_name, typ), column) in enumerate(
                zip(schema, self._b_cols[code])
            ):
                if typ == OPT_INT:
                    enc, data = _encode_ints(column, enc=7)
                elif typ in (BOOL, ENUM):
                    enc, data = _encode_ints(column, enc=0)
                else:
                    enc, data = _encode_ints(column)
                sections.append(
                    (_column_key(code, field_index), enc, len(column), data)
                )
        payload = bytearray()
        _write_uvarint(payload, n)
        _write_uvarint(payload, len(sections))
        for key, enc, count, data in sections:
            _write_uvarint(payload, key)
            payload.append(enc)
            _write_uvarint(payload, count)
            _write_uvarint(payload, len(data))
        for _key, _enc, _count, data in sections:
            payload += data
        self._batches.append((self._frame(TAG_BATCH, bytes(payload)), n))
        self._b_kinds = bytearray()
        self._b_times = []
        self._b_tids = []
        self._b_cols = {}

    def finish(self) -> None:
        """Flush the final batch and table, write the footer frame and
        trailer."""
        if self._finished:
            return
        self._finished = True
        self._flush_batch()
        self._flush_table()
        footer = {
            "ops": self._ops_written,
            "tasks": self._tasks_written,
            "batches": [[offset, n] for offset, n in self._batches],
            "table_frames": self._tables,
        }
        footer_offset = self._frame(TAG_FOOTER, _json_bytes(footer))
        self._fp.write(struct.pack("<Q", footer_offset) + TRAILER_MAGIC)
        self._offset += TRAILER_LEN


# ---------------------------------------------------------------------------
# Reading (the frame parser)
# ---------------------------------------------------------------------------


def _translation(local: List[int]) -> Optional[bytes]:
    """A ``bytes.translate`` table taking wire code ``i`` to
    ``local[i]``, or None when every code is its own."""
    if all(code == wire for wire, code in enumerate(local)):
        return None
    table = bytearray(256)
    for wire, code in enumerate(local):
        table[wire] = code
    return bytes(table)


class _FrameParser:
    """The v3 frame and batch parser of
    :class:`~repro.trace.serialization.AnyTraceDecoder`, which owns the
    header negotiation, the symbol and address tables, the task records
    and the store.

    Frames are decoded as they complete; a trailing partial frame stays
    buffered.  Every frame is written whole and the file ends in the
    footer and trailer, so a stream that ends mid-frame, or before the
    footer and trailer, is truncation evidence that the decoder's
    ``flush``/``finish`` rule on.  A batch's columns load by
    ``frombytes`` (or one widening copy) and go to the decoder still in
    stream ids, with the batch's largest ids, so that until a trace
    swap they can be adopted untranslated.
    """

    versions = (3,)

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.base = 0  # absolute stream offset of buffer[0]
        self.magic_ok = False
        self.footer: Optional[dict] = None
        self.footer_offset: Optional[int] = None
        self.trailer_ok = False
        #: wire kind code -> local kind code, and its translate table
        self.codes: List[int] = []
        self.kind_map: Optional[bytes] = None
        #: branch kinds the header declares, and their translate table
        self.branches = 0
        self.branch_map: Optional[bytes] = None

    @staticmethod
    def unsupported(version: Any) -> str:
        return f"unsupported trace version {version!r} in a v3 binary stream"

    def tables(self, record: dict, codes: List[int]) -> None:
        """The header's wire tables: the kind codes, and the
        ``branch_kinds`` vocabulary the enum column's values index."""
        names = record.get("branch_kinds")
        if not isinstance(names, list) or not names:
            raise TraceError("v3 stream header lacks its branch-kind table")
        branches = []
        for name in names:
            try:
                branches.append(_BRANCH_INDEX[BranchKind(name)])
            except ValueError:
                raise TraceError(f"unknown branch kind {name!r} in header") from None
        for table, found in (("kinds", codes), ("branch_kinds", branches)):
            # a kind or branch-kind column holds one byte per op
            if len(found) > 256:
                raise TraceError(
                    f"v3 stream header's {table} table has {len(found)} "
                    "names; a one-byte code has room for 256"
                )
        self.codes, self.kind_map = codes, _translation(codes)
        self.branches, self.branch_map = len(branches), _translation(branches)

    def parse(self, decoder, chunk: bytes) -> None:
        """Decode every complete frame of the buffered bytes and
        ``chunk``."""
        buf = self.buffer
        buf += chunk
        end = len(buf)
        pos = 0
        try:
            while True:
                if not self.magic_ok:
                    if end - pos < len(MAGIC_V3):
                        return
                    if bytes(buf[pos:pos + len(MAGIC_V3)]) != MAGIC_V3:
                        raise TraceError("not a cafa-trace v3 binary stream")
                    pos += len(MAGIC_V3)
                    self.magic_ok = True
                    continue
                if self.footer is not None and not self.trailer_ok:
                    if end - pos < TRAILER_LEN:
                        return
                    self._take_trailer(bytes(buf[pos:pos + TRAILER_LEN]))
                    pos += TRAILER_LEN
                    self.trailer_ok = True
                    continue
                if self.trailer_ok:
                    if pos < end:
                        raise TraceFormatError(
                            f"{end - pos} bytes of data after the v3 trailer"
                        )
                    return
                if pos >= end:
                    return
                tag = buf[pos]
                try:
                    length, body = _read_uvarint(buf, pos + 1, end)
                except _Truncated:
                    return
                except ValueError as exc:
                    raise TraceFormatError(
                        f"frame at byte {self.base + pos}: {exc}"
                    ) from None
                if length > _MAX_FRAME:
                    raise TraceFormatError(
                        f"frame at byte {self.base + pos} declares an "
                        f"implausible length {length}"
                    )
                if end - body < length:
                    return
                frame_offset = self.base + pos
                payload = bytes(buf[body:body + length])
                pos = body + length
                self._take_frame(decoder, tag, payload, frame_offset)
        finally:
            if pos:
                del buf[:pos]
                self.base += pos

    def cut_short(self, decoder) -> Optional[TraceFormatError]:
        """The error for buffered bytes that never completed a frame,
        if any; the bytes are dropped."""
        if not self.buffer:
            return None
        self.buffer.clear()
        return TraceFormatError(
            f"stream ends mid-frame at byte {self.base}; the unterminated "
            "final frame cannot be trusted"
        )

    def check_end(self, decoder) -> None:
        """A v3 stream ends in its footer and trailer; the header frame
        comes first, so a stream without one was cut."""
        if decoder.header is None:
            raise TraceFormatError(
                f"stream ends at byte {decoder._bytes}, before the v3 "
                "header frame; the file is truncated"
            )
        if decoder.strict and not self.trailer_ok:
            raise TraceFormatError(
                "stream ends before the v3 footer and trailer; "
                "the file is truncated"
            )

    # -- frames --------------------------------------------------------

    def _take_frame(self, decoder, tag: int, payload: bytes, offset: int) -> None:
        decoder._frames += 1
        if decoder.header is None:
            if tag != TAG_HEADER:
                raise TraceError("v3 stream does not start with a header frame")
            try:
                record = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise TraceError("unreadable v3 header frame") from None
            decoder._take_header(record)
        elif tag == TAG_TABLE:
            self._take_table(decoder, payload, offset)
        elif tag == TAG_TASK:
            self._take_task(decoder, payload, offset)
        elif tag == TAG_SYM:
            try:
                value = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"corrupt symbol frame at byte {offset} ({exc})"
                ) from None
            decoder._symbols.append(value)
            decoder.records += 1
        elif tag == TAG_ADDR:
            self._take_addr(decoder, payload, offset)
        elif tag == TAG_BATCH:
            self._take_batch(decoder, payload, offset)
        elif tag == TAG_FOOTER:
            self._take_footer(payload, offset)
        elif tag == TAG_HEADER:
            raise TraceFormatError(f"duplicate header frame at byte {offset}")
        else:
            raise TraceFormatError(
                f"unknown frame tag {tag} at byte {offset}"
            )

    def _take_table(self, decoder, payload: bytes, offset: int) -> None:
        """Define a table frame's symbols and addresses and add its
        task records; the whole frame is checked before any of it
        lands."""
        try:
            table = json.loads(payload.decode("utf-8"))
            if type(table) is not dict or not table.keys() <= _TABLE_KEYS:
                raise ValueError(
                    "a table frame is an object of symbols, addresses and tasks"
                )
            symbols = table.get("symbols", [])
            if type(symbols) is not list or not all(
                type(value) is str for value in symbols
            ):
                raise ValueError("symbols is not a list of strings")
            addresses = table.get("addresses", [])
            if type(addresses) is not list:
                raise ValueError("addresses is not a list")
            addresses = [_address(value) for value in addresses]
            tasks = _task_rows(table["tasks"]) if "tasks" in table else []
            decoder._add_tasks(tasks, where=f" in table frame at byte {offset}")
        except TraceFormatError:
            raise
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt table frame at byte {offset} "
                f"({exc.__class__.__name__}: {exc})"
            ) from None
        decoder._symbols += symbols
        decoder._addresses += addresses
        decoder.records += len(symbols) + len(addresses) + len(tasks)

    def _take_task(self, decoder, payload: bytes, offset: int) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("task frame is not an object")
            decoder._add_tasks(
                [TaskInfo.from_dict(record)],
                where=f" in task frame at byte {offset}",
            )
        except TraceFormatError:
            raise
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt task frame at byte {offset} "
                f"({exc.__class__.__name__}: {exc})"
            ) from None
        decoder.records += 1

    def _take_addr(self, decoder, payload: bytes, offset: int) -> None:
        try:
            value = _address(json.loads(payload.decode("utf-8")))
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt address frame at byte {offset} ({exc})"
            ) from None
        decoder._addresses.append(value)
        decoder.records += 1

    def _take_footer(self, payload: bytes, offset: int) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("footer frame is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt footer frame at byte {offset} ({exc})"
            ) from None
        self.footer = record
        self.footer_offset = offset

    def _take_trailer(self, raw: bytes) -> None:
        if raw[8:] != TRAILER_MAGIC:
            raise TraceFormatError("damaged v3 trailer magic")
        (footer_offset,) = struct.unpack("<Q", raw[:8])
        if footer_offset != self.footer_offset:
            raise TraceFormatError(
                f"trailer points at byte {footer_offset}, but the footer "
                f"frame is at byte {self.footer_offset}"
            )

    # -- batch decoding ------------------------------------------------

    def _take_batch(self, decoder, payload: bytes, offset: int) -> None:
        try:
            n, kinds, times, task_ids, columns, tops = self._decode_batch(
                decoder, payload
            )
        except (ValueError, OverflowError, KeyError, IndexError,
                TypeError, _Truncated) as exc:
            raise TraceFormatError(
                f"corrupt batch frame at byte {offset} "
                f"({exc.__class__.__name__}: {exc})"
            ) from None
        decoder._adopt(kinds, times, task_ids, columns, tops)
        decoder._columns += 3 + sum(len(cols) for cols in columns.values())
        decoder._ops_adopted += n
        decoder._batches += 1
        decoder.records += n

    def _decode_batch(self, decoder, payload: bytes):
        limit = len(payload)
        n, pos = _read_uvarint(payload, 0, limit)
        n_sections, pos = _read_uvarint(payload, pos, limit)
        directory = []
        for _ in range(n_sections):
            key, pos = _read_uvarint(payload, pos, limit)
            if pos >= limit:
                raise _Truncated
            enc = payload[pos]
            pos += 1
            count, pos = _read_uvarint(payload, pos, limit)
            nbytes, pos = _read_uvarint(payload, pos, limit)
            directory.append((key, enc, count, nbytes))
        sections: Dict[int, Tuple[int, int, bytes]] = {}
        for key, enc, count, nbytes in directory:
            if key in sections:
                raise ValueError(f"duplicate section key {key}")
            blob = payload[pos:pos + nbytes]
            if len(blob) != nbytes:
                raise _Truncated
            sections[key] = (enc, count, blob)
            pos += nbytes
        if pos != limit:
            raise ValueError(f"{limit - pos} stray bytes after the sections")
        required = (SEC_KINDS, SEC_TIMES, SEC_TASK_IDS)
        for key in required:
            if key not in sections:
                raise ValueError(f"missing global section {key}")
            if sections[key][1] != n:
                raise ValueError(
                    f"global section {key} covers {sections[key][1]} "
                    f"of {n} ops"
                )
        enc, _count, blob = sections.pop(SEC_KINDS)
        wire_kinds = bytes(_decode_ints(blob, enc, n, "B"))
        if wire_kinds and max(wire_kinds) >= len(self.codes):
            raise ValueError("undeclared kind code in batch")
        local_kinds = (
            wire_kinds.translate(self.kind_map)
            if self.kind_map is not None
            else wire_kinds
        )
        enc, _count, blob = sections.pop(SEC_TIMES)
        times = _decode_ints(blob, enc, n, "q")
        enc, _count, blob = sections.pop(SEC_TASK_IDS)
        tids = _decode_ints(blob, enc, n, "i")
        n_syms, n_addrs = len(decoder._symbols), len(decoder._addresses)
        top_sym = _top_id(tids, n_syms, "task symbol")
        top_addr = -1
        columns: Dict[int, List[array]] = {}
        for wire in sorted(set(wire_kinds)):
            local = self.codes[wire]
            occurrences = wire_kinds.count(wire)
            decoded: List[array] = []
            for field_index, (name, typ) in enumerate(_SCHEMA_LIST[local]):
                entry = sections.pop(_column_key(wire, field_index), None)
                if entry is None:
                    raise ValueError(
                        f"missing column {name!r} of kind code {wire}"
                    )
                enc, count, blob = entry
                if count != occurrences:
                    raise ValueError(
                        f"column {name!r} covers {count} of "
                        f"{occurrences} rows"
                    )
                column = _decode_ints(blob, enc, count, _ARRAY_TYPE[typ])
                if typ == STR:
                    top_sym = max(top_sym, _top_id(column, n_syms, "symbol"))
                elif typ == ADDR:
                    top_addr = max(
                        top_addr, _top_id(column, n_addrs, "address")
                    )
                elif typ == ENUM:
                    if column and max(column) >= self.branches:
                        raise ValueError("undeclared branch kind in batch")
                    if self.branch_map is not None:
                        column = array(
                            "B", column.tobytes().translate(self.branch_map)
                        )
                decoded.append(column)
            columns[local] = decoded
        if sections:
            raise ValueError(
                f"unexpected section keys {sorted(sections)} in batch"
            )
        return n, local_kinds, times, tids, columns, (top_sym, top_addr)
