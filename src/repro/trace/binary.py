"""Trace format v3: length-prefixed binary frames + columnar segments.

The text formats pay full JSON parsing for every record on every scan.
v3 keeps the same logical model as v2 — a negotiated header, incremental
symbol/address interning, positional payloads laid out by the kind
schemas (:data:`repro.trace.store.SCHEMAS`) — but stores it as binary
*frames*, and stores the operations themselves as *columnar batches*
whose per-column blocks are contiguous on disk:

* a reader reloads :class:`~repro.trace.store.TraceStore` columns with
  ``array.frombytes`` in one shot per column per batch instead of
  decoding records one by one, and
* a column-sparse consumer (:class:`SegmentReader`) can ``mmap`` the
  file and read exactly the columns it needs, skipping every other
  byte — corpus triage without full deserialization.

Wire layout
-----------

::

    MAGIC (12 bytes)  "\\x93CAFA-T3\\r\\n\\x1a\\x00"
    frame*            tag:u8  length:uvarint  payload[length]
    trailer (16B)     footer_offset:u64le  "CAFA3FT\\n"

Frame tags: 1 header (JSON), 2 task (JSON), 3 symbol (raw UTF-8),
4 address (JSON list), 5 op batch, 6 footer (JSON).  ``uvarint`` is
LEB128 (7 data bits per byte, high bit = continuation).  The first
payload byte of the file is ``0x93`` — never a printable character, so
readers sniff text vs binary from one byte.

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
The footer records frame offsets of every batch and side-table frame,
and the trailer points back at the footer — so :class:`SegmentReader`
reaches any column in O(1) seeks, and a byte cut *anywhere* is
detectable: strict loads require the footer+trailer and the header
count checks, salvage loads analyze the longest valid frame prefix.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from .operations import BranchKind, OpKind
from .store import (
    ADDR,
    BOOL,
    ENUM,
    KIND_CODES,
    KIND_LIST,
    OPT_INT,
    SCHEMAS,
    STR,
    DecodeStats,
    _ARRAY_TYPE,
    _BRANCH_INDEX,
    _BRANCH_KINDS,
    _NONE,
    _SCHEMA_LIST,
)
from .trace import TaskInfo, Trace, TraceError, TraceFormatError

#: first bytes of every v3 file; byte 0 (0x93) is invalid UTF-8 *and*
#: invalid JSON, so text-format readers reject v3 input immediately and
#: the sniffing facade needs exactly one byte
MAGIC_V3 = b"\x93CAFA-T3\r\n\x1a\x00"
#: end of every complete v3 file: u64le footer offset + this marker
TRAILER_MAGIC = b"CAFA3FT\n"
TRAILER_LEN = 8 + len(TRAILER_MAGIC)

# Frame tags.
TAG_HEADER = 1
TAG_TASK = 2
TAG_SYM = 3
TAG_ADDR = 4
TAG_BATCH = 5
TAG_FOOTER = 6

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


def _ids_below(column: array, limit: int) -> bool:
    """Every id in ``column`` indexes a table of ``limit`` entries."""
    return not column or (min(column) >= 0 and max(column) < limit)


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


class _Vocabulary:
    """Negotiated wire->local mappings from one v3 header."""

    __slots__ = ("codes", "schemas", "kind_map", "branches", "branch_map")

    def __init__(self) -> None:
        self.codes: List[int] = []
        self.schemas: List[tuple] = []
        #: 256-byte translate table, or None when wire codes == local
        self.kind_map: Optional[bytes] = None
        self.branches: List[int] = []
        self.branch_map: Optional[bytes] = None


def _negotiate_header(record: Any, expect_version: Optional[int]) -> _Vocabulary:
    """Validate a v3 header record; raises :class:`TraceError` (header
    problems are fatal even in salvage mode)."""
    from .serialization import FORMAT_NAME  # value only; no import cycle at call time

    if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
        raise TraceError(f"not a {FORMAT_NAME} stream: {record!r}")
    version = record.get("version")
    if version != 3:
        raise TraceError(
            f"unsupported trace version {version!r} in a v3 binary stream"
        )
    if expect_version is not None and version != expect_version:
        raise TraceError(
            f"expected trace version {expect_version}, "
            f"stream is version {version}"
        )
    vocab = _Vocabulary()
    kind_names = record.get("kinds")
    if not isinstance(kind_names, list) or not kind_names:
        raise TraceError("v3 stream header lacks its kind table")
    for name in kind_names:
        try:
            kind = OpKind(name)
        except ValueError:
            raise TraceError(f"unknown operation kind {name!r} in header") from None
        vocab.codes.append(KIND_CODES[kind])
        vocab.schemas.append(_SCHEMA_LIST[KIND_CODES[kind]])
    if any(code != wire for wire, code in enumerate(vocab.codes)):
        table = bytearray(256)
        for wire, code in enumerate(vocab.codes):
            table[wire] = code
        vocab.kind_map = bytes(table)
    branch_names = record.get("branch_kinds")
    if not isinstance(branch_names, list) or not branch_names:
        raise TraceError("v3 stream header lacks its branch-kind table")
    for name in branch_names:
        try:
            branch = BranchKind(name)
        except ValueError:
            raise TraceError(f"unknown branch kind {name!r} in header") from None
        vocab.branches.append(_BRANCH_INDEX[branch])
    if any(local != wire for wire, local in enumerate(vocab.branches)):
        table = bytearray(256)
        for wire, local in enumerate(vocab.branches):
            table[wire] = local
        vocab.branch_map = bytes(table)
    return vocab


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class TraceWriterV3:
    """Streaming v3 writer: rows in, framed columnar batches out.

    Rows arrive pre-decomposed (``write_row(code, time, task, values)``
    with decoded payload values, exactly what the v2 serializer
    consumes) and are buffered up to ``batch_ops`` before one BATCH
    frame is emitted, so transient memory is constant in trace length.
    Symbols and addresses are interned on first use, each as its own
    frame *before* the batch that references it.  ``finish`` flushes
    the final partial batch and writes the footer directory + trailer.
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
        self._sym_offsets: List[int] = []
        self._addr_offsets: List[int] = []
        self._task_offsets: List[int] = []
        self._batches: List[Tuple[int, int]] = []
        self._ops_written = 0
        self._tasks_written = 0
        self._finished = False
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
            self._sym_offsets.append(
                self._frame(TAG_SYM, value.encode("utf-8"))
            )
        return sid

    def _addr(self, value) -> int:
        key = tuple(value)
        aid = self._addr_ids.get(key)
        if aid is None:
            aid = self._addr_ids[key] = len(self._addr_ids)
            self._addr_offsets.append(
                self._frame(TAG_ADDR, _json_bytes(list(key)))
            )
        return aid

    def write_task(self, info: Dict[str, Any]) -> None:
        """Emit one task-info frame (a :meth:`TaskInfo.to_dict` dict)."""
        self._task_offsets.append(self._frame(TAG_TASK, _json_bytes(info)))
        self._tasks_written += 1

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
        """Flush the final batch, write the footer frame and trailer."""
        if self._finished:
            return
        self._finished = True
        self._flush_batch()
        footer = {
            "ops": self._ops_written,
            "tasks": self._tasks_written,
            "batches": [[offset, n] for offset, n in self._batches],
            "symbol_frames": self._sym_offsets,
            "address_frames": self._addr_offsets,
            "task_frames": self._task_offsets,
        }
        footer_offset = self._frame(TAG_FOOTER, _json_bytes(footer))
        self._fp.write(struct.pack("<Q", footer_offset) + TRAILER_MAGIC)
        self._offset += TRAILER_LEN


# ---------------------------------------------------------------------------
# Reading (push decoder)
# ---------------------------------------------------------------------------


class BinaryTraceDecoder:
    """Push-based incremental decoder for the binary v3 format.

    The surface mirrors :class:`~repro.trace.serialization.TraceStreamDecoder`
    (``feed``/``flush``/``finish``/``mark_damaged``, ``trace``,
    ``header``, ``error``, ``degraded``, ``records``, ``strict``) so the
    streaming service and the load entry points drive both identically —
    except :meth:`feed` takes *bytes*.

    Two decode paths.  The fast path *adopts* whole batches: every
    column lands via ``frombytes``/one widening copy straight into the
    trace's :class:`~repro.trace.store.TraceStore`, whose symbol/address
    tables are kept id-identical to the stream's by interning side-table
    frames in lockstep.  That requires the store to stay in sync with
    the stream; if the trace is swapped mid-stream (the streaming
    service's epoch GC) or mutated out of band, adoption is disabled
    permanently and rows fall back to per-row ``_append_decoded`` —
    byte-identical results, just slower.  A ``sink`` (``on_header``/
    ``on_task``/``on_row``) replaces the trace entirely (the transcoder
    path).

    Salvage semantics match the text decoder: under ``strict=False``
    the first damaged frame stops decoding, the error lands on
    :attr:`error`, and everything decoded before it remains valid; a
    stream that ends mid-frame — or before the footer+trailer — is
    truncation evidence that :meth:`flush`/:meth:`finish` rule on.
    Header problems always raise.
    """

    def __init__(
        self,
        expect_version: Optional[int] = None,
        strict: bool = True,
        trace: Optional[Trace] = None,
        sink=None,
    ) -> None:
        self.trace = trace if trace is not None else Trace()
        self.expect_version = expect_version
        self.strict = strict
        self.sink = sink
        self.header: Optional[dict] = None
        self.error: Optional[TraceFormatError] = None
        self.records = 0
        self._buffer = bytearray()
        self._base = 0  # absolute stream offset of _buffer[0]
        self._magic_ok = False
        self._vocab: Optional[_Vocabulary] = None
        self._footer: Optional[dict] = None
        self._footer_offset: Optional[int] = None
        self._trailer_ok = False
        self._symbols: List[str] = []
        self._addresses: List[tuple] = []
        self._ops_seen = 0
        self._tasks_seen = 0
        # adoption bookkeeping
        self._adopt_trace = self.trace if sink is None else None
        self._adopt_ok = self._adopt_trace is not None
        self._adopted_syms = 0
        self._adopted_addrs = 0
        self._adopted_store_ops = 0
        # decode counters
        self._frames = 0
        self._batches = 0
        self._ops_adopted = 0
        self._ops_rowwise = 0
        self._columns_adopted = 0
        self._bytes_fed = 0

    @property
    def degraded(self) -> bool:
        """True once salvage mode has stopped at a damaged frame."""
        return self.error is not None

    def decode_stats(self) -> DecodeStats:
        return DecodeStats(
            version=3,
            frames=self._frames,
            records=self.records,
            batches=self._batches,
            ops_adopted=self._ops_adopted,
            ops_decoded=self._ops_rowwise,
            columns_adopted=self._columns_adopted,
            bytes_read=self._bytes_fed,
        )

    # -- feeding -------------------------------------------------------

    def feed(self, chunk: bytes) -> int:
        """Buffer ``chunk`` and decode every complete frame in it.

        Returns the number of operations decoded.  A trailing partial
        frame stays buffered until the next feed (or :meth:`finish`).
        """
        if self.error is not None or not chunk:
            return 0
        self._bytes_fed += len(chunk)
        self._buffer += chunk
        before = self._ops_seen
        self._check_adoption()
        try:
            self._parse()
        except TraceFormatError as exc:
            if self.strict or self.header is None:
                raise
            self.error = exc
            self._buffer.clear()
        return self._ops_seen - before

    def flush(self) -> int:
        """Rule on buffered bytes that never completed a frame.

        Every frame is written atomically, so input that ends mid-frame
        is truncation evidence: raises under ``strict``, marks the
        decoder degraded in salvage mode.  Returns 0 (symmetry with
        :meth:`feed`).
        """
        if not self._buffer:
            return 0
        at = self._base
        self._buffer.clear()
        error = TraceFormatError(
            f"stream ends mid-frame at byte {at}; the unterminated "
            "final frame cannot be trusted"
        )
        if self.strict:
            raise error
        if self.error is None:
            self.error = error
        return 0

    def finish(self) -> Trace:
        """Flush, require the footer+trailer and counts (strict), return
        the trace."""
        self.flush()
        if self.header is None:
            if self._bytes_fed:
                raise TraceFormatError(
                    f"stream ends at byte {self._bytes_fed}, before the v3 "
                    "header frame; the file is truncated"
                )
            raise TraceError("empty trace stream")
        if self.strict:
            if not self._trailer_ok:
                raise TraceFormatError(
                    "stream ends before the v3 footer and trailer; "
                    "the file is truncated"
                )
            tasks_seen = (
                self._tasks_seen if self.sink is not None
                else len(self.trace.tasks)
            )
            ops_seen = (
                self._ops_seen if self.sink is not None else len(self.trace)
            )
            expected_tasks = self.header.get("tasks")
            if expected_tasks is not None and expected_tasks != tasks_seen:
                raise TraceFormatError(
                    f"task count mismatch: header says {expected_tasks}, "
                    f"stream has {tasks_seen}"
                )
            expected_ops = self.header.get("ops")
            if expected_ops is not None and expected_ops != ops_seen:
                raise TraceFormatError(
                    f"op count mismatch: header says {expected_ops}, "
                    f"stream has {ops_seen}"
                )
            footer_ops = self._footer.get("ops") if self._footer else None
            if footer_ops is not None and footer_ops != self._ops_seen:
                raise TraceFormatError(
                    f"op count mismatch: footer says {footer_ops}, "
                    f"stream has {self._ops_seen}"
                )
        self.trace.decode_stats = self.decode_stats()
        return self.trace

    def mark_damaged(self, exc: Exception) -> None:
        """Record out-of-band stream damage (e.g. a truncated gzip
        member noticed by the decompressor, not by any frame)."""
        error = TraceFormatError(f"damaged trace stream: {exc}")
        if self.strict:
            raise error from None
        if self.error is None:
            self.error = error

    # -- frame loop ----------------------------------------------------

    def _parse(self) -> None:
        buf = self._buffer
        end = len(buf)
        pos = 0
        try:
            while True:
                if not self._magic_ok:
                    if end - pos < len(MAGIC_V3):
                        return
                    if bytes(buf[pos:pos + len(MAGIC_V3)]) != MAGIC_V3:
                        raise TraceError("not a cafa-trace v3 binary stream")
                    pos += len(MAGIC_V3)
                    self._magic_ok = True
                    continue
                if self._footer is not None and not self._trailer_ok:
                    if end - pos < TRAILER_LEN:
                        return
                    self._take_trailer(bytes(buf[pos:pos + TRAILER_LEN]))
                    pos += TRAILER_LEN
                    self._trailer_ok = True
                    continue
                if self._trailer_ok:
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
                        f"frame at byte {self._base + pos}: {exc}"
                    ) from None
                if length > _MAX_FRAME:
                    raise TraceFormatError(
                        f"frame at byte {self._base + pos} declares an "
                        f"implausible length {length}"
                    )
                if end - body < length:
                    return
                frame_offset = self._base + pos
                payload = bytes(buf[body:body + length])
                pos = body + length
                self._handle_frame(tag, payload, frame_offset)
        finally:
            if pos:
                del buf[:pos]
                self._base += pos

    def _handle_frame(self, tag: int, payload: bytes, offset: int) -> None:
        self._frames += 1
        if self.header is None:
            if tag != TAG_HEADER:
                raise TraceError("v3 stream does not start with a header frame")
            self._take_header(payload)
            return
        if tag == TAG_TASK:
            self._take_task(payload, offset)
        elif tag == TAG_SYM:
            self._take_sym(payload, offset)
        elif tag == TAG_ADDR:
            self._take_addr(payload, offset)
        elif tag == TAG_BATCH:
            self._take_batch(payload, offset)
        elif tag == TAG_FOOTER:
            self._take_footer(payload, offset)
        elif tag == TAG_HEADER:
            raise TraceFormatError(f"duplicate header frame at byte {offset}")
        else:
            raise TraceFormatError(
                f"unknown frame tag {tag} at byte {offset}"
            )

    def _take_header(self, payload: bytes) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise TraceError("unreadable v3 header frame") from None
        self._vocab = _negotiate_header(record, self.expect_version)
        self.header = record
        if self.sink is not None:
            self.sink.on_header(record)

    def _take_task(self, payload: bytes, offset: int) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("task frame is not an object")
            if self.sink is not None:
                self.sink.on_task(record)
            else:
                info = TaskInfo.from_dict(record)
                if info.task in self.trace.tasks:
                    raise TraceFormatError(
                        f"duplicate task id {info.task!r} in task frame "
                        f"at byte {offset}"
                    )
                self.trace.add_task(info)
        except TraceFormatError:
            raise
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt task frame at byte {offset} "
                f"({exc.__class__.__name__}: {exc})"
            ) from None
        self._tasks_seen += 1
        self.records += 1

    def _take_sym(self, payload: bytes, offset: int) -> None:
        try:
            value = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"corrupt symbol frame at byte {offset} ({exc})"
            ) from None
        if self._adopt_ok:
            store = self.trace.store
            if store.symbols.intern(value) == self._adopted_syms:
                self._adopted_syms += 1
            else:  # pragma: no cover - length checks make this unreachable
                self._adopt_ok = False
        self._symbols.append(value)
        self.records += 1

    def _take_addr(self, payload: bytes, offset: int) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, list) or len(record) != 3:
                raise ValueError("address frame is not a 3-element list")
            value = tuple(record)
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt address frame at byte {offset} ({exc})"
            ) from None
        if self._adopt_ok:
            store = self.trace.store
            if store.addresses.intern(value) == self._adopted_addrs:
                self._adopted_addrs += 1
            else:  # pragma: no cover - length checks make this unreachable
                self._adopt_ok = False
        self._addresses.append(value)
        self.records += 1

    def _take_footer(self, payload: bytes, offset: int) -> None:
        try:
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("footer frame is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"corrupt footer frame at byte {offset} ({exc})"
            ) from None
        self._footer = record
        self._footer_offset = offset

    def _take_trailer(self, raw: bytes) -> None:
        if raw[8:] != TRAILER_MAGIC:
            raise TraceFormatError("damaged v3 trailer magic")
        (footer_offset,) = struct.unpack("<Q", raw[:8])
        if footer_offset != self._footer_offset:
            raise TraceFormatError(
                f"trailer points at byte {footer_offset}, but the footer "
                f"frame is at byte {self._footer_offset}"
            )

    # -- batch decoding ------------------------------------------------

    def _check_adoption(self) -> None:
        """Keep the one-shot column adoption path only while it is valid.

        It is disabled for good once the trace was swapped (epoch GC)
        or its store/tables were touched out of band — interning ids
        would no longer line up with the stream's.  Only the caller can
        touch the store, and only between feeds, so each :meth:`feed`
        checks once and its frames read :attr:`_adopt_ok`.
        """
        if not self._adopt_ok:
            return
        trace = self.trace
        store = trace.store
        if (
            trace is not self._adopt_trace
            or len(store) != self._adopted_store_ops
            or len(store.symbols) != self._adopted_syms
            or len(store.addresses) != self._adopted_addrs
        ):
            self._adopt_ok = False

    def _take_batch(self, payload: bytes, offset: int) -> None:
        try:
            n, local_kinds, times, tids, columns = self._decode_batch(payload)
        except TraceFormatError:
            raise
        except (ValueError, OverflowError, KeyError, IndexError,
                TypeError, _Truncated) as exc:
            raise TraceFormatError(
                f"corrupt batch frame at byte {offset} "
                f"({exc.__class__.__name__}: {exc})"
            ) from None
        if self.sink is not None:
            self._emit_rows(n, local_kinds, times, tids, columns, sink=True)
        elif self._adopt_ok:
            self.trace.store.adopt_batch(local_kinds, times, tids, columns)
            self._adopted_store_ops += n
            self._ops_adopted += n
            self._columns_adopted += 3 + sum(
                len(cols) for cols in columns.values()
            )
        else:
            self._emit_rows(n, local_kinds, times, tids, columns, sink=False)
        self._ops_seen += n
        self._batches += 1
        self.records += n

    def _decode_batch(self, payload: bytes):
        vocab = self._vocab
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
        if wire_kinds and max(wire_kinds) >= len(vocab.codes):
            raise ValueError("undeclared kind code in batch")
        local_kinds = (
            wire_kinds.translate(vocab.kind_map)
            if vocab.kind_map is not None
            else wire_kinds
        )
        enc, _count, blob = sections.pop(SEC_TIMES)
        times = _decode_ints(blob, enc, n, "q")
        enc, _count, blob = sections.pop(SEC_TASK_IDS)
        tids = _decode_ints(blob, enc, n, "i")
        if not _ids_below(tids, len(self._symbols)):
            raise ValueError("task symbol id out of range")
        columns: Dict[int, List[array]] = {}
        for wire in sorted(set(wire_kinds)):
            schema = vocab.schemas[wire]
            local = vocab.codes[wire]
            occurrences = wire_kinds.count(wire)
            decoded: List[array] = []
            for field_index, (name, typ) in enumerate(schema):
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
                    if not _ids_below(column, len(self._symbols)):
                        raise ValueError("symbol id out of range")
                elif typ == ADDR:
                    if not _ids_below(column, len(self._addresses)):
                        raise ValueError("address id out of range")
                elif typ == ENUM:
                    if column and max(column) >= len(vocab.branches):
                        raise ValueError("undeclared branch kind in batch")
                    if vocab.branch_map is not None:
                        column = array(
                            "B", column.tobytes().translate(vocab.branch_map)
                        )
                decoded.append(column)
            columns[local] = decoded
        if sections:
            raise ValueError(
                f"unexpected section keys {sorted(sections)} in batch"
            )
        return n, local_kinds, times, tids, columns

    def _emit_rows(self, n, local_kinds, times, tids, columns, sink) -> None:
        """Row-by-row delivery: the sink path and the post-GC fallback."""
        symbols = self._symbols
        addresses = self._addresses
        cursors: Dict[int, int] = {}
        on_row = self.sink.on_row if sink else None
        append = None if sink else self.trace._append_decoded
        for i in range(n):
            code = local_kinds[i]
            schema = _SCHEMA_LIST[code]
            row = cursors.get(code, 0)
            cursors[code] = row + 1
            values: List[Any] = []
            if schema:
                for (_name, typ), column in zip(schema, columns[code]):
                    raw = column[row]
                    if typ == STR:
                        values.append(symbols[raw])
                    elif typ == OPT_INT:
                        values.append(None if raw == _NONE else raw)
                    elif typ == ADDR:
                        values.append(addresses[raw])
                    elif typ == BOOL:
                        values.append(bool(raw))
                    elif typ == ENUM:
                        values.append(_BRANCH_KINDS[raw])
                    else:  # INT
                        values.append(raw)
            task = symbols[tids[i]]
            if sink:
                on_row(code, times[i], task, values)
            else:
                append(code, times[i], task, values)
        self._ops_rowwise += n


# ---------------------------------------------------------------------------
# Column-sparse segment access (mmap)
# ---------------------------------------------------------------------------


class SegmentReader:
    """Column-sparse random access to one v3 file via ``mmap``.

    Opens the file, validates magic + trailer, and parses only the
    footer, header, and (lazily, per batch) the section directories —
    a few KiB regardless of trace size.  :meth:`column` then reads
    exactly one kind's one field across all batches; everything else
    is never touched, which is the point: a corpus bigger than RAM can
    be triaged by scanning two columns of each file.

    ``bytes_read`` / ``bytes_skipped`` / ``columns_mapped`` account for
    the sparseness (surfaced by ``repro stats --sparse``).  Only plain
    (non-gzip) files can be mapped.
    """

    def __init__(self, path) -> None:
        import mmap as _mmap

        self._fh = open(path, "rb")
        try:
            try:
                self._mm = _mmap.mmap(
                    self._fh.fileno(), 0, access=_mmap.ACCESS_READ
                )
            except ValueError:
                raise TraceError(f"{path}: empty file is not a v3 trace") from None
            mm = self._mm
            self.file_bytes = len(mm)
            self.bytes_read = 0
            self.columns_mapped = 0
            self._frames_read = 0
            self._dirs: Dict[int, tuple] = {}
            if mm[:2] == b"\x1f\x8b":
                raise TraceError(
                    f"{path}: gzip-compressed traces cannot be mmapped; "
                    "decompress first (repro convert) or load normally"
                )
            if (
                self.file_bytes < len(MAGIC_V3) + TRAILER_LEN
                or mm[:len(MAGIC_V3)] != MAGIC_V3
            ):
                raise TraceError(f"{path}: not a cafa-trace v3 file")
            self.bytes_read += len(MAGIC_V3)
            trailer = mm[self.file_bytes - TRAILER_LEN:]
            if trailer[8:] != TRAILER_MAGIC:
                raise TraceFormatError(
                    "v3 trailer missing or damaged (truncated file?)"
                )
            (footer_offset,) = struct.unpack("<Q", trailer[:8])
            self.bytes_read += TRAILER_LEN
            tag, payload = self._frame_at(footer_offset)
            if tag != TAG_FOOTER:
                raise TraceFormatError(
                    "trailer does not point at a footer frame"
                )
            self.footer = self._json(payload, "footer")
            tag, payload = self._frame_at(len(MAGIC_V3))
            if tag != TAG_HEADER:
                raise TraceError("v3 file does not start with a header frame")
            self.header = self._json(payload, "header")
            self._vocab = _negotiate_header(self.header, None)
            self._wire_of_local = {
                code: wire for wire, code in enumerate(self._vocab.codes)
            }
        except BaseException:
            self.close()
            raise

    # -- plumbing ------------------------------------------------------

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @staticmethod
    def _json(payload: bytes, what: str):
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"corrupt v3 {what} frame ({exc})") from None
        return record

    def _frame_at(self, offset: int) -> Tuple[int, bytes]:
        mm = self._mm
        if not 0 <= offset < self.file_bytes:
            raise TraceFormatError(f"frame offset {offset} outside the file")
        tag = mm[offset]
        try:
            length, body = _read_uvarint(mm, offset + 1, self.file_bytes)
        except (_Truncated, ValueError) as exc:
            raise TraceFormatError(
                f"damaged frame at byte {offset}: {exc}"
            ) from None
        if body + length > self.file_bytes:
            raise TraceFormatError(
                f"frame at byte {offset} runs past the end of the file"
            )
        self._frames_read += 1
        self.bytes_read += (body - offset) + length
        return tag, mm[body:body + length]

    def _batch_dir(self, offset: int) -> tuple:
        """Parse (and cache) one batch's section directory without
        touching its data blocks; returns ``(n_ops, sections)`` with
        ``sections[key] = (enc, count, absolute_offset, nbytes)``."""
        cached = self._dirs.get(offset)
        if cached is not None:
            return cached
        mm = self._mm
        if mm[offset] != TAG_BATCH:
            raise TraceFormatError(
                f"footer batch entry at byte {offset} is not a batch frame"
            )
        try:
            length, body = _read_uvarint(mm, offset + 1, self.file_bytes)
            limit = body + length
            if limit > self.file_bytes:
                raise ValueError("frame runs past the end of the file")
            n, pos = _read_uvarint(mm, body, limit)
            n_sections, pos = _read_uvarint(mm, pos, limit)
            directory = []
            for _ in range(n_sections):
                key, pos = _read_uvarint(mm, pos, limit)
                if pos >= limit:
                    raise _Truncated
                enc = mm[pos]
                pos += 1
                count, pos = _read_uvarint(mm, pos, limit)
                nbytes, pos = _read_uvarint(mm, pos, limit)
                directory.append((key, enc, count, nbytes))
            sections: Dict[int, Tuple[int, int, int, int]] = {}
            for key, enc, count, nbytes in directory:
                if key in sections or pos + nbytes > limit:
                    raise ValueError(f"damaged section {key}")
                sections[key] = (enc, count, pos, nbytes)
                pos += nbytes
            if pos != limit:
                raise ValueError("stray bytes after the sections")
        except (_Truncated, ValueError) as exc:
            raise TraceFormatError(
                f"corrupt batch frame at byte {offset} ({exc})"
            ) from None
        self._frames_read += 1
        # the frame head plus the directory itself count as read; the
        # data blocks only count when a column is actually mapped
        first_data = min(s[2] for s in sections.values()) if sections else limit
        self.bytes_read += (body - offset) + (first_data - body)
        entry = (n, sections)
        self._dirs[offset] = entry
        return entry

    # -- the sparse reads ----------------------------------------------

    @property
    def n_ops(self) -> int:
        return self.footer.get("ops", 0)

    def batches(self) -> List[Tuple[int, int]]:
        return [(offset, n) for offset, n in self.footer.get("batches", [])]

    def _read_section(self, sections, key: int, count: int, typecode: str):
        entry = sections.get(key)
        if entry is None:
            return None
        enc, declared, data_offset, nbytes = entry
        if declared != count:
            raise TraceFormatError(
                f"section {key} covers {declared} of {count} expected rows"
            )
        blob = self._mm[data_offset:data_offset + nbytes]
        self.bytes_read += nbytes
        self.columns_mapped += 1
        try:
            return _decode_ints(blob, enc, count, typecode)
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"corrupt column section {key} ({exc})") from None

    def global_column(self, name: str) -> array:
        """One of the global columns (``"kinds"``/``"times"``/
        ``"task_ids"``) concatenated across all batches; kind codes are
        remapped to the local vocabulary."""
        spec = {
            "kinds": (SEC_KINDS, "B"),
            "times": (SEC_TIMES, "q"),
            "task_ids": (SEC_TASK_IDS, "i"),
        }.get(name)
        if spec is None:
            raise KeyError(f"unknown global column {name!r}")
        key, typecode = spec
        out = array(typecode)
        for offset, _n in self.batches():
            n, sections = self._batch_dir(offset)
            part = self._read_section(sections, key, n, typecode)
            if part is None:
                raise TraceFormatError(
                    f"batch at byte {offset} lacks global section {key}"
                )
            if key == SEC_KINDS:
                raw = part.tobytes()
                if raw and max(raw) >= len(self._vocab.codes):
                    raise TraceFormatError("undeclared kind code in batch")
                if self._vocab.kind_map is not None:
                    raw = raw.translate(self._vocab.kind_map)
                part = array("B", raw)
            out += part
        return out

    def column(self, kind: OpKind, field: str) -> array:
        """One kind's one payload column across all batches, raw
        (interned ids as stored); decode through :meth:`symbols` /
        :meth:`addresses`.  Only this column's blocks are read."""
        code = KIND_CODES[kind]
        wire = self._wire_of_local.get(code)
        schema = SCHEMAS[kind]
        for field_index, (name, typ) in enumerate(schema):
            if name == field:
                break
        else:
            raise KeyError(f"{kind} has no column {field!r}")
        out = array(_ARRAY_TYPE[typ])
        if wire is None:  # the writer's vocabulary lacks this kind
            return out
        key = _column_key(wire, field_index)
        for offset, _n in self.batches():
            _ops, sections = self._batch_dir(offset)
            entry = sections.get(key)
            if entry is None:
                continue  # no rows of this kind in the batch
            part = self._read_section(
                sections, key, entry[1], _ARRAY_TYPE[typ]
            )
            if typ == ENUM:
                raw = part.tobytes()
                if raw and max(raw) >= len(self._vocab.branches):
                    raise TraceFormatError("undeclared branch kind in batch")
                if self._vocab.branch_map is not None:
                    raw = raw.translate(self._vocab.branch_map)
                part = array("B", raw)
            out += part
        return out

    def symbols(self) -> List[str]:
        """The interned string table, by side-table frame offsets."""
        out = []
        for offset in self.footer.get("symbol_frames", []):
            tag, payload = self._frame_at(offset)
            if tag != TAG_SYM:
                raise TraceFormatError(
                    f"footer symbol entry at byte {offset} is not a "
                    "symbol frame"
                )
            out.append(payload.decode("utf-8"))
        return out

    def addresses(self) -> List[tuple]:
        out = []
        for offset in self.footer.get("address_frames", []):
            tag, payload = self._frame_at(offset)
            if tag != TAG_ADDR:
                raise TraceFormatError(
                    f"footer address entry at byte {offset} is not an "
                    "address frame"
                )
            out.append(tuple(self._json(payload, "address")))
        return out

    def tasks(self) -> List[TaskInfo]:
        out = []
        for offset in self.footer.get("task_frames", []):
            tag, payload = self._frame_at(offset)
            if tag != TAG_TASK:
                raise TraceFormatError(
                    f"footer task entry at byte {offset} is not a task frame"
                )
            out.append(TaskInfo.from_dict(self._json(payload, "task")))
        return out

    @property
    def bytes_skipped(self) -> int:
        return max(0, self.file_bytes - self.bytes_read)

    def stats(self) -> DecodeStats:
        return DecodeStats(
            version=3,
            frames=self._frames_read,
            batches=len(self._dirs),
            columns_adopted=self.columns_mapped,
            bytes_read=self.bytes_read,
            bytes_skipped=self.bytes_skipped,
        )
