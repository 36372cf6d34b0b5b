"""Trace (de)serialization — versioned, streaming, gzip-able.

The on-device CAFA prototype streams trace records through a kernel
logger device and reads them back over ADB (Section 5.1).  Our stand-in
comes in three versions:

* **v1** (legacy JSONL): a header line, one ``{"task_info": ...}`` line
  per task, then one self-describing ``{"op": {...}}`` dict per
  operation.  Verbose but diff-friendly; still readable and writable.
* **v2** (default JSONL): the same header/task lines, then positional
  array records.  ``["s", text]`` defines the next string symbol id,
  ``["a", [scope, owner, field]]`` the next address id, and
  ``["o", kind, time, task_sym, payload...]`` one operation whose
  payload layout is the kind's column schema
  (:data:`repro.trace.store.SCHEMAS`).  The header carries the kind
  code table, so a reader never guesses at positional meanings.  The
  reader scans each line in place with the ``json`` C scanner, checks
  each op record, and lands the ops of every feed as one column batch
  (:meth:`~repro.trace.store.TraceStore.adopt_batch`).
* **v3** (binary, :mod:`repro.trace.binary`): the same header and
  interning model as v2, but length-prefixed binary frames whose op
  batches are on-disk columnar segments, loaded with
  ``array.frombytes``, and whose symbols, addresses and task records
  travel in a few JSON table frames.  Written/read through the same
  entry points here (``save_trace_file(..., version=3)`` and plain
  ``load_trace_file``, which sniffs text vs binary from the first
  byte).

One decoder reads them all: :class:`AnyTraceDecoder` sniffs the
format (or a single-session envelope, :mod:`repro.trace.envelope`)
from the first byte and hands the bytes to a parser that only parses —
the v1/v2 line scanner here, the v3 frame parser in
:mod:`repro.trace.binary`.  The decoder owns what the formats share:
the live trace, header negotiation, task records, the stream's symbol
and address tables, salvage, and the end-of-stream checks.  Task
records of every format land through one bulk method
(:meth:`AnyTraceDecoder._add_tasks`: a v3 table frame's records at
once, a v1/v2 line's or an older v3 task frame's one at a time), which
refuses a repeated task id.  Every v2
and v3 op reaches the store through one
:meth:`~repro.trace.store.TraceStore.adopt_batch` call per feed (v2)
or batch (v3), its ids translated by
:func:`~repro.trace.store.remap_batch` (a v3 stream's ids are the
store's until the trace is first swapped); v1 records append one at a
time.  :meth:`AnyTraceDecoder.feed` is the decoder's one way in; the
loaders read their input through the chunk reader
(:func:`~repro.trace.reader.tail_chunks`), feed each read, and finish
the decoder, which runs the end-of-stream checks.  All writers stream
in constant transient memory (live state is the interning tables,
which grow with the number of *distinct* symbols, not with trace
length), and every version is
transparently gzip-compressed when the file path ends in ``.gz``.
``load_trace`` auto-negotiates the version from the header;
:func:`convert_trace_file` transcodes any version to any other through
the same decode: it writes each feed's ops out, then hands the decoder
a fresh trace.
"""

from __future__ import annotations

import codecs
import gzip
import io
import json
import os
import secrets
from array import array
from itertools import islice
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

from ..obs.spans import span
from .binary import MAGIC_V3, TraceWriterV3, _FrameParser
from .envelope import MUX_FIRST_BYTE, MuxDecoder
from .operations import OpKind, operation_from_dict
from .reader import _open_binary_for, tail_chunks
from .store import (
    ADDR,
    BOOL,
    ENUM,
    INT,
    KIND_CODES,
    KIND_LIST,
    OPT_INT,
    STR,
    DecodeStats,
    _ARRAY_TYPE,
    _BRANCH_INDEX,
    _NONE,
    _SCHEMA_LIST,
    remap_batch,
)
from .trace import StreamDamageError, TaskInfo, Trace, TraceError, TraceFormatError

FORMAT_NAME = "cafa-trace"
#: the version new files are written in
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2, 3)
#: the line-oriented JSON subset of :data:`SUPPORTED_VERSIONS`
TEXT_VERSIONS = (1, 2)

#: per kind code, the payload column types in schema order
_TYPE_LIST = tuple(tuple(typ for _name, typ in schema) for schema in _SCHEMA_LIST)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _V1Writer:
    """Streaming v1 writer, byte-identical to the original v1 dumper.

    Shares the shape of :class:`repro.trace.binary.TraceWriterV3`
    (``write_task``/``write_row``/``finish``), which is what lets
    saving and :func:`convert_trace_file` drive every output format
    through one code path.
    """

    version = 1

    def __init__(self, fp: IO[str], tasks: int = 0, ops: int = 0) -> None:
        self._fp = fp
        fp.write(
            json.dumps(
                {
                    "format": FORMAT_NAME,
                    "version": 1,
                    "tasks": tasks,
                    "ops": ops,
                }
            )
            + "\n"
        )

    def write_task(self, info: Dict[str, Any]) -> None:
        self._fp.write(json.dumps({"task_info": info}) + "\n")

    def write_row(self, code: int, time: int, task: str, values) -> None:
        # Reproduce Operation.to_dict key order exactly: kind, then the
        # dataclass fields (task/time first, payload in schema order —
        # store._check_schemas pins schema order to declaration order).
        out: Dict[str, Any] = {
            "kind": KIND_LIST[code].value,
            "task": task,
            "time": time,
        }
        for (name, typ), value in zip(_SCHEMA_LIST[code], values):
            if typ == ENUM:
                value = value.value
            elif typ == ADDR:
                value = list(value)
            out[name] = value
        self._fp.write(json.dumps({"op": out}) + "\n")

    def finish(self) -> None:
        pass


class _V2Writer:
    """Streaming v2 writer, byte-identical to the original v2 dumper."""

    version = 2

    def __init__(self, fp: IO[str], tasks: int = 0, ops: int = 0) -> None:
        self._fp = fp
        self._compact = json.JSONEncoder(separators=(",", ":")).encode
        self._sym_ids: dict = {}
        self._addr_ids: dict = {}
        fp.write(
            json.dumps(
                {
                    "format": FORMAT_NAME,
                    "version": 2,
                    "tasks": tasks,
                    "ops": ops,
                    "kinds": [kind.value for kind in KIND_LIST],
                }
            )
            + "\n"
        )

    def _sym(self, value: str) -> int:
        sid = self._sym_ids.get(value)
        if sid is None:
            sid = self._sym_ids[value] = len(self._sym_ids)
            self._fp.write(self._compact(["s", value]) + "\n")
        return sid

    def _addr(self, value) -> int:
        key = tuple(value)
        aid = self._addr_ids.get(key)
        if aid is None:
            aid = self._addr_ids[key] = len(self._addr_ids)
            self._fp.write(self._compact(["a", list(key)]) + "\n")
        return aid

    def write_task(self, info: Dict[str, Any]) -> None:
        self._fp.write(json.dumps({"task_info": info}) + "\n")

    def write_row(self, code: int, time: int, task: str, values) -> None:
        rec: List[Any] = ["o", code, time, self._sym(task)]
        for (_name, typ), value in zip(_SCHEMA_LIST[code], values):
            if typ == STR:
                rec.append(self._sym(value))
            elif typ == ADDR:
                rec.append(self._addr(value))
            elif typ == BOOL:
                rec.append(1 if value else 0)
            elif typ == ENUM:
                rec.append(self._sym(value.value))
            else:  # INT / OPT_INT: ints and None pass through as JSON
                rec.append(value)
        self._fp.write(self._compact(rec) + "\n")

    def finish(self) -> None:
        pass


def _make_writer(fp, version: int, tasks: int, ops: int):
    """A streaming writer (text or binary ``fp`` to match ``version``)."""
    if version == 1:
        return _V1Writer(fp, tasks=tasks, ops=ops)
    if version == 2:
        return _V2Writer(fp, tasks=tasks, ops=ops)
    if version == 3:
        return TraceWriterV3(fp, tasks=tasks, ops=ops)
    raise TraceError(f"cannot write trace version {version!r}")


def _write_records(trace: Trace, writer, first_task: int = 0) -> None:
    """Write ``trace``'s task records from ``first_task`` on, then its
    ops."""
    for info in islice(trace.tasks.values(), first_task, None):
        writer.write_task(info.to_dict())
    for code, time, task, values in trace.store.rows_encoded():
        writer.write_row(code, time, task, values)


def _dump_via_writer(trace: Trace, writer) -> None:
    _write_records(trace, writer)
    writer.finish()


def dump_trace(trace: Trace, fp: IO[str], version: int = FORMAT_VERSION) -> None:
    """Write ``trace`` to a *text* stream in JSONL format (v1/v2).

    ``version`` selects the on-disk format; both text versions stream
    one line at a time and never hold the serialized trace in memory.
    Version 3 is binary — use :func:`dump_trace_binary` or
    :func:`save_trace_file`, which dispatches on version.
    """
    if version == 3:
        raise TraceError(
            "cannot write trace version 3 to a text stream; "
            "use dump_trace_binary or save_trace_file"
        )
    if version not in TEXT_VERSIONS:
        raise TraceError(f"cannot write trace version {version!r}")
    writer = _make_writer(fp, version, tasks=len(trace.tasks), ops=len(trace))
    _dump_via_writer(trace, writer)


def dump_trace_binary(trace: Trace, fp: IO[bytes]) -> None:
    """Write ``trace`` to a binary stream in the v3 framed format."""
    writer = _make_writer(fp, 3, tasks=len(trace.tasks), ops=len(trace))
    _dump_via_writer(trace, writer)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


#: the ``json`` C scanner: ``(value, end)`` of the one JSON value that
#: starts at an offset, with none of ``json.loads``' whitespace handling
_scan_value = json.JSONDecoder().scan_once

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: branch-kind wire name -> the store's enum index
_BRANCH_OF_NAME = {kind.value: index for kind, index in _BRANCH_INDEX.items()}


class _TextParser:
    """The v1/v2 line scanner of :class:`AnyTraceDecoder`.

    The header and v1 records decode one line at a time.  A v2 body is
    scanned in place: the ``json`` C scanner reads each complete line
    at its offset in the buffer, each op record is checked
    (:meth:`_check_op`), and a feed's ops gather into per-kind column
    arrays of stream ids.  They reach the decoder's :meth:`_adopt
    <AnyTraceDecoder._adopt>` in one batch when the text is used up or
    a line fails, so the ops of the lines before a damaged one are
    stored before its error is raised.  Branch kinds map straight to
    their enum index.
    """

    versions = TEXT_VERSIONS
    #: the text formats declare their counts in the header alone
    footer = None

    def __init__(self) -> None:
        #: the unterminated tail of the text fed so far
        self.buffer = ""
        #: offset in the text being parsed where its unread tail starts
        self.taken = 0
        #: v2 wire kind code -> (local kind code, payload types, arity)
        self.plans: Dict[int, Tuple[int, Tuple[str, ...], int]] = {}

    @staticmethod
    def unsupported(version: Any) -> str:
        if version == 3:
            return (
                "trace version 3 is binary, but this is a text stream; "
                "the file was probably re-encoded or damaged"
            )
        return f"unsupported trace version {version!r}"

    def tables(self, record: dict, codes: List[int]) -> None:
        for wire, code in enumerate(codes):
            types = _TYPE_LIST[code]
            self.plans[wire] = (code, types, 4 + len(types))

    def parse(self, decoder: "AnyTraceDecoder", chunk: str) -> None:
        """Decode every complete line of the buffered text and
        ``chunk``: the header and v1 records one at a time, a v2 body
        through :meth:`_scan`.  An unterminated tail stays buffered."""
        text = self.buffer + chunk
        self.taken = 0
        try:
            while not self.plans:
                cut = text.find("\n", self.taken)
                if cut < 0:
                    return
                line = text[self.taken:cut].strip()
                self.taken = cut + 1
                decoder._frames += 1
                if line:
                    self._line(decoder, line)
            self._scan(decoder, text)
        finally:
            # the unconsumed tail, stored once per feed; an error leaves
            # it just past the failing line
            self.buffer = text[self.taken:]

    def cut_short(self, decoder: "AnyTraceDecoder") -> Optional[TraceFormatError]:
        """The error for a buffered line that never got its newline, if
        any; the line is dropped."""
        if not self.buffer:
            return None
        self.buffer = ""
        return TraceFormatError(
            "stream ends mid-line; the unterminated final record "
            "cannot be trusted",
            line=decoder._frames + 1,
        )

    def check_end(self, decoder: "AnyTraceDecoder") -> None:
        """A text stream needs no end marker: a complete final line is
        its end."""

    def _line(self, decoder: "AnyTraceDecoder", line: str) -> None:
        lineno = decoder._frames
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise TraceFormatError(f"invalid JSON: {exc}", line=lineno) from None
        if decoder.header is None:
            decoder._take_header(record)
            return
        decoder.records += 1
        try:
            if isinstance(record, dict) and "task_info" in record:
                decoder._add_tasks(
                    [TaskInfo.from_dict(record["task_info"])], line=lineno
                )
            elif isinstance(record, dict) and "op" in record:
                decoder.trace.append(operation_from_dict(record["op"]))
                decoder._ops_decoded += 1
            else:
                raise TraceFormatError(
                    f"unrecognized trace record: {record!r}", line=lineno
                )
        except TraceFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"corrupt trace record {record!r} "
                f"({exc.__class__.__name__}: {exc})",
                line=lineno,
            ) from None

    def _scan(self, decoder: "AnyTraceDecoder", text: str) -> None:
        """Decode the v2 records on the complete lines of ``text`` from
        :attr:`taken` on."""
        scan, find = _scan_value, text.find
        symbols = decoder._symbols
        check = self._check_op
        kinds = bytearray()
        times = array("q")
        task_ids = array("i")
        columns: Dict[int, List[array]] = {}
        kinds_append, times_append = kinds.append, times.append
        task_ids_append = task_ids.append
        pos, lineno, records = self.taken, decoder._frames, decoder.records
        try:
            while True:
                cut = find("\n", pos)
                if cut < 0:
                    return
                lineno += 1
                try:
                    record, end = scan(text, pos)
                except (StopIteration, ValueError):
                    end = -1
                if end != cut:
                    # a blank line, or leading blanks, trailing data, a
                    # value running past its newline, a parse error:
                    # the whole line goes through json.loads
                    line = text[pos:cut].strip()
                    pos = cut + 1
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError as exc:
                        raise TraceFormatError(
                            f"invalid JSON: {exc}", line=lineno
                        ) from None
                else:
                    pos = cut + 1
                records += 1
                try:
                    tag = record[0] if type(record) is list and record else None
                    if tag == "o":
                        code, types = check(decoder, record, lineno)
                        times_append(record[2])
                        task_ids_append(record[3])
                        if types:
                            cols = columns.get(code)
                            if cols is None:
                                cols = columns[code] = [
                                    array(_ARRAY_TYPE[typ]) for typ in types
                                ]
                            for typ, col, raw in zip(types, cols, record[4:]):
                                if typ == OPT_INT:
                                    col.append(_NONE if raw is None else raw)
                                elif typ == ENUM:
                                    col.append(_BRANCH_OF_NAME[symbols[raw]])
                                else:  # stream ids, integers, 0/1 booleans
                                    col.append(raw)
                        kinds_append(code)
                    elif tag == "s":
                        if type(record[1]) is not str:
                            raise ValueError("a symbol is a string")
                        symbols.append(record[1])
                    elif tag == "a":
                        if type(record[1]) is not list or len(record[1]) != 3:
                            raise ValueError("an address is a 3-element list")
                        value = tuple(record[1])
                        hash(value)  # it must intern
                        decoder._addresses.append(value)
                    elif type(record) is dict and "task_info" in record:
                        decoder._add_tasks(
                            [TaskInfo.from_dict(record["task_info"])], line=lineno
                        )
                    else:
                        raise TraceFormatError(
                            f"unrecognized trace record: {record!r}", line=lineno
                        )
                except TraceFormatError:
                    raise
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    raise TraceFormatError(
                        f"corrupt trace record {record!r} "
                        f"({exc.__class__.__name__}: {exc})",
                        line=lineno,
                    ) from None
        finally:
            self.taken, decoder._frames, decoder.records = pos, lineno, records
            if kinds:
                decoder._adopt(kinds, times, task_ids, columns)
                decoder._ops_decoded += len(kinds)

    def _check_op(
        self, decoder: "AnyTraceDecoder", record: list, line: int
    ) -> Tuple[int, Tuple[str, ...]]:
        """The checks an ``["o", kind, time, task, payload...]`` record
        passes before it is stored: a kind the header declared, the
        kind's arity, 64-bit integers, ids of symbols and addresses
        defined so far, 0/1 booleans and branch kinds.  Returns the
        kind's local code and payload types."""
        wire = record[1] if len(record) > 1 else None
        plan = self.plans.get(wire) if type(wire) is int else None
        if plan is None:
            raise TraceFormatError(
                f"op record with undeclared kind code: {record!r}", line=line
            )
        code, types, arity = plan
        if len(record) != arity:
            raise TraceFormatError(f"malformed op record: {record!r}", line=line)
        symbols = decoder._symbols
        n_syms = len(symbols)
        time, task = record[2], record[3]
        if type(time) is not int or not _I64_MIN <= time <= _I64_MAX:
            problem = "time is not a 64-bit integer"
        elif type(task) is not int or not 0 <= task < n_syms:
            problem = "task is not a defined symbol id"
        else:
            for k, typ in enumerate(types, 4):
                raw = record[k]
                if typ == STR:
                    if type(raw) is int and 0 <= raw < n_syms:
                        continue
                    problem = "is not a defined symbol id"
                elif typ == INT or typ == OPT_INT:
                    if (type(raw) is int and _I64_MIN <= raw <= _I64_MAX) or (
                        raw is None and typ == OPT_INT
                    ):
                        continue
                    problem = "is not a 64-bit integer"
                elif typ == ADDR:
                    if type(raw) is int and 0 <= raw < len(decoder._addresses):
                        continue
                    problem = "is not a defined address id"
                elif typ == BOOL:
                    if raw in (0, 1) and type(raw) in (int, bool):
                        continue
                    problem = "is not 0 or 1"
                else:  # ENUM
                    if (
                        type(raw) is int
                        and 0 <= raw < n_syms
                        and symbols[raw] in _BRANCH_OF_NAME
                    ):
                        continue
                    problem = "is not the symbol id of a branch kind"
                problem = f"{_SCHEMA_LIST[code][k - 4][0]} {problem}"
                break
            else:
                return code, types
        raise TraceFormatError(
            f"corrupt trace record {record!r} ({problem})", line=line
        )


class AnyTraceDecoder:
    """Push-based incremental decoder for every trace format: text
    v1/v2, binary v3, or a single-session mux envelope of either.

    The first byte decides: ``0x93`` (the v3 magic's first byte,
    invalid as UTF-8 and as JSON) selects the v3 frame parser
    (:mod:`repro.trace.binary`), ``0x9e`` (the session-envelope magic,
    :mod:`repro.trace.envelope`) unwraps a *single* session's frames and
    sniffs their payload the same way, and anything else selects the
    v1/v2 line scanner (:class:`_TextParser`).  Callers therefore tail
    files and pipes without knowing what was recorded into them.
    :meth:`feed` accepts ``bytes`` (sniffed; text is decoded
    incrementally as UTF-8) or ``str`` (text formats only, e.g. a
    text stream's pieces), in pieces of any size.

    The parsers only parse; this class owns what the formats share.
    Records decode straight into :attr:`trace`, which is live from
    construction and readable at any point between feeds — the
    streaming service attaches its analyses to it.  Header negotiation,
    task records, the stream symbol and address tables, the landing of
    every v2 and v3 batch (:meth:`_adopt`), salvage, :meth:`flush` and
    :meth:`finish` with the header count checks, and the decode
    counters are this class's.  Stream symbol and address ids map to
    store ids through lists that start over when :attr:`trace` is
    assigned (the service's epoch hand-off).

    ``strict`` selects the failure mode for damaged input.  Under
    ``strict=True`` (the default) any malformed, corrupted, or truncated
    record raises :class:`TraceFormatError` naming the line or byte
    offset.  Under ``strict=False`` — the degraded path for
    crash-truncated sessions — decoding stops at the first damaged
    record instead: the error is recorded on :attr:`error`,
    :attr:`degraded` flips true, later input is ignored, and
    :attr:`trace` holds the valid prefix.  Either way the ops of the
    records before the damaged one are in :attr:`trace` first.  Header
    problems (missing, foreign format, unsupported version) always
    raise, even in salvage mode: without a header there is no prefix
    worth keeping.  So does a second session id in an envelope, which
    points at the tools that demultiplex (``repro serve`` and
    :class:`~repro.stream.SessionRouter`); a frame after the session's
    END frame is damage.
    """

    def __init__(
        self,
        expect_version: Optional[int] = None,
        strict: bool = True,
    ):
        self.expect_version = expect_version
        self.strict = strict
        self.header: Optional[dict] = None
        self.error: Optional[TraceFormatError] = None
        #: body records decoded so far (ops + interning defs + task infos)
        self.records = 0
        self._trace = Trace()
        #: the format's parser, picked by the first payload byte
        self._parser: Any = None
        self._utf8 = None  # incremental decoder once sniffed as text
        #: a single-session envelope's frame decoder, its session id,
        #: and whether the session's END frame has arrived
        self._mux: Optional[MuxDecoder] = None
        self._session: Optional[str] = None
        self._ended = False
        self._version = 0
        self._symbols: List[str] = []
        self._addresses: List[tuple] = []
        #: stream symbol / address id -> id in the trace's store, -1
        #: until a batch first uses it (grown at each batch)
        self._store_syms: List[int] = []
        self._store_addrs: List[int] = []
        #: while True, stream ids below ``_syms_mapped``/``_addrs_mapped``
        #: are their own store ids
        self._identity = True
        self._syms_mapped = 0
        self._addrs_mapped = 0
        # the DecodeStats counters: lines (v1/v2) or frames (v3), v3
        # batches and columns, ops adopted from v3 columns or decoded
        # from text, and characters (v1/v2) or bytes (v3) parsed
        self._frames = self._batches = self._columns = 0
        self._ops_adopted = self._ops_decoded = 0
        self._bytes = 0
        self._tasks = 0

    @property
    def trace(self) -> Trace:
        return self._trace

    @trace.setter
    def trace(self, value: Trace) -> None:
        # store ids belong to one store: map every stream id afresh
        self._trace = value
        self._store_syms = [-1] * len(self._symbols)
        self._store_addrs = [-1] * len(self._addresses)
        self._identity = False

    @property
    def degraded(self) -> bool:
        """True once salvage mode has stopped at a damaged record."""
        return self.error is not None

    def decode_stats(self) -> Optional[DecodeStats]:
        """The decode counters so far; None before the first byte."""
        if self._parser is None:
            return None
        return DecodeStats(
            version=self._version,
            frames=self._frames,
            records=self.records,
            batches=self._batches,
            ops_adopted=self._ops_adopted,
            ops_decoded=self._ops_decoded,
            columns_adopted=self._columns,
            bytes_read=self._bytes,
        )

    # -- feeding -------------------------------------------------------

    def feed(self, chunk: Union[bytes, bytearray, str]) -> int:
        """Sniff (on first data) and decode every complete record of
        the input buffered so far and ``chunk``; returns the ops
        appended.  A trailing partial record stays buffered until the
        next feed (or :meth:`flush`/:meth:`finish`)."""
        with span("trace.decode", bytes=len(chunk)):
            if isinstance(chunk, str):
                if not chunk:
                    return 0
                return self._parse(self._text_parser().parse, chunk)
            if self._parser is None and self._mux is None:
                if chunk[:1] == MUX_FIRST_BYTE:
                    self._mux = MuxDecoder(strict=self.strict)
            if self._mux is not None:
                return self._unwrap(chunk)
            return self._payload(chunk)

    def flush(self) -> int:
        """Rule on buffered input that never completed its line or
        frame.

        The writers terminate every record, so input that ends
        mid-record is truncation evidence — and a byte cut through a
        text record's trailing number can still parse as *valid* JSON
        with a corrupted value, which the header count checks cannot
        always catch.  An unterminated record therefore raises
        :class:`TraceFormatError` under ``strict`` and is discarded
        (marking the decoder degraded) in salvage mode.  Returns the
        ops appended, which is always 0; kept for symmetry with
        :meth:`feed`.

        :meth:`finish` calls this, but a long-running consumer that
        never reaches a definite end of input (the streaming service
        tailing a live file) can flush explicitly without triggering
        the header count checks.
        """
        if self._parser is not None:
            error = self._parser.cut_short(self)
            if error is not None:
                self.mark_damaged(error)
        return 0

    def finish(self) -> Trace:
        """Flush, run the end-of-stream checks (under ``strict``, the
        declared counts), and return the trace."""
        mux = self._mux
        if mux is not None:
            mux.flush()
            # when the payload decoded cleanly, the envelope's damage
            # is the stream's
            if mux.error is not None and self.error in (None, mux.error):
                self.error = StreamDamageError(mux.error)
        parser = self._parser
        if parser is None:
            raise TraceError("empty trace stream")
        if self._utf8 is not None:
            try:
                self._utf8.decode(b"", final=True)
            except UnicodeDecodeError as exc:
                self.mark_damaged(StreamDamageError(exc))
        self.flush()
        parser.check_end(self)
        if self.header is None:
            raise TraceError("empty trace stream")
        if self.strict:
            ops = self._ops_adopted + self._ops_decoded
            footer = parser.footer or {}
            for what, source, declared, seen in (
                ("task", "header", self.header.get("tasks"), self._tasks),
                ("op", "header", self.header.get("ops"), ops),
                ("op", "footer", footer.get("ops"), ops),
            ):
                if declared is not None and declared != seen:
                    raise TraceFormatError(
                        f"{what} count mismatch: {source} says {declared}, "
                        f"stream has {seen}"
                    )
        self._trace.decode_stats = self.decode_stats()
        return self._trace

    def mark_damaged(self, error: TraceFormatError) -> None:
        """Meet damage found outside a record's parse (a truncated gzip
        member the chunk reader names, a record cut short at the end, an
        envelope frame after END): raise it under ``strict``; in salvage
        mode keep the first damage and ignore later input."""
        if self.strict:
            raise error from None
        if self.error is None:
            self.error = error

    # -- the shared decode ----------------------------------------------

    def _start(self, first: bytes) -> None:
        """Pick the parser the stream's first byte selects."""
        if first == MAGIC_V3[:1]:
            self._parser = _FrameParser()
        else:
            self._parser = _TextParser()
            self._utf8 = codecs.getincrementaldecoder("utf-8")()

    def _text_parser(self) -> _TextParser:
        """The parser text handed in as ``str`` goes to."""
        if self._parser is None and self._mux is None:
            self._start(b"")
        if self._mux is not None or self._utf8 is None:
            raise TraceError(
                "cannot feed text into a binary (v3 or enveloped) "
                "trace stream"
            )
        return self._parser

    def _unwrap(self, chunk) -> int:
        """Decode the frames of a single-session envelope: each DATA
        payload is the next piece of the session's trace stream."""
        mux = self._mux
        appended = 0
        for event in mux.feed(chunk):
            if event[0] == "finish":
                continue
            sid = event[1]
            if self._session is None:
                self._session = sid
            elif sid != self._session:
                raise TraceError(
                    f"multiplexed trace stream carries multiple sessions "
                    f"({self._session!r} and {sid!r}); a single-trace reader "
                    "cannot demultiplex it — use 'repro serve' or "
                    "repro.stream.SessionRouter"
                )
            if self._ended:
                self.mark_damaged(
                    TraceFormatError(
                        f"mux frame for session {sid!r} after its END frame"
                    )
                )
                break
            if event[0] == "end":
                self._ended = True
            else:
                appended += self._payload(event[2])
        if mux.error is not None and self.error is None:
            self.error = mux.error
        return appended

    def _payload(self, data) -> int:
        """Decode the next bytes of the trace stream itself."""
        if not data:
            return 0
        if self._parser is None:
            self._start(data[:1])
        if self._utf8 is None:
            return self._parse(self._parser.parse, bytes(data))
        try:
            text = self._utf8.decode(bytes(data))
        except UnicodeDecodeError as exc:
            self.mark_damaged(StreamDamageError(exc))
            return 0
        return self._parse(self._parser.parse, text)

    def _parse(self, step: Callable[[Any, Any], None], data) -> int:
        """Run the parser ``step`` over ``data``; returns the ops it
        appended.  In salvage mode, damage after the header stops the
        decode here."""
        if self.error is not None:
            return 0
        self._bytes += len(data)
        before = self._ops_adopted + self._ops_decoded
        try:
            step(self, data)
        except TraceFormatError as exc:
            if self.strict or self.header is None:
                raise
            self.error = exc
        return self._ops_adopted + self._ops_decoded - before

    def _take_header(self, record: Any) -> None:
        """Negotiate the header: the format name, a version the
        parser's encoding carries, :attr:`expect_version`, and from v2
        on the kind table.  Positions in the kind table define the wire
        codes, so a file written under a different (e.g. future,
        reordered) vocabulary still decodes — or fails loudly on a kind
        this reader does not know."""
        if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
            raise TraceError(f"not a {FORMAT_NAME} stream: {record!r}")
        version = record.get("version")
        parser = self._parser
        if version not in parser.versions:
            raise TraceError(parser.unsupported(version))
        if self.expect_version is not None and version != self.expect_version:
            raise TraceError(
                f"expected trace version {self.expect_version}, "
                f"stream is version {version}"
            )
        codes: List[int] = []
        if version > 1:  # v1 op records name their kinds
            names = record.get("kinds")
            if not isinstance(names, list) or not names:
                raise TraceError(f"v{version} stream header lacks its kind table")
            for name in names:
                try:
                    codes.append(KIND_CODES[OpKind(name)])
                except ValueError:
                    raise TraceError(
                        f"unknown operation kind {name!r} in header"
                    ) from None
        parser.tables(record, codes)
        self._version = version
        self.header = record

    def _add_tasks(
        self, infos: List[TaskInfo], line: Optional[int] = None, where: str = ""
    ) -> None:
        """Add task records, in order: all of them, or, when one
        repeats a task id (of the trace or of an earlier record in
        ``infos``), none, and the repeat is damage."""
        tasks = self._trace.tasks
        new = {info.task: info for info in infos}
        if len(new) < len(infos) or not new.keys().isdisjoint(tasks.keys()):
            seen = set(tasks)
            for info in infos:
                if info.task in seen:
                    raise TraceFormatError(
                        f"duplicate task id {info.task!r}{where}", line=line
                    )
                seen.add(info.task)
        tasks.update(new)
        self._tasks += len(new)

    def _adopt(
        self,
        kinds: bytes,
        times: array,
        task_ids: array,
        columns: Dict[int, List[array]],
        tops: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Land one column batch, still in stream ids, in the store.

        A batch that brings ``tops`` (its largest symbol and address
        ids; v3) is adopted untranslated while
        :meth:`_intern_identically` holds, which it can only until the
        first swap of :attr:`trace`.  Any other batch has its ids
        translated by :func:`~repro.trace.store.remap_batch`, the
        helper :meth:`~repro.trace.store.TraceStore.adopt_tail` uses, so
        the store interns only the values its ops use, in ascending
        stream-id order.  v2 batches always translate: a v2 symbol
        table also names branch kinds, which no store interns.
        """
        store = self._trace.store
        # map the symbols and addresses defined since the last batch
        self._store_syms += [-1] * (len(self._symbols) - len(self._store_syms))
        self._store_addrs += [-1] * (len(self._addresses) - len(self._store_addrs))
        if self._identity:
            self._identity = tops is not None and self._intern_identically(
                store, *tops
            )
        if not self._identity:
            task_ids, columns = remap_batch(
                task_ids,
                columns,
                store,
                (self._store_syms, self._symbols.__getitem__),
                (self._store_addrs, self._addresses.__getitem__),
            )
        store.adopt_batch(kinds, times, task_ids, columns)

    def _intern_identically(self, store, top_sym: int, top_addr: int) -> bool:
        """Intern the stream values up to a batch's largest ids, in
        stream order; True while each lands on its own stream id.

        Our writers define each value on first use, so stream order is
        first-use order and the store's tables come out as a row-by-row
        append would leave them.
        """
        for values, store_ids, mapped, top, table in (
            (self._symbols, self._store_syms, self._syms_mapped, top_sym,
             store.symbols),
            (self._addresses, self._store_addrs, self._addrs_mapped,
             top_addr, store.addresses),
        ):
            intern = table.intern
            for i in range(mapped, top + 1):
                sid = store_ids[i] = intern(values[i])
                if sid != i:
                    return False
        self._syms_mapped = max(self._syms_mapped, top_sym + 1)
        self._addrs_mapped = max(self._addrs_mapped, top_addr + 1)
        return True


def load_trace(
    fp,
    expect_version: Optional[int] = None,
    strict: bool = True,
) -> Trace:
    """Read a trace previously written by :func:`dump_trace` /
    :func:`dump_trace_binary`.

    ``fp`` may be a text or a binary stream, read through the chunk
    reader (:func:`~repro.trace.reader.tail_chunks`); the format
    version is negotiated from the first bytes (pass ``expect_version``
    to *require* one — the CLI's ``--format`` flag).

    Damaged input — truncated files (including one that merely ends
    mid-line or mid-frame: the writers terminate every record, so a
    missing terminator is truncation evidence), mid-record corruption,
    a gzip member cut short — raises :class:`TraceFormatError`.  Pass
    ``strict=False`` to *salvage* instead: decoding stops at the first
    damaged record and the valid prefix is returned (crash-truncated
    sessions still analyze, just on fewer events).  Header problems
    always raise.
    """
    decoder = AnyTraceDecoder(expect_version=expect_version, strict=strict)
    return _decode_stream(decoder, fp)


def _decode_stream(
    decoder: "AnyTraceDecoder",
    source,
    after_feed: Optional[Callable[[], None]] = None,
) -> Trace:
    """Feed ``source`` (a path, or an open text or binary stream) to
    ``decoder`` a read at a time through the chunk reader, then finish
    it; ``after_feed`` runs after every feed and after the finish
    (:func:`convert_trace_file` writes out and drops what each feed
    decoded)."""
    after_feed = after_feed or (lambda: None)
    try:
        for chunk in tail_chunks(source):
            decoder.feed(chunk)
            after_feed()
            if decoder.degraded:
                break
    except StreamDamageError as exc:
        decoder.mark_damaged(exc)
    trace = decoder.finish()
    after_feed()
    return trace


# ---------------------------------------------------------------------------
# File and string entry points
# ---------------------------------------------------------------------------


def _open_for(path: Union[str, Path], mode: str) -> IO[str]:
    """Text stream for ``path``; transparently gzip on a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace_file(
    trace: Trace, path: Union[str, Path], version: int = FORMAT_VERSION
) -> None:
    """Save a trace to ``path`` (overwrites; gzip when it ends in .gz).

    ``version`` dispatches between the text formats (1/2) and the
    binary v3 format.
    """
    if version == 3:
        with _open_binary_for(path, "w") as fp:
            dump_trace_binary(trace, fp)
        return
    with _open_for(path, "w") as fp:
        dump_trace(trace, fp, version=version)


def load_trace_file(
    path: Union[str, Path],
    expect_version: Optional[int] = None,
    strict: bool = True,
) -> Trace:
    """Load a trace from ``path`` (gzip when it ends in .gz).

    Text v1/v2 and binary v3 are sniffed automatically.
    ``strict=False`` salvages the valid prefix of a damaged file; see
    :func:`load_trace`.
    """
    decoder = AnyTraceDecoder(expect_version=expect_version, strict=strict)
    return _decode_stream(decoder, path)


def dumps_trace(trace: Trace, version: int = FORMAT_VERSION) -> str:
    """Serialize a trace to a string (text formats only)."""
    buf = io.StringIO()
    dump_trace(trace, buf, version=version)
    return buf.getvalue()


def dumps_trace_bytes(trace: Trace, version: int = FORMAT_VERSION) -> bytes:
    """Serialize a trace to bytes (any version; text is UTF-8)."""
    if version == 3:
        buf = io.BytesIO()
        dump_trace_binary(trace, buf)
        return buf.getvalue()
    return dumps_trace(trace, version=version).encode("utf-8")


def loads_trace(
    data: Union[str, bytes],
    expect_version: Optional[int] = None,
    strict: bool = True,
) -> Trace:
    """Deserialize a trace from a string or bytes.

    ``strict=False`` salvages the valid prefix of a damaged stream; see
    :func:`load_trace`.
    """
    stream = io.StringIO(data) if isinstance(data, str) else io.BytesIO(data)
    return load_trace(stream, expect_version=expect_version, strict=strict)


# ---------------------------------------------------------------------------
# Transcoding
# ---------------------------------------------------------------------------


class ConvertStats:
    """What :func:`convert_trace_file` did (surfaced by ``repro convert``)."""

    __slots__ = (
        "source_version", "target_version", "tasks", "ops", "salvaged", "error"
    )

    def __init__(self) -> None:
        self.source_version = 0
        self.target_version = 0
        self.tasks = 0
        self.ops = 0
        self.salvaged = False
        self.error: Optional[str] = None


class _Transcode:
    """One decode of a trace file, written out feed by feed.

    After each feed, the task records and ops it decoded go to the
    writer that ``make_writer(header)`` returns (none on a counting
    pass), and the decoder gets a fresh trace whose task table keeps
    only the ids of the tasks read so far: one feed's ops and task
    records are in memory at a time, and a repeated task record still
    fails the loaders' duplicate check.
    """

    def __init__(self, src, strict: bool, make_writer=None) -> None:
        self.decoder = AnyTraceDecoder(strict=strict)
        self.writer = None
        self.tasks = 0
        self.ops = 0
        self._make_writer = make_writer
        _decode_stream(self.decoder, src, self._drain)

    def _drain(self) -> None:
        decoder = self.decoder
        trace = decoder.trace
        writer = self.writer
        if writer is None and self._make_writer is not None and decoder.header:
            writer = self.writer = self._make_writer(decoder.header)
        if writer is not None:
            _write_records(trace, writer, self.tasks)
        self.tasks = len(trace.tasks)
        self.ops += len(trace)
        fresh = Trace()
        fresh.tasks = dict.fromkeys(trace.tasks)
        decoder.trace = fresh


def convert_trace_file(
    src: Union[str, Path],
    dst: Union[str, Path],
    version: int = FORMAT_VERSION,
    strict: bool = True,
) -> ConvertStats:
    """Transcode ``src`` (any readable version, ``.gz`` or plain) into
    ``dst`` at ``version``, streaming.

    ``src`` decodes through the loaders' path and checks, a feed at a
    time: each feed's new task records and ops are written out, then
    dropped, so a corpus-scale file converts holding one feed's ops
    plus the task and interning tables.  Rows keep their order, so
    interning ids are assigned identically and the output is
    byte-identical to a direct ``save_trace_file`` of the same trace at
    the same version.

    Damaged input fails as :func:`load_trace` fails, and leaves ``dst``
    as it was: the output goes to a temporary file beside ``dst``
    (with its suffix, so ``.gz`` still selects gzip, and ``dst``'s name
    in the gzip header) that replaces ``dst`` only once written.
    ``strict=False`` salvages a damaged source: the valid prefix is
    converted (a first counting pass sizes the salvaged prefix so the
    output header carries *correct* counts and loads strictly).
    """
    if version not in SUPPORTED_VERSIONS:
        raise TraceError(f"cannot write trace version {version!r}")
    counts = None
    if not strict:
        probe = _Transcode(src, strict=False)
        counts = (probe.tasks, probe.ops)

    dst = Path(dst)
    tmp = dst.with_name(f".{dst.name}.{secrets.token_hex(4)}{dst.suffix}")
    try:
        with open(tmp, "xb") as raw:
            out: IO = raw
            if dst.name.endswith(".gz"):
                out = gzip.GzipFile(str(dst), "wb", fileobj=raw)
            if version != 3:
                out = io.TextIOWrapper(out, encoding="utf-8")
            with out:

                def make_writer(header: dict):
                    tasks, ops = counts or (
                        header.get("tasks", 0), header.get("ops", 0)
                    )
                    return _make_writer(out, version, tasks, ops)

                done = _Transcode(src, strict, make_writer)
                if done.writer is not None:
                    done.writer.finish()
        os.replace(tmp, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    stats = ConvertStats()
    stats.source_version = done.decoder.header.get("version", 0)
    stats.target_version = version
    stats.tasks = done.tasks
    stats.ops = done.ops
    if done.decoder.error is not None:
        stats.salvaged = True
        stats.error = str(done.decoder.error)
    return stats
