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
  code table, so a reader never guesses at positional meanings.
* **v3** (binary, :mod:`repro.trace.binary`): the same header and
  interning model as v2, but length-prefixed binary frames whose op
  batches are on-disk columnar segments — ``array.frombytes`` loading
  and mmap column-sparse scans.  Written/read through the same entry
  points here (``save_trace_file(..., version=3)`` and plain
  ``load_trace_file``, which sniffs text vs binary from the first
  byte).

All writers and readers stream in constant transient memory (live
state is the interning tables, which grow with the number of
*distinct* symbols, not with trace length), and every version is
transparently gzip-compressed when the file path ends in ``.gz``.
``load_trace`` auto-negotiates the version from the header;
:func:`convert_trace_file` transcodes any version to any other,
streaming.
"""

from __future__ import annotations

import codecs
import gzip
import io
import json
import zlib
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from ..obs.spans import span
from .operations import BranchKind, OpKind, operation_from_dict
from .store import (
    ADDR,
    BOOL,
    ENUM,
    KIND_CODES,
    KIND_LIST,
    SCHEMAS,
    STR,
    DecodeStats,
)
from .trace import TaskInfo, Trace, TraceError, TraceFormatError

FORMAT_NAME = "cafa-trace"
#: the version new files are written in
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2, 3)
#: the line-oriented JSON subset of :data:`SUPPORTED_VERSIONS`
TEXT_VERSIONS = (1, 2)

_SCHEMA_LIST = tuple(SCHEMAS[kind] for kind in KIND_LIST)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _V1Writer:
    """Streaming v1 writer, byte-identical to the original v1 dumper.

    Shares the sink-ish shape of :class:`repro.trace.binary.TraceWriterV3`
    (``write_task``/``write_row``/``finish``), which is what lets the
    transcoder drive every output format through one code path.
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


def _iter_encoded_rows(trace: Trace):
    """``(kind code, time, task, payload values)`` per op."""
    return trace.store.rows_encoded()


def _make_writer(fp, version: int, tasks: int, ops: int):
    """A streaming writer (text or binary ``fp`` to match ``version``)."""
    if version == 1:
        return _V1Writer(fp, tasks=tasks, ops=ops)
    if version == 2:
        return _V2Writer(fp, tasks=tasks, ops=ops)
    if version == 3:
        from .binary import TraceWriterV3

        return TraceWriterV3(fp, tasks=tasks, ops=ops)
    raise TraceError(f"cannot write trace version {version!r}")


def _dump_via_writer(trace: Trace, writer) -> None:
    for info in trace.tasks.values():
        writer.write_task(info.to_dict())
    for code, time, task, values in _iter_encoded_rows(trace):
        writer.write_row(code, time, task, values)
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


#: decompression/decoding failures that signal a physically truncated
#: or corrupted stream rather than a logically malformed record
_STREAM_DAMAGE = (EOFError, UnicodeDecodeError, gzip.BadGzipFile, zlib.error)


class TraceStreamDecoder:
    """Push-based incremental decoder for the JSONL trace formats.

    Feed raw text as it arrives (:meth:`feed`) or one complete line at
    a time (:meth:`feed_line`); records decode straight into
    :attr:`trace`, which is live and readable at any point between
    feeds — this is what the streaming service tails files with.  Call
    :meth:`finish` at end of input to flush a buffered partial final
    line and run the header count checks.

    ``strict`` selects the failure mode for damaged input.  Under
    ``strict=True`` (the default) any malformed, corrupted, or
    truncated record raises :class:`TraceFormatError` naming the line
    number.  Under ``strict=False`` — the degraded path for
    crash-truncated sessions — decoding stops at the first damaged
    record instead: the error is recorded on :attr:`error`,
    :attr:`degraded` flips true, later feeds are ignored, and
    :attr:`trace` holds the valid prefix.  Header problems (missing,
    foreign format, unsupported version) always raise, even in salvage
    mode: without a header there is no prefix worth keeping.

    A ``sink`` (``on_header(dict)``/``on_task(dict)``/
    ``on_row(code, time, task, values)``) replaces the trace entirely:
    records are decoded and handed over without being stored — the
    constant-memory transcoding path.
    """

    def __init__(
        self,
        expect_version: Optional[int] = None,
        strict: bool = True,
        trace: Optional[Trace] = None,
        sink=None,
    ):
        self.trace = trace if trace is not None else Trace()
        self.expect_version = expect_version
        self.strict = strict
        self.sink = sink
        self.header: Optional[dict] = None
        self.error: Optional[TraceFormatError] = None
        #: body records decoded so far (ops + interning defs + task infos)
        self.records = 0
        self._version = 0
        self._lineno = 0
        self._buffer = ""
        self._chars_fed = 0
        self._ops_seen = 0
        self._tasks_seen = 0
        self._codes: List[int] = []
        self._schemas: List[tuple] = []
        self._symbols: List[str] = []
        self._addresses: List[tuple] = []

    @property
    def degraded(self) -> bool:
        """True once salvage mode has stopped at a damaged record."""
        return self.error is not None

    def decode_stats(self) -> DecodeStats:
        return DecodeStats(
            version=self._version,
            frames=self._lineno,
            records=self.records,
            ops_decoded=self._ops_seen,
            bytes_read=self._chars_fed,
        )

    def feed(self, chunk: str) -> int:
        """Buffer ``chunk`` and decode every complete line in it.

        Returns the number of operations appended to :attr:`trace`.
        A trailing partial line stays buffered until the next feed (or
        :meth:`finish`).
        """
        appended = 0
        self._chars_fed += len(chunk)
        self._buffer += chunk
        while True:
            cut = self._buffer.find("\n")
            if cut < 0:
                return appended
            line = self._buffer[:cut]
            self._buffer = self._buffer[cut + 1 :]
            appended += self._feed_line(line)

    def feed_line(self, line: str) -> int:
        """Decode one complete line; returns the ops appended (0 or 1).

        The line is taken to be complete — a caller reading from input
        that may end mid-line (a crash-truncated file, a live tail)
        should use :meth:`feed`, which buffers an unterminated tail
        for :meth:`flush`/:meth:`finish` to rule on.

        Raises :class:`TraceFormatError` on damage when ``strict``,
        otherwise records it and turns every later feed into a no-op.
        """
        self._chars_fed += len(line) + 1
        return self._feed_line(line)

    def _feed_line(self, line: str) -> int:
        if self.error is not None:
            return 0
        self._lineno += 1
        stripped = line.strip()
        if not stripped:
            return 0
        before = self._ops_seen
        try:
            self._decode_line(stripped)
        except TraceFormatError as exc:
            if self.strict or self.header is None:
                raise
            self.error = exc
            return 0
        return self._ops_seen - before

    def flush(self) -> int:
        """Rule on a buffered trailing line that never got its newline.

        The writer terminates every line, so input that ends mid-line
        is truncation evidence — and a byte cut through a record's
        trailing number can still parse as *valid* JSON with a
        corrupted value, which the header count checks cannot always
        catch.  An unterminated trailing line therefore raises
        :class:`TraceFormatError` under ``strict`` and is discarded
        (marking the decoder degraded) in salvage mode.  Returns the
        ops appended, which is always 0; kept for symmetry with
        :meth:`feed`.

        :meth:`finish` calls this, but a long-running consumer that
        never reaches a definite end of input (the streaming service
        tailing a live file) can flush explicitly without triggering
        the header count checks.
        """
        if not self._buffer:
            return 0
        self._buffer = ""
        error = TraceFormatError(
            "stream ends mid-line; the unterminated final record "
            "cannot be trusted",
            line=self._lineno + 1,
        )
        if self.strict:
            raise error
        if self.error is None:
            self.error = error
        return 0

    def finish(self) -> Trace:
        """Flush any buffered partial line, check counts, return the trace."""
        self.flush()
        if self.header is None:
            raise TraceError("empty trace stream")
        if self.strict:
            expected_tasks = self.header.get("tasks")
            if expected_tasks is not None and expected_tasks != self._tasks_seen:
                raise TraceFormatError(
                    f"task count mismatch: header says {expected_tasks}, "
                    f"stream has {self._tasks_seen}"
                )
            expected_ops = self.header.get("ops")
            if expected_ops is not None and expected_ops != self._ops_seen:
                raise TraceFormatError(
                    f"op count mismatch: header says {expected_ops}, "
                    f"stream has {self._ops_seen}"
                )
        self.trace.decode_stats = self.decode_stats()
        return self.trace

    def mark_damaged(self, exc: Exception) -> None:
        """Record out-of-band stream damage (e.g. a truncated gzip
        member noticed by the decompressor, not by any line)."""
        error = TraceFormatError(f"damaged trace stream: {exc}")
        if self.strict:
            raise error from None
        if self.error is None:
            self.error = error

    # -- internals ----------------------------------------------------

    def _decode_line(self, line: str) -> None:
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise TraceFormatError(f"invalid JSON: {exc}", line=self._lineno) from None
        if self.header is None:
            self._take_header(record)
            return
        self.records += 1
        try:
            if self._version == 1:
                self._decode_v1(record)
            else:
                self._decode_v2(record)
        except TraceFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"corrupt trace record {record!r} "
                f"({exc.__class__.__name__}: {exc})",
                line=self._lineno,
            ) from None

    def _take_header(self, record: Any) -> None:
        if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
            raise TraceError(f"not a {FORMAT_NAME} stream: {record!r}")
        version = record.get("version")
        if version == 3:
            raise TraceError(
                "trace version 3 is binary, but this is a text stream; "
                "the file was probably re-encoded or damaged"
            )
        if version not in TEXT_VERSIONS:
            raise TraceError(f"unsupported trace version {version!r}")
        if self.expect_version is not None and version != self.expect_version:
            raise TraceError(
                f"expected trace version {self.expect_version}, "
                f"stream is version {version}"
            )
        if version == 2:
            # Version negotiation: positions in the header's kind table
            # define the wire codes, so a file written under a different
            # (e.g. future, reordered) vocabulary still decodes — or
            # fails loudly on a kind this reader does not know.
            kind_names = record.get("kinds")
            if not isinstance(kind_names, list) or not kind_names:
                raise TraceError("v2 stream header lacks its kind table")
            for name in kind_names:
                try:
                    kind = OpKind(name)
                except ValueError:
                    raise TraceError(
                        f"unknown operation kind {name!r} in header"
                    ) from None
                self._codes.append(KIND_CODES[kind])
                self._schemas.append(_SCHEMA_LIST[KIND_CODES[kind]])
        self._version = version
        self.header = record
        if self.sink is not None:
            self.sink.on_header(record)

    def _add_task(self, info: Dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink.on_task(info)
        else:
            self.trace.add_task(TaskInfo.from_dict(info))
        self._tasks_seen += 1

    def _decode_v1(self, record: Any) -> None:
        if isinstance(record, dict) and "task_info" in record:
            self._add_task(record["task_info"])
        elif isinstance(record, dict) and "op" in record:
            op = operation_from_dict(record["op"])
            if self.sink is not None:
                code = KIND_CODES[op.kind]
                values = [
                    getattr(op, name) for name, _typ in _SCHEMA_LIST[code]
                ]
                self.sink.on_row(code, op.time, op.task, values)
            else:
                self.trace.append(op)
            self._ops_seen += 1
        else:
            raise TraceFormatError(
                f"unrecognized trace record: {record!r}", line=self._lineno
            )

    def _decode_v2(self, record: Any) -> None:
        if isinstance(record, list) and record:
            tag = record[0]
            if tag == "o":
                try:
                    schema = self._schemas[record[1]]
                    code = self._codes[record[1]]
                except (IndexError, TypeError):
                    raise TraceFormatError(
                        f"op record with undeclared kind code: {record!r}",
                        line=self._lineno,
                    ) from None
                if len(record) != 4 + len(schema):
                    raise TraceFormatError(
                        f"malformed op record: {record!r}", line=self._lineno
                    )
                symbols = self._symbols
                values: List[Any] = []
                for (_name, typ), raw in zip(schema, record[4:]):
                    if typ == STR:
                        values.append(symbols[raw])
                    elif typ == ADDR:
                        values.append(self._addresses[raw])
                    elif typ == BOOL:
                        values.append(bool(raw))
                    elif typ == ENUM:
                        values.append(BranchKind(symbols[raw]))
                    else:  # INT / OPT_INT
                        values.append(raw)
                if self.sink is not None:
                    self.sink.on_row(code, record[2], symbols[record[3]], values)
                else:
                    self.trace._append_decoded(
                        code, record[2], symbols[record[3]], values
                    )
                self._ops_seen += 1
            elif tag == "s":
                self._symbols.append(record[1])
            elif tag == "a":
                self._addresses.append(tuple(record[1]))
            else:
                raise TraceFormatError(
                    f"unrecognized trace record: {record!r}", line=self._lineno
                )
        elif isinstance(record, dict) and "task_info" in record:
            self._add_task(record["task_info"])
        else:
            raise TraceFormatError(
                f"unrecognized trace record: {record!r}", line=self._lineno
            )


class AnyTraceDecoder:
    """Format-sniffing push decoder: text v1/v2, binary v3, or a
    single-session mux envelope — one API.

    The first payload byte decides: ``0x93`` (the v3 magic's first
    byte, invalid as UTF-8 and as JSON) selects the binary decoder,
    ``0x9e`` (the session-envelope magic, :mod:`repro.trace.envelope`)
    selects the envelope adapter — which unwraps a *single* session's
    frames transparently and errors on a multiplexed stream, pointing
    at ``repro serve`` — and anything else the text decoder.  Callers
    therefore tail files and pipes without knowing what was recorded
    into them.  :meth:`feed` accepts ``bytes`` (sniffed; text is
    decoded incrementally as UTF-8) or ``str`` (text formats only,
    e.g. a line-mode stdin); :meth:`feed_line` is text-only.

    The facade owns :attr:`trace` from construction — before the first
    byte arrives there is already a live (empty) trace to attach
    analyses to, which is what the streaming service does.  Assigning
    ``decoder.trace`` (the service's epoch GC) forwards to the inner
    decoder.
    """

    def __init__(
        self,
        expect_version: Optional[int] = None,
        strict: bool = True,
        sink=None,
    ):
        self._trace = Trace()
        self._expect_version = expect_version
        self._strict = strict
        self._sink = sink
        self._inner = None
        self._utf8 = None  # incremental decoder once sniffed as text

    # -- inner construction -------------------------------------------

    def _make_inner(self, binary: bool):
        if binary:
            from .binary import BinaryTraceDecoder

            self._inner = BinaryTraceDecoder(
                expect_version=self._expect_version,
                strict=self._strict,
                trace=self._trace,
                sink=self._sink,
            )
        else:
            self._utf8 = codecs.getincrementaldecoder("utf-8")()
            self._inner = TraceStreamDecoder(
                expect_version=self._expect_version,
                strict=self._strict,
                trace=self._trace,
                sink=self._sink,
            )
        return self._inner

    def _make_mux_inner(self):
        """A single-session envelope adapter over a nested facade."""
        from .envelope import SingleSessionMuxAdapter

        nested = AnyTraceDecoder(
            expect_version=self._expect_version,
            strict=self._strict,
            sink=self._sink,
        )
        nested.trace = self._trace
        self._inner = SingleSessionMuxAdapter(nested, strict=self._strict)
        return self._inner

    def _text_inner(self):
        inner = self._inner
        if inner is None:
            inner = self._make_inner(binary=False)
        elif self._utf8 is None:
            raise TraceError(
                "cannot feed text into a binary (v3 or enveloped) "
                "trace stream"
            )
        return inner

    # -- decoder surface ----------------------------------------------

    @property
    def trace(self) -> Trace:
        return self._inner.trace if self._inner is not None else self._trace

    @trace.setter
    def trace(self, value: Trace) -> None:
        self._trace = value
        if self._inner is not None:
            self._inner.trace = value

    @property
    def strict(self) -> bool:
        return self._strict

    @property
    def header(self) -> Optional[dict]:
        return self._inner.header if self._inner is not None else None

    @property
    def error(self) -> Optional[TraceFormatError]:
        return self._inner.error if self._inner is not None else None

    @property
    def degraded(self) -> bool:
        return self._inner.degraded if self._inner is not None else False

    @property
    def records(self) -> int:
        return self._inner.records if self._inner is not None else 0

    @property
    def binary(self) -> Optional[bool]:
        """True/False once sniffed; None before the first byte."""
        if self._inner is None:
            return None
        return self._utf8 is None

    @property
    def multiplexed(self) -> bool:
        """True once sniffed as a session-envelope (mux) stream."""
        from .envelope import SingleSessionMuxAdapter

        return isinstance(self._inner, SingleSessionMuxAdapter)

    @property
    def session(self) -> Optional[str]:
        """The envelope's session id (mux streams only, once seen)."""
        return getattr(self._inner, "session", None)

    def decode_stats(self) -> Optional[DecodeStats]:
        return self._inner.decode_stats() if self._inner is not None else None

    def feed(self, chunk: Union[bytes, bytearray, str]) -> int:
        """Sniff (on first data) and decode; returns ops appended."""
        with span("trace.decode", bytes=len(chunk)):
            if isinstance(chunk, str):
                if not chunk:
                    return 0
                return self._text_inner().feed(chunk)
            if not chunk:
                return 0
            inner = self._inner
            if inner is None:
                first = chunk[:1]
                if first == b"\x9e":  # session envelope (repro.trace.envelope)
                    inner = self._make_mux_inner()
                else:
                    inner = self._make_inner(binary=first == b"\x93")
            if self._utf8 is None:
                return inner.feed(bytes(chunk))
            return inner.feed(self._utf8.decode(bytes(chunk)))

    def feed_line(self, line: str) -> int:
        """Decode one complete text line (text formats only)."""
        return self._text_inner().feed_line(line)

    def flush(self) -> int:
        if self._inner is None:
            return 0
        return self._inner.flush()

    def finish(self) -> Trace:
        if self._inner is None:
            raise TraceError("empty trace stream")
        if self._utf8 is not None:
            try:
                tail = self._utf8.decode(b"", final=True)
            except UnicodeDecodeError as exc:
                self._inner.mark_damaged(exc)
            else:
                if tail:
                    self._inner.feed(tail)
        return self._inner.finish()

    def mark_damaged(self, exc: Exception) -> None:
        inner = self._inner
        if inner is None:
            inner = self._make_inner(binary=False)
        inner.mark_damaged(exc)


def load_trace(
    fp,
    expect_version: Optional[int] = None,
    strict: bool = True,
) -> Trace:
    """Read a trace previously written by :func:`dump_trace` /
    :func:`dump_trace_binary`.

    ``fp`` may be a text or a binary stream; the format version is
    negotiated from the first bytes (pass ``expect_version`` to
    *require* one — the CLI's ``--format`` flag).

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
    is_text = isinstance(fp, io.TextIOBase) or isinstance(
        getattr(fp, "read", lambda *_a: "")(0), str
    )
    try:
        if is_text:
            for line in fp:
                # feed(), not feed_line(): a crash-truncated file's last
                # line has no newline, and only the buffer path lets
                # finish() tell a complete final record from a cut one.
                decoder.feed(line)
                if decoder.degraded:
                    break
        else:
            # read1 (one underlying read per call) rather than read:
            # BufferedReader.read over a truncated gzip member raises
            # EOFError *inside* the fill loop, losing the decompressed
            # prefix it had accumulated — read1 hands each piece over
            # before the damage surfaces, so salvage sees the prefix.
            read = getattr(fp, "read1", fp.read)
            while True:
                chunk = read(1 << 16)
                if not chunk:
                    break
                decoder.feed(chunk)
                if decoder.degraded:
                    break
    except _STREAM_DAMAGE as exc:
        decoder.mark_damaged(exc)
    return decoder.finish()


# ---------------------------------------------------------------------------
# File and string entry points
# ---------------------------------------------------------------------------


def _open_for(path: Union[str, Path], mode: str) -> IO[str]:
    """Text stream for ``path``; transparently gzip on a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _open_binary_for(path: Union[str, Path], mode: str) -> IO[bytes]:
    """Binary stream for ``path``; transparently gzip on a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


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
    with _open_binary_for(path, "r") as fp:
        return load_trace(fp, expect_version=expect_version, strict=strict)


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


class _CountingSink:
    """First salvage pass: count what survives, build nothing."""

    def __init__(self) -> None:
        self.tasks = 0
        self.ops = 0
        self.version = 0

    def on_header(self, header: dict) -> None:
        self.version = header.get("version", 0)

    def on_task(self, info: Dict[str, Any]) -> None:
        self.tasks += 1

    def on_row(self, code: int, time: int, task: str, values) -> None:
        self.ops += 1


class _TranscodeSink:
    """Bridges a decoder's sink protocol onto a streaming writer."""

    def __init__(self, make_writer, counts=None):
        self._make_writer = make_writer
        self._counts = counts  # (tasks, ops) override for salvage
        self.writer = None
        self.version = 0
        self.tasks = 0
        self.ops = 0

    def on_header(self, header: dict) -> None:
        self.version = header.get("version", 0)
        if self._counts is not None:
            tasks, ops = self._counts
        else:
            tasks = header.get("tasks", 0)
            ops = header.get("ops", 0)
        self.writer = self._make_writer(tasks, ops)

    def on_task(self, info: Dict[str, Any]) -> None:
        self.writer.write_task(info)
        self.tasks += 1

    def on_row(self, code: int, time: int, task: str, values) -> None:
        self.writer.write_row(code, time, task, values)
        self.ops += 1


def _pump(path, sink, strict: bool):
    """One streaming decode pass of ``path`` into ``sink``."""
    decoder = AnyTraceDecoder(strict=strict, sink=sink)
    with _open_binary_for(path, "r") as fp:
        try:
            read = getattr(fp, "read1", fp.read)
            while True:
                chunk = read(1 << 16)
                if not chunk:
                    break
                decoder.feed(chunk)
                if decoder.degraded:
                    break
        except _STREAM_DAMAGE as exc:
            decoder.mark_damaged(exc)
        decoder.finish()
    return decoder


def convert_trace_file(
    src: Union[str, Path],
    dst: Union[str, Path],
    version: int = FORMAT_VERSION,
    strict: bool = True,
) -> ConvertStats:
    """Transcode ``src`` (any readable version, ``.gz`` or plain) into
    ``dst`` at ``version`` — streaming, with constant transient memory.

    The trace is never held in RAM: each decoded record goes straight
    to the destination writer, so corpus-scale files convert in the
    interning tables' footprint.  Rows keep their order, so interning
    ids are assigned identically and the output is byte-identical to a
    direct ``save_trace_file`` of the same trace at the same version.

    ``strict=False`` salvages a damaged source: the valid prefix is
    converted (a first counting pass sizes the salvaged prefix so the
    output header carries *correct* counts and loads strictly).
    """
    if version not in SUPPORTED_VERSIONS:
        raise TraceError(f"cannot write trace version {version!r}")
    stats = ConvertStats()
    stats.target_version = version
    counts = None
    if not strict:
        counting = _CountingSink()
        probe = _pump(src, counting, strict=False)
        counts = (counting.tasks, counting.ops)
        if probe.error is not None:
            stats.salvaged = True
            stats.error = str(probe.error)

    opener = _open_binary_for if version == 3 else _open_for
    with opener(dst, "w") as out:
        sink = _TranscodeSink(
            lambda tasks, ops: _make_writer(out, version, tasks, ops),
            counts=counts,
        )
        decoder = _pump(src, sink, strict=strict)
        if sink.writer is not None:
            sink.writer.finish()
    stats.source_version = sink.version
    stats.tasks = sink.tasks
    stats.ops = sink.ops
    if decoder.error is not None:
        stats.salvaged = True
        stats.error = str(stats.error or decoder.error)
    return stats
