"""The session-frame envelope: many trace streams over one pipe.

A device fleet does not open one connection per session — records from
many concurrent sessions arrive interleaved on whatever transport is
available (a socket, a spooled file, stdin).  The *mux* envelope makes
that interleaving explicit and loss-free: the byte stream is a header
followed by self-delimiting frames, each tagging an opaque chunk of
one session's ordinary trace stream (v1/v2 text or v3 binary — the
envelope never looks inside the payload).

Wire format (``cafa-mux`` version 1)::

    MAGIC (12 bytes)   "\\x9eCAFA-MX\\r\\n\\x1a\\x00"
    frame*             tag:u8  body...

    tag 1  DATA    sid_len:uvarint  sid[sid_len]  n:uvarint  payload[n]
    tag 2  END     sid_len:uvarint  sid[sid_len]
    tag 3  FINISH  (empty body — end of the whole mux stream)

``sid`` is the session id (UTF-8).  ``uvarint`` is LEB128, shared with
the v3 binary trace format.  The first magic byte ``0x9e`` is invalid
both as UTF-8 lead byte and as JSON, and distinct from the v3 magic's
``0x93`` — so :class:`~repro.trace.serialization.AnyTraceDecoder` can
sniff plain-text v1/v2, binary v3, and enveloped streams from one
byte.

* **DATA** carries the next ``payload`` bytes of session ``sid``'s
  trace stream.  Per-session byte order is the session's stream
  order; frames of different sessions interleave freely.
* **END** declares session ``sid``'s stream complete: a consumer can
  run its end-of-stream checks and emit authoritative results while
  other sessions continue.
* **FINISH** declares the whole mux stream complete (the daemon's
  graceful-drain trigger).  Bytes after FINISH are an error.

:class:`MuxDecoder` is the push-parser for the envelope.  Two
consumers stack on it: :class:`~repro.trace.serialization.AnyTraceDecoder`
unwraps a *single* session's frames (a spooled per-device file, say),
and the daemon's :class:`~repro.stream.SessionRouter` demultiplexes
any number of sessions, one
:class:`~repro.stream.StreamAnalyzer` each.  Both treat a session's
frame after its END frame as damage.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .binary import _read_uvarint, _Truncated, _write_uvarint
from .trace import TraceError, TraceFormatError

MUX_MAGIC = b"\x9eCAFA-MX\r\n\x1a\x00"
#: the sniffable first byte of an enveloped stream
MUX_FIRST_BYTE = MUX_MAGIC[:1]

FRAME_DATA = 1
FRAME_END = 2
FRAME_FINISH = 3

#: session ids longer than this are evidence of a desynchronized or
#: corrupt stream, not a plausible identifier
MAX_SESSION_ID_BYTES = 4096
#: single-frame payload cap — a frame claiming more is corruption
#: (writers chunk large streams into many frames)
MAX_FRAME_PAYLOAD = 1 << 31


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_mux_header() -> bytes:
    """The stream header every enveloped stream must start with."""
    return MUX_MAGIC


def _encode_sid(out: bytearray, session: str) -> None:
    sid = session.encode("utf-8")
    if not sid:
        raise TraceError("session id must be non-empty")
    if len(sid) > MAX_SESSION_ID_BYTES:
        raise TraceError(
            f"session id is {len(sid)} bytes "
            f"(limit {MAX_SESSION_ID_BYTES})"
        )
    _write_uvarint(out, len(sid))
    out += sid


def encode_data_frame(session: str, payload: bytes) -> bytes:
    """One DATA frame: the next ``payload`` bytes of ``session``."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise TraceError("frame payload too large; chunk it")
    out = bytearray([FRAME_DATA])
    _encode_sid(out, session)
    _write_uvarint(out, len(payload))
    out += payload
    return bytes(out)


def encode_end_frame(session: str) -> bytes:
    """One END frame: ``session``'s trace stream is complete."""
    out = bytearray([FRAME_END])
    _encode_sid(out, session)
    return bytes(out)


def encode_finish_frame() -> bytes:
    """The FINISH frame: the whole mux stream is complete."""
    return bytes([FRAME_FINISH])


def encode_session(
    session: str, stream: bytes, chunk_size: int = 1 << 16
) -> List[bytes]:
    """``stream`` (one session's complete trace bytes) as a DATA-frame
    list followed by its END frame — the building block tests and the
    synthetic workload use to compose interleaved mux streams."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    frames = [
        encode_data_frame(session, stream[i : i + chunk_size])
        for i in range(0, len(stream), chunk_size)
    ]
    frames.append(encode_end_frame(session))
    return frames


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


#: decoded frame events: ("data", sid, payload) / ("end", sid) / ("finish",)
MuxEvent = Tuple


class MuxDecoder:
    """Push-parser for the envelope: bytes in, frame events out.

    :meth:`feed` accepts arbitrary chunking — frames may be split at
    any byte boundary.  ``strict`` selects the failure mode exactly as
    in the trace decoders: raise :class:`TraceFormatError` on damage,
    or record it (:attr:`error`/:attr:`degraded`) and ignore the rest
    of the stream.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.error: Optional[TraceFormatError] = None
        self.frames = 0
        self.bytes_fed = 0
        self.finished = False
        self._buf = bytearray()
        self._magic_ok = False

    @property
    def degraded(self) -> bool:
        return self.error is not None

    @property
    def buffered(self) -> int:
        """Bytes of an incomplete trailing frame awaiting more input."""
        return len(self._buf)

    def _damage(self, message: str) -> None:
        error = TraceFormatError(message)
        if self.strict:
            raise error
        if self.error is None:
            self.error = error

    def feed(self, chunk) -> List[MuxEvent]:
        """Decode every complete frame in ``buffer + chunk``."""
        events: List[MuxEvent] = []
        if self.error is not None:
            return events
        self.bytes_fed += len(chunk)
        self._buf += chunk
        buf = self._buf
        pos = 0
        limit = len(buf)
        while pos < limit:
            if self.finished:
                self._damage(
                    f"{limit - pos} bytes after the mux FINISH frame"
                )
                return events
            if not self._magic_ok:
                if limit - pos < len(MUX_MAGIC):
                    break
                if bytes(buf[pos : pos + len(MUX_MAGIC)]) != MUX_MAGIC:
                    # Header damage leaves nothing salvageable.
                    raise TraceError(
                        "not a cafa-mux stream (bad envelope magic)"
                    )
                pos += len(MUX_MAGIC)
                self._magic_ok = True
                continue
            try:
                event, pos = self._frame(buf, pos, limit)
            except _Truncated:
                break
            except TraceFormatError as exc:
                if self.strict:
                    del self._buf[:pos]
                    raise
                self.error = exc
                del self._buf[:]
                return events
            if event[0] == "finish":
                self.finished = True
            self.frames += 1
            events.append(event)
        del self._buf[:pos]
        return events

    def _frame(self, buf, pos: int, limit: int) -> Tuple[MuxEvent, int]:
        tag = buf[pos]
        pos += 1
        if tag == FRAME_FINISH:
            return ("finish",), pos
        if tag not in (FRAME_DATA, FRAME_END):
            raise TraceFormatError(f"unknown mux frame tag {tag}")
        sid_len, pos = _read_uvarint(buf, pos, limit)
        if sid_len == 0 or sid_len > MAX_SESSION_ID_BYTES:
            raise TraceFormatError(
                f"implausible mux session-id length {sid_len}"
            )
        if limit - pos < sid_len:
            raise _Truncated
        try:
            sid = bytes(buf[pos : pos + sid_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"mux session id is not UTF-8: {exc}")
        pos += sid_len
        if tag == FRAME_END:
            return ("end", sid), pos
        n, pos = _read_uvarint(buf, pos, limit)
        if n > MAX_FRAME_PAYLOAD:
            raise TraceFormatError(f"implausible mux frame length {n}")
        if limit - pos < n:
            raise _Truncated
        payload = bytes(buf[pos : pos + n])
        return ("data", sid, payload), pos + n

    def flush(self) -> None:
        """Rule on trailing bytes: an incomplete frame is truncation."""
        if self._buf and self.error is None:
            held = len(self._buf)
            del self._buf[:]
            self._damage(
                f"mux stream ends inside a frame ({held} dangling bytes)"
            )
