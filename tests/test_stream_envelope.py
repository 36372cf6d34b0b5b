"""The session-frame envelope (cafa-mux): frame round-trips, the
single-session ``AnyTraceDecoder`` path, and the demux property —
under arbitrary interleavings of session frames, ``SessionRouter``
analyzes each session as a separate stream of its bytes (v1, v2, and
v3 payloads)."""

import io
import random

import pytest

from repro.stream import SessionRouter, StreamAnalyzer
from repro.testing import TraceBuilder
from repro.trace import (
    AnyTraceDecoder,
    MUX_MAGIC,
    MuxDecoder,
    TraceError,
    TraceFormatError,
    TraceWriterV3,
    dumps_trace,
    dumps_trace_bytes,
    encode_data_frame,
    encode_end_frame,
    encode_finish_frame,
    encode_mux_header,
    encode_session,
    loads_trace,
)
from repro.trace.serialization import _dump_via_writer


def make_trace(spin: int):
    """A small but non-trivial trace; ``spin`` varies the content so
    sessions in one mux stream are distinguishable."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.event("E", looper="L", external=True)
    b.begin("T")
    for i in range(spin + 1):
        b.write("T", f"x{i}", site=f"s{spin}")
    b.send("T", "E", delay=spin)
    b.end("T")
    b.begin("E")
    b.ptr_read("E", ("obj", 4 + spin, "p"), object_id=8, method="onE", pc=1)
    b.ptr_write(
        "E", ("obj", 4 + spin, "p"), value=None, container=4, method="onE", pc=2
    )
    b.end("E")
    return b.build()


def serialized(trace, version: int) -> bytes:
    return dumps_trace_bytes(trace, version=version)


def halves(trace, version: int):
    """``trace`` serialized at ``version`` (a v3 stream in one-op
    batches) and cut where the records of its second half of ops
    start."""
    n = len(trace) // 2
    if version == 3:
        buf = io.BytesIO()
        writer = TraceWriterV3(
            buf, tasks=len(trace.tasks), ops=len(trace), batch_ops=1
        )
        _dump_via_writer(trace, writer)
        payload, cut = buf.getvalue(), writer._batches[n][0]
    else:
        payload = serialized(trace, version)
        lines = payload.splitlines(keepends=True)
        ops = [i for i, line in enumerate(lines) if line.startswith(b'["o",')]
        cut = sum(map(len, lines[: ops[n]]))
    return payload[:cut], payload[cut:]


def canonical(trace) -> str:
    """Comparable rendering: the v2 re-serialization of a trace."""
    return dumps_trace(trace)


class TestFrameRoundTrip:
    def test_encode_session_decodes_to_the_same_payload(self):
        payload = bytes(range(256)) * 5
        decoder = MuxDecoder()
        events = decoder.feed(
            encode_mux_header()
            + b"".join(encode_session("dev-1", payload, chunk_size=97))
        )
        assert events[-1] == ("end", "dev-1")
        assert b"".join(e[2] for e in events[:-1]) == payload
        decoder.flush()
        assert not decoder.degraded

    def test_any_chunking_yields_the_same_events(self):
        payload = b"hello cafa" * 40
        stream = (
            encode_mux_header()
            + b"".join(encode_session("s", payload, chunk_size=64))
            + encode_finish_frame()
        )
        whole = MuxDecoder().feed(stream)
        for step in (1, 3, 7, len(stream)):
            decoder = MuxDecoder()
            events = []
            for i in range(0, len(stream), step):
                events.extend(decoder.feed(stream[i : i + step]))
            assert events == whole
            assert decoder.finished

    def test_bad_magic_is_a_hard_error(self):
        with pytest.raises(TraceError, match="envelope magic"):
            MuxDecoder().feed(b"\x9e" + b"not the magic here!")

    def test_truncated_frame_is_ruled_at_flush(self):
        decoder = MuxDecoder()
        frame = encode_data_frame("s", b"payload bytes")
        decoder.feed(encode_mux_header() + frame[:-4])
        with pytest.raises(TraceFormatError, match="dangling"):
            decoder.flush()

    def test_salvage_mode_records_damage_instead_of_raising(self):
        decoder = MuxDecoder(strict=False)
        stream = encode_mux_header() + encode_data_frame("s", b"ok") + b"\xff"
        events = decoder.feed(stream)
        assert [e[0] for e in events] == ["data"]
        assert decoder.degraded
        assert "unknown mux frame tag" in str(decoder.error)

    def test_bytes_after_finish_are_damage(self):
        decoder = MuxDecoder()
        decoder.feed(encode_mux_header() + encode_finish_frame())
        with pytest.raises(TraceFormatError, match="after the mux FINISH"):
            decoder.feed(encode_data_frame("s", b"late"))

    def test_empty_session_id_rejected(self):
        with pytest.raises(TraceError, match="non-empty"):
            encode_data_frame("", b"x")


class TestSingleSessionDecoder:
    """AnyTraceDecoder sniffs the envelope from the first byte and
    unwraps single-session streams transparently."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_enveloped_equals_plain(self, version):
        trace = make_trace(0)
        payload = serialized(trace, version)
        stream = encode_mux_header() + b"".join(
            encode_session("device-7", payload, chunk_size=113)
        )
        decoder = AnyTraceDecoder()
        for i in range(0, len(stream), 50):
            decoder.feed(stream[i : i + 50])
        back = decoder.finish()
        assert canonical(back) == canonical(loads_trace(payload))

    def test_loads_trace_accepts_enveloped_bytes(self):
        trace = make_trace(1)
        payload = serialized(trace, 2)
        stream = encode_mux_header() + b"".join(
            encode_session("one", payload)
        )
        assert canonical(loads_trace(stream)) == canonical(trace)

    def test_two_sessions_point_at_the_daemon(self):
        a = serialized(make_trace(0), 2)
        b = serialized(make_trace(1), 2)
        stream = (
            encode_mux_header()
            + encode_data_frame("a", a)
            + encode_data_frame("b", b)
        )
        decoder = AnyTraceDecoder()
        with pytest.raises(TraceError, match="repro serve"):
            decoder.feed(stream)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "salvage"])
    @pytest.mark.parametrize("version", [2, 3])
    def test_frame_after_end_is_damage(self, version, strict):
        b = TraceBuilder()
        b.thread("T")
        b.begin("T")
        for i in range(5):
            b.write("T", f"x{i}", site=f"s{i}")
        b.end("T")
        trace = b.build()
        first, second = halves(trace, version)
        stream = (
            encode_mux_header()
            + encode_data_frame("s", first)
            + encode_end_frame("s")
            + encode_data_frame("s", second)
            + encode_end_frame("s")
        )
        message = "mux frame for session 's' after its END frame"
        if strict:
            with pytest.raises(TraceFormatError, match=message):
                loads_trace(stream)
            return
        decoder = AnyTraceDecoder(strict=False)
        decoder.feed(stream)
        back = decoder.finish()
        assert decoder.degraded and message in str(decoder.error)
        assert list(back.ops) == list(trace.ops)[: len(trace) // 2]


def interleave(rng, per_session_frames):
    """One arbitrary interleaving: merge the sessions' frame lists,
    preserving each session's own frame order."""
    cursors = {sid: 0 for sid in per_session_frames}
    out = []
    while cursors:
        sid = rng.choice(sorted(cursors))
        frames = per_session_frames[sid]
        out.append(frames[cursors[sid]])
        cursors[sid] += 1
        if cursors[sid] == len(frames):
            del cursors[sid]
    return out


def analyzed_alone(payload: bytes):
    """(report strings, ops) of a ``StreamAnalyzer`` fed ``payload``."""
    analyzer = StreamAnalyzer()
    analyzer.feed(payload)
    return [str(r) for r in analyzer.finish()], analyzer.profile.ops_ingested


def routed(stream: bytes, rng=None):
    """The session reports of an in-process ``SessionRouter`` fed
    ``stream``, in pieces of random size when ``rng`` is given."""
    router = SessionRouter(0)
    pos = 0
    while pos < len(stream):
        step = rng.randrange(1, 500) if rng else len(stream)
        router.feed(stream[pos : pos + step])
        pos += step
    return router.drain().sessions


class TestDemuxProperty:
    """The demux property: for arbitrary record interleavings
    across sessions, the router's per-session reports and op counts
    equal those of a separate analysis of each session's bytes — for
    every trace format version."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleavings_decode_like_separate_streams(self, version, seed):
        rng = random.Random(seed * 31 + version)
        payloads = {
            f"dev-{k}": serialized(make_trace(k), version) for k in range(3)
        }
        frames = {
            sid: encode_session(
                sid, payload, chunk_size=rng.randrange(7, 200)
            )
            for sid, payload in payloads.items()
        }
        stream = encode_mux_header() + b"".join(interleave(rng, frames))
        sessions = routed(stream, rng)
        assert sorted(sessions) == sorted(payloads)
        for sid, payload in payloads.items():
            report = sessions[sid]
            assert report.ended and not report.degraded
            assert (report.reports, report.ops) == analyzed_alone(payload)

    def test_sessions_may_mix_format_versions(self):
        rng = random.Random(17)
        payloads = {
            "text1": serialized(make_trace(0), 1),
            "text2": serialized(make_trace(1), 2),
            "binary": serialized(make_trace(2), 3),
        }
        frames = {
            sid: encode_session(sid, payload, chunk_size=128)
            for sid, payload in payloads.items()
        }
        sessions = routed(encode_mux_header() + b"".join(interleave(rng, frames)))
        for sid, payload in payloads.items():
            report = sessions[sid]
            assert report.ended and not report.degraded
            assert (report.reports, report.ops) == analyzed_alone(payload)

    def test_frame_after_end_is_rejected(self):
        payload = serialized(make_trace(0), 2)
        sessions = routed(
            encode_mux_header()
            + b"".join(encode_session("s", payload))
            + encode_data_frame("s", b"{}")
        )
        report = sessions["s"]
        assert report.degraded
        assert report.error == "data frames arrived after the session's END frame"
        assert (report.reports, report.ops) == analyzed_alone(payload)
