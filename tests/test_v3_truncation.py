"""Crash-truncated v3 binary traces: cutting the byte stream anywhere
yields either a clean :class:`TraceFormatError` (strict mode) or a
salvaged prefix whose detected races are a subset of the full trace's
(``strict=False``) — the binary mirror of
:mod:`tests.test_stream_truncation`.

The frame layout makes every cut detectable: records are
length-prefixed, the file ends in a fixed trailer, and the footer
offset must round-trip — so a byte cut mid-frame, mid-batch, or
through the trailer is truncation *evidence*, never silently-shorter
data.
"""

import gzip
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.stream import SessionRouter, StreamAnalyzer
from repro.trace import (
    AnyTraceDecoder,
    TraceError,
    TraceFormatError,
    dumps_trace_bytes,
    encode_mux_header,
    encode_session,
    load_trace_file,
    loads_trace,
)
from repro.trace.binary import MAGIC_V3, TRAILER_LEN, _read_uvarint, _write_uvarint

SCALE = 0.02
SEED = 1
APP_NAMES = [app.name for app in ALL_APPS]

#: app name -> (v3 blob, frozenset of full-trace race keys)
_CACHE = {}


def app_blob(name):
    """The app's serialized v3 blob and its full-trace race keys."""
    if name not in _CACHE:
        trace = make_app(name, scale=SCALE, seed=SEED).run().trace
        blob = dumps_trace_bytes(trace, version=3)
        keys = frozenset(
            str(r.key) for r in UseFreeDetector(trace).detect().reports
        )
        _CACHE[name] = (blob, keys)
    return _CACHE[name]


def race_keys(trace):
    return frozenset(
        str(r.key) for r in UseFreeDetector(trace).detect().reports
    )


def header_end(blob):
    """Byte offset just past the header frame (cuts before it cannot
    salvage: without a header nothing is trustworthy)."""
    pos = len(MAGIC_V3) + 1  # magic + header tag byte
    length, pos = _read_uvarint(blob, pos, len(blob))
    return pos + length


def with_header(blob, **fields):
    """``blob`` with ``fields`` replaced in its header frame."""
    start = len(MAGIC_V3) + 1  # magic + header tag byte
    length, body = _read_uvarint(blob, start, len(blob))
    header = json.loads(blob[body:body + length])
    header.update(fields)
    payload = json.dumps(header).encode("utf-8")
    head = bytearray(blob[:start])
    _write_uvarint(head, len(payload))
    return bytes(head) + payload + blob[body + length:]


class TestOversizedHeaderTables:
    """A v3 kind or branch-kind column holds one byte per op, so a
    header table of more than 256 names is refused while the header is
    negotiated: a named error in either mode, and in a daemon one
    session's error, not its neighbour's."""

    @pytest.mark.parametrize(
        "table, names", [("kinds", ["begin"]), ("branch_kinds", ["if-eqz"])]
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_refused_in_both_modes(self, table, names, strict):
        blob = with_header(app_blob("connectbot")[0], **{table: names * 300})
        with pytest.raises(TraceError, match=f"{table} table has 300 names"):
            loads_trace(blob, strict=strict)

    def test_daemon_session_closes_with_the_error_named(self):
        good = app_blob("connectbot")[0]
        bad = with_header(good, kinds=["begin"] * 300)
        router = SessionRouter(0)
        router.feed(
            encode_mux_header()
            + b"".join(encode_session("bad", bad) + encode_session("good", good))
        )
        sessions = router.drain().sessions
        assert "kinds table has 300 names" in sessions["bad"].error
        alone = StreamAnalyzer()
        alone.feed(good)
        assert sessions["good"].error is None
        assert sessions["good"].reports == [str(r) for r in alone.finish()]
        assert sessions["good"].reports


class TestArbitraryByteCuts:
    """Cut the blob at any byte: strict raises, salvage degrades."""

    @pytest.mark.parametrize("name", APP_NAMES)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_cut_rejected_or_salvaged(self, name, data):
        blob, full_keys = app_blob(name)
        cut = data.draw(st.integers(1, len(blob) - 1), label="cut")
        prefix = blob[:cut]
        with pytest.raises(TraceFormatError):
            loads_trace(prefix)
        if cut < header_end(blob):
            # Header damage always raises, even in salvage mode: with
            # no negotiated header nothing in the stream can be trusted.
            with pytest.raises(TraceError):
                loads_trace(prefix, strict=False)
        else:
            salvaged = loads_trace(prefix, strict=False)
            assert race_keys(salvaged) <= full_keys

    def test_every_cut_through_the_header_rejected(self):
        """Cuts inside the magic, exactly after it, and anywhere in the
        header frame are truncation, not an empty stream — strict and
        salvage alike."""
        blob, _ = app_blob("connectbot")
        for cut in range(1, header_end(blob) + 1):
            for strict in (True, False):
                if cut == header_end(blob) and not strict:
                    continue  # a complete header: salvage keeps it
                with pytest.raises(TraceFormatError):
                    loads_trace(blob[:cut], strict=strict)
        with pytest.raises(TraceError, match="empty trace stream"):
            loads_trace(b"")

    @pytest.mark.parametrize("name", APP_NAMES[:3])
    def test_trailer_cuts_are_truncation_evidence(self, name):
        blob, _ = app_blob(name)
        for cut in (len(blob) - 1, len(blob) - TRAILER_LEN):
            with pytest.raises(TraceFormatError):
                loads_trace(blob[:cut])

    def test_bytes_after_trailer_rejected(self):
        blob, _ = app_blob("connectbot")
        with pytest.raises(TraceFormatError, match="after the v3 trailer"):
            loads_trace(blob + b"junk")


class TestIncrementalDecoder:
    def test_chunked_feed_equals_one_shot(self):
        blob, _ = app_blob("connectbot")
        one_shot = loads_trace(blob)
        decoder = AnyTraceDecoder()
        for start in range(0, len(blob), 997):
            decoder.feed(blob[start : start + 997])
        chunked = decoder.finish()
        assert chunked.ops == one_shot.ops
        assert set(chunked.tasks) == set(one_shot.tasks)

    def test_flush_mid_frame_is_damage(self):
        blob, _ = app_blob("connectbot")
        decoder = AnyTraceDecoder(strict=False)
        decoder.feed(blob[: len(blob) // 2])
        decoder.flush()
        assert decoder.degraded

    def test_degraded_decoder_ignores_later_feeds(self):
        blob, full_keys = app_blob("connectbot")
        decoder = AnyTraceDecoder(strict=False)
        # corrupt one frame tag in the middle of the stream
        middle = header_end(blob) + (len(blob) - header_end(blob)) // 2
        damaged = blob[:middle] + b"\xff" + blob[middle + 1 :]
        decoder.feed(damaged)
        assert decoder.degraded
        before = len(decoder.trace)
        decoder.feed(blob)
        assert len(decoder.trace) == before
        assert race_keys(decoder.finish()) <= full_keys


class TestDamagedFiles:
    def test_truncated_gzip_member(self, tmp_path):
        blob, full_keys = app_blob("connectbot")
        path = tmp_path / "crash.v3.gz"
        packed = gzip.compress(blob)
        path.write_bytes(packed[: len(packed) // 2])  # cut the member short
        with pytest.raises(TraceFormatError, match="damaged"):
            load_trace_file(path)
        salvaged = load_trace_file(path, strict=False)
        assert len(salvaged) < len(loads_trace(blob))
        assert race_keys(salvaged) <= full_keys

    def test_truncated_plain_file(self, tmp_path):
        blob, full_keys = app_blob("connectbot")
        path = tmp_path / "crash.v3"
        path.write_bytes(blob[: len(blob) * 3 // 4])
        with pytest.raises(TraceFormatError):
            load_trace_file(path)
        salvaged = load_trace_file(path, strict=False)
        assert race_keys(salvaged) <= full_keys


class TestSalvageCli:
    def test_stream_salvage_accepts_truncated_v3(self, tmp_path, capsys):
        from repro.cli import main

        blob, _ = app_blob("connectbot")
        path = tmp_path / "crash.v3"
        path.write_bytes(blob[: len(blob) * 3 // 4])
        assert main(["stream", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--salvage" in err
        assert main(["stream", str(path), "--salvage"]) == 0
        captured = capsys.readouterr()
        assert "stream damaged" in captured.err
        assert "stream profile" in captured.out
