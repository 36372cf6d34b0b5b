"""Crash-truncated trace robustness: cutting a v2 stream anywhere
yields either a clean :class:`TraceFormatError` (strict mode) or a
salvaged prefix whose detected races are a subset of the full trace's
(``strict=False``).

The cuts are driven by hypothesis over every stock app, at both
arbitrary byte offsets and exact line boundaries, plus deterministic
checks of the decoder's incremental ``feed``/``feed_line``/``flush``
surface and the gzip-level damage path.
"""

import gzip

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.stream import SessionRouter, StreamAnalyzer
from repro.trace import (
    AnyTraceDecoder,
    TraceError,
    TraceFormatError,
    dumps_trace,
    encode_mux_header,
    encode_session,
    load_trace_file,
    loads_trace,
)

SCALE = 0.02
SEED = 1
APP_NAMES = [app.name for app in ALL_APPS]

#: app name -> (v2 stream text, frozenset of full-trace race keys)
_CACHE = {}


def app_stream(name):
    """The app's serialized v2 stream and its full-trace race keys."""
    if name not in _CACHE:
        trace = make_app(name, scale=SCALE, seed=SEED).run().trace
        text = dumps_trace(trace, version=2)
        keys = frozenset(
            str(r.key) for r in UseFreeDetector(trace).detect().reports
        )
        _CACHE[name] = (text, keys)
    return _CACHE[name]


def race_keys(trace):
    return frozenset(
        str(r.key) for r in UseFreeDetector(trace).detect().reports
    )


class TestArbitraryByteCuts:
    """Cut the stream at any byte: strict raises, salvage degrades."""

    @pytest.mark.parametrize("name", APP_NAMES)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_cut_anywhere(self, name, data):
        text, full_keys = app_stream(name)
        cut = data.draw(
            st.integers(min_value=1, max_value=len(text) - 1), label="cut"
        )
        prefix = text[:cut]
        header_len = text.index("\n")

        # Strict mode: a truncated stream NEVER loads silently.  A
        # line-boundary cut is a count mismatch noticed at EOF; any
        # other cut leaves an unterminated (or unparseable) final
        # line, which is truncation evidence in its own right.
        with pytest.raises(TraceError):
            loads_trace(prefix)

        if cut <= header_len:
            # Header damage always raises, even in salvage mode: with
            # no (trustworthy) header there is no stream to speak of.
            with pytest.raises(TraceError):
                loads_trace(prefix, strict=False)
        else:
            salvaged = loads_trace(prefix, strict=False)
            assert race_keys(salvaged) <= full_keys

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_line_boundary_cuts(self, name):
        """Whole-line truncation salvages a monotone prefix of races."""
        text, full_keys = app_stream(name)
        lines = text.splitlines()
        # Sample a handful of prefixes, including the degenerate ones.
        picks = sorted({1, 2, len(lines) // 3, 2 * len(lines) // 3, len(lines) - 1})
        for n in picks:
            prefix = "\n".join(lines[:n]) + "\n"
            with pytest.raises(TraceFormatError):
                loads_trace(prefix)  # count mismatch at EOF
            salvaged = loads_trace(prefix, strict=False)
            assert len(salvaged) <= len(lines)
            assert race_keys(salvaged) <= full_keys

    def test_midline_cut_names_the_line(self):
        text, _ = app_stream("connectbot")
        lines = text.splitlines(keepends=True)
        damaged_line = len(lines) // 2
        prefix = "".join(lines[: damaged_line - 1])
        prefix += lines[damaged_line - 1][: len(lines[damaged_line - 1]) // 2]
        with pytest.raises(TraceFormatError) as excinfo:
            loads_trace(prefix)
        assert excinfo.value.line == damaged_line
        assert f"line {damaged_line}" in str(excinfo.value)

    def test_count_mismatch_reported_at_eof(self):
        text, _ = app_stream("connectbot")
        lines = text.splitlines()
        prefix = "\n".join(lines[:-3]) + "\n"
        with pytest.raises(TraceFormatError, match="count mismatch"):
            loads_trace(prefix)


class TestIncrementalDecoder:
    """feed() chunking, feed_line(), and flush() are equivalent."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_chunked_feed_roundtrips(self, data):
        text, _ = app_stream("connectbot")
        # Split the stream into arbitrary chunks and feed them.
        n_cuts = data.draw(st.integers(min_value=0, max_value=12), label="n")
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=len(text) - 1),
                    min_size=n_cuts,
                    max_size=n_cuts,
                ),
                label="cuts",
            )
        )
        decoder = AnyTraceDecoder()
        prev = 0
        for cut in cuts + [len(text)]:
            decoder.feed(text[prev:cut])
            prev = cut
        trace = decoder.finish()
        # Canonical re-encode is byte-identical: nothing lost or dup'd.
        assert dumps_trace(trace, version=2) == text

    def test_missing_trailing_newline_is_truncation_evidence(self):
        """A byte cut through the last record's trailing number can
        still parse as valid JSON with a corrupted value, so an
        unterminated final line must never be decoded on trust."""
        text, full_keys = app_stream("connectbot")
        assert text.endswith("\n")
        decoder = AnyTraceDecoder()
        decoder.feed(text[:-1])  # final newline missing
        with pytest.raises(TraceFormatError, match="mid-line"):
            decoder.finish()
        salvage = AnyTraceDecoder(strict=False)
        salvage.feed(text[:-1])
        trace = salvage.finish()
        assert salvage.degraded
        # The untrusted final record is dropped, nothing else.
        assert len(trace) == len(loads_trace(text)) - 1
        assert race_keys(trace) <= full_keys

    def test_feed_line_matches_feed(self):
        text, _ = app_stream("connectbot")
        by_line = AnyTraceDecoder()
        for line in text.splitlines():
            by_line.feed_line(line)
        whole = AnyTraceDecoder()
        whole.feed(text)
        a, b = by_line.finish(), whole.finish()
        assert dumps_trace(a, version=2) == dumps_trace(b, version=2) == text

    def test_salvage_decoder_reports_degraded(self):
        text, _ = app_stream("connectbot")
        decoder = AnyTraceDecoder(strict=False)
        decoder.feed(text[: len(text) // 2])
        decoder.feed("this is not json\n")
        assert decoder.degraded
        assert isinstance(decoder.error, TraceFormatError)
        # Further input is ignored once degraded.
        before = len(decoder.trace)
        decoder.feed(text[len(text) // 2 :])
        assert len(decoder.trace) == before


class TestDamagedFiles:
    """File-level entry points: byte truncation, gzip truncation."""

    def test_truncated_gzip_member(self, tmp_path):
        text, full_keys = app_stream("connectbot")
        path = tmp_path / "crash.trace.gz"
        blob = gzip.compress(text.encode("utf-8"))
        path.write_bytes(blob[: len(blob) // 2])  # cut the member short
        with pytest.raises(TraceFormatError, match="damaged"):
            load_trace_file(path)
        salvaged = load_trace_file(path, strict=False)
        assert len(salvaged) < len(loads_trace(text))
        assert race_keys(salvaged) <= full_keys

    def test_truncated_plain_file(self, tmp_path):
        text, full_keys = app_stream("connectbot")
        path = tmp_path / "crash.trace"
        path.write_text(text[: int(len(text) * 0.7)], encoding="utf-8")
        with pytest.raises(TraceFormatError):
            load_trace_file(path)
        salvaged = load_trace_file(path, strict=False)
        assert race_keys(salvaged) <= full_keys

    def test_bytes_that_are_not_utf8_are_stream_damage(self):
        # a text stream whose bytes stop being UTF-8: the loaders, the
        # streaming analyzer and a daemon session all meet it with a
        # named error, or in salvage mode with the feeds before it
        text, _ = app_stream("connectbot")
        head = text[: text.index("\n", len(text) // 2) + 1].encode("utf-8")
        tail = b"\xff\xfe" + text[len(head):].encode("utf-8")
        with pytest.raises(TraceFormatError, match="damaged.*utf-8"):
            loads_trace(head + tail)
        with pytest.raises(TraceFormatError, match="damaged.*utf-8"):
            StreamAnalyzer().feed(head + tail)
        analyzer = StreamAnalyzer(strict=False)
        analyzer.feed(head)
        analyzer.feed(tail)
        analyzer.finish()
        assert analyzer.decoder.degraded
        assert len(analyzer.decoder.trace) == len(loads_trace(head, strict=False))
        router = SessionRouter(0)
        router.feed(encode_mux_header() + b"".join(encode_session("s", head + tail)))
        session = router.drain().sessions["s"]
        assert session.degraded and "utf-8" in session.error
