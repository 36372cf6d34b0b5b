"""Tests for span tracing and its Chrome trace_event export
(repro.obs.spans)."""

import json
import re
from pathlib import Path

import pytest

from repro.obs import (
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)
from repro.obs.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


class TestSpanLifecycle:
    def test_disabled_tracing_returns_the_shared_null_span(self):
        assert not tracing_enabled()
        assert span("hb.fixpoint") is _NULL_SPAN
        with span("hb.fixpoint", ops=5):
            pass  # must be a usable (no-op) context manager

    def test_enabled_tracing_records_spans(self):
        recorder = enable_tracing()
        assert tracing_enabled()
        with span("trace.decode", bytes=128):
            pass
        with span("hb.closure"):
            pass
        assert len(recorder) == 2
        names = [event[0] for event in recorder.events]
        assert names == ["trace.decode", "hb.closure"]
        assert recorder.events[0][4] == {"bytes": 128}
        assert recorder.events[1][4] is None

    def test_durations_are_nonnegative(self):
        recorder = enable_tracing()
        with span("x"):
            pass
        _name, _start, duration_ns, _tid, _args = recorder.events[0]
        assert duration_ns >= 0

    def test_disable_returns_the_recorder_for_export(self):
        recorder = enable_tracing()
        with span("x"):
            pass
        assert disable_tracing() is recorder
        assert disable_tracing() is None
        with span("x"):
            pass
        assert len(recorder) == 1  # nothing recorded after disable

    def test_nested_spans_both_record(self):
        recorder = enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        assert [event[0] for event in recorder.events] == ["inner", "outer"]


class TestRecorderBounds:
    def test_capacity_drops_and_counts(self):
        recorder = enable_tracing(capacity=2)
        for _ in range(5):
            with span("x"):
                pass
        assert len(recorder) == 2
        assert recorder.dropped == 3
        assert recorder.to_chrome_trace()["spans_dropped"] == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestChromeExport:
    def test_document_shape(self):
        recorder = enable_tracing()
        with span("hb.scan", ops=10):
            pass
        doc = recorder.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "hb.scan"
        assert event["args"] == {"ops": 10}
        assert event["dur"] >= 0
        assert {"ts", "pid", "tid"} <= set(event)

    def test_dump_writes_loadable_json(self, tmp_path):
        recorder = enable_tracing()
        with span("x"):
            pass
        path = tmp_path / "spans.json"
        recorder.dump(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 1


class TestEngineIntegration:
    def test_offline_pipeline_emits_the_cataloged_spans(self):
        from repro.apps import make_app
        from repro.detect import UseFreeDetector
        from repro.hb import build_happens_before

        recorder = enable_tracing()
        trace = make_app("connectbot", scale=0.02, seed=1).run().trace
        hb = build_happens_before(trace)
        UseFreeDetector(trace, hb=hb).detect()
        names = {event[0] for event in recorder.events}
        assert {"hb.scan", "hb.base_edges", "hb.closure",
                "hb.fixpoint", "hb.fixpoint.rules",
                "hb.fixpoint.project"} <= names
        # every projection pass runs inside one round's rule evaluation
        rounds = [(s, s + d) for n, s, d, _, _ in recorder.events
                  if n == "hb.fixpoint.rules"]
        for name, start, duration, _, _ in recorder.events:
            if name == "hb.fixpoint.project":
                assert any(lo <= start and start + duration <= hi
                           for lo, hi in rounds)

    def test_stream_analyzer_emits_stream_spans(self):
        from repro.apps import make_app
        from repro.stream import StreamAnalyzer
        from repro.trace import dumps_trace

        payload = dumps_trace(
            make_app("connectbot", scale=0.02, seed=1).run().trace
        ).encode("utf-8")
        recorder = enable_tracing()
        analyzer = StreamAnalyzer()
        analyzer.feed(payload)
        analyzer.finish()
        names = {event[0] for event in recorder.events}
        assert "trace.decode" in names
        assert "stream.detect" in names
        assert "hb.fixpoint" in names  # the poll runs the shared fixpoint


def test_every_emitted_span_is_in_the_catalog():
    """docs/observability.md's span catalog names every span the
    package emits, and no span the package no longer emits."""
    root = Path(__file__).resolve().parent.parent
    emitted = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        emitted |= set(re.findall(r'\bspan\(\s*"([^"]+)"', text))
    doc = (root / "docs" / "observability.md").read_text(encoding="utf-8")
    section = doc.split("## Span tracing", 1)[1].split("\n## ", 1)[0]
    catalog = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
    assert "hb.fixpoint.propagate" in emitted  # the scan sees the call sites
    assert emitted == catalog
