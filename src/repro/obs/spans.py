"""Span timing and tracing around the engine's hot phases.

``with span("hb.fixpoint") as timed:`` brackets a phase.  Every span
times its phase: after the block, ``timed.seconds`` holds its
duration, which is how the happens-before builder fills the
``*_seconds`` fields of :class:`~repro.hb.builder.BuildProfile` — the
engine has no other phase timer.  A span *records* only when a
recorder is installed (``repro stats --trace-out spans.json``); then
spans buffer in a bounded per-process list and export as Chrome
``trace_event`` JSON for flame-chart inspection in
``chrome://tracing`` / Perfetto.  With no recorder (the default) a
span costs one small object and two clock reads, well under a
microsecond.

Span names threaded through the engine (the catalog lives in
``docs/observability.md``):

===================  ====================================================
``trace.decode``     one decoder ``feed`` chunk (text or binary)
``hb.scan``          builder key-op scan + event-record harvesting
``hb.base_edges``    key-graph construction + base-rule edges
``hb.closure``       full transitive-closure computations
``hb.fixpoint``      the derived-rule fixpoint
``detect.usefree``   one batch detection pass
``stream.detect``    one online (epoch) detection pass
``stream.epoch_retire``  quiescence GC: close + swap an epoch
``daemon.dispatch``  routing one session frame to its shard
``daemon.drain``     the daemon's graceful shutdown
``pipeline.app``     one app's simulate → detect → classify pipeline
===================  ====================================================

Recorders are per-process: the daemon's shard workers do not ship
spans to the router (metrics snapshots carry the cross-process story);
tracing is for single-process runs of the offline pipeline and the
streaming analyzer, where one flame chart answers "where did the last
10 s go".
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: spans buffered before the recorder starts dropping (and counting)
DEFAULT_SPAN_CAPACITY = 100_000


class SpanRecorder:
    """A bounded in-memory span buffer (see module docs)."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: (name, start_ns, duration_ns, thread_id, args_or_None)
        self.events: List[tuple] = []
        self.dropped = 0

    def record(self, name: str, start_ns: int, duration_ns: int,
               args: Optional[Dict[str, Any]]) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            (name, start_ns, duration_ns, threading.get_ident(), args)
        )

    def __len__(self) -> int:
        return len(self.events)

    # -- export --------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` document (``ph: "X"`` complete
        events, microsecond timestamps)."""
        pid = os.getpid()
        events = []
        for name, start_ns, duration_ns, tid, args in self.events:
            event = {
                "name": name,
                "ph": "X",
                "ts": start_ns / 1000.0,
                "dur": duration_ns / 1000.0,
                "pid": pid,
                "tid": tid,
            }
            if args:
                event["args"] = args
            events.append(event)
        meta = {"spans_dropped": self.dropped} if self.dropped else {}
        return {"traceEvents": events, "displayTimeUnit": "ms", **meta}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_chrome_trace(), fp)
            fp.write("\n")


#: the installed recorder; ``None`` means tracing is off
_active: Optional[SpanRecorder] = None


class _Span:
    """One timed phase; ``seconds`` is its duration once it exits."""

    __slots__ = ("_recorder", "_name", "_args", "_start", "seconds")

    def __init__(self, recorder: Optional[SpanRecorder], name: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._recorder = recorder
        self._name = name
        self._args = args
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        duration_ns = time.perf_counter_ns() - self._start
        self.seconds = duration_ns / 1e9
        if self._recorder is not None:
            self._recorder.record(
                self._name, self._start, duration_ns, self._args
            )


def span(name: str, **args) -> _Span:
    """Context manager timing one phase, recorded into the installed
    recorder if there is one.  Keyword arguments become Chrome
    ``args`` (evaluated at every call — keep them cheap at call
    sites)."""
    return _Span(_active, name, args or None)


def tracing_enabled() -> bool:
    return _active is not None


def enable_tracing(capacity: int = DEFAULT_SPAN_CAPACITY) -> SpanRecorder:
    """Install (and return) a fresh process-wide recorder."""
    global _active
    _active = SpanRecorder(capacity)
    return _active


def disable_tracing() -> Optional[SpanRecorder]:
    """Stop recording; returns the recorder that was active, so a
    caller can still export what it captured."""
    global _active
    recorder = _active
    _active = None
    return recorder
