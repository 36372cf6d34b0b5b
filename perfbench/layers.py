"""Benchmark-side tracing: spans around calls into each layer's public
entry points, per-layer self times and counts, Chrome trace export.

Nothing here edits the program.  ``install`` swaps each entry point
for a wrapper that records a span (name, start, end, parent, unit id)
into an in-memory :class:`Tracer`; ``restore`` puts the originals back.
Module-level functions are swapped in every ``repro`` module that
imported them, so calls made from inside the package are seen too.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: per-layer metrics of the traced run: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("apps.simulate_s", "s", "lower"),
    ("trace.encode_s", "s", "lower"),
    ("trace.decode_s", "s", "lower"),
    ("trace.decode_ops_per_s", "ops/s", "higher"),
    ("hb.build_s", "s", "lower"),
    ("hb.build_conventional_s", "s", "lower"),
    ("hb.build_calls", "count", "lower"),
    ("hb.rounds", "count", "lower"),
    ("hb.derived_edges", "count", "lower"),
    ("hb.bits_propagated", "count", "lower"),
    ("hb.groups_examined", "count", "lower"),
    ("hb.events_repropagated", "count", "lower"),
    ("hb.closure_bytes", "B", "lower"),
    ("hb.queries", "count", "lower"),
    ("hb.query.lookups", "count", "lower"),
    ("hb.query.memo_hit_ratio", "ratio", "higher"),
    ("detect.accesses_s", "s", "lower"),
    ("detect.usefree_s", "s", "lower"),
    ("detect.candidates", "count", "lower"),
    ("detect.reports", "count", "lower"),
    ("stream.feed_s", "s", "lower"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.poll_s", "s", "lower"),
    ("stream.finish_s", "s", "lower"),
    ("stream.polls", "count", "lower"),
    ("stream.fixpoint_rounds", "count", "lower"),
    ("stream.derived_edges", "count", "lower"),
    ("stream.epochs_retired", "count", "higher"),
    ("stream.peak_closure_bytes", "B", "lower"),
    ("router.feed_s", "s", "lower"),
    ("router.drain_s", "s", "lower"),
    ("router.frames", "count", "lower"),
    ("router.bytes", "B", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.messages", "count", "lower"),
    ("bench.untraced_pass_s", "s", "lower"),
    ("bench.traced_pass_s", "s", "lower"),
    ("bench.traced_over_untraced", "ratio", "lower"),
]

#: span name -> the per-layer time metric its self time adds to
SPAN_LAYER = {
    "apps.simulate": "apps.simulate_s",
    "trace.encode": "trace.encode_s",
    "trace.decode": "trace.decode_s",
    "hb.build": "hb.build_s",
    "hb.build_conventional": "hb.build_conventional_s",
    "detect.accesses": "detect.accesses_s",
    "detect.usefree": "detect.usefree_s",
    "stream.feed": "stream.feed_s",
    "stream.ingest": "stream.ingest_s",
    "stream.poll": "stream.poll_s",
    "stream.finish": "stream.finish_s",
    "router.feed": "router.feed_s",
    "router.drain": "router.drain_s",
}

#: BuildProfile / QueryProfile fields summed into hb.* counts
_HB_COUNTS = (
    "rounds", "derived_edges", "bits_propagated", "groups_examined",
    "events_repropagated", "queries", "memo_hits", "memo_misses",
)

# span record fields
NAME, START, END, PARENT, UNIT, DATA = range(6)


class Tracer:
    """An in-memory span list for one pass.  Each span is
    ``[name, start_ns, end_ns, parent_index, unit, data]``; a span with
    no unit of its own inherits its parent's, so the spans of one
    trace or session share an id."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: hb.build spans whose HappensBefore is still being queried
        self.pending_hb: List[Tuple[int, object]] = []

    def open(self, name: str, unit=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent][UNIT]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, unit, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, unit=None):
        index = self.open(name, unit)
        try:
            yield
        finally:
            self.close(index)

    def settle_hb(self) -> None:
        """Read the counters of every finished build's relation (queries
        accrue until its detection pass returns) and drop the object."""
        for index, hb in self.pending_hb:
            self.spans[index][DATA] = hb_counts(hb)
        self.pending_hb.clear()


class _NullTracer:
    def span(self, name: str, unit=None):
        return nullcontext()


NULL_TRACER = _NullTracer()


def hb_counts(hb) -> Dict[str, int]:
    profile, queries = hb.profile, hb.query_profile
    return {
        "rounds": profile.rounds,
        "derived_edges": hb.derived_edges,
        "bits_propagated": profile.bits_propagated,
        "groups_examined": profile.groups_examined,
        "events_repropagated": profile.events_repropagated,
        "closure_bytes": profile.closure_bytes,
        "queries": queries.queries,
        "memo_hits": queries.memo_hits,
        "memo_misses": queries.memo_misses,
    }


# ---------------------------------------------------------------------------
# Wrapping the program's entry points
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn: Callable, name, unit: Optional[Callable] = None,
          data: Optional[Callable] = None) -> Callable:
    """``fn`` recording a span per call into ``tracer``.  ``name`` is a
    string or a function of the call's arguments; ``unit`` maps the
    arguments to a unit id; ``data`` maps (tracer, span index, result)
    to what the span keeps."""

    def wrapper(*args, **kwargs):
        index = tracer.open(
            name if isinstance(name, str) else name(args, kwargs),
            unit(args) if unit is not None else None,
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if data is not None:
            tracer.spans[index][DATA] = data(tracer, index, result)
        return result

    return wrapper


def _build_name(args, kwargs) -> str:
    from repro.hb import CONVENTIONAL_MODEL

    config = args[1] if len(args) > 1 else kwargs.get("config")
    return "hb.build_conventional" if config == CONVENTIONAL_MODEL else "hb.build"


def _keep_hb(tracer: Tracer, index: int, hb) -> None:
    tracer.pending_hb.append((index, hb))


def _detected(tracer: Tracer, index: int, result) -> dict:
    tracer.settle_hb()
    return {"candidates": result.dynamic_candidates, "reports": len(result.reports)}


def _session_of(args):
    # The analyzer's profile object is also its SessionReport's
    # profile, which is how a pass maps it back to the session id.
    return args[0].profile


def _targets(scope: str):
    """(owner, attribute, wrapper arguments) for every entry point of ``scope``:
    "router" (the parent-side daemon calls only) or "all"."""
    from repro.detect import UseFreeDetector
    from repro.detect import accesses as detect_accesses
    from repro.hb import builder
    from repro.stream import IncrementalHB, RouterChannel, SessionRouter, StreamAnalyzer
    from repro.trace import AnyTraceDecoder, serialization

    router = [
        (RouterChannel, "feed", dict(name="router.feed")),
        (SessionRouter, "drain", dict(name="router.drain")),
    ]
    if scope == "router":
        return router
    return router + [
        (serialization, "loads_trace",
         dict(name="trace.decode", data=lambda t, i, trace: {"ops": len(trace)})),
        (AnyTraceDecoder, "feed",
         dict(name="trace.decode", data=lambda t, i, ops: {"ops": ops})),
        (builder, "build_happens_before", dict(name=_build_name, data=_keep_hb)),
        (detect_accesses, "extract_accesses", dict(name="detect.accesses")),
        (UseFreeDetector, "detect", dict(name="detect.usefree", data=_detected)),
        (StreamAnalyzer, "feed", dict(name="stream.feed", unit=_session_of)),
        (StreamAnalyzer, "finish", dict(name="stream.finish", unit=_session_of)),
        (IncrementalHB, "ingest", dict(name="stream.ingest")),
        (IncrementalHB, "poll", dict(name="stream.poll")),
    ]


def install(tracer: Tracer, scope: str = "all") -> Callable[[], None]:
    """Wrap the entry points of ``scope`` to record into ``tracer``;
    returns the function that puts the originals back."""
    undo: List[Tuple[object, str, object]] = []
    for owner, attr, spec in _targets(scope):
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, **spec)
        if isinstance(owner, type):
            holders = [owner]
        else:  # a function: rebind it wherever a repro module imported it
            holders = [
                module for name, module in sorted(sys.modules.items())
                if name.split(".")[0] == "repro"
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Self times, counts, export
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus its direct children's (nanoseconds).
    Spans nest strictly (one thread), so children never overlap."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_seconds(spans: Sequence[list]) -> Dict[str, float]:
    """Self seconds per per-layer time metric over one pass's spans."""
    out: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        metric = SPAN_LAYER.get(span[NAME])
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + own / 1e9
    return out


def span_counts(spans: Sequence[list]) -> Dict[str, float]:
    """The per-layer counts one pass's span data carries."""
    counts: Dict[str, float] = {
        "trace.decoded_ops": 0, "hb.build_calls": 0, "hb.closure_bytes": 0,
        "detect.candidates": 0, "detect.reports": 0,
    }
    for key in _HB_COUNTS:
        counts[f"hb.{key}"] = 0
    per_unit_closure: Dict[object, int] = {}
    for span in spans:
        name, data = span[NAME], span[DATA]
        if data is None:  # the call raised, or its span carries no count
            continue
        if name == "trace.decode":
            # a decoder feed inside loads_trace is the same bytes again
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] != "trace.decode":
                counts["trace.decoded_ops"] += data["ops"]
        elif name in ("hb.build", "hb.build_conventional"):
            counts["hb.build_calls"] += 1
            for key in _HB_COUNTS:
                counts[f"hb.{key}"] += data[key]
            # both models' closures are alive while one trace is classified
            per_unit_closure[span[UNIT]] = (
                per_unit_closure.get(span[UNIT], 0) + data["closure_bytes"]
            )
        elif name == "detect.usefree":
            counts["detect.candidates"] += data["candidates"]
            counts["detect.reports"] += data["reports"]
    counts["hb.closure_bytes"] = max(per_unit_closure.values(), default=0)
    return counts


def chrome_trace(groups: Sequence[Tuple[int, List[Tracer]]], meta: dict) -> dict:
    """The Chrome ``trace_event`` document (the shape ``repro stats
    --trace-out`` writes) for every pass of every process: one row per
    pass, span ids unique across the file."""
    events = []
    base = 0
    for pid, tracers in groups:
        for row, tracer in enumerate(tracers):
            for index, span in enumerate(tracer.spans):
                events.append({
                    "name": span[NAME],
                    "ph": "X",
                    "ts": span[START] / 1000.0,
                    "dur": (span[END] - span[START]) / 1000.0,
                    "pid": pid,
                    "tid": row,
                    "args": {
                        "id": base + index,
                        "parent": base + span[PARENT] if span[PARENT] >= 0 else None,
                        "unit": span[UNIT],
                        "pass": tracer.label,
                    },
                })
            base += len(tracer.spans)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(path: str, groups, meta: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(chrome_trace(groups, meta), fp)
        fp.write("\n")
