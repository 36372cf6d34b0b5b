"""Unified telemetry: metric snapshots of the profile dataclasses
(picklable, mergeable, rendered as Prometheus text), the one live
latency histogram, span tracing (the engine's only phase timer, with
Chrome ``trace_event`` export when a recorder is installed), live
daemon endpoints, structured JSON logging, and the stable
``repro stats --json`` schema (see ``docs/observability.md``)."""

from .logging import JsonLogFormatter, configure_json_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramData,
    MetricsSnapshot,
    configure,
    merge_snapshots,
    render_prometheus,
)
from .spans import (
    DEFAULT_SPAN_CAPACITY,
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)
from .statsdoc import SCHEMA as STATS_SCHEMA
from .statsdoc import stats_document

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SPAN_CAPACITY",
    "Histogram",
    "HistogramData",
    "JsonLogFormatter",
    "MetricsSnapshot",
    "STATS_SCHEMA",
    "SpanRecorder",
    "configure",
    "configure_json_logging",
    "disable_tracing",
    "enable_tracing",
    "get_logger",
    "merge_snapshots",
    "render_prometheus",
    "span",
    "stats_document",
    "tracing_enabled",
]
