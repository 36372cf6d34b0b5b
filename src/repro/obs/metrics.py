"""Metric snapshots: the one export form of the daemon's telemetry.

Counts are held once, in the profile dataclasses of the layers that
do the work (``BuildProfile``, ``QueryProfile``, ``TraceProfile``,
``DecodeStats``, ``StreamProfile``, ``WorkerProfile``).  A
:class:`MetricsSnapshot` is what a reader gets: a plain picklable
dataclass of sample dicts, written straight from those profiles by the
three places that export live metrics —
:func:`repro.stream.router._shard_telemetry` (one shard's sessions),
:meth:`repro.stream.SessionRouter.metrics_snapshot` (router counters,
queue gauges and the shards' latest snapshots) and ``repro serve``'s
scrape provider (transport counters).  Shard workers ship snapshots
to the router, which merges them (:func:`merge_snapshots`) into the
daemon-wide view served over ``/metrics`` (Prometheus text, see
:func:`render_prometheus`) and ``/status.json``.

:class:`Histogram` is the one live instrument: a fixed-bucket latency
distribution (the shards' feed-to-detect latency), exported through
its :class:`HistogramData`.

Sample keys are fully-rendered Prometheus sample names —
``repro_shard_queue_depth{shard="2"}`` — so merging, rendering, and
JSON export are all plain dict operations over one stable schema (the
same one ``repro top`` consumes; see ``docs/observability.md`` for the
catalog).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (seconds); the implicit +Inf
#: bucket is always present
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _sample_name(name: str, labels: Optional[Dict[str, str]]) -> str:
    """Render ``name{k="v",...}`` with deterministic label order."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket distribution (cumulative Prometheus semantics at
    export; per-bucket counts internally so merging is a plain
    element-wise sum)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {bounds}")
        self.bounds = bounds
        #: one slot per finite bound plus the +Inf overflow slot
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def data(self) -> "HistogramData":
        return HistogramData(
            bounds=list(self.bounds),
            counts=list(self.counts),
            sum=self.sum,
            count=self.count,
        )


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


@dataclass
class HistogramData:
    """One histogram's picklable state (per-bucket, not cumulative)."""

    bounds: List[float]
    counts: List[int]
    sum: float = 0.0
    count: int = 0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) by linear interpolation
        within the owning bucket, the standard Prometheus
        ``histogram_quantile`` shape."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        lower = 0.0
        for i, bucket_count in enumerate(self.counts):
            upper = (
                self.bounds[i] if i < len(self.bounds) else math.inf
            )
            if seen + bucket_count >= rank:
                if math.isinf(upper) or bucket_count == 0:
                    return lower if not math.isinf(upper) else self.bounds[-1]
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * fraction
            seen += bucket_count
            lower = upper
        return self.bounds[-1]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time export of some profiles (or a merge
    of many snapshots).  ``families`` maps bare metric names to ``(kind, help)`` so
    the Prometheus renderer can emit ``# TYPE``/``# HELP`` headers;
    sample dicts are keyed by fully-rendered sample names."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramData] = field(default_factory=dict)
    families: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def family(self, name: str, kind: str, help: str = "") -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.families.setdefault(name, (kind, help))

    def counter(self, name: str, value: float,
                labels: Optional[Dict[str, str]] = None,
                help: str = "") -> None:
        self.family(name, "counter", help)
        key = _sample_name(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float,
              labels: Optional[Dict[str, str]] = None,
              help: str = "") -> None:
        self.family(name, "gauge", help)
        self.gauges[_sample_name(name, labels)] = value

    def histogram(self, name: str, data: HistogramData,
                  labels: Optional[Dict[str, str]] = None,
                  help: str = "") -> None:
        self.family(name, "histogram", help)
        _add_histogram(self.histograms, _sample_name(name, labels), data)

    def as_dict(self) -> dict:
        """Stable machine-readable form (the ``/status.json`` body and
        the ``repro top`` input): plain sample dicts plus derived
        quantiles for every histogram."""
        return {
            "schema": "repro-metrics/1",
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                key: {
                    **data.as_dict(),
                    "p50": data.quantile(0.50),
                    "p95": data.quantile(0.95),
                    "p99": data.quantile(0.99),
                }
                for key, data in sorted(self.histograms.items())
            },
        }


def _add_histogram(histograms: Dict[str, HistogramData], key: str,
                   data: HistogramData) -> None:
    """Add ``data`` into ``histograms[key]`` bucket-wise (a copy when
    the key is new)."""
    into = histograms.get(key)
    if into is None:
        histograms[key] = HistogramData(
            bounds=list(data.bounds),
            counts=list(data.counts),
            sum=data.sum,
            count=data.count,
        )
        return
    if list(into.bounds) != list(data.bounds):
        raise ValueError(
            f"histogram {key!r} merged with mismatched buckets: "
            f"{into.bounds} vs {data.bounds}"
        )
    for i, count in enumerate(data.counts):
        into.counts[i] += count
    into.sum += data.sum
    into.count += data.count


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Merge many snapshots into one: counters and histograms sum
    sample-wise (associative and order-independent), gauges sum too —
    the gauges this system exports (queue depths, active sessions,
    closure bytes) are per-shard quantities whose fleet-wide meaning
    *is* the sum.  Identity element: ``merge_snapshots([])`` is empty.
    """
    merged = MetricsSnapshot()
    for snap in snapshots:
        for name, meta in snap.families.items():
            merged.families.setdefault(name, meta)
        for key, value in snap.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        for key, value in snap.gauges.items():
            merged.gauges[key] = merged.gauges.get(key, 0.0) + value
        for key, data in snap.histograms.items():
            _add_histogram(merged.histograms, key, data)
    return merged


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """The plaintext Prometheus exposition of a snapshot."""
    lines: List[str] = []
    by_family: Dict[str, List[str]] = {}

    def bare(key: str) -> str:
        return key.split("{", 1)[0]

    for key in snapshot.counters:
        by_family.setdefault(bare(key), [])
    for key in snapshot.gauges:
        by_family.setdefault(bare(key), [])
    for key in snapshot.histograms:
        by_family.setdefault(bare(key), [])

    def fmt(value: float) -> str:
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)

    for name in sorted(by_family):
        kind, help_text = snapshot.families.get(name, ("gauge", ""))
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(snapshot.counters):
            if bare(key) == name:
                lines.append(f"{key} {fmt(snapshot.counters[key])}")
        for key in sorted(snapshot.gauges):
            if bare(key) == name:
                lines.append(f"{key} {fmt(snapshot.gauges[key])}")
        for key in sorted(snapshot.histograms):
            if bare(key) != name:
                continue
            data = snapshot.histograms[key]
            base, _, labels = key.partition("{")
            labels = labels[:-1] if labels else ""
            cumulative = 0
            for i, count in enumerate(data.counts):
                cumulative += count
                le = (
                    fmt(data.bounds[i]) if i < len(data.bounds) else "+Inf"
                )
                inner = f'{labels},le="{le}"' if labels else f'le="{le}"'
                lines.append(f"{base}_bucket{{{inner}}} {cumulative}")
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(f"{base}_sum{suffix} {fmt(data.sum)}")
            lines.append(f"{base}_count{suffix} {data.count}")
    return "\n".join(lines) + "\n" if lines else ""


def configure(enabled: bool = True) -> None:
    """Does nothing: there is no process-global metrics state.

    Live metrics are switched per router (``SessionRouter(metrics=...)``,
    which ``repro serve --no-metrics`` turns off).  The repository
    benchmark (``perfbench/analyse.py``) calls ``configure(enabled=True)``
    when it starts a serve-fleet run, and its code stays fixed so that
    its numbers stay comparable across changes; removing this function
    would fail every such run.
    """
