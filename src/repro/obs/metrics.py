"""The metrics core: a process-local registry of counters, gauges,
and fixed-bucket latency histograms.

Design constraints, in order:

1. **Near-zero cost when disabled.**  A disabled registry hands out
   shared null instruments whose methods are empty one-liners and
   registers nothing — the hot paths pay one attribute call and no
   allocation.  Production predictive-race systems treat measured
   observation overhead as a first-class design constraint; ours is
   CI-gated in ``benchmarks/bounds_pr9.json`` (enabled ingest
   throughput must stay within 0.9x of disabled).

2. **Snapshots travel, instruments do not.**  Instruments are
   process-local and lock-free (CPython ``+=`` on the owning thread);
   what crosses process boundaries is a :class:`MetricsSnapshot` — a
   plain picklable dataclass of sample dicts.  Shard workers ship
   snapshots to the router, which merges them
   (:func:`merge_snapshots`) into the daemon-wide view served over
   ``/metrics`` (Prometheus text) and ``/status.json``.

3. **Nothing is reported twice.**  The existing profile dataclasses
   (``BuildProfile``, ``QueryProfile``, ``TraceProfile``,
   ``StreamProfile``, ``WorkerProfile``, ``DecodeStats``) stay the
   single source of truth for their counters; the registry *adapts*
   them as metric families at snapshot time
   (:meth:`MetricsRegistry.register_profile`) instead of mirroring
   every increment into a second set of counters.

Sample keys are fully-rendered Prometheus sample names —
``repro_shard_queue_depth{shard="2"}`` — so merging, rendering, and
JSON export are all plain dict operations over one stable schema (the
same one ``repro stats --json`` and ``repro top`` consume; see
``docs/observability.md`` for the catalog).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A sample that can go up and down (queue depth, active sessions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


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


class _NullInstrument:
    """The disabled-mode stand-in for every instrument kind."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: the shared disabled instrument; identity-comparable in tests
NULL_INSTRUMENT = _NullInstrument()


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

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramData":
        return cls(**data)


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time export of one registry (or a merge of
    many).  ``families`` maps bare metric names to ``(kind, help)`` so
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
        key = _sample_name(name, labels)
        existing = self.histograms.get(key)
        if existing is None:
            self.histograms[key] = HistogramData(
                bounds=list(data.bounds),
                counts=list(data.counts),
                sum=data.sum,
                count=data.count,
            )
        else:
            _merge_histogram(existing, data, key)

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

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        snap = cls()
        snap.counters = dict(data.get("counters", {}))
        snap.gauges = dict(data.get("gauges", {}))
        for key, hist in data.get("histograms", {}).items():
            snap.histograms[key] = HistogramData(
                bounds=list(hist["bounds"]),
                counts=list(hist["counts"]),
                sum=hist.get("sum", 0.0),
                count=hist.get("count", 0),
            )
        return snap


def _merge_histogram(into: HistogramData, data: HistogramData, key: str) -> None:
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
            existing = merged.histograms.get(key)
            if existing is None:
                merged.histograms[key] = HistogramData(
                    bounds=list(data.bounds),
                    counts=list(data.counts),
                    sum=data.sum,
                    count=data.count,
                )
            else:
                _merge_histogram(existing, data, key)
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


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


#: per-profile-class overrides of the counter-by-default adaptation:
#: fields listed here export as gauges (point-in-time quantities that
#: must not be read as monotonic)
_PROFILE_GAUGE_FIELDS = {
    "StreamProfile": {"closure_bytes", "peak_closure_bytes",
                      "retired_addresses"},
    "BuildProfile": {"dense_chunk_ratio", "closure_bytes",
                     "chunks_allocated", "chunks_shared"},
    "QueryProfile": {"mask_tasks", "mask_bytes"},
    "TraceProfile": {"ops", "tasks", "symbols", "addresses",
                     "memory_bytes", "disk_bytes"},
    "WorkerProfile": {"pid"},
}


class MetricsRegistry:
    """A process-local set of named instruments (see module docs).

    ``enabled=False`` is the no-op mode: every factory returns the
    shared :data:`NULL_INSTRUMENT` and the registry stays empty — a
    ``snapshot()`` of a disabled registry has no samples and no
    families.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, Tuple[str, str, object]] = {}
        self._probes: List[Callable[[MetricsSnapshot], None]] = []

    def __len__(self) -> int:
        return len(self._instruments)

    def _register(self, name: str, kind: str, help: str,
                  labels: Optional[Dict[str, str]], factory):
        key = _sample_name(name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if existing[0] != kind:
                raise ValueError(
                    f"metric {key!r} already registered as {existing[0]}, "
                    f"not {kind}"
                )
            return existing[2]
        instrument = factory()
        self._instruments[key] = (kind, help, instrument)
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._register(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._register(name, "gauge", help, labels, Gauge)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._register(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    # -- profile adaptation -------------------------------------------

    def register_profile(self, prefix: str, supplier: Callable[[], object],
                         labels: Optional[Dict[str, str]] = None) -> None:
        """Adapt an existing profile dataclass as a metric family.

        ``supplier`` is called at every :meth:`snapshot` and must
        return a profile dataclass instance (or ``None`` to skip);
        each numeric field becomes a sample named
        ``{prefix}_{field}`` — counters by default, gauges for the
        fields named in ``_PROFILE_GAUGE_FIELDS``.  The profile stays
        the single source of truth; nothing is double-counted.
        """
        if not self.enabled:
            return

        def probe(snapshot: MetricsSnapshot) -> None:
            profile = supplier()
            if profile is None:
                return
            profile_snapshot(snapshot, prefix, profile, labels=labels)

        self._probes.append(probe)

    def snapshot(self) -> MetricsSnapshot:
        """Export every instrument and probe as a picklable snapshot."""
        snap = MetricsSnapshot()
        if not self.enabled:
            return snap
        for key, (kind, help_text, instrument) in self._instruments.items():
            name = key.split("{", 1)[0]
            snap.family(name, kind, help_text)
            if kind == "counter":
                snap.counters[key] = (
                    snap.counters.get(key, 0.0) + instrument.value
                )
            elif kind == "gauge":
                snap.gauges[key] = instrument.value
            else:
                data = instrument.data()
                existing = snap.histograms.get(key)
                if existing is None:
                    snap.histograms[key] = data
                else:
                    _merge_histogram(existing, data, key)
        for probe in self._probes:
            probe(snap)
        return snap


def profile_snapshot(snapshot: MetricsSnapshot, prefix: str, profile,
                     labels: Optional[Dict[str, str]] = None) -> None:
    """Adapt one profile dataclass instance into ``snapshot`` (the
    registry-free form of :meth:`MetricsRegistry.register_profile`,
    used by the shard telemetry path which builds snapshots directly).
    """
    gauge_fields = _PROFILE_GAUGE_FIELDS.get(type(profile).__name__, set())
    for f in dataclasses.fields(profile):
        value = getattr(profile, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = f"{prefix}_{f.name}"
        if f.name in gauge_fields:
            snapshot.gauge(name, float(value), labels=labels)
        else:
            snapshot.counter(name, float(value), labels=labels)


# ---------------------------------------------------------------------------
# The process-default registry
# ---------------------------------------------------------------------------

_default = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-default registry (disabled until configured)."""
    return _default


def configure(enabled: bool = True) -> MetricsRegistry:
    """Replace the process-default registry; returns the new one.

    Called once at entry points (``repro serve`` unless
    ``--no-metrics``); library code reaches the registry through
    :func:`get_registry` so the swap is global.
    """
    global _default
    _default = MetricsRegistry(enabled=enabled)
    return _default
