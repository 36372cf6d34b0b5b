"""The sharded session router: the daemon's demultiplexing front end.

``SessionRouter`` is what turns the single-session
:class:`~repro.stream.service.StreamAnalyzer` into a multi-session
service.  Bytes arrive on one or more *channels* (a file tail, stdin,
one socket connection each); every channel demultiplexes its
session-frame envelope (:mod:`repro.trace.envelope`) — or treats a
plain, un-enveloped trace stream as a single anonymous session — and
the router consistent-hashes each session id onto one of ``N`` shard
worker processes (:class:`repro.parallel.WorkerPool`).  Each shard
runs an ordinary ``StreamAnalyzer`` per session, so per-session
analysis never crosses a process boundary and the sharded reports are
**byte-identical** to a single-process run of the same streams.

Backpressure is end to end: shard inboxes are bounded queues, so a
shard that falls behind blocks the router's dispatch, which stops the
transport from being read.  ``drain()`` is the graceful shutdown —
every shard finishes its open sessions authoritatively
(``StreamAnalyzer.finish``) and ships back per-session
:class:`SessionReport`\\ s plus its merged profile; the router
assembles them into one :class:`DaemonReport` with deterministic
(session-sorted) ordering.

``shards=0`` runs the same shard code *inline* in the calling
process — the zero-worker reference the differential tests compare
the multi-process daemon against.

A session whose stream is damaged is isolated: under ``strict=True``
its :class:`SessionReport` records the error (and salvages nothing);
under ``strict=False`` the valid prefix is analyzed.  A session whose
ops violate the model (a happens-before cycle, or one queue drained by
two loopers) closes with the error named and no reports.  Either way
the other sessions on the shard are untouched — a daemon must not let
one corrupt uploader poison its neighbours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..detect import DetectorOptions
from ..hb import HBCycleError, ModelNotApplicableError
from ..obs.metrics import Histogram, MetricsSnapshot, merge_snapshots
from ..obs.spans import span
from ..parallel import (
    DEFAULT_QUEUE_SIZE,
    DEFAULT_TELEMETRY_INTERVAL,
    ShardRing,
    WorkerPool,
    WorkerProfile,
)
from ..trace import TraceError
from ..trace.envelope import MUX_FIRST_BYTE, MuxDecoder
from .service import StreamAnalyzer, StreamProfile, merge_profiles

#: errors that end one session without touching the shard's others
_SESSION_ERRORS = (TraceError, HBCycleError, ModelNotApplicableError)


@dataclass
class SessionReport:
    """One session's authoritative outcome."""

    session: str
    shard: int
    ops: int
    records: int
    #: ``str()`` of every authoritative race report, in epoch order
    reports: List[str]
    #: True when an END frame closed the session; False when the
    #: daemon's drain closed it (stream may have been mid-session)
    ended: bool
    degraded: bool = False
    error: Optional[str] = None
    profile: StreamProfile = field(default_factory=StreamProfile)

    def as_dict(self) -> dict:
        import dataclasses

        out = dataclasses.asdict(self)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SessionReport":
        data = dict(data)
        data["profile"] = StreamProfile.from_dict(data.get("profile", {}))
        return cls(**data)

    def format(self) -> str:
        flags = []
        if not self.ended:
            flags.append("drained mid-session")
        if self.degraded:
            flags.append("degraded")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines = [
            f"session {self.session} (shard {self.shard}): "
            f"{self.ops} ops, {len(self.reports)} reports{suffix}"
        ]
        if self.error:
            lines.append(f"  error: {self.error}")
        lines.extend(f"  {report}" for report in self.reports)
        return "\n".join(lines)


@dataclass
class DaemonReport:
    """Everything one daemon run produced, deterministically ordered."""

    shards: int
    #: session id -> report, iterated in sorted(session) order
    sessions: Dict[str, SessionReport]
    #: per-shard merged profiles, in shard order
    shard_profiles: List[StreamProfile]
    #: per-shard worker accounting (pid, messages, busy seconds)
    worker_profiles: List[WorkerProfile]
    #: frames the router dispatched (data + end)
    frames_routed: int = 0
    bytes_routed: int = 0

    @property
    def merged(self) -> StreamProfile:
        return merge_profiles(self.shard_profiles)

    def reports_of(self, session: str) -> List[str]:
        return self.sessions[session].reports

    def format(self) -> str:
        lines = [
            f"daemon: {len(self.sessions)} sessions over "
            f"{self.shards} shard(s), {self.frames_routed} frames, "
            f"{self.bytes_routed} bytes routed"
        ]
        for sid in sorted(self.sessions):
            lines.append(self.sessions[sid].format())
        lines.append(self.merged.format())
        return "\n".join(lines)

    def as_dict(self) -> dict:
        import dataclasses

        return {
            "shards": self.shards,
            "frames_routed": self.frames_routed,
            "bytes_routed": self.bytes_routed,
            "sessions": {
                sid: report.as_dict()
                for sid, report in sorted(self.sessions.items())
            },
            "shard_profiles": [
                dataclasses.asdict(p) for p in self.shard_profiles
            ],
            "workers": [
                dataclasses.asdict(w) for w in self.worker_profiles
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "DaemonReport":
        return cls(
            shards=data["shards"],
            sessions={
                sid: SessionReport.from_dict(rep)
                for sid, rep in data.get("sessions", {}).items()
            },
            shard_profiles=[
                StreamProfile.from_dict(p)
                for p in data.get("shard_profiles", [])
            ],
            worker_profiles=[
                WorkerProfile(**w) for w in data.get("workers", [])
            ],
            frames_routed=data.get("frames_routed", 0),
            bytes_routed=data.get("bytes_routed", 0),
        )


# ---------------------------------------------------------------------------
# The shard worker (runs in a child process; must stay picklable)
# ---------------------------------------------------------------------------


@dataclass
class _ShardConfig:
    """Per-daemon analyzer settings, shipped to every shard once."""

    gc: bool = True
    strict: bool = True
    expect_version: Optional[int] = None
    options: Optional[DetectorOptions] = None
    #: record feed-to-detect latencies and ship telemetry snapshots
    metrics: bool = False


class _ShardState:
    def __init__(self, index: int, config: _ShardConfig) -> None:
        self.index = index
        self.config = config
        self.analyzers: Dict[str, StreamAnalyzer] = {}
        self.done: Dict[str, SessionReport] = {}
        self.frames_handled = 0
        #: dispatch-stamp to handled latency of data frames (queue wait
        #: + decode + incremental analysis), the daemon's p50/p95/p99
        self.feed_latency: Optional[Histogram] = (
            Histogram() if config.metrics else None
        )


def _shard_init(name: str, config: _ShardConfig) -> _ShardState:
    # worker names are "shard-0", "shard-1", ...; the numeric tail is
    # the shard's ring index
    tail = name.rsplit("-", 1)[-1]
    return _ShardState(int(tail) if tail.isdigit() else 0, config)


def _close_session(
    state: _ShardState, sid: str, analyzer: StreamAnalyzer, ended: bool
) -> None:
    error = None
    degraded = False
    try:
        reports = [str(r) for r in analyzer.finish()]
    except _SESSION_ERRORS as exc:
        reports = []
        error = f"{type(exc).__name__}: {exc}"
        degraded = True
    if analyzer.decoder.degraded:
        degraded = True
        error = error or str(analyzer.decoder.error)
    state.done[sid] = SessionReport(
        session=sid,
        shard=state.index,
        ops=analyzer.profile.ops_ingested,
        records=analyzer.profile.records_ingested,
        reports=reports,
        ended=ended,
        degraded=degraded,
        error=error,
        profile=analyzer.profile,
    )


def _shard_handle(state: _ShardState, msg: tuple) -> None:
    tag, sid = msg[0], msg[1]
    state.frames_handled += 1
    if tag == "data":
        analyzer = state.analyzers.get(sid)
        if analyzer is None:
            if sid in state.done:
                report = state.done[sid]
                report.degraded = True
                report.error = report.error or (
                    "data frames arrived after the session's END frame"
                )
                return
            config = state.config
            analyzer = state.analyzers[sid] = StreamAnalyzer(
                config.options,
                strict=config.strict,
                gc=config.gc,
                expect_version=config.expect_version,
            )
        try:
            analyzer.feed(msg[2])
        except _SESSION_ERRORS as exc:
            # Session-level fault isolation: this stream is damaged
            # beyond its salvageable prefix, or its ops violate the
            # model; the shard's other sessions must not be affected.
            del state.analyzers[sid]
            state.done[sid] = SessionReport(
                session=sid,
                shard=state.index,
                ops=analyzer.profile.ops_ingested,
                records=analyzer.profile.records_ingested,
                reports=[],
                ended=False,
                degraded=True,
                error=f"{type(exc).__name__}: {exc}",
                profile=analyzer.profile,
            )
        if state.feed_latency is not None and len(msg) > 3:
            state.feed_latency.observe(time.monotonic() - msg[3])
    elif tag == "end":
        analyzer = state.analyzers.pop(sid, None)
        if analyzer is None:
            if sid in state.done:
                report = state.done[sid]
                report.degraded = True
                report.error = report.error or "duplicate END frame"
            else:
                state.done[sid] = SessionReport(
                    session=sid,
                    shard=state.index,
                    ops=0,
                    records=0,
                    reports=[],
                    ended=True,
                    degraded=True,
                    error="END frame for a session with no data",
                )
            return
        _close_session(state, sid, analyzer, ended=True)
    else:  # pragma: no cover - the router never sends anything else
        raise ValueError(f"unknown shard message {msg!r}")


def _shard_finish(state: _ShardState) -> Dict[str, SessionReport]:
    for sid in sorted(state.analyzers):
        _close_session(state, sid, state.analyzers.pop(sid), ended=False)
    return state.done


def _shard_telemetry(state: _ShardState) -> MetricsSnapshot:
    """One shard's live metrics snapshot (runs in the shard process;
    shipped to the router by the worker telemetry loop and merged into
    the daemon-wide ``/metrics`` view).

    Counter families aggregate the shard's :class:`StreamProfile`
    counters over *all* its sessions — open analyzers and closed
    reports alike — so the exported totals are monotonic across a
    session's whole lifecycle.
    """
    snap = MetricsSnapshot()
    shard = {"shard": str(state.index)}
    failed = sum(
        1 for report in state.done.values()
        if report.degraded or report.error
    )
    snap.gauge("repro_shard_sessions_active", float(len(state.analyzers)),
               labels=shard, help="sessions with open analyzers")
    snap.counter("repro_shard_sessions_finished_total",
                 float(len(state.done) - failed), labels=shard,
                 help="sessions closed without degradation")
    snap.counter("repro_shard_sessions_failed_total", float(failed),
                 labels=shard,
                 help="sessions closed degraded or in error")
    snap.counter("repro_shard_frames_handled_total",
                 float(state.frames_handled), labels=shard,
                 help="session frames (data + end) handled")
    open_profiles = [a.profile for a in state.analyzers.values()]
    merged = merge_profiles(
        open_profiles + [r.profile for r in state.done.values()]
    )
    for name, help_text in (
        ("ops_ingested", "trace operations analyzed"),
        ("records_ingested", "stream records decoded"),
        ("epochs_retired", "epochs dropped by quiescence GC"),
        ("reports_emitted", "authoritative race reports"),
        ("cross_epoch_accesses", "accesses to retired addresses"),
    ):
        snap.counter(f"repro_shard_{name}_total",
                     float(getattr(merged, name)), labels=shard,
                     help=help_text)
    snap.gauge(
        "repro_shard_closure_bytes",
        float(sum(p.closure_bytes for p in open_profiles)),
        labels=shard,
        help="live closure memory of the shard's open sessions",
    )
    if state.feed_latency is not None:
        snap.histogram(
            "repro_feed_latency_seconds", state.feed_latency.data(),
            help="dispatch-to-analyzed latency of session data frames",
        )
    return snap


# ---------------------------------------------------------------------------
# Channels: per-connection envelope state
# ---------------------------------------------------------------------------


class RouterChannel:
    """One byte-stream into the router (a file, stdin, one socket
    connection).  Sniffs its own framing: an enveloped stream carries
    its own session ids; a plain v1/v2/v3 stream becomes the single
    session named after the channel."""

    def __init__(self, router: "SessionRouter", name: str) -> None:
        self._router = router
        self.name = name
        self._mux: Optional[MuxDecoder] = None
        self._plain = False
        self._closed = False

    def feed(self, chunk: bytes) -> None:
        if self._closed:
            raise TraceError(f"channel {self.name!r} is closed")
        if not chunk:
            return
        if self._mux is None and not self._plain:
            if chunk[:1] == MUX_FIRST_BYTE:
                self._mux = MuxDecoder(strict=True)
            else:
                self._plain = True
        if self._plain:
            self._router._data(self.name, bytes(chunk))
            return
        for event in self._mux.feed(chunk):
            if event[0] == "data":
                self._router._data(event[1], event[2])
            elif event[0] == "end":
                self._router._end(event[1])
            else:  # finish
                self._router.finish_requested = True

    def close(self) -> None:
        """End of this channel's bytes.  A plain channel's EOF is its
        session's end (authoritative); an enveloped channel's sessions
        are ended by their END frames or at daemon drain."""
        if self._closed:
            return
        self._closed = True
        if self._plain:
            self._router._end(self.name)
        elif self._mux is not None:
            self._mux.flush()  # raises on a dangling partial frame


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class SessionRouter:
    """See the module docstring."""

    def __init__(
        self,
        shards: int = 1,
        *,
        gc: bool = True,
        strict: bool = True,
        expect_version: Optional[int] = None,
        options: Optional[DetectorOptions] = None,
        queue_frames: int = DEFAULT_QUEUE_SIZE,
        vnodes: int = 64,
        metrics: bool = False,
        telemetry_interval: float = DEFAULT_TELEMETRY_INTERVAL,
    ) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.shards = shards
        self.metrics = metrics
        config = _ShardConfig(
            gc=gc, strict=strict, expect_version=expect_version,
            options=options, metrics=metrics,
        )
        self.ring = ShardRing(max(shards, 1), vnodes=vnodes)
        self.queue_frames = queue_frames
        self.frames_routed = 0
        self.bytes_routed = 0
        self.sessions_seen: set = set()
        #: a FINISH frame arrived on some channel: the serve loop
        #: should stop feeding and drain
        self.finish_requested = False
        self._drained = False
        self._inline: Optional[_ShardState] = None
        self._pool: Optional[WorkerPool] = None
        if shards == 0:
            self._inline = _shard_init("shard-0", config)
        else:
            self._pool = WorkerPool(
                shards,
                init=_shard_init,
                handle=_shard_handle,
                finish=_shard_finish,
                init_args=(config,),
                queue_size=queue_frames,
                name="shard",
                telemetry=_shard_telemetry if metrics else None,
                telemetry_interval=telemetry_interval,
            )

    # -- channel / dispatch surface ------------------------------------

    def channel(self, name: str) -> RouterChannel:
        """A new input channel (one per transport connection)."""
        return RouterChannel(self, name)

    def feed(self, chunk: bytes) -> None:
        """Single-input convenience: feed the implicit default channel."""
        if not hasattr(self, "_default_channel"):
            self._default_channel = self.channel("session-0")
        self._default_channel.feed(chunk)

    def _dispatch(self, sid: str, msg: tuple) -> None:
        self.sessions_seen.add(sid)
        self.frames_routed += 1
        with span("daemon.dispatch"):
            if self._inline is not None:
                _shard_handle(self._inline, msg)
            else:
                self._pool.send(self.ring.shard_of(sid), msg)

    def _data(self, sid: str, payload: bytes) -> None:
        self.bytes_routed += len(payload)
        if self.metrics:
            # The dispatch stamp rides the message so the shard can
            # observe queue-wait + analysis latency end to end
            # (CLOCK_MONOTONIC is system-wide, so cross-process deltas
            # are meaningful).
            self._dispatch(sid, ("data", sid, payload, time.monotonic()))
        else:
            self._dispatch(sid, ("data", sid, payload))

    def _end(self, sid: str) -> None:
        self._dispatch(sid, ("end", sid))

    # public aliases for in-process feeding (tests, embedding)
    def data(self, sid: str, payload: bytes) -> None:
        self._data(sid, payload)

    def end_session(self, sid: str) -> None:
        self._end(sid)

    # -- live telemetry ------------------------------------------------

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The daemon-wide metrics view: router-level counters merged
        with the latest snapshot each shard shipped (or, inline,
        computed on the spot) plus the parent-side backpressure gauges
        (inbox depth vs. bound per shard).

        Shard counters lag by at most the telemetry interval; the
        router counters are exact at call time.  With ``metrics=False``
        the shard sections are absent and only the router counters
        (which cost nothing extra to keep) are reported.
        """
        snap = MetricsSnapshot()
        snap.counter("repro_router_frames_total", float(self.frames_routed),
                     help="session frames dispatched (data + end)")
        snap.counter("repro_router_bytes_total", float(self.bytes_routed),
                     help="session payload bytes dispatched")
        snap.counter("repro_router_sessions_total",
                     float(len(self.sessions_seen)),
                     help="distinct session ids routed")
        snap.gauge("repro_router_shards", float(self.shards),
                   help="configured shard worker processes")
        parts = [snap]
        if not self.metrics:
            return snap
        if self._inline is not None:
            parts.append(_shard_telemetry(self._inline))
        elif self._pool is not None:
            for index, worker in enumerate(self._pool.workers):
                shard = {"shard": str(index)}
                telemetry = worker.poll_telemetry()
                if telemetry is not None:
                    parts.append(telemetry)
                depth = worker.inbox_depth()
                if depth >= 0:
                    snap.gauge("repro_shard_queue_depth", float(depth),
                               labels=shard,
                               help="frames waiting in the shard inbox")
                snap.gauge("repro_shard_queue_bound",
                           float(worker.queue_size), labels=shard,
                           help="bounded inbox capacity (backpressure "
                           "threshold)")
        return merge_snapshots(parts)

    # -- shutdown ------------------------------------------------------

    def drain(self) -> DaemonReport:
        """Graceful shutdown: close the default channel if one is
        open, finish every session on every shard, and assemble the
        deterministic daemon report."""
        if self._drained:
            raise RuntimeError("router already drained")
        self._drained = True
        default = getattr(self, "_default_channel", None)
        if default is not None:
            default.close()
        sessions: Dict[str, SessionReport] = {}
        shard_profiles: List[StreamProfile] = []
        worker_profiles: List[WorkerProfile] = []
        with span("daemon.drain"):
            if self._inline is not None:
                done = _shard_finish(self._inline)
                sessions.update(done)
                shard_profiles.append(
                    merge_profiles(r.profile for r in done.values())
                )
            else:
                for done, profile in self._pool.drain():
                    sessions.update(done)
                    shard_profiles.append(
                        merge_profiles(r.profile for r in done.values())
                    )
                    worker_profiles.append(profile)
        return DaemonReport(
            shards=self.shards,
            sessions=sessions,
            shard_profiles=shard_profiles,
            worker_profiles=worker_profiles,
            frames_routed=self.frames_routed,
            bytes_routed=self.bytes_routed,
        )

    def terminate(self) -> None:
        """Hard stop (error paths); no reports are produced."""
        self._drained = True
        if self._pool is not None:
            self._pool.terminate()
