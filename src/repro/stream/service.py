"""The online streaming detection service.

:class:`StreamAnalyzer` is the long-running counterpart of the batch
pipeline: trace records go in (v1/v2 text or v3 binary — file tail,
stdin, or the in-process :meth:`~StreamAnalyzer.append` feed), race
reports come out as the analysis catches up — without ever holding more
than the active *epoch* of the session in memory.

Ingestion path::

    bytes/lines ──> AnyTraceDecoder ──> columnar TraceStore
                                   │
                 per-op drive      ▼
        IncrementalHB (CAFA model) ─ key graph + base edges, closed when polled
        AccessExtractor            ─ uses/frees/guards/locksets

Detection runs the *unmodified* batch detector
(:class:`~repro.detect.usefree.UseFreeDetector`) over the live state —
the CAFA relation and the access index are injected, and the detector
classifies reports with its own vector-clock pass over the epoch's
ops — so online reports are byte-identical to an offline run over the
same ops.

**Epoch GC.**  A session *quiesces* when every task that has begun has
ended and nothing else is expected (every forked task and sent event
has been dispatched to completion).  At a quiescence point no future
record can be ordered with a past one except through state the model
does not track, so the analyzer retires the epoch: it runs the
authoritative detection pass, records the epoch's reports, and drops
the epoch's closure chunks, scan state, and interned-table entries by
starting fresh structures for the next epoch (the task table persists —
task ids are session-global).  Memory is thereby bounded by the largest
single epoch, not the session length.  Addresses freed in a retired
epoch are remembered (as a plain set) so a later access to one —
possible only if the quiescence judgment was wrong for the application,
e.g. ordering through untracked shared state — is *counted* as
``cross_epoch_accesses`` rather than silently misanalyzed; a non-zero
count flags that GC'd results may diverge from a full offline run.

**Provisional vs authoritative reports.**  The happens-before relation
only grows, so a pair can move from concurrent to ordered as more
records arrive — mid-epoch reports from :meth:`detect_now` are
therefore *provisional* (they can disappear).  Reports recorded at
epoch retirement and at :meth:`finish` are authoritative: they are
exactly what the batch detector emits for those ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..detect import AccessExtractor, DetectorOptions, UseFreeDetector
from ..detect.report import RaceReport
from ..obs.spans import span
from ..trace import AnyTraceDecoder, OpKind, Trace
from ..trace.trace import TaskInfo
from .incremental import IncrementalHB


@dataclass
class StreamProfile:
    """Counters of one analyzer's life, shown by ``repro stream``."""

    records_ingested: int = 0
    ops_ingested: int = 0
    polls: int = 0
    fixpoint_rounds: int = 0
    derived_edges: int = 0
    epochs_retired: int = 0
    closure_bytes: int = 0
    peak_closure_bytes: int = 0
    retired_addresses: int = 0
    cross_epoch_accesses: int = 0
    reports_emitted: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "StreamProfile":
        """A profile from its ``asdict`` form.  Keys this class does not
        define are ignored, so reports saved by versions with other
        counters still load."""
        fields = cls.__dataclass_fields__
        return cls(**{k: v for k, v in data.items() if k in fields})

    def format(self) -> str:
        lines = ["stream profile:"]
        lines.append(f"  records ingested     {self.records_ingested:>12}")
        lines.append(f"  ops ingested         {self.ops_ingested:>12}")
        lines.append(f"  closure polls        {self.polls:>12}")
        lines.append(f"  fixpoint rounds      {self.fixpoint_rounds:>12}")
        lines.append(f"  derived edges        {self.derived_edges:>12}")
        lines.append(f"  epochs retired       {self.epochs_retired:>12}")
        lines.append(f"  closure bytes        {self.closure_bytes:>12}")
        lines.append(f"  peak closure bytes   {self.peak_closure_bytes:>12}")
        lines.append(f"  retired addresses    {self.retired_addresses:>12}")
        lines.append(f"  cross-epoch accesses {self.cross_epoch_accesses:>12}")
        lines.append(f"  reports emitted      {self.reports_emitted:>12}")
        return "\n".join(lines)


def merge_profiles(profiles) -> StreamProfile:
    """Aggregate many analyzers' profiles into one (the daemon's
    per-shard and whole-fleet views).

    Every counter is summed — including the ``peak_closure_bytes``
    fields, which makes the merged peak a *conservative upper bound*
    on the aggregate's true simultaneous peak (sessions on one shard
    run concurrently only epoch-interleaved, so their individual peaks
    rarely coincide).
    """
    merged = StreamProfile()
    for profile in profiles:
        for name in StreamProfile.__dataclass_fields__:
            setattr(merged, name, getattr(merged, name) + getattr(profile, name))
    return merged


@dataclass
class EpochSummary:
    """One retired (or final) epoch: its extent and its reports."""

    index: int
    ops: int
    reports: List[RaceReport]
    closure_bytes: int
    #: True for epochs dropped by quiescence GC; False for the final
    #: epoch closed out by :meth:`StreamAnalyzer.finish`
    retired: bool


class StreamAnalyzer:
    """See the module docstring.

    ``strict=False`` selects the decoder's salvage mode: a damaged
    record poisons the rest of the stream but everything decoded before
    it is analyzed (the degraded path for crash-truncated inputs).
    ``gc=False`` disables epoch retirement (one epoch spans the whole
    session; memory grows like offline mode).
    """

    def __init__(
        self,
        options: Optional[DetectorOptions] = None,
        *,
        strict: bool = True,
        gc: bool = True,
        expect_version: Optional[int] = None,
    ) -> None:
        self.options = options or DetectorOptions()
        self.gc = gc
        self.profile = StreamProfile()
        self.decoder = AnyTraceDecoder(
            expect_version=expect_version, strict=strict
        )
        self.epochs: List[EpochSummary] = []
        #: session-global task table, shared by every epoch's trace
        self._tasks = self.decoder.trace.tasks
        self._epoch_index = 0
        self._retired_addresses: Set[object] = set()
        self._open: Set[str] = set()
        self._expected: Set[str] = set()
        self._ended: Set[str] = set()
        self._rounds_retired = 0
        self._edges_retired = 0
        self._finished = False
        self._attach(self.decoder.trace)

    def _attach(self, trace: Trace) -> None:
        """Point the analysis structures at (a fresh) epoch trace."""
        self.trace = trace
        options = self.options
        self.cafa = IncrementalHB(trace, options.model)
        self.extractor = AccessExtractor(trace)
        self._processed = 0
        self._epoch_ops = 0

    # -- feeding -------------------------------------------------------

    def feed(self, chunk) -> int:
        """Ingest a chunk of v2 stream bytes/text; returns ops appended."""
        appended = self.decoder.feed(chunk)
        self._drain()
        return appended

    def feed_line(self, line) -> int:
        """Ingest one complete stream line; returns ops appended (0/1)."""
        appended = self.decoder.feed_line(line)
        self._drain()
        return appended

    def append(self, op) -> None:
        """In-process feed: hand over one already-decoded operation."""
        self.trace.append(op)
        self.profile.records_ingested += 1
        self._drain()

    def add_task(self, info: TaskInfo) -> None:
        """In-process feed: declare a task (before its first op)."""
        self.trace.add_task(info)
        self.profile.records_ingested += 1

    # -- the per-op drive ----------------------------------------------

    def _drain(self) -> None:
        # self.trace is re-read every iteration: ingesting an END op can
        # retire the epoch and swap in a fresh trace mid-drain.
        while self._processed < len(self.trace):
            i = self._processed
            self._processed += 1
            self._ingest(i, self.trace[i])
        self.profile.records_ingested = max(
            self.profile.records_ingested, self.decoder.records
        )

    def _ingest(self, i: int, op) -> None:
        self.cafa.ingest(i)
        self.extractor.feed(i, op)
        self.profile.ops_ingested += 1
        self._epoch_ops += 1
        kind = op.kind
        if kind is OpKind.BEGIN:
            self._open.add(op.task)
            self._expected.discard(op.task)
        elif kind is OpKind.END:
            self._open.discard(op.task)
            self._expected.discard(op.task)
            self._ended.add(op.task)
        elif kind is OpKind.SEND or kind is OpKind.SEND_AT_FRONT:
            if op.event not in self._ended:
                self._expected.add(op.event)
        elif kind is OpKind.FORK:
            if op.child not in self._ended:
                self._expected.add(op.child)
        elif kind is OpKind.PTR_READ or kind is OpKind.PTR_WRITE:
            if self._retired_addresses and op.address in self._retired_addresses:
                self.profile.cross_epoch_accesses += 1
        if (
            self.gc
            and kind is OpKind.END
            and not self._open
            and not self._expected
        ):
            self._retire_epoch()

    def _poll(self) -> None:
        """Catch the relation up before a detection pass — the only
        place the closure is built — and sample the closure footprint."""
        self.cafa.poll()
        self.profile.polls += 1
        self.profile.fixpoint_rounds = self._rounds_retired + self.cafa.rounds
        self.profile.derived_edges = self._edges_retired + self.cafa.derived_edges
        closure = self.cafa.closure_bytes()
        self.profile.closure_bytes = closure
        if closure > self.profile.peak_closure_bytes:
            self.profile.peak_closure_bytes = closure

    def _detect(self) -> List[RaceReport]:
        """Run the batch detector over the current epoch's live state."""
        with span("stream.detect", epoch=self._epoch_index):
            self._poll()
            detector = UseFreeDetector(
                self.trace,
                self.options,
                hb=self.cafa.relation(),
                accesses=self.extractor.index(),
            )
            return detector.detect().reports

    def detect_now(self) -> List[RaceReport]:
        """Provisional reports for the *open* epoch (see module docs:
        later records can only demote provisional races to ordered;
        epoch retirement / :meth:`finish` emit the authoritative set).
        """
        return self._detect()

    def _close_epoch(self, retired: bool) -> EpochSummary:
        reports = self._detect()
        summary = EpochSummary(
            index=self._epoch_index,
            ops=self._epoch_ops,
            reports=reports,
            # _detect's poll has just measured the closure
            closure_bytes=self.profile.closure_bytes,
            retired=retired,
        )
        self.epochs.append(summary)
        self.profile.reports_emitted += len(reports)
        return summary

    def _retire_epoch(self) -> None:
        with span("stream.epoch_retire", epoch=self._epoch_index):
            self._retire_epoch_inner()

    def _retire_epoch_inner(self) -> None:
        self._close_epoch(retired=True)
        self.profile.epochs_retired += 1
        # Remember the epoch's pointer slots so a (model-violating)
        # access from a later epoch is surfaced, not misanalyzed.
        for rec in self.extractor.frees:
            self._retired_addresses.add(rec.address)
        for rec in self.extractor.allocs:
            self._retired_addresses.add(rec.address)
        for rec in self.extractor.uses:
            self._retired_addresses.add(rec.address)
        self.profile.retired_addresses = len(self._retired_addresses)
        self._rounds_retired += self.cafa.rounds
        self._edges_retired += self.cafa.derived_edges
        # Drop the epoch: fresh trace/store (releasing the closure
        # chunks and interned columns with it), fresh analysis state.
        # The shared task table survives; the decoder keeps its
        # stream-level interning and appends to the new store.
        self._epoch_index += 1
        old, done = self.trace, self._processed
        fresh = Trace()
        fresh.tasks = self._tasks
        self.decoder.trace = fresh
        self._attach(fresh)
        self.profile.closure_bytes = 0
        # A chunked feed may have decoded ops past the quiescence point
        # before the drive caught up; they belong to the new epoch.
        for j in range(done, len(old)):
            fresh.append(old[j])

    # -- completion ----------------------------------------------------

    def finish(self) -> List[RaceReport]:
        """Flush buffered input, close out the last epoch, and return
        every authoritative report of the session (in epoch order)."""
        if not self._finished:
            self._finished = True
            self.decoder.flush()
            self._drain()
            if self._epoch_ops or not self.epochs:
                self._close_epoch(retired=False)
        return self.reports()

    def reports(self) -> List[RaceReport]:
        """All authoritative reports recorded so far, in epoch order."""
        out: List[RaceReport] = []
        for epoch in self.epochs:
            out.extend(epoch.reports)
        return out
