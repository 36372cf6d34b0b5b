"""The online streaming detection service.

:class:`StreamAnalyzer` is the long-running counterpart of the batch
pipeline: trace records go in (v1/v2 text or v3 binary — file tail,
stdin, or the in-process :meth:`~StreamAnalyzer.append` feed), race
reports come out as the analysis catches up — without ever holding more
than the active *epoch* of the session in memory.

Ingestion path::

    bytes/lines ──> AnyTraceDecoder ──> columnar TraceStore
                                   │
                 range drive       ▼
        quiescence pre-pass        ─ kind/task columns: where the epoch ends
        IncrementalHB (CAFA model) ─ scan state; the batch graph, built when polled
        AccessExtractor            ─ uses/frees/guards/locksets

After each feed the analyzer drives its structures over the new ops as
ranges of the store's columns.  A pre-pass over the kind and task
columns tracks which tasks are open or expected and stops after the
first END that quiesces the session; the relation and the extractor
then take the ops up to there as one range, and the epoch retires.

Detection runs the *unmodified* batch detector
(:class:`~repro.detect.usefree.UseFreeDetector`) over the live state —
the CAFA relation and the access index are injected, and the detector
classifies reports with its own vector-clock pass over the epoch's
ops — so online reports are byte-identical to an offline run over the
same ops.

**Epoch GC.**  A session *quiesces* when every task that has begun has
ended and nothing else is expected (every forked task and sent event
has been dispatched to completion).  At a quiescence point the
analyzer retires the epoch: it runs the authoritative detection pass,
records the epoch's reports, and drops the epoch's closure chunks,
scan state, and interned-table entries by starting fresh structures
for the next epoch (the task table persists — task ids are
session-global); ops already decoded past the quiescence point move to
the next epoch's store as column slices.  Memory is thereby bounded by
the largest single epoch, not the session length.
Retirement is not sound under CAFA in general: a later root task (an
external event, an unforked thread) gets no edge from the retired
epoch, so a pair across the boundary can race unseen.  Addresses
touched in a retired epoch are remembered (as a plain set) so a later
access to one is *counted* as ``cross_epoch_accesses``; a non-zero
count flags that GC'd results may miss races a full offline run
reports (``docs/streaming.md``, "Epoch GC").

**Provisional vs authoritative reports.**  The happens-before relation
only grows, so a pair can move from concurrent to ordered as more
records arrive — mid-epoch reports from :meth:`detect_now` are
therefore *provisional* (they can disappear).  Reports recorded at
epoch retirement and at :meth:`finish` are authoritative: they are
exactly what the batch detector emits for those ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..detect import AccessExtractor, DetectorOptions, UseFreeDetector
from ..detect.report import RaceReport
from ..obs.spans import span
from ..trace import AnyTraceDecoder, OpKind, Trace
from ..trace.store import KIND_CODES
from ..trace.trace import TaskInfo
from .incremental import IncrementalHB

_BEGIN = KIND_CODES[OpKind.BEGIN]
_END = KIND_CODES[OpKind.END]
#: kind code -> the field naming the task an op of that kind expects
_EXPECTS = {
    KIND_CODES[OpKind.SEND]: "event",
    KIND_CODES[OpKind.SEND_AT_FRONT]: "event",
    KIND_CODES[OpKind.FORK]: "child",
}
_POINTER = frozenset(KIND_CODES[k] for k in (OpKind.PTR_READ, OpKind.PTR_WRITE))


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
        """Ingest a chunk of stream bytes (v1/v2 text, v3 binary or a
        single-session envelope) or text; returns ops appended."""
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

    # -- the range drive -----------------------------------------------

    def _drain(self) -> None:
        # self.trace is re-read every iteration: a range that ends at a
        # quiescing END retires the epoch and swaps in a fresh trace.
        while self._processed < len(self.trace):
            start = self._processed
            stop, quiesced = self._track(start, len(self.trace))
            self._processed = stop
            self.cafa.ingest(start, stop)
            self.extractor.feed(start, stop)
            self.profile.ops_ingested += stop - start
            self._epoch_ops += stop - start
            if quiesced:
                self._retire_epoch()
        self.profile.records_ingested = max(
            self.profile.records_ingested, self.decoder.records
        )

    def _track(self, start: int, stop: int) -> Tuple[int, bool]:
        """The quiescence pre-pass over ops ``start`` to ``stop - 1``:
        track open and expected tasks from the kind and task columns,
        and count accesses to retired addresses.  Stops after the first
        END that quiesces the session (with GC on); returns where it
        stopped and whether it quiesced."""
        store = self.trace.store
        kinds, task_ids = store.kinds, store.task_ids
        task_of, field_of = store.symbols.value, store.field_of
        opened, expected, ended = self._open, self._expected, self._ended
        retired = self._retired_addresses
        for i in range(start, stop):
            code = kinds[i]
            if code == _BEGIN:
                task = task_of(task_ids[i])
                opened.add(task)
                expected.discard(task)
            elif code == _END:
                task = task_of(task_ids[i])
                opened.discard(task)
                expected.discard(task)
                ended.add(task)
                if self.gc and not opened and not expected:
                    return i + 1, True
            elif code in _EXPECTS:
                task = field_of(i, _EXPECTS[code])
                if task not in ended:
                    expected.add(task)
            elif code in _POINTER:
                if retired and field_of(i, "address") in retired:
                    self.profile.cross_epoch_accesses += 1
        return stop, False

    def _poll(self) -> None:
        """Build the relation before a detection pass — the only place
        the graph is built — and sample the closure footprint."""
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
        # A chunked feed or a v3 batch may have decoded ops past the
        # quiescence point; they belong to the new epoch and move over
        # as column slices.
        fresh.store.adopt_tail(old.store, done)
        self.decoder.trace = fresh
        self._attach(fresh)
        self.profile.closure_bytes = 0

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
