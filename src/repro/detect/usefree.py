"""The CAFA use-free race detector (Section 4).

A *use-free race* is a use and a free of the same pointer slot that are
not ordered by the happens-before relation of the event-driven
causality model.  The detector:

1. recovers uses/frees/guards/locksets from the low-level records
   (:mod:`repro.detect.accesses`);
2. builds the happens-before relation (:mod:`repro.hb`);
3. pairs up concurrent uses and frees of the same slot, dismissing
   pairs protected by a common lock (the lockset check of Section 3.2);
   the cheap lockset intersection runs *before* the happens-before
   query, and the surviving candidates are answered in one
   :meth:`~repro.hb.graph.HappensBefore.concurrent_pairs` batch so the
   query memo collapses repeated event pairs — the filters are
   conjunctive, so the reordering cannot change which pairs survive;
4. prunes pairs the if-guard or intra-event-allocation heuristics
   prove commutative — only for pairs whose events run on the same
   looper thread, where event atomicity makes the heuristics valid;
5. deduplicates surviving pairs into static reports and classifies
   each as intra-thread (a), inter-thread (b), or conventional (c)
   using a second happens-before pass under the conventional model.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from ..hb import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    HappensBefore,
    ModelConfig,
    build_happens_before,
)
from ..trace import Address, TaskKind, Trace
from .accesses import AccessIndex, PointerWrite, Use, extract_accesses
from .heuristics import (
    free_has_intra_event_realloc,
    use_has_intra_event_alloc,
    use_is_guarded,
)
from .report import RaceClass, RaceReport, RaceSiteKey, UseFreeRace


@dataclass(frozen=True)
class DetectorOptions:
    """Switches for the detector's filters (ablation knobs)."""

    if_guard: bool = True
    intra_event_allocation: bool = True
    lockset_filter: bool = True
    model: ModelConfig = CAFA_MODEL
    #: model used to decide column (b) vs (c); the Table 1 baseline
    conventional_model: ModelConfig = CONVENTIONAL_MODEL
    #: LRU bound of the query memo tables: None = the default
    #: (:data:`repro.hb.DEFAULT_MEMO_CAPACITY`), 0 = unbounded
    memo_capacity: Optional[int] = None


@dataclass
class DetectionResult:
    """Everything the detector produced for one trace."""

    trace: Trace
    options: DetectorOptions
    hb: HappensBefore
    accesses: AccessIndex
    #: surviving static reports (what CAFA prints)
    reports: List[RaceReport] = dataclass_field(default_factory=list)
    #: static reports whose every witness was pruned by a heuristic
    filtered_reports: List[RaceReport] = dataclass_field(default_factory=list)
    #: dynamic (use, free) pairs inspected (concurrent + lock-disjoint)
    dynamic_candidates: int = 0

    def report_count(self) -> int:
        return len(self.reports)

    def by_class(self, race_class: RaceClass) -> List[RaceReport]:
        return [r for r in self.reports if r.race_class is race_class]

    def find(self, field: str) -> List[RaceReport]:
        """Reports on a pointer field name (convenience for tests)."""
        return [r for r in self.reports if r.key.field == field]


class UseFreeDetector:
    """See the module docstring."""

    def __init__(
        self,
        trace: Trace,
        options: Optional[DetectorOptions] = None,
        hb: Optional[HappensBefore] = None,
        accesses: Optional[AccessIndex] = None,
        conventional_hb: Optional[HappensBefore] = None,
    ) -> None:
        self.trace = trace
        self.options = options or DetectorOptions()
        self._hb = hb
        self._accesses = accesses
        #: injectable like ``hb``: the streaming service passes its
        #: incrementally maintained conventional-model relation here so
        #: classification reuses it instead of rebuilding from scratch
        self._conventional_hb = conventional_hb

    @property
    def hb(self) -> HappensBefore:
        if self._hb is None:
            self._hb = build_happens_before(
                self.trace,
                self.options.model,
                memo_capacity=self.options.memo_capacity,
            )
        return self._hb

    @property
    def conventional_hb(self) -> HappensBefore:
        if self._conventional_hb is None:
            self._conventional_hb = build_happens_before(
                self.trace,
                self.options.conventional_model,
                memo_capacity=self.options.memo_capacity,
            )
        return self._conventional_hb

    @property
    def accesses(self) -> AccessIndex:
        if self._accesses is None:
            self._accesses = extract_accesses(self.trace)
        return self._accesses

    # ------------------------------------------------------------------

    def detect(self) -> DetectionResult:
        accesses = self.accesses
        hb = self.hb
        options = self.options
        result = DetectionResult(
            trace=self.trace, options=options, hb=hb, accesses=accesses
        )

        # Stage 1: enumerate candidate (use, free) pairs per address —
        # through the AccessIndex's cached per-address groupings — and
        # pre-filter by task identity and, when enabled, by the lockset
        # intersection.  The lockset check is two dict lookups and a
        # frozenset AND, always cheaper than even a memoized ordering
        # query, so it runs first; both filters are conjunctive, so the
        # surviving set (and ``dynamic_candidates``) is unchanged.
        candidates: List[Tuple[Use, PointerWrite, Address]] = []
        uses_by_address = accesses.uses_by_address()
        for address, frees in accesses.frees_by_address().items():
            uses = uses_by_address.get(address)
            if not uses:
                continue
            for use in uses:
                for free in frees:
                    if use.task == free.task:
                        continue  # ordered by the task's program order
                    if options.lockset_filter and (
                        accesses.lockset(use.read_index)
                        & accesses.lockset(free.index)
                    ):
                        continue  # mutually excluded by a common lock
                    candidates.append((use, free, address))

        # Stage 2: one batched concurrency query for every survivor.
        # The batch deduplicates repeated operation pairs and the
        # happens-before memo collapses distinct pairs between the same
        # event pair to a single reachability test.
        verdicts = hb.concurrent_pairs(
            (use.read_index, free.index) for use, free, _ in candidates
        )

        by_key: Dict[RaceSiteKey, RaceReport] = {}
        for (use, free, address), concurrent in zip(candidates, verdicts):
            if not concurrent:
                continue
            result.dynamic_candidates += 1
            race = UseFreeRace(use=use, free=free, address=address)
            if self._same_looper_events(use.task, free.task):
                if options.if_guard and use_is_guarded(accesses, use):
                    race.filtered_by = "if-guard"
                elif options.intra_event_allocation and (
                    free_has_intra_event_realloc(accesses, free)
                    or use_has_intra_event_alloc(accesses, use)
                ):
                    race.filtered_by = "intra-event-allocation"
            report = by_key.get(race.key)
            if report is None:
                report = by_key[race.key] = RaceReport(key=race.key)
            report.witnesses.append(race)

        # Stage 3: classification.  Intra-thread verdicts need no
        # second model; the rest are answered in one batch against the
        # conventional relation (built only when actually needed).
        pending: List[Tuple[RaceReport, UseFreeRace]] = []
        for report in by_key.values():
            live = [w for w in report.witnesses if w.filtered_by is None]
            if live:
                report.witnesses = live + [
                    w for w in report.witnesses if w.filtered_by is not None
                ]
                race = live[0]
                if self._same_looper_events(race.use.task, race.free.task):
                    report.race_class = RaceClass.INTRA_THREAD
                else:
                    pending.append((report, race))
                result.reports.append(report)
            else:
                result.filtered_reports.append(report)
        if pending:
            conventional = self.conventional_hb.concurrent_pairs(
                (race.use.read_index, race.free.index) for _, race in pending
            )
            for (report, _), concurrent in zip(pending, conventional):
                report.race_class = (
                    RaceClass.CONVENTIONAL
                    if concurrent
                    else RaceClass.INTER_THREAD
                )
        result.reports.sort(key=lambda r: str(r.key))
        result.filtered_reports.sort(key=lambda r: str(r.key))
        return result

    def _same_looper_events(self, task_a: str, task_b: str) -> bool:
        tasks = self.trace.tasks
        info_a, info_b = tasks.get(task_a), tasks.get(task_b)
        return (
            info_a is not None
            and info_b is not None
            and info_a.task_kind is TaskKind.EVENT
            and info_b.task_kind is TaskKind.EVENT
            and info_a.looper is not None
            and info_a.looper == info_b.looper
        )

def detect_use_free_races(
    trace: Trace, options: Optional[DetectorOptions] = None
) -> DetectionResult:
    """Convenience one-shot entry point."""
    return UseFreeDetector(trace, options).detect()
