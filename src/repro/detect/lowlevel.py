"""The naive low-level race detector — the motivation baseline.

Section 4.1: applying the conventional data-race definition (a pair of
conflicting memory accesses not ordered by happens-before) directly to
an event-driven trace "leads to thousands of false positives" — 1,664
races in a 30-second ConnectBot trace.  This module implements exactly
that definition over the relaxed event-driven model, so the benchmark
can reproduce the contrast with CAFA's handful of reports.

Accesses considered: the shared-variable ``rd``/``wr`` records and all
pointer reads/writes (assembly-level accesses).  Races are
deduplicated into static reports by the pair of program sites plus the
accessed location's *class* (field name rather than concrete object).

For tractability on event-dense traces, the detector groups dynamic
accesses by static site first and then samples a bounded number of
dynamic pairs per site pair when probing for concurrency; a site pair
is reported as racy when any sampled pair is concurrent.  This
under-approximates pathological cases where only unsampled pairs race,
which is irrelevant for the baseline's purpose (its counts are three
orders of magnitude above CAFA's either way).

All sampled probes are answered through one
:meth:`~repro.hb.graph.HappensBefore.concurrent_pairs` batch (after
the cheaper same-task and lockset pre-filters), so the prefix-mask +
memo query path collapses the many probes that land on the same event
pair.  Site collection is cached on the detector, letting callers that
re-run detection (e.g. the benchmarks) separate indexing cost from
query cost.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hb import CAFA_MODEL, HappensBefore, ModelConfig, build_happens_before
from ..trace import OpKind, Trace
from ..trace.store import KIND_CODES
from .accesses import AccessIndex, extract_accesses
from .report import MemoryRace

#: dynamic pairs sampled per static site pair
SAMPLES_PER_SIDE = 4


@dataclass(frozen=True)
class _Access:
    index: int
    task: str
    is_write: bool


@dataclass(frozen=True)
class _SiteKey:
    var: str
    var_class: str
    site: str
    is_write: bool


def _collect_sites(trace: Trace) -> Dict[_SiteKey, List[_Access]]:
    """Dynamic accesses grouped by static site: the four access kinds
    are decoded straight from their payload columns, walking the merged
    index arrays so the dict insertion order — which seeds the
    detector's site-pair enumeration — is trace order."""
    store = trace.store
    sites: Dict[_SiteKey, List[_Access]] = defaultdict(list)
    sym = store.symbols.value
    addr = store.addresses.value
    kinds, rows, task_ids = store.kinds, store.rows, store.task_ids
    read_c = KIND_CODES[OpKind.READ]
    write_c = KIND_CODES[OpKind.WRITE]
    ptr_read_c = KIND_CODES[OpKind.PTR_READ]
    columns = {}
    for code, kind in (
        (read_c, OpKind.READ),
        (write_c, OpKind.WRITE),
        (ptr_read_c, OpKind.PTR_READ),
        (KIND_CODES[OpKind.PTR_WRITE], OpKind.PTR_WRITE),
    ):
        if kind in (OpKind.READ, OpKind.WRITE):
            columns[code] = (
                store.column(kind, "var")[1],
                store.column(kind, "site")[1],
            )
        else:
            columns[code] = (
                store.column(kind, "address")[1],
                store.column(kind, "method")[1],
                store.column(kind, "pc")[1],
            )
    for i in store.indices_of(
        OpKind.READ, OpKind.WRITE, OpKind.PTR_READ, OpKind.PTR_WRITE
    ):
        code = kinds[i]
        row = rows[i]
        if code == read_c or code == write_c:
            var_col, site_col = columns[code]
            var = sym(var_col[row])
            key = _SiteKey(var, var, sym(site_col[row]), code == write_c)
        else:
            addr_col, method_col, pc_col = columns[code]
            address = addr(addr_col[row])
            key = _SiteKey(
                f"ptr:{address}",
                f"ptr:*.{address[2]}",
                f"{sym(method_col[row])}:{pc_col[row]}",
                code != ptr_read_c,
            )
        sites[key].append(_Access(i, sym(task_ids[i]), key.is_write))
    return sites


def _spread_sample(accesses: Sequence[_Access], k: int) -> List[_Access]:
    """Up to ``k`` accesses spread across the list (first/last/middles)."""
    if len(accesses) <= k:
        return list(accesses)
    step = (len(accesses) - 1) / (k - 1)
    return [accesses[round(i * step)] for i in range(k)]


@dataclass
class LowLevelResult:
    """Output of the naive detector."""

    races: List[MemoryRace]
    #: dynamic pairs actually probed for concurrency
    dynamic_pairs: int

    def race_count(self) -> int:
        return len(self.races)


class LowLevelDetector:
    """Conventional conflicting-access race detection on a trace."""

    def __init__(
        self,
        trace: Trace,
        model: ModelConfig = CAFA_MODEL,
        hb: Optional[HappensBefore] = None,
        accesses: Optional[AccessIndex] = None,
        lockset_filter: bool = True,
        samples_per_side: int = SAMPLES_PER_SIDE,
    ) -> None:
        self.trace = trace
        self.model = model
        self._hb = hb
        self.lockset_filter = lockset_filter
        self.samples_per_side = samples_per_side
        self._access_index = accesses
        self._sites: Optional[Dict[_SiteKey, List[_Access]]] = None

    @property
    def hb(self) -> HappensBefore:
        if self._hb is None:
            self._hb = build_happens_before(self.trace, self.model)
        return self._hb

    @property
    def accesses(self) -> AccessIndex:
        if self._access_index is None:
            self._access_index = extract_accesses(self.trace)
        return self._access_index

    @property
    def sites(self) -> Dict[_SiteKey, List[_Access]]:
        """Dynamic accesses grouped by static site (built once, cached)."""
        if self._sites is None:
            self._sites = _collect_sites(self.trace)
        return self._sites

    def detect(self) -> LowLevelResult:
        sites = self.sites
        lock_index = self.accesses
        by_var: Dict[str, List[Tuple[_SiteKey, List[_Access]]]] = defaultdict(list)
        for key, accesses in sites.items():
            by_var[key.var].append((key, accesses))

        # Enumerate every sampled dynamic pair of every candidate site
        # pair, applying the cheap same-task and lockset filters before
        # any ordering work; the happens-before probes then run as one
        # batch (a site pair is racy when any surviving probe comes
        # back concurrent — the filters are conjunctive with the
        # concurrency test, so batching cannot change the verdicts).
        lockset = lock_index.lockset
        lockset_filter = self.lockset_filter
        site_pairs: List[Tuple[str, str, str, bool]] = []
        probe_slices: List[Tuple[int, int]] = []
        probes: List[Tuple[int, int]] = []
        seen: set = set()
        for var, var_sites in by_var.items():
            if not any(key.is_write for key, _ in var_sites):
                continue
            for i, (key_a, acc_a) in enumerate(var_sites):
                sample_a = _spread_sample(acc_a, self.samples_per_side)
                for key_b, acc_b in var_sites[i:]:
                    if not (key_a.is_write or key_b.is_write):
                        continue
                    pair_id = (
                        key_a.var_class,
                        *sorted((key_a.site, key_b.site)),
                        key_a.is_write and key_b.is_write,
                    )
                    if pair_id in seen:
                        continue
                    seen.add(pair_id)
                    start = len(probes)
                    for a in sample_a:
                        for b in _spread_sample(acc_b, self.samples_per_side):
                            if a.index == b.index or a.task == b.task:
                                continue
                            if lockset_filter and (
                                lockset(a.index) & lockset(b.index)
                            ):
                                continue
                            probes.append((a.index, b.index))
                    if len(probes) > start:
                        site_pairs.append(pair_id)
                        probe_slices.append((start, len(probes)))

        verdicts = self.hb.concurrent_pairs(probes)
        races: List[MemoryRace] = []
        for pair_id, (start, stop) in zip(site_pairs, probe_slices):
            if any(verdicts[start:stop]):
                var_class, site_lo, site_hi, write_write = pair_id
                races.append(
                    MemoryRace(
                        var_class=var_class,
                        site_a=site_lo,
                        site_b=site_hi,
                        write_write=write_write,
                    )
                )
        races.sort(key=lambda r: (r.var_class, r.site_a, r.site_b))
        return LowLevelResult(races=races, dynamic_pairs=len(probes))


def detect_low_level_races(trace: Trace, model: ModelConfig = CAFA_MODEL) -> LowLevelResult:
    """Convenience one-shot entry point."""
    return LowLevelDetector(trace, model).detect()
