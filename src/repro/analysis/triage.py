"""Two-stage corpus triage: sample first, fully detect only the flagged.

``triage_corpus`` fans a corpus of saved trace files out over the
shared process pool (:mod:`repro.parallel`), runs the sampled detector
(:mod:`repro.detect.sampling`) on each trace under a fixed per-trace
budget, and re-runs *full* detection only on the traces the sampler
flags — the throughput model for corpora far too large to pay the
happens-before closure on every member.  Damaged traces are reported
per item (named, like ``fan_out`` worker errors) instead of aborting
the run; with ``salvage=True`` the decodable prefix of a damaged trace
is triaged and the item is marked ``salvaged``.

``budget_curve`` is the evaluation side: a ``scaling_matrix``-style
sweep of budgets across the ten-app catalog recording, per budget,
trace-level recall/precision (did the racy apps get flagged, did any
clean trace waste an escalation), pair-level precision (suspects that
confirm concurrent), and the per-trace triage speedup vs. full
detection.  The recorded curve lives in ``benchmarks/bounds_pr10.json``
and ``docs/sampling.md``; the fidelity columns are deterministic in
``(scale, seed, sample_seed, budget)`` and re-verified by the
``test_triage_sampling`` benchmark gate.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Type

from ..apps.base import AppModel
from ..apps.catalog import ALL_APPS
from ..detect import (
    DetectorOptions,
    SampleProfile,
    SamplerOptions,
    UseFreeDetector,
    detect_sampled,
)
from ..obs.spans import span
from ..parallel import fan_out_profiled as _fan_out_profiled
from ..parallel import validate_jobs as _validate_jobs
from ..trace import TraceError


@dataclasses.dataclass
class TriageItem:
    """One corpus member's triage outcome."""

    name: str
    #: "flagged" (escalated to full detection), "clean", or "damaged"
    status: str
    ops: int = 0
    #: pairs the sampler inspected (the budget actually spent)
    budget_spent: int = 0
    suspects: int = 0
    #: races found by the escalation pass (flagged traces only)
    races: int = 0
    #: the escalation pass's report strings
    reports: List[str] = dataclasses.field(default_factory=list)
    #: decode error of a damaged item (also set for salvaged ones)
    error: Optional[str] = None
    #: True when a damaged trace's valid prefix was still triaged
    salvaged: bool = False
    sample: Optional[SampleProfile] = None
    triage_seconds: float = 0.0
    #: escalation cost (0.0 for clean/damaged traces)
    full_seconds: float = 0.0


@dataclasses.dataclass
class TriageReport:
    """The whole corpus run, JSON-ready (``repro triage --json``)."""

    budget: int
    seed: int
    salvage: bool
    items: List[TriageItem] = dataclasses.field(default_factory=list)

    @property
    def flagged(self) -> List[TriageItem]:
        return [i for i in self.items if i.status == "flagged"]

    @property
    def clean(self) -> List[TriageItem]:
        return [i for i in self.items if i.status == "clean"]

    @property
    def damaged(self) -> List[TriageItem]:
        return [i for i in self.items if i.status == "damaged"]

    @property
    def races_total(self) -> int:
        return sum(i.races for i in self.items)

    def as_dict(self) -> dict:
        return {
            "schema": "repro-triage/1",
            "budget": self.budget,
            "seed": self.seed,
            "salvage": self.salvage,
            "counts": {
                "traces": len(self.items),
                "flagged": len(self.flagged),
                "clean": len(self.clean),
                "damaged": len(self.damaged),
                "races": self.races_total,
            },
            "items": [dataclasses.asdict(item) for item in self.items],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def format(self) -> str:
        lines = [
            f"triage of {len(self.items)} trace(s) "
            f"(budget {self.budget}, seed {self.seed}): "
            f"{len(self.flagged)} flagged, {len(self.clean)} clean, "
            f"{len(self.damaged)} damaged, {self.races_total} race(s)"
        ]
        for item in self.items:
            extra = ""
            if item.status == "flagged":
                extra = f"  races={item.races}"
            elif item.status == "damaged":
                extra = f"  ({item.error})"
            if item.salvaged:
                extra += "  [salvaged]"
            lines.append(
                f"  {item.status:<8} {item.name}  ops={item.ops}  "
                f"spent={item.budget_spent}{extra}"
            )
        return "\n".join(lines)


def _load_corpus_trace(path: str, salvage: bool):
    """One corpus member -> (trace, error, salvaged).

    Strict decoding first; with ``salvage`` a damaged file is re-read
    through the sniffing decoder's degraded mode so its valid prefix
    is still triaged (the ``repro stream --salvage`` behaviour).
    """
    from ..trace import load_trace_file
    from ..trace.serialization import AnyTraceDecoder, _open_binary_for

    try:
        return load_trace_file(path), None, False
    except TraceError as exc:
        if not salvage:
            raise
        error = str(exc)
    decoder = AnyTraceDecoder(strict=False)
    with _open_binary_for(path, "r") as fp:
        read = getattr(fp, "read1", fp.read)
        while True:
            chunk = read(1 << 16)
            if not chunk:
                break
            decoder.feed(chunk)
    decoder.flush()
    return decoder.trace, error, True


def _triage_path(
    path: str,
    budget: int,
    seed: int,
    salvage: bool,
    options: Optional[DetectorOptions],
) -> TriageItem:
    """One corpus member's sample -> escalate pipeline (pool worker)."""
    item = TriageItem(name=str(path), status="clean")
    try:
        trace, item.error, item.salvaged = _load_corpus_trace(path, salvage)
    except (TraceError, OSError) as exc:
        item.status = "damaged"
        item.error = str(exc)
        return item
    item.ops = len(trace)
    sampler = SamplerOptions(
        budget=budget, seed=seed, detector=options or DetectorOptions()
    )
    with span("triage.sample", trace=item.name):
        start = time.perf_counter()
        sampled = detect_sampled(trace, sampler)
        item.triage_seconds = time.perf_counter() - start
    item.sample = sampled.profile
    item.budget_spent = sampled.profile.pairs_sampled
    item.suspects = sampled.profile.suspects
    if sampled.flagged:
        item.status = "flagged"
        with span("triage.escalate", trace=item.name):
            start = time.perf_counter()
            result = UseFreeDetector(trace, options).detect()
            item.full_seconds = time.perf_counter() - start
        item.races = len(result.reports)
        item.reports = [str(r) for r in result.reports]
    return item


def triage_corpus(
    paths: Sequence[str],
    budget: int,
    seed: int = 0,
    *,
    salvage: bool = False,
    jobs: int = 1,
    options: Optional[DetectorOptions] = None,
) -> TriageReport:
    """Triage a corpus of saved trace files (see the module docstring).

    Items come back in corpus order regardless of worker completion
    order; a damaged member becomes a named ``damaged`` item rather
    than aborting the run.
    """
    _validate_jobs(jobs)
    report = TriageReport(budget=budget, seed=seed, salvage=salvage)
    path_list = [str(p) for p in paths]
    if jobs == 1 or len(path_list) <= 1:
        for path in path_list:
            report.items.append(
                _triage_path(path, budget, seed, salvage, options)
            )
    else:
        items, _profile = _fan_out_profiled(
            _triage_path,
            path_list,
            (budget, seed, salvage, options),
            jobs,
            "triage",
            describe=lambda p: f"trace {p!r}",
        )
        report.items.extend(items)
    return report


# ---------------------------------------------------------------------------
# The precision/recall-vs-budget sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BudgetPoint:
    """One budget's aggregate fidelity + cost over the app catalog."""

    budget: int
    racy_apps: int
    flagged_apps: int
    #: racy apps the sampler flagged (the recall numerator)
    flagged_racy: int
    recall: float
    #: flagged apps that are racy (trace-level precision)
    trace_precision: float
    pairs_sampled: int
    suspects: int
    #: suspects full happens-before confirms concurrent-and-unfiltered
    confirmed: int
    pair_precision: float
    full_seconds: float
    triage_seconds: float
    #: aggregate full-detection time over aggregate sampler time
    speedup: float


@dataclasses.dataclass
class BudgetCurve:
    """The recorded sweep: one :class:`BudgetPoint` per budget."""

    scale: float
    seed: int
    sample_seed: int
    apps: List[str]
    points: List[BudgetPoint]

    def as_dict(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "sample_seed": self.sample_seed,
            "apps": list(self.apps),
            "points": [dataclasses.asdict(p) for p in self.points],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def format(self) -> str:
        lines = [
            f"budget sweep over {len(self.apps)} apps "
            f"(scale {self.scale}, seed {self.seed}, "
            f"sample seed {self.sample_seed}):",
            f"  {'budget':>8} {'recall':>7} {'trace-prec':>10} "
            f"{'pair-prec':>9} {'suspects':>8} {'speedup':>8}",
        ]
        for p in self.points:
            lines.append(
                f"  {p.budget:>8} {p.recall:>7.2f} "
                f"{p.trace_precision:>10.2f} {p.pair_precision:>9.2f} "
                f"{p.suspects:>8} {p.speedup:>7.1f}x"
            )
        return "\n".join(lines)


def _curve_cell(
    app_cls: Type[AppModel],
    budgets: Sequence[int],
    scale: float,
    seed: int,
    sample_seed: int,
) -> dict:
    """One app's column of the sweep (pool worker): full detection once,
    then every budget's screen pass and confirm pass over that trace."""
    trace = app_cls(scale=scale, seed=seed).run().trace
    start = time.perf_counter()
    full = UseFreeDetector(trace).detect()
    full_seconds = time.perf_counter() - start
    cell = {
        "app": app_cls.name,
        "racy": bool(full.reports),
        "full_seconds": full_seconds,
        "budgets": {},
    }
    for budget in budgets:
        start = time.perf_counter()
        screen = detect_sampled(
            trace, SamplerOptions(budget=budget, seed=sample_seed)
        )
        triage_seconds = time.perf_counter() - start
        confirm = detect_sampled(
            trace,
            SamplerOptions(budget=budget, seed=sample_seed, confirm=True),
        )
        cell["budgets"][budget] = {
            "flagged": screen.flagged,
            "pairs_sampled": screen.profile.pairs_sampled,
            "suspects": screen.profile.suspects,
            "confirmed": confirm.profile.confirmed,
            "triage_seconds": triage_seconds,
        }
    return cell


def budget_curve(
    apps: Optional[Sequence[Type[AppModel]]] = None,
    budgets: Optional[Sequence[int]] = None,
    scale: float = 0.1,
    seed: int = 0,
    sample_seed: int = 0,
    jobs: int = 1,
) -> BudgetCurve:
    """Sweep sampling budgets across the app catalog (default: all ten).

    The fidelity columns (recall, precisions, suspect counts) are
    deterministic in the arguments; only the timing columns vary by
    machine.
    """
    _validate_jobs(jobs)
    app_list = list(apps) if apps is not None else list(ALL_APPS)
    budget_list = (
        list(budgets) if budgets is not None else [1, 2, 4, 8, 16, 64, 256]
    )
    if not budget_list:
        raise ValueError("budget_curve needs at least one budget")
    if jobs == 1 or len(app_list) <= 1:
        cells = [
            _curve_cell(app_cls, budget_list, scale, seed, sample_seed)
            for app_cls in app_list
        ]
    else:
        cells, _profile = _fan_out_profiled(
            _curve_cell,
            app_list,
            (budget_list, scale, seed, sample_seed),
            jobs,
            "budget-curve",
        )
    points = []
    racy_apps = sum(1 for c in cells if c["racy"])
    full_seconds = sum(c["full_seconds"] for c in cells)
    for budget in budget_list:
        rows = [(c, c["budgets"][budget]) for c in cells]
        flagged = [(c, b) for c, b in rows if b["flagged"]]
        flagged_racy = sum(1 for c, _ in flagged if c["racy"])
        suspects = sum(b["suspects"] for _, b in rows)
        confirmed = sum(b["confirmed"] for _, b in rows)
        triage_seconds = sum(b["triage_seconds"] for _, b in rows)
        points.append(
            BudgetPoint(
                budget=budget,
                racy_apps=racy_apps,
                flagged_apps=len(flagged),
                flagged_racy=flagged_racy,
                recall=flagged_racy / racy_apps if racy_apps else 1.0,
                trace_precision=(
                    flagged_racy / len(flagged) if flagged else 1.0
                ),
                pairs_sampled=sum(b["pairs_sampled"] for _, b in rows),
                suspects=suspects,
                confirmed=confirmed,
                pair_precision=confirmed / suspects if suspects else 1.0,
                full_seconds=full_seconds,
                triage_seconds=triage_seconds,
                speedup=(
                    full_seconds / triage_seconds if triage_seconds else 0.0
                ),
            )
        )
    return BudgetCurve(
        scale=scale,
        seed=seed,
        sample_seed=sample_seed,
        apps=[app_cls.name for app_cls in app_list],
        points=points,
    )
