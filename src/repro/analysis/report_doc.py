"""Self-contained evaluation report generation.

``generate_report`` runs the full pipeline (Table 1, the §4.1
motivation, Figure 8) at a chosen scale and renders one Markdown
document with per-app race listings and violation witnesses — the
artifact a user of the tool would attach to a bug report or a paper
artifact submission.  Exposed as ``python -m repro report``.

Each application's contribution to the report (its Table 1 line, its
findings section, its slowdown measurement, and — for the first app —
the low-level baseline count) is produced by one self-contained,
picklable worker, so ``generate_report(..., jobs=N)`` fans the apps
out across worker processes with the pipeline's usual contract: the
rendered document is byte-identical to the serial one, ``jobs < 1`` is
rejected, and a worker crash is re-raised naming the app that failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Type

from ..apps.base import AppModel
from ..apps.catalog import ALL_APPS
from ..detect import LowLevelDetector, UseFreeDetector
from .performance import measure_slowdown
from ..parallel import fan_out as _fan_out
from ..parallel import validate_jobs as _validate_jobs
from .precision import evaluate_run
from .tables import _t1_line, _T1_HEADER  # noqa: F401  (reuse the layout)
from .witness import WitnessError, build_witness


@dataclass
class _AppReport:
    """One app's contribution to the document (picklable worker output)."""

    name: str
    table_line: str
    reported: int
    true_races: int
    #: the "### <app>" findings section, fully rendered
    section: List[str] = field(default_factory=list)
    #: conflicting-access baseline count (first app only)
    low_level_races: Optional[int] = None
    #: tracing slowdown ratio, when requested
    slowdown: Optional[float] = None


def _report_app(
    app_cls: Type[AppModel],
    scale: float,
    seed: int,
    include_witnesses: bool,
    include_slowdowns: bool,
    low_level_app: str,
) -> _AppReport:
    """Run one app's full report pipeline (pool worker)."""
    run = app_cls(scale=scale, seed=seed).run()
    detector = UseFreeDetector(run.trace)
    evaluation = evaluate_run(run)
    result = evaluation.result

    section: List[str] = [f"### {evaluation.name}", ""]
    section.append(f"*Session:* {app_cls.session}")
    section.append("")
    if not result.reports:
        section.append("No use-free races reported.")
    for report in result.reports:
        verdict = report.verdict.value if report.verdict else "unlabelled"
        section.append(f"- `{report.key}` — class ({report.race_class.value}), "
                       f"ground truth: {verdict}")
        if include_witnesses and report.verdict is not None:
            try:
                witness = build_witness(run.trace, detector.hb, report)
            except WitnessError as error:
                section.append(f"  - witness: infeasible ({error})")
            else:
                free_task = run.trace.task_of(report.witness().free.index)
                use_task = run.trace.task_of(report.witness().use.read_index)
                section.append(
                    f"  - witness schedule runs `{free_task}` before "
                    f"`{use_task}` "
                    f"(positions {witness.free_position} < {witness.use_position} "
                    f"of {len(witness.order)} ops)"
                )
    if result.filtered_reports:
        section.append(
            f"- filtered as commutative: "
            + ", ".join(
                f"`{r.key.field}` [{r.witnesses[0].filtered_by}]"
                for r in result.filtered_reports
            )
        )
    section.append("")

    low_level_races = None
    if app_cls.name == low_level_app:
        low = LowLevelDetector(run.trace, hb=detector.hb).detect()
        low_level_races = low.race_count()
    slowdown = None
    if include_slowdowns:
        slowdown = measure_slowdown(app_cls, scale=scale, seed=seed).slowdown
    return _AppReport(
        name=evaluation.name,
        table_line=_t1_line(evaluation.name, evaluation.row()),
        reported=evaluation.reported,
        true_races=evaluation.true_races,
        section=section,
        low_level_races=low_level_races,
        slowdown=slowdown,
    )


def generate_report(
    scale: float = 0.1,
    seed: int = 1,
    apps: Optional[Sequence[Type[AppModel]]] = None,
    include_witnesses: bool = True,
    include_slowdowns: bool = True,
    jobs: int = 1,
) -> str:
    """Run the evaluation and render a Markdown report.

    ``jobs > 1`` distributes the per-app pipelines over a process
    pool; the rendered document is identical either way.
    """
    _validate_jobs(jobs)
    apps = list(apps) if apps is not None else list(ALL_APPS)
    args = (scale, seed, include_witnesses, include_slowdowns, apps[0].name)
    parts = _fan_out(_report_app, apps, args, jobs, "report")

    lines: List[str] = [
        "# CAFA evaluation report",
        "",
        f"workload scale {scale}, scheduler seed {seed}",
        "",
        "## Races reported (Table 1 layout)",
        "",
        "```",
        _T1_HEADER,
    ]
    lines.extend(part.table_line for part in parts)
    totals_reported = sum(part.reported for part in parts)
    totals_true = sum(part.true_races for part in parts)
    lines.append("```")
    lines.append("")
    precision = totals_true / totals_reported if totals_reported else 0.0
    lines.append(
        f"**{totals_reported} races reported, {totals_true} harmful "
        f"({precision:.0%} precision).**"
    )

    lines += ["", "## Per-application findings", ""]
    for part in parts:
        lines.extend(part.section)

    lines += ["## Low-level baseline (first app)", ""]
    first = parts[0]
    lines.append(
        f"The conventional conflicting-access definition reports "
        f"**{first.low_level_races}** races on {first.name} where CAFA "
        f"reports **{first.reported}**."
    )

    if include_slowdowns:
        lines += ["", "## Tracing slowdown (Figure 8 layout)", "", "```"]
        for part in parts:
            lines.append(f"{part.name:<12} {part.slowdown:5.2f}x")
        lines.append("```")

    lines.append("")
    return "\n".join(lines)
