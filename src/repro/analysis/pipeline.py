"""The end-to-end evaluation pipeline.

``reproduce_table1`` runs every §6.1 workload through simulate → trace
→ detect → classify → tabulate; ``reproduce_figure8`` measures the
per-app tracing slowdown.  Both accept a ``scale`` factor controlling
the background event load (1.0 approximates the paper's event counts;
benchmarks default to a smaller scale via the ``REPRO_BENCH_SCALE``
environment variable) and a ``jobs`` count: with ``jobs > 1`` the
per-app pipelines fan out across worker processes.  Every app's
simulation and analysis is deterministic in ``(scale, seed)``, so the
parallel results are byte-identical to the serial ones and are always
returned in app order, regardless of which worker finishes first.

Worker failures are re-raised in the caller with the originating app's
name attached, so a crash inside a pool process is as diagnosable as a
serial one.  The pool machinery itself lives in :mod:`repro.parallel`
(shared with the per-seed exploration, the report generator, and the
sharded streaming daemon); this module only contributes the per-app
worker functions.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Type

from ..apps.base import AppModel, Table1Row
from ..apps.catalog import ALL_APPS
from ..detect import DetectorOptions
from ..obs.spans import span
from ..parallel import fan_out as _fan_out  # shared executor (repro.parallel)
from ..parallel import validate_jobs as _validate_jobs
from .performance import (
    ScalingPoint,
    SlowdownResult,
    _matrix_cell,
    measure_slowdown,
)
from .precision import AppEvaluation, Table1, evaluate_run

#: environment variable overriding the default benchmark scale
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def bench_scale(default: float = 0.1) -> float:
    """The workload scale benchmarks should use."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{SCALE_ENV_VAR} must be a float, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{SCALE_ENV_VAR} must be positive, got {value}")
    return value


def _evaluate_app(
    app_cls: Type[AppModel],
    scale: float,
    seed: int,
    options: Optional[DetectorOptions],
) -> AppEvaluation:
    """One app's simulate → detect → classify pipeline (pool worker)."""
    with span("pipeline.app", app=app_cls.name):
        run = app_cls(scale=scale, seed=seed).run()
        return evaluate_run(run, options)


def reproduce_table1(
    apps: Optional[Sequence[Type[AppModel]]] = None,
    scale: float = 0.1,
    seed: int = 0,
    options: Optional[DetectorOptions] = None,
    jobs: int = 1,
) -> Table1:
    """Run the precision evaluation over the given apps (default: all ten).

    ``jobs > 1`` distributes the per-app pipelines over a process pool;
    ``jobs=1`` (the default) runs serially in this process.  The rows
    are identical and identically ordered either way.
    """
    _validate_jobs(jobs)
    app_list = list(apps) if apps is not None else list(ALL_APPS)
    table = Table1()
    table.evaluations.extend(
        _fan_out(_evaluate_app, app_list, (scale, seed, options), jobs, "table1")
    )
    return table


def paper_table1_rows(
    apps: Optional[Sequence[Type[AppModel]]] = None,
) -> List[Table1Row]:
    """The published Table 1 rows, in the same order."""
    return [app.paper_row for app in (apps if apps is not None else ALL_APPS)]


@dataclasses.dataclass
class ScalingMatrix:
    """The cross-app §6.4 scaling sweep: apps x scales in one table.

    ``rows`` maps each app name to its :class:`ScalingPoint` list, one
    point per scale, in app order regardless of worker completion
    order.  ``as_dict``/``to_json`` render the whole matrix as a single
    JSON-friendly table for dashboards and regression diffing.
    """

    scales: List[float]
    seed: int
    rows: Dict[str, List[ScalingPoint]]

    def as_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "seed": self.seed,
            "apps": {
                name: [dataclasses.asdict(p) for p in points]
                for name, points in self.rows.items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)


def scaling_matrix(
    apps: Optional[Sequence[Type[AppModel]]] = None,
    scales: Optional[Sequence[float]] = None,
    seed: int = 0,
    jobs: int = 1,
) -> ScalingMatrix:
    """Run the analysis-time scaling sweep over many apps in one call.

    Each app's sweep (all its scales) is one unit of work; ``jobs > 1``
    fans the per-app sweeps out across worker processes through the
    same pool machinery as ``reproduce_table1``.  Results are identical
    and identically ordered either way.
    """
    _validate_jobs(jobs)
    app_list = list(apps) if apps is not None else list(ALL_APPS)
    scale_list = list(scales) if scales is not None else [0.02, 0.05, 0.1]
    if not scale_list:
        raise ValueError("scaling_matrix needs at least one scale")
    results = _fan_out(
        _matrix_cell, app_list, (scale_list, seed), jobs, "scaling-matrix"
    )
    return ScalingMatrix(
        scales=scale_list,
        seed=seed,
        rows={
            app_cls.name: points
            for app_cls, points in zip(app_list, results)
        },
    )


def reproduce_figure8(
    apps: Optional[Sequence[Type[AppModel]]] = None,
    scale: float = 0.1,
    seed: int = 0,
    jobs: int = 1,
) -> List[SlowdownResult]:
    """Measure the tracing slowdown for the given apps (default: all ten).

    Slowdowns are ratios of *virtual* CPU time, so fanning out over
    ``jobs`` worker processes cannot perturb the measurement.
    """
    _validate_jobs(jobs)
    app_list = list(apps) if apps is not None else list(ALL_APPS)
    return _fan_out(measure_slowdown, app_list, (scale, seed), jobs, "figure8")
