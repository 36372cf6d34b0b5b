"""Schedule exploration: detector stability across interleavings.

CAFA is predictive — it reports races from *one* observed execution,
including races that did not manifest in it.  A practical consequence
the paper relies on implicitly is schedule robustness: traces of the
same session under different thread interleavings should yield the
same reports (the causal structure, not the accidental timing, drives
detection).  This module runs a workload under many scheduler seeds
and aggregates the reports, quantifying that stability.

The per-seed runs are independent, so ``explore_seeds(..., jobs=N)``
fans them out across worker processes with the same contract as the
rest of the pipeline (:mod:`repro.parallel`): results are
aggregated in seed order regardless of completion order, ``jobs < 1``
is rejected, and a worker crash is re-raised naming the seed that
failed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Type

from ..apps.base import AppModel
from ..detect import RaceSiteKey, detect_use_free_races
from ..parallel import fan_out as _fan_out
from ..parallel import validate_jobs as _validate_jobs


@dataclass
class ExplorationResult:
    """Aggregated detection over several scheduler seeds."""

    app: str
    seeds: List[int]
    #: race key -> number of seeds in which it was reported
    occurrences: Dict[RaceSiteKey, int] = field(default_factory=dict)
    #: per-seed report counts
    reports_per_seed: List[int] = field(default_factory=list)

    @property
    def stable_races(self) -> List[RaceSiteKey]:
        """Races reported under every explored seed."""
        total = len(self.seeds)
        return sorted(
            (k for k, n in self.occurrences.items() if n == total), key=str
        )

    @property
    def flaky_races(self) -> List[RaceSiteKey]:
        """Races reported under some but not all seeds."""
        total = len(self.seeds)
        return sorted(
            (k for k, n in self.occurrences.items() if 0 < n < total), key=str
        )

    @property
    def stability(self) -> float:
        """Fraction of distinct races that are seed-stable."""
        if not self.occurrences:
            return 1.0
        return len(self.stable_races) / len(self.occurrences)


def _explore_seed(
    seed: int, app_cls: Type[AppModel], scale: float
) -> Tuple[int, List[RaceSiteKey]]:
    """One seed's simulate → detect pipeline (pool worker)."""
    run = app_cls(scale=scale, seed=seed).run()
    result = detect_use_free_races(run.trace)
    return result.report_count(), [report.key for report in result.reports]


def explore_seeds(
    app_cls: Type[AppModel],
    seeds: Sequence[int],
    scale: float = 0.05,
    jobs: int = 1,
) -> ExplorationResult:
    """Run the workload once per seed; aggregate the race reports.

    ``jobs > 1`` distributes the per-seed runs over a process pool;
    ``jobs=1`` (the default) runs serially in this process.  The
    aggregate is identical either way.
    """
    _validate_jobs(jobs)
    seed_list = list(seeds)
    outcomes = _fan_out(
        _explore_seed,
        seed_list,
        (app_cls, scale),
        jobs,
        "explore",
        describe=lambda seed: f"seed {seed} of app {app_cls.name!r}",
    )
    counter: Counter = Counter()
    per_seed: List[int] = []
    for count, keys in outcomes:
        per_seed.append(count)
        for key in keys:
            counter[key] += 1
    return ExplorationResult(
        app=app_cls.name,
        seeds=seed_list,
        occurrences=dict(counter),
        reports_per_seed=per_seed,
    )
