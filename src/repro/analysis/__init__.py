"""End-to-end evaluation pipeline: Table 1 precision, Figure 8
slowdowns, and the §6.4 analysis-time scaling study."""

from .exploration import ExplorationResult, explore_seeds
from .performance import (
    DetectionBenchmark,
    ScalingPoint,
    SlowdownResult,
    analysis_scaling,
    detection_benchmark,
    measure_slowdown,
)
from .pipeline import (
    SCALE_ENV_VAR,
    ScalingMatrix,
    bench_scale,
    paper_table1_rows,
    reproduce_figure8,
    reproduce_table1,
    scaling_matrix,
)
from .precision import AppEvaluation, Table1, evaluate_run
from .soak import SoakResult, soak_all, soak_app, soak_trace
from .tables import format_scaling, format_slowdowns, format_table1
from .witness import ViolationWitness, WitnessError, build_witness

__all__ = [
    "AppEvaluation",
    "DetectionBenchmark",
    "ExplorationResult",
    "explore_seeds",
    "detection_benchmark",
    "SCALE_ENV_VAR",
    "ScalingMatrix",
    "ScalingPoint",
    "scaling_matrix",
    "SlowdownResult",
    "SoakResult",
    "Table1",
    "soak_all",
    "soak_app",
    "soak_trace",
    "ViolationWitness",
    "WitnessError",
    "analysis_scaling",
    "build_witness",
    "bench_scale",
    "evaluate_run",
    "format_scaling",
    "format_slowdowns",
    "format_table1",
    "measure_slowdown",
    "paper_table1_rows",
    "reproduce_figure8",
    "reproduce_table1",
]
