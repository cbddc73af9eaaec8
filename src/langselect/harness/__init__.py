"""Experiment orchestration: configs, scoring one job, the score cache,
the parallel matrix runner that turns a selection plan into a score
table, and report generation."""
from ..selection import PlanCell
from .cache import ScoreCache
from .config import CACHE_DIR_ENV, HarnessConfig, LanguageFiles, load_config
from .experiments import (
    ADAPTATIONS,
    CorpusStore,
    ExperimentSpec,
    MatrixEntry,
    ScoreMatrix,
    adaptation_stats,
    build_training_set,
    run_matrix,
    score_experiment,
)
from .report import render_report, selection_results_to_jsonl

__all__ = [
    "ADAPTATIONS",
    "CACHE_DIR_ENV",
    "CorpusStore",
    "ExperimentSpec",
    "HarnessConfig",
    "LanguageFiles",
    "MatrixEntry",
    "PlanCell",
    "ScoreCache",
    "ScoreMatrix",
    "adaptation_stats",
    "build_training_set",
    "load_config",
    "render_report",
    "run_matrix",
    "score_experiment",
    "selection_results_to_jsonl",
]
