"""Source-language selection harness for low-resource text classification.

Ingests per-language sentiment data, trains a deterministic hashed
n-gram classifier with a two-phase adaptation contract, evaluates with
weighted F1, and runs forward/backward source-language selection with
caching, seed averaging, majority-vote ensembling and report generation.
"""
import importlib

from .corpus import (
    AFRISENTI_LANGUAGES,
    LABELS,
    SPLITS,
    Dataset,
    Example,
    LanguageCode,
    dedup_dev,
    load_labeled_tsv,
    load_unlabeled_text,
    normalize_text,
    sample_per_language,
)
from .ensemble import VotePool, majority_vote
from .errors import (
    CorpusError,
    EnsembleError,
    HarnessError,
    LangselectError,
    MetricsError,
    SelectionError,
    TextModelError,
)
from .learner_config import LearnerConfig
from .selection import (
    BACKWARD,
    FORWARD,
    MULTILINGUAL,
    ZEROSHOT,
    PlanCell,
    SelectionConfig,
    SelectionResult,
    SelectionTask,
    backward_select,
    forward_select,
    plan,
)

# Names of the numpy-backed learner, by home module. They are imported on
# first access (PEP 562), so importing langselect does not import numpy.
_LAZY = dict.fromkeys(("ConfusionMatrix", "confusion", "weighted_f1"), "metrics") | dict.fromkeys(
    (
        "AdaptationStats",
        "Model",
        "fine_tune",
        "load_model",
        "predict_texts",
        "pretrain",
        "save_model",
    ),
    "textmodel",
)


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
