"""Source-language selection harness for low-resource text classification.

Ingests per-language sentiment data, trains a deterministic hashed
n-gram classifier with a two-phase adaptation contract, evaluates with
weighted F1, and runs forward/backward source-language selection with
caching, seed averaging, majority-vote ensembling and report generation.
"""
from .corpus import (
    AFRISENTI_LANGUAGES,
    LABELS,
    SPLITS,
    Dataset,
    Example,
    LanguageCode,
    dedup_dev,
    load_labeled_tsv,
    load_language_metadata,
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
from .metrics import ConfusionMatrix, ScoreReport, confusion, macro_f1, score_report, weighted_f1
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
    group_by_family,
    plan,
)
from .textmodel import (
    AdaptationStats,
    LearnerConfig,
    Model,
    fine_tune,
    load_model,
    loss_and_gradient,
    predict,
    predict_texts,
    pretrain,
    save_model,
)

__version__ = "0.1.0"
