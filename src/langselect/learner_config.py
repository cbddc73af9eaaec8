"""The learner's settings, numerics version and adaptations.

They live apart from ``textmodel`` so that configs, specs and cache keys
can be built without importing numpy; ``textmodel`` imports both back.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import TextModelError, check_setting_types

# Version of the learner's float results. Bump it with any change that
# can alter a trained weight or a score in its last bits, so that cached
# scores from other numerics are never reused. The rows a data file loads
# to are versioned apart, by ``corpus.LOADER_VERSION``. Version 1 was the
# dense trainer with per-text featurization.
NUMERICS_VERSION = 2

# The corpora a model may pretrain its document frequencies on: none,
# the task texts (TAPT), the target's unlabeled corpus (LAPT) or both.
ADAPTATIONS = ("none", "tapt", "lapt", "lapt+tapt")


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the hashed n-gram learner.

    ``hash_buckets`` must be a power of two so hashing reduces with a
    mask. ``batch_size`` 32 matches the usual fine-tuning setup; the
    learning rate is scaled for this desk-scale model and decays by
    ``lr_decay`` per epoch.
    """

    ngram_min: int = 1
    ngram_max: int = 5
    hash_buckets: int = 1 << 18
    l2_lambda: float = 1e-4
    learning_rate: float = 0.1
    lr_decay: float = 0.9
    batch_size: int = 32
    epochs: int = 20

    def __post_init__(self) -> None:
        check_setting_types(self, TextModelError)
        if not (1 <= self.ngram_min <= self.ngram_max <= 8):
            raise TextModelError(f"require 1 <= ngram_min <= ngram_max <= 8, got [{self.ngram_min}, {self.ngram_max}]")
        if not 2 <= self.hash_buckets <= 1 << 31 or self.hash_buckets & (self.hash_buckets - 1):
            raise TextModelError(f"hash_buckets must be a power of two in [2, 2^31], got {self.hash_buckets}")
        if self.epochs < 1 or self.batch_size < 1:
            raise TextModelError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or not 0 < self.lr_decay <= 1 or self.l2_lambda < 0:
            raise TextModelError("invalid optimizer settings")
