"""The synthetic universes and CLI plans behind each benchmark workload.

Every universe has the 14 AfriSenti languages with their codes and
families. Train sizes follow the shared task's proportions, scaled down
per workload. Mappings are planted by subgroup: the four
Semitic languages use a rotated concept-to-label mapping and the other
ten the identity mapping, so a language from the other group conflicts
with a target and cannot help it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from langselect.corpus import AFRISENTI_LANGUAGES
from langselect.synth import IDENTITY, ROTATED, SynthLanguage, SynthUniverse

# AfriSenti-SemEval 2023 train sizes. Oromo (or) and Tigrinya (tg) had no
# train split in the shared task (zero-shot track); they get their dev size.
AFRISENTI_TRAIN = {
    "am": 5984, "dz": 1651, "ha": 14172, "ig": 10192, "kr": 3302, "ma": 5583, "or": 397,
    "pcm": 5121, "pt": 3063, "sw": 1810, "tg": 399, "ts": 804, "twi": 3481, "yo": 8522,
}
ROTATED_CODES = frozenset({"am", "dz", "ma", "tg"})

THRESHOLD = 0.05
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Plan:
    """How one workload drives the CLI, and the facts its checks need."""

    name: str
    strategy: str  # "fwd" or "bwd"
    targets: tuple[str, ...]
    seeds: tuple[int, ...]
    parallelism: int
    top_k: int | None
    cap: int | None  # backward per-language sample cap
    scale: float  # share of the shared-task sizes
    min_train: int
    target_train: int
    target_dev: int
    learner: dict = field(default_factory=dict)
    adaptation: str = "none"
    noise_per_text: int = 8
    warm: bool = False

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(AFRISENTI_TRAIN))

    def conflicting(self, target: str) -> frozenset[str]:
        """Languages planted with the other label mapping than ``target``'s."""
        same = ROTATED_CODES if target in ROTATED_CODES else frozenset(AFRISENTI_TRAIN) - ROTATED_CODES
        return frozenset(AFRISENTI_TRAIN) - same

    def train_size(self, code: str) -> int:
        if code in self.targets:
            return self.target_train
        return max(self.min_train, round(AFRISENTI_TRAIN[code] * self.scale))

    def dev_size(self, code: str) -> int:
        # Only targets get a dev split: the CLI makes every language with
        # a devstar split a target.
        return self.target_dev if code in self.targets else 0

    def universe(self, seed: int) -> SynthUniverse:
        languages = tuple(
            SynthLanguage(
                code,
                AFRISENTI_LANGUAGES[code].family,
                ROTATED if code in ROTATED_CODES else IDENTITY,
                n_train=self.train_size(code),
                n_dev=self.dev_size(code),
                n_test=0,
                n_overlap=2 if code in self.targets else 0,
                rare_concept=2 if code in self.targets else None,
            )
            for code in self.languages
        )
        selection = {"threshold": THRESHOLD, "absolute_threshold": False}
        if self.cap is not None:
            selection["baseline_samples_per_language"] = self.cap
        return SynthUniverse(
            name=self.name,
            seed=seed,
            languages=languages,
            noise_per_text=self.noise_per_text,
            learner=dict(self.learner),
            selection=selection,
            seeds=self.seeds,
            parallelism=self.parallelism,
            adaptation=self.adaptation,
        )

    def select_args(self, config: str, out_dir: str) -> list[str]:
        args = [
            "select", "--config", config, "--strategy", self.strategy,
            "--parallelism", str(self.parallelism),
            "--out", f"{out_dir}/selections.jsonl",
            "--matrix-out", f"{out_dir}/selected_cells.jsonl",
        ]
        if self.top_k is not None:
            args += ["--top-k", str(self.top_k)]
        return args


SMALL_LEARNER = {"hash_buckets": 1 << 14, "epochs": 5}
TINY_LEARNER = {"ngram_min": 1, "ngram_max": 2, "hash_buckets": 1 << 12, "learning_rate": 1.0, "epochs": 5}

PLANS = {
    # Default learner (2^18 buckets, 1-5-grams, 20 epochs): dense
    # fine-tune work dominates. One low-resource target, so every
    # candidate is a pair cell; --top-k 1 keeps the selected set a pair
    # cell too, so the job count does not depend on the seed.
    "fwd-tapt-serial": Plan(
        name="fwd-tapt-serial", strategy="fwd", targets=("ts",), seeds=(1,), parallelism=1,
        top_k=1, cap=None, scale=0.003, min_train=8, target_train=16, target_dev=60,
        adaptation="tapt",
    ),
    # Small learner, capped rows and TAPT over all 14 languages in every
    # cell: pretrain and featurize dominate, and the thread pool runs.
    "bwd-tapt-parallel": Plan(
        name="bwd-tapt-parallel", strategy="bwd", targets=("ts",), seeds=(1, 2), parallelism=NPROC,
        top_k=1, cap=10, scale=0.003, min_train=8, target_train=16, target_dev=30,
        learner=SMALL_LEARNER, adaptation="tapt", noise_per_text=4,
    ),
    # AfriSenti-scale corpus, cheap learner: the timed reruns train
    # nothing, so only the read side of the pipeline is measured. Backward
    # cells are capped, which keeps the cache fill in set-up short.
    "warm-rerun": Plan(
        name="warm-rerun", strategy="bwd", targets=("dz", "ts"), seeds=(1,), parallelism=1,
        top_k=1, cap=10, scale=0.35, min_train=8, target_train=60, target_dev=60,
        learner=TINY_LEARNER, warm=True,
    ),
}
