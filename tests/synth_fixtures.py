"""Synthetic universes and a store builder that only the tests use.

The universes the benchmark and README's quick start use stay in
``langselect.synth``.
"""
from __future__ import annotations

import tempfile

from langselect.harness.config import load_config
from langselect.harness.experiments import CorpusStore
from langselect.synth import _FAST_LEARNER, IDENTITY, ROTATED, SynthLanguage, SynthUniverse, write_universe

# A learner small enough that a plan of dozens of cells trains in seconds.
TINY_LEARNER = {
    "ngram_min": 1,
    "ngram_max": 3,
    "hash_buckets": 1024,
    "learning_rate": 2.0,
    "epochs": 3,
}


def build_store(universe: SynthUniverse) -> CorpusStore:
    """The store ``CorpusStore.from_config`` builds from the universe's
    files, written by ``write_universe`` to a temporary directory that is
    gone on return. Given no memo, ``from_config`` loads every file at
    once through an empty in-memory one, and devstar derives from the
    loaded train and dev splits, so the store never reads the directory
    again."""
    with tempfile.TemporaryDirectory() as tmp:
        return CorpusStore.from_config(load_config(write_universe(universe, tmp)))


def tapt_universe(seed: int = 7) -> SynthUniverse:
    """One noise-heavy language where frequency adaptation pays off."""
    return SynthUniverse(
        name="tapt",
        seed=seed,
        languages=(
            SynthLanguage("qq", "Synthetic-A", IDENTITY, n_train=120, n_dev=120, n_test=0),
        ),
        keywords_per_concept=10,
        noise_pool_size=10,
        keywords_per_text=1,
        noise_per_text=10,
        decorate=False,
        generic_corpus_lines=120,
        learner=dict(_FAST_LEARNER, epochs=8),
        seeds=(1, 2, 3, 4, 5),
        adaptation="tapt",
    )


def six_language_universe(seed: int = 13) -> SynthUniverse:
    """A low-resource target, two aligned helpers and three adversarial
    languages; forward selection should pick exactly the helpers."""
    return SynthUniverse(
        name="six",
        seed=seed,
        languages=(
            SynthLanguage("tt", "Synthetic-A", IDENTITY, n_train=48, n_dev=90, n_test=0),
            SynthLanguage("ha", "Synthetic-A", IDENTITY, n_train=240, n_dev=30, n_test=0),
            SynthLanguage("hb", "Synthetic-A", IDENTITY, n_train=240, n_dev=30, n_test=0),
            SynthLanguage("xa", "Synthetic-B", ROTATED, n_train=240, n_dev=30, n_test=0),
            SynthLanguage("xb", "Synthetic-B", ROTATED, n_train=240, n_dev=30, n_test=0),
            SynthLanguage("xc", "Synthetic-B", ROTATED, n_train=240, n_dev=30, n_test=0),
        ),
        keywords_per_concept=8,
        noise_pool_size=10,
        keywords_per_text=2,
        noise_per_text=8,
        decorate=False,
        learner=dict(_FAST_LEARNER),
        seeds=(1, 2, 3, 4, 5),
        adaptation="none",
    )
