"""Synthetic multilingual sentiment fixtures with controllable transfer
structure.

A universe shares three "concept" keyword lexicons across its languages;
each language maps concepts to labels through its own permutation, so two
languages with the same mapping are mutually helpful transfer sources
while languages with rotated mappings are adversarial. Texts mix a few
keyword tokens with tokens from a small, very frequent noise pool, which
makes document-frequency adaptation informative. Everything is generated
from one seed, so fixtures are byte-reproducible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .corpus import LABELS, write_tsv

IDENTITY = (0, 1, 2)
ROTATED = (1, 2, 0)


@dataclass(frozen=True)
class SynthLanguage:
    code: str
    family: str
    mapping: tuple[int, int, int] = IDENTITY
    n_train: int = 90
    n_dev: int = 60
    n_test: int = 60
    n_overlap: int = 0  # dev rows copied verbatim from train
    # Concept underrepresented in train (dev/test stay balanced); a
    # partner language with ample coverage of it becomes a strong source.
    rare_concept: int | None = None
    rare_share: float = 0.08


@dataclass(frozen=True)
class SynthUniverse:
    name: str
    seed: int
    languages: tuple[SynthLanguage, ...]
    keywords_per_concept: int = 8
    noise_pool_size: int = 10
    keywords_per_text: int = 2
    noise_per_text: int = 8
    decorate: bool = True
    generic_corpus_lines: int = 0
    learner: dict = field(default_factory=dict)
    selection: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    # Kept for callers that set it; load_config ignores the key it writes.
    parallelism: int = 1
    adaptation: str = "none"


def _word(rng: random.Random, used: set[str], lo: int = 3, hi: int = 7) -> str:
    while True:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(lo, hi)))
        if word not in used:
            used.add(word)
            return word


def _lexicons(universe: SynthUniverse) -> tuple[list[list[str]], list[str], list[str]]:
    rng = random.Random(f"lex:{universe.seed}")
    used: set[str] = set()
    concepts = [
        [_word(rng, used, 4, 7) for _ in range(universe.keywords_per_concept)] for _ in range(3)
    ]
    noise = [_word(rng, used, 3, 5) for _ in range(universe.noise_pool_size)]
    generic = [_word(rng, used, 3, 7) for _ in range(40)]
    return concepts, noise, generic


def _decorations(rng: random.Random) -> list[str]:
    out = []
    roll = rng.random()
    if roll < 0.15:
        out.append("@" + "".join(rng.choice("abcdefghij") for _ in range(5)))
    elif roll < 0.25:
        out.append("https://t.co/" + "".join(rng.choice("xyz0123") for _ in range(6)))
    elif roll < 0.35:
        out.append("!" * rng.randint(2, 6))
    return out


def _make_text(
    rng: random.Random,
    universe: SynthUniverse,
    concept_words: list[str],
    noise_words: list[str],
) -> str:
    tokens = rng.sample(concept_words, min(universe.keywords_per_text, len(concept_words)))
    tokens.extend(rng.choice(noise_words) for _ in range(universe.noise_per_text))
    if universe.decorate:
        tokens.extend(_decorations(rng))
    rng.shuffle(tokens)
    return " ".join(tokens)


Row = tuple[str, str, str]  # id, raw text, label


def _train_concepts(lang: SynthLanguage, rng: random.Random) -> list[int]:
    if lang.rare_concept is None:
        return [i % 3 for i in range(lang.n_train)]
    n_rare = max(2, round(lang.n_train * lang.rare_share))
    others = [c for c in range(3) if c != lang.rare_concept]
    concepts = [lang.rare_concept] * n_rare
    concepts.extend(others[i % 2] for i in range(lang.n_train - n_rare))
    rng.shuffle(concepts)
    return concepts


def generate_rows(universe: SynthUniverse) -> tuple[dict[str, dict[str, list[Row]]], dict[str, list[str]]]:
    """Raw (pre-normalization) rows per language/split plus the generic
    unlabeled corpus lines per language."""
    concepts, noise, generic = _lexicons(universe)
    rows: dict[str, dict[str, list[Row]]] = {}
    corpora: dict[str, list[str]] = {}
    for lang in universe.languages:
        rng = random.Random(f"rows:{universe.seed}:{lang.code}")
        per_split: dict[str, list[Row]] = {}
        for split, count in (("train", lang.n_train), ("dev", lang.n_dev), ("test", lang.n_test)):
            plan = _train_concepts(lang, rng) if split == "train" else [i % 3 for i in range(count)]
            split_rows: list[Row] = []
            for i, concept in enumerate(plan):
                label = LABELS[lang.mapping[concept]]
                text = _make_text(rng, universe, concepts[concept], noise)
                split_rows.append((f"{lang.code}-{split}-{i:04d}", text, label))
            per_split[split] = split_rows
        for i in range(min(lang.n_overlap, lang.n_dev, lang.n_train)):
            source = per_split["train"][i]
            per_split["dev"][i] = (per_split["dev"][i][0], source[1], source[2])
        rows[lang.code] = per_split
        if universe.generic_corpus_lines:
            corpus_rng = random.Random(f"generic:{universe.seed}:{lang.code}")
            corpora[lang.code] = [
                " ".join(corpus_rng.choice(generic) for _ in range(10))
                for _ in range(universe.generic_corpus_lines)
            ]
    return rows, corpora


def write_universe(universe: SynthUniverse, out_dir: str | Path) -> Path:
    """Write the universe's TSVs, corpora and a config.yaml; returns the
    config path."""
    out_dir = Path(out_dir)
    data_dir = out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rows, corpora = generate_rows(universe)
    entries = []
    for lang in universe.languages:
        entry: dict = {"code": lang.code, "family": lang.family}
        for split in ("train", "dev", "test"):
            split_rows = rows[lang.code][split]
            if not split_rows:
                continue
            path = data_dir / f"{lang.code}_{split}.tsv"
            write_tsv(path, ("id", "text", "label"), split_rows)
            entry[split] = str(path.relative_to(out_dir))
        if lang.code in corpora:
            path = data_dir / f"{lang.code}_corpus.txt"
            path.write_text("\n".join(corpora[lang.code]) + "\n", encoding="utf-8")
            entry["lapt_corpus"] = str(path.relative_to(out_dir))
        entries.append(entry)
    config = {
        "languages": entries,
        "learner": dict(universe.learner),
        "selection": dict(universe.selection),
        "seeds": list(universe.seeds),
        "parallelism": universe.parallelism,
        "adaptation": universe.adaptation,
        "cache_dir": "cache",
        "eval_split": "devstar",
    }
    config_path = out_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


_FAST_LEARNER = {
    "ngram_min": 1,
    "ngram_max": 4,
    "hash_buckets": 8192,
    "l2_lambda": 1e-4,
    "learning_rate": 0.1,
    "batch_size": 32,
    "epochs": 12,
}


def four_language_universe(seed: int = 11) -> SynthUniverse:
    """Two aligned pairs with mutually adversarial mappings: aa/bb agree,
    cc/dd agree with each other but conflict with aa/bb. Hand-derivable
    selection: each language's sole positive source is its partner."""
    return SynthUniverse(
        name="four",
        seed=seed,
        languages=(
            SynthLanguage("aa", "Synthetic-A", IDENTITY, n_train=90, n_dev=60, n_test=60,
                          n_overlap=4, rare_concept=2),
            SynthLanguage("bb", "Synthetic-A", IDENTITY, n_train=90, n_dev=60, n_test=60,
                          n_overlap=3, rare_concept=0),
            SynthLanguage("cc", "Synthetic-B", ROTATED, n_train=90, n_dev=60, n_test=60,
                          n_overlap=2, rare_concept=2),
            SynthLanguage("dd", "Synthetic-B", ROTATED, n_train=90, n_dev=60, n_test=60,
                          rare_concept=0),
        ),
        keywords_per_concept=8,
        noise_pool_size=10,
        keywords_per_text=2,
        noise_per_text=8,
        decorate=True,
        learner=dict(_FAST_LEARNER, learning_rate=4.0),
        seeds=(1, 2),
        parallelism=1,
        adaptation="none",
    )
