"""Data ingestion and tweet normalization.

Handles labeled TSV files (``id<TAB>text<TAB>label``), unlabeled
one-sentence-per-line corpora, language/family metadata, train/dev
overlap removal (the ``devstar`` split) and deterministic per-language
subsampling.
"""
from __future__ import annotations

import logging
import random
import re
import string
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusError

logger = logging.getLogger(__name__)

LABELS = ("negative", "neutral", "positive")
SPLITS = ("train", "dev", "devstar", "test")

# A URL span starts at an alpha-led scheme token ("http://", "ftp://", ...)
# or at "www." and runs to the next whitespace.
URL_RE = re.compile(r"(?:[a-z][a-z0-9+.\-]*://|www\.)\S*", re.IGNORECASE)
# Consuming the whole "@" run keeps the replacement stable: "@@name" must
# not leave an "@" in front of the inserted token.
MENTION_RE = re.compile(r"@+[A-Za-z0-9_]+")
_CHAR_RUN_RE = re.compile(r"(\S)\1{3,}")
_PAIR_RUN_RE = re.compile(r"(\S)\1+")
_WS_RE = re.compile(r"\s+")


def _is_punct(ch: str) -> bool:
    return ch in string.punctuation or unicodedata.category(ch).startswith("P")


def normalize_text(raw: str) -> str:
    """Normalize a raw tweet string.

    Applies, in order: URL spans -> "HTTPURL"; @-mentions -> "USER"; runs
    of the same non-whitespace character longer than 3 collapse to 3; runs
    of the same punctuation character longer than 1 collapse to 1;
    whitespace runs collapse to a single space and the ends are trimmed.
    The function is total and idempotent.
    """
    s = URL_RE.sub("HTTPURL", raw)
    s = MENTION_RE.sub("USER", s)
    s = _CHAR_RUN_RE.sub(r"\1\1\1", s)
    s = _PAIR_RUN_RE.sub(lambda m: m.group(1) if _is_punct(m.group(1)) else m.group(0), s)
    return _WS_RE.sub(" ", s).strip()


@dataclass(frozen=True)
class LanguageCode:
    """A language identifier plus optional family metadata.

    Equality and hashing use only ``code``: two values with the same code
    are the same language regardless of how much metadata they carry.
    """

    code: str
    family: str = field(default="", compare=False)
    subgroup: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.code or self.code != self.code.lower() or any(c.isspace() for c in self.code):
            raise CorpusError(f"invalid language code {self.code!r}: must be non-empty lowercase without whitespace")

    @property
    def top_family(self) -> str:
        """Top-level family label, e.g. "Afro-Asiatic" from "Afro-Asiatic/Semitic"."""
        return self.family.split("/")[0].strip()

    def __str__(self) -> str:
        return self.code


@dataclass(frozen=True)
class Example:
    """One text row; ``label`` is None for unlabeled data."""

    id: str
    text: str
    label: str | None
    language: LanguageCode

    def __post_init__(self) -> None:
        if not self.text:
            raise CorpusError(f"example {self.id!r}: empty text")
        if self.label is not None and self.label not in LABELS:
            raise CorpusError(f"example {self.id!r}: unknown label {self.label!r}")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of examples for one language/split."""

    language: LanguageCode
    split: str
    examples: tuple[Example, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise CorpusError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        seen: set[str] = set()
        for ex in self.examples:
            if ex.language != self.language:
                raise CorpusError(
                    f"dataset {self.language.code}/{self.split}: example {ex.id!r} "
                    f"belongs to {ex.language.code!r}"
                )
            if ex.id in seen:
                raise CorpusError(f"dataset {self.language.code}/{self.split}: duplicate id {ex.id!r}")
            seen.add(ex.id)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def texts(self) -> list[str]:
        return [ex.text for ex in self.examples]

    def labels(self) -> list[str | None]:
        return [ex.label for ex in self.examples]

    @property
    def is_labeled(self) -> bool:
        return all(ex.label is not None for ex in self.examples)


def _decode_utf8(path: Path) -> str:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise CorpusError(f"file not found: {path}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorpusError(f"{path}: invalid UTF-8 at byte offset {e.start}") from None


def load_labeled_tsv(path: str | Path, language: LanguageCode, split: str = "train") -> Dataset:
    """Load a labeled TSV (header, then ``id<TAB>text<TAB>label`` rows).

    Texts are normalized; rows whose text normalizes to empty are dropped
    with a logged count. Labels are matched case-insensitively against
    negative/neutral/positive. Unknown labels and short rows raise
    ``CorpusError`` naming the offending line.
    """
    path = Path(path)
    text = _decode_utf8(path)
    lines = text.splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty file, expected a header line")
    examples: list[Example] = []
    dropped = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise CorpusError(f"{path}: malformed row at line {lineno}: expected >=3 tab-separated fields")
        row_id, raw, raw_label = fields[0], fields[1], fields[2]
        label = raw_label.strip().lower()
        if label not in LABELS:
            raise CorpusError(f"{path}: unknown label {raw_label.strip()!r} at line {lineno}")
        normalized = normalize_text(raw)
        if not normalized:
            dropped += 1
            continue
        examples.append(Example(id=row_id, text=normalized, label=label, language=language))
    if dropped:
        logger.info("%s: dropped %d rows with empty text after normalization", path, dropped)
    return Dataset(language=language, split=split, examples=tuple(examples))


def save_labeled_tsv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to the labeled TSV format (lossless round trip)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\ttext\tlabel\n")
        for ex in dataset:
            fh.write(f"{ex.id}\t{ex.text}\t{ex.label or ''}\n")


def load_unlabeled_text(path: str | Path, language: LanguageCode, split: str = "train") -> Dataset:
    """Load an unlabeled corpus: UTF-8 text, one sentence per line.

    Blank lines are skipped; remaining lines are normalized and lines
    that normalize to empty are dropped with a logged count.
    """
    path = Path(path)
    text = _decode_utf8(path)
    examples: list[Example] = []
    dropped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        normalized = normalize_text(line)
        if not normalized:
            dropped += 1
            continue
        examples.append(Example(id=f"u{lineno}", text=normalized, label=None, language=language))
    if dropped:
        logger.info("%s: dropped %d lines with empty text after normalization", path, dropped)
    if not examples:
        logger.warning("%s: unlabeled corpus is empty", path)
    return Dataset(language=language, split=split, examples=tuple(examples))


def dedup_dev(train: Dataset, dev: Dataset) -> Dataset:
    """Remove dev examples whose normalized text also occurs in train.

    Returns the ``devstar`` split with the original dev order preserved.
    The overlap key is the full normalized text string.
    """
    if train.language != dev.language:
        raise CorpusError(
            f"dedup_dev: language mismatch ({train.language.code} train vs {dev.language.code} dev)"
        )
    train_texts = {ex.text for ex in train}
    kept = tuple(ex for ex in dev if ex.text not in train_texts)
    removed = len(dev) - len(kept)
    if removed:
        logger.info("%s: removed %d dev examples overlapping train", dev.language.code, removed)
    if not kept:
        logger.warning("%s: devstar is empty, dev was fully contained in train", dev.language.code)
    return Dataset(language=dev.language, split="devstar", examples=kept)


def _sample_indices(n: int, k: int, rng: random.Random) -> list[int]:
    # Rank indices by rng.random() keys and keep the k smallest: uniform
    # over k-subsets and only relies on random(), whose stream is stable
    # across Python versions and platforms.
    keys = [(rng.random(), i) for i in range(n)]
    keys.sort()
    return sorted(i for _, i in keys[:k])


@lru_cache(maxsize=1 << 12)
def _warn_short_language(code: str, available: int, requested: int) -> None:
    # Memoized, so the warning is logged once per (language, rows
    # available, cap) in a process, not once per cell and seed.
    logger.warning("%s: only %d train rows available, requested %d; using all", code, available, requested)


def sample_per_language(datasets: Iterable[Dataset], k: int, seed: int) -> list[Dataset]:
    """Draw up to ``k`` train examples per language, without replacement.

    The generator is seeded by (seed, language code), so the subsample for
    a language does not depend on which other languages are present.
    Languages with fewer than ``k`` rows contribute everything. Selected
    rows keep their original file order.
    """
    if k <= 0:
        raise CorpusError(f"sample_per_language: k must be >= 1, got {k}")
    out: list[Dataset] = []
    for ds in datasets:
        if ds.split != "train":
            raise CorpusError(f"sample_per_language expects train splits, got {ds.language.code}/{ds.split}")
        if len(ds) <= k:
            if len(ds) < k:
                _warn_short_language(ds.language.code, len(ds), k)
            out.append(ds)
            continue
        rng = random.Random(f"{seed}:{ds.language.code}")
        chosen = _sample_indices(len(ds), k, rng)
        out.append(Dataset(ds.language, "train", tuple(ds.examples[i] for i in chosen)))
    return out


def strip_labels(dataset: Dataset) -> Dataset:
    """Copy of a dataset with all labels removed (for adaptation corpora)."""
    examples = tuple(
        Example(id=ex.id, text=ex.text, label=None, language=ex.language) for ex in dataset
    )
    return Dataset(language=dataset.language, split=dataset.split, examples=examples)


def load_language_metadata(path: str | Path) -> dict[str, LanguageCode]:
    """Read language metadata: header, then ``code<TAB>family[<TAB>subgroup]`` rows."""
    path = Path(path)
    text = _decode_utf8(path)
    lines = text.splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty metadata file")
    out: dict[str, LanguageCode] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise CorpusError(f"{path}: malformed metadata row at line {lineno}")
        code = fields[0].strip()
        family = fields[1].strip()
        subgroup = fields[2].strip() if len(fields) > 2 and fields[2].strip() else None
        out[code] = LanguageCode(code=code, family=family, subgroup=subgroup)
    return out


# The AfriSenti shared-task languages and their families.
AFRISENTI_LANGUAGES: dict[str, LanguageCode] = {
    lc.code: lc
    for lc in (
        LanguageCode("am", "Afro-Asiatic/Semitic", "Semitic"),
        LanguageCode("dz", "Afro-Asiatic/Semitic", "Semitic"),
        LanguageCode("ha", "Afro-Asiatic/Chadic", "Chadic"),
        LanguageCode("ig", "Niger-Congo/Volta-Niger", "Volta-Niger"),
        LanguageCode("kr", "Niger-Congo/Bantu", "Bantu"),
        LanguageCode("ma", "Afro-Asiatic/Semitic", "Semitic"),
        LanguageCode("pcm", "English-Creole", None),
        LanguageCode("pt", "Indo-European", None),
        LanguageCode("sw", "Niger-Congo/Bantu", "Bantu"),
        LanguageCode("ts", "Niger-Congo/Bantu", "Bantu"),
        LanguageCode("twi", "Niger-Congo/Kwa", "Kwa"),
        LanguageCode("yo", "Niger-Congo/Volta-Niger", "Volta-Niger"),
        LanguageCode("or", "Afro-Asiatic/Cushitic", "Cushitic"),
        LanguageCode("tg", "Afro-Asiatic/Semitic", "Semitic"),
    )
}
