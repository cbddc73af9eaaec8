"""Data ingestion and tweet normalization.

Owns the program's one text rule (``read_utf8``, ``text_lines``) and
its one TSV format (``tsv_rows``, ``write_tsv``), and handles labeled
TSV files (``id<TAB>text<TAB>label``), unlabeled one-sentence-per-line
corpora, train/dev overlap removal (the ``devstar`` split) and
deterministic per-language subsampling. A dataset holds one language's
rows; the store that holds it names its split.

Every text file the program reads is UTF-8, loses one leading BOM, and
has lines that end at LF, CRLF or a lone CR and nowhere else, so a
tweet holding U+2028, U+0085, a form feed or another character that
``str.splitlines`` also breaks at stays in its row. ``LOADER_VERSION``
versions the rows that the loaders and ``normalize_text`` make of a
file's bytes.
"""
from __future__ import annotations

import logging
import random
import re
import string
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CorpusError

logger = logging.getLogger(__name__)

# Version of the rows a data file's bytes load to. Bump it with any
# change to reading, line splitting, normalization or loading that can
# alter the rows some file's bytes give (ids, texts, labels, dropped
# rows, devstar overlap removal): the cache directory's facts journal
# maps raw bytes to split digests under this version, and would
# otherwise name the old rows. It keys nothing else, so a bump makes
# each file parse once more and keeps every cached score whose rows are
# unchanged. Records written under 1 and 2, the learner's numerics
# versions that keyed the journal while lines also ended at U+2028 and
# the like, are never recalled.
LOADER_VERSION = 3

LABELS = ("negative", "neutral", "positive")
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

# A URL span starts at an alpha-led scheme token ("http://", "ftp://", ...)
# or at "www." and runs to the next whitespace.
URL_RE = re.compile(r"(?:[a-z][a-z0-9+.\-]*://|www\.)\S*", re.IGNORECASE)
# Consuming the whole "@" run keeps the replacement stable: "@@name" must
# not leave an "@" in front of the inserted token.
MENTION_RE = re.compile(r"@+[A-Za-z0-9_]+")
# A maximal run of one non-whitespace character that a run rule may
# change: 2 or more of "_" or of a character \w does not match, or 4 or
# more of any. Every punctuation character is in the first class: none
# is whitespace, and "_" is the only one \w matches. Both alternatives
# share the leading pair, so the scan fails fast at most positions.
_RUN_RE = re.compile(r"(\S)\1(?:(?<=[^\w\s]|_)\1*|\1{2,})")


def _is_punct(ch: str) -> bool:
    return ch in string.punctuation or unicodedata.category(ch).startswith("P")


def _collapse_run(m: re.Match) -> str:
    run = m.group(0)
    return run[0] if _is_punct(run[0]) else run[:3]


def normalize_text(raw: str) -> str:
    """Normalize a raw tweet string.

    Applies, in order: URL spans -> "HTTPURL"; @-mentions -> "USER"; runs
    of the same non-whitespace character longer than 3 collapse to 3; runs
    of the same punctuation character longer than 1 collapse to 1;
    whitespace runs collapse to a single space and the ends are trimmed.
    The function is total and idempotent. Any change to its output for
    some input changes the rows a file loads to, so it bumps
    ``LOADER_VERSION``.

    The passes below give the same string for every input: a text can hold
    a URL only if it contains "://", "w." or "W." and a mention only if it
    contains "@", both run rules are one pass over maximal runs, and
    ``str.split`` splits on exactly the characters ``\\s`` matches.
    """
    s = raw
    if "://" in s or "w." in s or "W." in s:
        s = URL_RE.sub("HTTPURL", s)
    if "@" in s:
        s = MENTION_RE.sub("USER", s)
    s = _RUN_RE.sub(_collapse_run, s)
    return " ".join(s.split())


def check_code(code: object) -> str:
    """``code`` if it is a language code, a non-empty string of lowercase
    ASCII letters, digits, ``-`` and ``_``, which can name a file
    (``<code>_devstar.tsv``) or a report column; anything else is a
    ``CorpusError``."""
    if not isinstance(code, str) or not re.fullmatch(r"[a-z0-9_-]+", code):
        raise CorpusError(f"invalid language code {code!r}: must be non-empty lowercase ASCII letters, digits, '-' or '_'")
    return code


@dataclass(frozen=True)
class LanguageCode:
    """A language identifier plus optional family metadata, as
    ``AFRISENTI_LANGUAGES`` holds them; datasets and the config hold the
    bare code.

    Equality and hashing use only ``code``: two values with the same code
    are the same language regardless of how much metadata they carry.
    """

    code: str
    family: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check_code(self.code)


@dataclass(frozen=True)
class Example:
    """One text row of a ``Dataset``, which owns its language code;
    ``label`` is None for unlabeled data."""

    id: str
    text: str
    label: str | None

    def __post_init__(self) -> None:
        if not self.text:
            raise CorpusError(f"example {self.id!r}: empty text")
        if self.label is not None and self.label not in LABELS:
            raise CorpusError(f"example {self.id!r}: unknown label {self.label!r}")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of examples for one language,
    named by its code, with distinct ids."""

    code: str
    examples: tuple[Example, ...]

    def __post_init__(self) -> None:
        check_code(self.code)
        seen: set[str] = set()
        for ex in self.examples:
            if ex.id in seen:
                raise CorpusError(f"dataset {self.code}: duplicate id {ex.id!r}")
            seen.add(ex.id)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def texts(self) -> list[str]:
        return [ex.text for ex in self.examples]


def read_file_bytes(path: str | Path) -> bytes:
    """The bytes of a file. A missing or unreadable file is a data error
    that names the path."""
    path = Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise CorpusError(f"file not found: {path}") from None
    except OSError as e:
        raise CorpusError(f"{path}: cannot read: {e.strerror}") from None


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, without one leading byte order mark. A
    missing or unreadable file or invalid UTF-8 is a data error that
    names the path and, for invalid UTF-8, the file's byte offset."""
    path = Path(path)
    data = read_file_bytes(path)
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise CorpusError(f"{path}: invalid UTF-8 at byte offset {e.start}") from None


def text_lines(text: str) -> list[str]:
    """The lines of ``text``, without their ends. A line ends at LF, CRLF
    or a lone CR (Python's universal newlines) and nowhere else; a final
    line end starts no further line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def tsv_rows(path: str | Path, min_fields: int, row_form: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each row after a TSV's header.

    The file is read by ``read_utf8`` and split by ``text_lines``; blank
    lines are skipped and fields are split on tabs. A missing header
    line, or a row of fewer than ``min_fields`` fields, is a
    ``CorpusError`` naming the path and the line; ``row_form`` says what
    a row should hold.
    """
    path = Path(path)
    lines = text_lines(read_utf8(path))
    if not lines:
        raise CorpusError(f"{path}: empty file, expected a header line")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < min_fields:
            raise CorpusError(f"{path}: malformed row at line {lineno}: expected {row_form}")
        yield lineno, fields


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header line, then one tab-joined line per row, as UTF-8
    with LF line ends. Each row has the header's number of fields, each
    written as its ``str``; a float's ``str`` is its ``repr``, so
    probabilities read back bit for bit."""
    line = "\t".join(["%s"] * len(header)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def load_labeled_tsv(path: str | Path, code: str) -> Dataset:
    """Load a labeled TSV (header, then ``id<TAB>text<TAB>label`` rows).

    Texts are normalized; rows whose text normalizes to empty are dropped
    with a logged count. Labels are matched case-insensitively against
    negative/neutral/positive. Unknown labels, short rows and a kept
    row's id that an earlier kept row holds raise ``CorpusError`` naming
    the offending line.
    """
    path = Path(path)
    examples: list[Example] = []
    seen: set[str] = set()
    dropped = 0
    for lineno, fields in tsv_rows(path, 3, "id<TAB>text<TAB>label"):
        row_id, raw, raw_label = fields[0], fields[1], fields[2]
        label = raw_label.strip().lower()
        if label not in LABELS:
            raise CorpusError(f"{path}: unknown label {raw_label.strip()!r} at line {lineno}")
        normalized = normalize_text(raw)
        if not normalized:
            dropped += 1
            continue
        if row_id in seen:
            raise CorpusError(f"{path}: duplicate id {row_id!r} at line {lineno}")
        seen.add(row_id)
        examples.append(Example(id=row_id, text=normalized, label=label))
    if dropped:
        logger.info("%s: dropped %d rows with empty text after normalization", path, dropped)
    return Dataset(code=code, examples=tuple(examples))


def load_texts_tsv(path: str | Path) -> tuple[list[str], list[str]]:
    """The ids and normalized texts of a TSV whose rows start with
    ``id<TAB>text``; further columns, such as a label, are ignored."""
    ids: list[str] = []
    texts: list[str] = []
    for _, fields in tsv_rows(path, 2, "id<TAB>text"):
        ids.append(fields[0])
        texts.append(normalize_text(fields[1]))
    return ids, texts


def save_labeled_tsv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to the labeled TSV format (lossless round trip)."""
    write_tsv(path, ("id", "text", "label"), ((ex.id, ex.text, ex.label or "") for ex in dataset))


def load_unlabeled_text(path: str | Path, code: str) -> Dataset:
    """Load an unlabeled corpus: one sentence per line, read by
    ``read_utf8`` and split by ``text_lines``.

    Blank lines are skipped; every other line is normalized, which never
    leaves it empty, into the example ``u<line number>``.
    """
    path = Path(path)
    examples = [
        Example(id=f"u{lineno}", text=normalize_text(line), label=None)
        for lineno, line in enumerate(text_lines(read_utf8(path)), start=1)
        if line.strip()
    ]
    return Dataset(code=code, examples=tuple(examples))


def dedup_dev(train: Dataset, dev: Dataset) -> Dataset:
    """Remove dev examples whose normalized text also occurs in train.

    Returns the ``devstar`` rows with the original dev order preserved.
    The overlap key is the full normalized text string.
    """
    if train.code != dev.code:
        raise CorpusError(f"dedup_dev: language mismatch ({train.code} train vs {dev.code} dev)")
    train_texts = {ex.text for ex in train}
    kept = tuple(ex for ex in dev if ex.text not in train_texts)
    removed = len(dev) - len(kept)
    if removed:
        logger.info("%s: removed %d dev examples overlapping train", dev.code, removed)
    return Dataset(code=dev.code, examples=kept)


def _sample_indices(n: int, k: int, rng: random.Random) -> list[int]:
    # Rank indices by rng.random() keys and keep the k smallest: uniform
    # over k-subsets and only relies on random(), whose stream is stable
    # across Python versions and platforms.
    keys = [(rng.random(), i) for i in range(n)]
    keys.sort()
    return sorted(i for _, i in keys[:k])


def sample_per_language(ds: Dataset, k: int, seed: int) -> Dataset:
    """Draw up to ``k`` of a dataset's examples, without replacement.

    The generator is seeded by (seed, language code), so a draw depends
    on nothing but the dataset, ``k`` and ``seed``. A dataset of at most
    ``k`` rows is returned whole; selected rows keep their file order.
    Logs nothing: a run names each cap shortfall from its store's facts.
    """
    if k <= 0:
        raise CorpusError(f"sample_per_language: k must be >= 1, got {k}")
    if len(ds) <= k:
        return ds
    chosen = _sample_indices(len(ds), k, random.Random(f"{seed}:{ds.code}"))
    return Dataset(ds.code, tuple(ds.examples[i] for i in chosen))


# The AfriSenti shared-task languages and their families.
AFRISENTI_LANGUAGES: dict[str, LanguageCode] = {
    lc.code: lc
    for lc in (
        LanguageCode("am", "Afro-Asiatic/Semitic"),
        LanguageCode("dz", "Afro-Asiatic/Semitic"),
        LanguageCode("ha", "Afro-Asiatic/Chadic"),
        LanguageCode("ig", "Niger-Congo/Volta-Niger"),
        LanguageCode("kr", "Niger-Congo/Bantu"),
        LanguageCode("ma", "Afro-Asiatic/Semitic"),
        LanguageCode("pcm", "English-Creole"),
        LanguageCode("pt", "Indo-European"),
        LanguageCode("sw", "Niger-Congo/Bantu"),
        LanguageCode("ts", "Niger-Congo/Bantu"),
        LanguageCode("twi", "Niger-Congo/Kwa"),
        LanguageCode("yo", "Niger-Congo/Volta-Niger"),
        LanguageCode("or", "Afro-Asiatic/Cushitic"),
        LanguageCode("tg", "Afro-Asiatic/Semitic"),
    )
}
