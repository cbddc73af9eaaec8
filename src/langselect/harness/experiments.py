"""Experiment orchestration: specs, the corpus store, scoring a group of
cells that share one model at the seeds they miss (pretrain once, then
per seed: build training set -> fine-tune -> evaluate every cell), and
the matrix runner, the score cache's one reader and writer, which groups
a plan's cells by model and aggregates seeds into a score table.

A spec is a cell; the seed is an argument of scoring, set once per run.
Every score is a deterministic function of (spec, seed), so results are
identical whether or not they come from the cache.

The numpy-backed learner (``textmodel`` and ``metrics``) is imported on
first use: when a cell misses the cache, or ``adaptation_stats`` or
``train_model`` is called. Its names (``fine_tune``, ``predict_texts``,
``pretrain``, ``AdaptationStats``, ``confusion``, ``weighted_f1``) are
then bound as globals of this module, and reading one of them as an
attribute binds them too, so they can be replaced here like any other
module global.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from ..corpus import (
    LOADER_VERSION,
    Dataset,
    dedup_dev,
    load_labeled_tsv,
    load_unlabeled_text,
    read_file_bytes,
    sample_per_language,
    text_lines,
)
from ..errors import CorpusError, HarnessError, LangselectError
from ..learner_config import ADAPTATIONS, NUMERICS_VERSION, LearnerConfig
from ..selection import PlanCell, cell_mode
from .cache import FactsMemo, ScoreCache
from .config import HarnessConfig

if TYPE_CHECKING:
    from ..textmodel import AdaptationStats, Model

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

# The numpy-backed learner names this module calls, by home module. They
# are bound into this module's globals on first use, so a run whose
# scores all come from the cache never imports numpy.
_LEARNER_NAMES = {
    "AdaptationStats": "textmodel",
    "fine_tune": "textmodel",
    "predict_texts": "textmodel",
    "pretrain": "textmodel",
    "confusion": "metrics",
    "weighted_f1": "metrics",
}


def _bind_learner() -> None:
    """Import the learner and bind its names here. A name already bound,
    such as a test spy or a tracing wrapper, is kept."""
    namespace = globals()
    for name, home in _LEARNER_NAMES.items():
        if name not in namespace:
            namespace[name] = getattr(importlib.import_module(f"..{home}", __package__), name)


def __getattr__(name: str):
    if name in _LEARNER_NAMES:
        _bind_learner()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

EVAL_SPLITS = ("devstar", "dev", "test")


# The facts memo's loader name of each store split but train, dev and
# test, which ``load_labeled_tsv`` loads.
_LOADERS = {"lapt": "unlabeled", "devstar": "devstar"}


def _rows_digest(ds: Dataset) -> str:
    """sha256 of a dataset's (id, text, label) rows in order."""
    # JSON-encoded a slice at a time, so a large split's text is never
    # held in memory twice.
    h = hashlib.sha256()
    for start in range(0, len(ds), 1024):
        rows = [[ex.id, ex.text, ex.label] for ex in ds.examples[start : start + 1024]]
        h.update(json.dumps(rows, ensure_ascii=False).encode("utf-8"))
    return h.hexdigest()


class _Split:
    """One split of a store: its dataset, built on first use, and its
    facts, the (content digest, row count) pair. Facts recalled from a
    ``FactsMemo`` are known before the dataset, which must match them
    once it is built."""

    def __init__(self, name: str, build: Callable[[], Dataset], facts: tuple[str, int] | None = None):
        self.name = name
        self._build = build
        self._dataset: Dataset | None = None
        self._facts = facts

    def dataset(self) -> Dataset:
        if self._dataset is None:
            ds = self._build()
            if self._facts is not None and _rows_digest(ds) != self._facts[0]:
                raise CorpusError(f"{self.name}: rows differ from those remembered for its bytes")
            self._dataset = ds
        return self._dataset

    def facts(self) -> tuple[str, int]:
        if self._facts is None:
            ds = self.dataset()
            self._facts = (_rows_digest(ds), len(ds))
        return self._facts


class CorpusStore:
    """Datasets organized by language and split; the split "lapt" names a
    language's LAPT corpus. Built by ``from_config``.

    Every split query goes through three methods under one rule: a
    split that is absent or holds no rows has no rows. ``split`` returns
    the dataset, or None if it is absent; ``rows`` returns it only if it
    holds a row, and otherwise raises one ``HarnessError`` naming the
    language and the split; ``count`` gives its row count, 0 if absent.
    A split's facts are its content digest and row count, and ``count``
    and ``digest`` answer from them alone. A ``devstar`` split is derived
    on first use from a present dev split, less any rows that train holds.
    ``sample`` returns capped train splits, each drawn once.

    The store hashes every configured file's bytes and looks their facts
    up in its ``FactsMemo``. A file whose facts the memo holds is parsed
    only when a dataset of it is first returned, so a run whose scores
    all come from the cache parses no corpus. Any other file is loaded
    and validated at once, and its facts remembered; with an empty memo,
    every file is loaded at once. A split whose facts count no rows is
    no exception: its file is parsed when its dataset is first returned,
    which a warm run never asks for, as ``rows`` raises first. The store
    logs nothing about empty splits; the caller that picks targets says
    which languages it leaves out and why. Facts are remembered under
    ``corpus.LOADER_VERSION``: after a loader change each file is parsed
    once more, and a file whose rows did not change keeps its digests,
    so its cells keep their keys and cached scores.
    """

    def __init__(self, memo: FactsMemo):
        self._splits: dict[tuple[str, str], _Split] = {}
        # sha256 of the bytes of each split read from a file, by
        # (language, split).
        self._raw: dict[tuple[str, str], str] = {}
        self._memo = memo
        self._samples: dict[tuple[str, int, int], Dataset] = {}

    def _add(self, code: str, split: str, name: str, raw: str, build: Callable[[], Dataset]) -> None:
        """Add the split ``build`` makes, named ``name`` in errors. When
        the memo holds its facts under the key ``raw``, it is built on
        first use, whatever its row count; otherwise it is built now and
        its facts remembered."""
        loader = _LOADERS.get(split, "labeled")
        facts = self._memo.get(LOADER_VERSION, loader, raw)
        entry = self._splits[(code, split)] = _Split(name, build, facts)
        if facts is None:
            entry.dataset()
            self._memo.put(LOADER_VERSION, loader, raw, entry.facts())

    def _add_file(self, code: str, split: str, path: Path, build: Callable[[], Dataset]) -> None:
        raw = self._raw[(code, split)] = hashlib.sha256(read_file_bytes(path)).hexdigest()
        self._add(code, split, str(path), raw, build)

    def _devstar(self, code: str) -> Dataset:
        """Dev less the rows train holds; an absent train split removes
        no row, as an empty one does."""
        train, dev = self.split(code, "train"), self.split(code, "dev")
        return dedup_dev(train or Dataset(dev.language, "train", ()), dev)

    def _entry(self, code: str, split: str) -> _Split | None:
        if split == "devstar" and (code, split) not in self._splits and (code, "dev") in self._splits:
            # Without a train file, the facts key starts with "+", as no
            # other key does.
            raw = f"{self._raw.get((code, 'train'), '')}+{self._raw[(code, 'dev')]}"
            self._add(code, "devstar", f"{code}/devstar", raw, partial(self._devstar, code))
        return self._splits.get((code, split))

    def split(self, code: str, split: str) -> Dataset | None:
        """The split's dataset, empty or not, or None if it is absent."""
        entry = self._entry(code, split)
        return None if entry is None else entry.dataset()

    def rows(self, code: str, split: str) -> Dataset:
        """The split's dataset, which holds at least one row. An absent
        or empty split is a ``HarnessError`` naming the language and the
        split."""
        if not self.count(code, split):
            what = "LAPT corpus" if split == "lapt" else f"{split} split"
            raise HarnessError(f"language {code!r} has no rows in its {what}")
        return self.split(code, split)

    def count(self, code: str, split: str) -> int:
        """The split's row count, read off its facts; 0 if it is absent."""
        entry = self._entry(code, split)
        return 0 if entry is None else entry.facts()[1]

    def sample(self, code: str, cap: int, seed: int) -> Dataset:
        """``rows(code, "train")`` capped at ``cap`` rows by
        ``sample_per_language`` with ``seed``. A draw depends on nothing
        else, so it is made on first use and kept: at most ``cap``
        references to the split's examples."""
        key = (code, cap, seed)
        if key not in self._samples:
            self._samples[key] = sample_per_language(self.rows(code, "train"), cap, seed=seed)
        return self._samples[key]

    def digest(self, code: str, split: str) -> str | None:
        """sha256 of a split's (id, text, label) rows in order, or None if
        the split is absent. ``split`` may also be "lapt" for the
        language's LAPT corpus."""
        entry = self._entry(code, split)
        return None if entry is None else entry.facts()[0]

    @classmethod
    def from_config(cls, cfg: HarnessConfig, memo: FactsMemo | None = None) -> "CorpusStore":
        """The store of every file ``cfg`` declares. Files whose facts
        ``memo`` holds are parsed on first use; without a memo, an empty
        in-memory one loads every file at once."""
        memo = FactsMemo() if memo is None else memo
        store = cls(memo)
        for lf in cfg.languages:
            code = lf.language.code
            for split, path in (("train", lf.train), ("dev", lf.dev), ("test", lf.test)):
                if path is not None:
                    store._add_file(code, split, path, partial(load_labeled_tsv, path, lf.language, split))
            if lf.lapt_corpus is not None:
                store._add_file(code, "lapt", lf.lapt_corpus, partial(load_unlabeled_text, lf.lapt_corpus, lf.language))
        return store


def _is_count(value: object, least: int) -> bool:
    """Whether ``value`` is an int, not a bool, of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_cell_fields(adaptation: object, sample_cap: object, eval_split: object) -> None:
    """Raise ``HarnessError`` unless a cell's adaptation and eval split are
    known and its ``sample_cap`` is None or an int >= 1."""
    if adaptation not in ADAPTATIONS:
        raise HarnessError(f"unknown adaptation {adaptation!r}, expected one of {ADAPTATIONS}")
    if eval_split not in EVAL_SPLITS:
        raise HarnessError(f"unknown eval split {eval_split!r}")
    if sample_cap is not None and not _is_count(sample_cap, 1):
        raise HarnessError(f"sample_cap must be None or an int >= 1, got {sample_cap!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One training/evaluation cell: which languages train the model, how
    it adapts, and which target split is scored. Its ``mode`` is read off
    its sources by ``cell_mode``."""

    target: str
    sources: tuple[str, ...]
    adaptation: str = "none"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    sample_cap: int | None = None
    eval_split: str = "devstar"

    def __post_init__(self) -> None:
        if not self.sources:
            raise HarnessError("spec needs at least one source language")
        ordered = tuple(sorted(self.sources))
        if len(set(ordered)) != len(ordered):
            raise HarnessError(f"duplicate sources in spec: {self.sources}")
        object.__setattr__(self, "sources", ordered)
        _check_cell_fields(self.adaptation, self.sample_cap, self.eval_split)

    @property
    def mode(self) -> str:
        return cell_mode(self.target, self.sources)

    def cell_key(self, store: CorpusStore) -> str:
        """Score-cache key of the cell: a hash over every field and the
        mode, plus the learner's NUMERICS_VERSION and the content digests
        of the data the cell reads from ``store`` (source train splits,
        the target's eval split and the adaptation corpora). Groups the
        per-seed runs of one cell; changed data or numerics give a new key."""
        payload = {**vars(self), "mode": self.mode, "learner": vars(self.learner)}
        payload["numerics_version"] = NUMERICS_VERSION
        payload["data"] = {
            "train": {code: store.digest(code, "train") for code in self.sources},
            "eval": store.digest(self.target, self.eval_split),
            "adaptation": {
                f"{code}/{split}": store.digest(code, split) for code, split in self._adaptation_splits()
            },
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]

    def _adaptation_splits(self) -> list[tuple[str, str]]:
        """(language, split) of every corpus ``adaptation_stats`` pretrains
        on; the split "lapt" names a language's LAPT corpus."""
        splits: list[tuple[str, str]] = []
        if self.adaptation in ("tapt", "lapt+tapt"):
            for code in sorted(set(self.sources) | {self.target}):
                splits += [(code, "train"), (code, "dev")]
        if self.adaptation in ("lapt", "lapt+tapt"):
            splits.append((self.target, "lapt"))
        return splits

    def model_key(self) -> tuple:
        """The fields a trained model depends on, besides the seed and the
        store's data: specs with equal keys train identical weights. The
        adaptation splits name the target exactly when adaptation reads
        its data. Held in memory only, never stored."""
        return (self.sources, self.sample_cap, self.adaptation, self.learner, tuple(self._adaptation_splits()))

    def describe(self) -> str:
        cap = f" cap={self.sample_cap}" if self.sample_cap is not None else ""
        return (
            f"target={self.target} sources={','.join(self.sources)} mode={self.mode} "
            f"adaptation={self.adaptation} eval={self.eval_split}{cap}"
        )


def warn_cap_shortfalls(specs: Iterable[ExperimentSpec], store: CorpusStore) -> None:
    """Log, sorted by code, one warning per (language, cap) of the capped
    ``specs`` whose train split holds rows, but fewer than the cap. It
    reads only ``store.count``, so a warm run logs what a cold one does."""
    caps = {(code, spec.sample_cap) for spec in specs if spec.sample_cap is not None for code in spec.sources}
    for code, cap in sorted(caps):
        if 0 < (n := store.count(code, "train")) < cap:
            logger.warning("%s: only %d train rows available, requested %d; using all", code, n, cap)


def build_training_set(spec: ExperimentSpec, store: CorpusStore, seed: int) -> list[Dataset]:
    """Training datasets for a spec at one seed: the train splits of its
    source languages, sorted by language code, rows in file order; a
    capped spec reads each language's subsample at ``seed`` from
    ``store.sample``, so cells share each draw."""
    if spec.sample_cap is None:
        return [store.rows(code, "train") for code in spec.sources]
    return [store.sample(code, spec.sample_cap, seed) for code in spec.sources]


def adaptation_stats(spec: ExperimentSpec, store: CorpusStore) -> AdaptationStats:
    """Adaptation statistics for a spec: one ``pretrain`` over the corpora
    its adaptation splits name, labels ignored.

    TAPT reads the train and dev splits of the spec's languages plus the
    target, LAPT the target's configured external corpus through
    ``store.rows``, and lapt+tapt both. An absent train or dev split is
    skipped and an empty one adds no documents; a LAPT corpus that is
    absent or empty fails, whatever TAPT adds.
    """
    _bind_learner()
    splits = spec._adaptation_splits()
    if not splits:
        return AdaptationStats.uniform()
    corpora = []
    for code, split in splits:
        if split == "lapt":
            corpora.append(store.rows(code, "lapt"))
        elif (ds := store.split(code, split)) is not None:
            corpora.append(ds)
    # Tags are saved in model files: tapt:aa+bb, lapt:aa, lapt+tapt:aa.
    names = "+".join(sorted({code for code, _ in splits})) if spec.adaptation == "tapt" else spec.target
    return pretrain(corpora, tag=f"{spec.adaptation}:{names}", config=spec.learner)


def train_model(spec: ExperimentSpec, store: CorpusStore, seed: int, stats: AdaptationStats) -> Model:
    """Fine-tune a spec's model at one seed on the cell's adaptation
    statistics ``stats``."""
    _bind_learner()
    return fine_tune(stats, build_training_set(spec, store, seed), spec.learner, seed)


def score_experiment(
    group: dict[str, ExperimentSpec],
    store: CorpusStore,
    todo: dict[int, list[str]],
) -> tuple[list[tuple[str, int, float, int]], list[str], int]:
    """Score a model group, cells keyed by cell key whose specs share one
    ``model_key``, at the seeds ``todo`` lists (seed -> cell keys, in
    group order). Returns the scored (cell key, seed, weighted F1,
    support) tuples in seed, then cell order; one error line per failed
    cell; and the number of models trained. Reads and writes no cache.

    The adaptation statistics and each listed cell's eval labels are
    built once. Each seed, in sorted order, then trains one model, held
    alone, that scores every cell listed at it. A failing step fails each
    cell that needed it, named with its spec and the seed; a failed cell
    is tried no further.
    """
    scored: list[tuple[str, int, float, int]] = []
    failed: dict[str, str] = {}
    trained = 0

    def fail(keys: Sequence[str], e: Exception, seed: int | None = None) -> None:
        at = "" if seed is None else f" seed={seed}"
        for key in keys:
            failed[key] = f"experiment failed ({group[key].describe()}{at}): {e}"

    missing = [key for key in group if any(key in keys for keys in todo.values())]
    if missing:
        _bind_learner()
        spec = group[missing[0]]
        try:
            stats = adaptation_stats(spec, store)
        except Exception as e:
            fail(missing, e)
            missing = []
        evals: dict[str, tuple[list[str], list[str]]] = {}
        for key in missing:
            try:
                eval_ds = store.rows(group[key].target, group[key].eval_split)
                evals[key] = (eval_ds.texts(), [ex.label for ex in eval_ds])
            except Exception as e:
                fail([key], e)
        for seed in sorted(todo):
            keys = [key for key in todo[seed] if key in evals and key not in failed]
            if not keys:
                continue
            try:
                model = train_model(spec, store, seed, stats)
            except Exception as e:
                fail(keys, e, seed)
                continue
            trained += 1
            for key in keys:
                texts, gold = evals[key]
                try:
                    predictions = predict_texts(model, texts)
                    score = weighted_f1(confusion(gold, [label for label, _ in predictions]))
                except Exception as e:
                    fail([key], e, seed)
                    continue
                scored.append((key, seed, score, len(gold)))
            del model
    return scored, list(failed.values()), trained


def _aggregate(per_seed: dict[int, float]) -> tuple[float, float]:
    """Mean and population std of per-seed scores, summed in seed order."""
    values = list(per_seed.values())
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def jsonl_text(docs: Iterable[dict]) -> str:
    """The JSON-lines text of ``docs``: one ``json.dumps(doc,
    sort_keys=True)`` line per doc, each ending in LF."""
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)


def parse_jsonl(text: str, what: str, parse: Callable[[dict], _T]) -> list[_T]:
    """``parse(json.loads(line))`` of each line of JSON-lines ``text``, in
    order. Lines are split by ``corpus.text_lines``; blank lines and lines
    starting with ``#`` are skipped. A line that fails raises
    ``HarnessError`` reading ``{what} at line {n}: {repr of the error}``."""
    items = []
    for lineno, line in enumerate(text_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            items.append(parse(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError, LangselectError) as e:
            raise HarnessError(f"{what} at line {lineno}: {e!r}") from None
    return items


@dataclass(frozen=True)
class MatrixEntry:
    """Aggregated scores of one cell, as stored in a ScoreMatrix. Its
    ``mode`` is read off its sources, as a spec's is. Its adaptation,
    sample cap and eval split are checked as a spec's are, ``support``
    is an int >= 0 (a bool is no int here), and each score lies in
    [0, 1] with ``mean`` their mean; anything else is a
    ``HarnessError``."""

    target: str
    sources: tuple[str, ...]
    adaptation: str
    sample_cap: int | None
    eval_split: str
    per_seed: dict[int, float]
    mean: float
    std: float
    support: int

    def __post_init__(self) -> None:
        _check_cell_fields(self.adaptation, self.sample_cap, self.eval_split)
        if not _is_count(self.support, 0):
            raise HarnessError(f"support must be an int >= 0, got {self.support!r}")
        values = list(self.per_seed.values())
        if not values:
            raise HarnessError("matrix entry without per-seed scores")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise HarnessError(f"score outside [0, 1] in entry for target {self.target!r}")
        if abs(self.mean - sum(values) / len(values)) > 1e-12:
            raise HarnessError(f"entry mean inconsistent with per-seed scores for {self.target!r}")

    @property
    def mode(self) -> str:
        return cell_mode(self.target, self.sources)


@dataclass
class ScoreMatrix:
    """Cell key -> aggregated entry for a full experiment grid."""

    entries: dict[str, MatrixEntry]

    def means(self) -> dict[PlanCell, float]:
        """Seed mean of each cell: the score table selection decides from.
        Cells are told apart by target, sources and cap only, so this reads
        a matrix of one ``run_matrix`` call."""
        return {PlanCell(e.target, e.sources, e.sample_cap): e.mean for e in self.entries.values()}

    def to_jsonl(self) -> str:
        return jsonl_text(
            {
                "key": key,
                "target": e.target,
                "sources": list(e.sources),
                "mode": e.mode,
                "adaptation": e.adaptation,
                "sample_cap": e.sample_cap,
                "eval_split": e.eval_split,
                "per_seed": {str(seed): score for seed, score in sorted(e.per_seed.items())},
                "mean": e.mean,
                "std": e.std,
                "support": e.support,
            }
            for key, e in sorted(self.entries.items())
        )

    @classmethod
    def from_jsonl(cls, text: str, path: str | Path | None = None) -> "ScoreMatrix":
        """Parse lines written by ``to_jsonl``; errors name ``path`` when given."""
        what = "bad matrix jsonl" if path is None else f"{path}: bad matrix jsonl"
        return cls(entries=dict(parse_jsonl(text, what, _matrix_item)))


def _matrix_item(doc: dict) -> tuple[str, MatrixEntry]:
    """One matrix line's (cell key, entry)."""
    entry = MatrixEntry(
        target=doc["target"],
        sources=tuple(doc["sources"]),
        adaptation=doc["adaptation"],
        sample_cap=doc["sample_cap"],
        eval_split=doc["eval_split"],
        per_seed={int(seed): float(score) for seed, score in doc["per_seed"].items()},
        mean=float(doc["mean"]),
        std=float(doc["std"]),
        support=doc["support"],
    )
    if doc["mode"] != entry.mode:
        raise ValueError(f"mode {doc['mode']!r} contradicts sources {list(entry.sources)}")
    if not isinstance(doc["key"], str):
        raise TypeError(f"key {doc['key']!r} is not a string")
    return doc["key"], entry


def run_matrix(
    cells: Sequence[PlanCell],
    store: CorpusStore,
    *,
    seeds: Sequence[int],
    learner: LearnerConfig,
    adaptation: str = "none",
    eval_split: str = "devstar",
    cache: ScoreCache | None = None,
) -> ScoreMatrix:
    """Score every cell at every seed and assemble the matrix; cached
    scores are read from ``cache`` (in memory when None). A cell trains
    multilingual or zero-shot as its sources hold its target or not.

    Cells whose specs share a ``model_key`` form a group, and groups are
    scored in order of each group's first cell key, so each distinct
    model trains once per seed. A group's (cell, seed) pairs are looked
    up in ``cache``; ``score_experiment`` scores those that miss, and
    their scores are put in the order it returns. Logs every cap
    shortfall by ``warn_cap_shortfalls``, then one INFO line: cells,
    cells fully cached, models trained and failed cells.

    A failing cell does not stop the run: once every cell has been tried,
    a single error reporting all failed cells is raised, so a matrix is
    never silently partial. An ``OSError`` from a journal append is no
    cell's failure: it ends the run at once.
    """
    if not seeds:
        raise HarnessError("seeds must not be empty")
    if len(set(seeds)) != len(seeds):
        raise HarnessError(f"seeds must be distinct, got {tuple(seeds)}")
    cache = ScoreCache() if cache is None else cache
    specs: dict[str, ExperimentSpec] = {}
    for cell in cells:
        spec = ExperimentSpec(
            target=cell.target,
            sources=cell.sources,
            adaptation=adaptation,
            learner=learner,
            sample_cap=cell.sample_cap,
            eval_split=eval_split,
        )
        specs.setdefault(spec.cell_key(store), spec)
    warn_cap_shortfalls(specs.values(), store)
    groups: dict[tuple, dict[str, ExperimentSpec]] = {}
    for key in sorted(specs):
        groups.setdefault(specs[key].model_key(), {})[key] = specs[key]

    scores: dict[str, dict[int, tuple[float, int]]] = {}
    failures: list[str] = []
    cached = trained = 0
    for group in groups.values():
        for key in group:
            scores[key] = {seed: hit for seed in seeds if (hit := cache.get(key, seed)) is not None}
        cached += sum(len(scores[key]) == len(seeds) for key in group)
        todo = {seed: [key for key in group if seed not in scores[key]] for seed in seeds}
        done, errors, models = score_experiment(group, store, todo)
        for key, seed, score, support in done:
            cache.put(key, seed, score, support)
            scores[key][seed] = (score, support)
        failures += errors
        trained += models
    logger.info(
        "run_matrix: %d cells, %d fully cached, %d models trained, %d failed",
        len(specs), cached, trained, len(failures),
    )
    if failures:
        raise HarnessError(
            "matrix run failed for %d cell(s):\n%s" % (len(failures), "\n".join(sorted(failures)))
        )
    entries: dict[str, MatrixEntry] = {}
    for key in sorted(scores):
        spec = specs[key]
        # Seeds keep the given order, which fixes each mean's summation order.
        per_seed = {seed: scores[key][seed][0] for seed in seeds}
        mean, std = _aggregate(per_seed)
        entries[key] = MatrixEntry(
            target=spec.target,
            sources=spec.sources,
            adaptation=spec.adaptation,
            sample_cap=spec.sample_cap,
            eval_split=spec.eval_split,
            per_seed=per_seed,
            mean=mean,
            std=std,
            support=scores[key][seeds[0]][1],
        )
    return ScoreMatrix(entries=entries)
