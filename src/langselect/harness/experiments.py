"""Experiment orchestration: specs, the corpus store, scoring one job
(build training set -> pretrain -> fine-tune -> evaluate), and the
parallel matrix runner that scores every (cell, seed) job of a plan and
aggregates seeds into a score table.

Every score is a deterministic function of (spec, seed), so results are
identical regardless of caching, worker count or scheduling order.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from ..corpus import (
    Dataset,
    LanguageCode,
    dedup_dev,
    load_labeled_tsv,
    load_unlabeled_text,
    sample_per_language,
    strip_labels,
)
from ..errors import HarnessError
from ..metrics import confusion, weighted_f1
from ..selection import MULTILINGUAL, ZEROSHOT, PlanCell
from ..textmodel import (
    NUMERICS_VERSION,
    AdaptationStats,
    LearnerConfig,
    config_with_seed,
    fine_tune,
    predict_texts,
    pretrain,
)
from .cache import ScoreCache
from .config import HarnessConfig

logger = logging.getLogger(__name__)

ADAPTATIONS = ("none", "tapt", "lapt", "lapt+tapt")
EVAL_SPLITS = ("devstar", "dev", "test")


class CorpusStore:
    """Loaded datasets organized by language and split.

    ``devstar`` splits are derived lazily from train/dev overlap removal
    and cached. Datasets are immutable, so the store is safe for
    concurrent reads once populated. Content digests of splits are
    computed on first use and memoized.
    """

    def __init__(self, metadata: dict[str, LanguageCode] | None = None):
        self._metadata: dict[str, LanguageCode] = dict(metadata or {})
        self._splits: dict[str, dict[str, Dataset]] = {}
        self._lapt: dict[str, Dataset] = {}
        self._digests: dict[tuple[str, str], str | None] = {}
        self._digest_lock = threading.Lock()

    def add(self, dataset: Dataset) -> None:
        code = dataset.language.code
        self._metadata.setdefault(code, dataset.language)
        self._splits.setdefault(code, {})[dataset.split] = dataset

    def add_lapt(self, dataset: Dataset) -> None:
        self._metadata.setdefault(dataset.language.code, dataset.language)
        self._lapt[dataset.language.code] = dataset

    def language(self, code: str) -> LanguageCode:
        try:
            return self._metadata[code]
        except KeyError:
            raise HarnessError(f"unknown language {code!r}") from None

    def languages(self) -> list[LanguageCode]:
        return [self._metadata[code] for code in sorted(self._metadata)]

    def split(self, code: str, split: str) -> Dataset | None:
        if split == "devstar":
            return self.devstar(code)
        return self._splits.get(code, {}).get(split)

    def train(self, code: str) -> Dataset:
        ds = self._splits.get(code, {}).get("train")
        if ds is None:
            raise HarnessError(f"no train split loaded for language {code!r}")
        return ds

    def devstar(self, code: str) -> Dataset | None:
        splits = self._splits.get(code, {})
        if "devstar" not in splits:
            train, dev = splits.get("train"), splits.get("dev")
            if train is None or dev is None:
                return None
            splits["devstar"] = dedup_dev(train, dev)
        return splits["devstar"]

    def lapt_corpus(self, code: str) -> Dataset:
        ds = self._lapt.get(code)
        if ds is None:
            raise HarnessError(f"no LAPT corpus configured for language {code!r}")
        return ds

    def digest(self, code: str, split: str) -> str | None:
        """sha256 of a split's (id, text, label) rows in order, or None if
        the split is absent. ``split`` may also be "lapt" for the
        language's LAPT corpus."""
        key = (code, split)
        with self._digest_lock:
            if key not in self._digests:
                ds = self._lapt.get(code) if split == "lapt" else self.split(code, split)
                if ds is None:
                    self._digests[key] = None
                else:
                    # JSON-encoded a slice at a time, so a large split's
                    # text is never held in memory twice.
                    h = hashlib.sha256()
                    for start in range(0, len(ds), 1024):
                        rows = [[ex.id, ex.text, ex.label] for ex in ds.examples[start : start + 1024]]
                        h.update(json.dumps(rows, ensure_ascii=False).encode("utf-8"))
                    self._digests[key] = h.hexdigest()
            return self._digests[key]

    def eval_dataset(self, code: str, split: str) -> Dataset:
        ds = self.split(code, split)
        if ds is None or not len(ds):
            raise HarnessError(f"no {split} split available for language {code!r}")
        return ds

    def has_train(self, code: str) -> bool:
        return "train" in self._splits.get(code, {})

    def has_eval(self, code: str, split: str) -> bool:
        try:
            self.eval_dataset(code, split)
            return True
        except HarnessError:
            return False

    @classmethod
    def from_config(cls, cfg: HarnessConfig) -> "CorpusStore":
        store = cls({lf.language.code: lf.language for lf in cfg.languages})
        for lf in cfg.languages:
            code = lf.language.code
            for split, path in (("train", lf.train), ("dev", lf.dev), ("test", lf.test)):
                if path is not None:
                    store.add(load_labeled_tsv(path, lf.language, split))
            if lf.lapt_corpus is not None:
                store.add_lapt(load_unlabeled_text(lf.lapt_corpus, lf.language))
        return store

    @classmethod
    def from_datasets(
        cls, datasets: Iterable[Dataset], lapt: Iterable[Dataset] = ()
    ) -> "CorpusStore":
        store = cls()
        for ds in datasets:
            store.add(ds)
        for ds in lapt:
            store.add_lapt(ds)
        return store


@dataclass(frozen=True)
class ExperimentSpec:
    """One training/evaluation cell: which languages train the model, how
    it adapts, and which target split is scored."""

    target: str
    sources: tuple[str, ...]
    mode: str = MULTILINGUAL
    adaptation: str = "none"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int = 0
    sample_cap: int | None = None
    eval_split: str = "devstar"

    def __post_init__(self) -> None:
        if not self.sources:
            raise HarnessError("spec needs at least one source language")
        ordered = tuple(sorted(self.sources))
        if len(set(ordered)) != len(ordered):
            raise HarnessError(f"duplicate sources in spec: {self.sources}")
        object.__setattr__(self, "sources", ordered)
        if self.mode not in (MULTILINGUAL, ZEROSHOT):
            raise HarnessError(f"unknown mode {self.mode!r}")
        if self.adaptation not in ADAPTATIONS:
            raise HarnessError(f"unknown adaptation {self.adaptation!r}, expected one of {ADAPTATIONS}")
        if self.eval_split not in EVAL_SPLITS:
            raise HarnessError(f"unknown eval split {self.eval_split!r}")
        if self.mode == ZEROSHOT and self.target in ordered:
            raise HarnessError(
                f"zero-shot spec must not train on the target language {self.target!r}"
            )
        if self.sample_cap is not None and self.sample_cap < 1:
            raise HarnessError(f"sample_cap must be >= 1, got {self.sample_cap}")

    def cell_key(self, store: CorpusStore) -> str:
        """Score-cache key of the cell: a hash over every field except the
        seed, the learner's NUMERICS_VERSION, and the content digests of
        the data the cell reads from ``store`` (source train splits, the
        target's eval split and the adaptation corpora). Groups the
        per-seed runs of one cell; changed data or numerics give a new key."""
        payload = asdict(self)
        del payload["seed"]
        # The experiment seed is what varies between runs; the learner's
        # own seed field must not split cells either.
        del payload["learner"]["seed"]
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

    def describe(self) -> str:
        cap = f" cap={self.sample_cap}" if self.sample_cap is not None else ""
        return (
            f"target={self.target} sources={','.join(self.sources)} mode={self.mode} "
            f"adaptation={self.adaptation} seed={self.seed} eval={self.eval_split}{cap}"
        )


def build_training_set(spec: ExperimentSpec, store: CorpusStore) -> list[Dataset]:
    """Training datasets for a spec: the (optionally capped) train splits
    of its source languages, sorted by language code, rows in file order."""
    sets = [store.train(code) for code in spec.sources]
    if spec.sample_cap is not None:
        sets = sample_per_language(sets, spec.sample_cap, seed=spec.seed)
    return sets


def adaptation_stats(spec: ExperimentSpec, store: CorpusStore) -> AdaptationStats:
    """Adaptation statistics for a spec.

    TAPT pretrains on the unlabeled task texts (train and dev splits,
    labels stripped) of the spec's languages plus the target; LAPT
    pretrains on the target's configured external corpus; lapt+tapt
    merges the two document-frequency tables.
    """
    if spec.adaptation == "none":
        return AdaptationStats.uniform()
    tapt = lapt = None
    tapt_splits = [(code, split) for code, split in spec._adaptation_splits() if split != "lapt"]
    if tapt_splits:
        corpora = []
        for code, split in tapt_splits:
            ds = store.split(code, split)
            if ds is not None and len(ds):
                corpora.append(strip_labels(ds))
        langs = sorted({code for code, _ in tapt_splits})
        tapt = pretrain(corpora, tag=f"tapt:{'+'.join(langs)}", config=spec.learner)
    if spec.adaptation in ("lapt", "lapt+tapt"):
        corpus = store.lapt_corpus(spec.target)
        lapt = pretrain([corpus], tag=f"lapt:{spec.target}", config=spec.learner)
    if tapt is not None and lapt is not None:
        return lapt.merged(tapt, tag=f"lapt+tapt:{spec.target}")
    return tapt if tapt is not None else lapt  # type: ignore[return-value]


def score_experiment(
    spec: ExperimentSpec, store: CorpusStore, cache: ScoreCache | None = None
) -> tuple[float, int]:
    """Weighted F1 of one spec at one seed (cached when a cache is given).

    Returns (score, evaluation support).
    """
    cell_key = spec.cell_key(store)
    if cache is not None:
        hit = cache.get(cell_key, spec.seed)
        if hit is not None:
            return hit
    try:
        train_sets = build_training_set(spec, store)
        stats = adaptation_stats(spec, store)
        config = config_with_seed(spec.learner, spec.seed)
        model = fine_tune(stats, train_sets, config)
        eval_ds = store.eval_dataset(spec.target, spec.eval_split)
        predictions = predict_texts(model, eval_ds.texts())
        gold = [ex.label for ex in eval_ds]
        score = weighted_f1(confusion(gold, [label for label, _ in predictions]))
    except HarnessError:
        raise
    except Exception as e:
        raise HarnessError(f"experiment failed ({spec.describe()}): {e}") from e
    support = len(eval_ds)
    if cache is not None:
        cache.put(cell_key, spec.seed, score, support)
    return score, support


def _aggregate(per_seed: dict[int, float]) -> tuple[float, float]:
    """Mean and population std of per-seed scores, summed in seed order."""
    values = list(per_seed.values())
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


@dataclass(frozen=True)
class MatrixEntry:
    """Aggregated scores of one cell, as stored in a ScoreMatrix."""

    target: str
    sources: tuple[str, ...]
    mode: str
    adaptation: str
    sample_cap: int | None
    eval_split: str
    per_seed: dict[int, float]
    mean: float
    std: float
    support: int

    def __post_init__(self) -> None:
        values = list(self.per_seed.values())
        if not values:
            raise HarnessError("matrix entry without per-seed scores")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise HarnessError(f"score outside [0, 1] in entry for target {self.target!r}")
        if abs(self.mean - sum(values) / len(values)) > 1e-12:
            raise HarnessError(f"entry mean inconsistent with per-seed scores for {self.target!r}")


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
        lines = []
        for key in sorted(self.entries):
            e = self.entries[key]
            lines.append(
                json.dumps(
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
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "ScoreMatrix":
        entries: dict[str, MatrixEntry] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                entries[doc["key"]] = MatrixEntry(
                    target=doc["target"],
                    sources=tuple(doc["sources"]),
                    mode=doc["mode"],
                    adaptation=doc["adaptation"],
                    sample_cap=doc["sample_cap"],
                    eval_split=doc["eval_split"],
                    per_seed={int(seed): float(score) for seed, score in doc["per_seed"].items()},
                    mean=float(doc["mean"]),
                    std=float(doc["std"]),
                    support=int(doc["support"]),
                )
            except (KeyError, ValueError, json.JSONDecodeError) as e:
                raise HarnessError(f"bad matrix jsonl at line {lineno}: {e}") from None
        return cls(entries=entries)


def run_matrix(
    cells: Sequence[PlanCell],
    store: CorpusStore,
    *,
    seeds: Sequence[int],
    learner: LearnerConfig,
    mode: str = MULTILINGUAL,
    adaptation: str = "none",
    eval_split: str = "devstar",
    cache: ScoreCache | None = None,
    parallelism: int = 1,
) -> ScoreMatrix:
    """Execute every uncached (cell, seed) job and assemble the matrix.

    Jobs are independent; up to ``parallelism`` run concurrently. If any
    job fails, the remaining in-flight jobs are drained and a single
    error reporting all failed specs is raised, so a matrix is never
    silently partial.
    """
    if parallelism < 1:
        raise HarnessError(f"parallelism must be >= 1, got {parallelism}")
    if len(set(seeds)) != len(seeds):
        raise HarnessError(f"seeds must be distinct, got {tuple(seeds)}")
    specs: dict[tuple[str, int], ExperimentSpec] = {}
    for cell in cells:
        for seed in seeds:
            spec = ExperimentSpec(
                target=cell.target,
                sources=cell.sources,
                mode=mode,
                adaptation=adaptation,
                learner=learner,
                seed=seed,
                sample_cap=cell.sample_cap,
                eval_split=eval_split,
            )
            specs.setdefault((spec.cell_key(store), seed), spec)

    pending = [
        (key, spec)
        for (key, seed), spec in sorted(specs.items())
        if cache is None or cache.get(key, seed) is None
    ]
    results: dict[tuple[str, int], tuple[float, int]] = {}
    failures: list[str] = []
    if pending:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = {
                pool.submit(score_experiment, spec, store, cache): (key, spec) for key, spec in pending
            }
            for future in as_completed(futures):
                key, spec = futures[future]
                try:
                    results[(key, spec.seed)] = future.result()
                except Exception as e:
                    failures.append(f"{spec.describe()}: {e}")
    if failures:
        raise HarnessError(
            "matrix run failed for %d cell(s):\n%s" % (len(failures), "\n".join(sorted(failures)))
        )

    entries: dict[str, MatrixEntry] = {}
    grouped: dict[str, ExperimentSpec] = {}
    per_cell: dict[str, dict[int, tuple[float, int]]] = {}
    for (key, seed), spec in specs.items():
        value = results.get((key, seed))
        if value is None and cache is not None:
            value = cache.get(key, seed)
        if value is None:
            raise HarnessError(f"missing score for {spec.describe()}")
        per_cell.setdefault(key, {})[seed] = value
        grouped[key] = spec
    for key, seed_scores in per_cell.items():
        spec = grouped[key]
        per_seed = {s: v[0] for s, v in seed_scores.items()}
        mean, std = _aggregate(per_seed)
        entries[key] = MatrixEntry(
            target=spec.target,
            sources=spec.sources,
            mode=spec.mode,
            adaptation=spec.adaptation,
            sample_cap=spec.sample_cap,
            eval_split=spec.eval_split,
            per_seed=per_seed,
            mean=mean,
            std=std,
            support=next(iter(seed_scores.values()))[1],
        )
    return ScoreMatrix(entries=entries)
