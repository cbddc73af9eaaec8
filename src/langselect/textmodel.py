"""Hashed character n-gram logistic regression with two-phase adaptation.

The learner runs in two phases mirroring adaptive pretraining at desk
scale: an unsupervised ``pretrain`` phase that estimates document
frequencies over an adaptation corpus (the statistics analog of
language-/task-adaptive pretraining; no masked-LM objective, no
transformer), followed by supervised ``fine_tune`` of a multinomial
logistic regression over hashed character n-gram features weighted by
those statistics. Everything is deterministic given (data, config, seed).
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import LABELS, Dataset, Example
from .errors import TextModelError

logger = logging.getLogger(__name__)

CLASS_ORDER = LABELS
_CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

# Start/end sentinels so n-grams see token boundaries.
_BOUND_START = "\x02"
_BOUND_END = "\x03"

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

# Version of the learner's float results. Bump it with any change that
# can alter a trained weight or a score in its last bits, so that cached
# scores from other numerics are never reused. Version 1 was the dense
# trainer with per-text featurization.
NUMERICS_VERSION = 2

# fine_tune folds its lazy L2 scale back into the weights below this,
# far above float64 underflow and far below any scale that matters.
_SCALE_FLOOR = 1e-100


@lru_cache(maxsize=1 << 20)
def hash_gram(gram: str) -> int:
    """FNV-1a 64-bit hash of a gram's UTF-8 bytes; fixed across runs."""
    h = _FNV64_OFFSET
    for b in gram.encode("utf-8"):
        h = ((h ^ b) * _FNV64_PRIME) & _U64
    return h


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
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.ngram_min <= self.ngram_max <= 8):
            raise TextModelError(f"require 1 <= ngram_min <= ngram_max <= 8, got [{self.ngram_min}, {self.ngram_max}]")
        if self.hash_buckets < 2 or self.hash_buckets & (self.hash_buckets - 1):
            raise TextModelError(f"hash_buckets must be a power of two, got {self.hash_buckets}")
        if self.epochs < 1 or self.batch_size < 1:
            raise TextModelError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or not 0 < self.lr_decay <= 1 or self.l2_lambda < 0:
            raise TextModelError("invalid optimizer settings")


@dataclass(frozen=True)
class AdaptationStats:
    """Output of the unsupervised adaptation phase.

    ``document_frequency`` maps feature buckets to the number of corpus
    documents containing them; treat instances as immutable.
    """

    document_frequency: dict[int, int]
    num_documents: int
    source_tag: str

    def __post_init__(self) -> None:
        if self.num_documents < 1:
            raise TextModelError("AdaptationStats requires num_documents >= 1")
        for bucket, count in self.document_frequency.items():
            if not 1 <= count <= self.num_documents:
                raise TextModelError(
                    f"document frequency {count} for bucket {bucket} outside [1, {self.num_documents}]"
                )

    @classmethod
    def uniform(cls, tag: str = "none") -> "AdaptationStats":
        """Stats carrying no corpus information: every gram gets the same idf."""
        return cls(document_frequency={}, num_documents=1, source_tag=tag)

    def merged(self, other: "AdaptationStats", tag: str | None = None) -> "AdaptationStats":
        """Pool two adaptation corpora by summing document frequencies."""
        df = dict(self.document_frequency)
        for bucket, count in other.document_frequency.items():
            df[bucket] = df.get(bucket, 0) + count
        return AdaptationStats(
            document_frequency=df,
            num_documents=self.num_documents + other.num_documents,
            source_tag=tag or f"{self.source_tag}+{other.source_tag}",
        )


@dataclass(frozen=True)
class SparseVector:
    """L2-normalized sparse feature vector with strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise TextModelError("indices and values must have equal length")


@dataclass
class Model:
    """A trained classifier: weight matrix (3 x hash_buckets), bias, and
    the adaptation stats / config needed to featurize new text."""

    weights: np.ndarray
    bias: np.ndarray
    stats: AdaptationStats
    config: LearnerConfig
    loss_history: tuple[float, ...] = ()


@lru_cache(maxsize=1 << 16)
def _term_counts(
    text: str, ngram_min: int, ngram_max: int, hash_buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw term frequencies of a text's n-grams: (sorted buckets, counts).

    Memoized per process, so each distinct text is hashed once however
    many cells and seeds train on it. The returned arrays are read-only
    because every caller shares them. Worst-case memory: 2^16 entries,
    each two arrays of at most (ngram_max - ngram_min + 1) * (len(text) + 2)
    32-bit integers, plus the key text and about 300 bytes of object
    overhead: about 0.8 GB for 280-character texts at 1-5-grams. Empty
    text has no grams.
    """
    grams: list[int] = []
    if text:
        padded = _BOUND_START + text + _BOUND_END
        mask = hash_buckets - 1
        length = len(padded)
        for n in range(ngram_min, ngram_max + 1):
            grams.extend(hash_gram(padded[i : i + n]) & mask for i in range(length - n + 1))
    buckets, counts = np.unique(np.array(grams, dtype=np.int64), return_counts=True)
    buckets = buckets.astype(np.int32 if hash_buckets <= 1 << 31 else np.int64)
    counts = counts.astype(np.int32)
    buckets.flags.writeable = False
    counts.flags.writeable = False
    return buckets, counts


def _idf_vector(stats: AdaptationStats, hash_buckets: int) -> np.ndarray:
    """idf = ln((1+N)/(1+df)) + 1 for every bucket; unseen buckets use df = 0."""
    idf = np.full(hash_buckets, math.log(1 + stats.num_documents) + 1.0)
    df = stats.document_frequency
    if df:
        buckets = np.fromiter(df.keys(), dtype=np.int64, count=len(df))
        counts = np.fromiter(df.values(), dtype=np.float64, count=len(df))
        idf[buckets] = np.log((1 + stats.num_documents) / (1 + counts)) + 1.0
    return idf


def featurize(text: str, stats: AdaptationStats, config: LearnerConfig) -> SparseVector:
    """Map a normalized text to an L2-normalized tf-idf bucket vector:
    row 0 of ``design_matrix([text], stats, config)``."""
    row = design_matrix([text], stats, config)
    return SparseVector(row.indices.astype(np.int64), row.data)


def design_matrix(
    texts: Sequence[str], stats: AdaptationStats, config: LearnerConfig
) -> sp.csr_matrix:
    """Stack the tf-idf vectors of texts into a CSR matrix (rows in input order).

    Values are (1 + ln tf) * idf with idf = ln((1+N)/(1+df)) + 1 against
    the adaptation statistics (unseen buckets use df = 0), then each row
    is scaled to unit L2 norm; empty text maps to an empty row. Term
    counts come from the per-text memo, and the weighting runs as array
    operations over the stacked rows.
    """
    rows = [
        _term_counts(text, config.ngram_min, config.ngram_max, config.hash_buckets)
        for text in texts
    ]
    n = len(rows)
    lengths = np.fromiter((len(buckets) for buckets, _ in rows), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if n:
        indices = np.concatenate([buckets for buckets, _ in rows])
        tf = np.concatenate([counts for _, counts in rows])
    else:
        indices = np.empty(0, dtype=np.int64)
        tf = np.empty(0, dtype=np.int32)
    values = (1.0 + np.log(tf)) * _idf_vector(stats, config.hash_buckets)[indices]
    # Per-row sums by bincount: every row, trailing empty ones included,
    # gets a norm; non-empty rows have positive norms since idf >= 1.
    row_of = np.repeat(np.arange(n), lengths)
    norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    values /= norms[row_of]
    return sp.csr_matrix((values, indices, indptr), shape=(n, config.hash_buckets))


def _as_datasets(data: Dataset | Iterable[Dataset]) -> list[Dataset]:
    return [data] if isinstance(data, Dataset) else list(data)


def pretrain(
    corpus: Dataset | Iterable[Dataset], tag: str, config: LearnerConfig
) -> AdaptationStats:
    """Estimate document frequencies from an unlabeled adaptation corpus.

    Each document contributes 1 to the frequency of every bucket it
    contains, so the result does not depend on document order. Labeled
    examples are rejected: labels must never reach the adaptation phase.
    """
    present: list[np.ndarray] = []
    for ds in _as_datasets(corpus):
        for ex in ds:
            if ex.label is not None:
                raise TextModelError(
                    f"adaptation corpus must be unlabeled, found labeled example {ex.id!r}; strip labels first"
                )
            buckets, _ = _term_counts(ex.text, config.ngram_min, config.ngram_max, config.hash_buckets)
            if len(buckets):
                present.append(buckets)
    if not present:
        raise TextModelError("adaptation corpus empty")
    # Each document lists a bucket at most once, so counting bucket
    # occurrences over all documents counts documents per bucket.
    df = np.bincount(np.concatenate(present), minlength=config.hash_buckets)
    seen = np.flatnonzero(df)
    return AdaptationStats(
        document_frequency=dict(zip(seen.tolist(), df[seen].tolist())),
        num_documents=len(present),
        source_tag=tag,
    )


def _shuffled_indices(n: int, rng: random.Random) -> list[int]:
    # Fisher-Yates driven only by rng.random(), the one generator method
    # with a cross-version stability guarantee.
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = min(int(rng.random() * (i + 1)), i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _labels_to_indices(examples: Sequence[Example]) -> np.ndarray:
    out = np.empty(len(examples), dtype=np.int64)
    for i, ex in enumerate(examples):
        if ex.label is None:
            raise TextModelError(f"fine-tuning requires labeled examples, {ex.id!r} has no label")
        out[i] = _CLASS_INDEX[ex.label]
    return out


def fine_tune(
    stats: AdaptationStats,
    train: Dataset | Iterable[Dataset],
    config: LearnerConfig,
) -> Model:
    """Train the classifier by mini-batch gradient descent.

    Minimizes mean cross-entropy + (l2_lambda/2) * ||W||^2. Example order
    is reshuffled every epoch by a generator seeded from ``config.seed``;
    the ridge term is applied as a proximal (implicit) step so training
    stays stable for arbitrarily large l2_lambda. Per-epoch losses are
    recorded on the returned model.

    The step is lazy and sparse: the weights are held as ``scale * V``
    with ``V`` of shape (hash_buckets, 3). A batch's gradient is scattered
    into only the rows of ``V`` its texts touch, and the proximal shrink
    of every weight is one division of ``scale``, which is folded back
    into ``V`` before it underflows. So a step costs what the batch's
    non-zeros cost, not what ``hash_buckets`` costs. ``Model.weights``
    is returned in the (3, hash_buckets) layout.
    """
    examples: list[Example] = []
    for ds in _as_datasets(train):
        examples.extend(ds.examples)
    if not examples:
        raise TextModelError("fine_tune: no training examples")
    y = _labels_to_indices(examples)
    present = {CLASS_ORDER[i] for i in set(y.tolist())}
    if len(present) < 3:
        logger.warning("training set covers only %s; model degenerates on absent classes", sorted(present))

    X = design_matrix([ex.text for ex in examples], stats, config)
    n = X.shape[0]
    # Buckets no example touches keep zero weight throughout.
    used = np.unique(X.indices)
    V = np.zeros((config.hash_buckets, 3), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(3, dtype=np.float64)
    rng = random.Random(config.seed)
    lr = config.learning_rate
    history: list[float] = []

    for _ in range(config.epochs):
        order = _shuffled_indices(n, rng)
        shrink = 1.0 + lr * config.l2_lambda
        ce_sum = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            xb = X[chunk]
            yb = y[chunk]
            probs = _softmax(scale * (xb @ V) + bias)
            with np.errstate(divide="ignore"):
                batch_ce = -float(np.log(probs[np.arange(len(chunk)), yb]).sum())
            if not math.isfinite(batch_ce):
                raise TextModelError("divergence: reduce learning_rate")
            ce_sum += batch_ce
            dz = probs
            dz[np.arange(len(chunk)), yb] -= 1.0
            dz /= len(chunk)
            # Scatter per non-zero, one class column at a time: three 1-D
            # add.at calls are several times faster than one 2-D call.
            row_nnz = np.diff(xb.indptr)
            scaled = (-lr / scale) * xb.data
            for k in range(3):
                np.add.at(V[:, k], xb.indices, np.repeat(dz[:, k], row_nnz) * scaled)
            scale /= shrink
            if scale < _SCALE_FLOOR:
                V[used] *= scale
                scale = 1.0
            bias = bias - lr * dz.sum(axis=0)
        w_used = scale * V[used]
        epoch_loss = ce_sum / n + 0.5 * config.l2_lambda * float((w_used * w_used).sum())
        if not math.isfinite(epoch_loss):
            raise TextModelError("divergence: reduce learning_rate")
        history.append(epoch_loss)
        lr *= config.lr_decay

    weights = np.multiply(V.T, scale, out=np.empty((3, config.hash_buckets)))
    if not np.isfinite(weights).all() or not np.isfinite(bias).all():
        raise TextModelError("divergence: reduce learning_rate")
    return Model(weights=weights, bias=bias, stats=stats, config=config, loss_history=tuple(history))


def predict_texts(model: Model, texts: Sequence[str]) -> list[tuple[str, tuple[float, float, float]]]:
    """Predict labels and class probabilities for a batch of texts."""
    X = design_matrix(texts, model.stats, model.config)
    probs = _softmax(X @ model.weights.T + model.bias)
    out = []
    for row in probs:
        # argmax returns the first maximum, which honors the fixed class
        # order (negative < neutral < positive) on exact ties.
        label = CLASS_ORDER[int(np.argmax(row))]
        out.append((label, (float(row[0]), float(row[1]), float(row[2]))))
    return out


def predict(model: Model, text: str) -> tuple[str, tuple[float, float, float]]:
    """Predict a single text; see ``predict_texts``."""
    return predict_texts(model, [text])[0]


def loss_and_gradient(
    model: Model, batch: Sequence[Example]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact objective value and gradient on a batch.

    Returns (loss, grad_weights, grad_bias) for mean cross-entropy plus
    (l2_lambda/2) * ||W||^2; the bias is unregularized.
    """
    if not batch:
        raise TextModelError("loss_and_gradient: empty batch")
    y = _labels_to_indices(batch)
    X = design_matrix([ex.text for ex in batch], model.stats, model.config)
    n = len(batch)
    probs = _softmax(X @ model.weights.T + model.bias)
    with np.errstate(divide="ignore"):
        ce = -float(np.log(probs[np.arange(n), y]).mean())
    loss = ce + 0.5 * model.config.l2_lambda * float((model.weights * model.weights).sum())
    dz = probs
    dz[np.arange(n), y] -= 1.0
    dz /= n
    grad_w = (X.T @ dz).T + model.config.l2_lambda * model.weights
    grad_b = dz.sum(axis=0)
    return loss, grad_w, grad_b


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a model to an .npz container; loading reproduces
    bit-identical predictions."""
    df_items = sorted(model.stats.document_frequency.items())
    meta = {
        "config": asdict(model.config),
        "stats": {"num_documents": model.stats.num_documents, "source_tag": model.stats.source_tag},
        "loss_history": list(model.loss_history),
    }
    np.savez_compressed(
        Path(path),
        weights=model.weights,
        bias=model.bias,
        df_buckets=np.array([b for b, _ in df_items], dtype=np.int64),
        df_counts=np.array([c for _, c in df_items], dtype=np.int64),
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
    )


def load_model(path: str | Path) -> Model:
    """Load a model saved by ``save_model``."""
    path = Path(path)
    if not path.exists():
        raise TextModelError(f"model file not found: {path}")
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        config = LearnerConfig(**meta["config"])
        stats = AdaptationStats(
            document_frequency={
                int(b): int(c) for b, c in zip(data["df_buckets"], data["df_counts"])
            },
            num_documents=int(meta["stats"]["num_documents"]),
            source_tag=str(meta["stats"]["source_tag"]),
        )
        return Model(
            weights=data["weights"].copy(),
            bias=data["bias"].copy(),
            stats=stats,
            config=config,
            loss_history=tuple(meta["loss_history"]),
        )


def config_with_seed(config: LearnerConfig, seed: int) -> LearnerConfig:
    """Copy of a config with the training seed replaced."""
    return replace(config, seed=seed)
