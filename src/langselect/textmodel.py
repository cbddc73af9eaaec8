"""Hashed character n-gram logistic regression with two-phase adaptation.

The learner runs in two phases mirroring adaptive pretraining at desk
scale: an unsupervised ``pretrain`` phase that estimates document
frequencies over an adaptation corpus (the statistics analog of
language-/task-adaptive pretraining; no masked-LM objective, no
transformer), followed by supervised ``fine_tune`` of a multinomial
logistic regression over hashed character n-gram features weighted by
those statistics. Everything is deterministic given (data, config, seed).

``LearnerConfig`` is defined in the numpy-free ``learner_config`` module
and imported back here, so the name keeps working from this module.
"""
from __future__ import annotations

import json
import logging
import math
import random
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .corpus import LABEL_INDEX, LABELS, Dataset, Example
from .errors import TextModelError
from .learner_config import LearnerConfig

logger = logging.getLogger(__name__)

# Start/end sentinels so n-grams see token boundaries.
_BOUND_START = "\x02"
_BOUND_END = "\x03"

# FNV-1a 64-bit offset basis and prime, for the batch hasher. numpy
# scalars, not Python ints, so that numpy 1.x value-based casting and
# numpy 2 (NEP 50) compute the same thing.
_FNV64_OFFSET_NP = np.uint64(0xCBF29CE484222325)
_FNV64_PRIME_NP = np.uint64(0x100000001B3)

# The batch hasher hashes at most this many padded characters at a time
# (a longer text gets a pass of its own), which bounds its temporaries.
_CHUNK_CHARS = 1 << 17

# pretrain counts document frequencies over this many documents at a time.
_DF_BLOCK_DOCS = 1 << 12

# Term counts memo: (ngram_min, ngram_max, hash_buckets) -> text ->
# (sorted buckets, counts). It has no bound and never evicts, so each
# distinct text is hashed once per process at any corpus size.
_TERM_COUNTS: dict[tuple[int, int, int], dict[str, tuple[np.ndarray, np.ndarray]]] = {}

# fine_tune folds its lazy L2 scale back into the weights below this,
# far above float64 underflow and far below any scale that matters.
_SCALE_FLOOR = 1e-100


@dataclass(frozen=True, eq=False)
class AdaptationStats:
    """Output of the unsupervised adaptation phase.

    ``df_buckets`` lists, in increasing order, the feature buckets that
    occur in the corpus, and ``df_counts`` the number of corpus documents
    containing each. Both are stored as read-only int64 copies.
    """

    df_buckets: np.ndarray
    df_counts: np.ndarray
    num_documents: int
    source_tag: str

    def __post_init__(self) -> None:
        if self.num_documents < 1:
            raise TextModelError("AdaptationStats requires num_documents >= 1")
        buckets = np.array(self.df_buckets, dtype=np.int64)
        counts = np.array(self.df_counts, dtype=np.int64)
        if buckets.ndim != 1 or buckets.shape != counts.shape:
            raise TextModelError("df_buckets and df_counts must be 1-D arrays of equal length")
        if len(buckets) and (buckets[0] < 0 or (np.diff(buckets) <= 0).any()):
            raise TextModelError("df_buckets must be non-negative and strictly increasing")
        if ((counts < 1) | (counts > self.num_documents)).any():
            raise TextModelError(f"a document frequency lies outside [1, {self.num_documents}]")
        buckets.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "df_buckets", buckets)
        object.__setattr__(self, "df_counts", counts)

    @classmethod
    def uniform(cls) -> "AdaptationStats":
        """Stats carrying no corpus information: every gram gets the same idf."""
        empty = np.empty(0, dtype=np.int64)
        return cls(df_buckets=empty, df_counts=empty, num_documents=1, source_tag="none")


@dataclass(frozen=True, eq=False)
class CsrRows:
    """A sparse matrix's rows in compressed sparse row (CSR) form, over
    its own columns.

    ``columns`` lists, strictly increasing, the feature bucket of each
    column, so the matrix is ``shape[0]`` x ``len(columns)`` and only
    ``columns`` says which buckets those are. Row ``i`` holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the column positions
    ``indices[indptr[i]:indptr[i + 1]]``. ``indptr`` and ``indices`` are
    int64 and ``data`` float64, all contiguous, as the ``kernel`` loops
    take them: those walk a row's non-zeros in this order, so a product
    with the rows gives the floats of a sequential loop over them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    columns: np.ndarray


def _kernel_args(X: CsrRows, V: np.ndarray) -> tuple[int, int, int, int]:
    """The addresses of ``X.indptr``, ``X.indices``, ``X.data`` and the
    (columns, 3) weights ``V``, the fixed arguments of the ``kernel``
    loops, after checking the dtypes, shapes and C order those read."""
    arrays = ((X.indptr, np.int64, (X.shape[0] + 1,)), (X.indices, np.int64, X.data.shape),
              (X.data, np.float64, X.data.shape), (V, np.float64, (X.shape[1], 3)))
    for array, dtype, shape in arrays:
        if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
            raise TextModelError(f"kernel argument of {array.dtype} {array.shape} is not C-ordered {np.dtype(dtype)} {shape}")
    return X.indptr.ctypes.data, X.indices.ctypes.data, X.data.ctypes.data, V.ctypes.data


def _search(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``values``, its position in the strictly increasing
    ``keys`` and whether it is there."""
    at = np.searchsorted(keys, values)
    found = at < len(keys)
    found[found] = keys[at[found]] == values[found]
    return at, found


@dataclass
class Model:
    """A trained classifier, with the adaptation stats and config needed
    to featurize new text.

    ``buckets`` lists, strictly increasing, the feature buckets that
    carry a weight, stored as int64; ``weights`` (3 x len(buckets)) holds
    their class weights, column ``i`` for bucket ``buckets[i]``, and
    every other bucket's weight is zero. ``bias`` holds the 3 class
    biases. Arrays of any other shape are a ``TextModelError``.
    """

    weights: np.ndarray
    buckets: np.ndarray
    bias: np.ndarray
    stats: AdaptationStats
    config: LearnerConfig
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        buckets = np.asarray(self.buckets)
        if buckets.ndim != 1 or not np.issubdtype(buckets.dtype, np.integer):
            raise TextModelError(f"buckets must be a 1-D integer array, got {buckets.dtype} of shape {buckets.shape}")
        if len(buckets) and (buckets.min() < 0 or buckets.max() >= self.config.hash_buckets):
            raise TextModelError(f"buckets must lie in [0, {self.config.hash_buckets})")
        # In range, so int64 holds them, and their differences, exactly.
        buckets = buckets.astype(np.int64, copy=False)
        if (np.diff(buckets) <= 0).any():
            raise TextModelError("buckets must increase strictly")
        if np.shape(self.weights) != (3, len(buckets)):
            raise TextModelError(f"weights have shape {np.shape(self.weights)}, not (3, {len(buckets)})")
        if np.shape(self.bias) != (3,):
            raise TextModelError(f"bias has shape {np.shape(self.bias)}, not (3,)")
        self.buckets = buckets


def _hash_batch(
    texts: Sequence[str], ngram_min: int, ngram_max: int, hash_buckets: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Raw term frequencies of each text's n-grams, (sorted buckets,
    counts), in input order; empty text has no grams.

    The texts are hashed in passes of at most ``_CHUNK_CHARS`` padded
    characters. The arrays returned are read-only.
    """
    shift = hash_buckets.bit_length() - 1
    out: list[tuple[np.ndarray, np.ndarray]] = []
    start = 0
    while start < len(texts):
        stop, size = start + 1, len(texts[start]) + 2
        while stop < len(texts) and size + len(texts[stop]) + 2 <= _CHUNK_CHARS:
            size += len(texts[stop]) + 2
            stop += 1
        out.extend(_hash_chunk(texts[start:stop], ngram_min, ngram_max, shift))
        start = stop
    return out


def _hash_chunk(
    texts: Sequence[str], ngram_min: int, ngram_max: int, shift: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_hash_batch`` for one pass, with ``hash_buckets = 2**shift``.

    FNV-1a is a left fold over bytes (XOR in each UTF-8 byte, then
    multiply by the prime mod 2^64, which uint64 arithmetic does by
    wrapping), so an n-gram's hash is its (n-1)-gram's hash with the
    next character's UTF-8 bytes folded in. Grams run over all texts
    joined into one string, and those that cross a text's end are
    dropped. One ``np.unique`` of the packed (text, bucket) keys then
    gives every text's counts.
    """
    lengths = np.array([len(t) + 2 if t else 0 for t in texts], dtype=np.int64)
    joined = "".join(_BOUND_START + t + _BOUND_END for t in texts if t)
    data = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    # A character starts at every byte that is not a continuation byte.
    starts = np.flatnonzero((data & 0xC0) != 0x80)
    widths = np.diff(starts, append=len(data))
    first = data[starts].astype(np.uint64)
    # Characters of at least k + 1 bytes, with their byte k, k = 1, 2, 3.
    wide = [np.flatnonzero(widths > k) for k in range(1, 4)]
    wide_bytes = [data[starts[w] + k].astype(np.uint64) for k, w in enumerate(wide, 1)]
    ends = np.cumsum(lengths)
    # room[i]: characters from i to the end of its text, i included.
    room = np.repeat(ends, lengths) - np.arange(len(starts))
    row_key = np.repeat(np.arange(len(texts), dtype=np.uint64), lengths) << np.uint64(shift)
    mask = np.uint64((1 << shift) - 1)

    keys = []
    h = np.full(len(starts), _FNV64_OFFSET_NP)
    for n in range(1, ngram_max + 1):
        # h[i] becomes the hash of the n characters from i on.
        h = h[: max(len(starts) - n + 1, 0)]
        h ^= first[n - 1 :]
        h *= _FNV64_PRIME_NP
        for w, b in zip(wide, wide_bytes):
            at = np.searchsorted(w, n - 1)
            pos = w[at:] - (n - 1)
            h[pos] = (h[pos] ^ b[at:]) * _FNV64_PRIME_NP
        if n >= ngram_min:
            keep = room[: len(h)] >= n
            keys.append(row_key[: len(h)][keep] | (h[keep] & mask))
    packed, counts = np.unique(np.concatenate(keys), return_counts=True)
    buckets = (packed & mask).astype(np.int32)
    counts = counts.astype(np.int32)
    buckets.flags.writeable = False
    counts.flags.writeable = False
    bounds = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.bincount((packed >> np.uint64(shift)).astype(np.intp), minlength=len(texts)), out=bounds[1:])
    return [(buckets[a:b], counts[a:b]) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _term_counts(texts: Sequence[str], config: LearnerConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each text's raw term frequencies, (sorted buckets, counts), from
    the per-process memo; the texts it lacks are hashed in one batch.

    The memo holds one entry per distinct text and n-gram config and
    evicts nothing: per text, two arrays of at most
    (ngram_max - ngram_min + 1) * (len(text) + 2) 32-bit integers, plus
    the key text and about 250 bytes of object overhead.
    """
    memo = _TERM_COUNTS.setdefault((config.ngram_min, config.ngram_max, config.hash_buckets), {})
    missing = [text for text in dict.fromkeys(texts) if text not in memo]
    if missing:
        memo.update(zip(missing, _hash_batch(missing, config.ngram_min, config.ngram_max, config.hash_buckets)))
    return [memo[text] for text in texts]


def design_matrix(
    texts: Sequence[str], stats: AdaptationStats, config: LearnerConfig
) -> CsrRows:
    """Stack the tf-idf vectors of texts into CSR rows over the batch's
    own columns, one row per text in input order.

    ``columns`` lists, strictly increasing, the buckets that some text
    contains, and each non-zero's index is its bucket's position there,
    so ``columns[indices]`` gives the buckets and each row's buckets
    increase strictly. One sort of the non-zeros finds the columns, and
    every array is sized by the non-zeros, not by ``hash_buckets``.
    Values are (1 + ln tf) * idf with idf = ln((1+N)/(1+df)) + 1 against
    the adaptation statistics (unseen buckets use df = 0), then each row
    is scaled to unit L2 norm; empty text maps to an empty row. Term
    counts come from the per-process memo, which hashes the texts it
    has not seen in one numpy batch and keeps one entry per distinct
    text, never evicted; the weighting runs as array operations over
    the stacked rows.
    """
    rows = _term_counts(texts, config)
    n = len(rows)
    lengths = np.fromiter((len(buckets) for buckets, _ in rows), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if n:
        columns, indices = np.unique(np.concatenate([buckets for buckets, _ in rows]), return_inverse=True)
        columns, indices = columns.astype(np.int64), indices.astype(np.int64, copy=False)
        tf = np.concatenate([counts for _, counts in rows])
    else:
        columns, indices = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        tf = np.empty(0, dtype=np.int32)
    # idf of each column. Those with a df gather the expression computed
    # over the whole df array, so each value is the one an elementwise
    # log over that same array gives, whichever SIMD lane computes it.
    at, hit = _search(stats.df_buckets, columns)
    idf = np.full(len(columns), math.log(1 + stats.num_documents) + 1.0)
    idf[hit] = (np.log((1 + stats.num_documents) / (1 + stats.df_counts)) + 1.0)[at[hit]]
    values = (1.0 + np.log(tf)) * idf[indices]
    # Per-row sums by bincount: every row, trailing empty ones included,
    # gets a norm; non-empty rows have positive norms since idf >= 1.
    row_of = np.repeat(np.arange(n), lengths)
    norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    values /= norms[row_of]
    return CsrRows(indptr, indices, values, (n, len(columns)), columns)


def _as_datasets(data: Dataset | Iterable[Dataset]) -> list[Dataset]:
    return [data] if isinstance(data, Dataset) else list(data)


def pretrain(
    corpus: Dataset | Iterable[Dataset], tag: str, config: LearnerConfig
) -> AdaptationStats:
    """Estimate document frequencies from an adaptation corpus.

    Each document contributes 1 to the frequency of every bucket it
    contains, so the result does not depend on document order. Only the
    texts are read: labels are ignored, and the statistics hold nothing
    but document frequencies, so no label reaches the adaptation phase.
    Term counts come from the same per-process memo as
    ``design_matrix``'s, so a text already hashed there or by an earlier
    call is not hashed again.
    """
    texts = [ex.text for ds in _as_datasets(corpus) for ex in ds]
    present = [buckets for buckets, _ in _term_counts(texts, config) if len(buckets)]
    if not present:
        raise TextModelError("adaptation corpus empty")
    # Each document lists a bucket at most once, so counting bucket
    # occurrences over all documents counts documents per bucket. Sorting
    # the occurrences costs less than a hash_buckets-long bincount when
    # there are fewer of them than buckets.
    if sum(map(len, present)) < config.hash_buckets:
        seen, counts = np.unique(np.concatenate(present), return_counts=True)
    else:
        # Blocks of documents bound the int64 copy bincount makes of its input.
        df = np.zeros(config.hash_buckets, dtype=np.int64)
        for start in range(0, len(present), _DF_BLOCK_DOCS):
            df += np.bincount(np.concatenate(present[start : start + _DF_BLOCK_DOCS]), minlength=config.hash_buckets)
        seen = np.flatnonzero(df)
        counts = df[seen]
    return AdaptationStats(
        df_buckets=seen,
        df_counts=counts,
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
        out[i] = LABEL_INDEX[ex.label]
    return out


def fine_tune(
    stats: AdaptationStats,
    train: Dataset | Iterable[Dataset],
    config: LearnerConfig,
    seed: int,
) -> Model:
    """Train the classifier by mini-batch gradient descent.

    Minimizes mean cross-entropy + (l2_lambda/2) * ||W||^2. Example order
    is reshuffled every epoch by a generator seeded from ``seed``;
    the ridge term is applied as a proximal (implicit) step so training
    stays stable for arbitrarily large l2_lambda. Per-epoch losses are
    recorded on the returned model.

    The step is lazy and sparse: the weights are held as ``scale * V``,
    where ``V`` has one row of 3 class weights per bucket that some
    training text contains (the other buckets' weights stay zero). Those
    are the design matrix's own columns, so its column positions index
    ``V`` as they are, and no bucket id is held per non-zero. A
    batch's gradient is scattered into only the rows of ``V`` its texts
    touch, and the proximal shrink of every weight is one division of
    ``scale``, which is folded back into ``V`` before it underflows. So
    a step costs what the batch's non-zeros cost, not what
    ``hash_buckets`` costs. The batch's logits and its scatter into
    ``V`` are the two C loops of ``kernel``, which walk the batch rows
    in the epoch's order and each row's non-zeros in order; softmax,
    the loss, the bias and ``scale`` stay numpy. The model returned
    keeps these buckets as ``Model.buckets`` and their weights as
    ``Model.weights`` (3 x len(buckets)).
    """
    examples: list[Example] = []
    for ds in _as_datasets(train):
        examples.extend(ds.examples)
    if not examples:
        raise TextModelError("fine_tune: no training examples")
    y = _labels_to_indices(examples)
    present = {LABELS[i] for i in set(y.tolist())}
    if len(present) < 3:
        logger.warning("training set covers only %s; model degenerates on absent classes", sorted(present))

    loops = kernel.load()
    X = design_matrix([ex.text for ex in examples], stats, config)
    n = X.shape[0]
    # Buckets no example touches keep zero weight throughout, so V holds
    # only the used ones: X's columns, in increasing bucket order, and
    # X.indices[j] is the row of V for the non-zero j.
    used = X.columns
    V = np.zeros((len(used), 3), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(3, dtype=np.float64)
    rng = random.Random(seed)
    lr = config.learning_rate
    history: list[float] = []
    # The loops' fixed arguments: X's arrays and V, which changes only in
    # place, and the buffer each batch's logits are written to.
    fixed = _kernel_args(X, V)
    logits = np.empty((config.batch_size, 3))
    logits_at = logits.ctypes.data

    for _ in range(config.epochs):
        order = np.array(_shuffled_indices(n, rng), dtype=np.int64)
        order_at = order.ctypes.data
        shrink = 1.0 + lr * config.l2_lambda
        ce_sum = 0.0
        for start in range(0, n, config.batch_size):
            nb = min(config.batch_size, n - start)
            # The batch's rows are order[start:start + nb]; the loops read
            # them in place.
            rows_at = order_at + start * order.itemsize
            loops.logits(*fixed, rows_at, nb, logits_at)
            yb = y[order[start : start + nb]]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # divergence is reported below
                probs = _softmax(scale * logits[:nb] + bias)
                batch_ce = -float(np.log(probs[np.arange(nb), yb]).sum())
            if not math.isfinite(batch_ce):
                raise TextModelError("divergence: reduce learning_rate")
            ce_sum += batch_ce
            dz = probs
            dz[np.arange(nb), yb] -= 1.0
            dz /= nb
            loops.scatter(*fixed, rows_at, nb, dz.ctypes.data, -lr / scale)
            scale /= shrink
            if scale < _SCALE_FLOOR:
                V *= scale
                scale = 1.0
            bias = bias - lr * dz.sum(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
            w_used = scale * V
            epoch_loss = ce_sum / n + 0.5 * config.l2_lambda * float((w_used * w_used).sum())
        if not math.isfinite(epoch_loss):
            raise TextModelError("divergence: reduce learning_rate")
        history.append(epoch_loss)
        lr *= config.lr_decay

    weights = V.T * scale
    if not np.isfinite(weights).all() or not np.isfinite(bias).all():
        raise TextModelError("divergence: reduce learning_rate")
    return Model(
        weights=weights, buckets=used, bias=bias, stats=stats, config=config, loss_history=tuple(history)
    )


def predict_texts(model: Model, texts: Sequence[str]) -> list[tuple[str, tuple[float, float, float]]]:
    """Predict labels and class probabilities for a batch of texts.

    The batch is featurized over its own columns, as ``fine_tune``
    featurizes its examples, and ``W`` holds, for each column, the
    model's weights of its bucket, or zeros where the model has none.
    ``X @ W``, from the ``kernel`` logits loop over every row in order,
    then gives the floats of the product with the full weights: each
    term of a bucket without weights is ±0.0, and a sum that starts at
    +0.0 is never −0.0, so adding ±0.0 to it changes nothing."""
    loops = kernel.load()
    X = design_matrix(texts, model.stats, model.config)
    at, found = _search(model.buckets, X.columns)
    W = np.zeros((len(X.columns), 3))
    W[found] = model.weights.T[at[found]]
    n = X.shape[0]
    rows = np.arange(n, dtype=np.int64)
    logits = np.empty((n, 3))
    loops.logits(*_kernel_args(X, W), rows.ctypes.data, n, logits.ctypes.data)
    probs = _softmax(logits + model.bias)
    # argmax returns the first maximum, which honors the fixed class
    # order (negative < neutral < positive) on exact ties.
    return [(LABELS[i], tuple(row)) for i, row in zip(probs.argmax(axis=1).tolist(), probs.tolist())]


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a model to ``path``, as given, in an .npz container of
    ``weights`` (3 x len(buckets)), ``buckets``, ``bias``, the adaptation
    stats' ``df_buckets`` and ``df_counts``, and a JSON ``meta`` (config,
    stats fields and loss history); loading reproduces bit-identical
    predictions."""
    meta = {
        "config": asdict(model.config),
        "stats": {"num_documents": model.stats.num_documents, "source_tag": model.stats.source_tag},
        "loss_history": list(model.loss_history),
    }
    # Given a file, numpy appends no ".npz" to the name.
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            weights=model.weights,
            buckets=model.buckets,
            bias=model.bias,
            df_buckets=model.stats.df_buckets,
            df_counts=model.stats.df_counts,
            meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
        )


def load_model(path: str | Path) -> Model:
    """Load a model saved by ``save_model``: the file must hold every
    array it writes, and a meta config with ``LearnerConfig``'s fields
    alone. A file that is missing or is not such a model (unreadable,
    corrupt, lacking a key, holding arrays of the wrong shape, or of an
    earlier layout: dense weights without ``buckets``, or a ``seed`` in
    the config) is a ``TextModelError`` naming the path."""
    path = Path(path)
    if not path.exists():
        raise TextModelError(f"model file not found: {path}")
    try:
        # np.load leaves a file it cannot read as a zip archive open.
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {key: data[key] for key in ("weights", "buckets", "bias", "df_buckets", "df_counts", "meta")}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        stats = AdaptationStats(
            df_buckets=arrays["df_buckets"],
            df_counts=arrays["df_counts"],
            num_documents=int(meta["stats"]["num_documents"]),
            source_tag=str(meta["stats"]["source_tag"]),
        )
        return Model(
            weights=arrays["weights"],
            buckets=arrays["buckets"],
            bias=arrays["bias"],
            stats=stats,
            config=LearnerConfig(**meta["config"]),
            loss_history=tuple(meta["loss_history"]),
        )
    except (OSError, EOFError, ValueError, KeyError, TypeError, TextModelError, zipfile.BadZipFile) as e:
        raise TextModelError(f"cannot load model file {path}: {e}") from None
