"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: scores are computed
from raw label lists with plain counting, selection rules are
re-evaluated with straight-line loops, gradients are checked with
central finite differences of the loss, term counts and tf-idf rows
are built one text and one gram at a time, training is checked against
a dense trainer, sparse rows are read and multiplied one non-zero at a
time, and tweets are normalized with one regex pass per rule.
"""
from __future__ import annotations

import hashlib
import math
import random
import re
import string
import unicodedata

import numpy as np

from langselect.textmodel import hash_gram

LABELS = ("negative", "neutral", "positive")


def finite_difference_grads(loss_fn, model, batch, h=1e-5):
    """Central-difference gradients of loss_fn(model, batch) w.r.t. the
    model's weights and bias. loss_fn must return the loss as its first
    output and must not mutate the model."""
    weights0 = model.weights.copy()
    bias0 = model.bias.copy()

    def loss_at(weights, bias):
        model.weights = weights
        model.bias = bias
        try:
            out = loss_fn(model, batch)
        finally:
            model.weights = weights0
            model.bias = bias0
        return out[0] if isinstance(out, tuple) else out

    grad_w = np.zeros_like(weights0)
    for i in range(weights0.shape[0]):
        for j in range(weights0.shape[1]):
            wp = weights0.copy()
            wp[i, j] += h
            wm = weights0.copy()
            wm[i, j] -= h
            grad_w[i, j] = (loss_at(wp, bias0) - loss_at(wm, bias0)) / (2 * h)
    grad_b = np.zeros_like(bias0)
    for i in range(bias0.shape[0]):
        bp = bias0.copy()
        bp[i] += h
        bm = bias0.copy()
        bm[i] -= h
        grad_b[i] = (loss_at(weights0, bp) - loss_at(weights0, bm)) / (2 * h)
    return grad_w, grad_b


def _fnv1a_64(gram):
    h = 0xCBF29CE484222325
    for b in gram.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def reference_term_counts(text, ngram_min, ngram_max, hash_buckets):
    """One text's raw term frequencies as (sorted buckets, counts) int64
    arrays, hashing one gram at a time with the scalar ``hash_gram``
    (checked against published FNV-1a vectors); empty text has no
    grams."""
    grams = []
    if text:
        padded = "\x02" + text + "\x03"
        for n in range(ngram_min, ngram_max + 1):
            grams.extend(hash_gram(padded[i : i + n]) & (hash_buckets - 1) for i in range(len(padded) - n + 1))
    return np.unique(np.array(grams, dtype=np.int64), return_counts=True)


def reference_document_frequencies(texts, ngram_min, ngram_max, hash_buckets):
    """{bucket: number of texts containing it}, summed one text at a time."""
    df = {}
    for text in texts:
        buckets, _ = reference_term_counts(text, ngram_min, ngram_max, hash_buckets)
        for bucket in buckets.tolist():
            df[bucket] = df.get(bucket, 0) + 1
    return df


def reference_tfidf(text, stats, ngram_min, ngram_max, hash_buckets):
    """One text's L2-normalized tf-idf row as {bucket: value}: values are
    (1 + ln tf) * (ln((1+N)/(1+df)) + 1) over FNV-1a hashed character
    n-grams of the text padded with \x02/\x03, with N and df read from
    the AdaptationStats ``stats``; empty text gives {}."""
    if not text:
        return {}
    document_frequency = dict(zip(stats.df_buckets.tolist(), stats.df_counts.tolist()))
    num_documents = stats.num_documents
    padded = "\x02" + text + "\x03"
    counts = {}
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(padded) - n + 1):
            bucket = _fnv1a_64(padded[i : i + n]) & (hash_buckets - 1)
            counts[bucket] = counts.get(bucket, 0) + 1
    row = {}
    for bucket, tf in counts.items():
        idf = math.log((1 + num_documents) / (1 + document_frequency.get(bucket, 0))) + 1.0
        row[bucket] = (1.0 + math.log(tf)) * idf
    norm = math.sqrt(sum(v * v for v in row.values()))
    return {bucket: v / norm for bucket, v in row.items()}


def csr_row(X, i):
    """Row i of CSR rows X as (indices, values) lists."""
    lo, hi = int(X.indptr[i]), int(X.indptr[i + 1])
    return X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()


def dense(X):
    """CSR rows X as a dense (rows, columns) array."""
    out = np.zeros(X.shape)
    for i in range(X.shape[0]):
        indices, values = csr_row(X, i)
        out[i, indices] = values
    return out


def reference_rows(X, rows):
    """The (indices, values) lists of the given rows of X, in order."""
    return [csr_row(X, i) for i in rows]


def reference_matmul(X, W):
    """X @ W for CSR rows X and a dense W, each output element summed
    over its row's non-zeros in order, starting from 0.0."""
    out = np.zeros((X.shape[0], W.shape[1]))
    for i in range(X.shape[0]):
        indices, values = csr_row(X, i)
        for k in range(W.shape[1]):
            total = 0.0
            for j, v in zip(indices, values):
                total += v * float(W[j, k])
            out[i, k] = total
    return out


def reference_t_matmul(X, D):
    """X.T @ D for CSR rows X and a dense D, each output element summed
    over the non-zeros of its column in row order, starting from 0.0."""
    out = np.zeros((X.shape[1], D.shape[1]))
    for i in range(X.shape[0]):
        indices, values = csr_row(X, i)
        for j, v in zip(indices, values):
            for k in range(D.shape[1]):
                out[j, k] += v * float(D[i, k])
    return out


def _fisher_yates(n, rng):
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = min(int(rng.random() * (i + 1)), i)
        order[i], order[j] = order[j], order[i]
    return order


def _softmax(logits):
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def reference_sparse_fine_tune(X, y, config):
    """The lazy sparse trainer, one non-zero at a time. Weights are held
    as scale * V; a step adds each non-zero's gradient term into V in
    batch order and divides scale by (1 + lr * l2_lambda), folding scale
    into V below 1e-100. Each logit is summed over its row's non-zeros
    in order from 0.0. X is CSR rows and y holds class indices. Returns
    (weights (3, columns), bias, loss_history)."""
    n = X.shape[0]
    V = np.zeros((X.shape[1], 3))
    used = sorted({j for i in range(n) for j in csr_row(X, i)[0]})
    scale = 1.0
    bias = np.zeros(3)
    rng = random.Random(config.seed)
    lr = config.learning_rate
    history = []
    for _ in range(config.epochs):
        order = _fisher_yates(n, rng)
        shrink = 1.0 + lr * config.l2_lambda
        ce_sum = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            rows = [csr_row(X, i) for i in chunk]
            logits = np.zeros((len(chunk), 3))
            for r, (indices, values) in enumerate(rows):
                for k in range(3):
                    total = 0.0
                    for j, v in zip(indices, values):
                        total += v * float(V[j, k])
                    logits[r, k] = total
            probs = _softmax(scale * logits + bias)
            yb = y[chunk]
            ce_sum -= float(np.log(probs[np.arange(len(chunk)), yb]).sum())
            dz = probs
            dz[np.arange(len(chunk)), yb] -= 1.0
            dz /= len(chunk)
            step = -lr / scale
            for r, (indices, values) in enumerate(rows):
                for j, v in zip(indices, values):
                    for k in range(3):
                        V[j, k] += float(dz[r, k]) * (step * v)
            scale /= shrink
            if scale < 1e-100:
                V *= scale
                scale = 1.0
            bias = bias - lr * dz.sum(axis=0)
        w = scale * V[used]
        history.append(ce_sum / n + 0.5 * config.l2_lambda * float((w * w).sum()))
        lr *= config.lr_decay
    return (V * scale).T, bias, history


def reference_dense_fine_tune(X, y, config):
    """Dense mini-batch trainer: every step updates the whole weight
    matrix, W <- (W - lr * grad) / (1 + lr * l2_lambda), with the
    library's shuffle (Fisher-Yates on random.Random(config.seed)) and
    per-epoch loss. X is a dense (rows, hash_buckets) array and y holds
    class indices. Returns (weights (3, hash_buckets), bias, loss_history)."""
    n = X.shape[0]
    weights = np.zeros((3, X.shape[1]))
    bias = np.zeros(3)
    rng = random.Random(config.seed)
    lr = config.learning_rate
    history = []
    for _ in range(config.epochs):
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = min(int(rng.random() * (i + 1)), i)
            order[i], order[j] = order[j], order[i]
        ce_sum = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            xb = X[chunk]
            yb = y[chunk]
            logits = xb @ weights.T + bias
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = exp / exp.sum(axis=1, keepdims=True)
            ce_sum -= float(np.log(probs[np.arange(len(chunk)), yb]).sum())
            dz = probs
            dz[np.arange(len(chunk)), yb] -= 1.0
            dz /= len(chunk)
            weights = (weights - lr * (dz.T @ xb)) / (1.0 + lr * config.l2_lambda)
            bias = bias - lr * dz.sum(axis=0)
        history.append(ce_sum / n + 0.5 * config.l2_lambda * float((weights * weights).sum()))
        lr *= config.lr_decay
    return weights, bias, history


def relative_error(a, b):
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def reference_prf(gold, pred, label):
    tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
    fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
    fn = sum(1 for g, p in zip(gold, pred) if g == label and p != label)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def reference_weighted_f1(gold, pred):
    total = 0.0
    weight = 0
    for label in LABELS:
        support = sum(1 for g in gold if g == label)
        if support == 0:
            continue
        _, _, f1 = reference_prf(gold, pred, label)
        total += f1 * support
        weight += support
    return total / weight


def reference_macro_f1(gold, pred):
    scores = []
    for label in LABELS:
        if sum(1 for g in gold if g == label) == 0:
            continue
        scores.append(reference_prf(gold, pred, label)[2])
    return sum(scores) / len(scores)


def score_plan(cells, oracle, seeds):
    """Seed-mean score table of selection plan cells, each (cell, seed)
    scored through a mock oracle: the input forward_select and
    backward_select decide from."""
    return {
        cell: sum(
            oracle.score(cell.target, cell.sources, seed=s, sample_cap=cell.sample_cap) for s in seeds
        )
        / len(seeds)
        for cell in cells
    }


class DictOracle:
    """Mock scoring oracle reading from a fixed (target, sources) table;
    records every call so tests can count distinct cells."""

    def __init__(self, table):
        self.table = dict(table)
        self.calls = []

    def score(self, target, sources, seed, sample_cap):
        key = (target, tuple(sorted(sources)))
        self.calls.append((key, seed, sample_cap))
        return self.table[key]

    def distinct_cells(self):
        return {key for key, _, _ in self.calls}


class HashOracle:
    """Deterministic pseudo-random oracle: the score depends only on the
    (target, sources) cell, is stable across runs, and lies in [0, 1]."""

    def __init__(self, salt=""):
        self.salt = salt
        self.calls = []

    def score(self, target, sources, seed, sample_cap):
        key = (target, tuple(sorted(sources)))
        self.calls.append((key, seed, sample_cap))
        blob = f"{self.salt}|{target}|{','.join(sorted(sources))}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def distinct_cells(self):
        return {key for key, _, _ in self.calls}


class TableOracle:
    """Oracle reading per-seed scores from parsed matrix JSONL records,
    keyed by (target, sources, sample_cap)."""

    def __init__(self, records):
        self.table = {
            (r["target"], tuple(r["sources"]), r["sample_cap"]): r["per_seed"] for r in records
        }

    def score(self, target, sources, seed, sample_cap):
        return self.table[(target, tuple(sorted(sources)), sample_cap)][str(seed)]


def brute_force_forward(target, candidates, oracle, seeds, threshold, mode, top_k=None):
    """Literal re-evaluation of the forward rules, independent of the
    library implementation. Returns (baseline, positives) where positives
    is a list of (code, gain) in the result's documented order."""

    def mean(sources):
        return sum(oracle.score(target, tuple(sorted(sources)), seed=s, sample_cap=None) for s in seeds) / len(seeds)

    positives = []
    if mode == "multilingual":
        baseline = mean((target,))
        for cand in candidates:
            score = mean((target, cand))
            if score > baseline * (1 + threshold):
                positives.append((cand, score - baseline))
    else:
        baseline = mean(tuple(candidates))
        for cand in candidates:
            score = mean((cand,))
            if score >= baseline * (1 - threshold):
                positives.append((cand, score - baseline))
    positives.sort(key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        positives = positives[:top_k]
    return baseline, positives


def brute_force_backward(target, candidates, oracle, seeds, threshold, mode, cap, top_k=None):
    """Literal re-evaluation of the backward rules."""

    def mean(sources):
        return sum(oracle.score(target, tuple(sorted(sources)), seed=s, sample_cap=cap) for s in seeds) / len(seeds)

    full = tuple(sorted((target, *candidates))) if mode == "multilingual" else tuple(sorted(candidates))
    baseline = mean(full)
    positives = []
    for cand in candidates:
        rest = tuple(s for s in full if s != cand)
        score = mean(rest)
        if score < baseline * (1 - threshold):
            positives.append((cand, baseline - score))
    positives.sort(key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        positives = positives[:top_k]
    return baseline, positives


_REF_URL_RE = re.compile(r"(?:[a-z][a-z0-9+.\-]*://|www\.)\S*", re.IGNORECASE)
_REF_MENTION_RE = re.compile(r"@+[A-Za-z0-9_]+")
_REF_CHAR_RUN_RE = re.compile(r"(\S)\1{3,}")
_REF_PAIR_RUN_RE = re.compile(r"(\S)\1+")
_REF_WS_RE = re.compile(r"\s+")


def reference_is_punct(ch):
    return ch in string.punctuation or unicodedata.category(ch).startswith("P")


def reference_normalize(raw):
    """The tweet normalizer as five regex passes, one per rule, in the
    rules' order: URLs, mentions, runs over 3, punctuation runs, then
    whitespace."""
    s = _REF_URL_RE.sub("HTTPURL", raw)
    s = _REF_MENTION_RE.sub("USER", s)
    s = _REF_CHAR_RUN_RE.sub(r"\1\1\1", s)
    s = _REF_PAIR_RUN_RE.sub(lambda m: m.group(1) if reference_is_punct(m.group(1)) else m.group(0), s)
    return _REF_WS_RE.sub(" ", s).strip()
