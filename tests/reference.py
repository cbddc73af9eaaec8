"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: scores are computed
from raw label lists with plain counting, selection rules are
re-evaluated with straight-line loops, gradients are checked with
central finite differences of the loss, tf-idf rows are built one text
at a time, and training is checked against a dense trainer.
"""
from __future__ import annotations

import hashlib
import math
import random

import numpy as np

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


def reference_tfidf(text, document_frequency, num_documents, ngram_min, ngram_max, hash_buckets):
    """One text's L2-normalized tf-idf row as {bucket: value}: values are
    (1 + ln tf) * (ln((1+N)/(1+df)) + 1) over FNV-1a hashed character
    n-grams of the text padded with \x02/\x03; empty text gives {}."""
    if not text:
        return {}
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
