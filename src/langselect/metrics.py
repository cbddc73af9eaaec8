"""Confusion counts and the weighted F1 score used for evaluation.

Scores are computed over the fixed class order (negative, neutral,
positive). Zero denominators yield precision/recall of 0, and classes
with zero gold support are excluded from the weighted average.
"""
from __future__ import annotations

from typing import Sequence

from .corpus import LABEL_INDEX
from .errors import MetricsError

Counts = tuple[tuple[int, int, int], ...]


def confusion(gold: Sequence[str], pred: Sequence[str]) -> Counts:
    """Count (gold, predicted) label pairs: three rows of three counts,
    rows gold classes and columns predicted classes."""
    if len(gold) != len(pred):
        raise MetricsError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise MetricsError("cannot score an empty prediction list")
    counts = [[0, 0, 0] for _ in range(3)]
    for g, p in zip(gold, pred):
        try:
            counts[LABEL_INDEX[g]][LABEL_INDEX[p]] += 1
        except KeyError as e:
            raise MetricsError(f"unknown label {e.args[0]!r}") from None
    return tuple(tuple(row) for row in counts)


def _per_class_f1(counts: Counts) -> tuple[list[float], list[int]]:
    """Per-class F1s and gold supports (row sums), in class order."""
    support = [sum(row) for row in counts]
    if not any(support):
        raise MetricsError("cannot score an all-zero confusion matrix")
    f1 = []
    for c in range(3):
        tp = counts[c][c]
        predicted = sum(row[c] for row in counts)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support[c] if support[c] else 0.0
        pr = precision + recall
        f1.append(2 * precision * recall / pr if pr else 0.0)
    return f1, support


def weighted_f1(counts: Counts) -> float:
    """Support-weighted mean of per-class F1 over classes with support > 0."""
    f1, support = _per_class_f1(counts)
    total = 0.0
    for score, n in zip(f1, support):
        if n:
            total += score * n
    return total / sum(support)
