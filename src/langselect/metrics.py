"""Confusion matrices and the weighted F1 score used for evaluation.

Scores are computed over the fixed class order (negative, neutral,
positive). Zero denominators yield precision/recall of 0, and classes
with zero gold support are excluded from the weighted average.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LABEL_INDEX
from .errors import MetricsError


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """3x3 counts; rows are gold classes, columns are predicted classes."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (3, 3):
            raise MetricsError(f"confusion matrix must be 3x3, got {counts.shape}")
        if (counts < 0).any():
            raise MetricsError("confusion matrix cells must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def support(self) -> np.ndarray:
        """Gold-class counts (row sums)."""
        return self.counts.sum(axis=1)


def confusion(gold: Sequence[str], pred: Sequence[str]) -> ConfusionMatrix:
    """Count (gold, predicted) label pairs into a ConfusionMatrix."""
    if len(gold) != len(pred):
        raise MetricsError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise MetricsError("cannot score an empty prediction list")
    counts = np.zeros((3, 3), dtype=np.int64)
    for g, p in zip(gold, pred):
        try:
            counts[LABEL_INDEX[g], LABEL_INDEX[p]] += 1
        except KeyError as e:
            raise MetricsError(f"unknown label {e.args[0]!r}") from None
    return ConfusionMatrix(counts)


def _per_class_f1(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    counts = cm.counts
    if counts.sum() == 0:
        raise MetricsError("cannot score an all-zero confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    precision = np.divide(tp, tp + fp, out=np.zeros(3), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(3), where=(tp + fn) > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(3), where=pr > 0)
    return f1, cm.support().astype(np.float64)


def weighted_f1(cm: ConfusionMatrix) -> float:
    """Support-weighted mean of per-class F1 over classes with support > 0."""
    f1, support = _per_class_f1(cm)
    present = support > 0
    return float((f1[present] * support[present]).sum() / support[present].sum())
