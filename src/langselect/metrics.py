"""Confusion matrices and the F1-family scores used for evaluation.

All scores are computed over the fixed class order (negative, neutral,
positive). Zero denominators yield precision/recall of 0, and classes
with zero gold support are excluded from weighted and macro averages.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LABEL_INDEX, LABELS
from .errors import MetricsError


@dataclass(frozen=True)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return bool((self.counts == other.counts).all())

    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        """Gold-class counts (row sums)."""
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class ScoreReport:
    """Per-class F1 plus the weighted and macro aggregates."""

    per_class_f1: tuple[float, float, float]
    weighted_f1: float
    macro_f1: float
    support: tuple[int, int, int]

    def to_kv(self) -> str:
        """Flat key=value text record, one field per line."""
        lines = [
            f"weighted_f1={self.weighted_f1!r}",
            f"macro_f1={self.macro_f1!r}",
        ]
        for label, f1, sup in zip(LABELS, self.per_class_f1, self.support):
            lines.append(f"f1_{label}={f1!r}")
            lines.append(f"support_{label}={sup}")
        return "\n".join(lines) + "\n"


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


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over classes with support > 0."""
    f1, support = _per_class_f1(cm)
    present = support > 0
    return float(f1[present].mean())


def score_report(cm: ConfusionMatrix) -> ScoreReport:
    f1, support = _per_class_f1(cm)
    return ScoreReport(
        per_class_f1=(float(f1[0]), float(f1[1]), float(f1[2])),
        weighted_f1=weighted_f1(cm),
        macro_f1=macro_f1(cm),
        support=(int(support[0]), int(support[1]), int(support[2])),
    )
