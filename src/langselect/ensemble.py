"""Majority-vote ensembling of per-seed predictions.

Ties are broken by the highest mean predicted probability among the tied
labels, then by the fixed class order (negative < neutral < positive).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import LABEL_INDEX, LABELS, tsv_rows, write_tsv
from .errors import EnsembleError

Prediction = tuple[str, tuple[float, float, float]]


@dataclass(frozen=True)
class VotePool:
    """Predictions from several seeds over the same example sequence."""

    per_seed: tuple[tuple[Prediction, ...], ...]

    def __post_init__(self) -> None:
        if not self.per_seed:
            raise EnsembleError("vote pool needs at least one seed")
        length = len(self.per_seed[0])
        for i, preds in enumerate(self.per_seed):
            if len(preds) != length:
                raise EnsembleError(
                    f"seed {i} has {len(preds)} predictions, expected {length}"
                )
            for label, _ in preds:
                if label not in LABEL_INDEX:
                    raise EnsembleError(f"unknown label {label!r} in vote pool")

    @property
    def num_examples(self) -> int:
        return len(self.per_seed[0])


def majority_vote(pool: VotePool) -> list[str]:
    """Per-example plurality label across seeds."""
    out: list[str] = []
    num_seeds = len(pool.per_seed)
    for i in range(pool.num_examples):
        votes = {label: 0 for label in LABELS}
        mean_probs = [0.0, 0.0, 0.0]
        for preds in pool.per_seed:
            label, probs = preds[i]
            votes[label] += 1
            for c in range(3):
                mean_probs[c] += probs[c] / num_seeds
        top = max(votes.values())
        tied = [label for label in LABELS if votes[label] == top]
        if len(tied) > 1:
            # Highest mean probability wins; max() keeps the earliest of
            # equal keys, which is the fixed class order.
            tied = [max(tied, key=lambda label: mean_probs[LABEL_INDEX[label]])]
        out.append(tied[0])
    return out


def write_predictions_tsv(
    path: str | Path,
    ids: Sequence[str],
    predictions: Sequence[Prediction],
    include_probs: bool = False,
) -> None:
    """Write ``id<TAB>label`` rows (probability columns optional)."""
    if len(ids) != len(predictions):
        raise EnsembleError(f"{len(ids)} ids vs {len(predictions)} predictions")
    header = ("id", "label", "p_negative", "p_neutral", "p_positive") if include_probs else ("id", "label")
    rows = ((row_id, label, *probs)[: len(header)] for row_id, (label, probs) in zip(ids, predictions))
    write_tsv(path, header, rows)


def read_predictions_tsv(path: str | Path) -> tuple[list[str], list[Prediction]]:
    """Read a prediction TSV. A row holds an id and a label, and either
    no probabilities, which read as zeros, or all three."""
    path = Path(path)
    ids: list[str] = []
    predictions: list[Prediction] = []
    for lineno, fields in tsv_rows(path, 2, "id<TAB>label"):
        label = fields[1].strip().lower()
        if label not in LABEL_INDEX:
            raise EnsembleError(f"{path}: unknown label {fields[1]!r} at line {lineno}")
        if len(fields) == 2:
            probs = (0.0, 0.0, 0.0)
        elif len(fields) < 5:
            raise EnsembleError(f"{path}: {len(fields) - 2} of 3 probabilities at line {lineno}")
        else:
            try:
                probs = (float(fields[2]), float(fields[3]), float(fields[4]))
            except ValueError:
                raise EnsembleError(f"{path}: non-numeric probability at line {lineno}") from None
        ids.append(fields[0])
        predictions.append((label, probs))
    return ids, predictions


def pool_from_files(paths: Sequence[str | Path]) -> tuple[list[str], VotePool]:
    """Build a VotePool from prediction files, checking id alignment."""
    if not paths:
        raise EnsembleError("no prediction files given")
    base_ids: list[str] | None = None
    per_seed: list[tuple[Prediction, ...]] = []
    for path in paths:
        ids, predictions = read_predictions_tsv(path)
        if base_ids is None:
            base_ids = ids
        elif ids != base_ids:
            raise EnsembleError(f"{path}: example ids do not match the first file")
        per_seed.append(tuple(predictions))
    assert base_ids is not None
    return base_ids, VotePool(per_seed=tuple(per_seed))
