"""Forward and backward source-language selection.

Each strategy is two pure steps. ``plan`` lists the cells a target
needs: a baseline training set, then one set per candidate source
language. The harness's matrix runner trains on each cell's languages
and scores weighted F1 on the target's held-out split, once per seed of
the run; seeds are set per run, not here.
``forward_select`` and ``backward_select`` then read the seed-mean
scores from that table and keep the candidates whose transfer gain
clears a threshold:

* forward, multilingual: baseline is the target-only score; a candidate
  is positive when the bilingual {target, candidate} score beats the
  baseline by more than the threshold.
* forward, zero-shot: baseline is the complete candidate set; candidates
  are ranked by their single-source score and marked positive when not
  more than the threshold below the baseline.
* backward: baseline is the full set (size-controlled by per-language
  sample caps); a candidate is positive when removing it drops the score
  by more than the threshold.

The threshold is relative by default (score > baseline * (1 + t)); an
absolute-points reading is available via ``absolute_threshold``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import SelectionError, check_setting_types

FORWARD = "forward"
BACKWARD = "backward"
MULTILINGUAL = "multilingual"
ZEROSHOT = "zeroshot"


def cell_mode(target: str, sources: Sequence[str]) -> str:
    """The setting a cell trains in: multilingual when the target's own
    data is among its sources, zero-shot when it is not."""
    return MULTILINGUAL if target in sources else ZEROSHOT


@dataclass(frozen=True)
class SelectionConfig:
    threshold: float = 0.05
    baseline_samples_per_language: int = 500
    top_k: int | None = None
    mode: str = MULTILINGUAL
    absolute_threshold: bool = False

    def __post_init__(self) -> None:
        check_setting_types(self, SelectionError)
        if self.threshold <= 0:
            raise SelectionError(f"threshold must be positive, got {self.threshold}")
        if self.top_k is not None and self.top_k < 1:
            raise SelectionError(f"top_k must be >= 1, got {self.top_k}")
        if self.mode not in (MULTILINGUAL, ZEROSHOT):
            raise SelectionError(f"unknown mode {self.mode!r}")
        if self.baseline_samples_per_language < 1:
            raise SelectionError("baseline_samples_per_language must be >= 1")


@dataclass(frozen=True)
class SelectionTask:
    """A target language's code and the codes of its candidate source
    languages: at least one, distinct, and never the target."""

    target: str
    candidates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise SelectionError(f"target {self.target}: no candidate source languages")
        if len(set(self.candidates)) != len(self.candidates):
            raise SelectionError(f"target {self.target}: duplicate candidates")
        if self.target in self.candidates:
            raise SelectionError(f"target {self.target} must not appear among candidates")


@dataclass(frozen=True)
class SelectionResult:
    """Ranked positive sources for one target; every language is given by
    its code.

    ``positive_sources`` pairs each positive source's code with its gain:
    score minus baseline for forward selection, baseline minus
    leave-one-out score (the drop) for backward. ``ranking`` pairs every
    candidate's code, best first, with the raw cell score that judged it.
    """

    target: str
    strategy: str
    mode: str
    baseline_score: float
    positive_sources: tuple[tuple[str, float], ...]
    ranking: tuple[tuple[str, float], ...]

    def positive_codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.positive_sources)

    def selected_sources(self) -> tuple[str, ...]:
        """Sorted codes of the training set the selection picks: the
        positive sources, plus the target in multilingual mode."""
        codes = set(self.positive_codes())
        if self.mode == MULTILINGUAL:
            codes.add(self.target)
        return tuple(sorted(codes))

    def to_row(self) -> str:
        """Report row: ``target<TAB>strategy<TAB>baseline<TAB>src(gain)...``."""
        cells = [self.target, self.strategy, f"{self.baseline_score:.4f}"]
        cells.extend(f"{code}({gain:+.4f})" for code, gain in self.positive_sources)
        return "\t".join(cells)


@dataclass(frozen=True)
class PlanCell:
    """One (target, source set, cap) cell of a selection plan; ``sources``
    are sorted language codes."""

    target: str
    sources: tuple[str, ...]
    sample_cap: int | None


def plan(task: SelectionTask, cfg: SelectionConfig, strategy: str) -> list[PlanCell]:
    """The cells one strategy reads for ``task``: the baseline cell, then
    one cell per candidate in candidate order."""
    target, cands = task.target, task.candidates
    if strategy == FORWARD:
        if cfg.mode == MULTILINGUAL:
            baseline = PlanCell(target, (target,), None)
            return [baseline, *(PlanCell(target, tuple(sorted((target, c))), None) for c in cands)]
        baseline = PlanCell(target, tuple(sorted(cands)), None)
        return [baseline, *(PlanCell(target, (c,), None) for c in cands)]
    if strategy == BACKWARD:
        if cfg.mode == ZEROSHOT and len(cands) < 2:
            raise SelectionError(f"target {target}: zero-shot backward selection needs at least two candidates")
        cap = cfg.baseline_samples_per_language
        full = tuple(sorted((target, *cands) if cfg.mode == MULTILINGUAL else cands))
        baseline = PlanCell(target, full, cap)
        return [baseline, *(PlanCell(target, tuple(s for s in full if s != c), cap) for c in cands)]
    raise SelectionError(f"unknown strategy {strategy!r}")


def _planned_scores(
    task: SelectionTask, scores: Mapping[PlanCell, float], cfg: SelectionConfig, strategy: str
) -> tuple[float, list[tuple[str, float]]]:
    """(baseline score, [(candidate, its cell's score)]) read from ``scores``."""
    cells = plan(task, cfg, strategy)
    missing = [cell.sources for cell in cells if cell not in scores]
    if missing:
        raise SelectionError(
            f"score table lacks {len(missing)} planned cell(s) for target {task.target}: "
            + "; ".join(",".join(sources) for sources in missing)
        )
    return scores[cells[0]], [(cand, scores[cell]) for cand, cell in zip(task.candidates, cells[1:])]


def _rank(pairs: list[tuple[str, float]], descending: bool) -> list[tuple[str, float]]:
    sign = -1.0 if descending else 1.0
    return sorted(pairs, key=lambda p: (sign * p[1], p[0]))


def forward_select(
    task: SelectionTask, scores: Mapping[PlanCell, float], cfg: SelectionConfig
) -> SelectionResult:
    """Forward selection: grow from the minimal set, keep candidates whose
    addition clears the gain threshold. ``scores`` maps each cell of the
    forward plan to its seed-mean score."""
    baseline, scored = _planned_scores(task, scores, cfg, FORWARD)
    if cfg.mode == MULTILINGUAL:
        cutoff = baseline + cfg.threshold if cfg.absolute_threshold else baseline * (1 + cfg.threshold)
        positives = [(cand, score - baseline) for cand, score in scored if score > cutoff]
    else:
        cutoff = baseline - cfg.threshold if cfg.absolute_threshold else baseline * (1 - cfg.threshold)
        positives = [(cand, score - baseline) for cand, score in scored if score >= cutoff]
    return SelectionResult(
        target=task.target,
        strategy=FORWARD,
        mode=cfg.mode,
        baseline_score=baseline,
        positive_sources=tuple(_rank(positives, descending=True)[: cfg.top_k]),
        ranking=tuple(_rank(scored, descending=True)),
    )


def backward_select(
    task: SelectionTask, scores: Mapping[PlanCell, float], cfg: SelectionConfig
) -> SelectionResult:
    """Backward selection: start from the full set, keep candidates whose
    removal drops the score by more than the threshold. ``scores`` maps
    each cell of the backward plan to its seed-mean score.

    All sets (baseline and leave-one-out) are built from per-language
    subsamples capped at ``baseline_samples_per_language`` so comparisons
    are size-controlled.
    """
    baseline, scored = _planned_scores(task, scores, cfg, BACKWARD)
    cutoff = baseline - cfg.threshold if cfg.absolute_threshold else baseline * (1 - cfg.threshold)
    positives = [(cand, baseline - score) for cand, score in scored if score < cutoff]
    return SelectionResult(
        target=task.target,
        strategy=BACKWARD,
        mode=cfg.mode,
        baseline_score=baseline,
        positive_sources=tuple(_rank(positives, descending=True)[: cfg.top_k]),
        ranking=tuple(_rank(scored, descending=False)),
    )
