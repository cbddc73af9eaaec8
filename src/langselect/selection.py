"""Forward and backward source-language selection.

Each strategy is two pure steps. ``plan`` lists the cells a target
needs: a baseline training set, then one set per candidate source
language. The harness's matrix runner trains on each cell's languages
and scores weighted F1 on the target's held-out split, once per seed.
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

from .corpus import LanguageCode
from .errors import SelectionError

FORWARD = "forward"
BACKWARD = "backward"
MULTILINGUAL = "multilingual"
ZEROSHOT = "zeroshot"


@dataclass(frozen=True)
class SelectionConfig:
    threshold: float = 0.05
    baseline_samples_per_language: int = 500
    top_k: int | None = None
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    mode: str = MULTILINGUAL
    absolute_threshold: bool = False

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise SelectionError(f"threshold must be positive, got {self.threshold}")
        if self.top_k is not None and self.top_k < 1:
            raise SelectionError(f"top_k must be >= 1, got {self.top_k}")
        if not self.seeds:
            raise SelectionError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise SelectionError(f"seeds must be distinct, got {self.seeds}")
        if self.mode not in (MULTILINGUAL, ZEROSHOT):
            raise SelectionError(f"unknown mode {self.mode!r}")
        if self.baseline_samples_per_language < 1:
            raise SelectionError("baseline_samples_per_language must be >= 1")


@dataclass(frozen=True)
class SelectionTask:
    """A target language and its candidate source languages."""

    target: LanguageCode
    candidates: tuple[LanguageCode, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise SelectionError(f"target {self.target.code}: no candidate source languages")
        codes = [c.code for c in self.candidates]
        if len(set(codes)) != len(codes):
            raise SelectionError(f"target {self.target.code}: duplicate candidates")
        if self.target.code in codes:
            raise SelectionError(f"target {self.target.code} must not appear among candidates")


@dataclass(frozen=True)
class SelectionResult:
    """Ranked positive sources for one target.

    ``positive_sources`` pairs each positive language with its gain:
    score minus baseline for forward selection, baseline minus
    leave-one-out score (the drop) for backward. ``ranking`` lists every
    candidate best-first with the raw cell score that judged it.
    """

    target: LanguageCode
    strategy: str
    mode: str
    baseline_score: float
    positive_sources: tuple[tuple[LanguageCode, float], ...]
    ranking: tuple[tuple[LanguageCode, float], ...]

    def positive_codes(self) -> tuple[str, ...]:
        return tuple(lang.code for lang, _ in self.positive_sources)

    def selected_sources(self) -> tuple[str, ...]:
        """Sorted codes of the training set the selection picks: the
        positive sources, plus the target in multilingual mode."""
        codes = set(self.positive_codes())
        if self.mode == MULTILINGUAL:
            codes.add(self.target.code)
        return tuple(sorted(codes))

    def to_row(self) -> str:
        """Report row: ``target<TAB>strategy<TAB>baseline<TAB>src(gain)...``."""
        cells = [self.target.code, self.strategy, f"{self.baseline_score:.4f}"]
        cells.extend(f"{lang.code}({gain:+.4f})" for lang, gain in self.positive_sources)
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
    target = task.target.code
    cands = [lang.code for lang in task.candidates]
    if strategy == FORWARD:
        if cfg.mode == MULTILINGUAL:
            baseline = PlanCell(target, (target,), None)
            return [baseline, *(PlanCell(target, tuple(sorted((target, c))), None) for c in cands)]
        baseline = PlanCell(target, tuple(sorted(cands)), None)
        return [baseline, *(PlanCell(target, (c,), None) for c in cands)]
    if strategy == BACKWARD:
        cap = cfg.baseline_samples_per_language
        full = tuple(sorted((target, *cands) if cfg.mode == MULTILINGUAL else cands))
        baseline = PlanCell(target, full, cap)
        return [baseline, *(PlanCell(target, tuple(s for s in full if s != c), cap) for c in cands)]
    raise SelectionError(f"unknown strategy {strategy!r}")


def _planned_scores(
    task: SelectionTask, scores: Mapping[PlanCell, float], cfg: SelectionConfig, strategy: str
) -> tuple[float, list[tuple[LanguageCode, float]]]:
    """(baseline score, [(candidate, its cell's score)]) read from ``scores``."""
    cells = plan(task, cfg, strategy)
    missing = [cell.sources for cell in cells if cell not in scores]
    if missing:
        raise SelectionError(
            f"score table lacks {len(missing)} planned cell(s) for target {task.target.code}: "
            + "; ".join(",".join(sources) for sources in missing)
        )
    return scores[cells[0]], [(cand, scores[cell]) for cand, cell in zip(task.candidates, cells[1:])]


def _rank(pairs: list[tuple[LanguageCode, float]], descending: bool) -> list[tuple[LanguageCode, float]]:
    sign = -1.0 if descending else 1.0
    return sorted(pairs, key=lambda p: (sign * p[1], p[0].code))


def _truncate(
    positives: list[tuple[LanguageCode, float]], top_k: int | None
) -> tuple[tuple[LanguageCode, float], ...]:
    if top_k is not None:
        positives = positives[:top_k]
    return tuple(positives)


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
        positive_sources=_truncate(_rank(positives, descending=True), cfg.top_k),
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
        positive_sources=_truncate(_rank(positives, descending=True), cfg.top_k),
        ranking=tuple(_rank(scored, descending=False)),
    )


def group_by_family(
    languages: Sequence[LanguageCode],
    metadata: Mapping[str, LanguageCode] | None = None,
    mode: str = MULTILINGUAL,
) -> dict[str, tuple[LanguageCode, ...]]:
    """Family-grouping baseline: each target's source set is every language
    sharing its top-level family (itself included in multilingual mode)."""
    resolved = []
    for lang in languages:
        meta = metadata.get(lang.code, lang) if metadata else lang
        if not meta.top_family:
            raise SelectionError(f"language {lang.code!r} has no family metadata")
        resolved.append(meta)
    out: dict[str, tuple[LanguageCode, ...]] = {}
    for target in resolved:
        group = [
            lang
            for lang in resolved
            if lang.top_family == target.top_family
            and (mode == MULTILINGUAL or lang.code != target.code)
        ]
        out[target.code] = tuple(sorted(group, key=lambda lang: lang.code))
    return out
