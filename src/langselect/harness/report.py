"""Report generation from score matrices and selection results.

Three tables are emitted:

* per-language scores: one row per (training composition and mode,
  sample cap, adaptation), one column per target language plus a
  support-weighted overall column;
* strategy comparison: the same rows, overall column only;
* selected sources: one row per target listing the positive sources of
  each strategy, zero-shot selections in a column of their own.

Numeric cells are F1 * 100 formatted to 2 decimals. Formats: markdown,
tsv, or json-lines.
"""
from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from ..corpus import check_code, read_utf8
from ..errors import HarnessError
from ..selection import BACKWARD, FORWARD, MULTILINGUAL, ZEROSHOT, SelectionResult
from .experiments import MatrixEntry, ScoreMatrix, json_number, jsonl_text, parse_jsonl

FORMATS = ("markdown", "tsv", "jsonl")


def _composition(entry: MatrixEntry, trainable: frozenset[str]) -> str | None:
    """Name of a training composition, read off its target, sources and
    mode, or None for selection plumbing cells (pairs / leave-one-out
    sets) that would flood the table. A baseline trains on every
    language in ``trainable``, less the target in zero-shot mode, and
    is named by its mode."""
    if entry.sources == (entry.target,):
        return "monolingual"
    baseline = trainable if entry.mode == MULTILINGUAL else trainable - {entry.target}
    return entry.mode if set(entry.sources) == baseline else None


def _row_label(composition: str, entry: MatrixEntry) -> str:
    """A row's label: the composition, then the sample cap and the
    adaptation when present, so cells differing in either never share a row."""
    label = composition if entry.sample_cap is None else f"{composition}, cap {entry.sample_cap}"
    return label if entry.adaptation == "none" else f"{label} + {entry.adaptation}"


def collect_rows(
    matrix: ScoreMatrix,
    selections: Mapping[str, Mapping[str, SelectionResult]],
    languages: Sequence[str],
    trainable: Sequence[str],
) -> tuple[list[str], list[tuple[str, dict[str, MatrixEntry]]]]:
    """Group matrix entries into report rows, one column per language.

    ``trainable`` names the languages that can be sources; the baseline
    rows train on them. ``selections`` maps a column name (the strategy,
    "forward"/"backward", or a strategy and mode) to per-target results;
    the rows for selected-source models are matched by looking up the
    uncapped entry trained on exactly the selected set, whose sources
    imply the result's mode.
    """
    targets = sorted(languages)
    sources = frozenset(trainable)
    rows: dict[str, dict[str, MatrixEntry]] = {}
    # Uncapped cells by (target, sources), where selected sets are
    # looked up. Keys are visited sorted, and the first match wins, so
    # both tables are deterministic.
    uncapped: dict[tuple[str, tuple[str, ...]], MatrixEntry] = {}
    for key in sorted(matrix.entries):
        entry = matrix.entries[key]
        if entry.sample_cap is None:
            uncapped.setdefault((entry.target, entry.sources), entry)
        composition = _composition(entry, sources)
        if composition is not None:
            rows.setdefault(_row_label(composition, entry), {}).setdefault(entry.target, entry)
    strategy_tags = {"forward": "fwd", "backward": "bwd"}
    for column in sorted(selections):
        for target, result in sorted(selections[column].items()):
            entry = uncapped.get((target, result.selected_sources()))
            if entry is None:
                continue
            tag = strategy_tags.get(result.strategy, result.strategy)
            if result.mode == ZEROSHOT:
                tag += " zeroshot"
            rows.setdefault(_row_label(f"{tag} source transfer", entry), {})[target] = entry
    ordered = sorted(rows.items(), key=lambda kv: kv[0])
    return targets, ordered


def _overall(cells: dict[str, MatrixEntry], targets: Sequence[str]) -> float | None:
    present = [cells[t] for t in targets if t in cells]
    if not present:
        return None
    total_support = sum(e.support for e in present)
    if total_support == 0:
        return None
    return sum(e.mean * e.support for e in present) / total_support


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.2f}"


def _markdown_table(headers: list[str], body: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(["---"] * len(headers)) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return "\n".join(lines)


def _tsv_table(headers: list[str], body: list[list[str]]) -> str:
    return "\n".join("\t".join(cells) for cells in [headers, *body])


def render_report(
    matrix: ScoreMatrix,
    selections: Mapping[str, Mapping[str, SelectionResult]],
    languages: Sequence[str],
    trainable: Sequence[str],
    fmt: str = "markdown",
) -> str:
    """Render the full report document in the requested format; the
    other arguments are those of ``collect_rows``."""
    if fmt not in FORMATS:
        raise HarnessError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    targets, rows = collect_rows(matrix, selections, languages, trainable)

    score_body = []
    for label, cells in rows:
        row = [label]
        row.extend(_fmt(cells[t].mean) if t in cells else "-" for t in targets)
        row.append(_fmt(_overall(cells, targets)))
        score_body.append(row)

    strategies = sorted(selections)
    selection_body = []
    for target in sorted({t for strategy in strategies for t in selections[strategy]}):
        row = [target]
        for strategy in strategies:
            result = selections[strategy].get(target)
            row.append("-" if result is None else (", ".join(result.positive_codes()) or "-"))
        selection_body.append(row)

    if fmt == "jsonl":
        scores = (
            {
                "table": "scores",
                "model": label,
                "cells": {t: cells[t].mean for t in sorted(cells)},
                "overall": _overall(cells, targets),
            }
            for label, cells in rows
        )
        picks = (
            {"table": "selection", "target": target, **dict(zip(strategies, cols))}
            for target, *cols in selection_body
        )
        return jsonl_text([*scores, *picks])

    strategy_body = [[label, _fmt(_overall(cells, targets))] for label, cells in rows]
    sections = [
        ("Scores by target language", ["model", *targets, "overall"], score_body),
        ("Strategy comparison", ["model", "overall"], strategy_body),
    ]
    if selection_body:
        sections.append(("Selected sources", ["target", *strategies], selection_body))
    if fmt == "markdown":
        tables = [f"# {title}\n\n{_markdown_table(headers, body)}" for title, headers, body in sections]
    else:
        tables = [_tsv_table(headers, body) for _, headers, body in sections]
    return "\n\n".join(tables) + "\n"


def selection_results_to_jsonl(results: Mapping[str, SelectionResult], strategy: str) -> str:
    """A selections file: a ``# strategy=`` line, then one JSON object per
    target's result, in target order."""
    return f"# strategy={strategy}\n" + jsonl_text(
        {
            "target": r.target,
            "strategy": r.strategy,
            "mode": r.mode,
            "baseline": r.baseline_score,
            "positives": r.positive_sources,
            "ranking": r.ranking,
        }
        for _, r in sorted(results.items())
    )


def _selection_result(doc: dict) -> SelectionResult:
    if doc["strategy"] not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown strategy {doc['strategy']!r}, expected {FORWARD!r} or {BACKWARD!r}")
    if doc["mode"] not in (MULTILINGUAL, ZEROSHOT):
        raise ValueError(f"unknown mode {doc['mode']!r}, expected {MULTILINGUAL!r} or {ZEROSHOT!r}")
    return SelectionResult(
        target=check_code(doc["target"]),
        strategy=doc["strategy"],
        mode=doc["mode"],
        baseline_score=json_number(doc["baseline"], "baseline"),
        positive_sources=tuple((check_code(code), json_number(gain, "gain")) for code, gain in doc["positives"]),
        ranking=tuple((check_code(code), json_number(score, "score")) for code, score in doc["ranking"]),
    )


def selection_results_from_jsonl(path: str | Path) -> list[SelectionResult]:
    """Read a selections file written by ``selection_results_to_jsonl``:
    its results in file order."""
    return parse_jsonl(read_utf8(path), f"{path}: bad selections jsonl", _selection_result)
