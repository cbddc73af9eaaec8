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

import json
from typing import Mapping, Sequence

from ..errors import HarnessError
from ..selection import MULTILINGUAL, ZEROSHOT, SelectionResult
from .experiments import MatrixEntry, ScoreMatrix

FORMATS = ("markdown", "tsv", "jsonl")


def _composition(entry: MatrixEntry, all_codes: tuple[str, ...]) -> str | None:
    """Name of a training composition, which also names its mode, or None
    for selection plumbing cells (pairs / leave-one-out sets) that would
    flood the table."""
    if entry.sources == (entry.target,):
        return "monolingual"
    if entry.mode == MULTILINGUAL and set(entry.sources) == set(all_codes):
        return "multilingual"
    if entry.mode == ZEROSHOT and set(entry.sources) == set(all_codes) - {entry.target}:
        return "zeroshot"
    return None


def _row_label(composition: str, entry: MatrixEntry) -> str:
    """A row's label: the composition, then the sample cap and the
    adaptation when present, so cells differing in either never share a row."""
    label = composition if entry.sample_cap is None else f"{composition}, cap {entry.sample_cap}"
    return label if entry.adaptation == "none" else f"{label} + {entry.adaptation}"


def collect_rows(
    matrix: ScoreMatrix,
    selections: Mapping[str, Mapping[str, SelectionResult]],
    languages: Sequence[str],
) -> tuple[list[str], list[tuple[str, dict[str, MatrixEntry]]]]:
    """Group matrix entries into report rows.

    ``selections`` maps a column name (the strategy, "forward"/"backward",
    or a strategy and mode) to per-target results; the rows for
    selected-source models are matched by looking up the uncapped entry of
    the result's mode trained on exactly the selected set.
    """
    all_codes = tuple(sorted(languages))
    targets = list(all_codes)
    rows: dict[str, dict[str, MatrixEntry]] = {}
    # Uncapped cells by (target, sources, mode), where selected sets are
    # looked up. Keys are visited sorted, and the first match wins, so
    # both tables are deterministic.
    uncapped: dict[tuple[str, tuple[str, ...], str], MatrixEntry] = {}
    for key in sorted(matrix.entries):
        entry = matrix.entries[key]
        if entry.sample_cap is None:
            uncapped.setdefault((entry.target, entry.sources, entry.mode), entry)
        composition = _composition(entry, all_codes)
        if composition is not None:
            rows.setdefault(_row_label(composition, entry), {}).setdefault(entry.target, entry)
    strategy_tags = {"forward": "fwd", "backward": "bwd"}
    for column in sorted(selections):
        for target, result in sorted(selections[column].items()):
            entry = uncapped.get((target, result.selected_sources(), result.mode))
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
    fmt: str = "markdown",
) -> str:
    """Render the full report document in the requested format."""
    if fmt not in FORMATS:
        raise HarnessError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    targets, rows = collect_rows(matrix, selections, languages)

    score_headers = ["model", *targets, "overall"]
    score_body = []
    for label, cells in rows:
        row = [label]
        row.extend(_fmt(cells[t].mean) if t in cells else "-" for t in targets)
        row.append(_fmt(_overall(cells, targets)))
        score_body.append(row)

    strategy_headers = ["model", "overall"]
    strategy_body = [[label, _fmt(_overall(cells, targets))] for label, cells in rows]

    selection_headers = ["target", *sorted(selections)]
    selection_body = []
    strategies = sorted(selections)
    all_targets = sorted({t for strategy in strategies for t in selections[strategy]})
    for target in all_targets:
        row = [target]
        for strategy in strategies:
            result = selections[strategy].get(target)
            if result is None:
                row.append("-")
            else:
                row.append(", ".join(result.positive_codes()) or "-")
        selection_body.append(row)

    if fmt == "jsonl":
        lines = []
        for label, cells in rows:
            lines.append(
                json.dumps(
                    {
                        "table": "scores",
                        "model": label,
                        "cells": {t: cells[t].mean for t in sorted(cells)},
                        "overall": _overall(cells, targets),
                    },
                    sort_keys=True,
                )
            )
        for target, *cols in selection_body:
            lines.append(
                json.dumps(
                    {
                        "table": "selection",
                        "target": target,
                        **{s: c for s, c in zip(strategies, cols)},
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    table = _markdown_table if fmt == "markdown" else _tsv_table
    sections = []
    if fmt == "markdown":
        sections.append("# Scores by target language\n\n" + table(score_headers, score_body))
        sections.append("# Strategy comparison\n\n" + table(strategy_headers, strategy_body))
        if selection_body:
            sections.append("# Selected sources\n\n" + table(selection_headers, selection_body))
    else:
        sections.append(table(score_headers, score_body))
        sections.append(table(strategy_headers, strategy_body))
        if selection_body:
            sections.append(table(selection_headers, selection_body))
    return "\n\n".join(sections) + "\n"


def selection_results_to_jsonl(results: Mapping[str, SelectionResult]) -> str:
    """Serialize per-target selection results, one JSON object per line."""
    lines = []
    for target in sorted(results):
        r = results[target]
        lines.append(
            json.dumps(
                {
                    "target": r.target.code,
                    "strategy": r.strategy,
                    "mode": r.mode,
                    "baseline": r.baseline_score,
                    "positives": [[lang.code, gain] for lang, gain in r.positive_sources],
                    "ranking": [[lang.code, score] for lang, score in r.ranking],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
