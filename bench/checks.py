"""Correctness checks on the files the CLI writes.

They share no code with langselect: selections, matrices, journals and
TSVs are parsed here from their documented formats, and the selection
rule and weighted F1 are written out again. Each check raises
``CheckError`` on the first violation.
"""
from __future__ import annotations

import json
from pathlib import Path

LABELS = ("negative", "neutral", "positive")


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def read_journal(path: Path) -> list[tuple[str, int, float, int]]:
    """(cell key, seed, score, support) per journal record."""
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        _require(len(fields) >= 5, f"{path}: short journal record {line!r}")
        records.append((fields[1], int(fields[2]), float(fields[3]), int(fields[4])))
    return records


def expected_positives(doc: dict, strategy: str, threshold: float, top_k: int | None):
    """Positive sources and gains by the relative-threshold rule."""
    baseline = doc["baseline"]
    if strategy == "fwd":
        cutoff = baseline * (1 + threshold)
        kept = [(code, score - baseline) for code, score in doc["ranking"] if score > cutoff]
    else:
        cutoff = baseline * (1 - threshold)
        kept = [(code, baseline - score) for code, score in doc["ranking"] if score < cutoff]
    kept.sort(key=lambda pair: (-pair[1], pair[0]))
    return kept[:top_k] if top_k is not None else kept


def check_decisions(selections: Path, strategy: str, threshold: float, top_k: int | None) -> None:
    """Each target's positives and gains follow from its baseline and
    ranking scores, and the ranking is ordered best-first."""
    for doc in read_jsonl(selections):
        want = expected_positives(doc, strategy, threshold, top_k)
        got = [(code, gain) for code, gain in doc["positives"]]
        _require(
            [c for c, _ in got] == [c for c, _ in want],
            f"{doc['target']}: positives {[c for c, _ in got]} != recomputed {[c for c, _ in want]}",
        )
        for (code, gain), (_, expect) in zip(got, want):
            _require(abs(gain - expect) <= 1e-12, f"{doc['target']}: gain of {code} {gain} != {expect}")
        sign = -1 if strategy == "fwd" else 1
        order = sorted(doc["ranking"], key=lambda pair: (sign * pair[1], pair[0]))
        _require(order == doc["ranking"], f"{doc['target']}: ranking is not ordered best-first")


def check_counts(
    journal: Path, selections: Path, selected: Path, *, languages: tuple[str, ...],
    targets: tuple[str, ...], seeds: tuple[int, ...], strategy: str,
) -> int:
    """Cells and seeds match the plan for N languages; returns the job count.

    Each target's plan has N cells (its baseline and N-1 pair or
    leave-one-out cells). Select then scores each target's selected set,
    the target plus its positives: uncapped, so a new cell, in a backward
    run; the baseline or a pair cell the plan holds in a forward run with
    --top-k 1.
    """
    n = len(languages)
    docs = read_jsonl(selections)
    _require(sorted(d["target"] for d in docs) == sorted(targets),
             f"selections cover {[d['target'] for d in docs]}, expected {list(targets)}")
    for doc in docs:
        ranked = sorted(code for code, _ in doc["ranking"])
        _require(ranked == sorted(c for c in languages if c != doc["target"]),
                 f"{doc['target']}: ranking covers {ranked}, expected the other {n - 1} languages")
    extra = len(targets) if strategy == "bwd" else 0
    records = read_journal(journal)
    cells: dict[str, set[int]] = {}
    for key, seed, _, _ in records:
        cells.setdefault(key, set()).add(seed)
    expect_cells = len(targets) * n + extra
    _require(len(cells) == expect_cells, f"journal has {len(cells)} cells, expected {expect_cells}")
    _require(all(s == set(seeds) for s in cells.values()), "a journal cell lacks a seed or has an extra one")
    _require(len(records) == expect_cells * len(seeds),
             f"journal has {len(records)} records, expected {expect_cells * len(seeds)}")
    entries = read_jsonl(selected)
    _require(len(entries) == len(targets),
             f"selected-set matrix has {len(entries)} cells, expected {len(targets)}")
    for entry in entries:
        _require(sorted(entry["per_seed"]) == sorted(str(s) for s in seeds),
                 f"selected cell for {entry['target']} has seeds {sorted(entry['per_seed'])}")
    return len(records)


def check_ranges(journal: Path, selections: Path, selected: Path) -> None:
    """Every score lies in [0, 1]."""
    scores = [(f"journal {key}/{seed}", score) for key, seed, score, _ in read_journal(journal)]
    for doc in read_jsonl(selections):
        scores.append((f"{doc['target']} baseline", doc["baseline"]))
        scores.extend((f"{doc['target']} ranking {c}", s) for c, s in doc["ranking"])
    for entry in read_jsonl(selected):
        scores.extend((f"{entry['target']} selected seed {s}", v) for s, v in entry["per_seed"].items())
        scores.append((f"{entry['target']} selected mean", entry["mean"]))
    for where, score in scores:
        _require(0.0 <= score <= 1.0, f"{where}: score {score} outside [0, 1]")


def check_no_conflicting(selections: Path, conflicting: dict[str, frozenset[str]]) -> None:
    """No language planted with a conflicting label mapping is selected."""
    for doc in read_jsonl(selections):
        bad = sorted(c for c, _ in doc["positives"] if c in conflicting.get(doc["target"], ()))
        _require(not bad, f"{doc['target']}: conflicting languages selected: {bad}")


def read_tsv_labels(path: Path, label_column: int) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {f[0]: f[label_column] for f in (line.split("\t") for line in lines if line.strip())}


def weighted_f1(gold: dict[str, str], predicted: dict[str, str]) -> float:
    _require(set(gold) == set(predicted), "predictions do not cover the gold ids exactly")
    total = 0.0
    for label in LABELS:
        tp = sum(1 for i, g in gold.items() if g == label and predicted[i] == label)
        fp = sum(1 for i, g in gold.items() if g != label and predicted[i] == label)
        support = sum(1 for g in gold.values() if g == label)
        if support == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1 * support
    return total / len(gold)


def check_retrained(baseline: float, gold_tsv: Path, prediction_tsvs: list[Path]) -> None:
    """The mean weighted F1 of the retrained baseline cell over seeds
    equals the baseline score select reported."""
    gold = read_tsv_labels(gold_tsv, 2)
    scores = [weighted_f1(gold, read_tsv_labels(p, 1)) for p in prediction_tsvs]
    mean = sum(scores) / len(scores)
    _require(abs(mean - baseline) <= 1e-9, f"retrained baseline F1 {mean!r} != reported {baseline!r}")


def check_identical(reference: dict[str, bytes], actual: dict[str, bytes]) -> None:
    """A warm rerun reproduces the cold outputs byte for byte, and the
    journal does not grow."""
    for name, data in reference.items():
        _require(actual.get(name) == data, f"{name} differs from the cold fill")
