"""Self-test of the benchmark's correctness checks at tiny size.

    python3 bench/selftest.py

Runs tiny forward, backward and warm-rerun workloads through the same
code as bench/run.py, shows that every check passes on the real
outputs, then tampers with one output at a time and shows that the
check guarding it fails. Exits 0 only if all of that holds.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import run
from checks import CheckError, read_jsonl
from universes import PLANS

TINY_LEARNER = {"ngram_min": 1, "ngram_max": 3, "hash_buckets": 1 << 10, "epochs": 3}
TINY = {"scale": 0.002, "min_train": 8, "target_train": 16, "target_dev": 30, "learner": TINY_LEARNER}

failures: list[str] = []


def expect(name: str, should_fail: bool, action) -> None:
    try:
        action()
        failed = False
    except CheckError as e:
        failed = True
        detail = str(e)
    if failed != should_fail:
        failures.append(f"{name}: check {'passed' if not failed else 'failed: ' + detail}")
    print(f"selftest: {name}: {'caught' if failed else 'passed'}", file=sys.stderr)


def tampered(path: Path, edit, check) -> None:
    """Run ``check`` with ``path`` edited, then restore the file."""
    original = path.read_bytes()
    try:
        edit(path)
        check()
    finally:
        path.write_bytes(original)


def edit_selection(change):
    def edit(path: Path) -> None:
        docs = read_jsonl(path)
        change(docs[0])
        path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs), encoding="utf-8")
    return edit


def edit_journal(change):
    def edit(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(change(lines)), encoding="utf-8")
    return edit


def flip_score(lines: list[str]) -> list[str]:
    fields = lines[0].split("\t")
    fields[3] = repr(1.0 + float(fields[3]))
    return ["\t".join(fields), *lines[1:]]


def checked_round(bench: run.Workload) -> None:
    bench.check_round(bench.run_round(False))


def cold_workload(name: str) -> None:
    plan = replace(PLANS[name], name=f"selftest-{name}", **TINY)
    bench = run.Workload(plan, seed=1, setups=1)
    bench.setup()
    expect(f"{name}: real outputs", False, lambda: (checked_round(bench), bench.retrain_check()))
    out = bench.dir / "round"
    selections, selected, journal = out / "selections.jsonl", out / "selected_cells.jsonl", out / "cache" / "scores.journal"

    def decisions():
        run.checks.check_decisions(selections, plan.strategy, run.THRESHOLD, plan.top_k)

    def counts():
        run.checks.check_counts(journal, selections, selected, languages=plan.languages,
                                targets=plan.targets, seeds=plan.seeds, strategy=plan.strategy)

    def ranges():
        run.checks.check_ranges(journal, selections, selected)

    def last_candidate(doc):
        code, score = doc["ranking"][-1]
        doc["positives"] = [[code, 0.5]]

    def swap_ranking(doc):
        doc["ranking"][0], doc["ranking"][-1] = doc["ranking"][-1], doc["ranking"][0]

    def shift_baseline(doc):
        doc["baseline"] += 0.01

    expect(f"{name}: selections with an invented positive", True,
           lambda: tampered(selections, edit_selection(last_candidate), decisions))
    expect(f"{name}: selections with a reordered ranking", True,
           lambda: tampered(selections, edit_selection(swap_ranking), decisions))
    expect(f"{name}: journal missing a record", True,
           lambda: tampered(journal, edit_journal(lambda lines: lines[:-1]), counts))
    expect(f"{name}: selections missing a candidate", True,
           lambda: tampered(selections, edit_selection(lambda d: d["ranking"].pop()), counts))
    expect(f"{name}: journal score flipped above 1", True,
           lambda: tampered(journal, edit_journal(flip_score), ranges))
    expect(f"{name}: baseline no longer the retrained score", True,
           lambda: tampered(selections, edit_selection(shift_baseline), bench.retrain_check))
    if plan.strategy == "fwd":
        target = plan.targets[0]
        bad = sorted(plan.conflicting(target))[0]

        def select_conflicting(doc):
            doc["positives"] = [[bad, 0.1]]

        expect(f"{name}: conflicting language selected", True, lambda: tampered(
            selections, edit_selection(select_conflicting),
            lambda: run.checks.check_no_conflicting(selections, {target: plan.conflicting(target)})))


def warm_workload() -> None:
    plan = replace(PLANS["warm-rerun"], name="selftest-warm-rerun", **TINY)
    bench = run.Workload(plan, seed=1, setups=1)
    bench.setup()
    expect("warm-rerun: real outputs", False, lambda: checked_round(bench))
    journal = bench.universe / "cache" / "scores.journal"
    expect("warm-rerun: journal grew", True, lambda: tampered(
        journal, edit_journal(lambda lines: [*lines, lines[-1]]), lambda: checked_round(bench)))
    for name in ("selections.jsonl", "report.md"):
        original = bench.reference[name]
        bench.reference[name] = original.replace(b"0", b"1", 1)
        try:
            expect(f"warm-rerun: {name} differs from the fill", True, lambda: checked_round(bench))
        finally:
            bench.reference[name] = original


def main() -> int:
    cold_workload("fwd-tapt-serial")
    cold_workload("bwd-tapt-parallel")
    warm_workload()
    for failure in failures:
        print(f"selftest: FAILED {failure}", file=sys.stderr)
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
