"""Command-line interface.

Verbs: ingest, train, score, matrix, select, ensemble, report, predict.
Exit codes: 0 success, 1 usage error, 2 data error, 3 experiment failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import ensemble as ens
from . import selection as sel
from .corpus import dedup_dev, save_labeled_tsv
from .errors import CorpusError, EnsembleError, HarnessError, MetricsError, SelectionError, TextModelError
from .harness import (
    CorpusStore,
    ExperimentSpec,
    PlanCell,
    ScoreCache,
    ScoreMatrix,
    adaptation_stats,
    build_training_set,
    load_config,
    render_report,
    run_matrix,
    selection_results_to_jsonl,
)
from .harness.report import FORMATS
from .textmodel import config_with_seed, fine_tune, load_model, predict_texts, save_model

logger = logging.getLogger(__name__)

_MODES = {"multi": sel.MULTILINGUAL, "multilingual": sel.MULTILINGUAL, "zeroshot": sel.ZEROSHOT}
_STRATEGIES = {"fwd": sel.FORWARD, "forward": sel.FORWARD, "bwd": sel.BACKWARD, "backward": sel.BACKWARD}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"bad seed list {text!r}, expected comma-separated integers") from None
    if not seeds:
        raise _UsageError("seed list is empty")
    if len(set(seeds)) != len(seeds):
        raise _UsageError(f"seed list {text!r} repeats a seed")
    return seeds


def _build_parser() -> _Parser:
    parser = _Parser(prog="langselect", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", required=True, help="harness config YAML")
        p.add_argument("--seed-list", type=_seed_list, default=None, help="comma-separated seeds")

    p = sub.add_parser("ingest", help="validate, normalize, dedup; write devstar TSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="train one spec and save the model")
    add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True, help="comma-separated language codes")
    p.add_argument("--adaptation", default=None)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score one spec over seeds (a one-cell matrix)")
    add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--adaptation", default=None)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--eval-split", choices=("devstar", "dev", "test"), default=None)

    p = sub.add_parser("matrix", help="run the NxN selection plan")
    add_common(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--out", required=True, help="matrix jsonl output")

    p = sub.add_parser("select", help="run source selection for every target")
    add_common(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--out", default=None, help="selections jsonl output")
    p.add_argument("--matrix-out", default=None, help="jsonl of the selected-set cells")

    p = sub.add_parser("ensemble", help="majority-vote over prediction files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="render report tables")
    p.add_argument("--config", required=True)
    p.add_argument("--matrix", action="append", required=True, help="matrix jsonl (repeatable)")
    p.add_argument("--selections", action="append", default=[], help="selections jsonl (repeatable)")
    p.add_argument("--format", choices=FORMATS, default="markdown")
    p.add_argument("--out", default=None)

    p = sub.add_parser("predict", help="emit id<TAB>label TSV for a test file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="TSV with id and text columns")
    p.add_argument("--out", required=True)
    p.add_argument("--probs", action="store_true", help="include probability columns")
    return parser


def _context(args: argparse.Namespace):
    cfg = load_config(args.config)
    store = CorpusStore.from_config(cfg)
    cache = ScoreCache(cfg.cache_path())
    seeds = args.seed_list if getattr(args, "seed_list", None) else cfg.seeds
    return cfg, store, cache, seeds


def _spec_from_args(args: argparse.Namespace, cfg, seed: int) -> ExperimentSpec:
    sources = tuple(s.strip() for s in args.sources.split(",") if s.strip())
    if not sources:
        raise _UsageError("--sources must name at least one language")
    return ExperimentSpec(
        target=args.target,
        sources=sources,
        mode=_MODES[args.mode] if args.mode else cfg.selection.mode,
        adaptation=(args.adaptation or cfg.adaptation).lower(),
        learner=cfg.learner,
        seed=seed,
        sample_cap=args.cap,
        eval_split=getattr(args, "eval_split", None) or cfg.eval_split,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    store = CorpusStore.from_config(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for lf in sorted(cfg.languages, key=lambda l: l.language.code):
        code = lf.language.code
        train = store.split(code, "train")
        dev = store.split(code, "dev")
        if train is None or dev is None:
            print(f"{code}\ttrain={len(train) if train else 0}\tdev={len(dev) if dev else 0}\tdevstar=skipped")
            continue
        devstar = dedup_dev(train, dev)
        save_labeled_tsv(devstar, out_dir / f"{code}_devstar.tsv")
        print(
            f"{code}\ttrain={len(train)}\tdev={len(dev)}\tdevstar={len(devstar)}"
            f"\tremoved={len(dev) - len(devstar)}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, store, _, seeds = _context(args)
    seed = args.seed if args.seed is not None else seeds[0]
    spec = _spec_from_args(args, cfg, seed)
    train_sets = build_training_set(spec, store)
    stats = adaptation_stats(spec, store)
    model = fine_tune(stats, train_sets, config_with_seed(spec.learner, spec.seed))
    save_model(model, args.out)
    print(f"saved\t{args.out}\tfinal_loss={model.loss_history[-1]!r}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    cfg, store, cache, seeds = _context(args)
    spec = _spec_from_args(args, cfg, seeds[0])
    matrix = run_matrix(
        [PlanCell(spec.target, spec.sources, spec.sample_cap)],
        store,
        seeds=seeds,
        learner=spec.learner,
        mode=spec.mode,
        adaptation=spec.adaptation,
        eval_split=spec.eval_split,
        cache=cache,
        parallelism=cfg.parallelism,
    )
    (entry,) = matrix.entries.values()
    for seed in sorted(entry.per_seed):
        print(f"seed_{seed}={entry.per_seed[seed]!r}")
    print(f"mean={entry.mean!r}")
    print(f"std={entry.std!r}")
    print(f"support={entry.support}")
    return 0


def _tasks(cfg, store) -> list[sel.SelectionTask]:
    """One selection task per language with an eval split, sorted by
    code; its candidates are every other language with train data."""
    eval_split = cfg.eval_split
    trainable = sorted(lf.language.code for lf in cfg.languages if store.has_train(lf.language.code))
    targets = sorted(
        lf.language.code for lf in cfg.languages if store.has_eval(lf.language.code, eval_split)
    )
    if not targets:
        raise HarnessError(f"no language has a {eval_split} split to evaluate on")
    tasks = []
    for t in targets:
        cands = [c for c in trainable if c != t]
        if not cands:
            raise HarnessError(f"target {t!r} has no candidate source languages with train data")
        tasks.append(
            sel.SelectionTask(target=store.language(t), candidates=tuple(store.language(c) for c in cands))
        )
    return tasks


def _selection_config(args: argparse.Namespace, cfg, seeds) -> sel.SelectionConfig:
    top_k = getattr(args, "top_k", None)
    return replace(
        cfg.selection,
        mode=_MODES[args.mode] if args.mode else cfg.selection.mode,
        seeds=tuple(seeds),
        top_k=cfg.selection.top_k if top_k is None else top_k,
    )


def _run_cells(args: argparse.Namespace, cfg, store, cache, sel_cfg, cells) -> ScoreMatrix:
    return run_matrix(
        cells,
        store,
        seeds=sel_cfg.seeds,
        learner=cfg.learner,
        mode=sel_cfg.mode,
        adaptation=cfg.adaptation,
        eval_split=cfg.eval_split,
        cache=cache,
        parallelism=args.parallelism or cfg.parallelism,
    )


def _cmd_matrix(args: argparse.Namespace) -> int:
    cfg, store, cache, seeds = _context(args)
    sel_cfg = _selection_config(args, cfg, seeds)
    strategy = _STRATEGIES[args.strategy]
    cells = [cell for task in _tasks(cfg, store) for cell in sel.plan(task, sel_cfg, strategy)]
    matrix = _run_cells(args, cfg, store, cache, sel_cfg, cells)
    Path(args.out).write_text(matrix.to_jsonl(), encoding="utf-8")
    print(f"cells={len(matrix.entries)}\tseeds={len(seeds)}\tout={args.out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    cfg, store, cache, seeds = _context(args)
    sel_cfg = _selection_config(args, cfg, seeds)
    strategy = _STRATEGIES[args.strategy]
    tasks = _tasks(cfg, store)
    # One run over every target's plan; deciding then only reads its table.
    cells = [cell for task in tasks for cell in sel.plan(task, sel_cfg, strategy)]
    scores = _run_cells(args, cfg, store, cache, sel_cfg, cells).means()
    decide = sel.forward_select if strategy == sel.FORWARD else sel.backward_select
    results: dict[str, sel.SelectionResult] = {}
    for task in tasks:
        results[task.target.code] = decide(task, scores, sel_cfg)
        print(results[task.target.code].to_row())

    # Score the selected training sets so reports can show their rows.
    selected_cells = [
        PlanCell(target, result.selected_sources(), None)
        for target, result in sorted(results.items())
        if result.selected_sources()
    ]
    selected_entries: dict[str, object] = {}
    if selected_cells:
        sel_matrix = _run_cells(args, cfg, store, cache, sel_cfg, selected_cells)
        selected_entries = sel_matrix.entries
        if args.matrix_out:
            Path(args.matrix_out).write_text(sel_matrix.to_jsonl(), encoding="utf-8")
    if args.out:
        Path(args.out).write_text(
            f"# strategy={strategy}\n" + selection_results_to_jsonl(results), encoding="utf-8"
        )
    logger.info("selected %d targets, %d selected-set cells", len(results), len(selected_entries))
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    ids, pool = ens.pool_from_files(args.inputs)
    labels = ens.majority_vote(pool)
    ens.write_predictions_tsv(args.out, ids, [(label, (0.0, 0.0, 0.0)) for label in labels])
    print(f"examples={len(ids)}\tseeds={len(pool.per_seed)}\tout={args.out}")
    return 0


def _read_selections(paths: list[str]) -> dict[str, dict[str, sel.SelectionResult]]:
    import json

    from .corpus import LanguageCode

    out: dict[str, dict[str, sel.SelectionResult]] = {}
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            doc = json.loads(line)
            result = sel.SelectionResult(
                target=LanguageCode(doc["target"]),
                strategy=doc["strategy"],
                mode=doc["mode"],
                baseline_score=float(doc["baseline"]),
                positive_sources=tuple(
                    (LanguageCode(code), float(gain)) for code, gain in doc["positives"]
                ),
                ranking=tuple((LanguageCode(code), float(score)) for code, score in doc["ranking"]),
            )
            # Zero-shot results get their own column, apart from multilingual ones.
            column = result.strategy if result.mode == sel.MULTILINGUAL else f"{result.strategy} {result.mode}"
            out.setdefault(column, {})[result.target.code] = result
    return out


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    entries: dict = {}
    for path in args.matrix:
        text = Path(path).read_text(encoding="utf-8")
        entries.update(ScoreMatrix.from_jsonl(text).entries)
    matrix = ScoreMatrix(entries=entries)
    selections = _read_selections(args.selections)
    languages = [lf.language.code for lf in cfg.languages]
    document = render_report(matrix, selections, languages, fmt=args.format)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
    else:
        sys.stdout.write(document)
    return 0


def _read_eval_rows(path: Path) -> tuple[list[str], list[str]]:
    """Read (ids, texts) from a TSV whose rows have at least id and text."""
    from .corpus import normalize_text

    if not path.exists():
        raise CorpusError(f"file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty file, expected a header line")
    ids: list[str] = []
    texts: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise CorpusError(f"{path}: malformed row at line {lineno}: expected id<TAB>text")
        ids.append(fields[0])
        texts.append(normalize_text(fields[1]))
    return ids, texts


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ids, texts = _read_eval_rows(Path(args.input))
    predictions = predict_texts(model, texts)
    ens.write_predictions_tsv(args.out, ids, predictions, include_probs=args.probs)
    print(f"examples={len(ids)}\tout={args.out}")
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "score": _cmd_score,
    "matrix": _cmd_matrix,
    "select": _cmd_select,
    "ensemble": _cmd_ensemble,
    "report": _cmd_report,
    "predict": _cmd_predict,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.verb](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (CorpusError, MetricsError, EnsembleError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (TextModelError, SelectionError, HarnessError) as e:
        print(f"experiment error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
