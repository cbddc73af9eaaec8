"""Command-line interface.

Verbs: ingest, train, score, matrix, select, ensemble, report, predict.
Exit codes: 0 success, 1 usage error, 2 data error (including an OSError
on any path it reads or writes), 3 experiment failure.
"""
from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import ensemble as ens
from . import selection as sel
from .corpus import load_texts_tsv, read_utf8, save_labeled_tsv
from .errors import CorpusError, EnsembleError, HarnessError, MetricsError, SelectionError, TextModelError
from .harness.cache import FactsMemo, ScoreCache
from .harness.config import load_config
from .harness.experiments import (
    EVAL_SPLITS,
    CorpusStore,
    ExperimentSpec,
    ScoreMatrix,
    adaptation_stats,
    run_matrix,
    train_model,
    warn_cap_shortfalls,
)
from .harness.report import FORMATS, render_report, selection_results_from_jsonl, selection_results_to_jsonl

# Not __name__, which is "__main__" under ``python -m langselect.cli``.
logger = logging.getLogger("langselect.cli")

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
    p.add_argument("--config", required=True, help="harness config YAML")
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True, help="comma-separated language codes")
    p.add_argument("--adaptation", default=None)
    p.add_argument("--seed", type=int, default=None, help="default: the config's first seed")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score one spec over seeds (a one-cell matrix)")
    add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--adaptation", default=None)
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--eval-split", choices=EVAL_SPLITS, default=None)

    p = sub.add_parser("matrix", help="run the NxN selection plan")
    add_common(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--parallelism", type=_positive_int, default=None, help="no effect; accepted for existing scripts")
    p.add_argument("--out", required=True, help="matrix jsonl output")

    p = sub.add_parser("select", help="run source selection for every target")
    add_common(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--parallelism", type=_positive_int, default=None, help="no effect; accepted for existing scripts")
    p.add_argument("--out", default=None, help="selections jsonl output")
    p.add_argument("--matrix-out", default=None, help="jsonl of the selected-set cells (trains those the plan did not score)")

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


def _store(cfg) -> CorpusStore:
    """The store of every verb that reads data: split facts are looked up
    in, and appended to, the cache directory's facts journal."""
    return CorpusStore.from_config(cfg, FactsMemo(cfg.facts_path()))


def _context(args: argparse.Namespace):
    cfg = load_config(args.config)
    store = _store(cfg)
    cache = ScoreCache(cfg.cache_path())
    seeds = args.seed_list if getattr(args, "seed_list", None) else cfg.seeds
    return cfg, store, cache, seeds


def _spec_from_args(args: argparse.Namespace, cfg) -> ExperimentSpec:
    sources = tuple(s.strip() for s in args.sources.split(",") if s.strip())
    if not sources:
        raise _UsageError("--sources must name at least one language")
    declared = {lf.code for lf in cfg.languages}
    for code in (args.target, *sources):
        if code not in declared:
            raise HarnessError(f"language {code!r} is not declared in {args.config}")
    return ExperimentSpec(
        target=args.target,
        sources=sources,
        adaptation=(args.adaptation or cfg.adaptation).lower(),
        learner=cfg.learner,
        sample_cap=args.cap,
        eval_split=getattr(args, "eval_split", None) or "devstar",
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = _store(cfg)
    for lf in sorted(cfg.languages, key=lambda l: l.code):
        code = lf.code
        train, dev, devstar = (store.split(code, split) for split in ("train", "dev", "devstar"))
        counts = f"{code}\ttrain={len(train or ())}\tdev={len(dev or ())}"
        if devstar is None:
            print(f"{counts}\tdevstar=skipped")
            continue
        save_labeled_tsv(devstar, out_dir / f"{code}_devstar.tsv")
        print(f"{counts}\tdevstar={len(devstar)}\tremoved={len(dev) - len(devstar)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .textmodel import save_model

    _check_out_dirs(args.out)
    cfg, store, _, _ = _context(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    spec = _spec_from_args(args, cfg)
    warn_cap_shortfalls([spec], store)
    model = train_model(spec, store, seed, adaptation_stats(spec, store))
    save_model(model, args.out)
    print(f"saved\t{args.out}\tfinal_loss={model.loss_history[-1]!r}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    cfg, store, cache, seeds = _context(args)
    spec = _spec_from_args(args, cfg)
    matrix = run_matrix(
        [sel.PlanCell(spec.target, spec.sources, spec.sample_cap)],
        store,
        seeds=seeds,
        learner=spec.learner,
        adaptation=spec.adaptation,
        eval_split=spec.eval_split,
        cache=cache,
    )
    (entry,) = matrix.entries.values()
    for seed in sorted(entry.per_seed):
        print(f"seed_{seed}={entry.per_seed[seed]!r}")
    print(f"mean={entry.mean!r}")
    print(f"std={entry.std!r}")
    print(f"support={entry.support}")
    return 0


def _with_rows(cfg, store, split: str) -> list[str]:
    """The sorted codes of the configured languages whose ``split`` holds
    rows, read off the store's facts: the one answer that ``select``,
    ``matrix`` and ``report`` take to which languages can train
    (``"train"``), and the plans to which can be targets (``"devstar"``)."""
    return sorted(lf.code for lf in cfg.languages if store.count(lf.code, split))


def _tasks(cfg, store, mode: str) -> list[sel.SelectionTask]:
    """One selection task per language with devstar rows, sorted by code;
    its candidates are every other language with train rows. A language
    that is no target is named by one warning, read off the store's
    facts, so a warm run logs what a cold one does: one with a dev file
    but no devstar rows, and, since a multilingual plan trains on its
    target's own rows, there one without train rows."""
    trainable = _with_rows(cfg, store, "train")
    targets = _with_rows(cfg, store, "devstar")
    for t in sorted({lf.code for lf in cfg.languages if lf.dev is not None} - set(targets)):
        logger.warning("%s: no devstar rows, so it is not a target", t)
    if mode == sel.MULTILINGUAL:
        for t in sorted(set(targets) - set(trainable)):
            logger.warning("%s: no train rows, so it is not a target of a multilingual plan", t)
        targets = [t for t in targets if t in trainable]
    if not targets:
        raise HarnessError("no language has a devstar split to evaluate on")
    tasks = []
    for t in targets:
        cands = tuple(c for c in trainable if c != t)
        if not cands:
            raise HarnessError(f"target {t!r} has no candidate source languages with train data")
        tasks.append(sel.SelectionTask(target=t, candidates=cands))
    return tasks


def _selection_config(args: argparse.Namespace, cfg) -> sel.SelectionConfig:
    top_k = getattr(args, "top_k", None)
    return replace(
        cfg.selection,
        mode=_MODES[args.mode] if args.mode else cfg.selection.mode,
        top_k=cfg.selection.top_k if top_k is None else top_k,
    )


def _check_out_dirs(*paths: str | None) -> None:
    """Raise the error that writing an output that is a directory, or
    that lies in a missing one, raises (``OSError`` picks its subclass
    by errno), before any data file is read rather than after every
    cell trains."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if Path(path).is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def _score_plan(args: argparse.Namespace, *outs: str | None):
    """Score the plan of ``args.strategy`` for every target in one run,
    once each output's directory is checked. Returns the tasks, the
    selection config, the seeds, the plan's matrix and the runner, which
    scores further cells with the same store, cache and seeds."""
    _check_out_dirs(*outs)
    cfg, store, cache, seeds = _context(args)
    sel_cfg = _selection_config(args, cfg)
    tasks = _tasks(cfg, store, sel_cfg.mode)
    cells = [cell for task in tasks for cell in sel.plan(task, sel_cfg, _STRATEGIES[args.strategy])]
    run = partial(run_matrix, store=store, seeds=seeds, learner=cfg.learner, adaptation=cfg.adaptation, cache=cache)
    return tasks, sel_cfg, seeds, run(cells), run


def _cmd_matrix(args: argparse.Namespace) -> int:
    _, _, seeds, matrix, _ = _score_plan(args, args.out)
    Path(args.out).write_text(matrix.to_jsonl(), encoding="utf-8")
    print(f"cells={len(matrix.entries)}\tseeds={len(seeds)}\tout={args.out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    strategy = _STRATEGIES[args.strategy]
    tasks, sel_cfg, _, matrix, run = _score_plan(args, args.out, args.matrix_out)
    scores = matrix.means()
    decide = sel.forward_select if strategy == sel.FORWARD else sel.backward_select
    results: dict[str, sel.SelectionResult] = {}
    for task in tasks:
        results[task.target] = decide(task, scores, sel_cfg)
        print(results[task.target].to_row())

    if args.matrix_out:
        # Score each target's selected training set, uncapped, for the
        # report's rows; a set the plan already scored is read back from
        # the cache. The file is written even when nothing was selected,
        # so it never holds an earlier run's cells.
        selected = [sel.PlanCell(t, s, None) for t, r in sorted(results.items()) if (s := r.selected_sources())]
        Path(args.matrix_out).write_text(run(selected).to_jsonl(), encoding="utf-8")
    if args.out:
        Path(args.out).write_text(selection_results_to_jsonl(results, strategy), encoding="utf-8")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    ids, pool = ens.pool_from_files(args.inputs)
    labels = ens.majority_vote(pool)
    ens.write_predictions_tsv(args.out, ids, [(label, (0.0, 0.0, 0.0)) for label in labels])
    print(f"examples={len(ids)}\tseeds={len(pool.per_seed)}\tout={args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    cfg = load_config(args.config)
    entries: dict = {}
    for path in args.matrix:
        entries.update(ScoreMatrix.from_jsonl(read_utf8(path), path).entries)
    matrix = ScoreMatrix(entries=entries)
    selections: dict[str, dict[str, sel.SelectionResult]] = {}
    for path in args.selections:
        for result in selection_results_from_jsonl(path):
            # Zero-shot results get their own column, apart from multilingual ones.
            column = result.strategy if result.mode == sel.MULTILINGUAL else f"{result.strategy} {result.mode}"
            selections.setdefault(column, {})[result.target] = result
    store = _store(cfg)
    languages = [lf.code for lf in cfg.languages]
    document = render_report(matrix, selections, languages, _with_rows(cfg, store, "train"), fmt=args.format)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
    else:
        sys.stdout.write(document)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .textmodel import load_model, predict_texts

    model = load_model(args.model)
    ids, texts = load_texts_tsv(args.input)
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
    # The learner makes no BLAS call, so numpy, imported on the first
    # cache miss, need not start OpenBLAS worker threads that spin.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except OSError as e:
        # A path the run cannot read or write: the cache directory, a
        # journal, an output file or directory.
        print(f"data error: {e.filename}: {e.strerror}" if e.filename else f"data error: {e}", file=sys.stderr)
        return 2
    except (TextModelError, SelectionError, HarnessError) as e:
        print(f"experiment error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
