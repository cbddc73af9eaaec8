"""Per-layer spans for a traced benchmark run.

``install`` replaces public langselect functions, at the module names
their callers resolve, with wrappers that time each call and count its
work. A span's self time is its duration minus the time of the wrapped
calls it made on the same thread. Spans are summed in memory and written
as one JSON object when the process ends.

The wrappers see only the process they are installed in: work that a
later version hands to worker processes would not show up here.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] += value

    def wrap(self, target: str, span: str, on_exit: Callable | None = None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method``; a missing name is
        skipped with a note so the trace survives refactors."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.notes.append(f"{target} not found; its span is skipped")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                with tracer._lock:
                    tracer.totals[f"{span}.wall"] += wall
                    tracer.totals[f"{span}.self"] += wall - children[0]
                    tracer.totals[f"{span}.calls"] += 1
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result, wall, cpu)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _fine_tune_exit(tr, args, kwargs, result, wall, cpu):
    train = _arg(args, kwargs, 1, "train")
    config = _arg(args, kwargs, 2, "config")
    datasets = [train] if hasattr(train, "examples") else list(train)
    rows = sum(len(ds) for ds in datasets)
    tr.add("fine_tune.epochs", config.epochs)
    tr.add("fine_tune.batch_steps", math.ceil(rows / config.batch_size) * config.epochs)


def _job_fine_tune_exit(tr, args, kwargs, result, wall, cpu):
    _fine_tune_exit(tr, args, kwargs, result, wall, cpu)
    tr.add("job.trained", 1)


def _rows_exit(key: str, index: int, name: str):
    def on_exit(tr, args, kwargs, result, wall, cpu):
        tr.add(key, len(_arg(args, kwargs, index, name)))
    return on_exit


def _pretrain_exit(tr, args, kwargs, result, wall, cpu):
    corpus = _arg(args, kwargs, 0, "corpus")
    datasets = [corpus] if hasattr(corpus, "examples") else list(corpus)
    tr.add("pretrain.docs", sum(len(ds) for ds in datasets))


def _job_exit(tr, args, kwargs, result, wall, cpu):
    tr.add("job.cpu", cpu)
    tr.add("job.wait", wall - cpu)
    if threading.current_thread() is not threading.main_thread():
        tr.add("job.pool_wall", wall)


def _run_matrix_exit(tr, args, kwargs, result, wall, cpu):
    tr.add("run_matrix.worker_s", kwargs.get("parallelism", 1) * wall)


def _loaded_exit(tr, args, kwargs, result, wall, cpu):
    tr.add("corpus.rows", len(result))


def _cache_init_exit(tr, args, kwargs, result, wall, cpu):
    tr.add("cache.records", len(args[0]))


def _cache_get_exit(tr, args, kwargs, result, wall, cpu):
    tr.add("cache.hits", result is not None)


def install() -> Tracer:
    tr = Tracer()
    ex = "langselect.harness.experiments"
    tr.wrap("langselect.cli:main", "cli")
    tr.wrap("langselect.cli:load_config", "config")
    tr.wrap("langselect.cli:render_report", "report")
    tr.wrap("langselect.cli:dedup_dev", "dedup")
    tr.wrap("langselect.cli:run_matrix", "run_matrix", _run_matrix_exit)
    tr.wrap("langselect.cli:fine_tune", "fine_tune", _fine_tune_exit)
    tr.wrap("langselect.cli:predict_texts", "predict", _rows_exit("predict.rows", 1, "texts"))
    tr.wrap(f"{ex}:fine_tune", "fine_tune", _job_fine_tune_exit)
    tr.wrap(f"{ex}:predict_texts", "predict", _rows_exit("predict.rows", 1, "texts"))
    tr.wrap(f"{ex}:pretrain", "pretrain", _pretrain_exit)
    tr.wrap(f"{ex}:adaptation_stats", "adaptation")
    tr.wrap(f"{ex}:score_experiment", "job", _job_exit)
    tr.wrap(f"{ex}:confusion", "f1")
    tr.wrap(f"{ex}:weighted_f1", "f1")
    tr.wrap(f"{ex}:load_labeled_tsv", "load", _loaded_exit)
    tr.wrap(f"{ex}:load_unlabeled_text", "load", _loaded_exit)
    tr.wrap(f"{ex}:dedup_dev", "dedup")
    tr.wrap(f"{ex}:sample_per_language", "sample")
    tr.wrap(f"{ex}:strip_labels", "strip_labels")
    tr.wrap("langselect.textmodel:design_matrix", "design_matrix",
            _rows_exit("design_matrix.rows", 0, "texts"))
    tr.wrap("langselect.harness.cache:ScoreCache.__init__", "cache_load", _cache_init_exit)
    tr.wrap("langselect.harness.cache:ScoreCache.get", "cache_get", _cache_get_exit)
    tr.wrap("langselect.harness.cache:ScoreCache.put", "cache_put")
    tr.wrap("langselect.selection:forward_select", "decide")
    tr.wrap("langselect.selection:backward_select", "decide")
    for note in tr.notes:
        print(f"trace: {note}", file=sys.stderr)
    return tr


def write(tr: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"totals": dict(tr.totals), "notes": tr.notes}, fh, sort_keys=True)
