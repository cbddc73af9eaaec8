"""Benchmark of the langselect selection pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see bench/README.md):

* fwd-tapt-serial   cold forward select, TAPT, default learner, parallelism 1
* bwd-tapt-parallel cold backward select, TAPT, small learner, caps, 2 seeds,
                    parallelism = CPU count
* warm-rerun        select then report against a cache that set-up fills

The universe is generated from ``--seed`` with ``langselect.synth`` and
written under ``.bench_work/``. Set-up (write the universe, ``ingest``,
and for warm-rerun the cold fill) runs three times and is timed. Then
rounds run until ``--seconds`` have passed; each round starts each CLI
verb in a fresh interpreter through ``bench/child.py``. Every round's
outputs are checked (bench/checks.py), and once per run one cell is
retrained through the ``train`` and ``predict`` verbs and scored here.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (timed CLI invocations), and ``metrics``: the end-to-end
medians with ``--trace 0``, the per-layer medians of traced rounds with
``--trace 1`` (traced rounds alternate with untraced ones, whose wall
time gives the tracing overhead).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3


def _import_program():
    """Import langselect from this checkout's src/, never from elsewhere."""
    if not (SRC / "langselect" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'langselect'} not found; run from a langselect checkout")
    sys.path.insert(0, str(SRC))
    import langselect

    if Path(langselect.__file__).resolve().parent != SRC / "langselect":
        sys.exit(f"bench: imported langselect from {langselect.__file__}, not {SRC}")


_import_program()
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from langselect.synth import write_universe  # noqa: E402
from universes import PLANS, THRESHOLD, Plan  # noqa: E402


@dataclass
class Call:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    jobs: int = 0
    failed: int = 0
    spans: dict[str, float] = field(default_factory=dict)


def cli(args: list[str], log: Path, cache_dir: Path, trace: Path | None = None) -> Call:
    """Run one CLI verb in a fresh interpreter; time it and read its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), LANGSELECT_CACHE_DIR=str(cache_dir))
    cmd = [sys.executable, str(BENCH / "child.py")]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", *args]
    with log.with_suffix(".out").open("wb") as out, log.with_suffix(".err").open("wb") as err:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    cpu += (self1.ru_utime - self0.ru_utime) + (self1.ru_stime - self0.ru_stime)
    if proc.returncode != 0:
        tail = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"bench: {args[0]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return Call(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0)


class Workload:
    def __init__(self, plan: Plan, seed: int, setups: int):
        self.plan = plan
        self.seed = seed
        self.setups = setups
        self.dir = WORK / plan.name
        self.checked_rounds = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Write the universe, ingest it and (warm-rerun) fill the cache."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        times = []
        for i in range(self.setups):
            if i:
                shutil.rmtree(self.universe)
            self.universe = self.dir / "universe"
            t0 = time.perf_counter()
            self.config = str(write_universe(self.plan.universe(self.seed), self.universe))
            ingest = ["ingest", "--config", self.config, "--out-dir", str(self.universe / "ingested")]
            ok = cli(ingest, self.universe / "ingest", self.universe / "cache").code == 0
            if ok and self.plan.warm:
                ok = not self._round_calls(self.universe / "fill", None).failed
            times.append(time.perf_counter() - t0)
            if not ok:
                raise SystemExit("bench: set-up failed")
        if self.plan.warm:
            self.reference = self._outputs(self.universe / "fill", self.universe / "cache")
        return statistics.median(times)

    # -- rounds ---------------------------------------------------------
    def _round_calls(self, out: Path, trace: Path | None) -> Round:
        """The timed CLI calls of one round, writing into ``out``."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        cache = self.universe / "cache" if self.plan.warm else out / "cache"
        calls = [(self.plan.select_args(self.config, str(out)), "select")]
        if self.plan.warm:
            calls.append(([
                "report", "--config", self.config,
                "--matrix", str(out / "selected_cells.jsonl"),
                "--selections", str(out / "selections.jsonl"),
                "--format", "markdown", "--out", str(out / "report.md"),
            ], "report"))
        rnd = Round()
        for args, name in calls:
            span_file = out / f"{name}.spans.json" if trace is not None else None
            call = cli(args, out / name, cache, span_file)
            rnd.wall += call.wall
            rnd.cpu += call.cpu
            rnd.rss_mb = max(rnd.rss_mb, call.rss_mb)
            rnd.failed += call.code != 0
            if span_file is not None and span_file.exists():
                spans = json.loads(span_file.read_text(encoding="utf-8"))["totals"]
                for key, value in spans.items():
                    rnd.spans[key] = rnd.spans.get(key, 0.0) + value
        return rnd

    def _outputs(self, out: Path, cache: Path) -> dict[str, bytes]:
        names = ["selections.jsonl", "selected_cells.jsonl", "report.md", "select.out"]
        files = {name: (out / name).read_bytes() for name in names}
        files["journal"] = (cache / "scores.journal").read_bytes()
        return files

    def run_round(self, traced: bool) -> Round:
        out = self.dir / "round"
        return self._round_calls(out, out if traced else None)

    def check_round(self, rnd: Round) -> None:
        """Check the outputs of the round just run and set its job count."""
        if rnd.failed:
            return
        plan = self.plan
        out = self.dir / "round"
        cache = self.universe / "cache" if plan.warm else out / "cache"
        selections, selected = out / "selections.jsonl", out / "selected_cells.jsonl"
        journal = cache / "scores.journal"
        checks.check_decisions(selections, plan.strategy, THRESHOLD, plan.top_k)
        checks.check_ranges(journal, selections, selected)
        if plan.strategy == "fwd":
            # A forward pair cell with a conflicting partner trains mostly on
            # the wrong mapping. Backward cells hold every language, so there
            # one removal is within noise and the check would not hold.
            checks.check_no_conflicting(selections, {t: plan.conflicting(t) for t in plan.targets})
        if plan.warm:
            checks.check_identical(self.reference, self._outputs(out, cache))
        # Cold: the jobs this round trained. Warm: the jobs served from the
        # journal the fill wrote.
        rnd.jobs = checks.check_counts(
            journal, selections, selected, languages=plan.languages,
            targets=plan.targets, seeds=plan.seeds, strategy=plan.strategy,
        )
        self.checked_rounds += 1

    # -- retrain check ----------------------------------------------------
    def retrain_check(self) -> None:
        """Retrain the first target's baseline cell through train/predict
        and compare its weighted F1 with the baseline select reported."""
        plan = self.plan
        out = self.dir / "retrain"
        out.mkdir(parents=True, exist_ok=True)
        target = plan.targets[0]
        docs = {d["target"]: d for d in checks.read_jsonl(self.dir / "round" / "selections.jsonl")}
        if plan.strategy == "fwd":
            sources, cap = [target], []
        else:
            sources, cap = list(plan.languages), ["--cap", str(plan.cap)]
        gold = self.universe / "ingested" / f"{target}_devstar.tsv"
        predictions = []
        for seed in plan.seeds:
            model, pred = out / f"model_{seed}.npz", out / f"pred_{seed}.tsv"
            train = ["train", "--config", self.config, "--target", target,
                     "--sources", ",".join(sources), "--seed", str(seed), "--out", str(model), *cap]
            predict = ["predict", "--model", str(model), "--input", str(gold), "--out", str(pred)]
            for args in (train, predict):
                if cli(args, out / f"{args[0]}_{seed}", out / "cache").code != 0:
                    raise checks.CheckError(f"{args[0]} verb failed in the retrain check")
            predictions.append(pred)
        checks.check_retrained(docs[target]["baseline"], gold, predictions)


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    med = statistics.median
    return {
        "wall_s": {"value": med(r.wall for r in rounds), "unit": "s"},
        "jobs_per_s": {"value": med(r.jobs / r.wall for r in rounds), "unit": "1/s"},
        "cpu_s": {"value": med(r.cpu for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": med(r.rss_mb for r in rounds), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(traced: list[Round], untraced: list[Round], plan: Plan) -> dict:
    universe_rows = sum(plan.train_size(c) + plan.dev_size(c) for c in plan.languages)

    def layer(t: dict[str, float]) -> dict[str, float]:
        g = lambda key: t.get(key, 0.0)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        return {
            "textmodel.fine_tune_self_s": g("fine_tune.self"),
            "textmodel.fine_tune_s_per_epoch": ratio(g("fine_tune.self"), g("fine_tune.epochs")),
            "textmodel.fine_tune_batch_steps": g("fine_tune.batch_steps"),
            "textmodel.design_matrix_s": g("design_matrix.wall"),
            "textmodel.design_matrix_rows": g("design_matrix.rows"),
            "textmodel.design_matrix_rows_per_distinct": ratio(g("design_matrix.rows"), universe_rows),
            "textmodel.pretrain_s": g("pretrain.wall"),
            "textmodel.pretrain_docs": g("pretrain.docs"),
            "textmodel.pretrain_docs_per_distinct": ratio(g("pretrain.docs"), universe_rows),
            "textmodel.predict_self_s": g("predict.self"),
            "textmodel.predict_rows": g("predict.rows"),
            "metrics.f1_s": g("f1.wall"),
            "experiments.jobs_attempted": g("job.calls"),
            "experiments.jobs_trained": g("job.trained"),
            "experiments.adaptation_self_s": g("adaptation.self"),
            "experiments.job_cpu_s": g("job.cpu"),
            "experiments.job_wait_s": g("job.wait"),
            "experiments.pool_idle_s": g("run_matrix.worker_s") - g("job.pool_wall"),
            "corpus.load_s": g("load.wall"),
            "corpus.rows_loaded": g("corpus.rows"),
            "corpus.dedup_s": g("dedup.wall"),
            "corpus.sample_s": g("sample.wall"),
            "corpus.strip_labels_s": g("strip_labels.wall"),
            "config.load_s": g("config.wall"),
            "cache.load_s": g("cache_load.wall"),
            "cache.records_loaded": g("cache.records"),
            "cache.hit_ratio": ratio(g("cache.hits"), g("cache_get.calls")),
            "cache.puts": g("cache_put.calls"),
            "cache.put_s": g("cache_put.wall"),
            "selection.decide_self_s": g("decide.self"),
            "report.render_s": g("report.wall"),
            "cli.self_s": g("cli.self"),
        }

    per_round = [layer(r.spans) for r in traced]
    metrics = {}
    for name in per_round[0]:
        unit = "count" if not name.endswith("_s") else "s"
        if name.endswith(("_per_distinct", "hit_ratio")):
            unit = "ratio"
        elif name.endswith("_per_epoch"):
            unit = "s/epoch"
        metrics[name] = {"value": statistics.median(r[name] for r in per_round), "unit": unit}
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A traced run reports no set-up time, so it sets up once.
    bench = Workload(PLANS[args.workload], args.seed, 1 if args.trace else SETUP_REPEATS)
    setup_s = bench.setup()
    rounds: list[tuple[bool, Round]] = []
    correct = True
    start = time.perf_counter()
    try:
        while len(rounds) < 1 + args.trace or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = bench.run_round(traced)
            rounds.append((traced, rnd))
            print(f"bench: round {len(rounds)} wall {rnd.wall:.3f}s cpu {rnd.cpu:.3f}s", file=sys.stderr)
            bench.check_round(rnd)
        if not bench.plan.warm and bench.checked_rounds:
            bench.retrain_check()
    except checks.CheckError as e:
        print(f"bench: check failed: {e}", file=sys.stderr)
        correct = False
    done = [r for _, r in rounds if not r.failed]
    calls_per_round = 2 if bench.plan.warm else 1
    failed = sum(r.failed for _, r in rounds)
    correct = correct and bench.checked_rounds == len(done) and bool(done)
    if not done:
        metrics = {}
    elif args.trace:
        traced = [r for t, r in rounds if t and not r.failed] or done
        untraced = [r for t, r in rounds if not t and not r.failed] or done
        metrics = per_layer(traced, untraced, bench.plan)
    else:
        metrics = end_to_end(done, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": calls_per_round * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
