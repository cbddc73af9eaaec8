"""Acceptance suite.

Each criterion is one test that prints a ``PASS <criterion> (<runtime>)``
line; run with ``pytest tests/test_acceptance.py -v -s`` to see every
line. Tolerances and runtime budgets are asserted inside the tests.
"""
import random
import time
from pathlib import Path

import numpy as np

from langselect import (
    Dataset,
    Example,
    LearnerConfig,
    SelectionConfig,
    SelectionTask,
    VotePool,
    backward_select,
    confusion,
    dedup_dev,
    forward_select,
    loss_and_gradient,
    majority_vote,
    normalize_text,
    plan,
    weighted_f1,
)
from langselect.cli import main as cli_main
from langselect.harness import PlanCell, ScoreCache, run_matrix
from langselect.synth import four_language_universe
from langselect.textmodel import AdaptationStats, Model, fine_tune, predict_texts

from conftest import make_dataset
from reference import (
    DictOracle,
    HashOracle,
    finite_difference_grads,
    relative_error,
    reference_weighted_f1,
    score_plan,
)
from synth_fixtures import build_store, six_language_universe, tapt_universe

LABELS = ("negative", "neutral", "positive")


def _passed(name: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_metric_oracle():
    start = time.perf_counter()
    cm = confusion(
        ["positive", "positive", "negative", "neutral"],
        ["positive", "negative", "negative", "neutral"],
    )
    assert abs(weighted_f1(cm) - 0.75) <= 1e-9
    rng = random.Random(20240601)
    for _ in range(1000):
        n = rng.randint(1, 50)
        gold = [rng.choice(LABELS) for _ in range(n)]
        pred = [rng.choice(LABELS) for _ in range(n)]
        assert abs(weighted_f1(confusion(gold, pred)) - reference_weighted_f1(gold, pred)) <= 1e-9
    _passed("criterion 1: metric oracle", start, 1.0)


def test_criterion_2_gradient_correctness(lang):
    start = time.perf_counter()
    rng = random.Random(77)
    for trial in range(100):
        config = LearnerConfig(
            ngram_min=1,
            ngram_max=rng.randint(1, 3),
            hash_buckets=32,
            l2_lambda=rng.choice([0.0, 1e-4, 1e-2, 0.1]),
            epochs=1,
        )
        weights = np.array(
            [[rng.gauss(0, 1.0) for _ in range(32)] for _ in range(3)]
        )
        bias = np.array([rng.gauss(0, 1.0) for _ in range(3)])
        model = Model(
            weights=weights, buckets=np.arange(32), bias=bias, stats=AdaptationStats.uniform(), config=config
        )
        batch = []
        for i in range(rng.randint(1, 5)):
            text = "".join(rng.choice("abcde fg") for _ in range(rng.randint(2, 10))).strip() or "a"
            batch.append(Example(f"g{i}", text, rng.choice(LABELS)))
        _, grad_w, grad_b = loss_and_gradient(model, batch)
        fd_w, fd_b = finite_difference_grads(loss_and_gradient, model, batch, h=1e-5)
        assert relative_error(grad_w, fd_w) < 1e-4, trial
        assert relative_error(grad_b, fd_b) < 1e-4, trial
    _passed("criterion 2: gradient correctness", start, 10.0)


def test_criterion_3_selection_correctness():
    start = time.perf_counter()
    # Hand-derived forward case: cutoff = 0.50 * 1.05 = 0.525; only a
    # (0.60) and d (0.55) clear it, ranked by gain then code.
    fwd_oracle = DictOracle(
        {
            ("t", ("t",)): 0.50,
            ("t", ("a", "t")): 0.60,
            ("t", ("b", "t")): 0.52,
            ("t", ("c", "t")): 0.40,
            ("t", ("d", "t")): 0.55,
        }
    )
    task = SelectionTask(target="t", candidates=("a", "b", "c", "d"))
    cfg = SelectionConfig()
    result = forward_select(task, score_plan(plan(task, cfg, "forward"), fwd_oracle, (1,)), cfg)
    assert result.baseline_score == 0.50
    assert [(c, round(g, 10)) for c, g in result.positive_sources] == [
        ("a", 0.10),
        ("d", 0.05),
    ]

    # Hand-derived backward case: cutoff = 0.70 * 0.95 = 0.665; removing
    # a drops to 0.60 (positive), removing b only to 0.69.
    bwd_oracle = DictOracle(
        {
            ("t", ("a", "b", "c", "d", "t")): 0.70,
            ("t", ("b", "c", "d", "t")): 0.60,
            ("t", ("a", "c", "d", "t")): 0.69,
            ("t", ("a", "b", "d", "t")): 0.50,
            ("t", ("a", "b", "c", "t")): 0.70,
        }
    )
    result = backward_select(task, score_plan(plan(task, cfg, "backward"), bwd_oracle, (1,)), cfg)
    assert result.baseline_score == 0.70
    assert [(c, round(g, 10)) for c, g in result.positive_sources] == [
        ("c", 0.20),
        ("a", 0.10),
    ]

    # N x N accounting over a 4-language universe: every target's plan
    # holds 16 distinct cells per strategy, each scored once per seed.
    codes = ("a", "b", "c", "d")
    seeds = (1, 2)
    for strategy, decide in (("forward", forward_select), ("backward", backward_select)):
        oracle = HashOracle(salt=strategy)
        for target in codes:
            task = SelectionTask(target=target, candidates=tuple(c for c in codes if c != target))
            decide(task, score_plan(plan(task, cfg, strategy), oracle, seeds), cfg)
        assert len(oracle.distinct_cells()) == 16
        assert len(oracle.calls) == 16 * 2
    _passed("criterion 3: selection correctness", start, 1.0)


def test_criterion_4_directional_tapt_effect():
    start = time.perf_counter()
    uni = tapt_universe()
    store = build_store(uni)
    learner = LearnerConfig(**uni.learner)
    seeds = (1, 2, 3, 4, 5)
    mono = [PlanCell("qq", ("qq",), None)]
    (with_tapt,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="tapt").entries.values()
    (without,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="none").entries.values()
    gain_points = 100.0 * (with_tapt.mean - without.mean)
    assert gain_points >= 5.0, f"TAPT gain only {gain_points:.2f} points"
    _passed(
        f"criterion 4: TAPT effect (+{gain_points:.1f} F1 points)", start, 60.0
    )


def test_criterion_5_directional_source_selection_effect():
    start = time.perf_counter()
    uni = six_language_universe()
    store = build_store(uni)
    learner = LearnerConfig(**uni.learner)
    cfg = SelectionConfig()
    seeds = (1, 2, 3, 4, 5)
    cache = ScoreCache()
    task = SelectionTask(target="tt", candidates=("ha", "hb", "xa", "xb", "xc"))
    matrix = run_matrix(plan(task, cfg, "forward"), store, seeds=seeds, learner=learner, cache=cache)
    result = forward_select(task, matrix.means(), cfg)
    assert result.positive_codes() == ("ha", "hb") or result.positive_codes() == ("hb", "ha")

    selected = PlanCell("tt", result.selected_sources(), None)
    all_langs = PlanCell("tt", ("ha", "hb", "tt", "xa", "xb", "xc"), None)
    means = run_matrix([selected, all_langs], store, seeds=seeds, learner=learner, cache=cache).means()
    gap_points = 100.0 * (means[selected] - means[all_langs])
    assert gap_points >= 10.0, f"selection gap only {gap_points:.2f} points"
    _passed(
        f"criterion 5: source-selection effect (+{gap_points:.1f} F1 points)", start, 120.0
    )


def _run_pipeline(tmp: Path, parallelism: int) -> dict[str, bytes]:
    """ingest -> matrix -> select -> ensemble -> report on the bundled
    4-language fixture; returns the bytes of every artifact."""
    from langselect.synth import write_universe

    config = write_universe(four_language_universe(), tmp)
    ingest_dir = tmp / "ingested"
    assert cli_main(["ingest", "--config", str(config), "--out-dir", str(ingest_dir)]) == 0
    matrix = tmp / "matrix.jsonl"
    assert (
        cli_main(
            ["matrix", "--config", str(config), "--strategy", "fwd",
             "--parallelism", str(parallelism), "--out", str(matrix)]
        )
        == 0
    )
    selections = tmp / "selections.jsonl"
    selcells = tmp / "selected_cells.jsonl"
    assert (
        cli_main(
            ["select", "--config", str(config), "--strategy", "fwd",
             "--parallelism", str(parallelism), "--out", str(selections),
             "--matrix-out", str(selcells)]
        )
        == 0
    )
    pred_paths = []
    for seed in (1, 2, 3):
        model = tmp / f"model-{seed}.npz"
        assert (
            cli_main(
                ["train", "--config", str(config), "--target", "aa", "--sources", "aa,bb",
                 "--adaptation", "tapt", "--seed", str(seed), "--out", str(model)]
            )
            == 0
        )
        preds = tmp / f"preds-{seed}.tsv"
        assert (
            cli_main(
                ["predict", "--model", str(model), "--input",
                 str(ingest_dir / "aa_devstar.tsv"), "--out", str(preds), "--probs"]
            )
            == 0
        )
        pred_paths.append(str(preds))
    ensembled = tmp / "ensemble.tsv"
    assert cli_main(["ensemble", "--inputs", *pred_paths, "--out", str(ensembled)]) == 0
    report = tmp / "report.md"
    assert (
        cli_main(
            ["report", "--config", str(config), "--matrix", str(matrix),
             "--matrix", str(selcells), "--selections", str(selections),
             "--format", "markdown", "--out", str(report)]
        )
        == 0
    )
    report_tsv = tmp / "report.tsv"
    assert (
        cli_main(
            ["report", "--config", str(config), "--matrix", str(matrix),
             "--matrix", str(selcells), "--selections", str(selections),
             "--format", "tsv", "--out", str(report_tsv)]
        )
        == 0
    )
    artifacts = {}
    for path in (matrix, selections, selcells, ensembled, report, report_tsv):
        artifacts[path.name] = path.read_bytes()
    return artifacts


def test_criterion_6_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    run_a = _run_pipeline(tmp_path / "a", parallelism=1)
    run_b = _run_pipeline(tmp_path / "b", parallelism=1)
    run_c = _run_pipeline(tmp_path / "c", parallelism=8)
    for name in run_a:
        assert run_a[name] == run_b[name], f"{name} differs between identical runs"
        assert run_a[name] == run_c[name], f"{name} differs between parallelism 1 and 8"
    # The bundled fixture's hand-derived selection: every language's only
    # positive source is its aligned partner.
    sel_lines = [
        line for line in run_a["selections.jsonl"].decode().splitlines() if not line.startswith("#")
    ]
    import json

    picked = {json.loads(l)["target"]: [c for c, _ in json.loads(l)["positives"]] for l in sel_lines}
    assert picked == {"aa": ["bb"], "bb": ["aa"], "cc": ["dd"], "dd": ["cc"]}
    _passed("criterion 6: pipeline determinism", start, 120.0)


def test_criterion_7_ensemble_behavior():
    start = time.perf_counter()
    # Vote test vectors.
    strict = VotePool(per_seed=(
        (("positive", (0.1, 0.1, 0.8)),),
        (("positive", (0.1, 0.1, 0.8)),),
        (("negative", (0.8, 0.1, 0.1)),),
    ))
    assert majority_vote(strict) == ["positive"]
    tie = VotePool(per_seed=(
        (("positive", (0.30, 0.25, 0.45)),),
        (("negative", (0.45, 0.25, 0.30)),),
        (("neutral", (0.30, 0.25, 0.45)),),
    ))
    assert majority_vote(tie) == ["positive"]  # mean probs .35/.25/.40
    single = (("neutral", (0.2, 0.6, 0.2)), ("negative", (0.7, 0.2, 0.1)))
    assert majority_vote(VotePool(per_seed=(single,))) == ["neutral", "negative"]

    # Fixture bound: the 5-seed ensemble never scores below the worst
    # single seed minus 1 F1 point.
    uni = four_language_universe()
    store = build_store(uni)
    learner = LearnerConfig(**uni.learner)
    train_sets = [store.rows("aa", "train"), store.rows("bb", "train")]
    devstar = store.split("aa", "devstar")
    gold = [ex.label for ex in devstar]
    per_seed_scores = []
    per_seed_preds = []
    for seed in (1, 2, 3, 4, 5):
        model = fine_tune(AdaptationStats.uniform(), train_sets, LearnerConfig(**uni.learner), seed)
        preds = predict_texts(model, devstar.texts())
        per_seed_preds.append(tuple(preds))
        per_seed_scores.append(weighted_f1(confusion(gold, [l for l, _ in preds])))
    voted = majority_vote(VotePool(per_seed=tuple(per_seed_preds)))
    ensemble_score = weighted_f1(confusion(gold, voted))
    assert ensemble_score >= min(per_seed_scores) - 0.01
    _passed(
        f"criterion 7: ensemble (ens {100*ensemble_score:.1f} vs worst seed "
        f"{100*min(per_seed_scores):.1f})",
        start,
        60.0,
    )


GOLDEN_NORMALIZATION = [
    ("sooooo goood!!!! @ama see https://t.co/xyz", "sooo goood! USER see HTTPURL"),
    ("", ""),
    ("HTTPURL USER", "HTTPURL USER"),
    ("hello world", "hello world"),
    ("  spaced   out  ", "spaced out"),
    ("visit www.example.com now", "visit HTTPURL now"),
    ("ftp://files.example.org/data", "HTTPURL"),
    ("http://a.b c http://d.e", "HTTPURL c HTTPURL"),
    ("@user1 @user2 hi", "USER USER hi"),
    ("@@@name", "USER"),
    ("@ alone", "@ alone"),
    ("x@@@@", "x@"),
    ("email@example.com", "emailUSER.com"),
    ("aaaaaa", "aaa"),
    ("gooood moooorning", "goood mooorning"),
    ("!!", "!"),
    ("wow...", "wow."),
    ("..,,!!??", ".,!?"),
    ("ha!!ha", "ha!ha"),
    ("\U0001F602\U0001F602\U0001F602\U0001F602\U0001F602", "\U0001F602\U0001F602\U0001F602"),
    ("tab\tand\nnewline", "tab and newline"),
    ("a b", "a b"),
    ("wwww.foo.com", "wHTTPURL"),
    ("see https://t.co/a and www.b.c!!", "see HTTPURL and HTTPURL"),
    ("@ama!!! ok", "USER! ok"),
]


def test_criterion_8_preprocessing_golden_suite(lang):
    start = time.perf_counter()
    assert len(GOLDEN_NORMALIZATION) == 25
    for raw, expected in GOLDEN_NORMALIZATION:
        got = normalize_text(raw)
        assert got == expected, f"{raw!r}: {got!r} != {expected!r}"
        assert normalize_text(got) == got, f"not idempotent on {raw!r}"

    # Dedup removes exactly the planted overlaps, in order.
    train = make_dataset([(f"train text {i}", "positive") for i in range(10)], lang)
    dev_rows = [
        ("d0", "fresh dev zero", "neutral"),
        ("d1", "train text 3", "positive"),
        ("d2", "fresh dev one", "negative"),
        ("d3", "train text 7", "positive"),
        ("d4", "fresh dev two", "neutral"),
    ]
    dev = Dataset(
        code=lang,
        split="dev",
        examples=tuple(Example(i, t, l) for i, t, l in dev_rows),
    )
    devstar = dedup_dev(train, dev)
    assert [ex.id for ex in devstar] == ["d0", "d2", "d4"]
    _passed("criterion 8: preprocessing golden suite", start, 10.0)
