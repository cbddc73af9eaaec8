"""Selection tests: plans, forward/backward rules, zero-shot variants,
N x N accounting, and equivalence with a brute-force
re-evaluation of the rules.

Mock oracles score each planned (cell, seed); forward_select and
backward_select then decide from the resulting table of seed means."""
import random

import pytest

from langselect.corpus import AFRISENTI_LANGUAGES
from langselect.errors import SelectionError
from langselect.selection import PlanCell, SelectionConfig, SelectionTask, backward_select, forward_select, plan

from reference import DictOracle, HashOracle, brute_force_backward, brute_force_forward, score_plan


def task(target, *candidates):
    return SelectionTask(target=target, candidates=candidates)


CFG1 = SelectionConfig()


def fwd(task, oracle, cfg, seeds=(1,)):
    """Forward selection over ``task``'s plan scored through ``oracle``."""
    return forward_select(task, score_plan(plan(task, cfg, "forward"), oracle, seeds), cfg)


def bwd(task, oracle, cfg, seeds=(1,)):
    """Backward selection over ``task``'s plan scored through ``oracle``."""
    return backward_select(task, score_plan(plan(task, cfg, "backward"), oracle, seeds), cfg)


def run_all_targets(languages, oracle, cfg, strategy="forward", seeds=(1,)):
    """Selection with every language code as the target and the others as
    its candidates, as the CLI runs it."""
    select = fwd if strategy == "forward" else bwd
    codes = sorted(languages)
    return {t: select(task(t, *(c for c in codes if c != t)), oracle, cfg, seeds) for t in codes}


class TestForwardMultilingual:
    def test_spec_example(self):
        oracle = DictOracle(
            {
                ("t", ("t",)): 0.50,
                ("t", ("a", "t")): 0.60,
                ("t", ("b", "t")): 0.52,
                ("t", ("c", "t")): 0.40,
            }
        )
        result = fwd(task("t", "a", "b", "c"), oracle, CFG1)
        assert result.baseline_score == 0.50
        assert result.positive_codes() == ("a",)
        assert result.positive_sources[0][1] == pytest.approx(0.10)
        assert [c for c, _ in result.ranking] == ["a", "b", "c"]

    def test_exactly_at_baseline_not_positive(self):
        oracle = DictOracle(
            {("t", ("t",)): 0.5, ("t", ("a", "t")): 0.5, ("t", ("b", "t")): 0.5}
        )
        result = fwd(task("t", "a", "b"), oracle, CFG1)
        assert result.positive_codes() == ()

    def test_top_k_truncates(self):
        oracle = DictOracle(
            {
                ("t", ("t",)): 0.4,
                ("t", ("a", "t")): 0.6,
                ("t", ("b", "t")): 0.7,
                ("t", ("c", "t")): 0.8,
            }
        )
        cfg = SelectionConfig(top_k=1)
        result = fwd(task("t", "a", "b", "c"), oracle, cfg)
        assert result.positive_codes() == ("c",)
        assert len(result.ranking) == 3

    def test_gain_ties_break_by_code(self):
        oracle = DictOracle(
            {("t", ("t",)): 0.4, ("t", ("b", "t")): 0.6, ("t", ("a", "t")): 0.6}
        )
        result = fwd(task("t", "b", "a"), oracle, CFG1)
        assert result.positive_codes() == ("a", "b")

    def test_mean_over_seeds(self):
        class SeedOracle:
            def score(self, target, sources, seed, sample_cap):
                if sources == (target,):
                    return 0.5
                return 0.5 + 0.1 * seed

        result = fwd(task("t", "a"), SeedOracle(), CFG1, seeds=(1, 2, 3))
        assert result.ranking[0][1] == pytest.approx(0.7)

    def test_absolute_threshold_switch(self):
        oracle = DictOracle({("t", ("t",)): 0.5, ("t", ("a", "t")): 0.54})
        relative = fwd(task("t", "a"), oracle, SelectionConfig(threshold=0.05))
        assert relative.positive_codes() == ("a",)  # 0.54 > 0.5 * 1.05 = 0.525
        absolute = fwd(
            task("t", "a"), oracle, SelectionConfig(threshold=0.05, absolute_threshold=True)
        )
        assert absolute.positive_codes() == ()  # 0.54 <= 0.55


class TestBackwardMultilingual:
    def test_spec_example(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b", "t")): 0.70,
                ("t", ("b", "t")): 0.60,  # removing a
                ("t", ("a", "t")): 0.69,  # removing b
            }
        )
        result = bwd(task("t", "a", "b"), oracle, CFG1)
        assert result.baseline_score == 0.70
        assert result.positive_codes() == ("a",)
        assert result.positive_sources[0][1] == pytest.approx(0.10)

    def test_no_drop_no_positives(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b", "t")): 0.7,
                ("t", ("b", "t")): 0.7,
                ("t", ("a", "t")): 0.7,
            }
        )
        assert bwd(task("t", "a", "b"), oracle, CFG1).positive_codes() == ()

    def test_uses_sample_cap(self):
        oracle = DictOracle(
            {
                ("t", ("a", "t")): 0.7,
                ("t", ("t",)): 0.6,
            }
        )
        cfg = SelectionConfig(baseline_samples_per_language=123)
        bwd(task("t", "a"), oracle, cfg)
        assert all(cap == 123 for _, _, cap in oracle.calls)

    def test_ranking_orders_biggest_drop_first(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b", "c", "t")): 0.8,
                ("t", ("b", "c", "t")): 0.3,  # remove a: drop .5
                ("t", ("a", "c", "t")): 0.6,  # remove b: drop .2
                ("t", ("a", "b", "t")): 0.9,  # remove c: gain
            }
        )
        result = bwd(task("t", "a", "b", "c"), oracle, CFG1)
        assert [c for c, _ in result.ranking] == ["a", "b", "c"]
        assert result.positive_codes() == ("a", "b")


class TestZeroShot:
    def test_forward_baseline_is_complete_set(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b", "c")): 0.6,
                ("t", ("a",)): 0.62,
                ("t", ("b",)): 0.58,
                ("t", ("c",)): 0.3,
            }
        )
        cfg = SelectionConfig(mode="zeroshot")
        result = fwd(task("t", "a", "b", "c"), oracle, cfg)
        assert result.baseline_score == 0.6
        # positive when not more than 5% below the full-set baseline
        assert result.positive_codes() == ("a", "b")
        assert [c for c, _ in result.ranking] == ["a", "b", "c"]

    def test_forward_never_trains_on_target(self):
        oracle = HashOracle()
        cfg = SelectionConfig(mode="zeroshot")
        fwd(task("t", "a", "b"), oracle, cfg, seeds=(1, 2))
        bwd(task("t", "a", "b"), oracle, cfg, seeds=(1, 2))
        assert all("t" not in key[1] for key, _, _ in oracle.calls)

    def test_backward_zeroshot_full_set_excludes_target(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b")): 0.6,
                ("t", ("b",)): 0.4,
                ("t", ("a",)): 0.61,
            }
        )
        cfg = SelectionConfig(mode="zeroshot")
        result = bwd(task("t", "a", "b"), oracle, cfg)
        assert result.positive_codes() == ("a",)

    def test_top_k_matches_paper_usage(self):
        oracle = DictOracle(
            {
                ("t", ("a", "b", "c", "d")): 0.5,
                ("t", ("a",)): 0.9,
                ("t", ("b",)): 0.8,
                ("t", ("c",)): 0.7,
                ("t", ("d",)): 0.1,
            }
        )
        cfg = SelectionConfig(mode="zeroshot", top_k=3)
        result = fwd(task("t", "a", "b", "c", "d"), oracle, cfg)
        assert result.positive_codes() == ("a", "b", "c")


class TestRunAllTargets:
    def test_nxn_cell_accounting(self):
        codes = ("a", "b", "c", "d")
        for strategy in ("forward", "backward"):
            oracle = HashOracle()
            run_all_targets(codes, oracle, CFG1, strategy, seeds=(1, 2))
            assert len(oracle.distinct_cells()) == 16
            per_seed_calls = len(oracle.calls) / 2
            assert per_seed_calls == 16

    def test_nxn_accounting_in_zeroshot_mode(self):
        codes = ("a", "b", "c", "d")
        cfg = SelectionConfig(mode="zeroshot")
        for strategy in ("forward", "backward"):
            oracle = HashOracle()
            run_all_targets(codes, oracle, cfg, strategy)
            assert len(oracle.distinct_cells()) == 16

    def test_requires_two_languages(self):
        with pytest.raises(SelectionError, match="no candidate"):
            run_all_targets(("a",), HashOracle(), CFG1)

    def test_deterministic(self):
        results1 = run_all_targets(("a", "b", "c"), HashOracle(), CFG1)
        results2 = run_all_targets(("a", "b", "c"), HashOracle(), CFG1)
        assert results1 == results2

    def test_missing_cell_error_names_cell(self):
        t = task("a", "b", "c")
        scores = score_plan(plan(t, CFG1, "forward"), HashOracle(), (1,))
        del scores[PlanCell("a", ("a", "c"), None)]
        with pytest.raises(SelectionError, match=r"target a: a,c$"):
            forward_select(t, scores, CFG1)


class TestPlan:
    def test_baseline_first_then_candidates_in_order(self):
        t = task("t", "b", "a")
        assert plan(t, CFG1, "forward") == [
            PlanCell("t", ("t",), None),
            PlanCell("t", ("b", "t"), None),
            PlanCell("t", ("a", "t"), None),
        ]
        zeroshot = SelectionConfig(mode="zeroshot")
        assert plan(t, zeroshot, "forward") == [
            PlanCell("t", ("a", "b"), None),
            PlanCell("t", ("b",), None),
            PlanCell("t", ("a",), None),
        ]
        capped = SelectionConfig(baseline_samples_per_language=7)
        assert plan(t, capped, "backward") == [
            PlanCell("t", ("a", "b", "t"), 7),
            PlanCell("t", ("a", "t"), 7),
            PlanCell("t", ("b", "t"), 7),
        ]
        capped_zeroshot = SelectionConfig(mode="zeroshot", baseline_samples_per_language=7)
        assert plan(t, capped_zeroshot, "backward") == [
            PlanCell("t", ("a", "b"), 7),
            PlanCell("t", ("a",), 7),
            PlanCell("t", ("b",), 7),
        ]

    def test_zeroshot_backward_needs_two_candidates(self):
        # Leaving out a zero-shot target's only candidate leaves no source.
        zeroshot = SelectionConfig(mode="zeroshot")
        with pytest.raises(SelectionError, match="^target t: zero-shot backward selection needs at least two"):
            plan(task("t", "a"), zeroshot, "backward")
        assert plan(task("t", "a"), CFG1, "backward") == [PlanCell("t", ("a", "t"), 500), PlanCell("t", ("t",), 500)]
        assert plan(task("t", "a"), zeroshot, "forward") == [PlanCell("t", ("a",), None), PlanCell("t", ("a",), None)]

    def test_unknown_strategy(self):
        with pytest.raises(SelectionError, match="unknown strategy"):
            plan(task("t", "a"), CFG1, "sideways")

    def test_decide_reads_only_planned_cells(self):
        # Extra cells in the table change nothing.
        t = task("t", "a", "b")
        scores = score_plan(plan(t, CFG1, "forward"), HashOracle(), (1,))
        noisy = {**scores, PlanCell("t", ("a", "b", "t"), None): 1.0, PlanCell("t", ("t",), 5): 0.0}
        assert forward_select(t, noisy, CFG1) == forward_select(t, scores, CFG1)


class TestAgainstBruteForce:
    def test_forward_matches_brute_force(self):
        for trial in range(30):
            rng = random.Random(trial)
            n = rng.randint(2, 5)
            codes = [f"l{i}" for i in range(n)]
            target, candidates = codes[0], codes[1:]
            oracle = HashOracle(salt=str(trial))
            mode = rng.choice(["multilingual", "zeroshot"])
            cfg = SelectionConfig(mode=mode, threshold=rng.choice([0.02, 0.05, 0.2]))
            result = fwd(
                SelectionTask(target, tuple(candidates)), oracle, cfg, seeds=(1, 2)
            )
            baseline, expected = brute_force_forward(
                target, candidates, HashOracle(salt=str(trial)), (1, 2), cfg.threshold, mode
            )
            assert result.baseline_score == pytest.approx(baseline, abs=1e-12)
            assert list(result.positive_sources) == [
                (c, pytest.approx(g, abs=1e-12)) for c, g in expected
            ]

    def test_backward_matches_brute_force(self):
        for trial in range(30):
            rng = random.Random(1000 + trial)
            n = rng.randint(2, 5)
            codes = [f"l{i}" for i in range(n)]
            target, candidates = codes[0], codes[1:]
            oracle = HashOracle(salt=f"b{trial}")
            mode = rng.choice(["multilingual", "zeroshot"])
            cfg = SelectionConfig(mode=mode, threshold=rng.choice([0.02, 0.05, 0.2]))
            t = SelectionTask(target, tuple(candidates))
            if mode == "zeroshot" and len(candidates) == 1:
                # Leaving out the only candidate would leave nothing to train on.
                with pytest.raises(SelectionError, match=f"target {target}: zero-shot backward"):
                    bwd(t, oracle, cfg)
                continue
            result = bwd(t, oracle, cfg)
            baseline, expected = brute_force_backward(
                target,
                candidates,
                HashOracle(salt=f"b{trial}"),
                (1,),
                cfg.threshold,
                mode,
                cfg.baseline_samples_per_language,
            )
            assert result.baseline_score == pytest.approx(baseline, abs=1e-12)
            assert list(result.positive_sources) == [
                (c, pytest.approx(g, abs=1e-12)) for c, g in expected
            ]


class TestThresholdMonotonicity:
    def test_raising_threshold_never_enlarges_positives(self):
        for trial in range(25):
            oracle_salt = f"mono{trial}"
            t = task("t", "a", "b", "c", "d")
            previous = None
            for threshold in (0.01, 0.05, 0.1, 0.3):
                cfg = SelectionConfig(threshold=threshold)
                positives = set(fwd(t, HashOracle(salt=oracle_salt), cfg).positive_codes())
                if previous is not None:
                    assert positives <= previous
                previous = positives

    def test_backward_monotone_too(self):
        for trial in range(25):
            t = task("t", "a", "b", "c")
            previous = None
            for threshold in (0.01, 0.05, 0.1, 0.3):
                cfg = SelectionConfig(threshold=threshold)
                positives = set(
                    bwd(t, HashOracle(salt=f"bm{trial}"), cfg).positive_codes()
                )
                if previous is not None:
                    assert positives <= previous
                previous = positives


class TestValidation:
    def test_task_rejects_target_in_candidates(self):
        with pytest.raises(SelectionError, match="must not appear"):
            SelectionTask("t", ("t", "a"))

    def test_task_rejects_empty_candidates(self):
        with pytest.raises(SelectionError, match="no candidate"):
            SelectionTask("t", ())

    def test_task_rejects_duplicate_candidates(self):
        with pytest.raises(SelectionError, match="target t: duplicate candidates"):
            SelectionTask("t", ("a", "b", "a"))

    def test_config_validation(self):
        with pytest.raises(SelectionError):
            SelectionConfig(threshold=0.0)
        with pytest.raises(SelectionError):
            SelectionConfig(top_k=0)
        with pytest.raises(SelectionError):
            SelectionConfig(mode="both")
        with pytest.raises(SelectionError, match="baseline_samples_per_language"):
            SelectionConfig(baseline_samples_per_language=0)

    def test_result_row_format(self):
        oracle = DictOracle({("t", ("t",)): 0.5, ("t", ("a", "t")): 0.6})
        result = fwd(task("t", "a"), oracle, CFG1)
        assert result.to_row() == "t\tforward\t0.5000\ta(+0.1000)"
