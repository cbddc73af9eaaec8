"""Metrics tests: confusion counting and weighted F1, cross-checked
against an independent counting implementation."""
import random

import numpy as np
import pytest

from langselect.errors import MetricsError
from langselect.metrics import ConfusionMatrix, _per_class_f1, confusion, weighted_f1

from reference import reference_macro_f1, reference_weighted_f1

LABELS = ("negative", "neutral", "positive")


class TestConfusion:
    def test_single_correct(self):
        cm = confusion(["positive"], ["positive"])
        assert cm.counts[2, 2] == 1
        assert cm.counts.sum() == 1

    def test_off_diagonal(self):
        cm = confusion(["positive", "negative"], ["negative", "negative"])
        assert cm.counts[2, 0] == 1
        assert cm.counts[0, 0] == 1

    def test_order_invariance(self):
        rng = random.Random(5)
        pairs = [(rng.choice(LABELS), rng.choice(LABELS)) for _ in range(60)]
        gold, pred = zip(*pairs)
        cm1 = confusion(list(gold), list(pred))
        rng.shuffle(pairs)
        gold, pred = zip(*pairs)
        cm2 = confusion(list(gold), list(pred))
        assert np.array_equal(cm1.counts, cm2.counts)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="length mismatch"):
            confusion(["positive"], [])

    def test_empty(self):
        with pytest.raises(MetricsError):
            confusion([], [])

    def test_unknown_label(self):
        with pytest.raises(MetricsError, match="unknown label"):
            confusion(["positive"], ["meh"])


class TestWeightedF1:
    def test_hand_computed_fixture(self):
        # pos: P=1, R=.5, F1=2/3; neg: P=.5, R=1, F1=2/3; neu: F1=1
        # weighted by supports (2, 1, 1) -> 0.75
        cm = confusion(
            ["positive", "positive", "negative", "neutral"],
            ["positive", "negative", "negative", "neutral"],
        )
        assert weighted_f1(cm) == pytest.approx(0.75, abs=1e-12)

    def test_perfect(self):
        cm = confusion(list(LABELS) * 3, list(LABELS) * 3)
        assert weighted_f1(cm) == 1.0

    def test_single_class_gold(self):
        cm = confusion(["positive"] * 4, ["positive"] * 4)
        assert weighted_f1(cm) == 1.0

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(MetricsError, match="all-zero"):
            weighted_f1(ConfusionMatrix(np.zeros((3, 3), dtype=np.int64)))

    def test_matches_reference_on_random_predictions(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 40)
            gold = [rng.choice(LABELS) for _ in range(n)]
            pred = [rng.choice(LABELS) for _ in range(n)]
            cm = confusion(gold, pred)
            assert weighted_f1(cm) == pytest.approx(reference_weighted_f1(gold, pred), abs=1e-9)

    def test_balanced_supports_weighted_equals_macro(self):
        rng = random.Random(4)
        gold = [LABELS[i % 3] for i in range(30)]
        pred = [rng.choice(LABELS) for _ in range(30)]
        assert weighted_f1(confusion(gold, pred)) == pytest.approx(reference_macro_f1(gold, pred), abs=1e-12)

    def test_correct_example_never_hurts_class_contribution(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(3, 25)
            gold = [rng.choice(LABELS) for _ in range(n)]
            pred = [rng.choice(LABELS) for _ in range(n)]
            target = rng.choice(LABELS)
            idx = LABELS.index(target)
            f1, support = _per_class_f1(confusion(gold, pred))
            before = f1[idx] * support[idx]
            f1, support = _per_class_f1(confusion(gold + [target], pred + [target]))
            after = f1[idx] * support[idx]
            assert after >= before - 1e-12


class TestScoreReport:
    def test_invariants(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 30)
            gold = [rng.choice(LABELS) for _ in range(n)]
            pred = [rng.choice(LABELS) for _ in range(n)]
            cm = confusion(gold, pred)
            f1, support = _per_class_f1(cm)
            weighted = weighted_f1(cm)
            present = [f for f, s in zip(f1, support) if s > 0]
            assert min(present) - 1e-12 <= weighted <= max(present) + 1e-12
            recomputed = sum(f * s for f, s in zip(f1, support)) / sum(support)
            assert weighted == pytest.approx(recomputed, abs=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(MetricsError):
            ConfusionMatrix(np.array([[-1, 0, 0], [0, 0, 0], [0, 0, 0]]))
        with pytest.raises(MetricsError, match="must be 3x3"):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))
