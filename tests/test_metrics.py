"""Metrics tests: confusion counting and weighted F1, cross-checked
against an independent counting implementation."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from langselect.errors import MetricsError
from langselect.metrics import _per_class_f1, confusion, weighted_f1

from reference import reference_macro_f1, reference_weighted_f1

LABELS = ("negative", "neutral", "positive")


class TestConfusion:
    def test_single_correct(self):
        cm = confusion(["positive"], ["positive"])
        assert cm[2][2] == 1
        assert sum(map(sum, cm)) == 1

    def test_off_diagonal(self):
        cm = confusion(["positive", "negative"], ["negative", "negative"])
        assert cm[2][0] == 1
        assert cm[0][0] == 1

    def test_order_invariance(self):
        rng = random.Random(5)
        pairs = [(rng.choice(LABELS), rng.choice(LABELS)) for _ in range(60)]
        gold, pred = zip(*pairs)
        cm1 = confusion(list(gold), list(pred))
        rng.shuffle(pairs)
        gold, pred = zip(*pairs)
        cm2 = confusion(list(gold), list(pred))
        assert cm1 == cm2

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
            weighted_f1(((0, 0, 0),) * 3)

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


# repr of weighted_f1 on each of _pinned_label_lists(). Score journals
# keep such floats under cell keys that do not change with the code, so
# none of these may move, not even in its last bit.
_PINNED_F1 = (
    "0.33135814574686606", "0.0", "0.2857142857142857", "1.0",
    "0.26918158567774936", "1.0", "0.16298975286317058", "0.0",
    "0.1962604098118859", "0.1220419202163624", "0.24154589371980678", "0.0",
    "0.4437661104327771", "0.17568242486868163", "0.23011985409067223", "1.0",
    "0.14700544464609802", "0.31467312348668275", "0.4470631491865061", "0.4029406112260032",
    "0.0", "0.2527017935615007", "0.27203093626831265", "0.4347826086956522",
    "0.23631792863896084", "0.19393939393939394", "0.4480335486795874", "0.24693608862894517",
    "0.40895003705715155", "0.31385550125478795", "0.4065168868110705", "0.48296056097423756",
    "0.383341867212835", "0.31445357015490466", "0.3296110897189064", "0.40667989417989425",
    "0.45567913717559827", "0.0", "1.0", "0.511237422657415",
    "0.16109253065774803", "1.0", "0.2000580720092915", "0.4038014923396177",
    "0.0", "0.34558982755772544", "0.35099622814216275", "0.21367521367521367",
    "0.3863712757830405", "0.303398569023569",
)


def _pinned_label_lists():
    rng = random.Random(35)
    for _ in range(50):
        n = rng.randint(1, 300)
        gold_classes = rng.sample(LABELS, rng.randint(1, 3))
        pred_classes = rng.sample(LABELS, rng.randint(1, 3))
        yield [rng.choice(gold_classes) for _ in range(n)], [rng.choice(pred_classes) for _ in range(n)]


def test_scores_pinned_to_the_last_bit():
    got = tuple(repr(weighted_f1(confusion(gold, pred))) for gold, pred in _pinned_label_lists())
    assert got == _PINNED_F1


def test_import_leaves_numpy_out():
    # Scoring runs in verbs that never train, which must not pay for
    # importing numpy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, langselect.metrics; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True)
    assert done.stdout.strip() == "False"
