"""Majority-vote ensembling tests."""
import itertools
import random
import re

import pytest

from langselect.ensemble import VotePool, majority_vote, pool_from_files, read_predictions_tsv, write_predictions_tsv
from langselect.errors import CorpusError, EnsembleError

LABELS = ("negative", "neutral", "positive")


def pred(label, probs=None):
    if probs is None:
        probs = tuple(0.8 if l == label else 0.1 for l in LABELS)
    return (label, probs)


class TestMajorityVote:
    def test_strict_majority(self):
        pool = VotePool(per_seed=(
            (pred("positive"),),
            (pred("positive"),),
            (pred("negative"),),
        ))
        assert majority_vote(pool) == ["positive"]

    def test_probability_tie_break(self):
        # Three-way tie; mean probabilities favor positive (.40 vs .35/.25).
        pool = VotePool(per_seed=(
            (("positive", (0.30, 0.25, 0.45)),),
            (("negative", (0.45, 0.25, 0.30)),),
            (("neutral", (0.30, 0.25, 0.45)),),
        ))
        assert majority_vote(pool) == ["positive"]

    def test_full_tie_falls_back_to_class_order(self):
        pool = VotePool(per_seed=(
            (("positive", (0.0, 0.0, 0.0)),),
            (("negative", (0.0, 0.0, 0.0)),),
            (("neutral", (0.0, 0.0, 0.0)),),
        ))
        assert majority_vote(pool) == ["negative"]

    def test_single_seed_identity(self):
        preds = tuple(pred(l) for l in ("negative", "positive", "neutral"))
        pool = VotePool(per_seed=(preds,))
        assert majority_vote(pool) == ["negative", "positive", "neutral"]

    def test_seed_order_invariance(self):
        rng = random.Random(7)
        seeds = tuple(
            tuple(pred(rng.choice(LABELS), (rng.random(),) * 3) for _ in range(12))
            for _ in range(4)
        )
        expected = majority_vote(VotePool(per_seed=seeds))
        for perm in itertools.permutations(range(4)):
            permuted = VotePool(per_seed=tuple(seeds[i] for i in perm))
            assert majority_vote(permuted) == expected

    def test_unanimous_agrees(self):
        rng = random.Random(3)
        row = tuple(pred(rng.choice(LABELS)) for _ in range(20))
        pool = VotePool(per_seed=(row, row, row, row, row))
        assert majority_vote(pool) == [label for label, _ in row]

    def test_copies_of_one_model_equal_that_model(self):
        rng = random.Random(5)
        row = tuple(pred(rng.choice(LABELS), (rng.random(), rng.random(), rng.random())) for _ in range(9))
        single = majority_vote(VotePool(per_seed=(row,)))
        for k in (2, 3, 5):
            assert majority_vote(VotePool(per_seed=(row,) * k)) == single


class TestVotePoolValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(EnsembleError, match="at least one seed"):
            VotePool(per_seed=())

    def test_length_mismatch_rejected(self):
        with pytest.raises(EnsembleError, match="expected"):
            VotePool(per_seed=((pred("positive"),), ()))

    def test_unknown_label_rejected(self):
        with pytest.raises(EnsembleError, match="unknown label"):
            VotePool(per_seed=((("meh", (0.0, 0.0, 0.0)),),))


class TestPredictionFiles:
    def test_roundtrip_with_probs(self, tmp_path):
        path = tmp_path / "p.tsv"
        preds = [("positive", (0.1, 0.2, 0.7)), ("negative", (0.9, 0.05, 0.05))]
        write_predictions_tsv(path, ["a", "b"], preds, include_probs=True)
        ids, loaded = read_predictions_tsv(path)
        assert ids == ["a", "b"]
        assert loaded == preds

    def test_plain_format_defaults_probs_to_zero(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions_tsv(path, ["a"], [("neutral", (0.1, 0.8, 0.1))])
        assert path.read_text(encoding="utf-8") == "id\tlabel\na\tneutral\n"
        _, loaded = read_predictions_tsv(path)
        assert loaded == [("neutral", (0.0, 0.0, 0.0))]

    def test_pool_from_files_checks_alignment(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_predictions_tsv(a, ["x", "y"], [pred("positive"), pred("negative")])
        write_predictions_tsv(b, ["x", "z"], [pred("positive"), pred("negative")])
        with pytest.raises(EnsembleError, match="ids do not match"):
            pool_from_files([a, b])
        with pytest.raises(EnsembleError, match="no prediction files given"):
            pool_from_files([])

    def test_pool_from_files_majority(self, tmp_path):
        paths = []
        votes = [["positive", "negative"], ["positive", "positive"], ["negative", "positive"]]
        for i, labels in enumerate(votes):
            path = tmp_path / f"s{i}.tsv"
            write_predictions_tsv(path, ["x", "y"], [pred(l) for l in labels], include_probs=True)
            paths.append(path)
        ids, pool = pool_from_files(paths)
        assert ids == ["x", "y"]
        assert majority_vote(pool) == ["positive", "positive"]

    def test_malformed_predictions_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        with pytest.raises(EnsembleError, match="1 ids vs 2 predictions"):
            write_predictions_tsv(path, ["a"], [pred("positive"), pred("negative")])
        path.write_text("id\tlabel\na\tmeh\n", encoding="utf-8")
        with pytest.raises(EnsembleError, match=f"^{re.escape(str(path))}: unknown label 'meh' at line 2$"):
            read_predictions_tsv(path)

    @pytest.mark.parametrize("row", ["x1\tpositive\t0.1", "x1\tpositive\t0.1\t0.2"], ids=["3-fields", "4-fields"])
    def test_partial_probabilities_rejected(self, tmp_path, row):
        # Such a row once loaded as zero probabilities, which then broke
        # a vote's tie against the other file's real ones.
        path, other = tmp_path / "p.tsv", tmp_path / "q.tsv"
        path.write_text(f"id\tlabel\n{row}\n", encoding="utf-8")
        write_predictions_tsv(other, ["x1"], [pred("negative")], include_probs=True)
        given = len(row.split("\t")) - 2
        with pytest.raises(EnsembleError, match=f"^{re.escape(str(path))}: {given} of 3 probabilities at line 2$"):
            pool_from_files([path, other])

    def test_missing_file(self, tmp_path):
        # Prediction files share the TSV reader, and so its data error.
        with pytest.raises(CorpusError, match="not found"):
            read_predictions_tsv(tmp_path / "nope.tsv")

    @pytest.mark.parametrize(
        "include_probs, expected",
        [
            (False, "id\tlabel\na\tpositive\nb\tneutral\n"),
            (True, "id\tlabel\tp_negative\tp_neutral\tp_positive\n"
                   "a\tpositive\t0.1\t0.2\t0.7\n"
                   "b\tneutral\t0.3333333333333333\t0.3333333333333333\t0.3333333333333333\n"),
        ],
        ids=["plain", "probs"],
    )
    def test_written_bytes(self, tmp_path, include_probs, expected):
        # Probabilities are written as their repr, so they read back bit
        # for bit; lines end in LF on every platform.
        path = tmp_path / "p.tsv"
        preds = [("positive", (0.1, 0.2, 0.7)), ("neutral", (1 / 3, 1 / 3, 1 / 3))]
        write_predictions_tsv(path, ["a", "b"], preds, include_probs=include_probs)
        assert path.read_bytes() == expected.encode("utf-8")
