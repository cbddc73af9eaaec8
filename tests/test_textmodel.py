"""Learner tests: hashing, featurization, the two adaptation/training
phases, gradients, prediction and serialization."""
import logging
import math
import random

import numpy as np
import pytest

from langselect import (
    AdaptationStats,
    Dataset,
    Example,
    LearnerConfig,
    TextModelError,
    featurize,
    fine_tune,
    load_model,
    loss_and_gradient,
    predict,
    predict_texts,
    pretrain,
    save_model,
    strip_labels,
)
from langselect.textmodel import Model, design_matrix, hash_gram

from conftest import make_dataset
from reference import (
    finite_difference_grads,
    reference_dense_fine_tune,
    reference_tfidf,
    relative_error,
)

LABELS = ("negative", "neutral", "positive")
SMALL = LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=64, epochs=2)


def random_example(rng, lang, i, length=(3, 12)):
    text = "".join(rng.choice("abcdef gh") for _ in range(rng.randint(*length))).strip() or "a"
    return Example(f"r{i}", text, rng.choice(LABELS), lang)


def random_model(rng, config=SMALL, scale=1.0):
    weights = np.array(
        [[rng.gauss(0, scale) for _ in range(config.hash_buckets)] for _ in range(3)]
    )
    bias = np.array([rng.gauss(0, scale) for _ in range(3)])
    return Model(weights=weights, bias=bias, stats=AdaptationStats.uniform(), config=config)


class TestHashGram:
    def test_published_fnv1a_vectors(self):
        assert hash_gram("") == 0xCBF29CE484222325
        assert hash_gram("a") == 0xAF63DC4C8601EC8C
        assert hash_gram("foobar") == 0x85944171F73967E8

    def test_unicode_stable(self):
        assert hash_gram("é") == hash_gram("é")
        assert hash_gram("é") != hash_gram("e")


class TestFeaturize:
    def test_empty_text_zero_vector(self):
        vec = featurize("", AdaptationStats.uniform(), SMALL)
        assert len(vec.indices) == 0

    def test_gram_enumeration(self):
        cfg = LearnerConfig(ngram_min=1, ngram_max=2, hash_buckets=1 << 16, epochs=1)
        vec = featurize("ab", AdaptationStats.uniform(), cfg)
        # padded "<ab>" yields 1-grams {pad, a, b, pad} and 2-grams
        # {pad a, ab, b pad}: 7 grams, 6 distinct (pad chars differ).
        assert 1 <= len(vec.indices) <= 7

    def test_unit_norm(self):
        rng = random.Random(2)
        stats = AdaptationStats.uniform()
        for _ in range(50):
            text = "".join(rng.choice("abcd ") for _ in range(rng.randint(1, 30))).strip()
            vec = featurize(text, stats, SMALL)
            if len(vec.values):
                assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-9)

    def test_indices_sorted_unique(self):
        vec = featurize("abcabcabc", AdaptationStats.uniform(), SMALL)
        assert (np.diff(vec.indices) > 0).all()

    def test_deterministic(self):
        stats = AdaptationStats(document_frequency={3: 2}, num_documents=4, source_tag="t")
        a = featurize("hello there", stats, SMALL)
        b = featurize("hello there", stats, SMALL)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_idf_formula(self):
        # Single-char text with 1-grams only: three grams (two boundary
        # marks and the char), each tf=1, so pre-normalization values are
        # exactly idf = ln((1+N)/(1+df)) + 1.
        cfg = LearnerConfig(ngram_min=1, ngram_max=1, hash_buckets=1 << 16, epochs=1)
        char_bucket = hash_gram("a") & (cfg.hash_buckets - 1)
        stats = AdaptationStats(
            document_frequency={char_bucket: 3}, num_documents=9, source_tag="t"
        )
        vec = featurize("a", stats, cfg)
        expected_seen = math.log((1 + 9) / (1 + 3)) + 1
        expected_unseen = math.log(10) + 1
        raw = {int(i): float(v) for i, v in zip(vec.indices, vec.values)}
        norm = math.sqrt(expected_seen**2 + 2 * expected_unseen**2)
        assert raw[char_bucket] == pytest.approx(expected_seen / norm, rel=1e-12)


class TestPretrain:
    def test_document_frequency_counts_documents(self, lang):
        ds = make_dataset([("abab", None), ("ab", None)], lang)
        stats = pretrain([ds], "t", SMALL)
        assert stats.num_documents == 2
        bucket = hash_gram("ab") & (SMALL.hash_buckets - 1)
        assert stats.document_frequency[bucket] == 2

    def test_order_insensitive(self, lang):
        rows = [("first text", None), ("second one", None), ("third", None)]
        a = pretrain([make_dataset(rows, lang)], "t", SMALL)
        b = pretrain([make_dataset(rows[::-1], lang)], "t", SMALL)
        assert a.document_frequency == b.document_frequency
        assert a.num_documents == b.num_documents

    def test_empty_corpus_rejected(self, lang):
        with pytest.raises(TextModelError, match="adaptation corpus empty"):
            pretrain([Dataset(lang, "train", ())], "t", SMALL)

    def test_labeled_corpus_rejected(self, lang):
        ds = make_dataset([("a", "positive")], lang)
        with pytest.raises(TextModelError, match="unlabeled"):
            pretrain([ds], "t", SMALL)
        pretrain([strip_labels(ds)], "t", SMALL)

    def test_counts_bounded(self, lang):
        rng = random.Random(1)
        rows = [
            ("".join(rng.choice("abc ") for _ in range(10)).strip() or "a", None) for _ in range(20)
        ]
        stats = pretrain([make_dataset(rows, lang)], "t", SMALL)
        assert all(1 <= c <= stats.num_documents for c in stats.document_frequency.values())

    def test_merged_sums(self, lang):
        a = pretrain([make_dataset([("ab", None)], lang)], "a", SMALL)
        b = pretrain([make_dataset([("ab", None), ("cd", None)], lang)], "b", SMALL)
        merged = a.merged(b)
        assert merged.num_documents == 3
        bucket = hash_gram("ab") & (SMALL.hash_buckets - 1)
        assert merged.document_frequency[bucket] == 2


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(TextModelError):
            LearnerConfig(ngram_min=0)
        with pytest.raises(TextModelError):
            LearnerConfig(ngram_min=3, ngram_max=2)
        with pytest.raises(TextModelError):
            LearnerConfig(hash_buckets=100)
        with pytest.raises(TextModelError):
            LearnerConfig(epochs=0)
        with pytest.raises(TextModelError):
            LearnerConfig(learning_rate=0.0)


class TestFineTune:
    def _toy(self, lang):
        return make_dataset([("good", "positive")] * 10 + [("bad", "negative")] * 10, lang)

    def test_separable_toy_reaches_perfect_train_accuracy(self, lang):
        cfg = LearnerConfig(hash_buckets=4096, ngram_max=4, seed=1)
        model = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg)
        preds = [predict(model, ex.text)[0] for ex in self._toy(lang)]
        gold = [ex.label for ex in self._toy(lang)]
        assert preds == gold

    def test_bitwise_deterministic(self, lang):
        cfg = LearnerConfig(hash_buckets=1024, ngram_max=3, epochs=5, seed=7)
        a = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg)
        b = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.loss_history == b.loss_history

    def test_seed_changes_model(self, lang):
        rng = random.Random(11)
        rows = [random_example(rng, lang, i) for i in range(64)]
        ds = Dataset(lang, "train", tuple(rows))
        cfg = LearnerConfig(hash_buckets=1024, ngram_max=3, epochs=5, seed=1)
        a = fine_tune(AdaptationStats.uniform(), ds, cfg)
        b = fine_tune(AdaptationStats.uniform(), ds, LearnerConfig(**{**cfg.__dict__, "seed": 2}))
        assert not np.array_equal(a.weights, b.weights)

    def test_ridge_limit_uniform_predictions(self, lang):
        # Balanced 3-class set sized to the batch, so the prior gradient
        # vanishes and a huge ridge forces near-uniform predictions.
        rows = [(f"tok{i} blah", LABELS[i % 3]) for i in range(24)]
        ds = make_dataset(rows, lang)
        cfg = LearnerConfig(
            hash_buckets=1024, ngram_max=3, epochs=10, batch_size=24, l2_lambda=1e6, seed=3
        )
        model = fine_tune(AdaptationStats.uniform(), ds, cfg)
        assert float(np.abs(model.weights).max()) < 1e-3
        _, probs = predict(model, "anything here")
        assert all(abs(p - 1 / 3) < 0.01 for p in probs)

    def test_single_class_warns(self, lang, caplog):
        ds = make_dataset([("fine", "neutral")] * 4, lang)
        with caplog.at_level(logging.WARNING, logger="langselect.textmodel"):
            model = fine_tune(AdaptationStats.uniform(), ds, SMALL)
        assert any("covers only" in r.message for r in caplog.records)
        assert predict(model, "fine")[0] == "neutral"

    def test_no_examples_rejected(self, lang):
        with pytest.raises(TextModelError, match="no training examples"):
            fine_tune(AdaptationStats.uniform(), Dataset(lang, "train", ()), SMALL)

    def test_divergence_detected(self, lang):
        # Contradictory labels plus an absurd learning rate saturate the
        # softmax, sending the cross-entropy to infinity.
        ds = make_dataset([("same text", "positive"), ("same text", "negative")] * 8, lang)
        cfg = LearnerConfig(hash_buckets=256, ngram_max=3, epochs=4, learning_rate=1e12, seed=1)
        with pytest.raises(TextModelError, match="divergence: reduce learning_rate"):
            fine_tune(AdaptationStats.uniform(), ds, cfg)

    def test_loss_history_decreases(self, lang):
        rng = random.Random(23)
        rows = [random_example(rng, lang, i) for i in range(90)]
        ds = Dataset(lang, "train", tuple(rows))
        model = fine_tune(AdaptationStats.uniform(), ds, LearnerConfig(hash_buckets=2048, seed=5))
        assert len(model.loss_history) == 20
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_unlabeled_example_rejected(self, lang):
        ds = Dataset(lang, "train", (Example("u", "text", None, lang),))
        with pytest.raises(TextModelError, match="labeled"):
            fine_tune(AdaptationStats.uniform(), ds, SMALL)


class TestLossAndGradient:
    def test_gradient_matches_finite_differences(self, lang):
        rng = random.Random(123)
        for trial in range(25):
            config = LearnerConfig(
                ngram_min=1,
                ngram_max=rng.randint(1, 3),
                hash_buckets=64,
                l2_lambda=rng.choice([0.0, 1e-3, 0.05]),
                epochs=1,
            )
            model = random_model(rng, config)
            batch = [random_example(rng, lang, i) for i in range(rng.randint(1, 5))]
            loss, grad_w, grad_b = loss_and_gradient(model, batch)
            fd_w, fd_b = finite_difference_grads(loss_and_gradient, model, batch)
            assert relative_error(grad_w, fd_w) < 1e-4, trial
            assert relative_error(grad_b, fd_b) < 1e-4, trial

    def test_uniform_model_balanced_batch_loss_is_ln3(self, lang):
        model = random_model(random.Random(0), SMALL, scale=0.0)
        batch = [Example(f"b{i}", f"text {i}", LABELS[i % 3], lang) for i in range(6)]
        loss, _, _ = loss_and_gradient(model, batch)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_duplicating_batch_changes_nothing(self, lang):
        rng = random.Random(9)
        model = random_model(rng)
        batch = [random_example(rng, lang, i) for i in range(4)]
        loss1, gw1, gb1 = loss_and_gradient(model, batch)
        loss2, gw2, gb2 = loss_and_gradient(model, batch + batch)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(gw1, gw2, atol=1e-12)
        np.testing.assert_allclose(gb1, gb2, atol=1e-12)

    def test_empty_batch_rejected(self, lang):
        with pytest.raises(TextModelError, match="empty batch"):
            loss_and_gradient(random_model(random.Random(1)), [])


class TestPredict:
    def test_zero_model_ties_break_to_negative(self):
        model = random_model(random.Random(0), scale=0.0)
        label, probs = predict(model, "whatever")
        assert label == "negative"
        assert probs == (pytest.approx(1 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_probabilities_are_distributions(self, lang):
        rng = random.Random(31)
        for _ in range(50):
            model = random_model(rng, scale=rng.uniform(0, 3))
            text = "".join(rng.choice("abcdef ") for _ in range(rng.randint(1, 20)))
            _, probs = predict(model, text)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in probs)

    def test_batch_matches_single(self, lang):
        rng = random.Random(13)
        model = random_model(rng)
        texts = ["abc", "def fed", "aaa bbb"]
        batch = predict_texts(model, texts)
        singles = [predict(model, t) for t in texts]
        assert batch == singles


class TestSerialization:
    def test_roundtrip_identical_predictions(self, tmp_path, lang):
        ds = make_dataset(
            [("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang
        )
        stats = pretrain([strip_labels(ds)], "tapt:test", SMALL)
        cfg = LearnerConfig(hash_buckets=512, ngram_max=3, epochs=4, seed=2)
        model = fine_tune(stats, ds, cfg)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.stats == model.stats
        assert loaded.loss_history == model.loss_history
        texts = ["good stuff", "zzz", "bad meh", ""]
        assert predict_texts(loaded, texts) == predict_texts(model, texts)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TextModelError, match="not found"):
            load_model(tmp_path / "nope.npz")


class TestAdaptationEffect:
    def test_task_stats_beat_unrelated_stats(self):
        # Constructed so the effect is forced: discriminative grams are
        # frequent in the task corpus and absent from the generic one.
        from langselect.harness import PlanCell, run_matrix
        from langselect.synth import build_store, tapt_universe

        uni = tapt_universe()
        store = build_store(uni)
        learner = LearnerConfig(**uni.learner)
        mono = [PlanCell("qq", ("qq",), None)]
        seeds = (1, 2)
        (tapt,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="tapt").entries.values()
        (generic,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="lapt").entries.values()
        assert tapt.mean >= generic.mean


class TestAgainstReferences:
    """The vectorized tf-idf and the sparse lazy-L2 trainer agree with
    per-text and dense references to 1e-12 relative."""

    def test_design_matrix_matches_per_text_tfidf(self, lang):
        rng = random.Random(4)
        corpus = make_dataset([(random_example(rng, lang, i).text, None) for i in range(15)], lang)
        cfg = LearnerConfig(ngram_min=2, ngram_max=4, hash_buckets=256, epochs=1)
        stats = pretrain([corpus], "t", cfg)
        words = [random_example(rng, lang, i).text for i in range(6)]
        texts = ["", words[0], words[1], words[0], "", words[2], words[3], words[1], ""]
        X = design_matrix(texts, stats, cfg)
        assert X.shape == (len(texts), cfg.hash_buckets)
        for i, text in enumerate(texts):
            want = reference_tfidf(
                text, stats.document_frequency, stats.num_documents,
                cfg.ngram_min, cfg.ngram_max, cfg.hash_buckets,
            )
            row = X[i]
            assert row.indices.tolist() == sorted(want), i
            np.testing.assert_allclose(row.data, [want[b] for b in sorted(want)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "l2_lambda, learning_rate, lr_decay",
        [(0.0, 0.5, 0.9), (1e-4, 0.5, 0.9), (10.0, 1.0, 1.0), (1e6, 0.1, 0.9)],
    )
    def test_sparse_trainer_matches_dense(self, lang, l2_lambda, learning_rate, lr_decay):
        rng = random.Random(17)
        ds = Dataset(lang, "train", tuple(random_example(rng, lang, i) for i in range(40)))
        cfg = LearnerConfig(
            ngram_min=1, ngram_max=3, hash_buckets=256, epochs=20, batch_size=8,
            l2_lambda=l2_lambda, learning_rate=learning_rate, lr_decay=lr_decay, seed=3,
        )
        stats = pretrain([strip_labels(ds)], "t", cfg)
        model = fine_tune(stats, ds, cfg)
        X = design_matrix([ex.text for ex in ds], stats, cfg).toarray()
        y = np.array([LABELS.index(ex.label) for ex in ds])
        weights, bias, history = reference_dense_fine_tune(X, y, cfg)
        np.testing.assert_allclose(model.weights, weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.bias, bias, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.loss_history, history, rtol=1e-12, atol=0)
        probe = [random_example(rng, lang, i).text for i in range(30)]
        ref_logits = design_matrix(probe, stats, cfg).toarray() @ weights.T + bias
        assert [label for label, _ in predict_texts(model, probe)] == [
            LABELS[int(np.argmax(row))] for row in ref_logits
        ]
        if l2_lambda == 10.0:
            # The proximal shrinks pass the 1e-100 fold-back floor within
            # the last few of the 100 steps, so the folded weights still
            # carry into the result instead of decaying away.
            steps = math.ceil(len(ds) / cfg.batch_size) * cfg.epochs
            fold_step = math.ceil(100 / math.log10(1 + learning_rate * l2_lambda))
            assert steps - 5 < fold_step <= steps


def test_design_matrix_shapes(lang):
    X = design_matrix(["ab", "", "abc"], AdaptationStats.uniform(), SMALL)
    assert X.shape == (3, SMALL.hash_buckets)
    assert X[1].nnz == 0
