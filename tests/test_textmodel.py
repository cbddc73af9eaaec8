"""Learner tests: hashing, featurization, the two adaptation/training
phases, gradients, prediction and serialization."""
import json
import logging
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from langselect import textmodel
from langselect.corpus import Dataset, Example
from langselect.errors import TextModelError
from langselect.learner_config import LearnerConfig
from langselect.textmodel import (
    AdaptationStats,
    Model,
    design_matrix,
    fine_tune,
    load_model,
    predict_texts,
    pretrain,
    save_model,
)

from conftest import make_dataset
from reference import (
    csr_row,
    dense,
    finite_difference_grads,
    fnv1a_64,
    reference_dense_fine_tune,
    reference_document_frequencies,
    reference_matmul,
    reference_objective,
    reference_rows,
    reference_sparse_fine_tune,
    reference_term_counts,
    reference_tfidf,
    relative_error,
)

LABELS = ("negative", "neutral", "positive")
SMALL = LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=64, epochs=2)


def random_example(rng, lang, i, length=(3, 12)):
    text = "".join(rng.choice("abcdef gh") for _ in range(rng.randint(*length))).strip() or "a"
    return Example(f"r{i}", text, rng.choice(LABELS))


def df_of(stats):
    """Document frequencies of AdaptationStats as {bucket: count}."""
    return dict(zip(stats.df_buckets.tolist(), stats.df_counts.tolist()))


def stats_fields(stats):
    return df_of(stats), stats.num_documents, stats.source_tag


def random_model(rng, config=SMALL, scale=1.0):
    weights = np.array(
        [[rng.gauss(0, scale) for _ in range(config.hash_buckets)] for _ in range(3)]
    )
    bias = np.array([rng.gauss(0, scale) for _ in range(3)])
    return Model(
        weights=weights,
        buckets=np.arange(config.hash_buckets),
        bias=bias,
        stats=AdaptationStats.uniform(),
        config=config,
    )


def dense_weights(model):
    """A model's weights over all hash_buckets, zero outside its buckets."""
    out = np.zeros((3, model.config.hash_buckets))
    out[:, model.buckets] = model.weights
    return out


class TestHashGram:
    def test_published_fnv1a_vectors(self):
        assert fnv1a_64("") == 0xCBF29CE484222325
        assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64("foobar") == 0x85944171F73967E8

    def test_unicode_stable(self):
        assert fnv1a_64("é") == fnv1a_64("é")
        assert fnv1a_64("é") != fnv1a_64("e")


# One to four UTF-8 bytes per character, an emoji (4 bytes) and a
# combining acute accent (2 bytes), empty text and texts shorter than
# any n.
UNICODE_TEXTS = [
    "", "a", "ab", "é", "e\u0301", "abc def", "ħ€𐍈", "\U0001F600x\U0001F600", "日本語テキスト",
    "naïve café \U0001F44D\U0001F3FD", "x\u0301\u0323y", "ab", "ሰላም ነው", "z" * 40,
]


class TestBatchHasher:
    """``_hash_batch`` against the scalar one-gram-at-a-time reference."""

    @staticmethod
    def assert_matches_reference(texts, ngram_min, ngram_max, buckets):
        got = textmodel._hash_batch(texts, ngram_min, ngram_max, buckets)
        assert len(got) == len(texts)
        for text, (b, c) in zip(texts, got):
            want_b, want_c = reference_term_counts(text, ngram_min, ngram_max, buckets)
            assert b.tolist() == want_b.tolist(), text
            assert c.tolist() == want_c.tolist(), text
            assert b.dtype == c.dtype == np.int32
            assert not b.flags.writeable and not c.flags.writeable

    @pytest.mark.parametrize("buckets", [2, 1 << 12, 1 << 18, 1 << 31])
    @pytest.mark.parametrize(
        "ngram_min, ngram_max", [(lo, hi) for lo in range(1, 9) for hi in range(lo, 9)]
    )
    def test_matches_scalar_hash_gram(self, ngram_min, ngram_max, buckets):
        self.assert_matches_reference(UNICODE_TEXTS, ngram_min, ngram_max, buckets)

    @pytest.mark.parametrize("chunk_chars", [1, 7, 16, 64])
    def test_batches_crossing_chunk_boundaries(self, monkeypatch, chunk_chars):
        # Chunks far smaller than the texts: every text boundary is a
        # chunk boundary somewhere, and texts longer than a chunk get
        # one of their own. Duplicate texts get equal counts.
        monkeypatch.setattr(textmodel, "_CHUNK_CHARS", chunk_chars)
        rng = random.Random(chunk_chars)
        texts = [rng.choice(UNICODE_TEXTS) for _ in range(60)]
        self.assert_matches_reference(texts, 1, 5, 1 << 18)

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            textmodel._hash_batch(["ok", "a\ud800b"], 1, 3, 64)
        with pytest.raises(UnicodeEncodeError):
            fnv1a_64("\ud800")

    def test_each_text_hashed_once_past_the_old_memo_size(self, monkeypatch, lang):
        # More distinct texts than the 2^16-entry LRU the memo replaced,
        # some of them twice: pretrain hashes each once, and
        # design_matrix hashes none again.
        monkeypatch.setattr(textmodel, "_TERM_COUNTS", {})
        seen = []
        batch = textmodel._hash_batch

        def spy(texts, *args):
            seen.extend(texts)
            return batch(texts, *args)

        monkeypatch.setattr(textmodel, "_hash_batch", spy)
        texts = [f"t{i}" for i in range((1 << 16) + 50)]
        examples = (Example(f"e{i}", t, None) for i, t in enumerate(texts + texts[:50]))
        corpus = Dataset(lang, "train", tuple(examples))
        config = LearnerConfig(ngram_min=1, ngram_max=2, hash_buckets=1 << 12, epochs=1)
        stats = pretrain(corpus, "t", config)
        X = design_matrix(texts + texts[:3], stats, config)
        assert X.shape == (len(texts) + 3, len(X.columns))
        assert sorted(seen) == sorted(texts)


class TestFeaturize:
    """A text's features: row 0 of ``design_matrix([text], ...)``."""

    def test_empty_text_zero_vector(self):
        vec = design_matrix([""], AdaptationStats.uniform(), SMALL)
        assert len(vec.indices) == 0

    def test_gram_enumeration(self):
        cfg = LearnerConfig(ngram_min=1, ngram_max=2, hash_buckets=1 << 16, epochs=1)
        vec = design_matrix(["ab"], AdaptationStats.uniform(), cfg)
        # padded "<ab>" yields 1-grams {pad, a, b, pad} and 2-grams
        # {pad a, ab, b pad}: 7 grams, 6 distinct (pad chars differ).
        assert 1 <= len(vec.indices) <= 7

    def test_unit_norm(self):
        rng = random.Random(2)
        stats = AdaptationStats.uniform()
        for _ in range(50):
            text = "".join(rng.choice("abcd ") for _ in range(rng.randint(1, 30))).strip()
            vec = design_matrix([text], stats, SMALL)
            if len(vec.data):
                assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-9)

    def test_indices_sorted_unique(self):
        vec = design_matrix(["abcabcabc"], AdaptationStats.uniform(), SMALL)
        assert (np.diff(vec.indices) > 0).all()

    def test_deterministic(self):
        stats = AdaptationStats(df_buckets=[3], df_counts=[2], num_documents=4, source_tag="t")
        a = design_matrix(["hello there"], stats, SMALL)
        b = design_matrix(["hello there"], stats, SMALL)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_idf_formula(self):
        # Single-char text with 1-grams only: three grams (two boundary
        # marks and the char), each tf=1, so pre-normalization values are
        # exactly idf = ln((1+N)/(1+df)) + 1.
        cfg = LearnerConfig(ngram_min=1, ngram_max=1, hash_buckets=1 << 16, epochs=1)
        char_bucket = fnv1a_64("a") & (cfg.hash_buckets - 1)
        stats = AdaptationStats(
            df_buckets=[char_bucket], df_counts=[3], num_documents=9, source_tag="t"
        )
        vec = design_matrix(["a"], stats, cfg)
        expected_seen = math.log((1 + 9) / (1 + 3)) + 1
        expected_unseen = math.log(10) + 1
        raw = {int(i): float(v) for i, v in zip(vec.columns[vec.indices], vec.data)}
        norm = math.sqrt(expected_seen**2 + 2 * expected_unseen**2)
        assert raw[char_bucket] == pytest.approx(expected_seen / norm, rel=1e-12)


class TestPretrain:
    def test_document_frequency_counts_documents(self, lang):
        ds = make_dataset([("abab", None), ("ab", None)], lang)
        stats = pretrain([ds], "t", SMALL)
        assert stats.num_documents == 2
        bucket = fnv1a_64("ab") & (SMALL.hash_buckets - 1)
        assert df_of(stats)[bucket] == 2

    def test_order_insensitive(self, lang):
        rows = [("first text", None), ("second one", None), ("third", None)]
        a = pretrain([make_dataset(rows, lang)], "t", SMALL)
        b = pretrain([make_dataset(rows[::-1], lang)], "t", SMALL)
        assert df_of(a) == df_of(b)
        assert a.num_documents == b.num_documents

    def test_empty_corpus_rejected(self, lang):
        with pytest.raises(TextModelError, match="adaptation corpus empty"):
            pretrain([Dataset(lang, "train", ())], "t", SMALL)
        with pytest.raises(TextModelError, match="num_documents >= 1"):
            AdaptationStats(df_buckets=[], df_counts=[], num_documents=0, source_tag="t")

    def test_labels_ignored(self, lang):
        rows = [("good day", "positive"), ("bad day", "negative"), ("a day", "neutral")]
        labeled = pretrain([make_dataset(rows, lang)], "t", SMALL)
        unlabeled = pretrain([make_dataset([(text, None) for text, _ in rows], lang)], "t", SMALL)
        assert np.array_equal(labeled.df_buckets, unlabeled.df_buckets)
        assert np.array_equal(labeled.df_counts, unlabeled.df_counts)
        assert labeled.num_documents == unlabeled.num_documents == 3

    def test_counts_bounded(self, lang):
        rng = random.Random(1)
        rows = [
            ("".join(rng.choice("abc ") for _ in range(10)).strip() or "a", None) for _ in range(20)
        ]
        stats = pretrain([make_dataset(rows, lang)], "t", SMALL)
        assert all(1 <= c <= stats.num_documents for c in df_of(stats).values())

    @pytest.mark.parametrize(
        "ngram_max, hash_buckets, side",
        [(2, 1 << 12, "below"), (3, 64, "above"), (1, 8, "equal")],
    )
    def test_document_frequencies_match_dict_sums(self, monkeypatch, lang, ngram_max, hash_buckets, side):
        # pretrain sorts the bucket occurrences when there are fewer of
        # them than buckets, and otherwise sums bincounts over blocks of
        # documents, here of 7 documents.
        monkeypatch.setattr(textmodel, "_DF_BLOCK_DOCS", 7)
        config = LearnerConfig(ngram_min=1, ngram_max=ngram_max, hash_buckets=hash_buckets, epochs=1)
        occurrences = lambda text: len(reference_term_counts(text, 1, ngram_max, hash_buckets)[0])
        texts, total = ["ab"], occurrences("ab")
        for i in range(400):
            text = chr(97 + i % 26) * (1 + i // 26)
            if side != "equal" or total + occurrences(text) <= hash_buckets:
                texts.append(text)
                total += occurrences(text)
        assert (total > hash_buckets, total == hash_buckets) == (side == "above", side == "equal")
        stats = pretrain([make_dataset([(t, None) for t in texts], lang)], "t", config)
        assert df_of(stats) == reference_document_frequencies(texts, 1, ngram_max, hash_buckets)
        assert stats.num_documents == len(texts)

    @pytest.mark.parametrize(
        "buckets, counts, match",
        [
            ([3], [0], "outside"),
            ([3], [5], "outside"),
            ([4, 3], [1, 1], "increasing"),
            ([3, 3], [1, 1], "increasing"),
            ([-1], [1], "increasing"),
            ([3], [1, 1], "equal length"),
        ],
    )
    def test_stats_validated(self, buckets, counts, match):
        with pytest.raises(TextModelError, match=match):
            AdaptationStats(df_buckets=buckets, df_counts=counts, num_documents=4, source_tag="t")

    def test_stats_arrays_read_only(self, lang):
        stats = pretrain([make_dataset([("ab", None)], lang)], "t", SMALL)
        assert not stats.df_buckets.flags.writeable
        assert not stats.df_counts.flags.writeable


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(TextModelError):
            LearnerConfig(ngram_min=0)
        with pytest.raises(TextModelError):
            LearnerConfig(ngram_min=3, ngram_max=2)
        with pytest.raises(TextModelError):
            LearnerConfig(hash_buckets=100)
        with pytest.raises(TextModelError, match=r"\[2, 2\^31\]"):
            LearnerConfig(hash_buckets=1 << 32)
        with pytest.raises(TextModelError):
            LearnerConfig(epochs=0)
        with pytest.raises(TextModelError):
            LearnerConfig(learning_rate=0.0)


class TestFineTune:
    def _toy(self, lang):
        return make_dataset([("good", "positive")] * 10 + [("bad", "negative")] * 10, lang)

    def test_separable_toy_reaches_perfect_train_accuracy(self, lang):
        cfg = LearnerConfig(hash_buckets=4096, ngram_max=4)
        model = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg, 1)
        preds = [predict_texts(model, [ex.text])[0][0] for ex in self._toy(lang)]
        gold = [ex.label for ex in self._toy(lang)]
        assert preds == gold

    def test_bitwise_deterministic(self, lang):
        cfg = LearnerConfig(hash_buckets=1024, ngram_max=3, epochs=5)
        a = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg, 7)
        b = fine_tune(AdaptationStats.uniform(), self._toy(lang), cfg, 7)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.loss_history == b.loss_history

    def test_seed_changes_model(self, lang):
        rng = random.Random(11)
        rows = [random_example(rng, lang, i) for i in range(64)]
        ds = Dataset(lang, "train", tuple(rows))
        cfg = LearnerConfig(hash_buckets=1024, ngram_max=3, epochs=5)
        a = fine_tune(AdaptationStats.uniform(), ds, cfg, 1)
        b = fine_tune(AdaptationStats.uniform(), ds, cfg, 2)
        assert not np.array_equal(a.weights, b.weights)

    def test_ridge_limit_uniform_predictions(self, lang):
        # Balanced 3-class set sized to the batch, so the prior gradient
        # vanishes and a huge ridge forces near-uniform predictions.
        rows = [(f"tok{i} blah", LABELS[i % 3]) for i in range(24)]
        ds = make_dataset(rows, lang)
        cfg = LearnerConfig(
            hash_buckets=1024, ngram_max=3, epochs=10, batch_size=24, l2_lambda=1e6
        )
        model = fine_tune(AdaptationStats.uniform(), ds, cfg, 3)
        assert float(np.abs(model.weights).max()) < 1e-3
        _, probs = predict_texts(model, ["anything here"])[0]
        assert all(abs(p - 1 / 3) < 0.01 for p in probs)

    @pytest.mark.parametrize("hash_buckets", [1 << 12, 1 << 20])
    def test_weights_only_for_training_buckets(self, lang, hash_buckets):
        rng = random.Random(5)
        ds = Dataset(lang, "train", tuple(random_example(rng, lang, i) for i in range(40)))
        cfg = LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=hash_buckets, epochs=2)
        stats = pretrain([ds], "t", cfg)
        model = fine_tune(stats, ds, cfg, 1)
        X = design_matrix([ex.text for ex in ds], stats, cfg)
        assert model.buckets.dtype == np.int64
        assert np.array_equal(model.buckets, np.unique(X.columns[X.indices]))
        assert model.weights.shape == (3, len(model.buckets))

    def test_single_class_warns(self, lang, caplog):
        ds = make_dataset([("fine", "neutral")] * 4, lang)
        with caplog.at_level(logging.WARNING, logger="langselect.textmodel"):
            model = fine_tune(AdaptationStats.uniform(), ds, SMALL, 0)
        assert any("covers only" in r.message for r in caplog.records)
        assert predict_texts(model, ["fine"])[0][0] == "neutral"

    def test_no_examples_rejected(self, lang):
        with pytest.raises(TextModelError, match="no training examples"):
            fine_tune(AdaptationStats.uniform(), Dataset(lang, "train", ()), SMALL, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_detected(self, lang):
        # Contradictory labels plus an absurd learning rate saturate the
        # softmax, sending the cross-entropy to infinity.
        ds = make_dataset([("same text", "positive"), ("same text", "negative")] * 8, lang)
        cfg = LearnerConfig(hash_buckets=256, ngram_max=3, epochs=4, learning_rate=1e12)
        with pytest.raises(TextModelError, match="divergence: reduce learning_rate"):
            fine_tune(AdaptationStats.uniform(), ds, cfg, 1)
        # Finite batch losses but weights whose squares overflow: the
        # epoch loss check reports it, with no numpy overflow warning.
        ds = make_dataset([("good day", "positive"), ("bad day", "negative"), ("a day", "neutral")], lang)
        cfg = LearnerConfig(hash_buckets=2**12, ngram_max=3, epochs=3, learning_rate=1e200, l2_lambda=0.0,
                            lr_decay=1.0)
        with pytest.raises(TextModelError, match="divergence: reduce learning_rate"):
            fine_tune(AdaptationStats.uniform(), ds, cfg, 1)
        # A learning rate near the float maximum overflows the batch
        # logits themselves: the batch loss check reports it, with no numpy
        # overflow warning, whether the shift or the bias overflows.
        ds = make_dataset([("good day", "positive"), ("bad day", "negative"), ("a day", "neutral"),
                           ("same", "positive"), ("same", "negative")], lang)
        for batch_size in (1, 2):
            cfg = LearnerConfig(hash_buckets=2**12, ngram_max=3, epochs=3, learning_rate=1.7e308, l2_lambda=0.0,
                                lr_decay=1.0, batch_size=batch_size)
            with pytest.raises(TextModelError, match="divergence: reduce learning_rate"):
                fine_tune(AdaptationStats.uniform(), ds, cfg, 1)

    def test_loss_history_decreases(self, lang):
        rng = random.Random(23)
        rows = [random_example(rng, lang, i) for i in range(90)]
        ds = Dataset(lang, "train", tuple(rows))
        model = fine_tune(AdaptationStats.uniform(), ds, LearnerConfig(hash_buckets=2048), 5)
        assert len(model.loss_history) == 20
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_unlabeled_example_rejected(self, lang):
        ds = Dataset(lang, "train", (Example("u", "text", None),))
        with pytest.raises(TextModelError, match="labeled"):
            fine_tune(AdaptationStats.uniform(), ds, SMALL, 0)


def batch_arrays(batch, config):
    """A labeled batch as dense tf-idf rows over all hash_buckets, under
    uniform stats, and class indices."""
    X = dense(design_matrix([ex.text for ex in batch], AdaptationStats.uniform(), config), config.hash_buckets)
    return X, np.array([LABELS.index(ex.label) for ex in batch])


class TestLossAndGradient:
    """The dense reference trainer's objective, whose gradient
    ``fine_tune`` steps along (see ``test_sparse_trainer_matches_dense``)."""

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
            X, y = batch_arrays([random_example(rng, lang, i) for i in range(rng.randint(1, 5))], config)
            _, grad_w, grad_b = reference_objective(model.weights, model.bias, X, y, config.l2_lambda)
            fd_w, fd_b = finite_difference_grads(
                lambda w, b: reference_objective(w, b, X, y, config.l2_lambda)[0], model.weights, model.bias
            )
            assert relative_error(grad_w, fd_w) < 1e-4, trial
            assert relative_error(grad_b, fd_b) < 1e-4, trial

    def test_uniform_model_balanced_batch_loss_is_ln3(self, lang):
        model = random_model(random.Random(0), SMALL, scale=0.0)
        X, y = batch_arrays([Example(f"b{i}", f"text {i}", LABELS[i % 3]) for i in range(6)], SMALL)
        loss, _, _ = reference_objective(model.weights, model.bias, X, y, SMALL.l2_lambda)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_duplicating_batch_changes_nothing(self, lang):
        rng = random.Random(9)
        model = random_model(rng)
        X, y = batch_arrays([random_example(rng, lang, i) for i in range(4)], SMALL)
        loss1, gw1, gb1 = reference_objective(model.weights, model.bias, X, y, SMALL.l2_lambda)
        loss2, gw2, gb2 = reference_objective(model.weights, model.bias, np.vstack([X, X]), np.concatenate([y, y]),
                                              SMALL.l2_lambda)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(gw1, gw2, atol=1e-12)
        np.testing.assert_allclose(gb1, gb2, atol=1e-12)


class TestPredict:
    def test_zero_model_ties_break_to_negative(self):
        model = random_model(random.Random(0), scale=0.0)
        label, probs = predict_texts(model, ["whatever"])[0]
        assert label == "negative"
        assert probs == (pytest.approx(1 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_probabilities_are_distributions(self, lang):
        rng = random.Random(31)
        for _ in range(50):
            model = random_model(rng, scale=rng.uniform(0, 3))
            text = "".join(rng.choice("abcdef ") for _ in range(rng.randint(1, 20)))
            _, probs = predict_texts(model, [text])[0]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in probs)

    def test_batch_matches_single(self, lang):
        rng = random.Random(13)
        model = random_model(rng)
        texts = ["abc", "def fed", "aaa bbb"]
        batch = predict_texts(model, texts)
        singles = [predict_texts(model, [t])[0] for t in texts]
        assert batch == singles

    @pytest.mark.parametrize("hash_buckets", [1 << 12, 1 << 18])
    def test_compact_model_matches_dense_product(self, lang, hash_buckets):
        # The probe texts draw on letters the training texts lack, so
        # their rows have non-zeros in buckets the model has no weight for.
        rng = random.Random(hash_buckets)
        cfg = LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=hash_buckets, epochs=3)
        ds = Dataset(lang, "train", tuple(random_example(rng, lang, i, (20, 40)) for i in range(30)))
        stats = pretrain([ds], "t", cfg)
        model = fine_tune(stats, ds, cfg, 1)
        probe = ["".join(rng.choice("abcdxyz ") for _ in range(30)).strip() for _ in range(20)] + [""]
        X = design_matrix(probe, stats, cfg)
        assert not np.isin(X.columns[X.indices], model.buckets).all()
        # The sequential product over the dense weights: BLAS's summation
        # order would differ in the last bits from any row-order sum.
        probs = textmodel._softmax(reference_matmul(X, dense_weights(model).T[X.columns]) + model.bias)
        got = predict_texts(model, probe)
        assert [p for _, p in got] == [tuple(row) for row in probs.tolist()]
        assert [label for label, _ in got] == [LABELS[i] for i in probs.argmax(axis=1)]


class TestSerialization:
    def test_roundtrip_identical_predictions(self, tmp_path, lang):
        ds = make_dataset(
            [("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang
        )
        stats = pretrain([ds], "tapt:test", SMALL)
        cfg = LearnerConfig(hash_buckets=512, ngram_max=3, epochs=4)
        model = fine_tune(stats, ds, cfg, 2)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert stats_fields(loaded.stats) == stats_fields(model.stats)
        assert loaded.loss_history == model.loss_history
        assert np.array_equal(loaded.buckets, model.buckets)
        assert np.array_equal(loaded.weights, model.weights)
        texts = ["good stuff", "zzz", "bad meh", ""]
        assert predict_texts(loaded, texts) == predict_texts(model, texts)

    def test_dense_layout_file_loads(self, tmp_path, lang):
        # Model files once held dense (3, hash_buckets) weights and no
        # buckets; they load as a model over all buckets.
        ds = make_dataset([("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang)
        model = fine_tune(pretrain([ds], "t", SMALL), ds, SMALL, 4)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        del arrays["buckets"]
        arrays["weights"] = dense_weights(model)
        np.savez_compressed(path, **arrays)
        loaded = load_model(path)
        assert np.array_equal(loaded.buckets, np.arange(SMALL.hash_buckets))
        assert np.array_equal(loaded.weights, dense_weights(model))
        texts = ["good stuff", "zzz", "bad meh", ""]
        assert predict_texts(loaded, texts) == predict_texts(model, texts)

    MISSHAPEN = {
        "bias-cut": r"bias has shape \(2,\), not \(3,\)",
        "weights-cut": r"weights have shape \(3, 10\), not \(3, \d+\)",
        "dense-weights-cut": r"dense weights have shape \(3, 10\), not \(3, 64\)",
        "buckets-reversed": "buckets must increase strictly",
        "buckets-repeated": "buckets must increase strictly",
        "buckets-negative": r"buckets must lie in \[0, 64\)",
        "buckets-too-high": r"buckets must lie in \[0, 64\)",
        "buckets-float": "buckets must be a 1-D integer array, got float64",
        "buckets-2d": r"buckets must be a 1-D integer array, got int64 of shape \(1, ",
    }

    @pytest.mark.parametrize("damage", sorted(MISSHAPEN))
    def test_misshapen_arrays_name_the_path(self, tmp_path, lang, damage):
        ds = make_dataset([("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang)
        path = tmp_path / "model.npz"
        save_model(fine_tune(AdaptationStats.uniform(), ds, SMALL, 1), path)
        with np.load(path) as data:
            arrays = dict(data)
        buckets = arrays["buckets"].copy()
        assert len(buckets) > 10
        if damage == "bias-cut":
            arrays["bias"] = arrays["bias"][:2]
        elif damage == "weights-cut":
            arrays["weights"] = arrays["weights"][:, :10]
        elif damage == "dense-weights-cut":
            dense_cut = np.zeros((3, 10))
            kept = buckets < 10
            dense_cut[:, buckets[kept]] = arrays["weights"][:, kept]
            arrays["weights"] = dense_cut
            del arrays["buckets"]
        elif damage == "buckets-reversed":
            arrays["buckets"] = buckets[::-1]
        elif damage == "buckets-repeated":
            buckets[1] = buckets[0]
            arrays["buckets"] = buckets
        elif damage == "buckets-negative":
            buckets[0] = -1
            arrays["buckets"] = buckets
        elif damage == "buckets-too-high":
            buckets[-1] = SMALL.hash_buckets
            arrays["buckets"] = buckets
        elif damage == "buckets-float":
            arrays["buckets"] = buckets.astype(np.float64)
        else:
            arrays["buckets"] = buckets.reshape(1, -1)
        np.savez_compressed(path, **arrays)
        reason = self.MISSHAPEN[damage]
        with pytest.raises(TextModelError, match=f"cannot load model file {re.escape(str(path))}: {reason}"):
            load_model(path)

    def test_model_file_with_config_seed_loads(self, tmp_path, lang):
        # Model files written while LearnerConfig had a seed field carry
        # "seed" in their meta config.
        ds = make_dataset([("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang)
        model = fine_tune(pretrain([ds], "t", SMALL), ds, SMALL, 4)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["config"]["seed"] = 4
        arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.loss_history == model.loss_history
        texts = ["good stuff", "zzz", "bad meh", ""]
        assert predict_texts(loaded, texts) == predict_texts(model, texts)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TextModelError, match="not found"):
            load_model(tmp_path / "nope.npz")

    @pytest.mark.parametrize(
        "damage", ["not-a-zip", "truncated", "empty", "no-meta", "no-weights", "meta-not-json", "directory"]
    )
    def test_unloadable_file_names_the_path(self, tmp_path, lang, damage):
        ds = make_dataset([("good stuff", "positive"), ("bad stuff", "negative"), ("meh", "neutral")] * 5, lang)
        path = tmp_path / "model.npz"
        save_model(fine_tune(AdaptationStats.uniform(), ds, SMALL, 1), path)
        with np.load(path) as data:
            arrays = dict(data)
        if damage == "not-a-zip":
            path.write_bytes(b"not a model\n" * 8)
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "meta-not-json":
            np.savez_compressed(path, **{**arrays, "meta": np.frombuffer(b"{oops", dtype=np.uint8)})
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            del arrays[damage.removeprefix("no-")]
            np.savez_compressed(path, **arrays)
        with pytest.raises(TextModelError, match=f"cannot load model file {re.escape(str(path))}"):
            load_model(path)

    def test_bad_document_frequency_rejected(self, tmp_path, lang):
        stats = pretrain([make_dataset([("ab", None), ("cd", None)], lang)], "t", SMALL)
        model = Model(
            weights=np.zeros((3, SMALL.hash_buckets)),
            buckets=np.arange(SMALL.hash_buckets),
            bias=np.zeros(3),
            stats=stats,
            config=SMALL,
        )
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["df_counts"] = arrays["df_counts"] + stats.num_documents
        np.savez_compressed(path, **arrays)
        with pytest.raises(TextModelError, match="outside"):
            load_model(path)


class TestAdaptationEffect:
    def test_task_stats_beat_unrelated_stats(self):
        # Constructed so the effect is forced: discriminative grams are
        # frequent in the task corpus and absent from the generic one.
        from langselect.harness.experiments import run_matrix
        from langselect.selection import PlanCell
        from synth_fixtures import build_store, tapt_universe

        uni = tapt_universe()
        store = build_store(uni)
        learner = LearnerConfig(**uni.learner)
        mono = [PlanCell("qq", ("qq",), None)]
        seeds = (1, 2)
        (tapt,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="tapt").entries.values()
        (generic,) = run_matrix(mono, store, seeds=seeds, learner=learner, adaptation="lapt").entries.values()
        assert tapt.mean >= generic.mean


def csr_case(lang, layout, config):
    """Design-matrix rows for kernel tests. Texts are long enough for
    each row to hold dozens of non-zeros, so a summation order other
    than the sequential one changes the last bits."""
    rng = random.Random(len(layout))
    words = ["".join(rng.choice("abcdefgh ijk") for _ in range(40)).strip() for _ in range(4)]
    corpus = make_dataset([(w, None) for w in words[:2]], lang)
    texts = [words[int(c)] if c.isdigit() else "" for c in layout]
    return design_matrix(texts, pretrain([corpus], "t", config), config)


# "-" is an empty row; equal digits are duplicate texts.
CSR_LAYOUTS = ["-012", "01-2", "012-", "0120", "--", "-", "3"]
CSR_CONFIGS = {"256": LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=256), "2^18": LearnerConfig()}


def wide_range(rng, shape, order="C"):
    """Signed values spread over 16 orders of magnitude."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    return np.asarray(values, order=order)


class TestCsrRows:
    """The numpy CSR kernels equal sequential pure-Python references bit
    for bit (np.array_equal, not allclose)."""

    @pytest.mark.parametrize("buckets", sorted(CSR_CONFIGS))
    @pytest.mark.parametrize("layout", CSR_LAYOUTS)
    def test_locate_matches_reference(self, lang, layout, buckets):
        X = csr_case(lang, layout, CSR_CONFIGS[buckets])
        n = X.shape[0]
        for rows in [list(range(n)), list(reversed(range(n))), [n - 1, 0, n - 1], [0], []]:
            which, pos = X.locate(np.array(rows, dtype=np.intp))
            assert (np.diff(which) >= 0).all()
            got = [(X.indices[pos[which == r]].tolist(), X.data[pos[which == r]].tolist()) for r in range(len(rows))]
            assert got == reference_rows(X, rows)

    @pytest.mark.parametrize("buckets", sorted(CSR_CONFIGS))
    @pytest.mark.parametrize("layout", CSR_LAYOUTS)
    def test_matmul_matches_reference(self, lang, layout, buckets):
        X = csr_case(lang, layout, CSR_CONFIGS[buckets])
        rng = np.random.default_rng(1)
        for order in "CF":
            W = wide_range(rng, (X.shape[1], 3), order)
            assert np.array_equal(X @ W, reference_matmul(X, W))

    def test_order_sensitive_inputs(self, lang):
        # The kernel tests above can tell summation orders apart: a
        # pairwise sum of one row's terms differs from the sequential one.
        X = csr_case(lang, "0", CSR_CONFIGS["256"])
        W = wide_range(np.random.default_rng(1), (X.shape[1], 3))
        pairwise = np.ascontiguousarray((X.data[:, None] * W[X.indices]).T).sum(axis=1)
        assert len(X.data) > 16
        assert not np.array_equal(pairwise, reference_matmul(X, W)[0])

    @pytest.mark.parametrize("buckets", sorted(CSR_CONFIGS))
    @pytest.mark.parametrize("layout", CSR_LAYOUTS)
    def test_matches_scipy(self, lang, layout, buckets):
        sp = pytest.importorskip("scipy.sparse")
        X = csr_case(lang, layout, CSR_CONFIGS[buckets])
        S = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        rng = np.random.default_rng(3)
        W = wide_range(rng, (X.shape[1], 3), "F")
        assert np.array_equal(X @ W, S @ W)
        rows = [X.shape[0] - 1, 0, X.shape[0] - 1]
        which, pos = X.locate(np.array(rows, dtype=np.intp))
        Sr = S[rows]
        assert np.array_equal(which, np.repeat(np.arange(len(rows)), np.diff(Sr.indptr)))
        assert np.array_equal(X.indices[pos], Sr.indices)
        assert np.array_equal(X.data[pos], Sr.data)


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
        assert X.shape == (len(texts), len(X.columns))
        for i, text in enumerate(texts):
            want = reference_tfidf(text, stats, cfg.ngram_min, cfg.ngram_max, cfg.hash_buckets)
            indices, values = csr_row(X, i)
            assert X.columns[indices].tolist() == sorted(want), i
            np.testing.assert_allclose(values, [want[b] for b in sorted(want)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "l2_lambda, learning_rate, lr_decay",
        [(1e-4, 0.5, 0.9), (10.0, 1.0, 1.0)],
    )
    def test_trainer_matches_sequential_reference_exactly(self, lang, l2_lambda, learning_rate, lr_decay):
        # The same floats as a one-non-zero-at-a-time loop: a change to
        # any summation order fails here, and would need a new
        # NUMERICS_VERSION.
        # 21 rows in batches of 4 end each epoch on a one-row batch, and
        # the 120 steps pass the l2_lambda=10 fold-back floor at step 97.
        rng = random.Random(23)
        ds = Dataset(lang, "train", tuple(random_example(rng, lang, i, (20, 40)) for i in range(21)))
        cfg = LearnerConfig(
            ngram_min=1, ngram_max=3, hash_buckets=256, epochs=20, batch_size=4,
            l2_lambda=l2_lambda, learning_rate=learning_rate, lr_decay=lr_decay,
        )
        stats = pretrain([ds], "t", cfg)
        model = fine_tune(stats, ds, cfg, 5)
        X = design_matrix([ex.text for ex in ds], stats, cfg)
        y = np.array([LABELS.index(ex.label) for ex in ds])
        weights, bias, history = reference_sparse_fine_tune(X, y, cfg, 5)
        expected = np.zeros((3, cfg.hash_buckets))
        expected[:, X.columns] = weights
        assert np.array_equal(dense_weights(model), expected)
        assert np.array_equal(model.bias, bias)
        assert model.loss_history == tuple(history)

    @pytest.mark.parametrize(
        "l2_lambda, learning_rate, lr_decay",
        [(0.0, 0.5, 0.9), (1e-4, 0.5, 0.9), (10.0, 1.0, 1.0), (1e6, 0.1, 0.9)],
    )
    def test_sparse_trainer_matches_dense(self, lang, l2_lambda, learning_rate, lr_decay):
        rng = random.Random(17)
        ds = Dataset(lang, "train", tuple(random_example(rng, lang, i) for i in range(40)))
        cfg = LearnerConfig(
            ngram_min=1, ngram_max=3, hash_buckets=256, epochs=20, batch_size=8,
            l2_lambda=l2_lambda, learning_rate=learning_rate, lr_decay=lr_decay,
        )
        stats = pretrain([ds], "t", cfg)
        model = fine_tune(stats, ds, cfg, 3)
        X = dense(design_matrix([ex.text for ex in ds], stats, cfg), cfg.hash_buckets)
        y = np.array([LABELS.index(ex.label) for ex in ds])
        weights, bias, history = reference_dense_fine_tune(X, y, cfg, 3)
        np.testing.assert_allclose(dense_weights(model), weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.bias, bias, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.loss_history, history, rtol=1e-12, atol=0)
        probe = [random_example(rng, lang, i).text for i in range(30)]
        ref_logits = dense(design_matrix(probe, stats, cfg), cfg.hash_buckets) @ weights.T + bias
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
    assert X.shape == (3, len(X.columns))
    assert csr_row(X, 1) == ([], [])


def test_nothing_allocated_is_sized_by_hash_buckets(lang):
    # At 2^24 buckets a hash_buckets-long float64 array takes 128 MB;
    # featurizing, training and predicting a few dozen rows stay far below.
    rng = random.Random(9)
    ds = Dataset(lang, "train", tuple(random_example(rng, lang, i, (20, 40)) for i in range(40)))
    cfg = LearnerConfig(ngram_min=1, ngram_max=3, hash_buckets=1 << 24, epochs=2)
    stats = pretrain([ds], "t", cfg)
    texts = [ex.text for ex in ds]
    # The warm-up fills the term-count memo, which is not sized by
    # hash_buckets either but outlives the calls traced below.
    X = design_matrix(texts, stats, cfg)
    assert (np.diff(X.columns) > 0).all()
    for i, text in enumerate(texts):
        want = reference_tfidf(text, stats, cfg.ngram_min, cfg.ngram_max, cfg.hash_buckets)
        assert X.columns[csr_row(X, i)[0]].tolist() == sorted(want), i
    probe = texts[:3] + ["hgfedcba", ""]
    tracemalloc.start()
    try:
        model = fine_tune(stats, ds, cfg, 1)
        predict_texts(model, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
