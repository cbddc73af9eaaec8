"""Corpus module tests: normalization, loaders, dedup and sampling."""
import logging
import random

import pytest

from langselect import (
    CorpusError,
    Dataset,
    Example,
    LanguageCode,
    dedup_dev,
    load_labeled_tsv,
    load_language_metadata,
    load_unlabeled_text,
    normalize_text,
    sample_per_language,
    strip_labels,
)
from langselect.corpus import (
    AFRISENTI_LANGUAGES,
    MENTION_RE,
    URL_RE,
    _warn_short_language,
    save_labeled_tsv,
)

from conftest import make_dataset


class TestNormalizeText:
    def test_combined_rules(self):
        raw = "sooooo goood!!!! @ama see https://t.co/xyz"
        assert normalize_text(raw) == "sooo goood! USER see HTTPURL"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_already_normalized(self):
        assert normalize_text("HTTPURL USER") == "HTTPURL USER"

    def test_url_variants(self):
        assert normalize_text("visit www.example.com now") == "visit HTTPURL now"
        assert normalize_text("ftp://files.example.org/data") == "HTTPURL"
        assert normalize_text("http://a.b c http://d.e") == "HTTPURL c HTTPURL"

    def test_mention_variants(self):
        assert normalize_text("@user1 @user2 hi") == "USER USER hi"
        assert normalize_text("@@@name") == "USER"
        assert normalize_text("@ name") == "@ name"

    def test_char_runs(self):
        assert normalize_text("aaaaaa") == "aaa"
        assert normalize_text("aaa") == "aaa"
        assert normalize_text("gooood moooorning") == "goood mooorning"

    def test_punct_runs(self):
        assert normalize_text("!!") == "!"
        assert normalize_text("wow...") == "wow."
        assert normalize_text("..,,!!??") == ".,!?"

    def test_emoji_kept(self):
        # Emoji are symbols, not punctuation: only the >3 run rule applies.
        assert normalize_text("\U0001F602" * 5) == "\U0001F602" * 3
        assert normalize_text("\U0001F602" * 2) == "\U0001F602" * 2

    def test_whitespace(self):
        assert normalize_text("  spaced   out  ") == "spaced out"
        assert normalize_text("tab\tand\nnewline") == "tab and newline"
        assert normalize_text("a b") == "a b"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(20230412)
        alphabet = (
            "abcdefgh XYZ@wwwwww.:://!?.,~_09\t\n é\U0001F602—'\"-/"
            "@user www. http:// HTTPURL USER"
        )
        for _ in range(400):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            once = normalize_text(raw)
            assert normalize_text(once) == once, raw
            assert URL_RE.search(once) is None, raw
            assert MENTION_RE.search(once) is None, raw


class TestLanguageCode:
    def test_equality_ignores_metadata(self):
        a = LanguageCode("ha", "Afro-Asiatic/Chadic")
        b = LanguageCode("ha", "completely different")
        assert a == b
        assert hash(a) == hash(b)

    def test_validation(self):
        with pytest.raises(CorpusError):
            LanguageCode("")
        with pytest.raises(CorpusError):
            LanguageCode("HA")
        with pytest.raises(CorpusError):
            LanguageCode("h a")

    def test_top_family(self):
        assert LanguageCode("ha", "Afro-Asiatic/Chadic").top_family == "Afro-Asiatic"
        assert LanguageCode("pt", "Indo-European").top_family == "Indo-European"


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self, lang):
        ex = Example("a", "text", "positive", lang)
        with pytest.raises(CorpusError, match="duplicate id"):
            Dataset(lang, "train", (ex, ex))

    def test_language_mismatch_rejected(self, lang):
        other = LanguageCode("yy")
        ex = Example("a", "text", "positive", other)
        with pytest.raises(CorpusError, match="belongs to"):
            Dataset(lang, "train", (ex,))

    def test_unknown_split(self, lang):
        with pytest.raises(CorpusError, match="unknown split"):
            Dataset(lang, "validation", ())

    def test_empty_text_rejected(self, lang):
        with pytest.raises(CorpusError, match="empty text"):
            Example("a", "", "positive", lang)

    def test_unknown_label_rejected(self, lang):
        with pytest.raises(CorpusError, match="unknown label"):
            Example("a", "text", "happy", lang)


class TestLoadLabeledTsv:
    def test_basic_parse(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tgreat day\tpositive\n")
        ds = load_labeled_tsv(path, lang)
        assert len(ds) == 1
        assert ds.examples[0] == Example("t1", "great day", "positive", lang)

    def test_unknown_label_names_line_and_value(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\thappy\n")
        with pytest.raises(CorpusError, match=r"unknown label 'happy' at line 2"):
            load_labeled_tsv(path, lang)

    def test_malformed_row_names_line(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\tpositive\njust-one-field\n")
        with pytest.raises(CorpusError, match="line 3"):
            load_labeled_tsv(path, lang)

    def test_missing_file(self, tmp_path, lang):
        with pytest.raises(CorpusError, match="not found"):
            load_labeled_tsv(tmp_path / "nope.tsv", lang)

    def test_mention_only_text_kept(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\t@user\tpositive\n")
        ds = load_labeled_tsv(path, lang)
        assert [ex.text for ex in ds] == ["USER"]

    def test_labels_case_insensitive(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\tPositive\nt2\tmeh\tNEUTRAL\n")
        ds = load_labeled_tsv(path, lang)
        assert [ex.label for ex in ds] == ["positive", "neutral"]

    def test_crlf_accepted(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"id\ttext\tlabel\r\nt1\tok\tpositive\r\n")
        ds = load_labeled_tsv(path, lang)
        assert [ex.text for ex in ds] == ["ok"]

    def test_roundtrip(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text(
            "id\ttext\tlabel\n"
            "t1\tsoooooo cooool @buddy\tpositive\n"
            "t2\tvisit www.spam.example now!!!\tnegative\n"
            "t3\tjust fine\tneutral\n"
        )
        ds = load_labeled_tsv(path, lang)
        out = tmp_path / "out.tsv"
        save_labeled_tsv(ds, out)
        assert load_labeled_tsv(out, lang) == ds


class TestLoadUnlabeledText:
    def test_blank_lines_skipped(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("one\n\ntwo\nthree\n")
        ds = load_unlabeled_text(path, lang)
        assert [ex.text for ex in ds] == ["one", "two", "three"]
        assert not any(ex.label for ex in ds)

    def test_url_normalized(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("visit https://x.co\n")
        ds = load_unlabeled_text(path, lang)
        assert ds.examples[0].text == "visit HTTPURL"

    def test_empty_file_ok(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("")
        assert len(load_unlabeled_text(path, lang)) == 0

    def test_invalid_utf8_names_offset(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_bytes(b"fine\n\xff\xfe broken\n")
        with pytest.raises(CorpusError, match="byte offset 5"):
            load_unlabeled_text(path, lang)


class TestDedupDev:
    def test_overlap_removed(self, lang):
        train = make_dataset([("a b", "positive"), ("c", "negative")], lang)
        dev = make_dataset([("a b", "positive"), ("d", "neutral")], lang, split="dev", prefix="d")
        star = dedup_dev(train, dev)
        assert star.split == "devstar"
        assert [ex.text for ex in star] == ["d"]

    def test_disjoint_unchanged(self, lang):
        train = make_dataset([("a", "positive")], lang)
        dev = make_dataset([("b", "negative"), ("c", "neutral")], lang, split="dev", prefix="d")
        assert [ex.text for ex in dedup_dev(train, dev)] == ["b", "c"]

    def test_fully_contained_gives_empty(self, lang):
        train = make_dataset([("a", "positive"), ("b", "negative")], lang)
        dev = make_dataset([("a", "positive"), ("b", "negative")], lang, split="dev", prefix="d")
        assert len(dedup_dev(train, dev)) == 0

    def test_idempotent(self, lang):
        train = make_dataset([("a", "positive"), ("b", "negative")], lang)
        dev = make_dataset(
            [("a", "positive"), ("x", "neutral"), ("y", "negative")], lang, split="dev", prefix="d"
        )
        once = dedup_dev(train, dev)
        assert dedup_dev(train, once) == once

    def test_language_mismatch(self, lang):
        other = LanguageCode("yy")
        train = make_dataset([("a", "positive")], lang)
        dev = make_dataset([("b", "negative")], other, split="dev")
        with pytest.raises(CorpusError, match="language mismatch"):
            dedup_dev(train, dev)


class TestSamplePerLanguage:
    def _train(self, n, lang):
        return make_dataset([(f"text {i}", "positive") for i in range(n)], lang)

    def test_shortfall_returns_all(self, lang):
        ds = self._train(300, lang)
        (out,) = sample_per_language([ds], 500, seed=1)
        assert out == ds

    def test_shortfall_warns_once_per_language_size_and_cap(self, lang, caplog):
        _warn_short_language.cache_clear()
        short = self._train(3, lang)
        other = make_dataset([("t", "positive")], LanguageCode("yy"))
        with caplog.at_level(logging.WARNING, logger="langselect.corpus"):
            for seed in range(4):
                sample_per_language([short, other], 4, seed=seed)
            sample_per_language([short], 6, seed=1)
            sample_per_language([self._train(2, lang)], 6, seed=1)
        assert [r.getMessage() for r in caplog.records] == [
            "xx: only 3 train rows available, requested 4; using all",
            "yy: only 1 train rows available, requested 4; using all",
            "xx: only 3 train rows available, requested 6; using all",
            "xx: only 2 train rows available, requested 6; using all",
        ]

    def test_exact_size_keeps_order(self, lang):
        ds = self._train(5, lang)
        (out,) = sample_per_language([ds], 5, seed=1)
        assert out == ds

    def test_deterministic(self, lang):
        ds = self._train(50, lang)
        a = sample_per_language([ds], 7, seed=3)[0]
        b = sample_per_language([ds], 7, seed=3)[0]
        assert a == b
        c = sample_per_language([ds], 7, seed=4)[0]
        assert a != c

    def test_frozen_subsample(self, lang):
        # Regression pin so cross-platform drift would be caught.
        ds = self._train(10, lang)
        (out,) = sample_per_language([ds], 3, seed=42)
        assert [ex.id for ex in out] == ["e4", "e6", "e8"]

    def test_original_order_preserved(self, lang):
        ds = self._train(40, lang)
        (out,) = sample_per_language([ds], 11, seed=9)
        ids = [int(ex.id[1:]) for ex in out]
        assert ids == sorted(ids)

    def test_independent_of_other_languages(self, lang):
        other = make_dataset([(f"o {i}", "negative") for i in range(30)], LanguageCode("yy"))
        ds = self._train(30, lang)
        alone = sample_per_language([ds], 9, seed=5)[0]
        together = sample_per_language([other, ds], 9, seed=5)[1]
        assert alone == together

    def test_k_zero_rejected(self, lang):
        with pytest.raises(CorpusError, match=">= 1"):
            sample_per_language([self._train(3, lang)], 0, seed=1)

    def test_requires_train_split(self, lang):
        dev = make_dataset([("a", "positive")], lang, split="dev")
        with pytest.raises(CorpusError, match="train"):
            sample_per_language([dev], 1, seed=1)


class TestMetadata:
    def test_load_metadata_file(self, tmp_path):
        path = tmp_path / "langs.tsv"
        path.write_text("code\tfamily\tsubgroup\nha\tAfro-Asiatic/Chadic\tChadic\npt\tIndo-European\n")
        meta = load_language_metadata(path)
        assert meta["ha"].family == "Afro-Asiatic/Chadic"
        assert meta["ha"].subgroup == "Chadic"
        assert meta["pt"].subgroup is None

    def test_builtin_roster(self):
        assert len(AFRISENTI_LANGUAGES) == 14
        assert AFRISENTI_LANGUAGES["ha"].top_family == "Afro-Asiatic"
        assert AFRISENTI_LANGUAGES["pcm"].top_family == "English-Creole"
        families = {lc.top_family for lc in AFRISENTI_LANGUAGES.values()}
        assert families == {"Afro-Asiatic", "Niger-Congo", "English-Creole", "Indo-European"}


def test_strip_labels(lang):
    ds = make_dataset([("a", "positive"), ("b", "negative")], lang)
    stripped = strip_labels(ds)
    assert [ex.label for ex in stripped] == [None, None]
    assert [ex.text for ex in stripped] == ["a", "b"]
