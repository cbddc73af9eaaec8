"""Corpus module tests: normalization, loaders, dedup and sampling."""
import random
import re
import sys

import pytest

from langselect.corpus import (
    AFRISENTI_LANGUAGES,
    MENTION_RE,
    URL_RE,
    Dataset,
    Example,
    LanguageCode,
    _is_punct,
    dedup_dev,
    load_labeled_tsv,
    load_texts_tsv,
    load_unlabeled_text,
    normalize_text,
    sample_per_language,
    save_labeled_tsv,
)
from langselect.ensemble import read_predictions_tsv
from langselect.errors import CorpusError

from conftest import BOUNDARY_CHARS, BOUNDARY_IDS, make_dataset
from reference import reference_normalize


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


# Every code point, surrogates included, in one string.
ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = [c for c in ALL_CODE_POINTS if c.isspace()]
# Characters whose runs the rules treat differently: letters, digits,
# ASCII punctuation, other Unicode punctuation (P*), "_", symbols that
# string.punctuation does ($, +, ^) and does not (©, °) list, and emoji.
RUN_CHARS = "aZé7!.-?—«¡、‿_$+^©°\U0001F602\U0001F44D"


def _random_tweet(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.randrange(6)
        if kind == 0:
            pieces.append(rng.choice(RUN_CHARS) * rng.randint(1, 6))
        elif kind == 1:
            # Schemes in any case, with characters that case-fold onto
            # scheme letters (İ -> i, ſ -> s, Kelvin K -> k).
            scheme = rng.choice(["http", "HTTPS", "Ftp", "\u0130ttp", "\u017f", "\u212a", "9x", "a+b.c-d", ""])
            pieces.append(scheme + rng.choice(["://", ":/", "//", ":"]) + rng.choice(["t.co/x", "", "@a", "!!"]))
        elif kind == 2:
            pieces.append(rng.choice(["www.", "WWW.", "wWw.", "ww.", "w.", "W.", "www", "\u0175ww."]) + rng.choice(["ex.com", "", "..."]))
        elif kind == 3:
            pieces.append("@" * rng.randint(1, 3) + rng.choice(["name", "_x9", "", "!", "@"]))
        elif kind == 4:
            pieces.append(rng.choice(WHITESPACE) * rng.randint(1, 3))
        else:
            pieces.append("".join(rng.choice("abcxyz") for _ in range(rng.randint(1, 5))))
    return "".join(pieces)


class TestNormalizeMatchesReference:
    """normalize_text against the five-regex reference, and the facts
    about Python's regex engine its faster passes rely on."""

    def test_generated_tweets(self):
        rng = random.Random(20231018)
        for _ in range(20000):
            raw = _random_tweet(rng)
            assert normalize_text(raw) == reference_normalize(raw), repr(raw)

    def test_every_whitespace_code_point(self):
        for c in WHITESPACE:
            raw = f"{c}a{c}{c}!!{c}"
            assert normalize_text(raw) == reference_normalize(raw) == "a !", repr(c)

    def test_regex_whitespace_is_str_isspace(self):
        assert re.findall(r"\s", ALL_CODE_POINTS) == WHITESPACE

    def test_only_underscore_is_punctuation_and_word_or_space(self):
        word_or_space = re.findall(r"[\w\s]", ALL_CODE_POINTS)
        assert [c for c in word_or_space if _is_punct(c)] == ["_"]

    def test_url_literals_have_no_case_variants_but_w(self):
        assert re.findall(r"w", ALL_CODE_POINTS, re.IGNORECASE) == ["W", "w"]
        assert re.findall(r"[:/.]", ALL_CODE_POINTS, re.IGNORECASE) == [".", "/", ":"]


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


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self, lang):
        ex = Example("a", "text", "positive")
        with pytest.raises(CorpusError, match="duplicate id"):
            Dataset(lang, "train", (ex, ex))

    def test_unknown_split(self, lang):
        with pytest.raises(CorpusError, match="unknown split"):
            Dataset(lang, "validation", ())

    @pytest.mark.parametrize("code", ["", "XX", "x x", None, LanguageCode("xx")])
    def test_invalid_code_rejected(self, code):
        with pytest.raises(CorpusError, match="invalid language code"):
            Dataset(code, "train", ())

    def test_empty_text_rejected(self, lang):
        with pytest.raises(CorpusError, match="empty text"):
            Example("a", "", "positive")

    def test_unknown_label_rejected(self, lang):
        with pytest.raises(CorpusError, match="unknown label"):
            Example("a", "text", "happy")


class TestLoadLabeledTsv:
    def test_basic_parse(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tgreat day\tpositive\n", encoding="utf-8")
        ds = load_labeled_tsv(path, lang)
        assert len(ds) == 1
        assert ds.examples[0] == Example("t1", "great day", "positive")

    def test_unknown_label_names_line_and_value(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\thappy\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"unknown label 'happy' at line 2"):
            load_labeled_tsv(path, lang)

    def test_malformed_row_names_line(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\tpositive\njust-one-field\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 3"):
            load_labeled_tsv(path, lang)

    def test_missing_file(self, tmp_path, lang):
        with pytest.raises(CorpusError, match="not found"):
            load_labeled_tsv(tmp_path / "nope.tsv", lang)

    def test_mention_only_text_kept(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\t@user\tpositive\n", encoding="utf-8")
        ds = load_labeled_tsv(path, lang)
        assert [ex.text for ex in ds] == ["USER"]

    def test_labels_case_insensitive(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\nt1\tok\tPositive\nt2\tmeh\tNEUTRAL\n", encoding="utf-8")
        ds = load_labeled_tsv(path, lang)
        assert [ex.label for ex in ds] == ["positive", "neutral"]

    def test_crlf_accepted(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"id\ttext\tlabel\r\nt1\tok\tpositive\r\n")
        ds = load_labeled_tsv(path, lang)
        assert [ex.text for ex in ds] == ["ok"]

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_boundary_character_stays_in_its_text(self, tmp_path, lang, ch):
        # Labeled and predict --input files alike: the character stays in
        # its row, and normalization turns it into a space.
        path = tmp_path / "d.tsv"
        path.write_text(f"id\ttext\tlabel\nt1\thello{ch}world\tpositive\nt2\tok\tneutral\n", encoding="utf-8")
        assert [(ex.id, ex.text, ex.label) for ex in load_labeled_tsv(path, lang)] == [
            ("t1", "hello world", "positive"), ("t2", "ok", "neutral")
        ]
        assert load_texts_tsv(path) == (["t1", "t2"], ["hello world", "ok"])

    def test_roundtrip(self, tmp_path, lang):
        path = tmp_path / "d.tsv"
        path.write_text(
            "id\ttext\tlabel\n"
            "t1\tsoooooo cooool @buddy\tpositive\n"
            "t2\tvisit www.spam.example now!!!\tnegative\n"
            "t3\tjust fine\tneutral\n",
            encoding="utf-8",
        )
        ds = load_labeled_tsv(path, lang)
        out = tmp_path / "out.tsv"
        save_labeled_tsv(ds, out)
        assert load_labeled_tsv(out, lang) == ds


def _labeled_rows(path):
    return [(ex.id, ex.text, ex.label) for ex in load_labeled_tsv(path, "xx")]


def _text_rows(path):
    return list(zip(*load_texts_tsv(path)))


def _prediction_rows(path):
    ids, predictions = read_predictions_tsv(path)
    return list(zip(ids, predictions))


# Two rows whose second field is a text and a label alike, and the
# same rows with the three probabilities a prediction row needs.
_ROWS = "a\tpositive\tneutral\nb\tnegative\tpositive\n"
_PREDICTION_ROWS = "a\tpositive\t0.1\t0.2\t0.7\nb\tnegative\t0.5\t0.25\t0.25\n"


@pytest.mark.parametrize("read_rows, rows", [(_labeled_rows, _ROWS), (_text_rows, _ROWS),
                                             (_prediction_rows, _PREDICTION_ROWS)],
                         ids=["labeled", "texts", "predictions"])
class TestSharedTsvRules:
    """Every TSV reader takes the same header, line and field rules from
    ``tsv_rows``. Each reader is given two rows valid for it."""

    def test_header_only_gives_no_rows(self, tmp_path, read_rows, rows):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\tlabel\n", encoding="utf-8")
        assert read_rows(path) == []

    def test_blank_lines_skipped(self, tmp_path, read_rows, rows):
        plain, spaced = tmp_path / "plain.tsv", tmp_path / "spaced.tsv"
        plain.write_text("h\n" + rows, encoding="utf-8")
        spaced.write_text("h\n\n  \n" + rows.replace("\n", "\n \t \n\n", 1) + "\n", encoding="utf-8")
        assert len(read_rows(plain)) == 2
        assert read_rows(spaced) == read_rows(plain)

    def test_crlf_reads_like_lf(self, tmp_path, read_rows, rows):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(("h\n" + rows).encode("utf-8"))
        crlf.write_bytes(("h\n" + rows).replace("\n", "\r\n").encode("utf-8"))
        assert read_rows(crlf) == read_rows(lf)

    def test_lone_cr_reads_like_lf(self, tmp_path, read_rows, rows):
        lf, cr = tmp_path / "lf.tsv", tmp_path / "cr.tsv"
        lf.write_bytes(("h\n" + rows).encode("utf-8"))
        cr.write_bytes(("h\n" + rows).replace("\n", "\r").encode("utf-8"))
        assert read_rows(cr) == read_rows(lf)

    def test_leading_bom_dropped(self, tmp_path, read_rows, rows):
        plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        plain.write_text("h\n" + rows, encoding="utf-8")
        bom.write_text("\ufeffh\n" + rows, encoding="utf-8")
        assert read_rows(bom) == read_rows(plain)

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_boundary_character_stays_in_its_field(self, tmp_path, read_rows, rows, ch):
        plain, path = tmp_path / "plain.tsv", tmp_path / "d.tsv"
        plain.write_text("h\n" + rows, encoding="utf-8")
        path.write_text("h\n" + rows.replace("a\t", f"a{ch}z\t"), encoding="utf-8")
        read = read_rows(path)
        assert len(read) == 2 and read[0][0] == f"a{ch}z"
        assert read[0][1:] == read_rows(plain)[0][1:] and read[1] == read_rows(plain)[1]

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_error_line_counts_only_newlines(self, tmp_path, read_rows, rows, ch):
        path = tmp_path / "d.tsv"
        text = f"h{ch}x\r\n" + rows.replace("a\t", f"a{ch}z\t").replace("\n", "\r", 1) + "c\n"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(CorpusError, match=re.escape(f"{path}: malformed row at line 4: expected id<TAB>")):
            read_rows(path)

    def test_empty_file_names_the_path(self, tmp_path, read_rows, rows):
        path = tmp_path / "d.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}: empty file, expected a header line")):
            read_rows(path)

    def test_short_row_names_path_and_line(self, tmp_path, read_rows, rows):
        path = tmp_path / "d.tsv"
        path.write_text("h\n" + rows + "\nc\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}: malformed row at line 5: expected id<TAB>")):
            read_rows(path)


class TestLoadUnlabeledText:
    def test_blank_lines_skipped(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("one\n\ntwo\nthree\n", encoding="utf-8")
        ds = load_unlabeled_text(path, lang)
        assert [ex.text for ex in ds] == ["one", "two", "three"]
        assert not any(ex.label for ex in ds)

    def test_url_normalized(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("visit https://x.co\n", encoding="utf-8")
        ds = load_unlabeled_text(path, lang)
        assert ds.examples[0].text == "visit HTTPURL"

    def test_every_non_blank_line_is_an_example(self, tmp_path, lang):
        # Normalizing never empties a line with a non-whitespace character,
        # not even one made only of a URL, a mention, a punctuation run or
        # a zero-width space.
        path = tmp_path / "c.txt"
        path.write_text("https://x.co/a\n@someone\n\n!!!!!\n\u200b\n  ...  \n", encoding="utf-8")
        ds = load_unlabeled_text(path, lang)
        assert [(ex.id, ex.text) for ex in ds] == [
            ("u1", "HTTPURL"), ("u2", "USER"), ("u4", "!"), ("u5", "\u200b"), ("u6", ".")
        ]

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_boundary_character_stays_in_its_line(self, tmp_path, lang, ch):
        path = tmp_path / "c.txt"
        path.write_text(f"one{ch}two\n{ch}\nthree {ch}\n", encoding="utf-8")
        ds = load_unlabeled_text(path, lang)
        assert [(ex.id, ex.text) for ex in ds] == [("u1", "one two"), ("u3", "three")]

    def test_line_ends_and_bom(self, tmp_path, lang):
        # LF, CRLF and a lone CR each end a line; one leading BOM is not
        # part of the first sentence.
        path = tmp_path / "c.txt"
        path.write_bytes("\ufeffone\r\ntwo\rthree\n\r\nfour".encode("utf-8"))
        ds = load_unlabeled_text(path, lang)
        assert [(ex.id, ex.text) for ex in ds] == [("u1", "one"), ("u2", "two"), ("u3", "three"), ("u5", "four")]

    def test_empty_file_ok(self, tmp_path, lang):
        path = tmp_path / "c.txt"
        path.write_text("", encoding="utf-8")
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
        other = "yy"
        train = make_dataset([("a", "positive")], lang)
        dev = make_dataset([("b", "negative")], other, split="dev")
        with pytest.raises(CorpusError, match="language mismatch"):
            dedup_dev(train, dev)


class TestSamplePerLanguage:
    def _train(self, n, lang):
        return make_dataset([(f"text {i}", "positive") for i in range(n)], lang)

    def test_shortfall_returns_all(self, lang):
        ds = self._train(300, lang)
        out = sample_per_language(ds, 500, seed=1)
        assert out == ds

    def test_exact_size_keeps_order(self, lang):
        ds = self._train(5, lang)
        out = sample_per_language(ds, 5, seed=1)
        assert out == ds

    def test_deterministic(self, lang):
        ds = self._train(50, lang)
        a = sample_per_language(ds, 7, seed=3)
        b = sample_per_language(ds, 7, seed=3)
        assert a == b
        c = sample_per_language(ds, 7, seed=4)
        assert a != c

    def test_frozen_subsample(self, lang):
        # Regression pin so cross-platform drift would be caught.
        ds = self._train(10, lang)
        out = sample_per_language(ds, 3, seed=42)
        assert [ex.id for ex in out] == ["e4", "e6", "e8"]

    def test_original_order_preserved(self, lang):
        ds = self._train(40, lang)
        out = sample_per_language(ds, 11, seed=9)
        ids = [int(ex.id[1:]) for ex in out]
        assert ids == sorted(ids)

    def test_k_zero_rejected(self, lang):
        with pytest.raises(CorpusError, match=">= 1"):
            sample_per_language(self._train(3, lang), 0, seed=1)

    def test_requires_train_split(self, lang):
        dev = make_dataset([("a", "positive")], lang, split="dev")
        with pytest.raises(CorpusError, match="train"):
            sample_per_language(dev, 1, seed=1)


class TestMetadata:
    def test_builtin_roster(self):
        assert len(AFRISENTI_LANGUAGES) == 14
        assert AFRISENTI_LANGUAGES["ha"].family == "Afro-Asiatic/Chadic"
        assert AFRISENTI_LANGUAGES["pcm"].family == "English-Creole"
        families = {lc.family.split("/")[0] for lc in AFRISENTI_LANGUAGES.values()}
        assert families == {"Afro-Asiatic", "Niger-Congo", "English-Creole", "Indo-European"}

