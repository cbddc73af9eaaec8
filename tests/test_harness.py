"""Harness tests: specs, corpus store, scoring one cell, cache journal,
selection plans, matrix runner and reports."""
import json
import logging
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from langselect.errors import CorpusError, HarnessError, SelectionError, TextModelError
from langselect.harness.cache import FactsMemo, ScoreCache
from langselect.harness.config import load_config
from langselect.harness.experiments import (
    CorpusStore,
    ExperimentSpec,
    MatrixEntry,
    ScoreMatrix,
    adaptation_stats,
    build_training_set,
    run_matrix,
    score_experiment,
)
from langselect.harness.report import render_report, selection_results_from_jsonl, selection_results_to_jsonl
from langselect.learner_config import LearnerConfig
from langselect.selection import PlanCell, SelectionConfig, SelectionTask, forward_select, plan
from langselect.synth import (
    IDENTITY,
    ROTATED,
    SynthLanguage,
    SynthUniverse,
    four_language_universe,
    write_universe,
)

from conftest import BOUNDARY_CHARS, BOUNDARY_IDS
from synth_fixtures import TINY_LEARNER, build_store

TINY = SynthUniverse(
    name="tiny",
    seed=5,
    languages=(
        SynthLanguage("aa", "Fam-1", IDENTITY, n_train=36, n_dev=24, n_test=12, n_overlap=2),
        SynthLanguage("bb", "Fam-1", IDENTITY, n_train=36, n_dev=24, n_test=0),
        SynthLanguage("cc", "Fam-2", ROTATED, n_train=36, n_dev=24, n_test=0),
    ),
    noise_pool_size=12,
    noise_per_text=4,
    decorate=False,
    generic_corpus_lines=20,
    learner=TINY_LEARNER,
    seeds=(1, 2),
)

LEARNER = LearnerConfig(**TINY_LEARNER)


@pytest.fixture(scope="module")
def store():
    return build_store(TINY)


def tasks(codes):
    """One selection task per code, the other codes as its candidates."""
    return [SelectionTask(t, tuple(c for c in codes if c != t)) for t in codes]


def score_cell(spec, store, seeds, cache):
    """Per-seed (score, support) of one cell, scored as a one-cell model
    group at the seeds ``cache`` misses, whose scores it then holds; a
    failed cell raises its error line."""
    key = spec.cell_key(store)
    todo = {seed: [key] for seed in seeds if cache.get(key, seed) is None}
    scored, errors, _ = score_experiment({key: spec}, store, todo)
    if errors:
        raise HarnessError(errors[0])
    for _, seed, score, support in scored:
        cache.put(key, seed, score, support)
    return {seed: cache.get(key, seed) for seed in seeds}


def full_plan(codes, strategy, mode="multilingual", cap=500):
    """Every target's plan cells, in target order."""
    cfg = SelectionConfig(mode=mode, baseline_samples_per_language=cap)
    return [cell for task in tasks(codes) for cell in plan(task, cfg, strategy)]


class TestExperimentSpec:
    def test_sources_sorted_and_deduped(self):
        spec = ExperimentSpec(target="aa", sources=("bb", "aa"))
        assert spec.sources == ("aa", "bb")
        with pytest.raises(HarnessError, match="duplicate"):
            ExperimentSpec(target="aa", sources=("bb", "bb"))
        with pytest.raises(HarnessError, match="at least one source"):
            ExperimentSpec(target="aa", sources=())

    def test_bad_enum_values(self):
        with pytest.raises(HarnessError, match="adaptation"):
            ExperimentSpec(target="aa", sources=("aa",), adaptation="dapt")
        with pytest.raises(HarnessError, match="eval split"):
            ExperimentSpec(target="aa", sources=("aa",), eval_split="train")

    def test_keys_stable_and_seed_scoped(self, store):
        a = ExperimentSpec(target="aa", sources=("aa", "bb"))
        b = ExperimentSpec(target="aa", sources=("bb", "aa"))
        assert a == b
        assert a.cell_key(store) == b.cell_key(store)
        d = ExperimentSpec(target="aa", sources=("aa", "bb"), sample_cap=10)
        assert a.cell_key(store) != d.cell_key(store)

    def test_cell_key_digest_unchanged(self, store):
        # Pinned from the release whose journals must keep hitting: the key
        # hashes every spec field but the seeds, the numerics version and
        # the data digests.
        spec = ExperimentSpec(
            target="aa", sources=("aa", "bb"), adaptation="tapt", learner=LEARNER, sample_cap=10
        )
        assert spec.cell_key(store) == "e42eb9e431bb4117374c8a4b"

    def test_zeroshot_cell_key_digest_unchanged(self, store):
        # Pinned from the release where a spec set its mode itself: a cell
        # without its target keys as the zero-shot cell it was.
        spec = ExperimentSpec(target="aa", sources=("bb",), adaptation="tapt", learner=LEARNER)
        assert spec.cell_key(store) == "f68469db66d0c6e57b3f3ec9"
        assert replace(spec, sample_cap=10).cell_key(store) == "98c2ccc30290fccd72f44454"

    def test_cell_key_covers_numerics_version(self, store, monkeypatch):
        import langselect.harness.experiments as exp

        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER)
        cache = ScoreCache()
        score_cell(spec, store, (1,), cache)
        before = spec.cell_key(store)
        monkeypatch.setattr(exp, "NUMERICS_VERSION", exp.NUMERICS_VERSION + 1)
        assert spec.cell_key(store) != before
        assert cache.get(spec.cell_key(store), 1) is None
        score_cell(spec, store, (1,), cache)
        assert len(cache) == 2

    def test_cell_key_covers_data(self, tmp_path):
        # Rotating the labels of one source's train TSV must miss the
        # cache, whether that source is the target or a helper, and
        # whatever the adaptation reads.
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        train_tsv = next(lf.train for lf in cfg.languages if lf.code == "bb")
        cache = ScoreCache(tmp_path / "scores.journal")
        specs = [
            ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER),
            ExperimentSpec(target="aa", sources=("aa", "bb"), adaptation="lapt+tapt", learner=LEARNER),
        ]
        store = CorpusStore.from_config(cfg)
        first = [score_cell(spec, store, (1,), cache) for spec in specs]
        lines = train_tsv.read_text(encoding="utf-8").splitlines()
        rotate = {"negative": "neutral", "neutral": "positive", "positive": "negative"}
        rotated = [lines[0]] + [
            "\t".join([*row.split("\t")[:2], rotate[row.split("\t")[2]]]) for row in lines[1:]
        ]
        train_tsv.write_text("\n".join(rotated) + "\n", encoding="utf-8")
        edited = CorpusStore.from_config(cfg)
        for spec in specs:
            assert spec.cell_key(edited) != spec.cell_key(store)
            assert cache.get(spec.cell_key(edited), 1) is None
        second = [score_cell(spec, edited, (1,), cache) for spec in specs]
        assert len(ScoreCache(tmp_path / "scores.journal")) == 4
        assert second != first
        # An unrelated language's data does not split the cell.
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER)
        assert spec.cell_key(edited) == spec.cell_key(store)


def memo_store(cfg, monkeypatch):
    """The store of ``cfg`` with the facts memo in its cache directory,
    and the list of file names its loaders load from then on."""
    import langselect.harness.experiments as exp

    monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
    loads: list[str] = []
    for name in ("load_labeled_tsv", "load_unlabeled_text"):
        real = getattr(exp, name)

        def spy(path, *args, real=real, **kwargs):
            loads.append(path.name)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(exp, name, spy)
    return CorpusStore.from_config(cfg, FactsMemo(cfg.facts_path())), loads


class TestCorpusStore:
    def test_devstar_derived_once(self, store):
        star = store.split("aa", "devstar")
        assert star is store.split("aa", "devstar") is store.rows("aa", "devstar")
        assert len(star) == 24 - 2  # two planted overlaps removed

    def test_eval_dataset_missing(self, store):
        with pytest.raises(HarnessError, match="^language 'bb' has no rows in its test split$"):
            store.rows("bb", "test")

    def test_unknown_language(self, store):
        with pytest.raises(HarnessError, match="^language 'zz' has no rows in its train split$"):
            store.rows("zz", "train")
        assert store.split("zz", "train") is None and not store.count("zz", "train")

    def test_header_only_train_is_not_trainable(self, tmp_path):
        config = write_universe(TINY, tmp_path)
        train = tmp_path / "data" / "bb_train.tsv"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        store = CorpusStore.from_config(load_config(config))
        assert [bool(store.count(code, "train")) for code in ("aa", "bb", "cc", "zz")] == [True, False, True, False]
        assert store.count("bb", "devstar") and len(store.split("bb", "train")) == 0

    # What ``rows`` names each split of in its error.
    _WHAT = {"train": "train split", "dev": "dev split", "devstar": "devstar split", "test": "test split",
             "lapt": "LAPT corpus"}

    @staticmethod
    def _universe_with(tmp_path, split, state):
        """The config of TINY with language aa's ``split`` absent, empty or
        as written. An empty devstar is a dev file that train holds
        entirely; an absent one lacks its dev file."""
        config = write_universe(TINY, tmp_path)
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        entry = doc["languages"][0]
        key = {"devstar": "dev", "lapt": "lapt_corpus"}.get(split, split)
        path = tmp_path / entry[key]
        if state == "absent":
            del entry[key]
        elif state == "empty" and split == "devstar":
            path.write_bytes((tmp_path / entry["train"]).read_bytes())
        elif state == "empty":
            path.write_text("" if split == "lapt" else "id\ttext\tlabel\n", encoding="utf-8")
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return load_config(config)

    @pytest.mark.parametrize("state", ["absent", "empty", "rows"])
    @pytest.mark.parametrize("split", ["train", "dev", "devstar", "test", "lapt"])
    def test_split_queries_follow_one_rule(self, tmp_path, monkeypatch, split, state):
        # split returns the dataset or None; rows returns it only with a
        # row, else one error naming the language and the split; count
        # gives its rows, 0 if absent. A warm store answers count and
        # digest without a load.
        cfg = self._universe_with(tmp_path, split, state)
        cold, _ = memo_store(cfg, monkeypatch)
        answers = (cold.count("aa", split), cold.digest("aa", split))
        assert bool(answers[0]) == (state == "rows") and (answers[1] is None) == (state == "absent")
        warm, loads = memo_store(cfg, monkeypatch)
        assert (warm.count("aa", split), warm.digest("aa", split)) == answers
        assert loads == []
        for store in (cold, warm):
            ds = store.split("aa", split)
            assert store.count("aa", split) == len(ds or ())
            if state == "absent":
                assert ds is None
            else:
                assert len(ds) == 0 if state == "empty" else len(ds) > 0
            if state == "rows":
                assert store.rows("aa", split) is ds
            else:
                with pytest.raises(HarnessError) as raised:
                    store.rows("aa", split)
                assert str(raised.value) == f"language 'aa' has no rows in its {self._WHAT[split]}"

    def test_build_store_outlives_its_directory(self, monkeypatch):
        # build_store's files are gone when it returns: every split, the
        # devstar derived later among them, must come from what was loaded.
        import synth_fixtures

        written = []

        def spy(universe, out_dir):
            written.append(Path(out_dir))
            return write_universe(universe, out_dir)

        monkeypatch.setattr(synth_fixtures, "write_universe", spy)
        fresh = build_store(TINY)
        assert len(written) == 1 and not written[0].exists()
        for code in ("aa", "bb", "cc"):
            assert len(fresh.split(code, "devstar")) == (22 if code == "aa" else 24)
            assert len(fresh.rows(code, "lapt")) == 20
            assert all(fresh.digest(code, split) for split in ("train", "dev", "devstar", "lapt"))

    def test_digests_pinned(self, tmp_path):
        # The facts memo maps a file's raw bytes to its split digest for one
        # LOADER_VERSION, so that mapping must not move under it: URLs,
        # mentions, character and punctuation runs, CRLF, whitespace, and
        # rows that normalize to empty and are dropped.
        data = tmp_path / "data"
        data.mkdir()
        files = {
            "train.tsv": "id\ttext\tlabel\r\n"
            "t1\tSee https://t.co/Ab1 and www.Example.com now\tPositive\r\n"
            "t2\t@@user_1 says sooooo goood!!!! ??\tnegative\r\n"
            "t3\t \u00a0 \tneutral\r\n"
            "t4\t\u00e9\u00e9\u00e9\u00e9\u00e9 ___ \u3002\u3002 mixed\tpositive \r\n"
            "\r\n"
            "t5\tshared dev text\tneutral\r\n",
            "dev.tsv": "id\ttext\tlabel\n"
            "d1\tshared   dev text\tneutral\n"
            "d2\tWWW.site.org/x?y=1 @bob...\tNEGATIVE\n"
            "d3\t   \tpositive\n"
            "d4\tkept row :)))) hahaha\tpositive\n",
            "corpus.txt": "first line http://x.y/z\r\n\r\n   \n@someone wrote ----> this\nlast  line \t no newline",
        }
        for name, text in files.items():
            (data / name).write_bytes(text.encode("utf-8"))
        config = tmp_path / "config.yaml"
        config.write_text(
            "languages:\n  - code: aa\n    train: data/train.tsv\n    dev: data/dev.tsv\n"
            "    lapt_corpus: data/corpus.txt\n",
            encoding="utf-8",
        )
        store = CorpusStore.from_config(load_config(config))
        digests = {split: store.digest("aa", split) for split in ("train", "dev", "devstar", "lapt")}
        assert [len(store.split("aa", s)) for s in ("train", "dev", "devstar")] == [4, 3, 2]
        pinned = {
            "train": "a9b2499bbb07a3497ac61bde87bb29dd5cae2d97a95ca4beef89f272fe6bdc32",
            "dev": "c7ec798eb4a5f86f1f8e951cbd856682bf36f9f83a103f90a1cbaa4bb6dd11f5",
            "devstar": "95b1b31c996e597875611124d3221bc73a09d821cfe9997e7de5635546648bda",
            "lapt": "4c79fb660a8b8eefadf97e653932d1f936aeec0cb52f546487f48b83be16420e",
        }
        assert digests == pinned, (
            "the rows loaded from these bytes changed; bump LOADER_VERSION in "
            "langselect/corpus.py, or remembered split facts will name the wrong rows"
        )


class TestFactsMemo:
    """A store with a facts memo remembers each split's facts by its
    file's raw bytes, and parses a remembered file only on first use."""

    def test_remembered_files_load_on_first_use(self, tmp_path, monkeypatch):
        cfg = load_config(write_universe(TINY, tmp_path))
        cold, loads = memo_store(cfg, monkeypatch)
        assert len(loads) == 3 * 2 + 1 + 3  # train and dev, one test split, three corpora
        keys = {(code, split): cold.digest(code, split) for code in ("aa", "bb", "cc")
                for split in ("train", "dev", "devstar", "test", "lapt")}
        warm, loads = memo_store(cfg, monkeypatch)
        assert {key: warm.digest(*key) for key in keys} == keys
        assert warm.count("aa", "train") and warm.count("aa", "devstar") and not warm.count("bb", "test")
        assert loads == []
        assert warm.rows("bb", "train") == cold.rows("bb", "train")
        assert warm.split("aa", "devstar") == cold.split("aa", "devstar")
        assert loads == ["bb_train.tsv", "aa_train.tsv", "aa_dev.tsv"]

    def test_no_cache_dir_loads_every_file(self, tmp_path, monkeypatch):
        config = write_universe(TINY, tmp_path)
        config.write_text(config.read_text(encoding="utf-8").replace("cache_dir: cache\n", ""), encoding="utf-8")
        cfg = load_config(config)
        assert cfg.facts_path() is None
        for _ in range(2):
            _, loads = memo_store(cfg, monkeypatch)
            assert len(loads) == 10
        assert not (tmp_path / "cache").exists()

    def test_memo_without_path_lives_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        memo = FactsMemo()
        assert memo.get(2, "labeled", "ab") is None
        memo.put(2, "labeled", "ab", ("digest", 3))
        assert memo.get(2, "labeled", "ab") == ("digest", 3)
        assert list(tmp_path.iterdir()) == []

    def test_facts_are_keyed_by_loader_version(self, tmp_path, monkeypatch):
        # A loader change parses every file once more and keeps every
        # digest whose rows it leaves alone; a numerics change re-parses
        # nothing, since cell keys carry the numerics version themselves.
        import langselect.harness.experiments as exp

        cfg = load_config(write_universe(TINY, tmp_path))
        cold, _ = memo_store(cfg, monkeypatch)
        digests = [cold.digest(code, "devstar") for code in ("aa", "bb", "cc")]
        monkeypatch.setattr(exp, "NUMERICS_VERSION", exp.NUMERICS_VERSION + 1)
        _, loads = memo_store(cfg, monkeypatch)
        assert loads == []
        monkeypatch.setattr(exp, "LOADER_VERSION", exp.LOADER_VERSION + 1)
        bumped, loads = memo_store(cfg, monkeypatch)
        assert len(loads) == 10
        assert [bumped.digest(code, "devstar") for code in ("aa", "bb", "cc")] == digests
        _, loads = memo_store(cfg, monkeypatch)
        assert loads == []

    def test_file_changed_after_hashing_is_refused(self, tmp_path, monkeypatch):
        # Rows parsed after the store hashed the bytes must be the rows its
        # digests name, or a score would be cached under the wrong key.
        monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
        cfg = load_config(write_universe(TINY, tmp_path))
        CorpusStore.from_config(cfg, FactsMemo(cfg.facts_path()))
        warm = CorpusStore.from_config(cfg, FactsMemo(cfg.facts_path()))
        train = tmp_path / "data" / "bb_train.tsv"
        train.write_text(train.read_text(encoding="utf-8").replace("positive", "negative"), encoding="utf-8")
        with pytest.raises(CorpusError, match="bb_train.tsv: rows differ"):
            warm.rows("bb", "train")


class TestBuildTrainingSet:
    def test_concatenates_in_code_order(self, store):
        spec = ExperimentSpec(target="aa", sources=("bb", "aa"), learner=LEARNER)
        sets = build_training_set(spec, store, 1)
        assert [ds.code for ds in sets] == ["aa", "bb"]
        assert sum(len(ds) for ds in sets) == 72

    def test_cap_applies_min_rule(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, sample_cap=10)
        sets = build_training_set(spec, store, 1)
        assert [len(ds) for ds in sets] == [10, 10]
        uncapped = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, sample_cap=500)
        assert [len(ds) for ds in build_training_set(uncapped, store, 1)] == [36]

    def test_cap_subsample_depends_on_seed_not_set(self, store):
        a = build_training_set(
            ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, sample_cap=10), store, 3
        )
        b = build_training_set(
            ExperimentSpec(target="aa", sources=("aa", "cc"), learner=LEARNER, sample_cap=10), store, 3
        )
        assert a[0] == b[0]  # the aa subsample is identical across sets


class TestAdaptationStats:
    def test_none_is_uniform(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="none")
        stats = adaptation_stats(spec, store)
        assert stats.df_buckets.tolist() == [] and stats.df_counts.tolist() == []

    def test_tapt_counts_train_and_dev_texts(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, adaptation="tapt")
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 36 + 24 + 36 + 24
        assert stats.source_tag == "tapt:aa+bb"

    def test_tapt_includes_target_texts_in_zeroshot(self, store):
        spec = ExperimentSpec(target="aa", sources=("bb",), learner=LEARNER, adaptation="tapt")
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 36 + 24 + 36 + 24

    def test_lapt_requires_corpus(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="lapt")
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 20
        empty = build_store(replace(TINY, generic_corpus_lines=0))
        with pytest.raises(HarnessError, match="^language 'aa' has no rows in its LAPT corpus$"):
            adaptation_stats(spec, empty)

    def test_lapt_plus_tapt_merges(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="lapt+tapt")
        merged = adaptation_stats(spec, store)
        assert merged.num_documents == 20 + 36 + 24
        assert merged.source_tag == "lapt+tapt:aa"
        # Document frequencies are the sums of the two adaptations' own.
        summed: dict[int, int] = {}
        for adaptation in ("tapt", "lapt"):
            part = adaptation_stats(replace(spec, adaptation=adaptation), store)
            for bucket, count in zip(part.df_buckets.tolist(), part.df_counts.tolist()):
                summed[bucket] = summed.get(bucket, 0) + count
        assert merged.df_buckets.tolist() == sorted(summed)
        assert merged.df_counts.tolist() == [summed[bucket] for bucket in sorted(summed)]

    @pytest.mark.parametrize("adaptation", ["lapt", "lapt+tapt"])
    def test_empty_lapt_corpus_fails(self, tmp_path, adaptation):
        # TAPT's texts do not make up for a configured corpus without rows,
        # and an empty corpus fails as an absent one does.
        config = write_universe(TINY, tmp_path)
        (tmp_path / "data" / "aa_corpus.txt").write_text("\n", encoding="utf-8")
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation=adaptation)
        errors = []
        for store in (CorpusStore.from_config(load_config(config)), build_store(replace(TINY, generic_corpus_lines=0))):
            with pytest.raises(HarnessError) as raised:
                adaptation_stats(spec, store)
            errors.append(str(raised.value))
        assert errors == ["language 'aa' has no rows in its LAPT corpus"] * 2


class TestScoreExperiment:
    def test_deterministic_and_cache_consistent(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER)
        cold1, support1 = score_cell(spec, store, (1,), ScoreCache())[1]
        cache = ScoreCache()
        warm, support = score_cell(spec, store, (1,), cache)[1]
        cached, _ = score_cell(spec, store, (1,), cache)[1]
        assert cold1 == warm == cached  # bit-for-bit across recomputation
        assert support == support1 == len(store.split("aa", "devstar"))
        assert 0.0 <= warm <= 1.0

    def test_cache_is_actually_used(self, store, monkeypatch):
        calls = {"n": 0}
        import langselect.harness.experiments as exp

        real = exp.fine_tune

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "fine_tune", counting)
        cache = ScoreCache()
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER)
        score_cell(spec, store, (1,), cache)
        score_cell(spec, store, (1,), cache)
        assert calls["n"] == 1

    def test_error_carries_spec_context(self, store):
        spec = ExperimentSpec(target="zz", sources=("zz",), learner=LEARNER)
        with pytest.raises(HarnessError, match="zz"):
            score_cell(spec, store, (1,), ScoreCache())

    def test_scores_the_listed_pairs_without_a_cache(self, four_store, fine_tunes):
        # The group scorer trains one model per listed seed, in sorted
        # order, and returns its scores in seed, then listed cell order.
        cells = [PlanCell(t, FOUR_CODES, 30) for t in ("aa", "bb")]
        group = {}
        for cell in cells:
            spec = ExperimentSpec(cell.target, cell.sources, learner=LEARNER, sample_cap=cell.sample_cap)
            group[spec.cell_key(four_store)] = spec
        a, b = group
        scored, errors, trained = score_experiment(group, four_store, {2: [a, b], 1: [b]})
        assert errors == [] and trained == 2 and fine_tunes == [1, 2]
        assert [(key, seed) for key, seed, _, _ in scored] == [(b, 1), (a, 2), (b, 2)]
        matrix = run_matrix(cells, four_store, seeds=(1, 2), learner=LEARNER)
        for key, seed, score, support in scored:
            assert (score, support) == (matrix.entries[key].per_seed[seed], matrix.entries[key].support)
        fine_tunes.clear()
        assert score_experiment(group, four_store, {1: [], 2: []}) == ([], [], 0)
        assert fine_tunes == []

    def test_divergence_propagates_as_experiment_error(self, store):
        hot = LearnerConfig(**{**TINY_LEARNER, "learning_rate": 1e12})
        spec = ExperimentSpec(target="cc", sources=("aa", "cc"), learner=hot)
        with pytest.raises((HarnessError, TextModelError), match="divergence"):
            score_cell(spec, store, (1,), ScoreCache())



class TestScoreCache:
    def test_journal_roundtrip(self, tmp_path):
        path = tmp_path / "scores.journal"
        cache = ScoreCache(path)
        cache.put("cell1", 1, 0.123456789123, 56)
        cache.put("cell1", 2, 0.5, 56)
        reloaded = ScoreCache(path)
        assert reloaded.get("cell1", 1) == (0.123456789123, 56)
        assert reloaded.get("cell1", 2) == (0.5, 56)
        assert reloaded.get("cell1", 3) is None

    def test_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "scores.journal"
        cache = ScoreCache(path)
        cache.put("c", 1, 0.25, 10)
        cache.put("c", 1, 0.75, 10)
        assert ScoreCache(path).get("c", 1) == (0.75, 10)

    def test_malformed_lines_tolerated(self, tmp_path, caplog):
        path = tmp_path / "scores.journal"
        path.write_bytes(
            b"garbage line\nv1\tkey\t1\t0.5\t7\t2024-01-01T00:00:00\nv1\tbad\tx\ty\tz\tw\n"
            b"v1\tk\xff\xfe\t2\t0.5\t7\t2024-01-01T00:00:00\n"  # not UTF-8
        )
        with caplog.at_level(logging.WARNING, logger="langselect.harness.cache"):
            cache = ScoreCache(path)
        assert "skipped 3 malformed cache lines" in caplog.text
        assert cache.get("key", 1) == (0.5, 7)
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "score, support", [("nan", "7"), ("inf", "7"), ("7.5", "7"), ("-0.25", "7"), ("0.5", "0"), ("0.5", "-3")]
    )
    def test_impossible_score_or_support_skipped(self, tmp_path, caplog, score, support):
        # A weighted F1 lies in [0, 1], bounds included, over at least one row.
        path = tmp_path / "scores.journal"
        path.write_text(
            f"v1\tk\t1\t0.0\t1\tT\nv1\tk\t2\t{score}\t{support}\tT\nv1\tk\t3\t1.0\t7\tT\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING, logger="langselect.harness.cache"):
            cache = ScoreCache(path)
        assert "skipped 1 malformed cache lines" in caplog.text
        assert (cache.get("k", 1), cache.get("k", 2), cache.get("k", 3)) == ((0.0, 1), None, (1.0, 7))

    @pytest.mark.parametrize("tail", ["support", "timestamp", "newline"])
    def test_torn_last_record_misses(self, tmp_path, caplog, tail):
        # A writer that died mid-record leaves a torn, unterminated last
        # line; cutting one after "\t5" once read back as support 5.
        path = tmp_path / "scores.journal"
        cache = ScoreCache(path)
        cache.put("k", 1, 0.25, 10)
        cache.put("k", 2, 0.38740629685157424, 58)
        text = path.read_text(encoding="utf-8")
        cut = {"support": text.rindex("\t58\t") + 2, "timestamp": len(text) - 10, "newline": len(text) - 1}[tail]
        path.write_text(text[:cut], encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="langselect.harness.cache"):
            reloaded = ScoreCache(path)
        assert reloaded.get("k", 1) == (0.25, 10)
        assert reloaded.get("k", 2) is None
        assert "skipped 1 malformed cache lines" in caplog.text
        reloaded.put("k", 2, 0.38740629685157424, 58)
        again = ScoreCache(path)
        assert again.get("k", 2) == (0.38740629685157424, 58)
        assert again.get("k", 1) == (0.25, 10)
        assert len(again) == 2

    @pytest.mark.parametrize("kind", ["scores", "facts"])
    def test_repaired_tear_warns_once(self, tmp_path, caplog, kind):
        # Only the load that finds a torn record warns; once an append has
        # ended its line, later loads skip it silently and read the rest.
        path = tmp_path / f"{kind}.journal"
        if kind == "scores":
            cls, key, value = ScoreCache, ("k", 1), (0.25, 58)
        else:
            cls, key, value = FactsMemo, (2, "labeled", "ab"), ("digest", 58)
        put = (*key, *value) if kind == "scores" else (*key, value)
        cls(path).put(*put)
        text = path.read_text(encoding="utf-8")
        # Cut inside the fifth field: the support, or the digest.
        torn = text + text[: text.rindex("\t", 0, text.rindex("\t")) + 2]
        path.write_text(torn, encoding="utf-8")
        warnings = []
        for _ in range(3):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="langselect.harness.cache"):
                journal = cls(path)
            warnings.append(caplog.text.count("skipped 1 malformed cache lines"))
            assert journal.get(*key) == value
            journal.put(*put)
        assert warnings == [1, 0, 0]
        assert path.read_text(encoding="utf-8").startswith(torn)

    def test_marked_tear_is_never_read(self, tmp_path):
        # A facts record cut inside its last field still has every field;
        # once an append has ended its line it must not load as 5 rows.
        path = tmp_path / "facts.journal"
        FactsMemo(path).put(2, "labeled", "aa", ("digest", 58))
        text = path.read_text(encoding="utf-8")
        path.write_text(text + text.replace("aa", "bb")[:-2], encoding="utf-8")
        FactsMemo(path).put(2, "labeled", "cc", ("digest", 7))
        memo = FactsMemo(path)
        assert memo.get(2, "labeled", "bb") is None
        assert memo.get(2, "labeled", "aa") == ("digest", 58)
        assert memo.get(2, "labeled", "cc") == ("digest", 7)


class TestEnumeratePlan:
    """Enumerating every target's selection plan, as ``matrix`` and
    ``select`` run it."""

    @pytest.mark.parametrize("strategy", ["forward", "backward"])
    @pytest.mark.parametrize("mode", ["multilingual", "zeroshot"])
    def test_nxn_cells(self, strategy, mode):
        codes = ("a", "b", "c", "d")
        cells = full_plan(codes, strategy, mode)
        assert len(cells) == 16
        assert len({(c.target, c.sources) for c in cells}) == 16
        if strategy == "backward":
            assert all(c.sample_cap == 500 for c in cells)
        else:
            assert all(c.sample_cap is None for c in cells)
        if mode == "zeroshot":
            assert all(c.target not in c.sources for c in cells)

    def test_twelve_languages_give_144_cells(self):
        codes = tuple(f"l{i:02d}" for i in range(12))
        assert len(full_plan(codes, "forward")) == 144

    def test_plan_matches_selection_cells(self, store):
        # Deciding reads exactly the plan's cells: the matrix of the plan
        # is enough, and a table lacking any one of its cells is refused.
        codes = ("aa", "bb", "cc")
        cfg = SelectionConfig()
        scores = run_matrix(full_plan(codes, "forward"), store, seeds=(1,), learner=LEARNER).means()
        assert len(scores) == 9
        by_target = {task.target: task for task in tasks(codes)}
        for task in by_target.values():
            forward_select(task, scores, cfg)
        for cell in scores:
            partial = {c: v for c, v in scores.items() if c != cell}
            with pytest.raises(SelectionError, match=f"target {cell.target}: {','.join(cell.sources)}$"):
                forward_select(by_target[cell.target], partial, cfg)


class TestRunMatrix:
    def test_warm_cache_skips_work(self, store, monkeypatch):
        calls = {"n": 0}
        import langselect.harness.experiments as exp

        real = exp.fine_tune

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "fine_tune", counting)
        cache = ScoreCache()
        cells = [PlanCell("aa", ("aa",), None), PlanCell("aa", ("aa", "bb"), None)]
        run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        first = calls["n"]
        assert first == 4
        run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        assert calls["n"] == first

    def test_failures_drain_and_report_all(self, store):
        cells = [
            PlanCell("aa", ("aa",), None),
            PlanCell("aa", ("zz",), None),
            PlanCell("bb", ("yy",), None),
        ]
        with pytest.raises(HarnessError) as err:
            run_matrix(cells, store, seeds=(1,), learner=LEARNER)
        message = str(err.value)
        assert "2 cell(s)" in message
        assert "zz" in message and "yy" in message

    def test_failed_cell_counted_once_for_all_seeds(self, store):
        # The cell's first failing seed ends it: one cell, one line, naming
        # that seed, however many seeds the run has.
        with pytest.raises(HarnessError) as err:
            run_matrix([PlanCell("aa", ("zz",), None)], store, seeds=(2, 1), learner=LEARNER)
        header, *lines = str(err.value).splitlines()
        assert header == "matrix run failed for 1 cell(s):"
        assert len(lines) == 1
        assert "sources=zz" in lines[0] and "seed=1" in lines[0]

    def test_adaptation_once_per_cell_training_once_per_seed(self, store, monkeypatch):
        import langselect.harness.experiments as exp

        calls = {"adaptation_stats": 0, "fine_tune": 0}

        def counting(name):
            real = getattr(exp, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(exp, name, counting(name))
        cache = ScoreCache()
        cells = [PlanCell("aa", ("aa",), None), PlanCell("aa", ("aa", "bb"), None)]
        run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, adaptation="tapt", cache=cache)
        assert calls == {"adaptation_stats": 2, "fine_tune": 4}
        run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, adaptation="tapt", cache=cache)
        assert calls == {"adaptation_stats": 2, "fine_tune": 4}

    def test_entry_aggregates_seeds(self, store):
        matrix = run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(3, 1, 2), learner=LEARNER)
        (entry,) = matrix.entries.values()
        assert list(entry.per_seed) == [3, 1, 2]
        for seed, score in entry.per_seed.items():
            spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER)
            assert score_cell(spec, store, (seed,), ScoreCache())[seed][0] == score
        scores = list(entry.per_seed.values())
        assert entry.mean == sum(scores) / 3
        assert entry.support == len(store.split("aa", "devstar"))

    def test_duplicate_seeds_rejected(self, store):
        with pytest.raises(HarnessError, match="distinct"):
            run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(1, 1), learner=LEARNER)

    def test_empty_seeds_rejected(self, store):
        with pytest.raises(HarnessError, match="^seeds must not be empty$"):
            run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(), learner=LEARNER)

    def test_cell_mode_read_off_sources(self, store):
        # A cell without its target trains zero-shot, one with it
        # multilingual; the spec, the matrix entry and its JSONL agree.
        cells = [PlanCell("aa", ("bb",), None), PlanCell("aa", ("aa", "bb"), None)]
        matrix = run_matrix(cells, store, seeds=(1,), learner=LEARNER)
        modes = {e.sources: e.mode for e in matrix.entries.values()}
        assert modes == {("bb",): "zeroshot", ("aa", "bb"): "multilingual"}
        for sources, mode in modes.items():
            assert ExperimentSpec(target="aa", sources=sources).mode == mode
        written = [json.loads(line) for line in matrix.to_jsonl().splitlines()]
        assert {tuple(doc["sources"]): doc["mode"] for doc in written} == modes

    @pytest.mark.parametrize(
        "form", ["as written", "crlf", "comment and blank lines", "raw U+2028 in a key", "lone cr"]
    )
    def test_jsonl_roundtrip(self, store, form):
        cells = [PlanCell("aa", ("aa",), None), PlanCell("aa", ("aa", "bb"), None)]
        matrix = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER)
        text = matrix.to_jsonl()
        if form in ("crlf", "lone cr"):
            text = text.replace("\n", "\r\n" if form == "crlf" else "\r")
        elif form == "comment and blank lines":
            text = f"# written by hand\n\n{text} \n"
        elif form == "raw U+2028 in a key":
            # JSON allows a raw line separator inside a string; it ends no line.
            matrix = ScoreMatrix({f"{key}\u2028": entry for key, entry in matrix.entries.items()})
            docs = [json.loads(line) for line in matrix.to_jsonl().split("\n") if line]
            text = "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in docs)
            assert "\u2028" in text
        assert ScoreMatrix.from_jsonl(text) == matrix

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_jsonl_boundary_character_ends_no_line(self, store, ch):
        # JSON takes a raw character at or above U+0080 inside a string,
        # and none of the control characters outside a comment line; in
        # both places the character ends no line, so the lines load as
        # written and an error names the line that LF and CR count.
        matrix = run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(1,), learner=LEARNER)
        if ch >= "\x80":
            matrix = ScoreMatrix({f"{key}{ch}": entry for key, entry in matrix.entries.items()})
        docs = [json.loads(line) for line in matrix.to_jsonl().splitlines()]
        body = "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in docs)
        assert (ch in body) == (ch >= "\x80")
        text = f"# note{ch}{{not json}}\n{body}"
        assert ScoreMatrix.from_jsonl(text) == matrix
        with pytest.raises(HarnessError, match=r"^bad matrix jsonl at line 3: "):
            ScoreMatrix.from_jsonl(text + '["x"]\n')

    @pytest.mark.parametrize(
        "line",
        ['["x"]', '"x"', "3", "null", "per_seed as a list", "mode contradicting sources", "no mode",
         "key not a string", "empty per_seed", "score outside [0, 1]", "mean disagreeing",
         "unknown adaptation", "sample_cap a string", "sample_cap 0", "sample_cap a bool",
         "eval_split not a split", "support negative", "support a bool", "support a float", "mean NaN",
         "std Infinity", "std NaN", "std a string", "std negative", "score a bool", "target not a code",
         "sources a string", "sources repeated and unsorted", "per_seed key padded",
         "per_seed key zero-padded", "per_seed keys naming one seed"],
    )
    def test_jsonl_line_not_an_entry_object(self, store, line):
        cells = [PlanCell("aa", ("aa",), None)]
        good = run_matrix(cells, store, seeds=(1,), learner=LEARNER).to_jsonl()
        doc = json.loads(good)
        edited = {
            "per_seed as a list": dict(doc, per_seed=[1]),
            "mode contradicting sources": dict(doc, mode="zeroshot"),
            "no mode": {k: v for k, v in doc.items() if k != "mode"},
            "key not a string": dict(doc, key=["k"]),
            # MatrixEntry's own checks are named with the line too.
            "empty per_seed": dict(doc, per_seed={}),
            "score outside [0, 1]": dict(doc, per_seed={"1": 1.5}, mean=1.5),
            "mean disagreeing": dict(doc, per_seed={"1": 0.2}, mean=0.4),
            "unknown adaptation": dict(doc, adaptation="bogus"),
            "sample_cap a string": dict(doc, sample_cap="x"),
            "sample_cap 0": dict(doc, sample_cap=0),
            "sample_cap a bool": dict(doc, sample_cap=True),
            "eval_split not a split": dict(doc, eval_split=7),
            "support negative": dict(doc, support=-3),
            "support a bool": dict(doc, support=True),
            "support a float": dict(doc, support=60.5),
            # json.dumps writes these as NaN and Infinity, which are not JSON.
            "mean NaN": dict(doc, per_seed={"1": 1.0, "2": 1.0}, mean=float("nan")),
            "std Infinity": dict(doc, std=float("inf")),
            "std NaN": dict(doc, std=float("nan")),
            # A number is a JSON number, a code a code, and sources a
            # sorted list of distinct codes, as to_jsonl writes them.
            "std a string": dict(doc, std="nan"),
            "std negative": dict(doc, std=-0.25),
            "score a bool": dict(doc, per_seed={"1": True}, mean=1.0),
            "target not a code": dict(doc, target=5, mode="zeroshot"),
            "sources a string": dict(doc, sources="aa", mode="zeroshot"),
            "sources repeated and unsorted": dict(doc, sources=["bb", "aa", "aa"]),
            # A per_seed key is a seed as str() writes it, so no two keys
            # name one seed.
            "per_seed key padded": dict(doc, per_seed={" +1_0": doc["per_seed"]["1"]}),
            "per_seed key zero-padded": dict(doc, per_seed={"01": doc["per_seed"]["1"]}),
            "per_seed keys naming one seed": dict(doc, per_seed={"1": doc["per_seed"]["1"], "01": doc["per_seed"]["1"]}),
        }
        if line in edited:
            line = json.dumps(edited[line])
        # The reason is the error's repr.
        with pytest.raises(HarnessError, match=r"^bad matrix jsonl at line 2: [A-Za-z]+Error\("):
            ScoreMatrix.from_jsonl(f"{good}{line}\n")

    def test_entry_validation(self):
        with pytest.raises(HarnessError, match="mean inconsistent"):
            MatrixEntry(
                target="aa",
                sources=("aa",),
                adaptation="none",
                sample_cap=None,
                eval_split="devstar",
                per_seed={1: 0.5},
                mean=0.9,
                std=0.0,
                support=10,
            )
        with pytest.raises(HarnessError, match="outside"):
            MatrixEntry(
                target="aa",
                sources=("aa",),
                adaptation="none",
                sample_cap=None,
                eval_split="devstar",
                per_seed={1: 1.5},
                mean=1.5,
                std=0.0,
                support=10,
            )
        # NaN compares false with any bound, so the check must fail it.
        with pytest.raises(HarnessError, match="mean inconsistent"):
            MatrixEntry(
                target="aa",
                sources=("aa",),
                adaptation="none",
                sample_cap=None,
                eval_split="devstar",
                per_seed={1: 1.0},
                mean=float("nan"),
                std=0.0,
                support=10,
            )


FOUR_CODES = ("aa", "bb", "cc", "dd")


@pytest.fixture(scope="module")
def four_store():
    return build_store(four_language_universe())


@pytest.fixture
def fine_tunes(monkeypatch):
    """The seed of every ``fine_tune`` call the harness makes."""
    import langselect.harness.experiments as exp

    seeds = []
    real = exp.fine_tune

    def spy(stats, train, config, seed):
        seeds.append(seed)
        return real(stats, train, config, seed)

    monkeypatch.setattr(exp, "fine_tune", spy)
    return seeds


class TestModelGroups:
    """Cells that train identical weights share one model per seed."""

    @pytest.mark.parametrize(
        "strategy, mode, adaptation, models",
        [
            # Every full set and every leave-one-out set, once.
            ("backward", "multilingual", "none", 4 + 1),
            # Each target alone, then each unordered pair.
            ("forward", "multilingual", "none", 4 + 4 * 3 // 2),
            # TAPT reads the target's texts, so no two cells share a model.
            ("forward", "zeroshot", "tapt", 16),
            ("backward", "zeroshot", "tapt", 16),
        ],
    )
    def test_models_trained_per_plan(self, four_store, fine_tunes, strategy, mode, adaptation, models):
        cells = full_plan(FOUR_CODES, strategy, mode, cap=30)
        matrix = run_matrix(cells, four_store, seeds=(1,), learner=LEARNER, adaptation=adaptation)
        assert len(matrix.entries) == 16
        assert len(fine_tunes) == models

    def test_shared_model_scores_match_cells_scored_alone(self, four_store):
        # Backward multilingual cells of different targets share models;
        # each must score what it scores as a group of its own.
        cells = full_plan(FOUR_CODES, "backward", cap=30)
        matrix = run_matrix(cells, four_store, seeds=(1, 2), learner=LEARNER, adaptation="tapt")
        for entry in matrix.entries.values():
            spec = ExperimentSpec(entry.target, entry.sources, "tapt", LEARNER, entry.sample_cap)
            alone = score_cell(spec, four_store, (1, 2), ScoreCache())
            assert {seed: score for seed, (score, _) in alone.items()} == entry.per_seed

    def test_one_draw_per_language_cap_and_seed(self, monkeypatch):
        import langselect.harness.experiments as exp

        draws = []
        real = exp.sample_per_language

        def spy(ds, k, seed):
            draws.append((ds.code, k, seed))
            return real(ds, k, seed=seed)

        monkeypatch.setattr(exp, "sample_per_language", spy)
        store = build_store(four_language_universe())
        run_matrix(full_plan(FOUR_CODES, "backward", cap=30), store, seeds=(1, 2), learner=LEARNER)
        assert sorted(draws) == sorted({(code, 30, seed) for code in FOUR_CODES for seed in (1, 2)})

    def test_failed_training_fails_every_member_cell(self, four_store, monkeypatch):
        import langselect.harness.experiments as exp

        real = exp.fine_tune
        calls = []

        def failing(stats, train, config, seed):
            calls.append(seed)
            if seed == 2:
                raise TextModelError("boom")
            return real(stats, train, config, seed)

        monkeypatch.setattr(exp, "fine_tune", failing)
        # Every target's backward baseline trains the one full-set model.
        cells = [PlanCell(t, FOUR_CODES, 30) for t in FOUR_CODES]
        with pytest.raises(HarnessError) as err:
            run_matrix(cells, four_store, seeds=(1, 2), learner=LEARNER)
        header, *lines = str(err.value).splitlines()
        assert header == "matrix run failed for 4 cell(s):"
        assert [line.split()[2] for line in lines] == [f"(target={t}" for t in FOUR_CODES]
        assert all("seed=2): boom" in line for line in lines)
        assert calls == [1, 2]

    def test_missing_eval_split_fails_only_its_cell(self, four_store):
        # An undeclared target shares the full-set model of ``aa``'s
        # baseline but has nothing to evaluate on.
        cache = ScoreCache()
        cells = [PlanCell("aa", FOUR_CODES, 30), PlanCell("zz", FOUR_CODES, 30)]
        with pytest.raises(HarnessError) as err:
            run_matrix(cells, four_store, seeds=(1,), learner=LEARNER, cache=cache)
        header, line = str(err.value).splitlines()
        assert header == "matrix run failed for 1 cell(s):"
        assert "target=zz" in line and "language 'zz' has no rows in its devstar split" in line
        spec = ExperimentSpec("aa", FOUR_CODES, learner=LEARNER, sample_cap=30)
        assert cache.get(spec.cell_key(four_store), 1) is not None

    def test_failed_adaptation_fails_its_group_untrained(self, four_store, fine_tunes, monkeypatch):
        import langselect.harness.experiments as exp

        real = exp.adaptation_stats

        def failing(spec, store):
            if spec.sources == FOUR_CODES:
                raise TextModelError("boom")
            return real(spec, store)

        monkeypatch.setattr(exp, "adaptation_stats", failing)
        cache = ScoreCache()
        cells = [PlanCell(t, FOUR_CODES, 30) for t in ("aa", "bb")] + [PlanCell("aa", ("aa", "bb"), 30)]
        with pytest.raises(HarnessError) as err:
            run_matrix(cells, four_store, seeds=(1, 2), learner=LEARNER, cache=cache)
        header, *lines = str(err.value).splitlines()
        assert header == "matrix run failed for 2 cell(s):"
        assert [line.split()[2] for line in lines] == ["(target=aa", "(target=bb"]
        # Before any seed: no line names one.
        assert all(line.endswith("cap=30): boom") for line in lines)
        # Only the other group trains, once per seed, and scores.
        assert fine_tunes == [1, 2]
        spec = ExperimentSpec("aa", ("aa", "bb"), learner=LEARNER, sample_cap=30)
        assert all(cache.get(spec.cell_key(four_store), seed) is not None for seed in (1, 2))

    def test_failed_prediction_fails_only_its_cell(self, four_store, fine_tunes, monkeypatch):
        import langselect.harness.experiments as exp

        real = exp.predict_texts
        bb_texts = four_store.split("bb", "devstar").texts()

        def failing(model, texts):
            if texts == bb_texts and fine_tunes[-1] == 2:
                raise TextModelError("boom")
            return real(model, texts)

        monkeypatch.setattr(exp, "predict_texts", failing)
        cache = ScoreCache()
        cells = [PlanCell(t, FOUR_CODES, 30) for t in ("aa", "bb", "cc")]
        with pytest.raises(HarnessError) as err:
            run_matrix(cells, four_store, seeds=(1, 2, 3), learner=LEARNER, cache=cache)
        header, line = str(err.value).splitlines()
        assert header == "matrix run failed for 1 cell(s):"
        assert "(target=bb" in line and line.endswith("cap=30 seed=2): boom")
        # The shared model still trains at every seed; the failed cell is
        # tried no further, and the others score at every seed.
        assert fine_tunes == [1, 2, 3]
        for target, seeds in (("aa", [1, 2, 3]), ("bb", [1]), ("cc", [1, 2, 3])):
            key = ExperimentSpec(target, FOUR_CODES, learner=LEARNER, sample_cap=30).cell_key(four_store)
            assert [seed for seed in (1, 2, 3) if cache.get(key, seed) is not None] == seeds

    def test_journal_order_is_group_then_seed_then_cell(self, store, tmp_path):
        # Groups in order of their first cell key; within one, seeds in
        # sorted order, and at each seed the group's cells in key order.
        journal = tmp_path / "scores.journal"
        cells = [PlanCell(t, ("aa", "bb", "cc"), 10) for t in ("aa", "bb", "cc")]
        cells += [PlanCell("aa", ("bb",), None), PlanCell("bb", ("cc",), None)]
        run_matrix(cells, store, seeds=(2, 1), learner=LEARNER, cache=ScoreCache(journal))
        records = [line.split("\t")[1:3] for line in journal.read_text(encoding="utf-8").splitlines()]
        assert [(key[:6], int(seed)) for key, seed in records] == [
            ("292750", 1), ("292750", 2),
            ("2dd3e9", 1), ("2dd3e9", 2),
            ("42dd60", 1), ("5c4c01", 1), ("a304f3", 1), ("42dd60", 2), ("5c4c01", 2), ("a304f3", 2),
        ]

    def test_summary_counts_only_cells_cached_at_every_seed(self, store, caplog):
        # A cell cached at one seed of two is not fully cached, and its
        # group trains one model, at the seed it misses.
        caplog.set_level(logging.INFO, logger="langselect.harness.experiments")
        cache = ScoreCache()
        cells = [PlanCell(t, ("aa", "bb", "cc"), 10) for t in ("aa", "bb", "cc")]
        cells.append(PlanCell("aa", ("bb",), None))
        for seeds in ((1,), (1, 2), (2,)):
            run_matrix(cells, store, seeds=seeds, learner=LEARNER, cache=cache)
        assert [r.getMessage() for r in caplog.records if r.name == "langselect.harness.experiments"] == [
            "run_matrix: 4 cells, 0 fully cached, 2 models trained, 0 failed",
            "run_matrix: 4 cells, 0 fully cached, 2 models trained, 0 failed",
            "run_matrix: 4 cells, 4 fully cached, 0 models trained, 0 failed",
        ]

    def test_logs_one_summary_line_per_run(self, store, caplog):
        caplog.set_level(logging.INFO, logger="langselect.harness.experiments")
        cache = ScoreCache()
        cells = [PlanCell(t, ("aa", "bb", "cc"), 10) for t in ("aa", "bb", "cc")]
        cells.append(PlanCell("aa", ("bb",), None))
        for _ in range(2):
            run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        with pytest.raises(HarnessError):
            run_matrix([PlanCell("aa", ("zz",), None)], store, seeds=(1,), learner=LEARNER, cache=cache)
        assert [r.getMessage() for r in caplog.records if r.name == "langselect.harness.experiments"] == [
            "run_matrix: 4 cells, 0 fully cached, 4 models trained, 0 failed",
            "run_matrix: 4 cells, 4 fully cached, 0 models trained, 0 failed",
            "run_matrix: 1 cells, 0 fully cached, 0 models trained, 1 failed",
        ]


class TestReport:
    def _matrix_and_selections(self, store):
        codes = ("aa", "bb", "cc")
        cache = ScoreCache()
        cells = full_plan(codes, "forward")
        cells.append(PlanCell("aa", ("aa", "bb", "cc"), None))
        matrix = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        scores = matrix.means()
        cfg = SelectionConfig()
        selections = {task.target: forward_select(task, scores, cfg) for task in tasks(codes)}
        # score the selected sets so the report can show their row
        extra = [
            PlanCell(t, tuple(sorted({t, *r.positive_codes()})), None)
            for t, r in selections.items()
        ]
        more = run_matrix(extra, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        matrix.entries.update(more.entries)
        return matrix, {"forward": selections}

    def test_markdown_layout(self, store):
        matrix, selections = self._matrix_and_selections(store)
        codes = ["aa", "bb", "cc"]
        doc = render_report(matrix, selections, codes, codes, fmt="markdown")
        assert "| model | aa | bb | cc | overall |" in doc
        assert "monolingual" in doc
        assert "# Selected sources" in doc
        # numeric cells are percentages with 2 decimals
        import re

        assert re.search(r"\| \d{1,3}\.\d{2} \|", doc)

    def test_tsv_and_jsonl(self, store):
        matrix, selections = self._matrix_and_selections(store)
        codes = ["aa", "bb", "cc"]
        tsv = render_report(matrix, selections, codes, codes, fmt="tsv")
        assert tsv.splitlines()[0] == "model\taa\tbb\tcc\toverall"
        jsonl = render_report(matrix, selections, codes, codes, fmt="jsonl")
        rows = [json.loads(line) for line in jsonl.splitlines()]
        assert any(r["table"] == "scores" for r in rows)
        assert any(r["table"] == "selection" for r in rows)
        # A row with no support in any target has no overall, and a column
        # whose selections lack a target shows "-" for it.
        matrix.entries["nosupport"] = MatrixEntry("aa", ("aa", "bb", "cc"), "none", 5, "devstar", {1: 0.5}, 0.5,
                                                  0.0, 0)
        selections["backward"] = {"bb": replace(selections["forward"]["bb"], strategy="backward")}
        scores, strategies, picks = render_report(matrix, selections, codes, codes, fmt="tsv").split("\n\n")
        assert "multilingual, cap 5\t50.00\t-\t-\t-" in scores.splitlines()
        assert "multilingual, cap 5\t-" in strategies.splitlines()
        assert picks.splitlines()[0] == "target\tbackward\tforward"
        backward = {row.split("\t")[0]: row.split("\t")[1] for row in picks.splitlines()[1:]}
        assert backward["aa"] == backward["cc"] == "-"
        assert backward["bb"] not in ("", "-")
        # A selection that kept no source shows "-" too, in every format.
        selections["backward"]["bb"] = replace(selections["backward"]["bb"], positive_sources=())
        picks = render_report(matrix, selections, codes, codes, fmt="tsv").split("\n\n")[2]
        assert [row.split("\t")[1] for row in picks.splitlines()[1:]] == ["-", "-", "-"]
        markdown = render_report(matrix, selections, codes, codes, fmt="markdown").split("# Selected sources")[1]
        assert [row.split(" | ")[1] for row in markdown.splitlines()[4:]] == ["-", "-", "-"]
        jsonl = render_report(matrix, selections, codes, codes, fmt="jsonl")
        rows = [json.loads(line) for line in jsonl.splitlines()]
        assert [r["backward"] for r in rows if r["table"] == "selection"] == ["-", "-", "-"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_selections_jsonl_roundtrip(self, store, tmp_path, newline):
        _, columns = self._matrix_and_selections(store)
        text = selection_results_to_jsonl(columns["forward"], "forward")
        assert text.startswith("# strategy=forward\n{")
        path = tmp_path / "sel.jsonl"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert selection_results_from_jsonl(path) == [r for _, r in sorted(columns["forward"].items())]

    def test_selections_jsonl_leading_bom_dropped(self, store, tmp_path):
        _, columns = self._matrix_and_selections(store)
        path = tmp_path / "sel.jsonl"
        path.write_text("\ufeff" + selection_results_to_jsonl(columns["forward"], "forward"), encoding="utf-8")
        assert selection_results_from_jsonl(path) == [r for _, r in sorted(columns["forward"].items())]

    @pytest.mark.parametrize("ch", BOUNDARY_CHARS, ids=BOUNDARY_IDS)
    def test_selections_jsonl_boundary_character_ends_no_line(self, store, tmp_path, ch):
        # A selections object holds no free-text string, so the character
        # sits in a comment line, which it must not end.
        _, columns = self._matrix_and_selections(store)
        header, body = selection_results_to_jsonl(columns["forward"], "forward").split("\n", 1)
        path = tmp_path / "sel.jsonl"
        path.write_text(f"{header}\n# note{ch}{{not json}}\n{body}", encoding="utf-8")
        assert selection_results_from_jsonl(path) == [r for _, r in sorted(columns["forward"].items())]
        path.write_text(f"{header}\n# note{ch}{{not json}}\n{body}[]\n", encoding="utf-8")
        bad_line = 3 + body.count("\n")
        with pytest.raises(HarnessError, match=f"^{re.escape(f'{path}: bad selections jsonl at line {bad_line}: ')}"):
            selection_results_from_jsonl(path)

    def test_unknown_format(self, store):
        matrix, selections = self._matrix_and_selections(store)
        with pytest.raises(HarnessError, match="unknown report format"):
            render_report(matrix, selections, ["aa"], ["aa"], fmt="html")


class TestConfig:
    def test_write_and_load_universe_config(self, tmp_path):
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        assert [lf.code for lf in cfg.languages] == ["aa", "bb", "cc"]
        assert cfg.learner.hash_buckets == 1024
        assert cfg.seeds == (1, 2)
        assert cfg.cache_path() is not None
        store = CorpusStore.from_config(cfg)
        assert len(store.rows("aa", "train")) == 36
        assert all(ex.label is None for ex in store.rows("aa", "lapt"))

    def test_adaptation_matches_case_insensitively(self, tmp_path):
        config = write_universe(replace(TINY, adaptation="LAPT+Tapt"), tmp_path)
        assert load_config(config).adaptation == "lapt+tapt"

    def test_env_override_for_cache(self, tmp_path, monkeypatch):
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert cfg.cache_path() == tmp_path / "elsewhere" / "scores.journal"

    def test_missing_and_invalid_configs(self, tmp_path):
        with pytest.raises(HarnessError, match="not found"):
            load_config(tmp_path / "nope.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("languages: []\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="non-empty"):
            load_config(bad)
        bad.write_text("languages:\n  - code: aa\n  - code: aa\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="duplicate"):
            load_config(bad)
        for text, message in [
            ("- code: aa\n", "config must be a mapping"),
            ("languages:\n  - code: aa\n  - bb\n", "languages[1] must be a mapping with a 'code'"),
            ("languages:\n  - code: aa\nseeds: []\n", "'seeds' must be non-empty"),
            *(
                (f"languages:\n  - code: aa\n  - code: {code}\n", f"'languages[1].code': invalid language code "
                 f"{yaml.safe_load(code)!r}: must be non-empty lowercase ASCII letters, digits, '-' or '_'")
                for code in ("AA", '"a a"', '""', "../x", "a/b", '"a|b"')
            ),
        ]:
            bad.write_text(text, encoding="utf-8")
            with pytest.raises(HarnessError, match=f"^{re.escape(f'{bad}: {message}')}$"):
                load_config(bad)

    def test_duplicate_seeds_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("languages:\n  - code: aa\nseeds: [1, 1, 2]\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="distinct"):
            load_config(bad)
        bad.write_text("languages:\n  - code: aa\nseeds: [1, 2]\nselection:\n  seeds: [2, 2]\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="seeds"):
            load_config(bad)

    def test_eval_split_must_be_devstar(self, tmp_path):
        config = tmp_path / "config.yaml"
        for section in ("", "eval_split: devstar\n"):
            config.write_text("languages:\n  - code: aa\n" + section, encoding="utf-8")
            load_config(config)
        config.write_text("languages:\n  - code: aa\neval_split: test\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="score --eval-split"):
            load_config(config)

    def test_readme_config_block_loads_with_defaults(self, tmp_path):
        # README's config example claims its learner and selection values
        # are the defaults; it must also load, so a documented key that is
        # renamed or deleted fails here. Only data paths are resolved, so
        # the files it names need not exist.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        config = tmp_path / "config.yaml"
        config.write_text(block, encoding="utf-8")
        cfg = load_config(config)
        assert cfg.learner == LearnerConfig()
        assert cfg.selection == SelectionConfig()
        doc = yaml.safe_load(block)
        for key, settings in (("learner", LearnerConfig()), ("selection", SelectionConfig())):
            assert doc[key] == {f.name: getattr(settings, f.name) for f in fields(settings)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("languages:\n  - code: aa\nadaptaton: tapt\n", "unknown key 'adaptaton' in the config"),
            ("languages:\n  - code: aa\nseed: [3]\n", "unknown key 'seed' in the config"),
            ("languages:\n  - code: aa\n    train: a.tsv\n    devv: a_dev.tsv\n", "unknown key 'devv' in languages[0]"),
            ("languages:\n  - code: aa\nseed: 3\n1: x\n", "unknown keys 'seed', 1 in the config"),
        ],
        ids=["top-level", "seed-not-seeds", "language-entry", "two-keys"],
    )
    def test_unknown_key_rejected(self, tmp_path, text, message):
        # A misspelt key would otherwise load as its default: TAPT off,
        # seeds 1-5, or a language without its dev split and so no target.
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(HarnessError, match=f"^{re.escape(f'{config}: {message}')}$"):
            load_config(config)

    def test_parallelism_key_accepted_and_ignored(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("languages:\n  - code: aa\nseeds: [1]\n", encoding="utf-8")
        plain = load_config(config)
        config.write_text("languages:\n  - code: aa\nseeds: [1]\nparallelism: 4\n", encoding="utf-8")
        assert load_config(config) == plain

    def test_learner_seed_rejected(self, tmp_path):
        # A run's seeds are the top-level ``seeds``; a learner seed would
        # be parsed and then overridden by every job.
        bad = tmp_path / "bad.yaml"
        bad.write_text("languages:\n  - code: aa\nseeds: [1, 2]\nlearner:\n  seed: 3\n", encoding="utf-8")
        with pytest.raises(HarnessError, match="seeds"):
            load_config(bad)
