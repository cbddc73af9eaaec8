"""Harness tests: specs, corpus store, scoring one job, cache journal,
selection plans, matrix runner and reports."""
import json

import pytest

from langselect import (
    HarnessError,
    LanguageCode,
    LearnerConfig,
    SelectionConfig,
    SelectionError,
    SelectionTask,
    TextModelError,
    forward_select,
    plan,
)
from langselect.harness import (
    CorpusStore,
    ExperimentSpec,
    MatrixEntry,
    PlanCell,
    ScoreCache,
    ScoreMatrix,
    adaptation_stats,
    build_training_set,
    load_config,
    render_report,
    run_matrix,
    score_experiment,
)
from langselect.synth import IDENTITY, ROTATED, SynthLanguage, SynthUniverse, build_store, write_universe

TINY_LEARNER = {
    "ngram_min": 1,
    "ngram_max": 3,
    "hash_buckets": 1024,
    "learning_rate": 2.0,
    "epochs": 3,
}

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
    return [
        SelectionTask(LanguageCode(t), tuple(LanguageCode(c) for c in codes if c != t)) for t in codes
    ]


def full_plan(codes, strategy, mode="multilingual", cap=500):
    """Every target's plan cells, in target order."""
    cfg = SelectionConfig(seeds=(1,), mode=mode, baseline_samples_per_language=cap)
    return [cell for task in tasks(codes) for cell in plan(task, cfg, strategy)]


class TestExperimentSpec:
    def test_sources_sorted_and_deduped(self):
        spec = ExperimentSpec(target="aa", sources=("bb", "aa"))
        assert spec.sources == ("aa", "bb")
        with pytest.raises(HarnessError, match="duplicate"):
            ExperimentSpec(target="aa", sources=("bb", "bb"))

    def test_zeroshot_excludes_target(self):
        with pytest.raises(HarnessError, match="zero-shot"):
            ExperimentSpec(target="aa", sources=("aa", "bb"), mode="zeroshot")
        ExperimentSpec(target="aa", sources=("bb",), mode="zeroshot")

    def test_bad_enum_values(self):
        with pytest.raises(HarnessError, match="adaptation"):
            ExperimentSpec(target="aa", sources=("aa",), adaptation="dapt")
        with pytest.raises(HarnessError, match="mode"):
            ExperimentSpec(target="aa", sources=("aa",), mode="monolingual")
        with pytest.raises(HarnessError, match="eval split"):
            ExperimentSpec(target="aa", sources=("aa",), eval_split="train")

    def test_keys_stable_and_seed_scoped(self, store):
        a = ExperimentSpec(target="aa", sources=("aa", "bb"), seed=1)
        b = ExperimentSpec(target="aa", sources=("bb", "aa"), seed=1)
        assert a == b
        assert a.cell_key(store) == b.cell_key(store)
        c = ExperimentSpec(target="aa", sources=("aa", "bb"), seed=2)
        assert a != c
        assert a.cell_key(store) == c.cell_key(store)
        d = ExperimentSpec(target="aa", sources=("aa", "bb"), seed=1, sample_cap=10)
        assert a.cell_key(store) != d.cell_key(store)

    def test_cell_key_digest_unchanged(self, store):
        # Pinned from the release whose journals must keep hitting: the key
        # hashes every spec field but the seeds, the numerics version and
        # the data digests.
        spec = ExperimentSpec(
            target="aa", sources=("aa", "bb"), adaptation="tapt", learner=LEARNER, seed=3, sample_cap=10
        )
        assert spec.cell_key(store) == "e42eb9e431bb4117374c8a4b"

    def test_learner_seed_does_not_split_cells(self, store):
        a = ExperimentSpec(target="aa", sources=("aa",), learner=LearnerConfig(seed=1))
        b = ExperimentSpec(target="aa", sources=("aa",), learner=LearnerConfig(seed=9))
        assert a.cell_key(store) == b.cell_key(store)
        c = ExperimentSpec(target="aa", sources=("aa",), learner=LearnerConfig(epochs=5))
        assert a.cell_key(store) != c.cell_key(store)

    def test_cell_key_covers_numerics_version(self, store, monkeypatch):
        import langselect.harness.experiments as exp

        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, seed=1)
        cache = ScoreCache()
        score_experiment(spec, store, cache)
        before = spec.cell_key(store)
        monkeypatch.setattr(exp, "NUMERICS_VERSION", exp.NUMERICS_VERSION + 1)
        assert spec.cell_key(store) != before
        assert cache.get(spec.cell_key(store), 1) is None
        score_experiment(spec, store, cache)
        assert len(cache) == 2

    def test_cell_key_covers_data(self, tmp_path):
        # Rotating the labels of one source's train TSV must miss the
        # cache, whether that source is the target or a helper, and
        # whatever the adaptation reads.
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        train_tsv = next(lf.train for lf in cfg.languages if lf.language.code == "bb")
        cache = ScoreCache(tmp_path / "scores.journal")
        specs = [
            ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, seed=1),
            ExperimentSpec(target="aa", sources=("aa", "bb"), adaptation="lapt+tapt", learner=LEARNER, seed=1),
        ]
        store = CorpusStore.from_config(cfg)
        first = [score_experiment(spec, store, cache) for spec in specs]
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
        second = [score_experiment(spec, edited, cache) for spec in specs]
        assert len(ScoreCache(tmp_path / "scores.journal")) == 4
        assert second != first
        # An unrelated language's data does not split the cell.
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, seed=1)
        assert spec.cell_key(edited) == spec.cell_key(store)


class TestCorpusStore:
    def test_devstar_derived_once(self, store):
        star = store.devstar("aa")
        assert star is store.devstar("aa")
        assert star.split == "devstar"
        assert len(star) == 24 - 2  # two planted overlaps removed

    def test_eval_dataset_missing(self, store):
        with pytest.raises(HarnessError, match="test split"):
            store.eval_dataset("bb", "test")

    def test_unknown_language(self, store):
        with pytest.raises(HarnessError, match="unknown language"):
            store.language("zz")
        with pytest.raises(HarnessError, match="no train split"):
            store.train("zz")


class TestBuildTrainingSet:
    def test_concatenates_in_code_order(self, store):
        spec = ExperimentSpec(target="aa", sources=("bb", "aa"), learner=LEARNER)
        sets = build_training_set(spec, store)
        assert [ds.language.code for ds in sets] == ["aa", "bb"]
        assert sum(len(ds) for ds in sets) == 72

    def test_cap_applies_min_rule(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, sample_cap=10)
        sets = build_training_set(spec, store)
        assert [len(ds) for ds in sets] == [10, 10]
        uncapped = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, sample_cap=500)
        assert [len(ds) for ds in build_training_set(uncapped, store)] == [36]

    def test_cap_subsample_depends_on_seed_not_set(self, store):
        a = build_training_set(
            ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, sample_cap=10, seed=3),
            store,
        )
        b = build_training_set(
            ExperimentSpec(target="aa", sources=("aa", "cc"), learner=LEARNER, sample_cap=10, seed=3),
            store,
        )
        assert a[0] == b[0]  # the aa subsample is identical across sets


class TestAdaptationStats:
    def test_none_is_uniform(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="none")
        stats = adaptation_stats(spec, store)
        assert stats.document_frequency == {}

    def test_tapt_counts_train_and_dev_texts(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa", "bb"), learner=LEARNER, adaptation="tapt")
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 36 + 24 + 36 + 24
        assert stats.source_tag == "tapt:aa+bb"

    def test_tapt_includes_target_texts_in_zeroshot(self, store):
        spec = ExperimentSpec(
            target="aa", sources=("bb",), mode="zeroshot", learner=LEARNER, adaptation="tapt"
        )
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 36 + 24 + 36 + 24

    def test_lapt_requires_corpus(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="lapt")
        stats = adaptation_stats(spec, store)
        assert stats.num_documents == 20
        empty = CorpusStore.from_datasets([store.train("aa"), store.split("aa", "dev")])
        with pytest.raises(HarnessError, match="no LAPT corpus"):
            adaptation_stats(spec, empty)

    def test_lapt_plus_tapt_merges(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, adaptation="lapt+tapt")
        merged = adaptation_stats(spec, store)
        assert merged.num_documents == 20 + 36 + 24


class TestScoreExperiment:
    def test_deterministic_and_cache_consistent(self, store):
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, seed=1)
        cold1, support1 = score_experiment(spec, store)
        cache = ScoreCache()
        warm, support = score_experiment(spec, store, cache)
        cached, _ = score_experiment(spec, store, cache)
        assert cold1 == warm == cached  # bit-for-bit across recomputation
        assert support == support1 == len(store.devstar("aa"))
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
        spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, seed=1)
        score_experiment(spec, store, cache)
        score_experiment(spec, store, cache)
        assert calls["n"] == 1

    def test_error_carries_spec_context(self, store):
        spec = ExperimentSpec(target="zz", sources=("zz",), learner=LEARNER)
        with pytest.raises(HarnessError, match="zz"):
            score_experiment(spec, store)

    def test_divergence_propagates_as_experiment_error(self, store):
        hot = LearnerConfig(**{**TINY_LEARNER, "learning_rate": 1e12})
        spec = ExperimentSpec(target="cc", sources=("aa", "cc"), learner=hot, seed=1)
        with pytest.raises((HarnessError, TextModelError), match="divergence"):
            score_experiment(spec, store)



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

    def test_malformed_lines_tolerated(self, tmp_path):
        path = tmp_path / "scores.journal"
        path.write_text("garbage line\nv1\tkey\t1\t0.5\t7\t2024-01-01T00:00:00\nv1\tbad\tx\ty\tz\tw\n")
        cache = ScoreCache(path)
        assert cache.get("key", 1) == (0.5, 7)
        assert len(cache) == 1


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
        cfg = SelectionConfig(seeds=(1,))
        scores = run_matrix(full_plan(codes, "forward"), store, seeds=(1,), learner=LEARNER).means()
        assert len(scores) == 9
        by_target = {task.target.code: task for task in tasks(codes)}
        for task in by_target.values():
            forward_select(task, scores, cfg)
        for cell in scores:
            partial = {c: v for c, v in scores.items() if c != cell}
            with pytest.raises(SelectionError, match=f"target {cell.target}: {','.join(cell.sources)}$"):
                forward_select(by_target[cell.target], partial, cfg)


class TestRunMatrix:
    def test_parallelism_does_not_change_results(self, store):
        cells = full_plan(("aa", "bb", "cc"), "forward")
        serial = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, parallelism=1)
        threaded = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, parallelism=8)
        assert serial == threaded
        assert serial.to_jsonl() == threaded.to_jsonl()

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
            run_matrix(cells, store, seeds=(1,), learner=LEARNER, parallelism=2)
        message = str(err.value)
        assert "2 cell(s)" in message
        assert "zz" in message and "yy" in message

    def test_entry_aggregates_seeds(self, store):
        matrix = run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(3, 1, 2), learner=LEARNER)
        (entry,) = matrix.entries.values()
        assert list(entry.per_seed) == [3, 1, 2]
        for seed, score in entry.per_seed.items():
            spec = ExperimentSpec(target="aa", sources=("aa",), learner=LEARNER, seed=seed)
            assert score_experiment(spec, store)[0] == score
        scores = list(entry.per_seed.values())
        assert entry.mean == sum(scores) / 3
        assert entry.support == len(store.devstar("aa"))

    def test_duplicate_seeds_rejected(self, store):
        with pytest.raises(HarnessError, match="distinct"):
            run_matrix([PlanCell("aa", ("aa",), None)], store, seeds=(1, 1), learner=LEARNER)

    def test_zeroshot_cell_must_exclude_target(self, store):
        def zeroshot(sources):
            return run_matrix([PlanCell("aa", sources, None)], store, seeds=(1,), learner=LEARNER, mode="zeroshot")

        with pytest.raises(HarnessError, match="zero-shot"):
            zeroshot(("aa", "bb"))
        (entry,) = zeroshot(("bb",)).entries.values()
        assert entry.mode == "zeroshot"
        assert 0.0 <= entry.mean <= 1.0

    def test_jsonl_roundtrip(self, store):
        cells = [PlanCell("aa", ("aa",), None), PlanCell("aa", ("aa", "bb"), None)]
        matrix = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER)
        assert ScoreMatrix.from_jsonl(matrix.to_jsonl()) == matrix

    def test_entry_validation(self):
        with pytest.raises(HarnessError, match="mean inconsistent"):
            MatrixEntry(
                target="aa",
                sources=("aa",),
                mode="multilingual",
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
                mode="multilingual",
                adaptation="none",
                sample_cap=None,
                eval_split="devstar",
                per_seed={1: 1.5},
                mean=1.5,
                std=0.0,
                support=10,
            )


class TestReport:
    def _matrix_and_selections(self, store):
        codes = ("aa", "bb", "cc")
        cache = ScoreCache()
        cells = full_plan(codes, "forward")
        cells.append(PlanCell("aa", ("aa", "bb", "cc"), None))
        matrix = run_matrix(cells, store, seeds=(1, 2), learner=LEARNER, cache=cache)
        scores = matrix.means()
        cfg = SelectionConfig(seeds=(1, 2))
        selections = {task.target.code: forward_select(task, scores, cfg) for task in tasks(codes)}
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
        doc = render_report(matrix, selections, ["aa", "bb", "cc"], fmt="markdown")
        assert "| model | aa | bb | cc | overall |" in doc
        assert "monolingual" in doc
        assert "# Selected sources" in doc
        # numeric cells are percentages with 2 decimals
        import re

        assert re.search(r"\| \d{1,3}\.\d{2} \|", doc)

    def test_tsv_and_jsonl(self, store):
        matrix, selections = self._matrix_and_selections(store)
        tsv = render_report(matrix, selections, ["aa", "bb", "cc"], fmt="tsv")
        assert tsv.splitlines()[0] == "model\taa\tbb\tcc\toverall"
        jsonl = render_report(matrix, selections, ["aa", "bb", "cc"], fmt="jsonl")
        rows = [json.loads(line) for line in jsonl.splitlines()]
        assert any(r["table"] == "scores" for r in rows)
        assert any(r["table"] == "selection" for r in rows)

    def test_unknown_format(self, store):
        matrix, selections = self._matrix_and_selections(store)
        with pytest.raises(HarnessError, match="unknown report format"):
            render_report(matrix, selections, ["aa"], fmt="html")


class TestConfig:
    def test_write_and_load_universe_config(self, tmp_path):
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        assert [lf.language.code for lf in cfg.languages] == ["aa", "bb", "cc"]
        assert cfg.learner.hash_buckets == 1024
        assert cfg.seeds == (1, 2)
        assert cfg.cache_path() is not None
        store = CorpusStore.from_config(cfg)
        assert len(store.train("aa")) == 36
        assert store.lapt_corpus("aa").is_labeled is False

    def test_env_override_for_cache(self, tmp_path, monkeypatch):
        config_path = write_universe(TINY, tmp_path)
        cfg = load_config(config_path)
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert cfg.cache_path() == tmp_path / "elsewhere" / "scores.journal"

    def test_missing_and_invalid_configs(self, tmp_path):
        with pytest.raises(HarnessError, match="not found"):
            load_config(tmp_path / "nope.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("languages: []\n")
        with pytest.raises(HarnessError, match="non-empty"):
            load_config(bad)
        bad.write_text("languages:\n  - code: aa\n  - code: aa\n")
        with pytest.raises(HarnessError, match="duplicate"):
            load_config(bad)

    def test_duplicate_seeds_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("languages:\n  - code: aa\nseeds: [1, 1, 2]\n")
        with pytest.raises(HarnessError, match="distinct"):
            load_config(bad)
        bad.write_text("languages:\n  - code: aa\nseeds: [1, 2]\nselection:\n  seeds: [2, 2]\n")
        with pytest.raises(SelectionError, match="distinct"):
            load_config(bad)

    def test_file_store_matches_in_memory_store(self, tmp_path):
        config_path = write_universe(TINY, tmp_path)
        from_files = CorpusStore.from_config(load_config(config_path))
        in_memory = build_store(TINY)
        for code in ("aa", "bb", "cc"):
            assert from_files.train(code) == in_memory.train(code)
            assert from_files.devstar(code) == in_memory.devstar(code)
