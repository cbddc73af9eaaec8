"""CLI tests: verbs, outputs, exit codes and start-up imports."""
import ast
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from langselect.cli import main
from langselect.corpus import LOADER_VERSION
from langselect.errors import TextModelError
from langselect.harness.config import load_config
from langselect.synth import (
    IDENTITY,
    ROTATED,
    SynthLanguage,
    SynthUniverse,
    four_language_universe,
    write_universe,
)

from reference import TableOracle, brute_force_backward, brute_force_forward
from synth_fixtures import TINY_LEARNER

CLI_UNIVERSE = SynthUniverse(
    name="cli",
    seed=21,
    languages=(
        SynthLanguage("aa", "Fam-1", IDENTITY, n_train=36, n_dev=24, n_test=12, n_overlap=3),
        SynthLanguage("bb", "Fam-1", IDENTITY, n_train=36, n_dev=24, n_test=0),
        SynthLanguage("cc", "Fam-2", ROTATED, n_train=36, n_dev=24, n_test=0),
    ),
    noise_pool_size=12,
    noise_per_text=4,
    decorate=False,
    learner=TINY_LEARNER,
    seeds=(1, 2),
    parallelism=2,
)


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-universe")
    write_universe(CLI_UNIVERSE, tmp)
    return tmp


@pytest.fixture(scope="module")
def config_path(universe_dir):
    return str(universe_dir / "config.yaml")


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["score", "--no-such-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_data_error(self, tmp_path, capsys, config_path):
        missing = tmp_path / "missing.tsv"
        assert main(["ensemble", "--inputs", str(missing), "--out", str(tmp_path / "o.tsv")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_compiler_is_experiment_error(self, tmp_path, capsys, monkeypatch, config_path):
        # Training builds the C kernel on first use. With no cc on PATH
        # the build fails naming the compiler, and train exits 3.
        from langselect import kernel

        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(kernel, "_LIB", None)
        with pytest.raises(TextModelError, match="C compiler 'cc'"):
            kernel.load()
        model = tmp_path / "model.npz"
        assert main(["train", "--config", config_path, "--target", "aa", "--sources", "aa", "--out", str(model)]) == 3
        assert "experiment error: training needs the C compiler 'cc'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("case", ["cache-dir-is-file", "journal-is-dir", "matrix-out-dir-missing",
                                      "select-out-dir-missing", "select-matrix-out-dir-missing",
                                      "ingest-out-dir-is-file", "train-out-dir-missing", "train-out-is-dir",
                                      "matrix-out-is-dir", "select-out-is-dir", "select-matrix-out-is-dir",
                                      "report-out-dir-missing", "report-out-is-dir"])
    def test_os_error_is_data_error(self, tmp_path, capsys, monkeypatch, config_path, case):
        # A path the run cannot read or write ends in one line naming it,
        # not in a traceback; an output that is a directory, or whose
        # directory is missing, fails the run before it parses any corpus.
        import langselect.harness.experiments as exp

        trained, parsed = [], []
        real = exp.fine_tune

        def fine_tune(stats, train, config, seed):
            trained.append(seed)
            return real(stats, train, config, seed)

        monkeypatch.setattr(exp, "fine_tune", fine_tune)
        for name in ("load_labeled_tsv", "load_unlabeled_text"):
            def spy(path, *args, real=getattr(exp, name), **kwargs):
                parsed.append(path)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(exp, name, spy)
        score = ["score", "--config", config_path, "--target", "aa", "--sources", "aa"]
        if case == "cache-dir-is-file":
            path = tmp_path / "cache"
            path.write_text("", encoding="utf-8")
            argv = score
        elif case == "journal-is-dir":
            path = tmp_path / "cache" / "scores.journal"
            path.mkdir(parents=True)
            argv = score
        elif case.startswith("train-"):
            path = tmp_path / "missing" / "model.npz"
            if case == "train-out-is-dir":
                path = tmp_path / "outdir"
                path.mkdir()
            argv = ["train", "--config", config_path, "--target", "aa", "--sources", "aa", "--out", str(path)]
        elif case.endswith(("out-dir-missing", "out-is-dir")):
            path = tmp_path / "missing" / "out.jsonl"
            if case.endswith("out-is-dir"):
                path = tmp_path / "outdir"
                path.mkdir()
            verb, output = case.split("-", 1)
            flag = "--matrix-out" if output.startswith("matrix-out") else "--out"
            argv = [verb, "--config", config_path, flag, str(path)]
            if verb == "report":
                matrix = tmp_path / "matrix.jsonl"
                matrix.write_text("", encoding="utf-8")
                argv += ["--matrix", str(matrix)]
            else:
                argv += ["--strategy", "bwd"]
        else:
            path = tmp_path / "out"
            path.write_text("", encoding="utf-8")
            argv = ["ingest", "--config", config_path, "--out-dir", str(path)]
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err and len(err.splitlines()) == 1
        assert trained == []
        if not case.startswith(("cache-", "journal-")):
            assert parsed == []  # the facts memo is cold: a store would parse every file

    def test_journal_append_error_ends_the_run(self, tmp_path, capsys, monkeypatch, four_config):
        # A score the journal cannot take is no cell's failure: the run
        # ends after the group that scored it, exit 2 naming the journal.
        import errno

        import langselect.harness.experiments as exp
        from langselect.harness.cache import ScoreCache

        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        journal = tmp_path / "cache" / "scores.journal"
        trained = []
        real_fine_tune, real_put = exp.fine_tune, ScoreCache.put

        def fine_tune(stats, train, config, seed):
            trained.append(seed)
            return real_fine_tune(stats, train, config, seed)

        def put(self, *record):
            # The first record lands; the disk is full for the rest.
            if journal.exists():
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(journal))
            real_put(self, *record)

        monkeypatch.setattr(exp, "fine_tune", fine_tune)
        monkeypatch.setattr(ScoreCache, "put", put)
        argv = ["select", "--config", str(four_config), "--strategy", "fwd", "--out", str(tmp_path / "sel.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {journal}: {os.strerror(errno.ENOSPC)}\n"
        # The first group's model at each seed, and no later group's.
        assert trained == [1, 2]
        assert len(_journal_records(journal)) == 1
        assert not (tmp_path / "sel.jsonl").exists()

    @pytest.mark.parametrize("verb", ["score", "matrix", "select"])
    def test_duplicate_seed_list_is_usage_error(self, tmp_path, capsys, config_path, verb):
        argv = {
            "score": ["--target", "aa", "--sources", "aa"],
            "matrix": ["--strategy", "fwd", "--out", str(tmp_path / "m.jsonl")],
            "select": ["--strategy", "fwd"],
        }[verb]
        assert main([verb, "--config", config_path, "--seed-list", "1,1,2", *argv]) == 1
        assert "repeats a seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flag, value, message",
        [("score", "--seed-list", "1,x", "bad seed list '1,x', expected comma-separated integers"),
         ("select", "--seed-list", ",", "seed list is empty"),
         ("train", "--sources", ",", "--sources must name at least one language"),
         ("score", "--sources", ",", "--sources must name at least one language")],
        ids=["seed-list-not-int", "seed-list-empty", "train-sources-empty", "score-sources-empty"],
    )
    def test_bad_list_is_usage_error(self, tmp_path, capsys, config_path, verb, flag, value, message):
        argv = {
            "score": ["--target", "aa", "--sources", "aa"],
            "train": ["--target", "aa", "--sources", "aa", "--out", str(tmp_path / "m.npz")],
            "select": ["--strategy", "fwd"],
        }[verb]
        assert main([verb, "--config", config_path, *argv, flag, value]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize(
        "verb, flag",
        [("matrix", "--parallelism"), ("select", "--parallelism"), ("select", "--top-k"),
         ("score", "--cap"), ("train", "--cap")],
    )
    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, config_path, verb, flag, value):
        argv = {
            "score": ["--target", "aa", "--sources", "aa"],
            "train": ["--target", "aa", "--sources", "aa", "--out", str(tmp_path / "m.npz")],
            "matrix": ["--strategy", "fwd", "--out", str(tmp_path / "m.jsonl")],
            "select": ["--strategy", "fwd"],
        }[verb]
        assert main([verb, "--config", config_path, *argv, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err and "positive integer" in err

    @pytest.mark.parametrize(
        "section", ["selection:\n  seeds: [3]\n", "learner:\n  seed: 99\n"], ids=["selection", "learner"]
    )
    def test_seed_outside_seeds_is_experiment_error(self, tmp_path, capsys, section):
        # Only the top-level seeds (or --seed-list) set a run's seeds; a
        # seed key anywhere else is refused, not parsed and then ignored.
        config = tmp_path / "config.yaml"
        config.write_text("languages:\n  - code: aa\nseeds: [1, 2]\n" + section, encoding="utf-8")
        assert main(["score", "--config", str(config), "--target", "aa", "--sources", "aa"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment error:") and "seed" in err

    @pytest.mark.parametrize(
        "section, key",
        [
            ("seeds: 5\n", "'seeds'"),
            ("seeds: [x]\n", "'seeds'"),
            ("seeds: [1.5]\n", "'seeds'"),
            ("seeds: [true]\n", "'seeds'"),
            ("selection: xy\n", "'selection'"),
            ("selection:\n  top_k: x\n", "selection"),
            # Settings are type-checked, not coerced: "false" is a truthy
            # string, true would train 1 epoch, 2.7 would become 2, and 2.5
            # used to fail only once a cell trained.
            ("selection:\n  absolute_threshold: \"false\"\n", "absolute_threshold must be bool"),
            ("selection:\n  top_k: 2.7\n", "top_k must be int | None"),
            ("selection:\n  threshold: true\n", "threshold must be float"),
            ("learner:\n  epochs: true\n", "epochs must be int"),
            ("learner:\n  epochs: 2.5\n", "epochs must be int"),
            ("learner:\n  learning_rate: x\n", "learning_rate must be float"),
            # NaN and infinity are floats, but no setting means them.
            ("selection:\n  threshold: .nan\n", "threshold must be a finite float, got nan"),
            ("selection:\n  threshold: .inf\n", "threshold must be a finite float, got inf"),
            ("learner:\n  learning_rate: .nan\n", "learning_rate must be a finite float, got nan"),
            ("learner:\n  l2_lambda: .inf\n", "l2_lambda must be a finite float, got inf"),
            ("learner: [3]\n", "'learner'"),
            ("    train: 5\n", "'languages[0].train' must be a path string"),
            ("    dev: [x]\n", "'languages[0].dev' must be a path string"),
            ("    test: 1.5\n", "'languages[0].test' must be a path string"),
            ("    lapt_corpus: {a: b}\n", "'languages[0].lapt_corpus' must be a path string"),
            # YAML null is not the family "None".
            ("    family: null\n", "'languages[0].family' must be a string"),
            ("cache_dir: [x]\n", "'cache_dir' must be a path string"),
            # Selection scores devstar only; ``score --eval-split`` is the
            # one way to score another split.
            ("eval_split: test\n", "use 'score --eval-split'"),
        ],
        ids=["seeds-int", "seeds-str", "seeds-float", "seeds-bool", "selection-str", "top-k-str",
             "absolute-threshold-str", "top-k-float", "threshold-bool", "epochs-bool", "epochs-float",
             "learning-rate-str", "threshold-nan", "threshold-inf", "learning-rate-nan", "l2-lambda-inf",
             "learner-list",
             "train-int", "dev-list", "test-float", "lapt-corpus-map", "family-null", "cache-dir-list",
             "eval-split-test"],
    )
    def test_malformed_config_value_is_experiment_error(self, tmp_path, capsys, section, key):
        # A value of the wrong type is named, not turned into a traceback
        # or quietly coerced (1.5 and true would both run as seed 1).
        config = tmp_path / "config.yaml"
        config.write_text("languages:\n  - code: aa\n" + section, encoding="utf-8")
        assert main(["score", "--config", str(config), "--target", "aa", "--sources", "aa"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment error:") and key in err

    @pytest.mark.parametrize("value, shown", [("tpt", "'tpt'"), ("5", "5"), ("null", "None"), ("[tapt]", "['tapt']")])
    def test_bad_adaptation_is_named_before_data_loads(self, tmp_path, capsys, value, shown):
        # An unknown or non-string adaptation is a config error naming the
        # file and the key, not coerced and not found only after every
        # data file is parsed: the missing train file is never reached.
        config = write_universe(CLI_UNIVERSE, tmp_path)
        (tmp_path / "data" / "aa_train.tsv").unlink()
        config.write_text(config.read_text(encoding="utf-8").replace("adaptation: none", f"adaptation: {value}"),
                          encoding="utf-8")
        assert main(["select", "--config", str(config), "--strategy", "fwd"]) == 3
        assert capsys.readouterr().err == (
            f"experiment error: {config}: 'adaptation' must be one of "
            f"('none', 'tapt', 'lapt', 'lapt+tapt'), got {shown}\n"
        )

    def test_null_language_code_is_experiment_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("languages:\n  - code: null\n", encoding="utf-8")
        assert main(["score", "--config", str(config), "--target", "aa", "--sources", "aa"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment error:") and "'languages[0].code' must be a string, got None" in err

    def test_experiment_error(self, tmp_path, capsys):
        assert (
            main(["score", "--config", str(tmp_path / "nope.yaml"), "--target", "aa", "--sources", "aa"])
            == 3
        )
        assert "experiment error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["languages: [aa\n", "languages:\n\t- code: aa\n", "a: b: c\n"])
    def test_invalid_yaml_is_experiment_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["ingest", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(f"experiment error: {config}: invalid YAML: ")


class TestIngest:
    def test_writes_devstar_and_summary(self, tmp_path, capsys, config_path):
        out_dir = tmp_path / "ingested"
        assert main(["ingest", "--config", config_path, "--out-dir", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("aa\ttrain=36\tdev=24\tdevstar=21\tremoved=3")
        devstar = (out_dir / "aa_devstar.tsv").read_text(encoding="utf-8").splitlines()
        assert devstar[0] == "id\ttext\tlabel"
        assert len(devstar) == 1 + 21

    def test_language_without_dev_skips_devstar(self, tmp_path, capsys):
        languages = (CLI_UNIVERSE.languages[0], replace(CLI_UNIVERSE.languages[1], n_dev=0))
        config = write_universe(replace(CLI_UNIVERSE, languages=languages), tmp_path / "u")
        out_dir = tmp_path / "ingested"
        assert main(["ingest", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "bb\ttrain=36\tdev=0\tdevstar=skipped"
        assert sorted(p.name for p in out_dir.iterdir()) == ["aa_devstar.tsv"]

    PINNED = {
        "data/aa_dev.tsv": "7bdfeb588130e61e15b33c381c01fef4c08dec998067ecad9077bda7b5a7aaa7",
        "data/aa_test.tsv": "fcdd1d28014ffeecff07fa29d8f43bd47fee709ccd1a6a7ad27745e10aa98f21",
        "data/aa_train.tsv": "be3a01cfb0d1e90d0273e000dd310c2aa0d72df2ab60b552835269c99d1e2341",
        "data/bb_dev.tsv": "318de6b7c7a15157d22177fd6292780e5f1f3215b975d65e228acc621c5d4b4b",
        "data/bb_test.tsv": "4c4979ccc2d3be93aa16eb01701e2a137370cabfe7b488abca9f418da39776f6",
        "data/bb_train.tsv": "55c1b9ad854f6b8101c6724c9d7b943b33a42d2dec1107684ef1e96d3720777a",
        "data/cc_dev.tsv": "3cf149b0b2c0fa66de24a3435b9063153d9b0950afca6bbe49fca5bb63fac5e5",
        "data/cc_test.tsv": "a8236c571d98067eae36ab3e6a07e7ab35b4f10380fc924e647869cb174e23ad",
        "data/cc_train.tsv": "0ff698d6296d8f730a1007e61edd16aaae4613ac5b8e09b9ad8adc590bf06a12",
        "data/dd_dev.tsv": "6615d62fad128adccb7146effe3c675ee2e21446e6bc751af80bebb30af014bf",
        "data/dd_test.tsv": "66c8d41cc8657fabb79ed3f007d72e7983c28f5fc691e58a9358f0b7b44d4712",
        "data/dd_train.tsv": "11e102f06e24b3904ea5d37242c2653e09ff83250e74479e53068cea085f1974",
        "ingested/aa_devstar.tsv": "47674fcd10153105ae8c7687156ae18a10e3feb840d8f8837d748d1421ba3715",
        "ingested/bb_devstar.tsv": "4dc553db4cdb7b1ea9fb9b409b4248f79003efd6969727248cdf91b35c6cf45a",
        "ingested/cc_devstar.tsv": "4a8a5c1b43d876950358c623050dfccd2c03602fbac620aee599abeddb255322",
        "ingested/dd_devstar.tsv": "08a02ed5e996b9fa04d7ebac3f3d19b82473fe5fe9e48e4ea87eb8f31cf59793",
    }

    def test_written_tsv_bytes_are_pinned(self, tmp_path, capsys):
        # The fixture's splits and ingest's devstar files hold no learner
        # floats, so their bytes are fixed on every platform.
        config = write_universe(four_language_universe(), tmp_path)
        assert main(["ingest", "--config", str(config), "--out-dir", str(tmp_path / "ingested")]) == 0
        written = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.glob("*/*.tsv")
        }
        assert written == self.PINNED


class TestScore:
    def test_prints_per_seed_and_mean(self, capsys, config_path):
        rc = main(
            ["score", "--config", config_path, "--target", "aa", "--sources", "aa",
             "--seed-list", "1,2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed_1=" in out and "seed_2=" in out
        assert "mean=" in out and "support=21" in out

    @pytest.mark.parametrize(
        "field, value", [(3, "nan"), (3, "7.5"), (4, "0")], ids=["score-nan", "score-7.5", "support-0"]
    )
    def test_impossible_journal_record_retrains(self, tmp_path, capsys, monkeypatch, config_path, field, value):
        # A record whose score is no F1, or whose support counts no row, is
        # skipped: the cell retrains and scores as it did, not exit 3.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["score", "--config", config_path, "--target", "aa", "--sources", "aa", "--seed-list", "1"]
        assert main(argv) == 0
        scored = capsys.readouterr().out
        journal = tmp_path / "cache" / "scores.journal"
        (record,) = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = record.split("\t")
        fields[field] = value
        journal.write_text("\t".join(fields), encoding="utf-8")
        assert main(argv) == 0
        assert capsys.readouterr().out == scored
        # The retrained record matches the first but for its timestamp.
        _, retrained = journal.read_text(encoding="utf-8").splitlines()
        assert retrained.split("\t")[:-1] == record.split("\t")[:-1]


class TestInputsWithoutRows:
    @pytest.mark.parametrize("sources", ["aa,bb", "bb"])
    @pytest.mark.parametrize("verb", ["train", "score"])
    def test_source_without_train_rows_is_named(self, tmp_path, capsys, monkeypatch, verb, sources):
        # A source whose train file holds only its header fails the run,
        # naming the language and the split, instead of training on the
        # other sources alone or failing in the learner.
        config = write_universe(four_language_universe(), tmp_path / "four")
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        train = tmp_path / "four" / "data" / "bb_train.tsv"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        model = tmp_path / "model.npz"
        argv = [verb, "--config", str(config), "--target", "aa", "--sources", sources]
        assert main(argv + (["--out", str(model)] if verb == "train" else [])) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment error: ") and "language 'bb' has no rows in its train split" in err
        assert not model.exists()


class TestCellMode:
    """A cell is multilingual or zero-shot as its sources hold its target
    or not; the config's selection mode shapes plans only."""

    @pytest.fixture
    def zeroshot_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        return str(write_universe(replace(CLI_UNIVERSE, selection={"mode": "zeroshot"}), tmp_path / "zs"))

    def test_zeroshot_config_takes_cells_with_their_target(self, tmp_path, capsys, zeroshot_config):
        model = tmp_path / "m.npz"
        assert main(["train", "--config", zeroshot_config, "--target", "aa", "--sources", "aa",
                     "--out", str(model)]) == 0
        assert model.exists()
        assert main(["score", "--config", zeroshot_config, "--target", "aa", "--sources", "aa,bb"]) == 0
        assert "mean=" in capsys.readouterr().out

    def test_score_shares_one_cell_across_config_modes(self, tmp_path, capsys, config_path, zeroshot_config):
        outs = []
        for config in (config_path, zeroshot_config):
            assert main(["score", "--config", config, "--target", "aa", "--sources", "bb"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        records = _journal_records(tmp_path / "cache" / "scores.journal")
        assert len(records) == 2 and len({key for key, _ in records}) == 1


class TestTrainPredictEnsemble:
    def test_roundtrip(self, tmp_path, capsys, config_path, universe_dir):
        # A model is written to --out as given, whatever its suffix.
        preds = []
        for seed, suffix in ((1, ".npz"), (2, ".bin"), (3, ".npz")):
            model_path = tmp_path / f"model{seed}{suffix}"
            assert main(
                ["train", "--config", config_path, "--target", "aa", "--sources", "aa,bb",
                 "--seed", str(seed), "--out", str(model_path)]
            ) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith(f"saved\t{model_path}\t")
            assert sorted(tmp_path.glob(f"model{seed}*")) == [model_path]
            pred_path = tmp_path / f"preds{seed}.tsv"
            assert main(
                ["predict", "--model", str(model_path), "--input",
                 str(universe_dir / "data" / "aa_test.tsv"), "--out", str(pred_path), "--probs"]
            ) == 0
            preds.append(str(pred_path))
        out_path = tmp_path / "ensemble.tsv"
        assert main(["ensemble", "--inputs", *preds, "--out", str(out_path)]) == 0
        rows = out_path.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "id\tlabel"
        assert len(rows) == 1 + 12

    def test_predict_header_only_input_writes_header_only(self, tmp_path, capsys, config_path):
        model = tmp_path / "m.npz"
        assert main(["train", "--config", config_path, "--target", "aa", "--sources", "aa",
                     "--out", str(model)]) == 0
        empty = tmp_path / "in.tsv"
        empty.write_text("id\ttext\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--input", str(empty), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "id\tlabel\n"
        assert capsys.readouterr().out == f"examples=0\tout={out}\n"

    def test_train_reads_no_score_journal(self, tmp_path, capsys, monkeypatch, config_path):
        # train scores nothing, so a score journal it cannot read does not
        # fail it.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "cache" / "scores.journal").mkdir(parents=True)
        model = tmp_path / "m.npz"
        assert main(["train", "--config", config_path, "--target", "aa", "--sources", "aa", "--out", str(model)]) == 0
        assert capsys.readouterr().out.startswith(f"saved\t{model}\t")

    def test_train_takes_no_seed_list(self, tmp_path, capsys, config_path):
        # ``--seed`` is train's one seed flag; a seed list would train one
        # of its seeds only.
        argv = ["train", "--config", config_path, "--target", "aa", "--sources", "aa",
                "--seed-list", "3,4", "--out", str(tmp_path / "m.npz")]
        assert main(argv) == 1
        assert "--seed-list" in capsys.readouterr().err

    def test_predict_missing_model_is_experiment_error(self, tmp_path):
        ok = tmp_path / "in.tsv"
        ok.write_text("id\ttext\na\thello\n", encoding="utf-8")
        missing = tmp_path / "m.npz"
        assert main(["predict", "--model", str(missing), "--input", str(ok), "--out", str(tmp_path / "o.tsv")]) == 3

    @pytest.mark.parametrize(
        "damage", ["corrupt", "no-meta", "directory", "weights-cut", "bias-cut", "dense-layout", "config-seed"]
    )
    def test_predict_unloadable_model_is_experiment_error(self, tmp_path, capsys, config_path, damage):
        # Like a missing model file: exit 3 naming the file, not a traceback.
        model = tmp_path / "m.npz"
        assert main(
            ["train", "--config", config_path, "--target", "aa", "--sources", "aa",
             "--seed", "1", "--out", str(model)]
        ) == 0
        if damage == "corrupt":
            model.write_bytes(model.read_bytes()[:100])
        elif damage == "no-meta":
            with zipfile.ZipFile(model) as src:
                members = {name: src.read(name) for name in src.namelist() if name != "meta.npy"}
            with zipfile.ZipFile(model, "w") as dst:
                for name, data in members.items():
                    dst.writestr(name, data)
        elif damage == "directory":
            model.unlink()
            model.mkdir()
        else:
            with np.load(model) as data:
                arrays = dict(data)
            if damage == "weights-cut":
                arrays["weights"] = arrays["weights"][:, :10]
            elif damage == "bias-cut":
                arrays["bias"] = arrays["bias"][:2]
            elif damage == "dense-layout":
                # Model files once held dense (3, hash_buckets) weights and
                # no buckets.
                meta = json.loads(bytes(arrays["meta"]))
                weights = np.zeros((3, meta["config"]["hash_buckets"]))
                weights[:, arrays.pop("buckets")] = arrays["weights"]
                arrays["weights"] = weights
            else:
                # Model files once also held the training seed in their config.
                meta = json.loads(bytes(arrays["meta"]))
                meta["config"]["seed"] = 1
                arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez_compressed(model, **arrays)
        ok = tmp_path / "in.tsv"
        ok.write_text("id\ttext\na\thello\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--input", str(ok), "--out", str(tmp_path / "o.tsv")]) == 3
        assert f"experiment error: cannot load model file {model}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, sources, undeclared", [("zz", "aa", "zz"), ("aa", "aa,yy", "yy")], ids=["target", "source"]
    )
    def test_train_rejects_undeclared_language(self, tmp_path, capsys, config_path, target, sources, undeclared):
        # TAPT skips splits a declared language lacks; a language the config
        # does not declare at all is an error, not a model trained without it.
        model = tmp_path / "m.npz"
        argv = ["train", "--config", config_path, "--target", target, "--sources", sources,
                "--adaptation", "tapt", "--out", str(model)]
        assert main(argv) == 3
        assert f"language {undeclared!r} is not declared in {config_path}" in capsys.readouterr().err
        assert not model.exists()

    def test_predict_rejects_malformed_input(self, tmp_path, config_path):
        model = tmp_path / "m.npz"
        assert main(
            ["train", "--config", config_path, "--target", "aa", "--sources", "aa",
             "--seed", "1", "--out", str(model)]
        ) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\ttext\nonly-one-field\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(bad), "--out", str(tmp_path / "o.tsv")]) == 2


class TestUnreadableInputs:
    """Bad bytes or values in an input file end in an exit code and a
    message naming the file, never in a traceback."""

    def test_predict_input_not_utf8_is_data_error(self, tmp_path, capsys, config_path):
        model = tmp_path / "m.npz"
        assert main(
            ["train", "--config", config_path, "--target", "aa", "--sources", "aa",
             "--seed", "1", "--out", str(model)]
        ) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"id\ttext\na\tcaf\xe9\n")
        assert main(["predict", "--model", str(model), "--input", str(bad), "--out", str(tmp_path / "o.tsv")]) == 2
        assert f"{bad}: invalid UTF-8 at byte offset 13" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"id\tlabel\na\tpositive\xff\n", "invalid UTF-8 at byte offset 19"),
            (b"id\tlabel\tp_negative\tp_neutral\tp_positive\na\tpositive\t0.1\t0.1\t0.8\n"
             b"b\tneutral\t0.2\tx\t0.3\n", "non-numeric probability at line 3"),
        ],
        ids=["not-utf8", "non-numeric-probability"],
    )
    def test_bad_ensemble_input_is_data_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "preds.tsv"
        path.write_bytes(content)
        assert main(["ensemble", "--inputs", str(path), "--out", str(tmp_path / "o.tsv")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_config_not_utf8_is_experiment_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_bytes(b"languages:\n  - code: aa # \xe9\n")
        assert main(["ingest", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        assert f"config {config}: invalid UTF-8 at byte offset 26" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, code", [("ensemble", 2), ("ingest", 3)])
    def test_directory_input_is_named(self, tmp_path, capsys, verb, code):
        argv = {
            "ensemble": ["--inputs", str(tmp_path), "--out", str(tmp_path / "o.tsv")],
            "ingest": ["--config", str(tmp_path), "--out-dir", str(tmp_path / "out")],
        }[verb]
        assert main([verb, *argv]) == code
        assert f"{tmp_path}: cannot read: Is a directory" in capsys.readouterr().err


class TestSelectAndReport:
    def test_full_flow(self, tmp_path, capsys, config_path):
        matrix_path = tmp_path / "matrix.jsonl"
        assert main(
            ["matrix", "--config", config_path, "--strategy", "fwd", "--out", str(matrix_path)]
        ) == 0
        assert len(matrix_path.read_text(encoding="utf-8").splitlines()) == 9  # N*N cells for N=3

        sel_path = tmp_path / "sel.jsonl"
        selcells_path = tmp_path / "selcells.jsonl"
        assert main(
            ["select", "--config", config_path, "--strategy", "fwd",
             "--out", str(sel_path), "--matrix-out", str(selcells_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "aa\tforward\t" in out

        report_path = tmp_path / "report.md"
        assert main(
            ["report", "--config", config_path, "--matrix", str(matrix_path),
             "--matrix", str(selcells_path), "--selections", str(sel_path),
             "--format", "markdown", "--out", str(report_path)]
        ) == 0
        doc = report_path.read_text(encoding="utf-8")
        assert "# Scores by target language" in doc
        assert "monolingual" in doc

        jsonl = tmp_path / "report.jsonl"
        assert main(
            ["report", "--config", config_path, "--matrix", str(matrix_path),
             "--selections", str(sel_path), "--format", "jsonl", "--out", str(jsonl)]
        ) == 0
        rows = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
        assert any(r["table"] == "selection" for r in rows)


    def test_matrix_out_written_when_nothing_is_selected(self, tmp_path, capsys, monkeypatch):
        # No source clears a threshold of 50 times the baseline. The file
        # must still be this run's: empty, not a stale one or none.
        universe = replace(
            four_language_universe(), selection={"threshold": 50, "baseline_samples_per_language": 30}
        )
        config = str(write_universe(universe, tmp_path / "four"))
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        sel_path, cells_path = tmp_path / "sel.jsonl", tmp_path / "cells.jsonl"
        cells_path.write_text('{"stale": true}\n', encoding="utf-8")
        assert main(
            ["select", "--config", config, "--strategy", "bwd", "--mode", "zeroshot",
             "--out", str(sel_path), "--matrix-out", str(cells_path)]
        ) == 0
        assert all(not r["positives"] for r in _read_jsonl(sel_path))
        assert cells_path.read_text(encoding="utf-8") == ""
        cells_path.unlink()
        assert main(
            ["select", "--config", config, "--strategy", "bwd", "--mode", "zeroshot",
             "--matrix-out", str(cells_path)]
        ) == 0
        assert cells_path.read_text(encoding="utf-8") == ""
        capsys.readouterr()
        assert main(
            ["report", "--config", config, "--matrix", str(cells_path), "--selections", str(sel_path)]
        ) == 0
        assert "# Scores by target language" in capsys.readouterr().out

    def test_header_only_train_is_no_candidate(self, tmp_path, monkeypatch):
        # A train file without rows leaves its language out of every
        # target's candidates, as a missing train file does.
        config = write_universe(
            replace(four_language_universe(), selection={"baseline_samples_per_language": 30}), tmp_path / "four"
        )
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        train = tmp_path / "four" / "data" / "dd_train.tsv"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        sel_path = tmp_path / "sel.jsonl"
        assert main(["select", "--config", str(config), "--strategy", "fwd", "--mode", "zeroshot",
                     "--out", str(sel_path)]) == 0
        results = {r["target"]: sorted(code for code, _ in r["ranking"]) for r in _read_jsonl(sel_path)}
        assert results == {"aa": ["bb", "cc"], "bb": ["aa", "cc"], "cc": ["aa", "bb"], "dd": ["aa", "bb", "cc"]}

    @pytest.mark.parametrize("verb", ["select", "matrix"])
    def test_header_only_train_is_no_multilingual_target(self, tmp_path, monkeypatch, caplog, verb):
        # A multilingual cell trains on its target's own rows, so a
        # language without any is no target there: it is skipped with one
        # warning naming it, and the other targets' plans still run.
        config = write_universe(
            replace(four_language_universe(), selection={"baseline_samples_per_language": 30}), tmp_path / "four"
        )
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        train = tmp_path / "four" / "data" / "dd_train.tsv"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        caplog.set_level(logging.WARNING, logger="langselect.cli")
        out = tmp_path / "out.jsonl"
        assert main([verb, "--config", str(config), "--strategy", "fwd", "--mode", "multilingual",
                     "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "langselect.cli"] == [
            "dd: no train rows, so it is not a target of a multilingual plan"
        ]
        assert {r["target"] for r in _read_jsonl(out)} == {"aa", "bb", "cc"}

    @pytest.mark.parametrize("mode", ["zeroshot", "multilingual"])
    def test_absent_train_runs_as_header_only_train(self, tmp_path, monkeypatch, capsys, mode):
        # A language with a dev file and no train file is a zero-shot
        # target and no multilingual one, as with a header-only train
        # file, and ingest counts its train rows as 0.
        outs = []
        for state in ("absent", "header-only"):
            config = write_universe(four_language_universe(), tmp_path / state)
            doc = yaml.safe_load(config.read_text(encoding="utf-8"))
            (dd,) = [entry for entry in doc["languages"] if entry["code"] == "dd"]
            train = config.parent / dd["train"]
            if state == "absent":
                del dd["train"]
                train.unlink()
            else:
                train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
            config.write_text(yaml.safe_dump(doc), encoding="utf-8")
            monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / state / "cache"))
            assert main(["ingest", "--config", str(config), "--out-dir", str(tmp_path / state / "ingested")]) == 0
            assert main(["select", "--config", str(config), "--strategy", "fwd", "--mode", mode,
                         "--seed-list", "1"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "dd\ttrain=0\tdev=60\tdevstar=60\tremoved=0\n" in outs[0]
        assert ("\ndd\tforward\t" in outs[0]) == (mode == "zeroshot")

    @pytest.mark.parametrize(
        "drop, message",
        [("dev", "no language has a devstar split to evaluate on"),
         ("train", "target 'aa' has no candidate source languages with train data")],
    )
    def test_select_without_tasks_is_experiment_error(self, tmp_path, capsys, drop, message):
        # No dev files leave no target; a lone trainable language leaves
        # its target no candidate.
        if drop == "dev":
            languages = tuple(replace(lang, n_dev=0) for lang in CLI_UNIVERSE.languages)
        else:
            aa, *others = CLI_UNIVERSE.languages
            languages = (aa, *(replace(lang, n_train=0) for lang in others))
        config = write_universe(replace(CLI_UNIVERSE, languages=languages), tmp_path / "u")
        assert main(["select", "--config", str(config), "--strategy", "fwd"]) == 3
        assert capsys.readouterr().err == f"experiment error: {message}\n"

    def test_zeroshot_backward_with_one_candidate_is_named(self, tmp_path, capsys, monkeypatch):
        # Leaving out a target's only candidate leaves no source to train
        # on; the error names the target before any cell trains.
        import langselect.harness.experiments as exp

        monkeypatch.setattr(exp, "fine_tune", lambda *args, **kwargs: pytest.fail("a cell trained"))
        two = replace(four_language_universe(), languages=four_language_universe().languages[:2])
        config = write_universe(two, tmp_path / "two")
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        for verb in ("select", "matrix"):
            assert main([verb, "--config", str(config), "--strategy", "bwd", "--mode", "zeroshot",
                         "--out", str(tmp_path / "out.jsonl")]) == 3
            assert capsys.readouterr().err == (
                "experiment error: target aa: zero-shot backward selection needs at least two candidates\n"
            )
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "line, reason",
        [
            ({"target": "aa", "strategy": "forward", "baseline": 0.5, "positives": [], "ranking": []},
             "KeyError('mode')"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [1], "ranking": []}, "TypeError('cannot unpack"),
            ("{not json", "JSONDecodeError('Expecting property name"),
            ({"target": "aa", "strategy": 5, "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": []}, 'ValueError("unknown strategy 5'),
            ({"target": "aa", "strategy": "forward", "mode": "bogus", "baseline": 0.5,
              "positives": [], "ranking": []}, "ValueError(\"unknown mode 'bogus'"),
            # Every language must be a valid code, as in the config.
            ({"target": 5, "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": []}, "invalid language code 5:"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [["", 0.1]], "ranking": []}, "invalid language code '':"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": [["BB", 0.6]]}, "invalid language code 'BB':"),
            ({"target": "a a", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": []}, "invalid language code 'a a':"),
            # json.loads takes NaN and Infinity, which no score can be.
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": float("nan"),
              "positives": [], "ranking": []}, "ValueError('non-finite number NaN')"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [["bb", float("inf")]], "ranking": [["bb", 0.6]]},
             "ValueError('non-finite number Infinity')"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": [["bb", float("-inf")]]}, "ValueError('non-finite number -Infinity')"),
            # A number must be a JSON number: no string, no bool, none past
            # the float range, which json reads as infinite.
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": "nan",
              "positives": [], "ranking": []}, "baseline 'nan' is not a finite number"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [], "ranking": [["bb", "inf"]]}, "score 'inf' is not a finite number"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": True,
              "positives": [], "ranking": []}, "baseline True is not a finite number"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [["bb", "0.1"]], "ranking": [["bb", 0.6]]}, "gain '0.1' is not a finite number"),
            ('{"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 1e999, '
             '"positives": [], "ranking": []}', "baseline inf is not a finite number"),
        ],
    )
    def test_malformed_selections_line_is_named(self, tmp_path, capsys, config_path, line, reason):
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text("", encoding="utf-8")
        good = {"target": "bb", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
                "positives": [["aa", 0.1]], "ranking": [["aa", 0.6], ["cc", 0.4]]}
        sel = tmp_path / "sel.jsonl"
        bad = line if isinstance(line, str) else json.dumps(line)
        sel.write_text(f"# strategy=forward\n{json.dumps(good)}\n{bad}\n", encoding="utf-8")
        assert main(["report", "--config", config_path, "--matrix", str(matrix), "--selections", str(sel)]) == 3
        err = capsys.readouterr().err
        assert f"{sel}: bad selections jsonl at line 3" in err and reason in err


    @pytest.mark.parametrize("missing", ["--matrix", "--selections"])
    def test_missing_report_input_is_data_error(self, tmp_path, capsys, config_path, missing):
        inputs = {"--matrix": tmp_path / "matrix.jsonl", "--selections": tmp_path / "sel.jsonl"}
        for flag, path in inputs.items():
            if flag != missing:
                path.write_text("", encoding="utf-8")
        argv = ["report", "--config", config_path]
        for flag, path in inputs.items():
            argv += [flag, str(path)]
        assert main(argv) == 2
        assert f"file not found: {inputs[missing]}" in capsys.readouterr().err

    def test_matrix_line_not_an_object_is_named(self, tmp_path, capsys, config_path):
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text('\n["x"]\n', encoding="utf-8")
        assert main(["report", "--config", config_path, "--matrix", str(matrix)]) == 3
        assert f"{matrix}: bad matrix jsonl at line 2" in capsys.readouterr().err


def test_cli_import_skips_scipy_and_numpy_tooling():
    # Each verb starts a fresh interpreter: scipy.sparse, numpy.testing and
    # numpy.f2py would add about 0.3 s to every start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, langselect.cli; "
        "print(*[m for m in ('scipy', 'numpy.testing', 'numpy.f2py') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True)
    assert done.stdout.split() == []


def test_bench_tracer_finds_every_span_but_the_known_four():
    # bench/tracer.py wraps functions by module and name, and skips a
    # missing one with a note, so a refactor could drop a layer's span
    # unseen. It patches module globals, hence its own interpreter.
    root = Path(__file__).resolve().parents[1]
    src, bench = str(root / "src"), str(root / "bench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; sys.path.insert(0, {bench!r}); import tracer; print(*tracer.install().notes, sep='\\n')"
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert done.stdout.splitlines() == [
        f"{target} not found; its span is skipped"
        for target in (
            "langselect.cli:dedup_dev",
            "langselect.cli:fine_tune",
            "langselect.cli:predict_texts",
            "langselect.harness.experiments:strip_labels",
        )
    ]


def test_oracles_import_no_program_code():
    # tests/reference.py checks the program against independent math, so
    # it may take program objects as arguments but imports none.
    source = Path(__file__).with_name("reference.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [name for name in imported if name.split(".")[0] == "langselect"]


def test_each_name_is_imported_from_its_home_module():
    # ``langselect`` and ``langselect.harness`` re-export nothing, so a
    # name imported from either package must be one of its submodules.
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    misplaced = []
    for path in sorted([*src.rglob("*.py"), *(root / "tests").glob("*.py")]):
        package = path.parent.relative_to(src).parts if path.is_relative_to(src) else ()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[: len(package) + 1 - node.level] if node.level else ()
            parts = (*base, *filter(None, (node.module or "").split(".")))
            if parts not in (("langselect",), ("langselect", "harness")):
                continue
            home = src.joinpath(*parts)
            misplaced += [
                f"{path.relative_to(root)}:{node.lineno}: {alias.name}"
                for alias in node.names
                if not (home / f"{alias.name}.py").is_file() and not (home / alias.name / "__init__.py").is_file()
            ]
    assert misplaced == []


def test_openblas_pin_leaves_scores_and_a_preset_value_alone(tmp_path, monkeypatch, capsys, config_path):
    # ``main`` pins OpenBLAS to one thread unless the caller set a count.
    # The learner makes no BLAS call, so no count changes a score.
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "langselect.cli", "score", "--config", config_path, "--target", "aa",
            "--sources", "aa,bb"]
    outputs = []
    for threads in (None, "4"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   LANGSELECT_CACHE_DIR=str(tmp_path / f"cache-{threads}"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        outputs.append(subprocess.run(argv, env=env, capture_output=True, encoding="utf-8", check=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith("seed_1=")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert main(["score", "--no-such-flag"]) == 1
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["score", "--no-such-flag"]) == 1
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def _read_jsonl(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line and not line.startswith("#")]


def _journal_records(path):
    return [tuple(line.split("\t")[1:3]) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def four_config(tmp_path_factory):
    """The four-language universe with seeds 1,2 and a backward cap of 30."""
    universe = replace(
        four_language_universe(), selection={"baseline_samples_per_language": 30}, seeds=(1, 2)
    )
    return write_universe(universe, tmp_path_factory.mktemp("four"))


class TestOneScoringPath:
    @pytest.mark.parametrize(
        "mode, strategy, matrix_out",
        [
            pytest.param(mode, strategy, matrix_out, id=f"{mode}-{strategy}" + ("" if matrix_out else "-no-matrix-out"))
            for mode in ("multilingual", "zeroshot")
            for strategy in ("fwd", "bwd")
            for matrix_out in (True, False)
        ],
    )
    def test_select_decides_from_the_matrix(
        self, tmp_path, capsys, monkeypatch, four_config, strategy, mode, matrix_out
    ):
        # ``matrix`` writes the plan's scores; ``select`` must decide exactly
        # what the selection rules give on those scores. On top of them it
        # scores the selected sets for ``--matrix-out`` and nothing else, and
        # without that flag nothing at all.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        journal = tmp_path / "cache" / "scores.journal"
        common = ["--config", str(four_config), "--strategy", strategy, "--mode", mode]
        assert main(["matrix", *common, "--out", str(tmp_path / "matrix.jsonl")]) == 0
        planned = _journal_records(journal)
        select = ["select", *common, "--out", str(tmp_path / "sel.jsonl")]
        if matrix_out:
            select += ["--matrix-out", str(tmp_path / "selcells.jsonl")]
        assert main(select) == 0
        capsys.readouterr()

        records = _read_jsonl(tmp_path / "matrix.jsonl")
        assert len(records) == 16 and {len(r["per_seed"]) for r in records} == {2}
        oracle = TableOracle(records)
        codes = ["aa", "bb", "cc", "dd"]
        results = {r["target"]: r for r in _read_jsonl(tmp_path / "sel.jsonl")}
        assert sorted(results) == codes
        for target in codes:
            candidates = [c for c in codes if c != target]
            if strategy == "fwd":
                baseline, positives = brute_force_forward(target, candidates, oracle, (1, 2), 0.05, mode)
            else:
                baseline, positives = brute_force_backward(
                    target, candidates, oracle, (1, 2), 0.05, mode, 30
                )
            assert results[target]["baseline"] == baseline
            assert [tuple(p) for p in results[target]["positives"]] == positives

        after = _journal_records(journal)
        assert after[: len(planned)] == planned
        if not matrix_out:
            assert after == planned
            return
        selected_keys = {r["key"] for r in _read_jsonl(tmp_path / "selcells.jsonl")}
        planned_keys = {r["key"] for r in records}
        assert {key for key, _ in after[len(planned):]} <= selected_keys - planned_keys


class TestCappedTrain:
    def test_capped_train_reproduces_matrix_scores(self, tmp_path, capsys, monkeypatch, four_config):
        # ``train --cap`` reads the same per-language samples as ``matrix``:
        # the backward baseline, retrained and predicted, scores the F1
        # the matrix stored at each seed, bit for bit.
        from langselect.metrics import confusion, weighted_f1

        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        config = str(four_config)
        matrix = tmp_path / "matrix.jsonl"
        assert main(["matrix", "--config", config, "--strategy", "bwd", "--out", str(matrix)]) == 0
        assert main(["ingest", "--config", config, "--out-dir", str(tmp_path / "ingested")]) == 0
        (baseline,) = [r for r in _read_jsonl(matrix) if r["target"] == "aa" and len(r["sources"]) == 4]
        assert baseline["sample_cap"] == 30
        gold_tsv = tmp_path / "ingested" / "aa_devstar.tsv"
        gold = dict(line.split("\t")[::2] for line in gold_tsv.read_text(encoding="utf-8").splitlines()[1:])
        for seed in (1, 2):
            model, pred = tmp_path / f"model{seed}.npz", tmp_path / f"pred{seed}.tsv"
            assert main(["train", "--config", config, "--target", "aa", "--sources", "aa,bb,cc,dd",
                         "--cap", "30", "--seed", str(seed), "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--input", str(gold_tsv), "--out", str(pred)]) == 0
            predicted = dict(line.split("\t")[:2] for line in pred.read_text(encoding="utf-8").splitlines()[1:])
            score = weighted_f1(confusion(list(gold.values()), [predicted[i] for i in gold]))
            assert score == baseline["per_seed"][str(seed)]


class TestReportRows:
    def test_capped_and_uncapped_cells_get_their_own_rows(self, tmp_path, monkeypatch, four_config):
        # The forward zero-shot baseline (all other languages, uncapped) and
        # the backward zero-shot baseline (the same languages, capped at 30)
        # are different cells and must not share a report row.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        paths = []
        for strategy in ("fwd", "bwd"):
            paths += ["--matrix", str(tmp_path / f"{strategy}-zeroshot.jsonl")]
            assert main(
                ["matrix", "--config", str(four_config), "--strategy", strategy,
                 "--mode", "zeroshot", "--out", paths[-1]]
            ) == 0
        out = tmp_path / "report.tsv"
        assert main(["report", "--config", str(four_config), *paths, "--format", "tsv", "--out", str(out)]) == 0
        scores_table = out.read_text(encoding="utf-8").split("\n\n")[0].splitlines()
        assert scores_table[0] == "model\taa\tbb\tcc\tdd\toverall"
        rows = {line.split("\t")[0]: line.split("\t")[1:5] for line in scores_table[1:]}
        codes = ["aa", "bb", "cc", "dd"]
        for label, path, cap in (("zeroshot", paths[1], None), ("zeroshot, cap 30", paths[3], 30)):
            means = {
                r["target"]: f"{100 * r['mean']:.2f}"
                for r in _read_jsonl(Path(path))
                if r["sample_cap"] == cap and len(r["sources"]) == 3
            }
            assert rows[label] == [means[c] for c in codes]
        assert rows["zeroshot"] != rows["zeroshot, cap 30"]
        assert "multilingual" not in rows

    def test_a_language_without_a_train_file_keeps_the_baseline_rows(self, tmp_path, monkeypatch):
        # dd declares no train file, or one that holds only its header, so
        # it is never a source: each baseline trains on aa, bb and cc (less
        # the target, zero-shot) and still gets its row, and dd is a target
        # of the zero-shot one alone. The plans and report ask one rule.
        for train in ("absent", "header-only"):
            root = tmp_path / train
            monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(root / "cache"))
            config = write_universe(four_language_universe(), root)
            if train == "absent":
                doc = yaml.safe_load(config.read_text(encoding="utf-8"))
                del next(entry for entry in doc["languages"] if entry["code"] == "dd")["train"]
                config.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
            else:
                dd_train = root / "data" / "dd_train.tsv"
                dd_train.write_text(dd_train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
            paths = []
            for mode in ("multilingual", "zeroshot"):
                paths += ["--matrix", str(root / f"{mode}.jsonl")]
                assert main(["matrix", "--config", str(config), "--strategy", "bwd", "--mode", mode,
                             "--seed-list", "1", "--out", paths[-1]]) == 0
            out = root / "report.tsv"
            assert main(["report", "--config", str(config), *paths, "--format", "tsv", "--out", str(out)]) == 0
            scores_table = out.read_text(encoding="utf-8").split("\n\n")[0].splitlines()
            assert scores_table[0] == "model\taa\tbb\tcc\tdd\toverall"
            rows = {line.split("\t")[0]: line.split("\t")[1:5] for line in scores_table[1:]}
            trainable = {"aa", "bb", "cc"}
            for label, path, targets in (("multilingual, cap 500", paths[1], ["aa", "bb", "cc"]),
                                         ("zeroshot, cap 500", paths[3], ["aa", "bb", "cc", "dd"])):
                means = {
                    r["target"]: f"{100 * r['mean']:.2f}"
                    for r in _read_jsonl(Path(path))
                    if set(r["sources"]) == (trainable if r["mode"] == "multilingual" else trainable - {r["target"]})
                }
                assert sorted(means) == targets
                assert rows.get(label) == [means.get(code, "-") for code in ("aa", "bb", "cc", "dd")], train

    def test_multilingual_and_zeroshot_selections_get_their_own_rows(self, tmp_path, monkeypatch, four_config):
        # Forward selections in both modes, reported together: neither mode's
        # picks may replace the other's.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        inputs = []
        for mode in ("multilingual", "zeroshot"):
            sel, cells = tmp_path / f"sel-{mode}.jsonl", tmp_path / f"cells-{mode}.jsonl"
            assert main(
                ["select", "--config", str(four_config), "--strategy", "fwd", "--mode", mode,
                 "--out", str(sel), "--matrix-out", str(cells)]
            ) == 0
            inputs += ["--selections", str(sel), "--matrix", str(cells)]
        out = tmp_path / "report.tsv"
        assert main(["report", "--config", str(four_config), *inputs, "--format", "tsv", "--out", str(out)]) == 0
        scores, _, picks = out.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
        labels = [line.split("\t")[0] for line in scores.splitlines()[1:]]
        assert "fwd source transfer" in labels and "fwd zeroshot source transfer" in labels
        picks = picks.splitlines()
        assert picks[0] == "target\tforward\tforward zeroshot"
        # Each mode's column lists exactly what that mode's select picked.
        for column, mode in ((1, "multilingual"), (2, "zeroshot")):
            picked = {r["target"]: ", ".join(c for c, _ in r["positives"]) or "-"
                      for r in _read_jsonl(tmp_path / f"sel-{mode}.jsonl")}
            assert {row.split("\t")[0]: row.split("\t")[column] for row in picks[1:]} == picked


# Runs one CLI verb; its last stdout line is [exit code, which of numpy,
# ctypes and the kernel module it imported].
_VERB_PROBE = (
    "import json, sys; from langselect.cli import main; "
    "rc = main(sys.argv[1:]); "
    "print(json.dumps([rc, [m for m in ('numpy', 'ctypes', 'langselect.kernel') if m in sys.modules]]))"
)

# Imports langselect; prints the numpy and langselect modules it loaded.
_PACKAGE_PROBE = (
    "import json, sys; import langselect; "
    "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('langselect.'))))"
)


class TestNumpyFreeVerbs:
    def test_only_training_verbs_import_numpy(self, tmp_path, four_config):
        # A verb that trains nothing, or finds every score in the cache,
        # must not pay for importing numpy in its fresh interpreter, nor
        # load, let alone build, the C kernel.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            LANGSELECT_CACHE_DIR=str(tmp_path / "cache"),
            XDG_CACHE_HOME=str(tmp_path / "xdg"),
        )

        def run(*argv, **extra_env):
            done = subprocess.run(
                [sys.executable, "-c", _VERB_PROBE, *argv], env=dict(env, **extra_env), capture_output=True,
                encoding="utf-8", timeout=300,
            )
            assert done.returncode == 0, done.stderr
            rc, loaded = json.loads(done.stdout.splitlines()[-1])
            assert rc == 0, done.stderr
            return loaded

        config = ["--config", str(four_config)]
        select = ["select", *config, "--strategy", "fwd", "--out", str(tmp_path / "sel.jsonl"),
                  "--matrix-out", str(tmp_path / "cells.jsonl")]
        data = four_config.parent / "data"
        assert not run("ingest", *config, "--out-dir", str(tmp_path / "ingested"))
        assert run(*select) == ["numpy", "ctypes", "langselect.kernel"]  # cold: trains
        assert list((tmp_path / "xdg" / "langselect").iterdir())
        fresh = tmp_path / "fresh-xdg"
        fresh.mkdir()
        assert not run(*select, XDG_CACHE_HOME=str(fresh))
        assert list(fresh.iterdir()) == []
        assert not run("matrix", *config, "--strategy", "fwd", "--out", str(tmp_path / "matrix.jsonl"))
        assert not run("score", *config, "--target", "aa", "--sources", "aa,bb")
        assert not run("report", *config, "--matrix", str(tmp_path / "matrix.jsonl"),
                       "--selections", str(tmp_path / "sel.jsonl"), "--out", str(tmp_path / "report.md"))
        preds = []
        for seed in ("1", "2"):
            model, pred = tmp_path / f"model{seed}.npz", tmp_path / f"pred{seed}.tsv"
            assert run("train", *config, "--target", "aa", "--sources", "aa,bb", "--seed", seed, "--out", str(model))
            assert run("predict", "--model", str(model), "--input", str(data / "aa_test.tsv"), "--out", str(pred))
            preds.append(str(pred))
        assert not run("ensemble", "--inputs", *preds, "--out", str(tmp_path / "ensemble.tsv"))

        # The package re-exports nothing: importing it loads no submodule.
        done = subprocess.run(
            [sys.executable, "-c", _PACKAGE_PROBE], env=env, capture_output=True, encoding="utf-8", check=True, timeout=60
        )
        assert json.loads(done.stdout) == []

    def test_reading_the_learner_functions_imports_no_numpy(self):
        # harness.experiments' learner functions import textmodel when
        # called, so reading one, as a spy or a tracing wrapper does, must
        # not load numpy.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import sys; import langselect.harness.experiments as exp; "
            "assert all(map(callable, (exp.fine_tune, exp.pretrain, exp.predict_texts))); "
            "print('numpy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", check=True, timeout=60
        )
        assert done.stdout == "False\n"


def _rotate_labels(path):
    """Give every row of a labeled TSV the next label, keeping its text."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rotate = {"negative": "neutral", "neutral": "positive", "positive": "negative"}
    rows = ["\t".join([*row.split("\t")[:2], rotate[row.split("\t")[2]]]) for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _warm_verbs(config, out):
    """A select, a matrix and a score run of one config, writing into out."""
    config = ["--config", str(config)]
    return [
        ["select", *config, "--strategy", "fwd", "--out", str(out / "sel.jsonl"),
         "--matrix-out", str(out / "cells.jsonl")],
        ["matrix", *config, "--strategy", "bwd", "--out", str(out / "matrix.jsonl")],
        ["score", *config, "--target", "aa", "--sources", "aa,bb", "--cap", "30"],
    ]


def _warm_universe(adaptation):
    universe = replace(four_language_universe(), selection={"baseline_samples_per_language": 30}, seeds=(1,))
    if adaptation == "none":
        return universe
    return replace(universe, adaptation=adaptation, generic_corpus_lines=20)


@pytest.fixture(scope="module")
def warm_dirs(tmp_path_factory):
    """Per adaptation, a four-language universe whose cache the verbs of
    ``_warm_verbs`` have filled, with their outputs under ``cold/``;
    ``cold/stdout.txt`` holds their stdout, with ``{out}`` for the output
    directory."""
    dirs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("LANGSELECT_CACHE_DIR", raising=False)
        for adaptation in ("none", "lapt+tapt"):
            root = tmp_path_factory.mktemp("warm")
            config = write_universe(_warm_universe(adaptation), root)
            (root / "cold").mkdir()
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                for argv in _warm_verbs(config, root / "cold"):
                    assert main(argv) == 0
            text = stdout.getvalue().replace(str(root / "cold"), "{out}")
            (root / "cold" / "stdout.txt").write_text(text, encoding="utf-8")
            dirs[adaptation] = root
    return dirs


class TestWarmRuns:
    """A run whose scores all come from the cache parses no corpus: each
    split's facts are remembered by its file's raw bytes."""

    @pytest.fixture
    def universe(self, warm_dirs, tmp_path, monkeypatch, request):
        monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
        root = tmp_path / "universe"
        shutil.copytree(warm_dirs[getattr(request, "param", "none")], root)
        return root

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the files each loader parses, and fine_tune's call count."""
        import langselect.harness.experiments as exp

        calls = {"load_labeled_tsv": [], "load_unlabeled_text": [], "fine_tune": []}
        for name in ("load_labeled_tsv", "load_unlabeled_text"):
            real = getattr(exp, name)

            def spy(path, *args, real=real, name=name, **kwargs):
                calls[name].append(path.name)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(exp, name, spy)
        real_fine_tune = exp.fine_tune

        def fine_tune(*args, **kwargs):
            calls["fine_tune"].append(1)
            return real_fine_tune(*args, **kwargs)

        monkeypatch.setattr(exp, "fine_tune", fine_tune)
        return calls

    def _run(self, universe, capsys):
        """Run the warm verbs; return their stdout and the journal's bytes."""
        (universe / "warm").mkdir(exist_ok=True)
        for argv in _warm_verbs(universe / "config.yaml", universe / "warm"):
            assert main(argv) == 0
        return capsys.readouterr().out, (universe / "cache" / "scores.journal").read_bytes()

    @pytest.mark.parametrize("universe", ["none", "lapt+tapt"], indirect=True)
    def test_warm_verbs_parse_nothing(self, universe, calls, capsys):
        journal = (universe / "cache" / "scores.journal").read_bytes()
        facts = (universe / "cache" / "facts.journal").read_bytes()
        assert self._run(universe, capsys)[1] == journal
        warm = universe / "warm"
        assert main(["report", "--config", str(universe / "config.yaml"), "--matrix", str(warm / "matrix.jsonl"),
                     "--matrix", str(warm / "cells.jsonl"), "--selections", str(warm / "sel.jsonl"),
                     "--out", str(warm / "report.md")]) == 0
        assert "# Selected sources" in (warm / "report.md").read_text(encoding="utf-8")
        assert calls == {"load_labeled_tsv": [], "load_unlabeled_text": [], "fine_tune": []}
        assert (universe / "cache" / "facts.journal").read_bytes() == facts
        for name in ("sel.jsonl", "cells.jsonl", "matrix.jsonl"):
            assert (universe / "warm" / name).read_bytes() == (universe / "cold" / name).read_bytes()

    def test_ingest_remembers_the_facts_it_derives(self, four_config, tmp_path, monkeypatch, calls, capsys):
        # ingest parses every split, so it appends their facts to the
        # facts journal as the other verbs do: a report after it parses
        # no corpus, and a cache directory it cannot write is a data error.
        config = ["--config", str(four_config)]
        ingest = ["ingest", *config, "--out-dir", str(tmp_path / "ingested")]
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        assert main(ingest) == 0
        assert calls["load_labeled_tsv"] and (tmp_path / "cache" / "facts.journal").is_file()
        calls["load_labeled_tsv"].clear()
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text("", encoding="utf-8")
        assert main(["report", *config, "--matrix", str(matrix), "--out", str(tmp_path / "report.md")]) == 0
        assert calls["load_labeled_tsv"] == []

        (tmp_path / "blocked").write_text("", encoding="utf-8")
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "blocked"))
        assert main(ingest) == 2
        assert capsys.readouterr().err == f"data error: {tmp_path / 'blocked'}: File exists\n"

    @pytest.mark.parametrize("universe", ["none", "lapt+tapt"], indirect=True)
    def test_facts_of_an_older_loader_are_derived_once(self, universe, calls, capsys):
        # A cache filled before the loaders had a version of their own holds
        # facts records keyed by NUMERICS_VERSION 2. None is recalled: the
        # first verb parses each configured file once and remembers its
        # facts anew. Rows, digests and cell keys are unchanged, so every
        # score comes from the journal and every output is as before.
        facts = universe / "cache" / "facts.journal"
        records = facts.read_text(encoding="utf-8").splitlines(keepends=True)
        assert records and all(r.startswith(f"v1\t{LOADER_VERSION}\t") for r in records)
        old = "".join(r.replace(f"v1\t{LOADER_VERSION}\t", "v1\t2\t", 1) for r in records)
        facts.write_text(old, encoding="utf-8")
        journal = (universe / "cache" / "scores.journal").read_bytes()
        cfg = load_config(universe / "config.yaml")
        labeled = sorted(p.name for lf in cfg.languages for p in (lf.train, lf.dev, lf.test) if p is not None)
        corpora = sorted(lf.lapt_corpus.name for lf in cfg.languages if lf.lapt_corpus is not None)

        parsed = {"load_labeled_tsv": labeled, "load_unlabeled_text": corpora, "fine_tune": []}
        stdout, after = self._run(universe, capsys)
        assert after == journal
        assert {name: sorted(names) for name, names in calls.items()} == parsed
        cold = (universe / "cold" / "stdout.txt").read_text(encoding="utf-8")
        assert stdout == cold.replace("{out}", str(universe / "warm"))
        for name in ("sel.jsonl", "cells.jsonl", "matrix.jsonl"):
            assert (universe / "warm" / name).read_bytes() == (universe / "cold" / name).read_bytes()
        assert facts.read_text(encoding="utf-8") == old + "".join(records)

        assert self._run(universe, capsys) == (stdout, journal)
        assert {name: sorted(names) for name, names in calls.items()} == parsed

    def test_rotated_labels_miss_the_cache(self, universe, calls, capsys):
        _rotate_labels(universe / "data" / "bb_train.tsv")
        self._run(universe, capsys)
        assert calls["fine_tune"]
        assert calls["load_labeled_tsv"].count("bb_train.tsv") == 3  # once per verb

    @pytest.mark.parametrize("universe", ["none", "lapt+tapt"], indirect=True)
    @pytest.mark.parametrize("change", ["reverse-languages", "move-data-files", "move-universe"])
    def test_warm_run_ignores(self, universe, calls, capsys, change):
        # The cache follows the data's bytes, not the config's language
        # order, the files' paths or the universe's place: after each
        # change a warm run parses and trains nothing and writes the same
        # bytes.
        config = universe / "config.yaml"
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        if change == "reverse-languages":
            doc["languages"].reverse()
        elif change == "move-data-files":
            (universe / "moved").mkdir()
            for entry in doc["languages"]:
                for key in ("train", "dev", "test", "lapt_corpus"):
                    if key in entry:
                        moved = f"moved/{key}-of-{entry['code']}.data"
                        (universe / entry[key]).rename(universe / moved)
                        entry[key] = moved
        config.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        if change == "move-universe":
            universe = universe.rename(universe.parent / "moved-universe")
        journal = (universe / "cache" / "scores.journal").read_bytes()

        stdout, after = self._run(universe, capsys)
        assert calls == {"load_labeled_tsv": [], "load_unlabeled_text": [], "fine_tune": []}
        assert after == journal
        cold = (universe / "cold" / "stdout.txt").read_text(encoding="utf-8")
        assert stdout == cold.replace("{out}", str(universe / "warm"))
        for name in ("sel.jsonl", "cells.jsonl", "matrix.jsonl"):
            assert (universe / "warm" / name).read_bytes() == (universe / "cold" / name).read_bytes()

    def test_whitespace_edit_still_hits(self, universe, calls, capsys):
        # New bytes, the same rows after normalization: the file is parsed
        # again, and every score still comes from the journal.
        train = universe / "data" / "bb_train.tsv"
        text = train.read_text(encoding="utf-8")
        train.write_bytes(text.replace(" ", "  ").replace("\n", "\r\n").encode("utf-8") + b"\r\n")
        journal = (universe / "cache" / "scores.journal").read_bytes()
        assert self._run(universe, capsys)[1] == journal
        assert calls["fine_tune"] == []
        assert set(calls["load_labeled_tsv"]) == {"bb_train.tsv", "bb_dev.tsv"}  # bb's devstar rebuilt
        self._run(universe, capsys)
        assert set(calls["load_labeled_tsv"]) == {"bb_train.tsv", "bb_dev.tsv"}
        assert len(calls["load_labeled_tsv"]) == 2  # remembered from the first run on

    def test_torn_facts_line_is_skipped_and_repaired(self, universe, calls, capsys, caplog):
        facts = universe / "cache" / "facts.journal"
        records = facts.read_bytes().splitlines(keepends=True)
        facts.write_bytes(b"".join(records[:-1]) + records[-1][:40])
        with caplog.at_level(logging.WARNING, logger="langselect.harness.cache"):
            self._run(universe, capsys)
        assert f"{facts}: skipped 1 malformed cache lines" in caplog.text
        assert calls["fine_tune"] == []
        parsed = len(calls["load_labeled_tsv"]) + len(calls["load_unlabeled_text"])
        assert 0 < parsed <= 3  # the torn record's split, once per verb until one remembers it
        assert facts.read_bytes().startswith(b"".join(records[:-1]) + records[-1][:40] + b"\n")
        self._run(universe, capsys)
        assert len(calls["load_labeled_tsv"]) + len(calls["load_unlabeled_text"]) == parsed

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("aa_test.tsv", None, "file not found"),
            ("aa_test.tsv", "id\ttext\tlabel\na1\tsome text\tmaybe\n", "unknown label 'maybe' at line 2"),
            ("aa_test.tsv", b"id\ttext\tlabel\na1\t\xff\tpositive\n", "invalid UTF-8"),
            ("cc_dev.tsv", "id\ttext\tlabel\nc1 no tabs\n", "malformed row at line 2"),
            ("dd_train.tsv", None, "file not found"),
        ],
        ids=["test-missing", "test-bad-label", "test-not-utf8", "dev-short-row", "train-missing"],
    )
    def test_bad_file_fails_warm_runs_too(self, universe, capsys, name, content, message):
        # Every configured file is read on every run, used by a cell or not.
        path = universe / "data" / name
        if content is None:
            path.unlink()
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        for argv in _warm_verbs(universe / "config.yaml", universe):
            for _ in range(2):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith("data error:") and message in err and name in err


class TestFactsJournal:
    """What ``facts.journal`` holds: one record per configured file, and
    after each language's files one for its devstar split, all written
    when the store is built and never again once remembered."""

    _COLD = ["labeled", "labeled", "labeled", "devstar"] * 4

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
        return str(write_universe(four_language_universe(), tmp_path))

    @staticmethod
    def _loaders(config):
        facts = Path(config).parent / "cache" / "facts.journal"
        return [line.split("\t")[2] for line in facts.read_text(encoding="utf-8").splitlines()]

    def test_cold_select_records_every_split_and_the_warm_rerun_none(self, config, capsys):
        argv = ["select", "--config", config, "--strategy", "fwd", "--seed-list", "1"]
        assert main(argv) == 0
        assert self._loaders(config) == self._COLD
        assert main(argv) == 0
        assert self._loaders(config) == self._COLD

    def test_cold_train_records_every_split(self, config, tmp_path, capsys):
        assert main(["train", "--config", config, "--target", "aa", "--sources", "aa,bb", "--seed", "1",
                     "--out", str(tmp_path / "m.npz")]) == 0
        assert self._loaders(config) == self._COLD


def test_warm_runs_log_empty_split_warnings(tmp_path, monkeypatch, caplog):
    # A devstar that overlap removal empties leaves its language out of
    # the targets with one warning on every run, also when the facts come
    # from the memo; an empty LAPT corpus that no cell reads logs nothing.
    monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
    universe = replace(
        CLI_UNIVERSE,
        languages=CLI_UNIVERSE.languages[:2] + (SynthLanguage("ee", "Fam-2", IDENTITY, n_train=12, n_dev=4,
                                                              n_test=0, n_overlap=4),),
        generic_corpus_lines=3,
        seeds=(1,),
    )
    config = write_universe(universe, tmp_path)
    (tmp_path / "data" / "ee_corpus.txt").write_text("", encoding="utf-8")
    corpus = tmp_path / "data" / "ee_corpus.txt"
    argv = ["select", "--config", str(config), "--strategy", "fwd"]
    logged = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="langselect"):
            assert main(argv) == 0
        logged.append([(r.name, r.getMessage()) for r in caplog.records])
    assert logged[0] == logged[1] == [("langselect.cli", "ee: no devstar rows, so it is not a target")]
    # Run as a module, the warm run logs under the same logger name.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "langselect.cli", *argv], env=env, capture_output=True,
                          encoding="utf-8", check=True)
    assert done.stderr == "WARNING langselect.cli: ee: no devstar rows, so it is not a target\n"


def test_cold_and_warm_runs_log_each_cap_shortfall_once(tmp_path, monkeypatch, caplog):
    # A language with fewer train rows than the backward cap trains on all
    # of them. Each run names it once per cap, sorted by code, from the
    # split facts, so the warm rerun logs what the cold run does, and
    # train logs the same for its one spec.
    monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
    aa, bb, cc = CLI_UNIVERSE.languages
    universe = replace(CLI_UNIVERSE, languages=(aa, replace(bb, n_train=20), replace(cc, n_train=12)), seeds=(1,),
                       selection={"baseline_samples_per_language": 30})
    config = str(write_universe(universe, tmp_path))
    runs = [["select", "--config", config, "--strategy", "bwd"]] * 2 + [
        ["train", "--config", config, "--target", "aa", "--sources", "cc,bb", "--cap", "30",
         "--out", str(tmp_path / "m.npz")]]
    logged = []
    for argv in runs:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="langselect"):
            assert main(argv) == 0
        logged.append([(r.name, r.getMessage()) for r in caplog.records])
    assert logged == [[("langselect.harness.experiments", f"{code}: only {n} train rows available, requested 30; "
                        "using all") for code, n in (("bb", 20), ("cc", 12))]] * 3


_CONTRACT_PLANS = [(strategy, mode) for strategy in ("fwd", "bwd") for mode in ("multilingual", "zeroshot")]
_CONTRACT_FILES = [f"{code}_{split}.tsv" for code in ("aa", "bb", "cc", "dd") for split in ("train", "dev", "test")]


def _run_plans(root, out):
    """Run ``matrix`` for each plan of ``_CONTRACT_PLANS`` on the universe
    at root, writing into out; returns each scored cell by its key, as
    (target, sources, sample cap)."""
    out.mkdir()
    cells = {}
    for strategy, mode in _CONTRACT_PLANS:
        path = out / f"{strategy}-{mode}.jsonl"
        assert main(["matrix", "--config", str(root / "config.yaml"), "--strategy", strategy, "--mode", mode,
                     "--out", str(path)]) == 0
        cells.update((r["key"], (r["target"], tuple(r["sources"]), r["sample_cap"])) for r in _read_jsonl(path))
    return cells


def _reads(cell, name, adaptation):
    """Whether a cell reads the labeled file ``name`` (``<code>_<split>.tsv``):
    its sources' train files, its target's dev file, from which its eval
    split devstar derives, and, under TAPT, the train and dev files of
    its sources and its target. No cell reads a test file."""
    target, sources, _ = cell
    code, split = name.removesuffix(".tsv").split("_")
    tapt_file = adaptation == "tapt" and split in ("train", "dev") and code in (target, *sources)
    return (split == "train" and code in sources) or (split == "dev" and code == target) or tapt_file


@pytest.fixture(scope="module", params=["tapt", "none"])
def contract_dir(tmp_path_factory, request):
    """The four-language universe with the tiny learner at one seed, its
    cache filled by every plan of ``_CONTRACT_PLANS``; returns the
    directory, its adaptation and the plans' cells."""
    root = tmp_path_factory.mktemp("contract")
    universe = replace(
        four_language_universe(), adaptation=request.param, learner=TINY_LEARNER, seeds=(1,),
        selection={"baseline_samples_per_language": 30},
    )
    write_universe(universe, root)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.delenv("LANGSELECT_CACHE_DIR", raising=False)
        cells = _run_plans(root, root / "cold")
    return root, request.param, set(cells.values())


@pytest.mark.parametrize("name", _CONTRACT_FILES)
def test_exactly_the_cells_that_read_a_file_retrain(tmp_path, monkeypatch, capsys, contract_dir, name):
    # Rotating a file's labels keeps every text, so a devstar's rows change
    # only with its dev file, and only the cells that read the file get a
    # new key and train again.
    root, adaptation, plan_cells = contract_dir
    monkeypatch.delenv("LANGSELECT_CACHE_DIR", raising=False)
    shutil.copytree(root, tmp_path / "universe")
    journal = tmp_path / "universe" / "cache" / "scores.journal"
    warm = len(_journal_records(journal))
    _rotate_labels(tmp_path / "universe" / "data" / name)
    cells = _run_plans(tmp_path / "universe", tmp_path / "universe" / "rerun")
    capsys.readouterr()
    retrained = {cells[key] for key, _ in _journal_records(journal)[warm:]}
    assert retrained == {cell for cell in plan_cells if _reads(cell, name, adaptation)}
