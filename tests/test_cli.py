"""CLI tests: verbs, outputs, exit codes and start-up imports."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from langselect.cli import main
from langselect.synth import (
    IDENTITY,
    ROTATED,
    SynthLanguage,
    SynthUniverse,
    four_language_universe,
    write_universe,
)

from reference import TableOracle, brute_force_backward, brute_force_forward

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
    learner={
        "ngram_min": 1,
        "ngram_max": 3,
        "hash_buckets": 1024,
        "learning_rate": 2.0,
        "epochs": 3,
    },
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
        "verb, flag",
        [("matrix", "--parallelism"), ("select", "--parallelism"), ("select", "--top-k"),
         ("score", "--cap"), ("train", "--cap")],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
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
            ("learner: [3]\n", "'learner'"),
        ],
        ids=["seeds-int", "seeds-str", "seeds-float", "seeds-bool", "selection-str", "top-k-str", "learner-list"],
    )
    def test_malformed_config_value_is_experiment_error(self, tmp_path, capsys, section, key):
        # A value of the wrong type is named, not turned into a traceback
        # or quietly coerced (1.5 and true would both run as seed 1).
        config = tmp_path / "config.yaml"
        config.write_text("languages:\n  - code: aa\n" + section, encoding="utf-8")
        assert main(["score", "--config", str(config), "--target", "aa", "--sources", "aa"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("experiment error:") and key in err

    def test_experiment_error(self, tmp_path, capsys):
        assert (
            main(["score", "--config", str(tmp_path / "nope.yaml"), "--target", "aa", "--sources", "aa"])
            == 3
        )
        assert "experiment error" in capsys.readouterr().err


class TestIngest:
    def test_writes_devstar_and_summary(self, tmp_path, capsys, config_path):
        out_dir = tmp_path / "ingested"
        assert main(["ingest", "--config", config_path, "--out-dir", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("aa\ttrain=36\tdev=24\tdevstar=21\tremoved=3")
        devstar = (out_dir / "aa_devstar.tsv").read_text().splitlines()
        assert devstar[0] == "id\ttext\tlabel"
        assert len(devstar) == 1 + 21


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


class TestTrainPredictEnsemble:
    def test_roundtrip(self, tmp_path, capsys, config_path, universe_dir):
        preds = []
        for seed in (1, 2, 3):
            model_path = tmp_path / f"model{seed}.npz"
            assert main(
                ["train", "--config", config_path, "--target", "aa", "--sources", "aa,bb",
                 "--seed", str(seed), "--out", str(model_path)]
            ) == 0
            pred_path = tmp_path / f"preds{seed}.tsv"
            assert main(
                ["predict", "--model", str(model_path), "--input",
                 str(universe_dir / "data" / "aa_test.tsv"), "--out", str(pred_path), "--probs"]
            ) == 0
            preds.append(str(pred_path))
        out_path = tmp_path / "ensemble.tsv"
        assert main(["ensemble", "--inputs", *preds, "--out", str(out_path)]) == 0
        rows = out_path.read_text().splitlines()
        assert rows[0] == "id\tlabel"
        assert len(rows) == 1 + 12

    def test_predict_missing_model_is_experiment_error(self, tmp_path):
        ok = tmp_path / "in.tsv"
        ok.write_text("id\ttext\na\thello\n")
        missing = tmp_path / "m.npz"
        assert main(["predict", "--model", str(missing), "--input", str(ok), "--out", str(tmp_path / "o.tsv")]) == 3

    def test_predict_rejects_malformed_input(self, tmp_path, config_path):
        model = tmp_path / "m.npz"
        assert main(
            ["train", "--config", config_path, "--target", "aa", "--sources", "aa",
             "--seed", "1", "--out", str(model)]
        ) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\ttext\nonly-one-field\n")
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
        assert len(matrix_path.read_text().splitlines()) == 9  # N*N cells for N=3

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
        doc = report_path.read_text()
        assert "# Scores by target language" in doc
        assert "monolingual" in doc

        jsonl = tmp_path / "report.jsonl"
        assert main(
            ["report", "--config", config_path, "--matrix", str(matrix_path),
             "--selections", str(sel_path), "--format", "jsonl", "--out", str(jsonl)]
        ) == 0
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(r["table"] == "selection" for r in rows)


    @pytest.mark.parametrize(
        "line, reason",
        [
            ({"target": "aa", "strategy": "forward", "baseline": 0.5, "positives": [], "ranking": []},
             "KeyError('mode')"),
            ({"target": "aa", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
              "positives": [1], "ranking": []}, "TypeError('cannot unpack"),
            ("{not json", "JSONDecodeError('Expecting property name"),
        ],
    )
    def test_malformed_selections_line_is_named(self, tmp_path, capsys, config_path, line, reason):
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text("")
        good = {"target": "bb", "strategy": "forward", "mode": "multilingual", "baseline": 0.5,
                "positives": [["aa", 0.1]], "ranking": [["aa", 0.6], ["cc", 0.4]]}
        sel = tmp_path / "sel.jsonl"
        bad = line if isinstance(line, str) else json.dumps(line)
        sel.write_text(f"# strategy=forward\n{json.dumps(good)}\n{bad}\n")
        assert main(["report", "--config", config_path, "--matrix", str(matrix), "--selections", str(sel)]) == 3
        err = capsys.readouterr().err
        assert f"{sel}: bad selections jsonl at line 3" in err and reason in err


    @pytest.mark.parametrize("missing", ["--matrix", "--selections"])
    def test_missing_report_input_is_data_error(self, tmp_path, capsys, config_path, missing):
        inputs = {"--matrix": tmp_path / "matrix.jsonl", "--selections": tmp_path / "sel.jsonl"}
        for flag, path in inputs.items():
            if flag != missing:
                path.write_text("")
        argv = ["report", "--config", config_path]
        for flag, path in inputs.items():
            argv += [flag, str(path)]
        assert main(argv) == 2
        assert f"file not found: {inputs[missing]}" in capsys.readouterr().err

    def test_matrix_line_not_an_object_is_named(self, tmp_path, capsys, config_path):
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text('\n["x"]\n')
        assert main(["report", "--config", config_path, "--matrix", str(matrix)]) == 3
        assert "bad matrix jsonl at line 2" in capsys.readouterr().err


def test_cli_import_skips_scipy_and_numpy_tooling():
    # Each verb starts a fresh interpreter: scipy.sparse, numpy.testing and
    # numpy.f2py would add about 0.3 s to every start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, langselect.cli; "
        "print(*[m for m in ('scipy', 'numpy.testing', 'numpy.f2py') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line and not line.startswith("#")]


def _journal_records(path):
    return [tuple(line.split("\t")[1:3]) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def four_config(tmp_path_factory):
    """The four-language universe with seeds 1,2 and a backward cap of 30."""
    universe = replace(
        four_language_universe(), selection={"baseline_samples_per_language": 30}, seeds=(1, 2)
    )
    return write_universe(universe, tmp_path_factory.mktemp("four"))


class TestOneScoringPath:
    @pytest.mark.parametrize("strategy", ["fwd", "bwd"])
    @pytest.mark.parametrize("mode", ["multilingual", "zeroshot"])
    def test_select_decides_from_the_matrix(self, tmp_path, capsys, monkeypatch, four_config, strategy, mode):
        # ``matrix`` writes the plan's scores; ``select`` must decide exactly
        # what the selection rules give on those scores, and must score
        # nothing but the selected sets on top of them.
        monkeypatch.setenv("LANGSELECT_CACHE_DIR", str(tmp_path / "cache"))
        journal = tmp_path / "cache" / "scores.journal"
        common = ["--config", str(four_config), "--strategy", strategy, "--mode", mode]
        assert main(["matrix", *common, "--out", str(tmp_path / "matrix.jsonl")]) == 0
        planned = _journal_records(journal)
        assert main(
            ["select", *common, "--out", str(tmp_path / "sel.jsonl"),
             "--matrix-out", str(tmp_path / "selcells.jsonl")]
        ) == 0
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
        selected_keys = {r["key"] for r in _read_jsonl(tmp_path / "selcells.jsonl")}
        planned_keys = {r["key"] for r in records}
        assert {key for key, _ in after[len(planned):]} <= selected_keys - planned_keys


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
        scores_table = out.read_text().split("\n\n")[0].splitlines()
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
        scores, _, picks = out.read_text().rstrip("\n").split("\n\n")
        labels = [line.split("\t")[0] for line in scores.splitlines()[1:]]
        assert "fwd source transfer" in labels and "fwd zeroshot source transfer" in labels
        picks = picks.splitlines()
        assert picks[0] == "target\tforward\tforward zeroshot"
        # Each mode's column lists exactly what that mode's select picked.
        for column, mode in ((1, "multilingual"), (2, "zeroshot")):
            picked = {r["target"]: ", ".join(c for c, _ in r["positives"]) or "-"
                      for r in _read_jsonl(tmp_path / f"sel-{mode}.jsonl")}
            assert {row.split("\t")[0]: row.split("\t")[column] for row in picks[1:]} == picked
