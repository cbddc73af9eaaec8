"""Harness configuration: one YAML document declaring languages, data
paths, learner settings, selection settings, seeds, adaptation, the
cache directory and the evaluation split. Unknown top-level keys are
ignored; unknown learner and selection keys are errors. The top-level
``seeds`` are the only seed setting: every score of a run is averaged
over them unless ``--seed-list`` replaces them.

Relative paths are resolved against the config file's directory. The
cache directory can be overridden with the LANGSELECT_CACHE_DIR
environment variable.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ..corpus import LanguageCode, read_utf8
from ..errors import CorpusError, HarnessError
from ..selection import SelectionConfig
from ..textmodel import LearnerConfig

CACHE_DIR_ENV = "LANGSELECT_CACHE_DIR"


@dataclass(frozen=True)
class LanguageFiles:
    """Data files declared for one language."""

    language: LanguageCode
    train: Path | None = None
    dev: Path | None = None
    test: Path | None = None
    lapt_corpus: Path | None = None


@dataclass(frozen=True)
class HarnessConfig:
    languages: tuple[LanguageFiles, ...]
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    cache_dir: Path | None = None
    adaptation: str = "none"
    eval_split: str = "devstar"

    def cache_path(self) -> Path | None:
        """Journal file path, honoring the environment override."""
        env = os.environ.get(CACHE_DIR_ENV)
        directory = Path(env) if env else self.cache_dir
        if directory is None:
            return None
        return directory / "scores.journal"


def _resolve(base: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> HarnessConfig:
    """Parse and validate a YAML harness config."""
    path = Path(path)
    try:
        text = read_utf8(path)
    except CorpusError as e:
        raise HarnessError(f"config {e}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise HarnessError(f"{path}: invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise HarnessError(f"{path}: config must be a mapping")
    base = path.parent

    raw_languages = doc.get("languages")
    if not raw_languages or not isinstance(raw_languages, list):
        raise HarnessError(f"{path}: config needs a non-empty 'languages' list")
    languages = []
    for i, entry in enumerate(raw_languages):
        if not isinstance(entry, dict) or "code" not in entry:
            raise HarnessError(f"{path}: languages[{i}] must be a mapping with a 'code'")
        lang = LanguageCode(
            code=str(entry["code"]),
            family=str(entry.get("family", "")),
            subgroup=entry.get("subgroup"),
        )
        languages.append(
            LanguageFiles(
                language=lang,
                train=_resolve(base, entry.get("train")),
                dev=_resolve(base, entry.get("dev")),
                test=_resolve(base, entry.get("test")),
                lapt_corpus=_resolve(base, entry.get("lapt_corpus")),
            )
        )
    codes = [lf.language.code for lf in languages]
    if len(set(codes)) != len(codes):
        raise HarnessError(f"{path}: duplicate language codes in config")

    seeds = tuple(int(s) for s in doc.get("seeds", (1, 2, 3, 4, 5)))
    if not seeds:
        raise HarnessError(f"{path}: 'seeds' must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise HarnessError(f"{path}: 'seeds' must be distinct, got {list(seeds)}")

    learner_doc = doc.get("learner", {})
    if isinstance(learner_doc, dict) and "seed" in learner_doc:
        raise HarnessError(f"{path}: 'learner.seed' is not a setting; a run's seeds come from 'seeds'")
    try:
        learner = LearnerConfig(**learner_doc)
        sel_kwargs = dict(doc.get("selection", {}))
        if "top_k" in sel_kwargs and sel_kwargs["top_k"] is not None:
            sel_kwargs["top_k"] = int(sel_kwargs["top_k"])
        selection = SelectionConfig(**sel_kwargs)
    except TypeError as e:
        raise HarnessError(f"{path}: bad learner/selection settings: {e}") from None

    adaptation = str(doc.get("adaptation", "none")).lower()
    eval_split = str(doc.get("eval_split", "devstar"))

    return HarnessConfig(
        languages=tuple(languages),
        learner=learner,
        selection=selection,
        seeds=seeds,
        cache_dir=_resolve(base, doc.get("cache_dir")),
        adaptation=adaptation,
        eval_split=eval_split,
    )
