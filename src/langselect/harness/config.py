"""Harness configuration: one YAML document declaring languages, data
paths, learner settings, selection settings, seeds, adaptation and the
cache directory. Unknown keys are errors, at the top level, in a
``languages`` entry and in ``learner`` and ``selection``; the one
exception is a top-level ``parallelism``, which ``langselect.synth``
writes and which, like the ``--parallelism`` flag, has no effect. The
top-level ``seeds`` are the only seed setting: every score of a run is
averaged over them unless ``--seed-list`` replaces them. Selection
always scores the devstar split; ``eval_split`` may only say so, and
``score --eval-split`` is the one way to score another split.

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
from ..errors import CorpusError, HarnessError, SelectionError, TextModelError
from ..selection import SelectionConfig
from ..learner_config import ADAPTATIONS, LearnerConfig

CACHE_DIR_ENV = "LANGSELECT_CACHE_DIR"

# libyaml's loader when PyYAML was built with it: it parses the same
# documents several times faster than the pure-Python one.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_KEYS = ("languages", "learner", "selection", "seeds", "adaptation", "cache_dir", "eval_split", "parallelism")
_LANGUAGE_KEYS = ("code", "family", "train", "dev", "test", "lapt_corpus")


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

    def cache_path(self) -> Path | None:
        """Score journal path, honoring the environment override."""
        return self._in_cache_dir("scores.journal")

    def facts_path(self) -> Path | None:
        """Split facts journal path, next to the score journal."""
        return self._in_cache_dir("facts.journal")

    def _in_cache_dir(self, name: str) -> Path | None:
        env = os.environ.get(CACHE_DIR_ENV)
        directory = Path(env) if env else self.cache_dir
        return None if directory is None else directory / name


def _resolve(config_path: Path, key: str, value: object) -> Path | None:
    """A path value of the config, relative to the config's directory."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise HarnessError(f"{config_path}: '{key}' must be a path string, got {value!r}")
    path = Path(value)
    return path if path.is_absolute() else config_path.parent / path


def _check_keys(config_path: Path, doc: dict, known: tuple[str, ...], where: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise HarnessError(f"{config_path}: unknown key{'s' * (len(unknown) > 1)} {names} in {where}")


def load_config(path: str | Path) -> HarnessConfig:
    """Parse and validate a YAML harness config."""
    path = Path(path)
    try:
        text = read_utf8(path)
    except CorpusError as e:
        raise HarnessError(f"config {e}") from None
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        raise HarnessError(f"{path}: invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise HarnessError(f"{path}: config must be a mapping")
    _check_keys(path, doc, _TOP_KEYS, "the config")

    raw_languages = doc.get("languages")
    if not raw_languages or not isinstance(raw_languages, list):
        raise HarnessError(f"{path}: config needs a non-empty 'languages' list")
    languages = []
    for i, entry in enumerate(raw_languages):
        if not isinstance(entry, dict) or "code" not in entry:
            raise HarnessError(f"{path}: languages[{i}] must be a mapping with a 'code'")
        _check_keys(path, entry, _LANGUAGE_KEYS, f"languages[{i}]")
        metadata = {"code": entry["code"], "family": entry.get("family", "")}
        for key, value in metadata.items():
            if not isinstance(value, str):
                raise HarnessError(f"{path}: 'languages[{i}].{key}' must be a string, got {value!r}")
        try:
            lang = LanguageCode(**metadata)
        except CorpusError as e:
            raise HarnessError(f"{path}: 'languages[{i}].code': {e}") from None
        files = {
            key: _resolve(path, f"languages[{i}].{key}", entry.get(key))
            for key in ("train", "dev", "test", "lapt_corpus")
        }
        languages.append(LanguageFiles(language=lang, **files))
    codes = [lf.language.code for lf in languages]
    if len(set(codes)) != len(codes):
        raise HarnessError(f"{path}: duplicate language codes in config")

    seeds = doc.get("seeds", [1, 2, 3, 4, 5])
    if not isinstance(seeds, list) or not all(type(s) is int for s in seeds):
        raise HarnessError(f"{path}: 'seeds' must be a list of integers, got {seeds!r}")
    seeds = tuple(seeds)
    if not seeds:
        raise HarnessError(f"{path}: 'seeds' must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise HarnessError(f"{path}: 'seeds' must be distinct, got {list(seeds)}")

    learner_doc = doc.get("learner", {})
    selection_doc = doc.get("selection", {})
    for key, value in (("learner", learner_doc), ("selection", selection_doc)):
        if not isinstance(value, dict):
            raise HarnessError(f"{path}: '{key}' must be a mapping, got {value!r}")
    if "seed" in learner_doc:
        raise HarnessError(f"{path}: 'learner.seed' is not a setting; a run's seeds come from 'seeds'")
    try:
        learner = LearnerConfig(**learner_doc)
        selection = SelectionConfig(**selection_doc)
    except (TypeError, TextModelError, SelectionError) as e:
        raise HarnessError(f"{path}: bad learner/selection settings: {e}") from None

    adaptation = doc.get("adaptation", "none")
    if not isinstance(adaptation, str) or adaptation.lower() not in ADAPTATIONS:
        raise HarnessError(f"{path}: 'adaptation' must be one of {ADAPTATIONS}, got {adaptation!r}")
    if doc.get("eval_split", "devstar") != "devstar":
        raise HarnessError(
            f"{path}: 'eval_split' must be devstar, got {doc['eval_split']!r}: selection always scores "
            "devstar; use 'score --eval-split' to score another split"
        )

    return HarnessConfig(
        languages=tuple(languages),
        learner=learner,
        selection=selection,
        seeds=seeds,
        cache_dir=_resolve(path, "cache_dir", doc.get("cache_dir")),
        adaptation=adaptation.lower(),
    )
