"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: data-shaped problems (corpus files,
metric inputs, and any ``OSError`` reading or writing a path) exit 2,
experiment failures (training, selection, matrix runs) exit 3, usage
errors exit 1.
"""
import math
from dataclasses import fields

# The value types each annotated settings field takes. An int is a valid
# float setting; a bool, though an int subclass, is only a bool setting.
_SETTING_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_setting_types(settings: object, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of the dataclass ``settings``
    whose value is not of its annotated type (``int``, ``float``, ``bool``
    or ``str``, each optionally ``| None``), or is a float that is NaN or
    infinite. Values are checked, never coerced, so every valid setting
    keeps its value and its cell key."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        kind, optional = f.type.removesuffix(" | None"), f.type.endswith(" | None")
        if value is None and optional:
            continue
        if not isinstance(value, _SETTING_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be a finite float, got {value!r}")


class LangselectError(Exception):
    """Base class for all package errors."""


class CorpusError(LangselectError):
    """Bad or inconsistent input data (files, rows, labels, splits)."""


class MetricsError(LangselectError):
    """Invalid metric inputs (length mismatch, empty matrix, bad label)."""


class TextModelError(LangselectError):
    """Learner failures: empty corpora, divergent training, bad config."""


class SelectionError(LangselectError):
    """Source-selection failures: bad settings or tasks, and score tables
    lacking a planned cell (named with its target and sources)."""


class EnsembleError(LangselectError):
    """Invalid or mismatched prediction files."""


class HarnessError(LangselectError):
    """Experiment orchestration failures: bad specs, missing data, cell errors."""
