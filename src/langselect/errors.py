"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: data-shaped problems (corpus files,
metric inputs) exit 2, experiment failures (training, selection, matrix
runs) exit 3, usage errors exit 1.
"""


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
    """Invalid vote pools or mismatched prediction files."""


class HarnessError(LangselectError):
    """Experiment orchestration failures: bad specs, missing data, cell errors."""
