"""Source-language selection harness for low-resource text classification.

Ingests per-language sentiment data, trains a deterministic hashed
n-gram classifier with a two-phase adaptation contract, evaluates with
weighted F1, and runs forward/backward source-language selection with
caching, seed averaging, majority-vote ensembling and report generation.

Each name is imported from its home module (``langselect.corpus``,
``langselect.textmodel``, ``langselect.harness.experiments``, ...);
this package re-exports nothing, so importing it imports no submodule.
"""
__version__ = "0.1.0"
