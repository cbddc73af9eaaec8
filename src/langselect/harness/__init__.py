"""Experiment orchestration: configs (``config``), the score journal and
facts memo (``cache``), scoring groups of cells that share one model and
the matrix runner that turns a selection plan into a score table
(``experiments``), and report generation (``report``)."""
