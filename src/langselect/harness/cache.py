"""Append-only score cache.

The journal is a line-oriented text file, one record per scored
experiment cell and seed:

    v1<TAB>cell_key<TAB>seed<TAB>score<TAB>support<TAB>timestamp

Scores are written with ``repr`` so they round-trip bit-for-bit. Each
record is appended as one whole line, so processes sharing a journal do
not interleave records; readers tolerate duplicates (the last record
for a (cell_key, seed) pair wins, and records are deterministic
anyway). Only newline-terminated records with all six fields load: a
record torn by a crash mid-write is skipped, not read as a shorter one.
"""
from __future__ import annotations

import logging
from datetime import datetime, timezone
from pathlib import Path

logger = logging.getLogger(__name__)

_FORMAT_TAG = "v1"
_FIELDS = 6


class ScoreCache:
    """In-memory score map backed by an optional on-disk journal."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, int], tuple[float, int]] = {}
        # Set while the journal ends in a torn record, so that the next
        # append starts on a line of its own instead of extending it.
        self._torn_tail = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        # Every complete record ends in a newline, so the last piece of
        # the split is empty unless the final record is torn.
        *records, tail = self.path.read_text(encoding="utf-8").split("\n")
        self._torn_tail = bool(tail)
        skipped = 1 if tail.strip() else 0
        for line in records:
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != _FIELDS or fields[0] != _FORMAT_TAG:
                skipped += 1
                continue
            try:
                key, seed = fields[1], int(fields[2])
                score, support = float(fields[3]), int(fields[4])
            except ValueError:
                skipped += 1
                continue
            self._entries[(key, seed)] = (score, support)
        if skipped:
            logger.warning("%s: skipped %d malformed cache lines", self.path, skipped)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cell_key: str, seed: int) -> tuple[float, int] | None:
        """Cached (score, eval support) for a cell/seed, or None."""
        return self._entries.get((cell_key, seed))

    def put(self, cell_key: str, seed: int, score: float, support: int) -> None:
        self._entries[(cell_key, seed)] = (score, support)
        if self.path is not None:
            stamp = datetime.now(timezone.utc).isoformat()
            line = f"{_FORMAT_TAG}\t{cell_key}\t{seed}\t{score!r}\t{support}\t{stamp}\n"
            if self._torn_tail:
                line, self._torn_tail = "\n" + line, False
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
