"""Append-only journals in the cache directory: the score cache and the
split facts memo.

Both are line-oriented files of tab-separated records, each led by a
format tag. The score journal holds one record per scored experiment
cell and seed:

    v1<TAB>cell_key<TAB>seed<TAB>score<TAB>support<TAB>timestamp

The facts journal holds one record per loaded split file (see
``FactsMemo``):

    v1<TAB>loader_version<TAB>loader<TAB>raw_sha256<TAB>digest<TAB>rows

Scores are written with ``repr`` so they round-trip bit-for-bit. Each
record is appended as one whole line, so processes sharing a journal do
not interleave records; readers tolerate duplicates (the last record
for a key wins, and records are deterministic anyway). Only
newline-terminated UTF-8 records with all their fields load: a record
torn by a crash mid-write, or holding bytes that are not UTF-8, is
skipped, not read as a shorter one, and so is a score record whose score
is not in [0, 1] or whose support is below 1. The next append ends a torn
record's line and follows it with a marker line, so later loads skip
that record without warning again.
"""
from __future__ import annotations

import logging
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)

_FORMAT_TAG = "v1"
# The line after a torn record, written by the append that ends it.
_TORN_MARK = b"# torn record above"


class Journal:
    """One append-only journal file of ``width`` tab-separated fields per
    line, the first of them the format tag. Without a path it keeps
    nothing: it loads no records and drops every append."""

    def __init__(self, path: str | Path | None, width: int):
        self.path = None if path is None else Path(path)
        self.width = width
        # Set while the file ends in a torn record, so that the next
        # append starts on a line of its own instead of extending it.
        self._torn_tail = False

    def load(self, parse: Callable[[list[str]], None]) -> None:
        """Call ``parse`` with the fields after the tag of every complete
        record, in file order. Torn, undecodable and foreign lines, and
        lines ``parse`` rejects with ``ValueError``, are skipped and
        counted in one warning; a torn record that an append has since
        marked is skipped silently, even if it holds every field."""
        if self.path is None or not self.path.exists():
            return
        # Every complete record ends in a newline, so the last piece of
        # the split is empty unless the final record is torn.
        *records, tail = self.path.read_bytes().split(b"\n")
        self._torn_tail = bool(tail)
        skipped = 1 if tail.strip() else 0
        for raw, after in zip(records, [*records[1:], tail]):
            # A marked tear was counted by the load that found it.
            if not raw.strip() or raw == _TORN_MARK or after == _TORN_MARK:
                continue
            try:
                fields = raw.decode("utf-8").split("\t")
                if len(fields) != self.width or fields[0] != _FORMAT_TAG:
                    raise ValueError(raw)
                parse(fields[1:])
            except ValueError:  # UnicodeDecodeError is one
                skipped += 1
        if skipped:
            logger.warning("%s: skipped %d malformed cache lines", self.path, skipped)

    def append(self, *fields: object) -> None:
        if self.path is None:
            return
        line = "\t".join([_FORMAT_TAG, *map(str, fields)]) + "\n"
        if self._torn_tail:
            line, self._torn_tail = f"\n{_TORN_MARK.decode()}\n{line}", False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line)


class ScoreCache:
    """In-memory score map backed by an optional on-disk journal."""

    def __init__(self, path: str | Path | None = None):
        self._entries: dict[tuple[str, int], tuple[float, int]] = {}
        self._journal = Journal(path, 6)
        self._journal.load(self._parse)

    def _parse(self, fields: list[str]) -> None:
        # A weighted F1 lies in [0, 1] and is scored on at least one row;
        # a record that says otherwise is skipped and its cell retrains.
        key, seed, score, support, _ = fields
        value, count = float(score), int(support)
        if not 0.0 <= value <= 1.0 or count < 1:
            raise ValueError(fields)
        self._entries[(key, int(seed))] = (value, count)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cell_key: str, seed: int) -> tuple[float, int] | None:
        """Cached (score, eval support) for a cell/seed, or None."""
        return self._entries.get((cell_key, seed))

    def put(self, cell_key: str, seed: int, score: float, support: int) -> None:
        self._entries[(cell_key, seed)] = (score, support)
        stamp = datetime.now(timezone.utc).isoformat()
        self._journal.append(cell_key, seed, repr(score), support, stamp)


class FactsMemo:
    """Facts of split files, remembered across runs: (content digest, row
    count) by (loader version, loader, sha256 of the raw file bytes).

    The loaders are deterministic, so the same bytes always load the same
    rows for one ``corpus.LOADER_VERSION``; a store that finds a file's
    facts here need not parse the file until a cell reads its rows.
    Records of other versions load but are never recalled. Without a
    path the memo lives in memory only: it starts empty and writes no
    file.
    """

    def __init__(self, path: str | Path | None = None):
        self._facts: dict[tuple[str, str, str], tuple[str, int]] = {}
        self._journal = Journal(path, 6)
        self._journal.load(self._parse)

    def _parse(self, fields: list[str]) -> None:
        version, loader, raw, digest, rows = fields
        self._facts[(version, loader, raw)] = (digest, int(rows))

    def get(self, version: int, loader: str, raw: str) -> tuple[str, int] | None:
        return self._facts.get((str(version), loader, raw))

    def put(self, version: int, loader: str, raw: str, facts: tuple[str, int]) -> None:
        self._facts[(str(version), loader, raw)] = facts
        self._journal.append(version, loader, raw, *facts)
