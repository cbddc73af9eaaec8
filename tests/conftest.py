import logging
import sys
from pathlib import Path

import pytest

from langselect.corpus import Dataset, Example

sys.path.insert(0, str(Path(__file__).parent))

# Expected sampling-shortfall warnings from capped subsampling flood the
# output otherwise; failures still surface through assertions.
logging.getLogger("langselect").setLevel(logging.ERROR)

# The characters besides LF and CR that str.splitlines() ends a line at.
# Any of them can occur inside a tweet, and none ends a line in a data file.
BOUNDARY_CHARS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
BOUNDARY_IDS = ["U+2028", "U+2029", "U+0085", "VT", "FF", "FS", "GS", "RS"]


@pytest.fixture
def lang():
    return "xx"


def make_dataset(rows, code="xx", split="train", prefix="e"):
    """rows: iterable of (text, label) or (id, text, label)."""
    examples = []
    for i, row in enumerate(rows):
        if len(row) == 2:
            row = (f"{prefix}{i}", *row)
        examples.append(Example(id=row[0], text=row[1], label=row[2]))
    return Dataset(code=code, split=split, examples=tuple(examples))
