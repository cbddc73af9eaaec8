import logging
import sys
from pathlib import Path

import pytest

from langselect import Dataset, Example, LanguageCode

sys.path.insert(0, str(Path(__file__).parent))

# Expected sampling-shortfall warnings from capped subsampling flood the
# output otherwise; failures still surface through assertions.
logging.getLogger("langselect").setLevel(logging.ERROR)


@pytest.fixture
def lang():
    return LanguageCode("xx", "Test-Family/Sub")


def make_dataset(rows, language=None, split="train", prefix="e"):
    """rows: iterable of (text, label) or (id, text, label)."""
    language = language or LanguageCode("xx", "Test-Family/Sub")
    examples = []
    for i, row in enumerate(rows):
        if len(row) == 2:
            row = (f"{prefix}{i}", *row)
        examples.append(Example(id=row[0], text=row[1], label=row[2]))
    return Dataset(language=language, split=split, examples=tuple(examples))
