from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from twotrees import all_labeled_two_trees


@pytest.fixture(scope="session")
def corpus():
    """Every labelled 2-tree on base (0, 1) as a construction, in choice order, keyed by n."""
    return {n: list(all_labeled_two_trees(n)) for n in range(3, 9)}
