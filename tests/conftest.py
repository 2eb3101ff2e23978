"""Fixtures shared by the test modules."""

import pytest

from rsekit import lp


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the LPs that exact mode runs on the integer tableau: the
    fallbacks, and the points found on first read."""
    count = [0]

    class Counting(lp._IntTableau):
        def __init__(self, rows, basis):
            count[0] += 1
            super().__init__(rows, basis)

    monkeypatch.setattr(lp, "_IntTableau", Counting)
    return count
