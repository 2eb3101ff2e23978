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


@pytest.fixture
def dual_route(monkeypatch):
    """Counts the feasibility LPs that the float pass decides on their
    Farkas dual: each certificate ``lp._farkas_dual`` returns. ``_farkas``
    then proves it in ints, or, failing that, the integer tableau decides,
    which ``fallbacks`` counts."""
    count = [0]
    farkas_dual = lp._farkas_dual

    def counting(num_vars, rows):
        y = farkas_dual(num_vars, rows)
        count[0] += y is not None
        return y

    monkeypatch.setattr(lp, "_farkas_dual", counting)
    return count
