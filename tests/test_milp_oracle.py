"""The region search against an independent big-M MILP (``milp_oracle``).

The every-tuple sweep of ``region_sweep.py`` is the reference for small
games only; here HiGHS's branch and bound checks the robust value of random
grid games from 3x12 to 4x16, of the k = 4 and k = 5 exact-cover rungs and
of catalog games whose optimum sits on a delta tie, in both modes, and of
off-grid random games, which have no exact matrices, in float mode. HiGHS
works in doubles, so the values must agree within ``TOL``; on these games
they agree within 2e-13.
"""

import random
from fractions import Fraction

import pytest

from rsekit import lab
from rsekit.exact import solve_exact
from rsekit.game import follower_payoffs

pytest.importorskip("scipy.optimize")
import milp_oracle  # noqa: E402  (after the scipy check)

TOL = 1e-9
DELTA = Fraction(1, 10)


def x3c_rung(k, yes):
    """The exact-cover game of k triples over 1..3k: the disjoint triples
    {1, 2, 3}, {4, 5, 6}, ... for a yes-instance, else k random triples
    drawn from ``random.Random(1)``."""
    if yes:
        subsets = [{3 * i + 1, 3 * i + 2, 3 * i + 3} for i in range(k)]
    else:
        rng = random.Random(1)
        subsets = [set(rng.sample(range(1, 3 * k + 1), 3)) for _ in range(k)]
    inst = lab.X3CInstance(k, tuple(map(frozenset, subsets)))
    assert lab.x3c_brute_check(inst) == yes
    return lab.gen_x3c_game(inst, DELTA, DELTA)


def _agree(game, delta=DELTA):
    want = milp_oracle.milp_value(game, delta)
    exact = solve_exact(game, delta, exact=True, cap=24)
    floats = solve_exact(game, float(delta), cap=24)
    assert type(exact.value) is Fraction
    assert abs(float(exact.value) - want) <= TOL, (exact.value, want)
    assert abs(floats.value - want) <= TOL, (floats.value, want)
    return exact


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m, n", [(3, 12), (3, 14), (3, 16), (3, 18),
                                  (3, 20), (4, 14), (4, 16)])
def test_grid_games_agree_with_the_milp(m, n, seed):
    _agree(lab.gen_random(m, n, seed, rational_grid=64))


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("yes", [True, False])
def test_x3c_rungs_agree_with_the_milp(k, yes):
    sol = _agree(x3c_rung(k, yes))
    if yes:
        assert sol.value == Fraction(1, k)


# (catalog game, delta, the follower action exactly delta below the best at
# the exact optimum)
DELTA_TIES = [("table3", Fraction(1, 10), 1), ("table5", Fraction(1, 4), 0),
              ("table2", Fraction(1, 2), 2), ("table4", Fraction(1, 2), 1)]


@pytest.mark.parametrize("name, delta, k", DELTA_TIES)
def test_optima_on_a_delta_tie_agree_with_the_milp(name, delta, k):
    """The strict rule leaves action k out of the response set, while the
    MILP's z_k = 0 row allows the tie, ``u_f(k).x <= v - delta``: both
    give the same value."""
    game = lab.catalog(name).game
    sol = _agree(game, delta)
    payoffs = follower_payoffs(game, sol.strategy, exact=True)
    assert max(payoffs) - payoffs[k] == delta
    assert k not in sol.outcome.response_set


@pytest.mark.parametrize("m, n", [(3, 12), (3, 16), (3, 18), (3, 20),
                                  (4, 16)])
def test_off_grid_float_games_agree_with_the_milp(m, n):
    """Float mode searches the rational reading of the doubles (each one's
    shortest decimal), whose denominators are large."""
    game = lab.gen_random(m, n, 1)
    assert not game.has_exact
    want = milp_oracle.milp_value(game, DELTA)
    got = solve_exact(game, float(DELTA), cap=24).value
    assert abs(got - want) <= TOL, (got, want)
