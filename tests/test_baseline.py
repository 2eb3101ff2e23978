"""Tests for SSE, maximin, inducibility gap, and inducing strategies."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from rsekit import baseline, lab
from rsekit.approx import gap_approx
from rsekit.errors import GapTooSmall
from rsekit.game import (BimatrixGame, br_delta, decimal_fraction, evaluate,
                         leader_payoffs, rational_reading)


@pytest.fixture(scope="module")
def table2():
    return lab.catalog("table2").game


@pytest.fixture(scope="module")
def table4():
    return lab.catalog("table4").game


def test_sse_variants_game(table2):
    rep = baseline.solve_sse(table2, exact=True)
    assert rep.leader_value == 1
    assert rep.response == 0
    assert rep.strategy.exact == (1, 0, 0)
    assert rep.tie_breaking == "optimistic"


def test_sse_continuous_game(table4):
    rep = baseline.solve_sse(table4, exact=True)
    assert rep.leader_value == 1
    assert rep.strategy.exact == (1, 0, 0)
    assert rep.response == 0
    # Independent check: the lattice oracle at a tiny delta agrees because
    # the best response at the optimum is unique.
    oracle = lab.grid_oracle(table4, 1e-6, 20)
    assert oracle.leader_value == pytest.approx(1.0)


def test_sse_single_cell():
    g = BimatrixGame(np.array([[0.7]]), np.array([[0.3]]))
    rep = baseline.solve_sse(g)
    assert rep.leader_value == pytest.approx(0.7)
    assert rep.response == 0


def test_maximin_variants_game(table2):
    rep = baseline.solve_maximin(table2, exact=True)
    assert rep.leader_value == Fraction(1, 4)
    assert rep.strategy.exact == (0, 0, 1)


def test_maximin_all_ones_row():
    g = BimatrixGame(np.array([[1.0, 1.0], [0.2, 0.9]]),
                     np.array([[0.5, 0.5], [0.5, 0.5]]))
    rep = baseline.solve_maximin(g)
    assert rep.leader_value == pytest.approx(1.0)
    assert rep.strategy.probs == pytest.approx((1.0, 0.0))


def test_maximin_symmetric_two_by_two():
    g = BimatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]),
                     np.array([[0.5, 0.5], [0.5, 0.5]]))
    rep = baseline.solve_maximin(g)
    assert rep.leader_value == pytest.approx(0.5)
    assert rep.strategy.probs == pytest.approx((0.5, 0.5))


def test_gap_continuous_game_is_one(table4):
    assert baseline.inducibility_gap(table4, exact=True).gap == 1


def test_gap_tie_break_game_lands_on_pure_rows():
    entry = lab.catalog("table3", {"gap": Fraction(2, 5), "c": Fraction(1, 5)})
    rep = baseline.inducibility_gap(entry.game, exact=True)
    assert rep.gap == Fraction(2, 5)
    assert rep.per_action[0].strategy.exact == (1, 0, 0)
    assert rep.per_action[1].strategy.exact == (0, 0, 1)
    # Lattice oracle for the margin: the LP maximum must dominate every
    # lattice margin and match it on the lattice optimum.
    uf = entry.game.u_f
    best = -np.inf
    for a in range(21):
        for b in range(21 - a):
            x = np.array([a, b, 20 - a - b]) / 20
            v = x @ uf
            best = max(best, v[0] - v[1])
    assert float(rep.per_action[0].margin) == pytest.approx(best)


def test_gap_zero_when_columns_tie(table2):
    assert baseline.inducibility_gap(table2, exact=True).gap == 0


def test_gap_single_column_sentinel():
    g = BimatrixGame(np.array([[0.2], [0.9]]), np.array([[0.1], [0.4]]))
    rep = baseline.inducibility_gap(g)
    assert rep.gap == math.inf


def test_gap_can_be_negative_for_dominated_column():
    # Second column strictly dominated by 0.3 everywhere.
    g = BimatrixGame(np.array([[0.5, 0.5], [0.5, 0.5]]),
                     np.array([[0.8, 0.5], [0.9, 0.6]]))
    rep = baseline.inducibility_gap(g)
    assert rep.gap == pytest.approx(-0.3)


def test_induce_strategy_unique_vertex(table4):
    x = baseline.induce_strategy(table4, 0, Fraction(1), exact=True)
    assert x.exact == (0, 0, 1)


def test_induce_strategy_slack_margin_maximizes_leader(table4):
    x = baseline.induce_strategy(table4, 0, Fraction(-1), exact=True)
    assert x.exact == (1, 0, 0)  # unconstrained leader optimum for column 0


def test_induce_strategy_tie_break_game():
    entry = lab.catalog("table3", {"gap": Fraction(2, 5), "c": Fraction(1, 5)})
    x = baseline.induce_strategy(entry.game, 1, Fraction(2, 5), exact=True)
    # The margin constraint collapses the feasible set to the single vertex.
    assert x.exact == (0, 0, 1)


def test_induce_strategy_infeasible_margin(table2):
    with pytest.raises(GapTooSmall):
        baseline.induce_strategy(table2, 0, 0.5)


def test_sandwich_maximin_below_sse():
    for seed in range(30):
        g = lab.gen_random(3, 3, seed)
        mm = baseline.solve_maximin(g).leader_value
        sse = baseline.solve_sse(g).leader_value
        assert mm <= sse + 1e-9


def test_per_action_margins_recompute():
    for seed in range(20):
        g = lab.gen_random(3, 4, seed)
        rep = baseline.inducibility_gap(g)
        assert rep.gap == min(a.margin for a in rep.per_action)
        for j, act in enumerate(rep.per_action):
            uf = act.strategy.probs @ g.u_f
            margin = min(uf[j] - uf[k] for k in range(g.n) if k != j)
            assert act.margin == pytest.approx(margin, abs=1e-8)


def test_induced_strategy_pins_response_set():
    for seed in range(20):
        g = lab.gen_random(3, 3, seed, rational_grid=16)
        rep = baseline.inducibility_gap(g, exact=True)
        for j, act in enumerate(rep.per_action):
            if act.margin <= 0:
                continue
            x = baseline.induce_strategy(g, j, act.margin, exact=True)
            delta = act.margin * Fraction(9, 10)
            assert br_delta(g, x, delta, exact=True).actions == (j,)


@functools.cache
def _float_games():
    """Every catalog game, float random games from 2x3 to 4x6 (seed 1 of
    3x3 and the 3x4 draw of seed 5 with a gap above 0.1 tie in maximin's
    exact leader payoffs), an off-grid 3x20 game, and m = 1 and n = 1."""
    games = {name: lab.catalog(name).game for name in lab.CATALOG_NAMES}
    for m in range(2, 5):
        for n in range(3, 7):
            games[f"{m}x{n}"] = lab.gen_random(m, n, m * n)
    games["3x3 seed 1"] = lab.gen_random(3, 3, 1)
    games["3x4 gap"] = lab.gen_random(3, 4, 5, ensure_gap=0.1)
    games["3x20"] = lab.gen_random(3, 20, 1)
    games["1x4"] = lab.gen_random(1, 4, 2)
    games["3x1"] = lab.gen_random(3, 1, 2)
    return games


def _report(rep):
    """A value report with each number as a float, to compare by repr."""
    return repr((rep.strategy.probs.tolist(), rep.response,
                 rep.response_set.actions, float(rep.leader_value),
                 rep.tie_breaking))


@pytest.mark.parametrize("name", sorted(_float_games()))
def test_float_answers_are_floats_of_the_exact_answers(name):
    """Float mode solves the rational reading exactly: each float answer
    is ``float()`` of the exact answer, response and tie-break included."""
    game = _float_games()[name]
    rational = rational_reading(game)
    for solve in (baseline.solve_sse, baseline.solve_maximin):
        assert _report(solve(game)) == _report(solve(rational, exact=True))

    got, want = (baseline.inducibility_gap(game),
                 baseline.inducibility_gap(rational, exact=True))
    assert repr(got.gap) == repr(float(want.gap))
    assert len(got.per_action) == len(want.per_action)
    for a, b in zip(got.per_action, want.per_action):
        assert repr(a.margin) == repr(float(b.margin))
        assert a.strategy.probs.tolist() == b.strategy.probs.tolist()

    if game.n > 1:
        for j, b in enumerate(want.per_action):
            for margin in (float(b.margin) - 0.01, float(b.margin) / 2):
                if margin > b.margin:
                    continue
                x = baseline.induce_strategy(game, j, margin)
                y = baseline.induce_strategy(rational, j,
                                             decimal_fraction(margin),
                                             exact=True)
                assert x.probs.tolist() == y.probs.tolist() and x.exact is None
            with pytest.raises(GapTooSmall):
                baseline.induce_strategy(game, j, float(b.margin) + 0.01)

    delta = round(float(want.gap) / 2, 3) if 0.002 < want.gap < math.inf \
        else 0.05
    try:
        exact_sol = gap_approx(rational, decimal_fraction(delta), exact=True)
    except GapTooSmall as e:
        with pytest.raises(GapTooSmall) as got_error:
            gap_approx(game, delta)
        assert str(got_error.value) == (
            f"inducibility gap {float(want.gap)} must exceed delta {delta}")
        assert str(e).startswith(f"inducibility gap {want.gap} ")
        return
    sol = gap_approx(game, delta)
    assert sol.strategy.probs.tolist() == exact_sol.strategy.probs.tolist()
    assert sol.outcome == evaluate(game, sol.strategy, delta)
    assert sol.outcome.response == exact_sol.outcome.response
    assert sol.lp_count == exact_sol.lp_count
    assert repr(sol.guarantee) == repr({
        k: v if isinstance(v, str) or math.isinf(v) else float(v)
        for k, v in exact_sol.guarantee.items()})


@pytest.mark.parametrize("name", ["3x3 seed 1", "3x4 gap"])
def test_float_maximin_response_is_the_exact_tie_break(name):
    # The exact leader payoffs tie at the maximin point, and float payoffs
    # one ulp apart used to pick the later action.
    game = _float_games()[name]
    want = baseline.solve_maximin(rational_reading(game), exact=True)
    leads = leader_payoffs(rational_reading(game), want.strategy, exact=True)
    tied = [j for j, v in enumerate(leads) if v == min(leads)]
    assert len(tied) > 1
    assert baseline.solve_maximin(game).response == want.response == tied[0]
