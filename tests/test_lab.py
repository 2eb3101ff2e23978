"""Tests for the catalog, exact-cover generator, random games, and oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rsekit import lab
from rsekit.approx import compositions
from rsekit.baseline import inducibility_gap, solve_maximin, solve_sse
from rsekit.errors import BudgetExceeded, GameFormatError, RejectionCapExceeded
from rsekit.exact import solve_exact
from rsekit.game import (MixedStrategy, br_delta, evaluate, exact_game,
                         pure_strategy)
from rsekit.lab import X3CInstance


def test_catalog_names_materialize():
    for name in lab.CATALOG_NAMES:
        entry = lab.catalog(name)
        assert entry.game.has_exact
        assert entry.expected["delta_scale"] > 0


def test_catalog_unknown_name_and_bad_params():
    with pytest.raises(GameFormatError):
        lab.catalog("table99")
    with pytest.raises(GameFormatError):
        lab.catalog("table3", {"gap": Fraction(1, 5), "c": Fraction(2, 5)})
    with pytest.raises(GameFormatError):
        lab.catalog("table5", {"gap": Fraction(3, 5)})


def test_catalog_rejects_parameters_the_entry_does_not_take():
    with pytest.raises(GameFormatError,
                       match=r"table4 takes no parameter 'epz' \(it takes: eps\)"):
        lab.catalog("table4", {"epz": Fraction(3, 4)})
    with pytest.raises(GameFormatError, match="it takes: gap, c"):
        lab.catalog("table5", {"gap": Fraction(2, 5), "eps": Fraction(1, 2)})
    with pytest.raises(GameFormatError, match="it takes: none"):
        lab.catalog("table2", {"eps": Fraction(1, 2)})
    for name in lab.CATALOG_NAMES:  # each key an entry takes is accepted
        entry = lab.catalog(name)
        assert lab.catalog(name, entry.parameters).parameters == \
            entry.parameters


def test_catalog_self_consistency_exact_mode():
    t2 = lab.catalog("table2")
    assert solve_sse(t2.game, exact=True).leader_value == t2.expected["sse_value"]
    assert solve_maximin(t2.game, exact=True).leader_value == \
        t2.expected["maximin_value"]
    assert inducibility_gap(t2.game, exact=True).gap == t2.expected["gap"]
    assert solve_exact(t2.game, Fraction(1, 4), exact=True).value == \
        t2.expected["rse_value"]

    t4 = lab.catalog("table4")
    assert inducibility_gap(t4.game, exact=True).gap == t4.expected["gap"]
    curve = t4.expected["curve"]
    for d in (Fraction(1, 8), Fraction(5, 8), Fraction(9, 8)):
        assert solve_exact(t4.game, d, exact=True).value == curve(d)

    t5 = lab.catalog("table5")
    curve5 = t5.expected["curve"]
    for d in (Fraction(1, 20), Fraction(3, 20), Fraction(3, 10)):
        assert solve_exact(t5.game, d, exact=True).value == curve5(d)


def test_catalog_existence_game_normalization():
    entry = lab.catalog("table1", {"delta": Fraction(1, 4)})
    assert entry.expected["delta_scale"] == Fraction(1, 2)
    # Raw delta must be rescaled by the follower scale before queries.
    d_norm = Fraction(1, 4) * entry.expected["delta_scale"]
    x = pure_strategy(1, 3, exact=True)
    probe = np.array([0.01, 0.99, 0.0])
    from rsekit.game import MixedStrategy
    got = br_delta(entry.game, MixedStrategy(probe), float(d_norm))
    assert got.actions == entry.expected["br_at_interior"]


def test_catalog_learning_pair_rse_values():
    g1 = lab.catalog("table6_g1")
    assert solve_exact(g1.game, g1.parameters["delta"], exact=True).value == 1
    g2 = lab.catalog("table6_g2")
    want = g2.expected["rse_value"]
    assert solve_exact(g2.game, g2.parameters["delta"], exact=True).value == want

    h1 = lab.catalog("table7_g1")
    assert solve_exact(h1.game, h1.parameters["delta"], exact=True).value == 1
    h2 = lab.catalog("table7_g2")
    assert solve_exact(h2.game, h2.parameters["delta"], exact=True).value == \
        Fraction(1, 2)


def test_x3c_brute_check_examples():
    assert lab.x3c_brute_check(X3CInstance(1, (frozenset({1, 2, 3}),)))
    assert not lab.x3c_brute_check(
        X3CInstance(2, (frozenset({1, 2, 3}), frozenset({1, 2, 4}))))
    assert lab.x3c_brute_check(
        X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6}))))


def test_x3c_instance_validation_and_io():
    with pytest.raises(GameFormatError):
        X3CInstance(1, (frozenset({1, 2}),))
    with pytest.raises(GameFormatError):
        X3CInstance(1, (frozenset({1, 2, 5}),))
    inst = X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    text = lab.x3c_to_text(inst)
    assert lab.parse_x3c(text) == inst


def test_x3c_game_single_subset():
    inst = X3CInstance(1, (frozenset({1, 2, 3}),))
    game = lab.gen_x3c_game(inst, Fraction(3, 10), Fraction(1, 10))
    assert (game.m, game.n) == (1, 5)
    x = pure_strategy(0, 1, exact=True)
    assert br_delta(game, x, Fraction(3, 10), exact=True).actions == (0, 1)
    assert solve_exact(game, Fraction(3, 10), exact=True).value == 1
    assert game.meta["x3c"]["yes_value"] == "1"


def test_x3c_game_yes_with_decoy():
    inst = X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6}),
                           frozenset({1, 2, 4})))
    assert lab.x3c_brute_check(inst)
    game = lab.gen_x3c_game(inst, Fraction(1, 10), Fraction(1, 10))
    assert solve_exact(game, Fraction(1, 10), exact=True).value == Fraction(1, 2)


def test_x3c_game_no_instance_bounded():
    inst = X3CInstance(2, (frozenset({1, 2, 3}), frozenset({1, 2, 4})))
    assert not lab.x3c_brute_check(inst)
    game = lab.gen_x3c_game(inst, Fraction(1, 10), Fraction(1, 10))
    value = solve_exact(game, Fraction(1, 10), exact=True).value
    assert value <= (1 + Fraction(1, 10)) / 4


def test_x3c_lambda_recorded():
    inst = X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    game = lab.gen_x3c_game(inst, Fraction(1, 10), Fraction(1, 10))
    # lambda = eps / (6 m k^2) = (1/10) / 48
    assert Fraction(game.meta["x3c"]["lambda"]) == Fraction(1, 480)


def test_gen_random_determinism_and_grid():
    a = lab.gen_random(3, 4, 7)
    b = lab.gen_random(3, 4, 7)
    assert a == b
    g = lab.gen_random(3, 3, 1, rational_grid=100)
    assert g.has_exact
    assert all(v.denominator in (1, 2, 4, 5, 10, 20, 25, 50, 100)
               for row in g.exact_u_f for v in row)


@pytest.mark.parametrize("q", [0, -3])
def test_gen_random_rejects_rational_grid_below_one(q):
    with pytest.raises(GameFormatError, match="rational_grid"):
        lab.gen_random(2, 3, 1, rational_grid=q)


def test_gen_random_gap_constraint():
    g = lab.gen_random(3, 2, 3, ensure_gap=0.1)
    assert inducibility_gap(g).gap > 0.1
    with pytest.raises(RejectionCapExceeded):
        lab.gen_random(1, 4, 0, ensure_gap=0.9)


def test_grid_oracle_variants_game():
    game = lab.catalog("table2").game
    rep = lab.grid_oracle(game, 0.25, 10)
    assert rep.leader_value == pytest.approx(0.5)


def test_grid_oracle_continuous_game():
    game = lab.catalog("table4").game
    rep = lab.grid_oracle(game, 0.25, 20)
    assert rep.leader_value == pytest.approx(1.0)


def test_grid_oracle_resolution_one_is_pure_scan():
    game = lab.gen_random(3, 3, 11)
    rep = lab.grid_oracle(game, 0.3, 1)
    best_pure = max(
        evaluate(game, pure_strategy(i, 3), 0.3).leader_value for i in range(3))
    assert rep.leader_value == pytest.approx(best_pure)


def test_grid_oracle_monotone_under_doubling():
    for seed in range(10):
        game = lab.gen_random(3, 3, seed)
        coarse = lab.grid_oracle(game, 0.2, 25).leader_value
        fine = lab.grid_oracle(game, 0.2, 50).leader_value
        assert fine >= coarse - 1e-12


def test_grid_oracle_budget_guards():
    with pytest.raises(BudgetExceeded):
        lab.grid_oracle(lab.gen_random(5, 2, 0), 0.1, 10)
    with pytest.raises(BudgetExceeded):
        lab.grid_oracle(lab.gen_random(2, 2, 0), 0.1, 500)


def _lattice_maximizers(game, delta, resolution):
    """Best value and every maximizing lattice point, one evaluate() each."""
    best, argmax = -math.inf, []
    for counts in compositions(resolution, game.m):
        x = MixedStrategy(np.array(counts, dtype=np.float64) / resolution)
        v = evaluate(game, x, delta).leader_value
        if v > best:
            best, argmax = v, [counts]
        elif v == best:
            argmax.append(counts)
    return best, argmax


# Quarter entries on an 8-step lattice: every payoff is exact in float. At
# delta 3/8, (2,4,2), (5,2,1) and (8,0,0) tie exactly, the first must be
# reported, and some responses sit exactly delta below the best, where the
# strict rule excludes them.
TIED_GAME = exact_game(
    [[Fraction(v, 4) for v in row] for row in
     ([2, 2, 2, 1], [4, 1, 3, 1], [2, 4, 0, 3])],
    [[Fraction(v, 4) for v in row] for row in
     ([2, 3, 3, 1], [3, 3, 2, 0], [3, 0, 4, 4])])


@pytest.mark.parametrize("game, delta, resolution, tied", [
    *((lab.gen_random(3, 4, seed), 0.2, 30, False) for seed in range(4)),
    (TIED_GAME, 0.375, 8, True),
])
def test_grid_oracle_matches_python_loop(game, delta, resolution, tied):
    rep = lab.grid_oracle(game, delta, resolution)
    value, argmax = _lattice_maximizers(game, delta, resolution)
    assert (len(argmax) > 1) == tied
    assert rep.leader_value == value
    assert list(rep.strategy.probs) == list(np.array(argmax[0]) / resolution)


def test_compositions_enumeration():
    got = list(compositions(2, 3))
    assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0),
                   (2, 0, 0)]
    assert len(got) == math.comb(2 + 3 - 1, 3 - 1)
    assert list(compositions(5, 1)) == [(5,)]
