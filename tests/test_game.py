"""Tests for game construction, normalization, response sets, and evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsekit import game as g, lab
from rsekit.approx import gap_approx, qptas_solve
from rsekit.baseline import (induce_strategy, inducibility_gap, solve_maximin,
                             solve_sse)
from rsekit.errors import GameFormatError, InvalidStrategyError
from rsekit.exact import solve_exact
from rsekit.learning import check_br_inclusion

# Equilibrium-variants game: SSE at row 0, maximin at row 2.
VARIANTS_UL = [[1, 0.25, 0], [0.5, 0.5, 0], [0.25, 0.25, 0.25]]
VARIANTS_UF = [[0.5, 0.5, 0], [0.5, 0.5, 0], [0.5, 0.5, 0.5]]

# Existence counterexample game (raw utilities include -1 and -delta).
def existence_raw(delta):
    u_l = [[0, 0], [0, 1], [0, 0]]
    u_f = [[-1, 0], [-delta, 0], [1, 0]]
    return u_l, u_f


def strat(*p):
    return g.MixedStrategy(np.array(p, dtype=float))


def test_constructor_rejects_bad_shapes_and_ranges():
    with pytest.raises(GameFormatError):
        g.BimatrixGame(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(GameFormatError):
        g.BimatrixGame(np.array([[2.0]]), np.array([[0.0]]))
    with pytest.raises(GameFormatError):
        g.BimatrixGame(np.array([[np.nan]]), np.array([[0.0]]))


def test_strategy_validation():
    with pytest.raises(InvalidStrategyError):
        strat(0.5, 0.6)
    with pytest.raises(InvalidStrategyError):
        strat(1.5, -0.5)
    # NaN passes both range checks, so it needs a check of its own.
    for bad in ((np.nan, 1.0), (np.inf, 0.0), (0.5, np.nan)):
        with pytest.raises(InvalidStrategyError, match="non-finite"):
            strat(*bad)
    s = strat(0.25, 0.75)
    assert s.probs.sum() == 1.0


def test_normalize_shifts_negative_range():
    raw = [[-1.0, 1.0], [0.0, 0.5]]
    out = g.normalize(raw, raw)
    assert out.u_f.tolist() == [[0.0, 1.0], [0.5, 0.75]]
    assert out.meta["normalization"]["follower"] == {"scale": 0.5, "shift": 1.0}


def test_normalize_identity_when_already_unit_range():
    raw = [[0.2, 0.8], [0.0, 1.0]]
    out = g.normalize(raw, raw)
    assert out.u_l.tolist() == raw
    assert out.meta["normalization"]["leader"] == {"scale": 1.0, "shift": 0.0}


def test_normalize_constant_matrix_to_zero():
    out = g.normalize([[5.0, 5.0]], [[0.3, 0.3]])
    assert out.u_l.tolist() == [[0.0, 0.0]]
    assert out.u_f.tolist() == [[0.3, 0.3]]


def test_normalize_mismatched_shapes():
    with pytest.raises(GameFormatError):
        g.normalize([[0.0]], [[0.0, 1.0]])


def test_existence_game_normalization_preserves_br_delta():
    # Raw game spans [-1, 1] so the follower scale is 1/2 and a raw delta
    # must be halved against the normalized matrices.
    delta = 0.25
    u_l, u_f = existence_raw(delta)
    norm = g.normalize(u_l, u_f)
    assert norm.meta["normalization"]["follower"]["scale"] == 0.5

    raw_as_unit = g.BimatrixGame((np.array(u_l) + 1) / 2, (np.array(u_f) + 1) / 2)
    x = strat(0.01, 0.99, 0.0)
    got_norm = g.br_delta(norm, x, delta * 0.5)
    got_manual = g.br_delta(raw_as_unit, x, delta * 0.5)
    assert got_norm.actions == got_manual.actions == (1,)


def test_br_delta_existence_game_pins_second_column():
    delta = 0.25
    norm = g.normalize(*existence_raw(delta))
    x = strat(0.01, 0.99, 0.0)
    assert g.br_delta(norm, x, delta / 2).actions == (1,)


def test_br_delta_full_set_for_large_delta():
    game = g.BimatrixGame(np.array(VARIANTS_UL), np.array(VARIANTS_UF))
    assert g.br_delta(game, strat(0.2, 0.5, 0.3), 1.0).actions == (0, 1, 2)


def test_br_delta_on_variants_game_pure_rows():
    game = g.BimatrixGame(np.array(VARIANTS_UL), np.array(VARIANTS_UF))
    assert g.br_delta(game, strat(1, 0, 0), 0.25).actions == (0, 1)
    assert g.br_delta(game, strat(0, 0, 1), 0.25).actions == (0, 1, 2)


# One leader row, so the follower payoffs are its entries exactly: a tie at
# 1/2, a near-tie 5e-10 below it (inside ETA), one 2e-9 below (outside).
NEAR_TIE_UF = [[Fraction(1, 2), Fraction(1, 2),
                Fraction(1, 2) - Fraction(1, 2 * 10 ** 9),
                Fraction(1, 2) - Fraction(1, 5 * 10 ** 8)]]
NEAR_TIE = g.exact_game([[1, 0, 0, 0]], NEAR_TIE_UF)


def test_br_delta_zero_is_argmax_set():
    game = g.BimatrixGame(np.array(VARIANTS_UL), np.array(VARIANTS_UF))
    assert g.br_delta(game, strat(1, 0, 0), 0).actions == (0, 1)
    with pytest.raises(InvalidStrategyError):
        g.br_delta(game, strat(1, 0, 0), -0.1)
    # Float mode keeps the near-tie within ETA; exact mode keeps ties only.
    assert g.br_delta(NEAR_TIE, strat(1.0), 0).actions == (0, 1, 2)
    x = g.exact_strategy([1])
    assert g.br_delta(NEAR_TIE, x, 0, exact=True).actions == (0, 1)


@pytest.mark.parametrize("delta", [1e-10, 5e-10, 9e-10])
def test_br_delta_below_eta_is_argmax_set_within_eta(delta):
    # A float delta under ETA cannot clear the strict threshold by ETA, so
    # the set falls back to the argmax set within ETA.
    assert NEAR_TIE.u_f[0, 2] == 0.5 - 5e-10
    assert g.br_delta(NEAR_TIE, strat(1.0), delta).actions == (0, 1, 2)


def test_float_strict_rule_needs_an_eta_margin():
    # In float mode a response is strictly within delta only when it clears
    # best - delta by more than ETA.
    game = g.BimatrixGame(np.array([[1.0, 0.0]]), np.array([[0.75, 0.5]]))
    assert g.br_delta(game, strat(1.0), 0.25 + 5e-10).actions == (0,)
    assert g.br_delta(game, strat(1.0), 0.25 + 2e-9).actions == (0, 1)


def test_evaluate_variants_game_sse_and_maximin_rows():
    game = g.BimatrixGame(np.array(VARIANTS_UL), np.array(VARIANTS_UF))
    r1 = g.evaluate(game, strat(1, 0, 0), 0.25)
    assert r1.leader_value == pytest.approx(0.25)
    assert r1.response == 1
    r3 = g.evaluate(game, strat(0, 0, 1), 0.25)
    assert r3.leader_value == pytest.approx(0.25)
    assert r3.response == 0
    assert r3.response in r3.response_set


def test_evaluate_single_leader_row():
    game = g.BimatrixGame(np.array([[0.9, 0.1, 0.4]]), np.array([[0.5, 0.45, 0.0]]))
    rep = g.evaluate(game, strat(1.0), 0.2)
    assert rep.response_set.actions == (0, 1)
    assert rep.leader_value == pytest.approx(0.1)


def test_evaluate_rejects_a_strategy_of_the_wrong_length():
    game = g.exact_game(VARIANTS_UL_EXACT, VARIANTS_UF_EXACT)
    for coords in ([0, 1], [0, 1, 0, 0]):
        with pytest.raises(InvalidStrategyError, match=f"{len(coords)} entries"):
            g.evaluate(game, g.exact_strategy(coords), QUARTER, exact=True)


def test_exact_mode_matches_float_on_rational_game():
    game = g.exact_game(VARIANTS_UL_EXACT, VARIANTS_UF_EXACT)
    x = g.exact_strategy([Fraction(1, 2), Fraction(1, 2), 0])
    got = g.br_delta(game, x, Fraction(1, 4), exact=True)
    assert got.actions == g.br_delta(game, x, 0.25).actions
    rep = g.evaluate(game, x, Fraction(1, 4), exact=True)
    assert isinstance(rep.leader_value, Fraction)
    float_rep = g.evaluate(game, x, 0.25)
    assert float(rep.leader_value) == pytest.approx(float_rep.leader_value)


VARIANTS_UL_EXACT = [
    [1, Fraction(1, 4), 0],
    [Fraction(1, 2), Fraction(1, 2), 0],
    [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
]
VARIANTS_UF_EXACT = [
    [Fraction(1, 2), Fraction(1, 2), 0],
    [Fraction(1, 2), Fraction(1, 2), 0],
    [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
]


def test_exact_boundary_delta_is_excluded():
    # At delta exactly equal to the margin, the strict definition keeps the
    # trailing action out; exact arithmetic decides this without tolerances,
    # so a delta above the margin by far less than ETA lets it in.
    game = g.exact_game([[1, 0]], [[Fraction(3, 4), Fraction(1, 2)]])
    x = g.exact_strategy([1])
    assert g.br_delta(game, x, Fraction(1, 4), exact=True).actions == (0,)
    for above in (Fraction(1, 100), Fraction(1, 10 ** 12)):
        got = g.br_delta(game, x, Fraction(1, 4) + above, exact=True)
        assert got.actions == (0, 1)


games_st = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 8).map(lambda v: v / 8), min_size=n, max_size=n),
            min_size=m, max_size=m).map(
                lambda uf: g.BimatrixGame(np.full((m, n), 0.5), np.array(uf)))))


@st.composite
def game_and_strategy(draw):
    game = draw(games_st)
    w = draw(st.lists(st.integers(0, 10), min_size=game.m, max_size=game.m)
             .filter(lambda ws: sum(ws) > 0))
    probs = np.array(w, dtype=float) / sum(w)
    return game, g.MixedStrategy(probs)


@settings(max_examples=200, deadline=None)
@given(game_and_strategy(), st.floats(0, 1), st.floats(0, 1))
def test_response_sets_nest(gx, d1, d2):
    game, x = gx
    lo, hi = sorted((d1, d2))
    assert g.br_delta(game, x, lo).issubset(g.br_delta(game, x, hi))


@settings(max_examples=200, deadline=None)
@given(game_and_strategy(), st.floats(0.001, 1))
def test_plain_br_subsets_delta_br(gx, delta):
    game, x = gx
    assert g.br_delta(game, x, 0).issubset(g.br_delta(game, x, delta))


@settings(max_examples=150, deadline=None)
@given(game_and_strategy(), st.floats(0, 1), st.floats(0, 1))
def test_evaluate_nonincreasing_in_delta(gx, d1, d2):
    game, x = gx
    lo, hi = sorted((d1, d2))
    assert g.evaluate(game, x, lo).leader_value >= g.evaluate(game, x, hi).leader_value - 1e-12


@settings(max_examples=150, deadline=None)
@given(game_and_strategy(), st.floats(0.01, 0.9), st.sampled_from([0.25, 0.5, 0.75]))
def test_scale_covariance(gx, delta, a):
    game, x = gx
    scaled = g.BimatrixGame(game.u_l, a * game.u_f)
    assert g.br_delta(game, x, delta).actions == g.br_delta(scaled, x, a * delta).actions


def test_json_round_trip_bit_identical():
    game = g.exact_game(VARIANTS_UL_EXACT, VARIANTS_UF_EXACT, {"name": "variants"})
    text = g.dumps_game(game)
    back = g.loads_game(text)
    assert back == game
    assert g.dumps_game(back) == text


@pytest.mark.parametrize("meta", [
    {"exact": {}}, {"exact": {"u_l": [["0", "1"]]}},
    {"exact": {"u_l": 3, "u_f": [["1", "0"]]}},
    {"exact": {"u_l": [["0", "x"]], "u_f": [["1", "0"]]}},
    {"exact": {"u_l": [["0", "1/0"]], "u_f": [["1", "0"]]}},
    {"exact": [1]}, 5, [1]])
def test_malformed_meta_is_a_format_error(meta):
    d = {"m": 1, "n": 2, "u_l": [[0, 1]], "u_f": [[1, 0]], "meta": meta}
    with pytest.raises(GameFormatError, match="meta"):
        g.game_from_dict(d)


def test_attach_exact_uses_decimal_reading():
    game = g.BimatrixGame(np.array([[0.1, 0.3]]), np.array([[0.7, 0.9]]))
    ex = g.attach_exact(game)
    assert ex.exact_u_l == ((Fraction(1, 10), Fraction(3, 10)),)
    assert ex.exact_u_f == ((Fraction(7, 10), Fraction(9, 10)),)


def test_columns_in_both_modes():
    game = g.exact_game([[1, Fraction(1, 4)], [Fraction(1, 2), 0]],
                        [[0, 1], [Fraction(3, 4), Fraction(1, 3)]])
    cols_l, cols_f = game.columns(True)
    assert cols_l == ((1, Fraction(1, 2)), (Fraction(1, 4), 0))
    assert cols_f == ((0, Fraction(3, 4)), (1, Fraction(1, 3)))
    assert all(type(v) is Fraction for col in cols_l + cols_f for v in col)
    float_l, float_f = game.columns(False)
    assert float_l == ((1.0, 0.5), (0.25, 0.0))
    assert float_f == ((0.0, 0.75), (1.0, 1 / 3))
    assert all(type(v) is float for col in float_l + float_f for v in col)


def test_payoffs_are_python_scalars_in_both_modes():
    game = g.exact_game(VARIANTS_UL_EXACT, VARIANTS_UF_EXACT)
    x = g.exact_strategy([Fraction(1, 2), 0, Fraction(1, 2)])
    for exact, kind in ((False, float), (True, Fraction)):
        for payoffs in (g.leader_payoffs, g.follower_payoffs):
            vals = payoffs(game, x, exact=exact)
            assert isinstance(vals, list) and len(vals) == 3
            assert all(type(v) is kind for v in vals)
    assert g.strategy_from([Fraction(1, 3), Fraction(2, 3)], False).exact is None
    assert g.strategy_from(["1/3", "2/3"], True).exact == (Fraction(1, 3),
                                                         Fraction(2, 3))


FLOAT_ONLY = g.BimatrixGame(np.array(VARIANTS_UL), np.array(VARIANTS_UF))
QUARTER, TENTH = Fraction(1, 4), Fraction(1, 10)


@pytest.mark.parametrize("call", [
    pytest.param(lambda G: solve_exact(G, QUARTER, exact=True), id="solve_exact"),
    pytest.param(lambda G: solve_sse(G, exact=True), id="solve_sse"),
    pytest.param(lambda G: solve_maximin(G, exact=True), id="solve_maximin"),
    pytest.param(lambda G: inducibility_gap(G, exact=True), id="inducibility_gap"),
    pytest.param(lambda G: induce_strategy(G, 0, TENTH, exact=True),
                 id="induce_strategy"),
    pytest.param(lambda G: gap_approx(G, TENTH, exact=True), id="gap_approx"),
    pytest.param(lambda G: qptas_solve(G, QUARTER, Fraction(1, 2), exact=True),
                 id="qptas_solve"),
    pytest.param(lambda G: check_br_inclusion(
        G, G, g.pure_strategy(0, 3, exact=True), QUARTER, TENTH, exact=True),
        id="check_br_inclusion"),
])
def test_exact_mode_rejects_float_only_game(call):
    with pytest.raises(GameFormatError,
                       match="exact mode requires a game with rational matrices"):
        call(FLOAT_ONLY)


def test_exact_matrices_must_agree_with_the_float_ones():
    eye = np.array([[1.0, 0.0], [0.0, 1.0]])
    flip = [["0", "1"], ["1", "0"]]
    with pytest.raises(GameFormatError, match="exact_u_l disagrees with u_l"):
        g.BimatrixGame(eye, eye, {}, flip, flip)
    with pytest.raises(GameFormatError, match="exact_u_f disagrees with u_f"):
        g.BimatrixGame(eye, eye, {}, [["1", "0"], ["0", "1"]], flip)
    # A float that rounds its exact entry within the float tolerance is fine.
    third = g.BimatrixGame(np.array([[0.333333333333]]), np.array([[1.0]]),
                           {}, [["1/3"]], [["1"]])
    assert third.exact_u_l == ((Fraction(1, 3),),)


def test_every_library_game_passes_the_exact_agreement_check():
    games = [lab.catalog(name).game for name in lab.CATALOG_NAMES]
    games += [lab.gen_random(m, n, seed, rational_grid=q)
              for m, n, seed, q in ((2, 4, 3, 8), (3, 3, 1, 7), (4, 5, 2, 1000))]
    for k, subsets in ((1, [{1, 2, 3}]),
                       (2, [{1, 2, 3}, {4, 5, 6}, {1, 4, 5}, {2, 3, 6}])):
        instance = lab.X3CInstance(k, tuple(frozenset(s) for s in subsets))
        for delta, eps in (("3/10", "1/10"), ("1/7", "1/3")):
            games.append(lab.gen_x3c_game(instance, Fraction(delta),
                                          Fraction(eps)))
    games.append(g.attach_exact(g.BimatrixGame(np.array([[0.1, 0.7]]),
                                               np.array([[0.3, 0.9]]))))
    for game in games:
        assert game.has_exact
        assert g.loads_game(g.dumps_game(game)) == game
