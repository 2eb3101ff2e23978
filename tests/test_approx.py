"""Tests for the gap-combination strategy and the anchor-enumeration scheme."""

import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qptas_reference
from rsekit import approx, lab, lp
from rsekit.approx import (KUniformStrategy, build_k, gap_approx, make_region,
                           qptas_solve, utility_verification)
from rsekit.baseline import inducibility_gap, region_rows, solve_sse
from rsekit.errors import (EnumerationCapExceeded, GameFormatError, GapTooSmall,
                           InvalidStrategyError, RejectionCapExceeded)
from rsekit.exact import solve_exact
from rsekit.game import (BimatrixGame, MixedStrategy, br_delta, evaluate,
                         exact_game, leader_payoffs, scalar)


def test_k_uniform_type_checks():
    s = KUniformStrategy((1, 0, 2), 3)
    assert s.to_strategy().probs == pytest.approx((1 / 3, 0, 2 / 3))
    ex = s.to_strategy(exact=True)
    assert ex.exact == (Fraction(1, 3), 0, Fraction(2, 3))
    with pytest.raises(GameFormatError):
        KUniformStrategy((1, 1), 3)
    with pytest.raises(GameFormatError):
        KUniformStrategy((-1, 4), 3)


def test_gap_approx_continuous_game_tight_bound():
    game = lab.catalog("table4").game
    sol = gap_approx(game, Fraction(1, 2), exact=True)
    assert sol.strategy.exact == (Fraction(1, 2), 0, Fraction(1, 2))
    assert sol.value == Fraction(1, 2)
    assert sol.guarantee["floor"] == Fraction(1, 2)  # (1 - 1/2) * 1, met tight
    assert br_delta(game, sol.strategy, Fraction(1, 2), exact=True).actions == (0,)


def test_gap_approx_small_delta_approaches_sse():
    game = lab.catalog("table4").game
    sse = solve_sse(game, exact=True)
    sol = gap_approx(game, Fraction(1, 1000), exact=True)
    assert max(abs(a - b) for a, b in
               zip(sol.strategy.exact, sse.strategy.exact)) <= Fraction(1, 1000)
    assert sol.value >= sse.leader_value - Fraction(1, 1000)


def test_gap_approx_rejects_zero_gap():
    with pytest.raises(GapTooSmall):
        gap_approx(lab.catalog("table2").game, 0.6)


def test_gap_approx_single_column_game():
    import numpy as np
    from rsekit.game import BimatrixGame
    game = BimatrixGame(np.array([[0.3], [0.9]]), np.array([[0.1], [0.8]]))
    sol = gap_approx(game, 0.5)
    assert sol.value == pytest.approx(0.9)


def test_gap_approx_floor_on_random_games():
    hits = 0
    for seed in range(40):
        try:
            game = lab.gen_random(3, 3, seed, rational_grid=10,
                                  ensure_gap=0.12)
        except RejectionCapExceeded:
            continue
        gap = inducibility_gap(game, exact=True).gap
        delta = Fraction(1, 10)
        hits += 1
        sol = gap_approx(game, delta, exact=True)
        sse = solve_sse(game, exact=True).leader_value
        assert sol.value >= (1 - delta / gap) * sse
        if hits >= 12:
            break
    assert hits >= 10


def test_build_k_formula():
    t4 = lab.catalog("table4").game  # n = 2
    assert build_k(t4, 0.5) == 3     # ceil(ln 4 / 0.5)
    assert build_k(t4, 1.0) == 1     # ceil(ln 4 / 2)
    t2 = lab.catalog("table2").game  # n = 3
    assert build_k(t2, 0.5) >= build_k(t4, 0.5)
    with pytest.raises(ValueError):
        build_k(t4, 0.0)


def test_utility_verification_examples():
    game = lab.catalog("table2").game
    region = make_region(game, KUniformStrategy((0, 1, 0), 1), 1.0)
    ok, x = utility_verification(game, region, 0.25, 0.5)
    assert ok
    # Witness validity: its surrogate objective reaches mu, so the true
    # pessimistic value is within epsilon of mu.
    anchor_vals = region.anchor_payoffs
    rset = br_delta(game, x, 0.25)
    assert min(anchor_vals[j] for j in rset) >= 0.5 - 1e-9
    assert evaluate(game, x, 0.25).leader_value >= 0.5 - 1.0 - 1e-9

    ok0, w0 = utility_verification(game, region, 0.25, 0.0)
    assert ok0 and w0 is not None
    okhi, whi = utility_verification(game, region, 0.25, 1.0 + 0.5)
    assert not okhi and whi is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 5), st.integers(0, 10 ** 6),
       st.integers(1, 4), st.integers(0, 10 ** 6),
       st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
       st.sampled_from([Fraction(1, 5), Fraction(1, 2), Fraction(1)]),
       st.booleans())
def test_utility_verification_fails_at_every_higher_level(
        m, n, seed, k, pick, delta, epsilon, exact):
    # qptas binary-searches an anchor's levels, which is sound only if a
    # level that fails makes every higher level of that anchor fail too.
    game = lab.gen_random(m, n, seed, rational_grid=8)
    anchors = list(approx.compositions(k, m))
    anchor = KUniformStrategy(anchors[pick % len(anchors)], k)
    region = make_region(game, anchor, scalar(epsilon, exact), exact=exact)
    levels = sorted(set(region.anchor_payoffs))
    verified = [utility_verification(game, region, scalar(delta, exact), mu,
                                     exact=exact)[0] for mu in levels]
    failed = verified.index(False) if False in verified else len(levels)
    assert not any(verified[failed:]), (levels, verified)


def test_region_soundness_of_witnesses():
    for seed in range(10):
        game = lab.gen_random(3, 3, seed)
        k = 4
        for counts in ((4, 0, 0), (2, 1, 1), (0, 2, 2)):
            region = make_region(game, KUniformStrategy(counts, k), 0.25)
            ok, x = utility_verification(game, region, 0.2, 0.3)
            if ok:
                assert region.contains(game, x)


def test_qptas_matches_exact_on_variants_game():
    game = lab.catalog("table2").game
    sol = qptas_solve(game, 0.25, 0.3)
    exact_val = solve_exact(game, 0.25).value
    assert sol.value >= exact_val - 0.3
    assert sol.value == pytest.approx(0.5)


def test_qptas_eps_one_uses_pure_anchors():
    game = lab.catalog("table2").game
    sol = qptas_solve(game, 0.25, 1.0)
    assert sol.guarantee["k"] == 1
    assert sol.guarantee["anchors"] == 3
    assert sol.value >= solve_exact(game, 0.25).value - 1.0


def test_qptas_continuous_game():
    game = lab.catalog("table4").game
    sol = qptas_solve(game, 0.75, 0.1)
    assert sol.value >= 0.5 - 0.1
    assert sol.value == pytest.approx(0.5, abs=1e-9)


def test_qptas_guarantee_on_catalog_and_random():
    eps = 0.2
    for name in ("table2", "table3", "table4", "table5"):
        game = lab.catalog(name).game
        ref = solve_exact(game, 0.25).value
        got = qptas_solve(game, 0.25, eps).value
        assert got >= ref - eps - 1e-9
    for seed in range(6):
        game = lab.gen_random(3, 3, seed)
        ref = solve_exact(game, 0.3).value
        got = qptas_solve(game, 0.3, eps).value
        assert got >= ref - eps - 1e-9


def test_qptas_anchor_budget():
    game = lab.gen_random(4, 4, 0)
    with pytest.raises(EnumerationCapExceeded):
        qptas_solve(game, 0.25, 0.05)


def test_vertices_are_k_uniform():
    for k in (1, 3, 10):
        for m in (2, 3):
            for i in range(m):
                counts = tuple(k if j == i else 0 for j in range(m))
                v = KUniformStrategy(counts, k).to_strategy()
                assert v.probs[i] == 1.0


def test_qptas_deterministic():
    game = lab.gen_random(3, 3, 2)
    a = qptas_solve(game, 0.3, 0.4)
    b = qptas_solve(game, 0.3, 0.4)
    assert a.value == b.value
    assert np.array_equal(a.strategy.probs, b.strategy.probs)


@pytest.mark.parametrize("name, game", [
    # n = 1: the gap is infinite without an LP, so gap_approx solves one.
    ("2x1", exact_game([[1], [Fraction(1, 3)]], [[Fraction(1, 2)], [1]])),
    ("random 3x4", lab.gen_random(3, 4, 5, rational_grid=16)),
    ("table3", lab.catalog("table3").game),
])
def test_lp_count_is_the_number_of_lps_solved(monkeypatch, name, game):
    # LPs are solved one at a time by lp.solve, or a batch at a time by
    # lp.feasible_stacked.
    solved = 0
    real_solve, real_stacked = lp.solve, lp.feasible_stacked

    def counting_solve(*args, **kwargs):
        nonlocal solved
        solved += 1
        return real_solve(*args, **kwargs)

    def counting_stacked(A, relation, rhs, counts):
        nonlocal solved
        solved += len(counts)
        return real_stacked(A, relation, rhs, counts)

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(lp, "feasible_stacked", counting_stacked)
    delta = Fraction(1, 20)
    for exact in (False, True):
        for run in (lambda: solve_exact(game, delta, exact=exact),
                    lambda: gap_approx(game, delta, exact=exact),
                    lambda: qptas_solve(game, delta, Fraction(1, 2),
                                        exact=exact)):
            solved = 0
            sol = run()
            assert solved > 0
            assert sol.lp_count == solved, (name, exact, sol.method)


ONE_EVAL_GAMES = {
    "table2": lambda: lab.catalog("table2").game,
    "table3": lambda: lab.catalog("table3").game,
    "q2x4": lambda: lab.gen_random(2, 4, 3, rational_grid=8),
}
SOLVERS = {
    "solve_exact": lambda game, d, ex: solve_exact(game, d, exact=ex),
    "gap_approx": lambda game, d, ex: gap_approx(game, d, exact=ex),
    "qptas_solve": lambda game, d, ex: qptas_solve(
        game, d, scalar(Fraction(1, 2), ex), exact=ex),
}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", sorted(ONE_EVAL_GAMES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solution_outcome_is_evaluate_at_its_strategy(solver, name, exact):
    game = ONE_EVAL_GAMES[name]()
    delta = scalar(Fraction(1, 4), exact)
    gap = inducibility_gap(game, exact=exact).gap
    if solver == "gap_approx" and not gap > delta:
        with pytest.raises(GapTooSmall):
            gap_approx(game, delta, exact=exact)
        return
    sol = SOLVERS[solver](game, delta, exact)
    assert sol.outcome == evaluate(game, sol.strategy, delta, exact=exact)


@pytest.mark.parametrize("exact", [True], ids=["exact"])
def test_qptas_evaluates_each_candidate_once(monkeypatch, exact):
    # Float mode evaluates only the candidates that can win; the tests
    # below pin it to this loop.
    calls = []

    def counting_evaluate(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(approx, "evaluate", counting_evaluate)
    game = lab.gen_random(2, 4, 3, rational_grid=8)
    sol = qptas_solve(game, scalar(Fraction(1, 4), exact),
                      scalar(Fraction(1, 2), exact), exact=exact)
    # Each anchor scores its witness and itself; the winner is not rescored.
    assert len(calls) == 2 * sol.guarantee["anchors"]
    assert any(x is sol.strategy for x in calls)


def _every_candidate(self, finished, total, k):
    """Float qptas's scoring as it ran before it bounded the candidates:
    evaluate each witness and each anchor, keep the best value, the
    earliest anchor and its witness first."""
    best = None
    for i, counts, x, witness, mu in finished:
        for tie, y in enumerate((MixedStrategy(np.array(witness)),
                                 MixedStrategy(x))):
            rep = evaluate(self.game, y, self.delta)
            rank = (rep.leader_value, -i, -tie)
            if best is None or rank > best[0]:
                best = (rank, rep, counts, mu)
    return best and best[1:]


@pytest.mark.parametrize("make, epsilon", [
    (lambda: lab.gen_random(3, 6, 0), 0.2),  # q1 of the CLI benchmark
    (lambda: lab.gen_random(4, 4, 0), 0.2),  # q2
    (lambda: lab.gen_random(3, 8, 2), 0.2),
    (lambda: lab.gen_random(2, 3, 6, rational_grid=2), 0.5),  # 10 ties
    (lambda: lab.catalog("table5").game, 0.2),
    (lambda: lab.gen_random(5, 5, 3), 0.3),
    (lambda: lab.gen_random(1, 5, 2), 0.2),  # m = 1: one anchor
    (lambda: lab.gen_random(4, 1, 3), 0.2),  # n = 1: one level
], ids=["q1", "q2", "3x8", "2x3 grid-2 ties", "table5", "5x5", "m=1", "n=1"])
def test_float_qptas_equals_evaluating_every_candidate(monkeypatch, make,
                                                       epsilon):
    game = make()
    got = qptas_solve(game, 0.1, epsilon)
    monkeypatch.setattr(approx._FloatLps, "best", _every_candidate)
    want = qptas_solve(game, 0.1, epsilon)

    def key(sol):
        return (repr(sol.value), sol.strategy.probs.tobytes(),
                sol.outcome.response, sol.outcome.response_set,
                sol.guarantee["anchor_counts"],
                repr(sol.guarantee["verified_mu"]), sol.lp_count)

    assert key(got) == key(want)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("make, epsilon", [
    (lambda: lab.gen_random(2, 3, 6, rational_grid=2), 0.5),
    (lambda: lab.gen_random(3, 8, 2), 0.3),
], ids=["2x3 grid-2 ties", "3x8"])
def test_float_qptas_scores_anchors_in_blocks(monkeypatch, make, epsilon,
                                              block):
    # The best of several blocks is the best of all candidates.
    game = make()
    monkeypatch.setattr(approx, "SCORE_BLOCK", block)
    got = qptas_solve(game, 0.1, epsilon)
    monkeypatch.setattr(approx._FloatLps, "best", _every_candidate)
    want = qptas_solve(game, 0.1, epsilon)
    assert got.guarantee["anchors"] > block  # two blocks or more
    assert (got.outcome, got.guarantee) == (want.outcome, want.guarantee)


def test_float_qptas_evaluates_a_candidate_whose_bound_is_the_best_value(
        monkeypatch):
    # One follower action, so a candidate's value is its leader payoff and
    # its bound that plus the margin: anchor 1's bound is exactly anchor
    # 0's value, and anchor 2's is below it.
    b = 0.5
    a = b + approx.BOUND_MARGIN
    game = BimatrixGame(np.array([[a], [b], [0.25]]), np.full((3, 1), 0.5))
    lps = approx._FloatLps(game, 0.1, 1.0)
    assert lps.margin == approx.BOUND_MARGIN
    calls = []

    def counting_evaluate(game, x, delta):
        calls.append(x.probs.tolist())
        return evaluate(game, x, delta)

    monkeypatch.setattr(approx, "evaluate", counting_evaluate)
    pure = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    finished = [(i, c, np.array(c, dtype=float), c, 0.5)
                for i, c in enumerate(pure)]
    rep, counts, _ = lps.best(iter(finished), 3, 1)
    assert (rep.leader_value, counts) == (a, (1, 0, 0))
    # both candidates of anchors 0 and 1, none of anchor 2
    assert calls == [[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0, 0.0]] * 2


EDGE_ROWS = [
    (0.5, 0.5), (float("nan"), 1.0), (float("inf"), 0.0), (-2e-9, 1.0),
    (-1e-9, 1.0 + 1e-9), (-5e-10, 1.0 + 5e-10), (0.5, 0.5 + 1e-9),
    (0.5, 0.5 - 1e-9), (0.5, 0.5 + 1.0000001e-9), (0.5, 0.5 + 9.999999e-10),
    (0.5, 0.5 + 1e-9 - 1e-12), (0.25, 0.75 - 1.0000001e-9), (1.1, -0.1),
]


@pytest.mark.parametrize("row", EDGE_ROWS, ids=map(repr, EDGE_ROWS))
def test_float_qptas_checks_every_candidate_as_mixed_strategy_does(row):
    # A witness point passes the scoring exactly when MixedStrategy takes
    # it, and an invalid one raises the same error.
    game = BimatrixGame(np.array([[0.5, 0.25], [0.75, 1.0]]),
                        np.array([[0.5, 0.0], [0.25, 1.0]]))
    lps = approx._FloatLps(game, 0.1, 1.0)
    finished = [(0, (1, 0), np.array([1.0, 0.0]), (1.0, 0.0), 0.5),
                (1, (0, 1), np.array([0.0, 1.0]), row, 0.25)]
    try:
        MixedStrategy(np.array(row))
    except InvalidStrategyError as e:
        with pytest.raises(InvalidStrategyError, match=re.escape(str(e))):
            lps.best(iter(finished), 2, 1)
    else:
        assert lps.best(iter(finished), 2, 1) is not None


def test_float_qptas_raises_on_an_invalid_witness(monkeypatch):
    real = lp.feasible_stacked

    def bad_points(*args):
        return [lp.LpOutcome(o.status, o.solution and (math.nan,)
                             + o.solution[1:], o.objective_value)
                for o in real(*args)]

    monkeypatch.setattr(lp, "feasible_stacked", bad_points)
    with pytest.raises(InvalidStrategyError, match="non-finite"):
        qptas_solve(lab.gen_random(3, 4, 0), 0.1, 0.3)


@pytest.mark.parametrize("make, epsilon, exact", [
    # the two qptas games of the CLI benchmark, more anchors than a window
    (lambda: lab.gen_random(3, 6, 0), 0.2, False),
    (lambda: lab.gen_random(4, 4, 0), 0.2, False),
    (lambda: lab.gen_random(1, 5, 2), 0.2, False),  # m = 1: one anchor
    (lambda: lab.gen_random(4, 1, 3), 0.2, False),  # n = 1: one level
    (lambda: lab.gen_random(3, 4, 1, rational_grid=8), Fraction(1, 4), True),
    (lambda: lab.gen_random(2, 5, 4, rational_grid=8), Fraction(1, 3), True),
    # 10 candidates tie for the best value, and a later tied anchor
    # finishes its search before anchor 0 does
    (lambda: lab.gen_random(2, 3, 6, rational_grid=2), Fraction(1, 2), False),
], ids=["3x6", "4x4", "m=1", "n=1", "3x4 grid-8 exact", "2x5 grid-8 exact",
        "2x3 grid-2 ties"])
def test_qptas_matches_the_one_anchor_at_a_time_loop(make, epsilon, exact):
    game = make()
    delta = scalar(Fraction(1, 10), exact)
    got, want = (solve(game, delta, epsilon, exact=exact)
                 for solve in (qptas_solve, qptas_reference.qptas_solve))

    def key(sol):
        return (repr(sol.strategy.probs.tolist()), repr(sol.strategy.exact),
                repr(sol.value), sol.outcome.response_set,
                sol.guarantee["anchor_counts"],
                repr(sol.guarantee["verified_mu"]), sol.lp_count)

    assert key(got) == key(want)


def test_lockstep_reports_and_drops_each_search_as_it_finishes():
    # A slow first search and many fast ones behind it: each fast one is
    # reported, with its index, as soon as it returns, and is not kept
    # waiting on the slow one.
    window, total = 4, 40
    alive = weakref.WeakSet()
    finished, most_alive = [], []

    def search(i, steps):
        for step in range(steps):
            assert (yield i, step) == (i, step, "solved")
        finished.append(i)
        return f"search {i}"

    def tracked(gen):
        alive.add(gen)
        return gen

    def solve(lps):
        most_alive.append(len(alive))
        return [(*p, "solved") for p in lps]

    searches = (tracked(search(i, 60 if i == 0 else 1 + i % 3))
                for i in range(total))
    got = list(approx._lockstep(searches, solve, window))
    assert [i for i, _ in got] == finished
    assert sorted(finished) == list(range(total)) and finished[-1] == 0
    assert all(value == f"search {i}" for i, value in got)
    assert most_alive and max(most_alive) <= window, most_alive


def test_float_lps_match_the_linear_program_path():
    # Each float LP, stacked with every other LP of its game into one
    # lp.feasible_stacked call, gets the outcome lp.feasible gives the
    # LinearProgram built from the constraint rows it stands for.
    seen = dict.fromkeys(("flipped >= cell row", "|Q| = 0", "|Q| = n - 1"), 0)
    delta, epsilon, k = 0.1, 0.3, 3
    for m in range(1, 5):
        for n in range(1, 7):
            game = lab.gen_random(m, n, 10 * m + n)
            col_l, col_f = game.columns(False)
            opt, _, exclude, _ = region_rows(col_l, col_f, delta)
            lps = approx._FloatLps(game, delta, epsilon)
            got, want = [], []
            for counts in approx.compositions(k, m):
                region = make_region(game, KUniformStrategy(counts, k), epsilon)
                cell = approx._region_constraints(col_l, region, False)
                t = region.anchor_payoffs
                seen["flipped >= cell row"] += any(v - epsilon < 0 for v in t)
                for mu in sorted(set(t)):
                    _, _, Q = next(approx._scan(lps.cell(t), t, mu, False))
                    seen["|Q| = 0"] += not Q
                    seen["|Q| = n - 1"] += len(Q) == n - 1
                    for j in sorted(set(range(n)) - set(Q)):
                        got.append((lps.cell(t), j, Q))
                        want.append(lp.feasible(lp.feasibility(
                            m, cell + opt.others(j)
                            + tuple(exclude[j][q] for q in Q), simplex=True)))
            first = lp.solve_count()
            outcomes = lps.solve(got)
            assert lp.solve_count() - first == len(got)
            assert [repr(o) for o in outcomes] == [repr(o) for o in want], \
                (m, n)
    assert min(seen.values()) >= 20, seen


def test_float_qptas_builds_no_lp_object_and_no_fraction(monkeypatch):
    built = []
    for cls in (lp.LinearProgram, lp.Constraint):
        def spy(self, real=cls.__post_init__):
            built.append(type(self).__name__)
            real(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    real_new = Fraction.__new__

    def fraction_spy(cls, *args, **kwargs):
        built.append("Fraction")
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", fraction_spy)
    sol = qptas_solve(lab.gen_random(3, 6, 0), 0.1, 0.2)
    assert sol.lp_count > 0 and built == []


@pytest.mark.parametrize("m, n", [(3, 6), (4, 4)])
def test_float_qptas_chunks_stay_within_batch_doubles(monkeypatch, m, n):
    # The kernel holds two arrays of the tableau's size: the tableau and
    # its elimination buffer.
    sizes = []
    real = lp._batch_tableau

    def spy(*args):
        out = real(*args)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(lp, "_batch_tableau", spy)
    qptas_solve(lab.gen_random(m, n, 0), 0.1, 0.2)
    assert sizes and max(sizes) <= lp.BATCH_DOUBLES, max(sizes)
