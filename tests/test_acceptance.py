"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass). Exact arithmetic wherever a criterion
demands exactness; stated wall-clock budgets are asserted.
"""

import json
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rsekit import lab
from rsekit.approx import qptas_solve
from rsekit.baseline import inducibility_gap, solve_maximin, solve_sse
from rsekit.cli import main as cli_main
from rsekit.exact import rse_curve, solve_exact
from rsekit.game import (MixedStrategy, br_delta, evaluate, exact_game,
                         exact_strategy, leader_payoffs)
from rsekit.lab import X3CInstance
from rsekit.learning import (NoisyGameOracle, rse_from_estimate,
                             sample_estimate)


def _report(n, text):
    print(f"[criterion {n}] PASS: {text}")


# -- 1. Table regressions ---------------------------------------------------

def test_criterion_1_table_regressions():
    budgets = []

    t0 = time.monotonic()
    t2 = lab.catalog("table2")
    g2 = t2.game
    sse = solve_sse(g2, exact=True)
    mm = solve_maximin(g2, exact=True)
    assert sse.leader_value == 1
    assert mm.leader_value == Fraction(1, 4)
    assert solve_exact(g2, Fraction(1, 4), exact=True).value == Fraction(1, 2)
    assert evaluate(g2, sse.strategy, Fraction(1, 4), exact=True).leader_value \
        == Fraction(1, 4)
    assert evaluate(g2, mm.strategy, Fraction(1, 4), exact=True).leader_value \
        == Fraction(1, 4)
    budgets.append(time.monotonic() - t0)

    t0 = time.monotonic()
    t4 = lab.catalog("table4", {"eps": Fraction(1, 2)})
    grid = [Fraction(i, 20) for i in range(1, 31)]  # 0.05 .. 1.50, 30 points
    curve = rse_curve(t4.game, grid, exact=True)
    formula = t4.expected["curve"]
    for d, v in zip(curve.deltas, curve.values):
        assert v == formula(d), (d, v)
    budgets.append(time.monotonic() - t0)

    t0 = time.monotonic()
    t5 = lab.catalog("table5", {"gap": Fraction(2, 5), "c": Fraction(4, 5)})
    for d, want in ((Fraction(1, 20), Fraction(1)),
                    (Fraction(3, 20), Fraction(9, 10)),
                    (Fraction(3, 10), Fraction(4, 5))):
        assert solve_exact(t5.game, d, exact=True).value == want
    budgets.append(time.monotonic() - t0)

    t0 = time.monotonic()
    t3 = lab.catalog("table3", {"gap": Fraction(2, 5), "c": Fraction(1, 5)})
    sol = solve_exact(t3.game, Fraction(3, 10), exact=True)
    lead = leader_payoffs(t3.game, sol.strategy, exact=True)
    vals = [lead[j] for j in sol.repaired_set]
    assert max(vals) - min(vals) == Fraction(1, 5)
    budgets.append(time.monotonic() - t0)

    assert all(b < 1.0 for b in budgets), budgets
    _report(1, f"table regressions exact, times {[round(b, 3) for b in budgets]}s")


# -- 2. Structural property suite -------------------------------------------

def test_criterion_2_structural_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240)
    n_games = 500
    checked_lipschitz = 0
    checked_bound = 0
    for i in range(n_games):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        game = lab.gen_random(m, n, 100_000 + i, rational_grid=8)

        # Response-set nesting at a random strategy.
        w = rng.integers(1, 5, size=m)
        x = MixedStrategy(w / w.sum())
        lo, hi = sorted((Fraction(int(rng.integers(1, 8)), 16),
                         Fraction(int(rng.integers(8, 17)), 16)))
        ex_x = exact_strategy([Fraction(int(v), int(w.sum())) for v in w])
        assert br_delta(game, ex_x, lo, exact=True).issubset(
            br_delta(game, ex_x, hi, exact=True))

        gap = inducibility_gap(game, exact=True).gap
        sse = solve_sse(game, exact=True).leader_value
        mm = solve_maximin(game, exact=True).leader_value
        if gap > Fraction(1, 100):
            d1, d2 = gap / 4, gap / 2
        else:
            d1, d2 = Fraction(1, 8), Fraction(1, 4)
        v1 = solve_exact(game, d1, exact=True).value
        v2 = solve_exact(game, d2, exact=True).value

        assert v1 >= v2                      # curve monotone
        assert mm <= v2 <= v1 <= sse         # sandwich
        for d, v in ((d1, v1), (d2, v2)):
            if gap > d:                      # value floor below the gap
                checked_bound += 1
                assert v >= (1 - d / gap) * sse
        if gap > Fraction(1, 100):
            # L = 2/gap keeps both points inside (0, gap - 1/L].
            checked_lipschitz += 1
            assert v1 - v2 <= (2 / gap) * (d2 - d1)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, elapsed
    assert checked_lipschitz >= 50
    assert checked_bound >= 100
    _report(2, f"{n_games} games, {checked_bound} bound checks, "
               f"{checked_lipschitz} Lipschitz checks, {elapsed:.1f}s")


# -- 3. Oracle agreement -----------------------------------------------------

def test_criterion_3_oracle_agreement():
    t0 = time.monotonic()
    delta = 0.1
    lipschitz_checked = 0
    for i in range(100):
        if i % 2 == 0:
            game = lab.gen_random(3, 3, 200_000 + i)
        else:
            try:
                game = lab.gen_random(3, 3, 200_000 + i, ensure_gap=0.25)
            except lab.RejectionCapExceeded:
                game = lab.gen_random(3, 3, 200_000 + i)
        exact_val = solve_exact(game, delta).value
        oracle_val = lab.grid_oracle(game, delta, 100).leader_value
        assert oracle_val <= exact_val + 1e-9
        if inducibility_gap(game).gap > 2 * delta:
            lipschitz_checked += 1
            assert exact_val - oracle_val <= 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    assert lipschitz_checked >= 30
    _report(3, f"100 games, {lipschitz_checked} in the regime, {elapsed:.1f}s")


# -- 4. QPTAS guarantee -------------------------------------------------------

def test_criterion_4_qptas_guarantee():
    t0 = time.monotonic()
    eps = 0.2
    cases = 0
    for name in lab.CATALOG_NAMES:
        entry = lab.catalog(name)
        scale = float(entry.expected["delta_scale"])
        delta = float(entry.parameters.get("delta", Fraction(1, 4))) * scale
        ref = solve_exact(entry.game, delta).value
        got = qptas_solve(entry.game, delta, eps).value
        assert got >= ref - eps - 1e-9, (name, got, ref)
        cases += 1
    for i in range(50):
        game = lab.gen_random(3, 3, 300_000 + i)
        ref = solve_exact(game, 0.25).value
        got = qptas_solve(game, 0.25, eps).value
        assert got >= ref - eps - 1e-9, (i, got, ref)
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600, elapsed
    _report(4, f"{cases} games within eps=0.2, {elapsed:.1f}s")


# -- 5. Exact-cover separation ------------------------------------------------

YES_INSTANCES = [
    X3CInstance(1, (frozenset({1, 2, 3}),)),
    X3CInstance(1, (frozenset({1, 2, 3}), frozenset({1, 2, 3}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6}),
                    frozenset({1, 2, 4}))),
    X3CInstance(2, (frozenset({1, 3, 5}), frozenset({2, 4, 6}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({4, 5, 6}),
                    frozenset({1, 4, 5}), frozenset({2, 3, 6}))),
    X3CInstance(2, (frozenset({1, 2, 6}), frozenset({3, 4, 5}),
                    frozenset({1, 2, 3}))),
    X3CInstance(2, (frozenset({1, 5, 6}), frozenset({2, 3, 4}),
                    frozenset({2, 4, 6}))),
    X3CInstance(3, (frozenset({1, 2, 3}), frozenset({4, 5, 6}),
                    frozenset({7, 8, 9}))),
    X3CInstance(3, (frozenset({1, 4, 7}), frozenset({2, 5, 8}),
                    frozenset({3, 6, 9}))),
]

NO_INSTANCES = [
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({1, 2, 4}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({1, 4, 5}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({2, 3, 4}),
                    frozenset({3, 4, 5}))),
    X3CInstance(2, (frozenset({1, 2, 3}), frozenset({3, 4, 5}),
                    frozenset({5, 6, 1}))),
    X3CInstance(2, (frozenset({1, 2, 4}), frozenset({2, 3, 5}),
                    frozenset({3, 4, 6}), frozenset({1, 5, 6}))),
    X3CInstance(2, (frozenset({1, 3, 5}), frozenset({3, 5, 6}))),
    X3CInstance(2, (frozenset({1, 2, 6}), frozenset({2, 5, 6}))),
    X3CInstance(2, (frozenset({2, 3, 4}), frozenset({4, 5, 6}))),
    X3CInstance(3, (frozenset({1, 2, 3}), frozenset({4, 5, 6}),
                    frozenset({6, 7, 8}))),
    X3CInstance(3, (frozenset({1, 2, 3}), frozenset({3, 4, 5}),
                    frozenset({5, 6, 7}), frozenset({7, 8, 9}))),
]

# The ladder's recorded answers: (value, S, j_tilde, j, lp_count) of each
# instance above, yes-instances first. A change to a Farkas support changes
# the nogood cuts, and with them the LP count, even when every value stays.
LADDER_ANSWERS = [
    (1, (0, 1), 0, 0, 2),
    (1, (0, 1), 0, 0, 3),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 7),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 9),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 7),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 12),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 9),
    (Fraction(1, 2), (0, 1, 2), 0, 0, 9),
    (Fraction(1, 3), (0, 1, 2, 3), 0, 0, 18),
    (Fraction(1, 3), (0, 1, 2, 3), 0, 0, 18),
    (0, (0, 1, 2, 7, 8), 0, 7, 16),
    (0, (0, 1, 2, 8), 0, 8, 13),
    (0, (0, 1, 3, 9), 0, 9, 17),
    (0, (0, 1, 2, 9), 0, 9, 34),
    (Fraction(1, 4), (0, 1, 2, 3, 4), 0, 1, 64),
    (0, (0, 1, 2, 4, 6), 0, 4, 16),
    (0, (0, 1, 2, 5, 6), 0, 5, 16),
    (0, (0, 1, 2, 3), 0, 3, 13),
    (0, (0, 1, 2, 3, 12), 0, 12, 30),
    (0, (0, 1, 2, 4, 10), 0, 10, 90),
]


def test_criterion_5_exact_cover_separation():
    t0 = time.monotonic()
    delta, eps = Fraction(1, 10), Fraction(1, 10)
    solved = []
    for inst in YES_INSTANCES:
        assert lab.x3c_brute_check(inst), inst
        game = lab.gen_x3c_game(inst, delta, eps)
        solved.append(solve_exact(game, delta, exact=True))
        value = solved[-1].value
        assert value == Fraction(1, inst.k), (inst, value)
    for inst in NO_INSTANCES:
        assert not lab.x3c_brute_check(inst), inst
        game = lab.gen_x3c_game(inst, delta, eps)
        solved.append(solve_exact(game, delta, exact=True))
        value = solved[-1].value
        assert value <= (1 + eps) / (2 * inst.k), (inst, value)
    for inst, sol, want in zip(YES_INSTANCES + NO_INSTANCES, solved,
                               LADDER_ANSWERS, strict=True):
        tup = sol.chosen_tuple
        got = (sol.value, tup.S.actions, tup.j_tilde, tup.j, sol.lp_count)
        assert got == want, inst
    elapsed = time.monotonic() - t0
    assert elapsed < 600, elapsed
    _report(5, f"10 yes + 10 no instances separated exactly, {elapsed:.1f}s")


# -- 6. Learning guarantee, conditional deterministic form ---------------------

def _sign_perturbations(game, eps, count, seed):
    rng = np.random.default_rng(seed)
    shape = (game.m, game.n)
    patterns = [np.ones(shape), -np.ones(shape)]
    while len(patterns) < count:
        patterns.append(rng.choice([-1.0, 1.0], size=shape))
    for p_l, p_f in zip(patterns, patterns[1:] + patterns[:1]):
        ul = [[min(max(v + int(s) * eps, Fraction(0)), Fraction(1))
               for v, s in zip(row, srow)]
              for row, srow in zip(game.exact_u_l, p_l)]
        uf = [[min(max(v + int(s) * eps, Fraction(0)), Fraction(1))
               for v, s in zip(row, srow)]
              for row, srow in zip(game.exact_u_f, p_f)]
        yield exact_game(ul, uf)


def test_criterion_6_learning_guarantee_deterministic():
    eps = Fraction(1, 32)
    delta = Fraction(1, 4)
    total = 0
    for name, seed in (("table2", 61), ("table4", 62)):
        truth = lab.catalog(name).game
        for estimate in _sign_perturbations(truth, eps, 25, seed):
            out = rse_from_estimate(truth, estimate, delta, eps, exact=True)
            assert out.true_value >= out.guarantee_floor, (name, total)
            total += 1
    assert total == 50
    _report(6, f"{total} adversarial perturbations satisfy the exact floor")


# -- 7. Learning concentration, statistical ------------------------------------

def test_criterion_7_learning_concentration():
    t0 = time.monotonic()
    truth = lab.catalog("table6_g1").game
    eps, iota = 0.1, 0.1
    runs = 200
    hits = 0
    t_seen = None
    for seed in range(runs):
        est = sample_estimate(NoisyGameOracle(truth, "bernoulli", seed),
                              eps, iota)
        t_seen = est.meta["samples_per_pair"]
        err = max(np.abs(est.u_l - truth.u_l).max(),
                  np.abs(est.u_f - truth.u_f).max())
        hits += err <= eps
    assert t_seen == 240
    rate = hits / runs
    assert rate >= 0.86, rate
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    _report(7, f"T=240, concentration rate {rate:.3f} >= 0.86, {elapsed:.1f}s")


# -- 8. Determinism -------------------------------------------------------------

def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    _, t4 = _run_cli(capsys, "gen", "--catalog", "table4")
    game = tmp_path / "t4.json"
    game.write_text(t4)
    _, rnd = _run_cli(capsys, "gen", "--random", "3,3,17")
    rgame = tmp_path / "r.json"
    rgame.write_text(rnd)

    checks = []
    for argv in (
        ("gen", "--catalog", "table4"),
        ("gen", "--random", "3,3,17"),
        ("solve", "--method", "exact", "--delta", "0.25", str(rgame)),
        ("solve", "--method", "exact", "--delta", "1/4", "--mode", "exact",
         str(game)),
        ("curve", "--grid", "0.1:1.2:0.1", str(game)),
        ("learn", "--game", str(game), "--delta", "0.1", "--epsilon", "0.2",
         "--iota", "0.2", "--noise", "bernoulli", "--seeds", "4", "--seed",
         "99"),
    ):
        code, first = _run_cli(capsys, *argv)
        assert code == 0, argv
        code, second = _run_cli(capsys, *argv)
        assert second == first, argv
        checks.append(argv[0])

    # --jobs must not change a single byte.
    _, a = _run_cli(capsys, "curve", "--grid", "0.1:1.2:0.1", "--jobs", "1",
                    str(game))
    _, b = _run_cli(capsys, "curve", "--grid", "0.1:1.2:0.1", "--jobs", "4",
                    str(game))
    assert a == b
    _, c = _run_cli(capsys, "learn", "--game", str(game), "--delta", "0.1",
                    "--epsilon", "0.2", "--iota", "0.2", "--seeds", "4",
                    "--seed", "99", "--jobs", "2")
    _, d = _run_cli(capsys, "learn", "--game", str(game), "--delta", "0.1",
                    "--epsilon", "0.2", "--iota", "0.2", "--seeds", "4",
                    "--seed", "99", "--jobs", "1")
    assert c == d
    _report(8, f"byte-identical across reruns and --jobs for {checks}")
