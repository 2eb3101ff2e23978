"""Tests for the region-enumeration solver and the value curve."""

import dataclasses
import importlib.util
import pickle
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fraction_simplex
import region_sweep
import static_filters_reference
from rsekit import exact, lab, lp
from rsekit.baseline import inducibility_gap, solve_maximin, solve_sse
from rsekit.errors import EnumerationCapExceeded, RejectionCapExceeded
from rsekit.exact import rse_curve, solve_exact
from rsekit.game import (BimatrixGame, br_delta, decimal_fraction, evaluate,
                         exact_game, exact_strategy, leader_payoffs,
                         rational_reading, scalar)


def test_variants_game_quarter_delta():
    game = lab.catalog("table2").game
    sol = solve_exact(game, Fraction(1, 4), exact=True)
    assert sol.value == Fraction(1, 2)
    assert sol.strategy.exact == (0, 1, 0)


def test_continuous_game_formula_point():
    game = lab.catalog("table4").game
    sol = solve_exact(game, Fraction(3, 4), exact=True)
    assert sol.value == Fraction(1, 2)  # (1 - 3/4) / (1 - 1/2)


def test_nonconvex_game_three_segments():
    entry = lab.catalog("table5", {"gap": Fraction(2, 5), "c": Fraction(4, 5)})
    s1 = solve_exact(entry.game, Fraction(1, 20), exact=True)
    assert s1.value == 1
    s2 = solve_exact(entry.game, Fraction(3, 20), exact=True)
    assert s2.value == Fraction(9, 10)
    assert s2.strategy.exact == (Fraction(1, 10), 0, Fraction(9, 10))
    s3 = solve_exact(entry.game, Fraction(3, 10), exact=True)
    assert s3.value == Fraction(4, 5)
    # The documented optimum (0, 1, 0) attains the same value.
    alt = evaluate(entry.game, exact_strategy([0, 1, 0]), Fraction(3, 10),
                   exact=True)
    assert alt.leader_value == Fraction(4, 5)


def test_tie_break_game_value_and_gap():
    entry = lab.catalog("table3", {"gap": Fraction(2, 5), "c": Fraction(1, 5)})
    sol = solve_exact(entry.game, Fraction(3, 10), exact=True)
    assert sol.value == Fraction(1, 5)
    lead = leader_payoffs(entry.game, sol.strategy, exact=True)
    spread = max(lead[j] for j in sol.repaired_set) - \
        min(lead[j] for j in sol.repaired_set)
    assert spread == Fraction(1, 5)  # the documented tie-breaking gap c


def test_solution_internal_invariants():
    game = lab.catalog("table2").game
    sol = solve_exact(game, Fraction(1, 4), exact=True)
    assert sol.outcome.response in sol.repaired_set
    assert sol.repaired_set.issubset(sol.chosen_tuple.S)
    lead = leader_payoffs(game, sol.strategy, exact=True)
    assert sol.value >= lead[sol.chosen_tuple.j]


def test_validity_recheck_on_random_games():
    for seed in range(40):
        game = lab.gen_random(3, 3, seed, rational_grid=8)
        delta = Fraction(1, 5)
        sol = solve_exact(game, delta, exact=True)
        rset = br_delta(game, sol.strategy, delta, exact=True)
        assert sol.outcome.response in rset
        rep = evaluate(game, sol.strategy, delta, exact=True)
        assert rep.leader_value == sol.value
        assert rset.actions == sol.repaired_set.actions


def test_sandwich_and_gap_bound_on_random_games():
    for seed in range(25):
        game = lab.gen_random(3, 3, seed, rational_grid=10)
        sse = solve_sse(game, exact=True).leader_value
        mm = solve_maximin(game, exact=True).leader_value
        gap = inducibility_gap(game, exact=True).gap
        for delta in (Fraction(1, 10), Fraction(1, 3)):
            val = solve_exact(game, delta, exact=True).value
            assert mm <= val <= sse
            if gap > delta:
                assert val >= (1 - Fraction(delta) / gap) * sse


def test_large_delta_hits_maximin():
    for seed in range(8):
        game = lab.gen_random(3, 3, seed, rational_grid=8)
        mm = solve_maximin(game, exact=True).leader_value
        assert solve_exact(game, Fraction(3, 2), exact=True).value == mm


def test_curve_monotone_and_bounded():
    game = lab.catalog("table5").game
    grid = [Fraction(i, 20) for i in range(1, 12)]
    curve = rse_curve(game, grid, exact=True)
    assert all(a >= b for a, b in zip(curve.values, curve.values[1:]))
    assert all(curve.maximin_value <= v <= curve.sse_value
               for v in curve.values)
    assert curve.gap == Fraction(2, 5)


def test_curve_matches_documented_formula():
    entry = lab.catalog("table4")
    formula = entry.expected["curve"]
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(3, 2)]
    curve = rse_curve(entry.game, grid, exact=True)
    assert list(curve.values) == [formula(d) for d in grid] == \
        [1, 1, Fraction(1, 2), 0]


def test_curve_rejects_bad_grids():
    game = lab.catalog("table2").game
    with pytest.raises(ValueError):
        rse_curve(game, [])
    with pytest.raises(ValueError):
        rse_curve(game, [0.0, 0.5])
    with pytest.raises(ValueError):
        rse_curve(game, [0.5, 0.25])


def test_lipschitz_bound_in_safe_regime():
    checked = 0
    for seed in range(30):
        try:
            game = lab.gen_random(3, 3, seed, rational_grid=10,
                                  ensure_gap=0.2)
        except RejectionCapExceeded:
            continue
        gap = inducibility_gap(game, exact=True).gap
        L = 2 / gap
        lo, hi = gap / 4, gap / 2  # both inside (0, gap - 1/L]
        v_lo = solve_exact(game, lo, exact=True).value
        v_hi = solve_exact(game, hi, exact=True).value
        assert v_lo - v_hi <= L * (hi - lo)
        checked += 1
        if checked >= 15:
            break
    assert checked >= 15


def test_two_row_games_convex_before_gap():
    checked = 0
    for seed in range(60):
        try:
            game = lab.gen_random(2, 2, seed, rational_grid=12,
                                  ensure_gap=0.15)
        except RejectionCapExceeded:
            continue
        gap = inducibility_gap(game, exact=True).gap
        grid = [gap * i / 8 for i in range(1, 8)]
        vals = [solve_exact(game, d, exact=True).value for d in grid]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert c - b >= b - a  # increments non-decreasing on a uniform grid
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5


def test_oracle_one_sided_agreement():
    for seed in range(15):
        game = lab.gen_random(3, 3, seed)
        delta = 0.2
        exact_val = solve_exact(game, delta).value
        oracle_val = lab.grid_oracle(game, delta, 60).leader_value
        assert oracle_val <= exact_val + 1e-9


def test_exhaustive_matches_pruned():
    for seed in range(10):
        game = lab.gen_random(3, 3, seed, rational_grid=8)
        fast = solve_exact(game, Fraction(1, 4), exact=True)
        full = region_sweep.sweep(game, Fraction(1, 4))
        assert fast.value == full.value
        assert fast.chosen_tuple == full.chosen_tuple
        assert fast.strategy.exact == full.strategy.exact
        assert full.lp_count >= fast.lp_count


def _x3c(*subsets):
    inst = lab.X3CInstance(2, tuple(frozenset(int(e) for e in s)
                                    for s in subsets))
    return lab.gen_x3c_game(inst, Fraction(1, 10), Fraction(1, 10))


# Games large enough that feasibility gates run and Farkas cuts skip some:
# rational random games, and an x3c yes- and no-instance (both 2x9).
CUT_GAMES = {
    **{f"4x8-{s}": (lambda s=s: lab.gen_random(4, 8, s, rational_grid=16))
       for s in range(4)},
    **{f"3x10-{s}": (lambda s=s: lab.gen_random(3, 10, s, rational_grid=16))
       for s in range(4)},
    "x3c-yes": lambda: _x3c("123", "456"),
    "x3c-no": lambda: _x3c("123", "124"),
}
# Solving every tuple costs 4608 LPs at n = 8 and 11520 at n = 9, but
# 28160 (about 30 s) at n = 10, so the 3x10 games are checked against
# the pruned solve without cuts only.
EXHAUSTIVE = ("4x8-0", "4x8-1", "4x8-2", "4x8-3", "x3c-yes", "x3c-no")


@pytest.mark.parametrize("name", list(CUT_GAMES))
def test_certificate_cuts_change_nothing(name, monkeypatch):
    game = CUT_GAMES[name]()
    delta = Fraction(1, 10) if name.startswith("x3c") else Fraction(1, 4)
    fast = solve_exact(game, delta, exact=True)
    refs = []
    if name in EXHAUSTIVE:
        refs.append(region_sweep.sweep(game, delta))
    solve = lp.solve

    def uncertified(prog):
        return dataclasses.replace(solve(prog), support=None)

    monkeypatch.setattr(lp, "solve", uncertified)
    uncut = solve_exact(game, delta, exact=True)
    for ref in refs + [uncut]:
        assert fast.value == ref.value
        assert fast.chosen_tuple == ref.chosen_tuple
        assert fast.strategy.exact == ref.strategy.exact
        assert fast.lp_count <= ref.lp_count
    if name in ("3x10-2", "x3c-yes", "x3c-no"):
        assert fast.lp_count < uncut.lp_count


def _cut_solves():
    """``(game, delta)`` for each of ``CUT_GAMES``, at the delta
    :func:`test_certificate_cuts_change_nothing` solves it with."""
    for name, make in CUT_GAMES.items():
        delta = Fraction(1, 10) if name.startswith("x3c") else Fraction(1, 4)
        yield make(), delta


def _full_gate(m, rows, S, jt):
    """The feasibility gate of ``(S, jt)`` over ``region_rows`` output
    ``rows``, holding every optimality row of jt, solved exactly."""
    opt, member, exclude, _ = rows
    n = len(member.cols)
    cons = (opt.others(jt) + tuple(member[jt][k] for k in S if k != jt)
            + tuple(exclude[jt][k] for k in range(n) if k not in S))
    return lp.feasible(lp.feasibility(m, cons, simplex=True))


def test_gates_hold_the_optimality_rows_of_S_only(monkeypatch):
    """A gate for (S, jt) holds ``opt[jt][k]`` for k in S only: the
    exclusion row of each k outside S implies the optimality row of k, so
    each gate has the status of the gate that holds every row."""
    built, gates = [], []
    region_rows, feasible = exact.region_rows, lp.feasible

    def recording_rows(col_l, col_f, d):
        built.append(region_rows(col_l, col_f, d))
        return built[-1]

    def recording_feasible(prog):
        out = feasible(prog)
        gates.append((built[-1], prog, out.status))
        return out

    monkeypatch.setattr(exact, "region_rows", recording_rows)
    monkeypatch.setattr(lp, "feasible", recording_feasible)
    for game, delta in [*_seed0_x3c_pass(), *_cut_solves()]:
        solve_exact(game, delta, exact=True)
    monkeypatch.undo()
    dropped = 0
    for rows, prog, status in gates:
        opt, member, exclude, _ = rows
        names = {}
        for kind, by_jt in (("opt", opt), ("member", member),
                            ("exclude", exclude)):
            names.update({id(row): (kind, jt, k) for jt, by_k in
                          by_jt.items() for k, row in by_k.items()})
        held = [names[id(con)] for con in prog.constraints]
        (jt,) = {jt for _, jt, _ in held}
        inside = [k for kind, _, k in held if kind == "member"]
        outside = [k for kind, _, k in held if kind == "exclude"]
        assert [k for kind, _, k in held if kind == "opt"] == inside
        S = sorted([jt, *inside])
        assert sorted(S + outside) == list(range(len(member.cols)))
        assert _full_gate(prog.num_vars, rows, S, jt).status == status
        dropped += len(outside)
    assert len(gates) > 500 and dropped > 1000, (len(gates), dropped)


def test_nogoods_skip_only_infeasible_gates(monkeypatch):
    """Every gate a Farkas nogood skips is infeasible with every optimality
    row of jt in it, though the certificate came from a gate that held
    the optimality rows of its own S only.

    The skips are seen where the search tests its nogoods, through
    ``any``: on a hit in ``solve_exact``, its frame names the gate's S and
    jt."""
    skipped = []

    def recording_any(tests):
        hit = any(tests)
        caller = sys._getframe(1)
        if hit and caller.f_code is solve_exact.__code__:
            f = caller.f_locals
            skipped.append((f["m"], f["opt"], f["member"], f["exclude"],
                            f["S"], f["jt"]))
        return hit

    monkeypatch.setattr(exact, "any", recording_any, raising=False)
    for game, delta in _cut_solves():
        solve_exact(game, delta, exact=True)
    monkeypatch.undo()
    for m, *rows, S, jt in skipped:
        assert _full_gate(m, (*rows, None), S, jt).status == "infeasible"
    assert len(skipped) > 1000, len(skipped)


def test_bound_cut_at_its_edge():
    # The optimum, 3/4, is the leader column maximum of actions 0 and 2, so
    # once it is found every later set holding either is cut: the cut is
    # "column maximum <= best". Cutting only below the best solves 82 LPs.
    game = lab.gen_random(3, 4, 8, rational_grid=4)
    delta = Fraction(1, 4)
    fast = solve_exact(game, delta, exact=True)
    ref = region_sweep.sweep(game, delta)
    col_l, _ = game.columns(True)
    assert fast.value == ref.value == Fraction(3, 4)
    assert [k for k, col in enumerate(col_l) if max(col) == fast.value] == [0, 2]
    assert fast.chosen_tuple == ref.chosen_tuple
    assert fast.strategy.exact == ref.strategy.exact
    assert fast.lp_count == 18


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 10 ** 6),
       grid=st.sampled_from([2, 3, 4, 8, 16]),
       delta=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
                              Fraction(3, 4)]))
def test_pruned_search_is_the_sweep_on_random_grid_games(m, n, seed, grid,
                                                         delta):
    """The search visits the sets that meet no capped action, resuming
    after the current set whenever the bound cut caps more; it returns
    what the every-tuple sweep returns. Its objective LPs are no more than
    the sweep's, but with its gates it may solve more: a 2x2 game whose
    one gate passes costs 8 LPs to the sweep's 6."""
    game = lab.gen_random(m, n, seed, rational_grid=grid)
    with mock.patch.object(lp, "feasible", wraps=lp.feasible) as gates:
        fast = solve_exact(game, delta, exact=True)
    full = region_sweep.sweep(game, delta)
    assert fast.value == full.value
    assert fast.chosen_tuple == full.chosen_tuple
    assert fast.strategy.exact == full.strategy.exact
    assert fast.lp_count - gates.call_count <= full.lp_count


def _search_inputs(game, delta, exact_mode):
    """The columns and delta ``solve_exact`` searches with."""
    rational = game if exact_mode else rational_reading(game)
    d = Fraction(delta) if exact_mode else decimal_fraction(delta)
    return rational.columns(True), d


def _follower_game(u_f):
    """A game with follower matrix ``u_f`` (rows are leader actions, entries
    anything ``Fraction`` reads) and a zero leader matrix."""
    return exact_game([[0] * len(u_f[0])] * len(u_f), u_f)


# Hand-built follower matrices for the filters, each with its delta.
EDGE_GAMES = [
    # u_f(0) - u_f(1) is (1/4, 1/2): its least entry is delta exactly.
    ([["3/4", "1/2"], ["1", "1/2"]], "1/4"),
    # u_f(0) - u_f(1) is (1/4, 0): its greatest entry is delta exactly,
    # and u_f(1) - u_f(0) is (-1/4, 0), which peaks at 0 exactly.
    ([["3/4", "1/2"], ["1/2", "1/2"]], "1/4"),
    # Column 2 is below column 0 in every row: it is never optimal.
    ([["1/2", "1", "1/4"], ["1/2", "0", "1/3"], ["1", "1/2", "0"]], "1/8"),
    ([["1/3"]], "1/2"),  # m = 1, n = 1
    ([["1/3", "2/3", "1", "0"]], "1/3"),  # m = 1
    ([["1/7"], ["2/11"], ["12/13"]], "1/7"),  # n = 1
    # Denominators 7, 11 and 13, and differences of exactly delta.
    ([["1/7", "3/11", "5/13", "2/7"], ["6/7", "1/11", "1/13", "3/7"],
      ["2/7", "10/11", "4/13", "5/7"]], "1/7"),
    ([["5/11", "3/11", "1/13", "7/13"], ["1/7", "4/11", "12/13", "2/13"]],
     "2/11"),
]


def _filter_games():
    """``(game, delta)``: the edge games above, and random rational games up
    to 4x12 on grids of 4, 7, 11, 13 and 77."""
    for u_f, d in EDGE_GAMES:
        yield _follower_game(u_f), Fraction(d)
    for m in range(1, 5):
        for n in range(1, 13):
            for seed, grid in enumerate((4, 7, 11, 13, 77)):
                d = Fraction(1 + (m + n + seed) % 3, grid)
                yield lab.gen_random(m, n, seed, rational_grid=grid), d


def test_static_filters_match_the_row_reference():
    # Exact mode reads the rational matrices; float mode drops them and
    # reads each double's shortest decimal, delta included.
    seen = dict.fromkeys(("no_member", "must_member", "never optimal"), 0)
    for game, d in _filter_games():
        floats = BimatrixGame(game.u_l, game.u_f)
        for g, delta, exact_mode in ((game, d, True), (floats, float(d), False)):
            (col_l, col_f), dd = _search_inputs(g, delta, exact_mode)
            got = exact._static_filters(
                exact.region_rows(col_l, col_f, dd)[1])
            want = static_filters_reference.static_filters(
                static_filters_reference.member_rows(col_f, dd), dd)
            assert got == want, (game.exact_u_f, delta, exact_mode)
            full = (1 << game.n) - 1
            seen["never optimal"] += got[0].count(full) if game.n > 1 else 0
            seen["no_member"] += sum(0 < v < full for v in got[0])
            seen["must_member"] += sum(v & ~(1 << jt) != 0
                                       for jt, v in enumerate(got[1]))
    assert min(seen.values()) >= 20, seen


def _seed0_x3c_pass():
    """The solves of the x3c-exact benchmark workload at seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    work = mod.X3cExact()
    return [(call.payload[0], mod.X3C_DELTA) for call in work.build(0)]


# (value, lp_count) of each solve of the seed-0 x3c pass.
SEED0_X3C = [(1, 2), (1, 3), (Fraction(1, 2), 7), (Fraction(1, 2), 9),
             (Fraction(1, 2), 7), (Fraction(1, 2), 12), (Fraction(1, 2), 9),
             (Fraction(1, 2), 9), (Fraction(1, 3), 18), (0, 16), (0, 13),
             (0, 17), (0, 34), (Fraction(1, 4), 64), (0, 16), (0, 16), (0, 13),
             (0, 30)]


# Integer-tableau runs of each solve of the seed-0 x3c pass: a winner whose
# optimum is proven unique from its vertex needs none.
SEED0_X3C_RUNS = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1]


def test_seed0_x3c_pass_reads_one_point_per_solve(fallbacks):
    """Each LP of the search is proven from its float basis; at most the
    winner's point is found on the integer tableau, when the solver reads
    it and its vertex is not proven to be the only optimum."""
    got, runs = [], []
    for game, delta in _seed0_x3c_pass():
        before = fallbacks[0]
        sol = solve_exact(game, delta, exact=True)
        runs.append(fallbacks[0] - before)
        got.append((sol.value, sol.lp_count))
    assert got == SEED0_X3C
    assert runs == SEED0_X3C_RUNS and sum(runs) == 8


def _search_gate(m, rows, S, jt):
    """The feasibility gate ``solve_exact`` solves for ``(S, jt)``: the
    optimality and member rows of S without jt, then the exclusion rows of
    the actions outside S."""
    opt, member, exclude, _ = rows
    inside = [k for k in S if k != jt]
    cons = (tuple(opt[jt][k] for k in inside)
            + tuple(member[jt][k] for k in inside)
            + tuple(exclude[jt][k] for k in range(len(member.cols))
                    if k not in S))
    return lp.feasibility(m, cons, simplex=True)


def _reference_status(prog):
    """The status the ``Fraction`` simplex of ``fraction_simplex`` gives."""
    return fraction_simplex.simplex(prog.num_vars, fraction_simplex.rows(prog),
                                    fraction_simplex.objective(prog), True)[0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 4), n=st.integers(2, 8), seed=st.integers(0, 10 ** 6),
       grid=st.sampled_from([2, 4, 8, 16, 64]),
       delta=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
       data=st.data())
def test_gates_are_decided_on_sparse_farkas_duals(m, n, seed, grid, delta,
                                                  data, dual_route, fallbacks):
    """Each infeasible gate is decided on its normalized Farkas dual, and
    no feasible one: the certificate names at most ``m + 1`` rows, which
    with the simplex row are infeasible under the ``Fraction`` simplex, and
    no integer tableau runs."""
    game = lab.gen_random(m, n, seed, rational_grid=grid)
    rows = exact.region_rows(*game.columns(True), delta)
    S = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2)))
    jt = data.draw(st.sampled_from(S))
    prog = _search_gate(m, rows, S, jt)
    decided, runs = dual_route[0], fallbacks[0]
    out = lp.feasible(prog)
    assert out.status == _reference_status(prog)
    assert dual_route[0] - decided == (out.status == "infeasible")
    assert fallbacks[0] == runs
    if out.status == "infeasible":
        assert 0 < len(out.support) <= m + 1
        core = lp.feasibility(m, [prog.constraints[r] for r in out.support],
                              simplex=True)
        assert _reference_status(core) == "infeasible"


# (n, value, S, j_tilde, j, lp_count, gates decided on their dual) of
# gen_random(3, n, 1, rational_grid=64) at delta 1/10.
GRID64_GAMES = [
    (18, Fraction(8607, 16000), (5, 13, 17), 17, 5, 204, 89),
    (20, Fraction(5183, 7360), (7, 16), 16, 16, 236, 123),
]


@pytest.mark.parametrize("n, value, S, jt, j, lps, decided", GRID64_GAMES)
def test_sparse_nogoods_cut_most_gates_of_grid64_games(
        n, value, S, jt, j, lps, decided, dual_route, fallbacks, monkeypatch):
    """The 3x18 and 3x20 grid-64 games, which took 4,348 and 11,097 LPs
    when gate certificates came from the phase-1 duals of the full
    tableau. Every infeasible gate is decided on its dual, and the
    winner's point is proven unique from its vertex."""
    statuses, feasible = [], lp.feasible

    def recording(prog):
        out = feasible(prog)
        statuses.append(out.status)
        return out

    monkeypatch.setattr(lp, "feasible", recording)
    game = lab.gen_random(3, n, 1, rational_grid=64)
    sol = solve_exact(game, Fraction(1, 10), exact=True, cap=24)
    tup = sol.chosen_tuple
    assert (sol.value, tup.S.actions, tup.j_tilde, tup.j, sol.lp_count) == \
        (value, S, jt, j, lps)
    assert dual_route[0] == statuses.count("infeasible") == decided
    assert fallbacks[0] == 0


def test_region_rows_are_built_only_for_the_lps_that_hold_them(monkeypatch):
    built, held = [], []
    region_rows, solve = exact.region_rows, lp.solve

    def recording_rows(col_l, col_f, d):
        rows = region_rows(col_l, col_f, d)
        built.append((col_l, col_f, d, rows))
        return rows

    def recording_solve(prog):
        held.append(prog.constraints)
        return solve(prog)

    monkeypatch.setattr(exact, "region_rows", recording_rows)
    monkeypatch.setattr(lp, "solve", recording_solve)
    for game, delta in _seed0_x3c_pass():
        solve_exact(game, delta, exact=True)
    monkeypatch.undo()
    in_lps = {id(con) for cons in held for con in cons}
    count = eager = 0
    for col_l, col_f, d, rows in built:
        n = len(col_f)
        eager += n * (n - 1) + 3 * n * n
        pairs = _row_pairs(col_l, col_f, d, rows)
        for row, _ in pairs:
            assert id(row) in in_lps
        _assert_same_rows(pairs)
        count += len(pairs)
    assert len(built) == 18 and 0 < count < eager / 2, (count, eager)


def _row_pairs(col_l, col_f, d, rows):
    """Each row ``region_rows`` has built, paired with the same row as
    ``(coeffs, relation, rhs)``, built here by ``Fraction`` subtraction.
    Optimality rows are built one (jt, k) at a time; a built
    ``opt.others(jt)`` holds the very rows ``opt[jt][k]`` over k != jt."""
    opt, member, exclude, leader = rows
    for jt, full in opt._others.items():
        others = [opt[jt][k] for k in range(len(col_f)) if k != jt]
        assert len(full) == len(others)
        assert all(a is b for a, b in zip(full, others))
    pairs = []
    for kind, cols, margin, rel in ((opt, col_f, 0, ">="),
                                    (member, col_f, d, "<="),
                                    (exclude, col_f, d, ">="),
                                    (leader, col_l, 0, "<=")):
        pairs += [(row, (tuple(Fraction(a) - Fraction(b)
                               for a, b in zip(cols[j], cols[k])),
                         rel, Fraction(margin)))
                  for j, rows in kind.items() for k, row in rows.items()]
    return pairs


def _assert_same_rows(pairs):
    """Each row equals its ``Fraction`` twin: read over its scale, as its
    integer form, which is in lowest terms, and as its float twin, to the
    last bit."""
    for row, (coeffs, rel, rhs) in pairs:
        assert fraction_simplex.row(row) == (coeffs, rel, rhs)
        ints, int_rel, int_rhs, s = row.int_row
        assert (tuple(Fraction(v, s) for v in ints), int_rel,
                Fraction(int_rhs, s)) == (coeffs, rel, rhs)
        assert gcd(s, int_rhs, *ints) == 1
        assert repr(row.float_row) == repr(
            (tuple(map(float, coeffs)), rel, float(rhs)))


def _read_every_row(col_l, col_f, d):
    """``region_rows(col_l, col_f, d)`` with every row built."""
    rows = exact.region_rows(col_l, col_f, d)
    opt, member, exclude, leader = rows
    for jt in range(len(col_f)):
        for k in range(len(col_f)):
            if k != jt:
                opt[jt][k]
            for kind in (member, exclude, leader):
                kind[jt][k]
        opt.others(jt)
    return rows


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
       seed=st.integers(0, 10 ** 6), grid=st.sampled_from([2, 7, 12, 64]),
       delta=st.fractions(Fraction(1, 1000), 1, max_denominator=1000))
def test_region_rows_in_integers_are_the_fraction_rows(shape, seed, grid,
                                                       delta):
    """In exact mode, in float mode (the game's rational reading) and in
    exact qptas, rows built in integers equal rows built by ``Fraction``
    subtraction: over their scale, as integer forms and as float twins."""
    m, n = shape
    on_grid = lab.gen_random(m, n, seed, rational_grid=grid)
    off_grid = lab.gen_random(m, n, seed)
    for cols, d in ((on_grid.columns(True), delta),
                    (rational_reading(off_grid).columns(True),
                     decimal_fraction(float(delta))),
                    (on_grid.columns(True), scalar(float(delta), True))):
        rows = _read_every_row(*cols, d)
        pairs = _row_pairs(*cols, d, rows)
        assert len(pairs) == n * (n - 1) + 3 * n * n
        _assert_same_rows(pairs)


def test_region_rows_make_no_fraction(monkeypatch):
    game = lab.gen_random(3, 5, 2, rational_grid=7)
    col_l, col_f = game.columns(True)
    delta = Fraction(1, 10)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    opt, member, exclude, leader = _read_every_row(col_l, col_f, delta)
    rows = [row for kind in (opt, member, exclude, leader)
            for by_k in kind.values() for row in by_k.values()]
    assert len(rows) == 5 * 4 + 3 * 5 * 5
    for row in rows:
        row.int_row, row.float_row
    assert made == []
    fraction_simplex.row(rows[0])  # the count sees the Fractions it makes
    assert made


def test_determinism():
    game = lab.gen_random(3, 4, 5, rational_grid=8)
    a = solve_exact(game, Fraction(1, 4), exact=True)
    b = solve_exact(game, Fraction(1, 4), exact=True)
    assert a.value == b.value
    assert a.strategy.exact == b.strategy.exact
    assert a.chosen_tuple == b.chosen_tuple


def test_enumeration_cap():
    game = lab.gen_random(2, 6, 0)
    with pytest.raises(EnumerationCapExceeded):
        solve_exact(game, 0.25, cap=5)
    with pytest.raises(ValueError):
        solve_exact(game, 0.0)


def test_float_mode_agrees_with_exact():
    for seed in range(15):
        game = lab.gen_random(3, 3, seed, rational_grid=8)
        want = solve_exact(game, Fraction(1, 4), exact=True)
        got = solve_exact(game, 0.25)
        assert got.value == pytest.approx(float(want.value), abs=1e-15)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 5), (4, 4), (2, 7)])
def test_float_mode_is_exact_mode_on_the_rational_reading(shape):
    # Off-grid float games at deltas from just above ETA up to 1/2: the
    # float answer is the exact answer of the game's rational reading.
    m, n = shape
    rng = np.random.default_rng(m * 10 + n)
    for seed in range(3):
        game = lab.gen_random(m, n, seed)
        rational = rational_reading(game)
        for delta in (1.5e-9, *np.exp(rng.uniform(np.log(1.5e-9),
                                                  np.log(0.5), 2)), 0.5):
            delta = float(delta)
            got = solve_exact(game, delta)
            want = solve_exact(rational, decimal_fraction(delta), exact=True)
            assert got.chosen_tuple == want.chosen_tuple, (shape, seed, delta)
            assert got.repaired_set == want.repaired_set, (shape, seed, delta)
            assert abs(got.value - float(want.value)) <= 1e-15
            assert got.strategy.exact is None
            assert got.strategy.probs.tolist() == [
                float(v) for v in want.strategy.exact]


@pytest.mark.parametrize("args,delta", [((2, 3, 0), 1e-10),
                                        ((3, 4, 1, 4), 1e-9)])
def test_float_mode_refuses_delta_at_lp_tolerance(args, delta):
    # At or below ETA the float response rule counts every action within
    # ETA of the best as a response, so it cannot tell the delta-optimal
    # set from the argmax set.
    m, n, seed, *grid = args
    game = lab.gen_random(m, n, seed, rational_grid=grid[0] if grid else None)
    with pytest.raises(ValueError, match="--mode exact"):
        solve_exact(game, delta)
    solve_exact(game, 1.01e-9)  # just above the floor it solves


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_results_pickle_and_carry_no_dict(exact):
    # ``--jobs`` workers send results back pickled; slotted result objects
    # keep no per-instance dict.
    game = lab.gen_random(3, 4, 2, rational_grid=8)
    delta = Fraction(1, 4) if exact else 0.25
    sol = solve_exact(game, delta, exact=exact)
    report = solve_sse(game, exact=exact)
    for obj in (sol, report):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is type(obj)
    for obj in (sol, sol.outcome, sol.strategy, sol.outcome.response_set,
                sol.chosen_tuple, report):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
