"""Exact robust-equilibrium computation via region-tuple LP enumeration.

For each candidate region (a response set S, the follower-optimal action
j_tilde in S, and the leader-pessimal action j in S) a relaxed LP maximizes
the leader's value while forcing S to be exactly the delta-optimal set. The
strict membership constraints are relaxed to weak ones before solving; the
winning tuple is then repaired by dropping the members whose relaxed
constraint came out tight, which restores a valid equilibrium pair.

Enumeration visits tuples ordered by (|S|, sorted S, j_tilde, j) and keeps
the first maximizer, which doubles as the deterministic tie-break. Static
infeasibility checks and an objective upper bound prune most tuples; pass
``exhaustive=True`` to disable pruning for verification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import lp
from .baseline import inducibility_gap, solve_maximin, solve_sse
from .errors import EnumerationCapExceeded, SolverFailure
from .game import (PESSIMISTIC, BimatrixGame, GameValueReport, MixedStrategy,
                   ResponseSet, br_delta, follower_payoffs, leader_payoffs,
                   scalar, strategy_from)

ENUMERATION_CAP = 16


@dataclass(frozen=True)
class RegionTuple:
    """One enumerated region: response set S plus its two pinned actions."""

    S: ResponseSet
    j_tilde: int
    j: int

    def __post_init__(self):
        if self.j_tilde not in self.S or self.j not in self.S:
            raise ValueError("j_tilde and j must belong to S")


@dataclass(frozen=True)
class RseSolution:
    """A robust-equilibrium strategy pair with its provenance.

    ``repaired_set`` is the winning tuple's S after dropping members whose
    relaxed membership constraint was tight at the optimum; it equals the
    true delta-optimal set of the returned strategy.
    """

    outcome: GameValueReport
    chosen_tuple: RegionTuple | None
    repaired_set: ResponseSet
    repaired_response: int
    lp_count: int
    wall_time: float
    method: str = "exact"
    guarantee: dict | None = None

    @property
    def value(self):
        return self.outcome.leader_value

    @property
    def strategy(self) -> MixedStrategy:
        return self.outcome.strategy


@dataclass(frozen=True)
class RseCurve:
    """Sampled robust-value curve with the classical bounds attached."""

    deltas: tuple
    values: tuple
    solutions: tuple[RseSolution, ...]
    sse_value: float | Fraction
    maximin_value: float | Fraction
    gap: float | Fraction


def solve_exact(game: BimatrixGame, delta, *, exact: bool = False,
                eta: float = 1e-9, cap: int = ENUMERATION_CAP,
                exhaustive: bool = False) -> RseSolution:
    """Compute the exact delta-robust equilibrium (delta > 0).

    Expected exponential in the follower's action count; guarded by ``cap``.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if game.n > cap:
        raise EnumerationCapExceeded(
            f"n = {game.n} exceeds the enumeration cap {cap}")
    t0 = time.perf_counter()
    col_l, col_f = game.columns(exact)
    d = scalar(delta, exact)
    m, n = game.m, game.n
    slack = 0 if exact else eta

    # Static single-row feasibility checks (necessary conditions only).
    jt_ok = [True] * n
    can_member = [[True] * n for _ in range(n)]
    can_exclude = [[True] * n for _ in range(n)]
    if not exhaustive:
        for jt in range(n):
            jt_ok[jt] = all(
                any(col_f[jt][i] >= col_f[k][i] - slack for i in range(m))
                for k in range(n))
            for k in range(n):
                diffs = [col_f[k][i] - col_f[jt][i] for i in range(m)]
                can_member[jt][k] = any(v >= -d - slack for v in diffs)
                can_exclude[jt][k] = any(v <= -d + slack for v in diffs)
    col_max_l = [max(c) for c in col_l]

    best = None  # (objective, RegionTuple, solution)
    lp_count = 0
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            in_S = set(S)
            ub = min(col_max_l[k] for k in S)
            for jt in S:
                if not exhaustive:
                    if not jt_ok[jt]:
                        continue
                    if not all(can_member[jt][k] for k in S):
                        continue
                    if not all(can_exclude[jt][k]
                               for k in range(n) if k not in in_S):
                        continue
                    if best is not None and ub <= best[0]:
                        continue
                    if size > 1:
                        # One feasibility probe spares |S| doomed solves.
                        gate = lp.feasible(lp.feasibility(
                            m, _region_rows(col_f, m, n, S, in_S, jt, d),
                            simplex=True), exact=exact)
                        lp_count += 1
                        if gate.status != "optimal":
                            continue
                for j in S:
                    if not exhaustive and best is not None and ub <= best[0]:
                        continue
                    out = _tuple_lp(col_l, col_f, m, n, S, in_S, jt, j, d, exact)
                    lp_count += 1
                    if out.status != "optimal":
                        continue
                    if best is None or out.objective_value > best[0]:
                        best = (out.objective_value,
                                RegionTuple(ResponseSet(S), jt, j),
                                out.solution)
    if best is None:
        raise SolverFailure("no region tuple is feasible; this cannot happen "
                            "for delta > 0")

    obj, tup, xs = best
    x = strategy_from(xs, exact)
    # Repair: keep the members of S whose membership is strict at x*. By the
    # j_tilde-optimality constraint this is exactly the delta-optimal set.
    true_set = br_delta(game, x, d, eta=eta, exact=exact)
    repaired = ResponseSet(tuple(k for k in tup.S if k in true_set))
    lead = leader_payoffs(game, x, exact=exact)
    foll = follower_payoffs(game, x, exact=exact)
    j_hat = min(repaired.actions, key=lambda k: (lead[k], k))
    outcome = GameValueReport(x, j_hat, repaired, lead[j_hat], foll[j_hat],
                              PESSIMISTIC)
    return RseSolution(outcome, tup, repaired, j_hat, lp_count,
                       time.perf_counter() - t0, "exact")


def _region_rows(col_f, m, n, S, in_S, jt, d):
    cons = []
    for k in range(n):
        if k == jt:
            continue
        cons.append(lp.Constraint(
            tuple(col_f[jt][i] - col_f[k][i] for i in range(m)), ">=", 0))
    for k in S:
        if k == jt:
            continue
        cons.append(lp.Constraint(
            tuple(col_f[k][i] - col_f[jt][i] for i in range(m)), ">=", -d))
    for k in range(n):
        if k not in in_S:
            cons.append(lp.Constraint(
                tuple(col_f[k][i] - col_f[jt][i] for i in range(m)), "<=", -d))
    return cons


def _tuple_lp(col_l, col_f, m, n, S, in_S, jt, j, d, exact):
    cons = _region_rows(col_f, m, n, S, in_S, jt, d)
    for k in S:
        if k == j:
            continue
        cons.append(lp.Constraint(
            tuple(col_l[j][i] - col_l[k][i] for i in range(m)), "<=", 0))
    return lp.solve(lp.maximize(col_l[j], cons, simplex=True), exact=exact)


def _curve_point(args):
    game, delta, exact, eta, cap, exhaustive = args
    return solve_exact(game, delta, exact=exact, eta=eta, cap=cap,
                       exhaustive=exhaustive)


def rse_curve(game: BimatrixGame, deltas: Sequence, *, exact: bool = False,
              eta: float = 1e-9, cap: int = ENUMERATION_CAP,
              exhaustive: bool = False, jobs: int = 1) -> RseCurve:
    """Solve at every grid point and attach the SSE/maximin/gap bounds.

    The grid must be sorted and strictly positive. ``jobs > 1`` distributes
    grid points over processes; results merge in grid order, so the output
    is identical for any job count.
    """
    deltas = tuple(deltas)
    if not deltas or any(not v > 0 for v in deltas):
        raise ValueError("delta grid must be nonempty and strictly positive")
    if any(a > b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be sorted ascending")
    work = [(game, dv, exact, eta, cap, exhaustive) for dv in deltas]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            sols = tuple(pool.map(_curve_point, work))
    else:
        sols = tuple(_curve_point(w) for w in work)
    sse = solve_sse(game, exact=exact)
    mm = solve_maximin(game, exact=exact)
    gap = inducibility_gap(game, exact=exact).gap
    return RseCurve(deltas, tuple(s.value for s in sols), sols,
                    sse.leader_value, mm.leader_value, gap)
