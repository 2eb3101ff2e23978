"""Classical commitment quantities: SSE, maximin, and the inducibility gap.

These bound and seed the robust-equilibrium computations: the robust value
always lies between the maximin and SSE values, and the inducibility gap
controls how cheaply the leader can pin any single follower response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


from . import lp
from .errors import GapTooSmall, SolverFailure
from .game import (OPTIMISTIC, PESSIMISTIC, BimatrixGame, GameValueReport,
                   MixedStrategy, ResponseSet, br_delta, leader_payoffs,
                   strategy_from)


@dataclass(frozen=True)
class ActionInducibility:
    """Best inducing strategy for one follower action and its margin."""

    strategy: MixedStrategy
    margin: float | Fraction


@dataclass(frozen=True)
class InducibilityReport:
    """Per-action inducing margins; ``gap`` is their minimum (may be negative).

    A single-column game has no competing action, reported as ``math.inf``.
    """

    gap: float | Fraction
    per_action: tuple[ActionInducibility, ...]


def response_rows(cols, j, margin=0, among=None, relation=">="):
    """Follower-advantage rows ``u_f(x, j) - u_f(x, k) <relation> margin``
    over columns ``cols``, one per k in ``among`` (default: every k != j)."""
    if among is None:
        among = (k for k in range(len(cols)) if k != j)
    return [lp.Constraint(tuple(a - b for a, b in zip(cols[j], cols[k])),
                          relation, margin) for k in among]


def solve_sse(game: BimatrixGame, *, exact: bool = False) -> GameValueReport:
    """Optimal commitment under optimistic follower tie-breaking.

    One LP per follower column: maximize the leader's value while keeping
    that column weakly best. Infeasible columns are skipped; equal-value
    columns resolve to the smallest index.
    """
    col_l, col_f = game.columns(exact)
    best = None
    for j in range(game.n):
        out = lp.solve(lp.maximize(col_l[j], response_rows(col_f, j),
                                   simplex=True), exact=exact)
        if out.status != "optimal":
            continue
        if best is None or out.objective_value > best[0]:
            best = (out.objective_value, j, out.solution)
    if best is None:
        raise SolverFailure("no follower column is ever a best response")
    value, j, xs = best
    x = strategy_from(xs, exact)
    rset = br_delta(game, x, 0, exact=exact)
    return GameValueReport(x, j, rset, value, OPTIMISTIC)


def solve_maximin(game: BimatrixGame, *, exact: bool = False) -> GameValueReport:
    """max_x min_j u_l(x, j) via a single LP with an auxiliary level variable."""
    col_l, _ = game.columns(exact)
    m, n = game.m, game.n
    # Variables (x_1..x_m, t); utilities are nonnegative so t >= 0 is harmless.
    cons = [lp.Constraint(col_l[j] + (-1,), ">=", 0) for j in range(n)]
    cons.append(lp.Constraint((1,) * m + (0,), "==", 1))
    objective = (0,) * m + (1,)
    out = lp.solve(lp.LinearProgram(m + 1, objective, "max", tuple(cons), False),
                   exact=exact)
    if out.status != "optimal":
        raise SolverFailure(f"maximin LP ended {out.status}")
    x = strategy_from(out.solution[:m], exact)
    leads = leader_payoffs(game, x, exact=exact)
    response = min(range(n), key=lambda j: (leads[j], j))
    return GameValueReport(x, response, ResponseSet(tuple(range(n))),
                           leads[response], PESSIMISTIC)


def inducibility_gap(game: BimatrixGame, *, exact: bool = False) -> InducibilityReport:
    """Largest margin by which each follower action can be made strictly best.

    For each column j: maximize t subject to
    ``u_f(x, j) >= u_f(x, k) + t`` for all k != j over the simplex; the gap
    is the minimum over columns. t is free (split into t+ - t-).
    """
    _, col_f = game.columns(exact)
    m, n = game.m, game.n
    if n == 1:
        uniform = strategy_from([Fraction(1, m)] * m, exact)
        return InducibilityReport(math.inf, (ActionInducibility(uniform, math.inf),))
    per = []
    for j in range(n):
        cons = [lp.Constraint(row.coeffs + (-1, 1), ">=", 0)
                for row in response_rows(col_f, j)]
        cons.append(lp.Constraint((1,) * m + (0, 0), "==", 1))
        out = lp.solve(lp.LinearProgram(m + 2, (0,) * m + (1, -1), "max",
                                        tuple(cons), False), exact=exact)
        if out.status != "optimal":
            raise SolverFailure(f"inducibility LP for column {j} ended {out.status}")
        per.append(ActionInducibility(strategy_from(out.solution[:m], exact),
                                      out.objective_value))
    gap = min(a.margin for a in per)
    return InducibilityReport(gap, tuple(per))


def induce_strategy(game: BimatrixGame, j: int, margin, *,
                    exact: bool = False) -> MixedStrategy:
    """Leader-optimal strategy making column j best by at least ``margin``.

    Maximizes u_l(x, j) subject to ``u_f(x, j) >= u_f(x, k) + margin`` for
    every other column. Raises :class:`GapTooSmall` when the margin exceeds
    what the column can support.
    """
    col_l, col_f = game.columns(exact)
    out = lp.solve(lp.maximize(col_l[j], response_rows(col_f, j, margin),
                               simplex=True), exact=exact)
    if out.status != "optimal":
        raise GapTooSmall(
            f"margin {margin} is not attainable for follower action {j}")
    return strategy_from(out.solution, exact)
