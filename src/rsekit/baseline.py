"""Classical commitment quantities: SSE, maximin, and the inducibility gap.

These bound and seed the robust-equilibrium computations: the robust value
always lies between the maximin and SSE values, and the inducibility gap
controls how cheaply the leader can pin any single follower response.
Every payoff-difference row, here, in the region LPs of :mod:`rsekit.exact`
and in exact-mode qptas, comes from :func:`region_rows`; float-mode qptas
builds its ``u_f(j) - u_f(k)`` block itself, once per solve, as doubles
(``approx._FloatLps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import lp
from .errors import GapTooSmall, SolverFailure
from .game import (OPTIMISTIC, PESSIMISTIC, BimatrixGame, GameValueReport,
                   MixedStrategy, ResponseSet, br_delta, leader_payoffs,
                   scalar, strategy_from)


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


def solve_sse(game: BimatrixGame, *, exact: bool = False) -> GameValueReport:
    """Optimal commitment under optimistic follower tie-breaking.

    One LP per follower column: maximize the leader's value while keeping
    that column weakly best. Infeasible columns are skipped; equal-value
    columns resolve to the smallest index.
    """
    col_l, col_f = game.columns(exact)
    opt = region_rows(col_l, col_f, scalar(0, exact))[0]
    best = None
    for j in range(game.n):
        out = lp.solve(lp.maximize(col_l[j], opt.others(j), simplex=True),
                       exact=exact)
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
    m, n = game.m, game.n
    if n == 1:
        uniform = strategy_from([Fraction(1, m)] * m, exact)
        return InducibilityReport(math.inf, (ActionInducibility(uniform, math.inf),))
    opt = region_rows(*game.columns(exact), scalar(0, exact))[0]
    per = []
    for j in range(n):
        # t+ and t- enter a row of ints over its scale s as -s and s.
        cons = [lp.Constraint(row.coeffs + (-row.scale, row.scale), ">=", 0,
                              row.scale) for row in opt.others(j)]
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
    exclude = region_rows(col_l, col_f, scalar(margin, exact))[2]
    out = lp.solve(lp.maximize(col_l[j], exclude.others(j), simplex=True),
                   exact=exact)
    if out.status != "optimal":
        raise GapTooSmall(
            f"margin {margin} is not attainable for follower action {j}")
    return strategy_from(out.solution, exact)


class _Lazy(dict):
    """A mapping that builds a missing entry as ``build(key)`` when it is
    first read, and keeps it."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def region_rows(col_l, col_f, d):
    """The constraints a region LP can hold, as four :class:`_Rows` tables.

    Returns ``(opt, member, exclude, leader)``: ``opt[jt][k]`` is the
    j_tilde-optimality row ``u_f(jt) - u_f(k) >= 0``, ``member[jt][k]`` and
    ``exclude[jt][k]`` bound ``u_f(jt) - u_f(k)`` by ``<= d`` and ``>= d``,
    and ``leader[j][k]`` is ``u_l(j) - u_l(k) <= 0``. Each row is built on
    first read, and every later read returns that object, so a search
    builds only the rows its LPs hold.

    Rational columns and ``d`` are scaled to ints once, the follower's with
    ``d`` and the leader's on their own (:func:`_integral_columns`), so each
    difference is a subtraction of ints and each row a
    :class:`~rsekit.lp.Constraint` over that common scale, whose integer
    form takes one gcd and makes no ``Fraction``. Float columns with a
    float ``d`` (float mode) give rows of doubles, as the columns stand.
    """
    if isinstance(d, float):
        f_cols, l_cols, f_scale, l_scale = col_f, col_l, 1, 1
    else:
        f_cols, (d,), f_scale = _integral_columns(col_f, d)
        l_cols, _, l_scale = _integral_columns(col_l)
    return (_Rows(f_cols, ">=", 0, f_scale), _Rows(f_cols, "<=", d, f_scale),
            _Rows(f_cols, ">=", d, f_scale), _Rows(l_cols, "<=", 0, l_scale))


class _Rows(_Lazy):
    """The rows ``(cols[j] - cols[k]) / scale <relation> rhs / scale``.

    ``table[j][k]`` is built on first read and kept, and so is
    ``table.others(j)``, the tuple of ``table[j][k]`` over k != j. ``cols``
    and ``rhs`` are the columns and margin before the division by ``scale``.
    """

    def __init__(self, cols, relation, rhs, scale):
        super().__init__(lambda j: _Lazy(lambda k: lp.Constraint(
            tuple(a - b for a, b in zip(cols[j], cols[k])), relation, rhs,
            scale)))
        self.cols, self.rhs, self._others = cols, rhs, {}

    def others(self, j):
        got = self._others.get(j)
        if got is None:
            got = self._others[j] = tuple(
                self[j][k] for k in range(len(self.cols)) if k != j)
        return got


def _integral_columns(cols, *extra):
    """``(int_cols, int_extra, s)``: the rational columns ``cols`` and the
    numbers ``extra`` times ``s``, the LCM of all their denominators."""
    ints, s = lp._integral([*chain.from_iterable(cols), *extra])
    m = len(cols[0])
    return ([ints[k * m:(k + 1) * m] for k in range(len(cols))],
            ints[len(cols) * m:], s)

