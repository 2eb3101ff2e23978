"""Exact robust-equilibrium computation via region-tuple LP enumeration.

For each candidate region (a response set S, the follower-optimal action
j_tilde in S, and the leader-pessimal action j in S) a relaxed LP maximizes
the leader's value while forcing S to be exactly the delta-optimal set. The
strict membership constraints are relaxed to weak ones before solving;
:func:`~rsekit.game.evaluate` then scores the winning strategy. Its
delta-optimal set lies inside S, as the exclusion rows keep every action
outside S at least delta below j_tilde.

The search is rational in both modes: float mode solves the game's
rational reading (:func:`~rsekit.game.rational_view`) and scores the float
of its optimum.

Enumeration visits tuples ordered by (|S|, sorted S, j_tilde, j) and keeps
the first maximizer, which doubles as the deterministic tie-break. Each
row is built when the first LP that holds it is, and kept for the rest of
the solve (:func:`rsekit.baseline.region_rows`, which the SSE and qptas
LPs read too), so rows of tuples the cuts skip are never built. Rows are
built in integers: the columns and delta are scaled once per solve by
their common denominator, and each row is a difference of ints over that
scale, whose exact LPs make no ``Fraction`` row. Only the
winner's point is read, after the search; when its optimum is proven
unique from its vertex, no exact simplex runs in the whole solve. Three
cuts prune tuples without changing that order or the answer:

* static filters: per j_tilde, two bitmasks over follower actions mark the
  k whose membership row, or whose exclusion row, has no point in the
  simplex on its own; they are computed in integers, from the scaled
  follower columns and delta the membership rows are built from, and a
  set S is tested against them with two integer ANDs;
* the bound cut: a tuple is skipped once the best value so far reaches
  the smallest column maximum of the leader over S. The actions whose
  column maximum is at most that value are capped, and the enumeration
  draws each S from the uncapped actions only, so a set that holds a
  capped action is never visited. When the best value caps more actions,
  the sets of the current size resume after the current S, in the same
  order;
* certificate cuts: for |S| > 1 one feasibility gate per (S, j_tilde)
  precedes the |S| objective LPs. A gate holds the member rows of S, the
  exclusion rows of the actions outside S, and the j_tilde-optimality
  rows of S only: for k outside S the exclusion row (``>= d``, d > 0)
  implies the optimality row (``>= 0``), so the gate has the feasible set
  of the full region. The objective LPs keep every optimality row, as the
  winner's point is the vertex the full rows lead to. When a gate is proven
  infeasible by a Farkas certificate, the rows that certificate uses name
  the members it needs in S and the actions it needs outside S; every
  later gate for the same j_tilde with such an S is infeasible too
  (:func:`_nogood`) and is skipped without an LP. A gate's certificate
  comes from the optimal basis of its normalized Farkas dual
  (:func:`rsekit.lp.solve`), so it uses at most m + 1 rows, and the
  fewer rows it names, the more later gates its nogood covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, dropwhile
from typing import Sequence

from . import lp
from .baseline import (inducibility_gap, region_rows, solve_maximin,
                       solve_sse)
from .errors import EnumerationCapExceeded, SolverFailure
from .game import (BimatrixGame, GameValueReport, MixedStrategy, ResponseSet,
                   evaluate, rational_view, strategy_from, tolerance)

ENUMERATION_CAP = 16


@dataclass(frozen=True, slots=True)
class RegionTuple:
    """One enumerated region: response set S plus its two pinned actions."""

    S: ResponseSet
    j_tilde: int
    j: int

    def __post_init__(self):
        if self.j_tilde not in self.S or self.j not in self.S:
            raise ValueError("j_tilde and j must belong to S")


@dataclass(frozen=True, slots=True)
class RseSolution:
    """A robust-equilibrium strategy pair with its provenance.

    ``outcome`` is :func:`~rsekit.game.evaluate`'s report at the returned
    strategy: its response set, pessimistic response and value are the ones
    ``rsekit verify`` recomputes. ``chosen_tuple`` is the winning region of
    :func:`solve_exact` (``None`` for the approximations), whose S holds the
    outcome's response set.
    """

    outcome: GameValueReport
    chosen_tuple: RegionTuple | None
    lp_count: int
    method: str = "exact"
    guarantee: dict | None = None

    @property
    def value(self):
        return self.outcome.leader_value

    @property
    def repaired_set(self) -> ResponseSet:
        """The delta-optimal set of the returned strategy."""
        return self.outcome.response_set

    @property
    def strategy(self) -> MixedStrategy:
        return self.outcome.strategy


@dataclass(frozen=True)
class RseCurve:
    """Robust value ``values[i]`` at each grid point ``deltas[i]``, with the
    delta-free SSE value, maximin value and inducibility gap attached."""

    deltas: tuple
    values: tuple
    sse_value: float | Fraction
    maximin_value: float | Fraction
    gap: float | Fraction


def solve_exact(game: BimatrixGame, delta, *, exact: bool = False,
                cap: int = ENUMERATION_CAP) -> RseSolution:
    """Compute the exact delta-robust equilibrium.

    ``delta`` must exceed ``tolerance(exact)``: 0 in exact mode, ``ETA`` in
    float, where the float response rule counts every action within
    ``ETA`` of the best as a response. ``exact`` picks the type of the
    answer; the search is rational either way. Expected exponential in the
    follower's action count; guarded by ``cap``.
    """
    if not delta > tolerance(exact):
        raise ValueError(
            f"delta must be > {tolerance(exact):g} in this mode, got {delta} "
            "(--mode exact takes any delta > 0)")
    if game.n > cap:
        raise EnumerationCapExceeded(
            f"n = {game.n} exceeds the enumeration cap {cap}")
    first = lp.solve_count()
    rational, d, _ = rational_view(game, delta, exact)
    col_l, col_f = rational.columns(True)
    m, n = game.m, game.n
    opt, member, exclude, leader = region_rows(col_l, col_f, d)
    no_member, must_member = _static_filters(member)
    nogoods = [[] for _ in range(n)]  # per j_tilde: (in_mask, out_mask)
    col_max_l = [max(c) for c in col_l]
    capped = 0  # the actions whose leader column maximum is <= best value

    best = None  # (objective, S, j_tilde, j, outcome)
    allowed = range(n)  # the actions outside capped
    for size in range(1, n + 1):
        if len(allowed) < size:
            break  # every larger set meets capped
        sets = combinations(allowed, size)
        while S := next(sets, None):
            mask = 0
            for k in S:
                mask |= 1 << k
            was = capped
            for jt in S:
                if mask & capped:
                    break
                if mask & no_member[jt] or must_member[jt] & ~mask:
                    continue
                # Sound: such a gate holds every row of a proven
                # certificate, or a row that implies it, so it is
                # infeasible too (see _nogood).
                if any(mask & need == need and not mask & avoid
                       for need, avoid in nogoods[jt]):
                    continue
                inside = [k for k in S if k != jt]
                outside = [k for k in range(n) if not mask >> k & 1]
                rows = (tuple(member[jt][k] for k in inside)
                        + tuple(exclude[jt][k] for k in outside))
                if size > 1:
                    # One feasibility probe spares |S| doomed solves. It
                    # holds the optimality rows of S only: the exclusion
                    # row of each k outside S implies that k's.
                    gate = lp.feasible(lp.feasibility(
                        m, tuple(opt[jt][k] for k in inside) + rows,
                        simplex=True))
                    if gate.status != "optimal":
                        if gate.support is not None:
                            nogoods[jt].append(_nogood(
                                gate.support, inside, outside))
                        continue
                region = opt.others(jt) + rows
                for j in S:
                    if mask & capped:
                        break
                    cons = region + tuple(leader[j][k] for k in S if k != j)
                    out = lp.solve(lp.maximize(col_l[j], cons, simplex=True))
                    if out.status != "optimal":
                        continue
                    if best is None or out.objective_value > best[0]:
                        best = (out.objective_value, S, jt, j, out)
                        capped = sum(1 << k for k, v in enumerate(col_max_l)
                                     if v <= best[0])
            if capped != was:
                # The same order on the sets left: those after S that
                # meet no capped action.
                allowed = [k for k in allowed if not capped >> k & 1]
                sets = dropwhile(S.__ge__, combinations(allowed, size))
    if best is None:
        raise SolverFailure("no region tuple is feasible; this cannot happen "
                            "for delta > 0")

    # Only the winner's point is read: an LP whose value is proven before
    # its point finds the point on this first read.
    _, S, jt, j, out = best
    outcome = evaluate(game, strategy_from(out.solution, exact), delta,
                       exact=exact)
    # S holds the outcome's response set, and is often that very set.
    rset = outcome.response_set
    tup = RegionTuple(rset if rset.actions == S else ResponseSet(S), jt, j)
    return RseSolution(outcome, tup, lp.solve_count() - first, "exact")


def _static_filters(member):
    """Single-row necessary conditions as bitmasks over follower actions.

    For each j_tilde, ``no_member[jt]`` marks the k whose membership row
    ``u_f(jt) - u_f(k) <= d`` alone has no point in the simplex, and
    ``must_member[jt]`` the k whose exclusion row (``>= d``) alone has
    none; a j_tilde that can never be optimal gets every bit of
    ``no_member``. A set mask passes when it meets no bit of the first and
    holds every bit of the second. A row has a point in the simplex when
    one of its coefficients meets its relation, so each test reads the
    least and greatest entry of ``u_f(jt) - u_f(k)``, in the ints
    ``member.cols`` and ``member.rhs`` (:func:`~rsekit.baseline.region_rows`).
    """
    cols, d = member.cols, member.rhs
    n = len(cols)
    no_member, must_member = [0] * n, [0] * n
    for jt, top in enumerate(cols):
        spans = [(min(v), max(v)) for v in
                 ([a - b for a, b in zip(top, col)] for col in cols)]
        if any(hi < 0 for _, hi in spans):
            no_member[jt] = (1 << n) - 1
            continue
        for k, (lo, hi) in enumerate(spans):
            if lo > d:
                no_member[jt] |= 1 << k
            if hi < d:
                must_member[jt] |= 1 << k
    return no_member, must_member


def _nogood(support, inside, outside):
    """``(in_mask, out_mask)`` of the member and exclude rows in ``support``.

    ``support`` indexes a gate's rows for ``(S, jt)``: the optimality rows
    of ``inside`` (S without jt), then their member rows, then the exclude
    rows of ``outside``. Every gate ``(S', jt)`` with ``S'`` holding
    ``in_mask`` and missing ``out_mask`` holds these member and exclude
    rows. An optimality row adds no bit: such a gate holds it for each k
    in ``S'``, and for each k outside ``S'`` it holds the exclusion row on
    the same difference, ``>= d`` with ``d > 0``. With the same multiplier
    that row raises the certificate's ``y.b`` by ``y_k d >= 0`` and leaves
    ``y.A`` as it is, so the certificate still proves the gate infeasible.
    """
    need = avoid = 0
    n_in = len(inside)
    for r in support:
        if r < n_in:
            continue
        r -= n_in
        if r < n_in:
            need |= 1 << inside[r]
        else:
            avoid |= 1 << outside[r - n_in]
    return need, avoid


def parallel_map(fn, work: Sequence, jobs: int) -> list:
    """``[fn(w) for w in work]``, over ``min(jobs, len(work))`` processes when
    that is above 1; the results keep the order of ``work``."""
    workers = min(jobs, len(work))
    if workers <= 1:
        return [fn(w) for w in work]
    from concurrent import futures
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


def _curve_point(args):
    game, delta, exact = args
    return solve_exact(game, delta, exact=exact).value


def rse_curve(game: BimatrixGame, deltas: Sequence, *, exact: bool = False,
              jobs: int = 1) -> RseCurve:
    """Solve at every grid point and attach the SSE/maximin/gap bounds.

    The grid must be sorted and strictly positive. The grid points run
    through :func:`parallel_map`, so ``jobs > 1`` starts at most one process
    per point and the curve is the same for any job count.
    """
    deltas = tuple(deltas)
    if not deltas or any(not v > 0 for v in deltas):
        raise ValueError("delta grid must be nonempty and strictly positive")
    if any(a > b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be sorted ascending")
    work = [(game, dv, exact) for dv in deltas]
    values = tuple(parallel_map(_curve_point, work, jobs))
    sse = solve_sse(game, exact=exact)
    mm = solve_maximin(game, exact=exact)
    gap = inducibility_gap(game, exact=exact).gap
    return RseCurve(deltas, values, sse.leader_value, mm.leader_value, gap)
