"""Approximation algorithms for the robust equilibrium.

Two routes:

* :func:`gap_approx` - when the inducibility gap exceeds delta, blend the
  optimistic-commitment optimum with the strategy that forces its response
  by the full gap; the blend pins the response set and loses at most a
  delta/gap fraction of the optimistic value.
* :func:`qptas_solve` - enumerate k-uniform anchor strategies, search each
  anchor's surrogate neighborhood (strategies whose leader payoffs stay
  within epsilon of the anchor's, column by column) with a feasibility LP
  per candidate response and a binary search over the anchor's payoff
  levels. Quasi-polynomial in the action counts. Each of those LPs is
  described by what varies between them: the anchor's cell (its payoffs
  t, so the cell rows' right-hand sides t +- epsilon), the candidate j
  and the set Q of actions it must beat by delta. In float mode the rows
  are blocks built once per solve (the leader columns, ``u_f(j) - u_f(k)``
  for every pair, the simplex row), each (j, Q) stacks its block indices
  and relations once, and a round's LPs are stacked from them straight
  into :func:`lp.feasible_stacked`; an anchor is carried as its counts,
  its point being counts / k in doubles; exact mode builds each LP from
  :func:`baseline.region_rows` and the anchor's cell rows, made once per
  anchor, for :func:`lp.feasible`. The anchors do not depend on each
  other, so as many of them as one kernel chunk has room for
  (:func:`_window`) search side by side, taken in enumeration order: each
  round solves the next LP of every one in one batch, and each anchor is
  dropped as soon as its search finishes. Each anchor solves the very LPs
  it would solve alone, and gets the same answers.

  Each anchor whose search verifies a level gives two candidates, its
  witness and itself, scored by their true pessimistic value: the best
  wins, ties keeping the earliest anchor, its witness first. Exact mode
  evaluates every candidate. Float mode keeps the candidates as rows of
  one array and bounds each value from above in one numpy pass: the least
  leader payoff over the actions surely in the delta-response set, plus a
  margin that covers a batched product's rounding. It evaluates the
  candidates in order of falling bound and stops at the first bound below
  the best value found, so usually only the winner is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lp
from .baseline import (induce_strategy, inducibility_gap, region_rows,
                       solve_sse)
from .errors import EnumerationCapExceeded, GameFormatError, GapTooSmall
from .exact import RseSolution
from .game import (ETA, BimatrixGame, MixedStrategy, compositions, evaluate,
                   leader_payoffs, rational_view, scalar, strategy_from,
                   tolerance)

ANCHOR_BUDGET = 2_000_000
# Least slack of float qptas's value bounds. A batched ``X @ u`` differs
# from one strategy's ``x @ u`` by a few ulps (up to 2.2e-16 measured on
# small games), far below this, which is far below ETA.
BOUND_MARGIN = 1e-12
# Most anchors whose candidates float qptas scores as one array.
SCORE_BLOCK = 4096


@dataclass(frozen=True)
class KUniformStrategy:
    """Mixed strategy with all probabilities integer multiples of 1/k."""

    counts: tuple[int, ...]
    k: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if self.k < 1 or any(c < 0 for c in counts) or sum(counts) != self.k:
            raise GameFormatError("counts must be nonnegative and sum to k")
        object.__setattr__(self, "counts", counts)

    def to_strategy(self, *, exact: bool = False) -> MixedStrategy:
        """The strategy counts / k; in float mode each double is
        ``float(Fraction(c, k))``, the correctly rounded quotient."""
        if exact:
            return strategy_from([Fraction(c, self.k) for c in self.counts],
                                 True)
        return MixedStrategy(np.array(self.counts, dtype=float) / float(self.k))


@dataclass(frozen=True)
class SurrogateRegion:
    """Anchor plus the 2n payoff-proximity inequalities defining its cell."""

    anchor: KUniformStrategy
    epsilon: float | Fraction
    anchor_payoffs: tuple

    def contains(self, game: BimatrixGame, x: MixedStrategy, *,
                 exact: bool = False) -> bool:
        vals = leader_payoffs(game, x, exact=exact)
        bound = scalar(self.epsilon, exact) + tolerance(exact)
        return all(abs(v - t) <= bound
                   for v, t in zip(vals, self.anchor_payoffs))


def make_region(game: BimatrixGame, anchor: KUniformStrategy, epsilon, *,
                exact: bool = False) -> SurrogateRegion:
    x = anchor.to_strategy(exact=exact)
    vals = tuple(leader_payoffs(game, x, exact=exact))
    return SurrogateRegion(anchor, scalar(epsilon, exact), vals)


def gap_approx(game: BimatrixGame, delta, *, exact: bool = False) -> RseSolution:
    """delta/gap-optimal strategy from one convex combination.

    Requires gap > delta. Output: (1 - w) x_sse + w x_induce with
    w = delta / gap; its response set collapses to the optimistic response,
    certifying value >= (1 - delta/gap) * sse_value. Float mode takes all
    of these from the rational reading (:func:`~rsekit.game.rational_view`)
    and makes floats of the blend's point and the guarantee at the end.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    first = lp.solve_count()
    rational, d, number = rational_view(game, delta, exact)
    gap = inducibility_gap(rational, exact=True).gap
    if not gap > d:
        raise GapTooSmall(
            f"inducibility gap {number(gap)} must exceed delta {delta}")
    sse = solve_sse(rational, exact=True)
    x, floor = sse.strategy.exact, sse.leader_value
    if not math.isinf(gap):  # else one follower action, which SSE commits
        inducer = induce_strategy(rational, sse.response, gap, exact=True)
        w = d / gap
        x = [(1 - w) * a + w * b for a, b in zip(x, inducer.exact)]
        floor = (1 - w) * floor
        gap = number(gap)
    outcome = evaluate(game, strategy_from(x, exact), delta, exact=exact)
    guarantee = {
        "kind": "gap-approx",
        "gap": gap,
        "sse_value": number(sse.leader_value),
        "floor": number(floor),
    }
    return RseSolution(outcome, None, lp.solve_count() - first, "gap-approx",
                       guarantee)


def build_k(game: BimatrixGame, epsilon) -> int:
    """Anchor granularity: ceil(ln(2n) / (2 epsilon^2)), in doubles; an
    epsilon that overflows it raises :class:`EnumerationCapExceeded`."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    e = float(epsilon)
    try:
        return max(1, math.ceil(math.log(2 * game.n) / (2 * e * e)))
    except (OverflowError, ZeroDivisionError):  # 2 e^2 left the double range
        raise EnumerationCapExceeded(
            f"epsilon {epsilon} puts k = ceil(ln(2n) / (2 epsilon^2)) beyond "
            "the double range") from None


def utility_verification(
        game: BimatrixGame, region: SurrogateRegion, delta, mu, *,
        exact: bool = False) -> tuple[bool, MixedStrategy | None]:
    """Does some strategy in the region make every response worth >= mu?

    Collects the anchor-payoff-below-mu actions into Q, then scans the
    remaining actions ascending for one that can be made a best response
    while beating every Q member by at least delta (non-strict, which under
    the strict response rule suffices to exclude Q). Returns the first
    witness.
    """
    lps = (_ExactLps if exact else _FloatLps)(game, delta, region.epsilon)
    scan = _scan(lps.cell(region.anchor_payoffs), region.anchor_payoffs, mu,
                 exact)
    [(_, witness)] = _lockstep([scan], lps.solve, 1)
    if witness is None:
        return False, None
    return True, strategy_from(witness.solution, exact)


def _scan(cell, anchor_payoffs, mu, exact):
    """The scan of :func:`utility_verification` as a generator: it yields
    each LP as ``(cell, j, Q)``, is sent its outcome, and returns the
    witness's outcome, or ``None``. ``cell`` is the region's rows, from
    the ``cell`` of :class:`_FloatLps` or :class:`_ExactLps`; the LP adds
    j's best-response rows and its delta-margin rows against each q in
    ``Q``."""
    floor = scalar(mu, exact) - tolerance(exact)
    below = [t < floor for t in anchor_payoffs]
    Q = tuple(j for j, b in enumerate(below) if b)
    for j, b in enumerate(below):
        if b:
            continue
        out = yield cell, j, Q
        if out.status == "optimal":
            return out
    return None


class _FloatLps:
    """The float LPs of :func:`_scan` for one game, delta and epsilon, from
    rows built once: the leader columns of the 2n cell rows,
    ``u_f(j) - u_f(k)`` for every pair (j, k), which is an optimality row
    with rhs 0 and an exclusion row with rhs delta, and the simplex row.
    Each LP's rows are those :func:`_region_constraints`,
    ``region_rows(...)[0].others(j)``, ``region_rows(...)[2][j][q]`` for q
    in Q and the simplex row would give, in that order, and :meth:`solve`
    stacks them for :func:`lp.feasible_stacked`, with no
    :class:`lp.LinearProgram` and no :class:`lp.Constraint`. Also the
    anchors' points and qptas's bounded scoring (:meth:`best`)."""

    exact = False

    def __init__(self, game, delta, epsilon):
        m, n = game.m, game.n
        u_f = game.u_f.T
        self.game, self.n = game, n
        self.delta, self.eps = scalar(delta, False), scalar(epsilon, False)
        # at least BOUND_MARGIN, and more than m products' rounding
        self.margin = max(BOUND_MARGIN, 4 * m * np.finfo(float).eps)
        # rows[2n + j n + k] is u_f(j) - u_f(k); the simplex row comes last
        self.rows = np.vstack([np.repeat(game.u_l.T, 2, axis=0),
                               (u_f[:, None] - u_f[None]).reshape(n * n, m),
                               np.ones((1, m))])
        self.stacks = {}  # (j, Q) -> its rows' indices, relations, tail rhs

    def anchor(self, counts, k):
        """The anchor's point, counts / k, and its leader payoffs."""
        x = np.array(counts, dtype=float) / k
        return x, (x @ self.game.u_l).tolist()

    def cell(self, payoffs):
        """The right-hand sides of the cell rows of the anchor with these
        payoffs, then the zero right-hand sides of the optimality rows."""
        t = np.array(payoffs, dtype=float)
        rhs = np.zeros(3 * self.n - 1)
        rhs[0:2 * self.n:2], rhs[1:2 * self.n:2] = t + self.eps, t - self.eps
        return rhs

    def _stack(self, j, Q):
        """The row indices, relations and tail right-hand sides of j's LPs
        against Q: the cell rows, j's optimality rows, its exclusion rows
        against each q in Q, and the simplex row."""
        n = self.n
        le, ge, eq = map(lp.RELATIONS.index, ("<=", ">=", "=="))
        at = [*range(2 * n), *(2 * n + j * n + k for k in range(n) if k != j),
              *(2 * n + j * n + q for q in Q), 2 * n + n * n]
        rel = [le, ge] * n + [ge] * (n - 1 + len(Q)) + [eq]
        return (np.array(at), np.array(rel),
                np.array([self.delta] * len(Q) + [1.0]))

    def solve(self, lps):
        """The outcomes of the LPs ``(cell, j, Q)``, in order."""
        at, rel, rhs, counts = [], [], [], []
        for cell, j, Q in lps:
            stack = self.stacks.get((j, Q))
            if stack is None:
                stack = self.stacks[j, Q] = self._stack(j, Q)
            at.append(stack[0])
            rel.append(stack[1])
            rhs += (cell, stack[2])
            counts.append(len(stack[0]))
        return lp.feasible_stacked(self.rows[np.concatenate(at)],
                                   np.concatenate(rel), np.concatenate(rhs),
                                   counts)

    def best(self, finished, total, k):
        """``(report, counts, mu)`` of the best candidate of the anchor
        searches ``finished``, each ``(i, counts, x, witness, mu)`` as
        :func:`qptas_solve` gives them, or ``None`` if there are none.

        The candidates are scored in blocks of up to ``SCORE_BLOCK``
        anchors, as rows of one array (:meth:`_score`), so the memory held
        stays bounded however many anchors there are."""
        size = min(total, SCORE_BLOCK)
        rows = np.empty((size, 2, self.game.m))  # witness, anchor's counts
        index, mus = np.empty(size, dtype=np.int64), np.empty(size)
        best, filled = None, 0
        for i, counts, _, witness, mu in finished:
            rows[filled] = witness, counts
            index[filled], mus[filled] = i, mu
            filled += 1
            if filled == size:
                best = self._score(rows, index, mus, k, best)
                filled = 0
        if filled:
            best = self._score(rows[:filled], index[:filled], mus[:filled],
                               k, best)
        return best and best[1:]

    def _score(self, rows, index, mus, k, best):
        """``best``, a ``(rank, report, counts, mu)`` or ``None``, updated
        with the candidates of a block: row r of ``rows`` holds anchor
        ``index[r]``'s witness and counts, and ``mus[r]`` its level.

        Each candidate gets the checks of :class:`MixedStrategy` at once; a
        row that fails them, or that sits within the margin of the sum
        check, is decided by ``MixedStrategy`` itself. A candidate's value
        is at most the least leader payoff over the actions whose batched
        follower payoff clears the response rule by the margin, plus the
        margin. The candidates are evaluated in order of falling bound
        until a bound is below the best value."""
        game = self.game
        points = rows.copy()
        points[:, 1] /= k
        points = points.reshape(-1, game.m)
        edge = ETA - self.margin
        for r in np.flatnonzero(~np.isfinite(points).all(axis=1)
                                | (points.min(axis=1) < -ETA)
                                | (np.abs(points.sum(axis=1) - 1.0) > edge)):
            MixedStrategy(points[r])  # raises InvalidStrategyError if bad
        p = np.where(points < 0, 0.0, points)
        u_f, u_l = p @ game.u_f, p @ game.u_l
        top = u_f.max(axis=1, keepdims=True)
        surely = ((u_f >= top - ETA + self.margin)
                  | (u_f > top - self.delta + ETA + self.margin))
        bound = np.where(surely, u_l, np.inf).min(axis=1) + self.margin
        for r in np.argsort(-bound, kind="stable").tolist():
            if best is not None and bound[r] < best[0][0]:
                break
            i = int(index[r // 2])
            rep = evaluate(game, MixedStrategy(points[r]), self.delta)
            # the best value; of equal ones, the earliest anchor, its
            # witness first
            rank = (rep.leader_value, -i, -(r % 2))
            if best is None or rank > best[0]:
                counts = tuple(int(c) for c in rows[r // 2, 1])
                best = (rank, rep, counts, float(mus[r // 2]))
        return best


class _ExactLps:
    """The exact LPs of :func:`_scan`: rows from :func:`_cell_rows` and
    :func:`baseline.region_rows`, each LP an :class:`lp.LinearProgram` for
    :func:`lp.feasible`. Also the anchors' exact points, and qptas's
    scoring, which evaluates every candidate (:meth:`best`)."""

    exact = True

    def __init__(self, game, delta, epsilon):
        self.game, self.m = game, game.m
        self.delta, self.eps = scalar(delta, True), scalar(epsilon, True)
        self.col_l, col_f = game.columns(True)
        self.opt, _, self.exclude, _ = region_rows(self.col_l, col_f,
                                                   self.delta)

    def anchor(self, counts, k):
        x = KUniformStrategy(counts, k).to_strategy(exact=True)
        return x, leader_payoffs(self.game, x, exact=True)

    def cell(self, payoffs):
        return _cell_rows(self.col_l, payoffs, self.eps)

    def solve(self, lps):
        return [lp.feasible(lp.feasibility(
            self.m, cell + self.opt.others(j)
            + tuple(self.exclude[j][q] for q in Q), simplex=True))
            for cell, j, Q in lps]

    def best(self, finished, total, k):
        """:meth:`_FloatLps.best`, evaluating every candidate."""
        best = None  # (rank, report, counts, mu)
        for i, counts, x, witness, mu in finished:
            for tie, y in enumerate((strategy_from(witness, True), x)):
                rep = evaluate(self.game, y, self.delta, exact=True)
                rank = (rep.leader_value, -i, -tie)
                if best is None or rank > best[0]:
                    best = (rank, rep, counts, mu)
        return best and best[1:]


def _anchor_search(lps, counts, k):
    """qptas's search of one anchor, an LP-yielding generator like
    :func:`_scan`. It binary-searches the largest verifiable level mu over
    the anchor's payoff values and returns ``(counts, x, witness, mu)``:
    x the anchor's point from ``lps.anchor``, the witness the point of an
    LP outcome :func:`_scan` returns, or ``None`` when even the smallest
    level fails. Only the returned witness's point is read, so an exact LP
    whose point is found on first read finds it once per anchor."""
    x, payoffs = lps.anchor(counts, k)
    cell = lps.cell(payoffs)
    levels = sorted(set(payoffs))
    # Largest verifiable mu; the smallest level always verifies with the
    # anchor's own best response as witness.
    lo, hi = 0, len(levels) - 1
    witness = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = yield from _scan(cell, payoffs, levels[mid], lps.exact)
        if found is not None:
            lo = mid
            witness = found
        else:
            hi = mid - 1
    if witness is None:
        witness = yield from _scan(cell, payoffs, levels[lo], lps.exact)
    return (counts, x, None if witness is None else witness.solution,
            levels[lo])


def _lockstep(searches, solve, window):
    """Run the LP-yielding generators ``searches`` side by side, and yield
    ``(i, value)`` as soon as the i-th of them returns ``value``.

    Up to ``window`` searches are in flight, taken from ``searches`` in
    order. Each round sends the pending LP of every one to one ``solve``
    call, which returns their outcomes in order, and each its own outcome
    back. A search never waits on another, so each solves the LPs it would
    solve alone, and one that returns is dropped at once.
    """
    searches = enumerate(searches)
    live, outcomes = [], []  # (i, search, its pending LP); their outcomes
    while True:
        resume = [(i, gen, out) for (i, gen, _), out in zip(live, outcomes)]
        live = []
        while resume or len(live) < window:
            if resume:  # popped, so that no list keeps a finished search
                i, gen, out = resume.pop(0)
            else:
                i, gen = next(searches, (None, None))
                if gen is None:
                    break
                out = None
            try:
                live.append((i, gen, gen.send(out)))
            except StopIteration as stop:
                yield i, stop.value
        if not live:
            return
        outcomes = solve([pending for _, _, pending in live])


def _window(m, n):
    """Anchor searches :func:`qptas_solve` keeps in flight: as many LPs as
    one kernel chunk of :func:`lp.feasible_stacked` holds at the widest a
    round of them can be. Such a chunk has at most 4n - 1 rows, as an LP
    has 2n cell rows, n - 1 optimality rows, up to n - 1 exclusion rows and
    the simplex row, and m + 6n - 2 columns: m variables, 4n - 2 slacks
    (every row position but the last, which only a simplex row holds), n
    artificials for the ``>=`` cell rows and n for the row positions an
    exclusion row or a simplex row can hold."""
    return max(1, lp.BATCH_DOUBLES // (4 * n * (m + 6 * n - 1)))


def _region_constraints(col_l, region: SurrogateRegion, exact):
    return _cell_rows(col_l, region.anchor_payoffs,
                      scalar(region.epsilon, exact))


def _cell_rows(col_l, payoffs, eps):
    """The 2n cell rows: each leader column within eps of its payoff."""
    rows = []
    for col, t in zip(col_l, payoffs):
        rows.append(lp.Constraint(col, "<=", t + eps))
        rows.append(lp.Constraint(col, ">=", t - eps))
    return tuple(rows)


def qptas_solve(game: BimatrixGame, delta, epsilon, *,
                exact: bool = False) -> RseSolution:
    """Additive-epsilon approximation via k-uniform anchor enumeration.

    Per anchor, binary-search the largest verifiable payoff level mu over
    the anchor's n payoff values. Witnesses (and the anchors themselves)
    are scored by their true pessimistic value; the best is returned.
    Anchors enumerate in lexicographic count order and ties keep the
    earliest, so the result is deterministic.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    first = lp.solve_count()
    k = build_k(game, epsilon)
    total = math.comb(k + game.m - 1, game.m - 1)
    if total > ANCHOR_BUDGET:
        raise EnumerationCapExceeded(
            f"{total} k-uniform anchors exceed the budget {ANCHOR_BUDGET} "
            f"(k={k}, m={game.m})")
    lps = (_ExactLps if exact else _FloatLps)(game, delta, epsilon)
    searches = (_anchor_search(lps, counts, k)
                for counts in compositions(k, game.m))
    finished = ((i, *found) for i, found in _lockstep(
        searches, lps.solve, _window(game.m, game.n)) if found[2] is not None)
    best = lps.best(finished, total, k)
    if best is None:
        raise GameFormatError("verification failed on every anchor")
    outcome, counts, mu = best
    guarantee = {
        "kind": "qptas",
        "k": k,
        "anchors": total,
        "epsilon": float(epsilon),
        "floor_formula": "value >= u_rse(delta) - epsilon",
        "anchor_counts": counts,
        "verified_mu": mu,
    }
    return RseSolution(outcome, None, lp.solve_count() - first, "qptas",
                       guarantee)
