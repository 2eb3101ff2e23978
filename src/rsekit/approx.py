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
  for every pair, the simplex row), a round's LPs are stacked from them
  straight into :func:`lp.feasible_stacked`, and each anchor's strategy is
  built once, as counts / k in doubles, for its cell and its score; exact
  mode builds each LP from :func:`baseline.region_rows` and the anchor's
  cell rows, made once per anchor, for :func:`lp.feasible`. The anchors
  do not depend on each other, so as many of them as one kernel chunk has
  room for (:func:`_window`) search side by side, taken in enumeration
  order: each round solves the next LP of every one in one batch, and
  each anchor is scored, and dropped, as soon as its search finishes.
  Ties between equal scores keep the earliest anchor, its witness before
  itself, whatever order they finish in. Each anchor solves the very LPs
  it would solve alone, and gets the same answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import lp
from .baseline import (induce_strategy, inducibility_gap, region_rows,
                       solve_sse)
from .errors import EnumerationCapExceeded, GameFormatError, GapTooSmall
from .exact import RseSolution
from .game import (BimatrixGame, MixedStrategy, evaluate, leader_payoffs,
                   scalar, strategy_from, tolerance)

ANCHOR_BUDGET = 2_000_000


def compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total.

    Lexicographically ascending: (0, ..., 0, total) first, (total, 0, ..., 0)
    last. Anchor enumeration and the lattice oracle share this order.
    """
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


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
    certifying value >= (1 - delta/gap) * sse_value.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    first = lp.solve_count()
    report = inducibility_gap(game, exact=exact)
    gap = report.gap
    if not gap > delta:
        raise GapTooSmall(f"inducibility gap {gap} must exceed delta {delta}")
    sse = solve_sse(game, exact=exact)
    if math.isinf(gap):
        x_hat = sse.strategy
        floor = sse.leader_value
    else:
        inducer = induce_strategy(game, sse.response, gap, exact=exact)
        w = scalar(delta, exact) / gap
        ends = ((sse.strategy.exact, inducer.exact) if exact
                else (sse.strategy.probs, inducer.probs))
        x_hat = strategy_from([(1 - w) * a + w * b for a, b in zip(*ends)], exact)
        floor = (1 - w) * sse.leader_value
    outcome = evaluate(game, x_hat, delta, exact=exact)
    guarantee = {
        "kind": "gap-approx",
        "gap": gap,
        "sse_value": sse.leader_value,
        "floor": floor,
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
    lps = (_ExactLps if exact else _FloatLps)(game, delta)
    scan = _scan(lps.cell(region), region.anchor_payoffs, mu, exact)
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
    """The float LPs of :func:`_scan` for one game and delta, from rows
    built once: the leader columns of the 2n cell rows, ``u_f(j) - u_f(k)``
    for every pair (j, k), which is an optimality row with rhs 0 and an
    exclusion row with rhs delta, and the simplex row. Each LP's rows are
    those :func:`_region_constraints`, ``region_rows(...)[0].others(j)``,
    ``region_rows(...)[2][j][q]`` for q in Q and the simplex row would
    give, in that order, and :meth:`solve` stacks them for
    :func:`lp.feasible_stacked`, with no :class:`lp.LinearProgram` and no
    :class:`lp.Constraint`."""

    exact = False

    def __init__(self, game, delta):
        m, n = game.m, game.n
        u_f = game.u_f.T
        self.n = n
        # rows[2n + j n + k] is u_f(j) - u_f(k); the simplex row comes last
        self.rows = np.vstack([np.repeat(game.u_l.T, 2, axis=0),
                               (u_f[:, None] - u_f[None]).reshape(n * n, m),
                               np.ones((1, m))])
        self.heads = [np.array([*range(2 * n), *(2 * n + j * n + k
                                                 for k in range(n) if k != j)])
                      for j in range(n)]
        le, ge, eq = map(lp.RELATIONS.index, ("<=", ">=", "=="))
        self.head_rel = np.array([le, ge] * n + [ge] * (n - 1))
        # the rows after the head of an LP with q exclusion rows
        d = scalar(delta, False)
        self.tail_rel = [np.array([ge] * q + [eq]) for q in range(n)]
        self.tail_rhs = [np.array([d] * q + [1.0]) for q in range(n)]

    def cell(self, region):
        """The right-hand sides of the region's cell rows, then the zero
        right-hand sides of the optimality rows."""
        t = np.array(region.anchor_payoffs, dtype=float)
        eps = scalar(region.epsilon, False)
        rhs = np.zeros(3 * self.n - 1)
        rhs[0:2 * self.n:2], rhs[1:2 * self.n:2] = t + eps, t - eps
        return rhs

    def solve(self, lps):
        """The outcomes of the LPs ``(cell, j, Q)``, in order."""
        at, rel, rhs, counts = [], [], [], []
        simplex = 2 * self.n + self.n * self.n
        for cell, j, Q in lps:
            at += (self.heads[j], [2 * self.n + j * self.n + q for q in Q]
                   + [simplex])
            rel += (self.head_rel, self.tail_rel[len(Q)])
            rhs += (cell, self.tail_rhs[len(Q)])
            counts.append(3 * self.n + len(Q))
        return lp.feasible_stacked(self.rows[np.concatenate(at)],
                                   np.concatenate(rel), np.concatenate(rhs),
                                   counts)


class _ExactLps:
    """The exact LPs of :func:`_scan`: rows from :func:`_region_constraints`
    and :func:`baseline.region_rows`, each LP an :class:`lp.LinearProgram`
    for :func:`lp.feasible`."""

    exact = True

    def __init__(self, game, delta):
        self.m = game.m
        self.col_l, col_f = game.columns(True)
        self.opt, _, self.exclude, _ = region_rows(self.col_l, col_f,
                                                   scalar(delta, True))

    def cell(self, region):
        return _region_constraints(self.col_l, region, True)

    def solve(self, lps):
        return [lp.feasible(lp.feasibility(
            self.m, cell + self.opt.others(j)
            + tuple(self.exclude[j][q] for q in Q), simplex=True), exact=True)
            for cell, j, Q in lps]


def _anchor_search(game, lps, anchor, epsilon):
    """qptas's search of one anchor, an LP-yielding generator like
    :func:`_scan`. It binary-searches the largest verifiable level mu over
    the anchor's payoff values and returns ``(anchor, x, witness, mu)``:
    x the anchor's strategy, the witness an LP outcome as :func:`_scan`
    returns it, or ``None`` when even the smallest level fails. Only the
    returned witness's point is read, so an exact LP whose point is found
    on first read finds it once per anchor."""
    x = anchor.to_strategy(exact=lps.exact)
    payoffs = tuple(leader_payoffs(game, x, exact=lps.exact))
    cell = lps.cell(SurrogateRegion(anchor, epsilon, payoffs))
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
    return anchor, x, witness, levels[lo]


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
    eps = scalar(region.epsilon, exact)
    rows = []
    for col, t in zip(col_l, region.anchor_payoffs):
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
    lps = (_ExactLps if exact else _FloatLps)(game, delta)
    eps = scalar(epsilon, exact)
    best = None  # (rank, report, anchor, mu)
    anchors = (KUniformStrategy(counts, k) for counts in compositions(k, game.m))
    for i, (anchor, x, witness, mu) in _lockstep(
            (_anchor_search(game, lps, anchor, eps) for anchor in anchors),
            lps.solve, _window(game.m, game.n)):
        if witness is None:
            continue
        for tie, y in enumerate((strategy_from(witness.solution, exact), x)):
            rep = evaluate(game, y, delta, exact=exact)
            # the best value; of equal ones, the earliest anchor, its
            # witness first
            rank = (rep.leader_value, -i, -tie)
            if best is None or rank > best[0]:
                best = (rank, rep, anchor, mu)
    if best is None:
        raise GameFormatError("verification failed on every anchor")
    _, outcome, anchor, mu = best
    guarantee = {
        "kind": "qptas",
        "k": k,
        "anchors": total,
        "epsilon": float(epsilon),
        "floor_formula": "value >= u_rse(delta) - epsilon",
        "anchor_counts": anchor.counts,
        "verified_mu": mu,
    }
    return RseSolution(outcome, None, lp.solve_count() - first, "qptas",
                       guarantee)
