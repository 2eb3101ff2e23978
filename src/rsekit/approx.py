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
  levels. Quasi-polynomial in the action counts. The follower rows of
  those LPs are built once per solve, and an anchor's cell rows once per
  anchor. The anchors do not depend on each other, so up to
  :data:`SEARCH_WINDOW` of them search side by side, in enumeration order:
  each round solves the next LP of every one in one
  :func:`lp.feasible_many` batch, and finished anchors are scored in
  enumeration order, so ties still keep the earliest. Each anchor solves
  the very LPs it would solve alone, and gets the same answers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import lp
from .baseline import (induce_strategy, inducibility_gap, region_rows,
                       solve_sse)
from .errors import EnumerationCapExceeded, GameFormatError, GapTooSmall
from .exact import RseSolution
from .game import (BimatrixGame, MixedStrategy, evaluate, leader_payoffs,
                   scalar, strategy_from, tolerance)

ANCHOR_BUDGET = 2_000_000
# Anchor searches qptas_solve keeps in flight; each round solves one LP of
# each in a single lp.feasible_many batch.
SEARCH_WINDOW = 64


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
        return strategy_from([Fraction(c, self.k) for c in self.counts], exact)


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
    col_l, col_f = game.columns(exact)
    opt, _, exclude, _ = region_rows(col_l, col_f, scalar(delta, exact))
    scan = _scan(game.m, _region_constraints(col_l, region, exact), opt,
                 exclude, region.anchor_payoffs, mu, exact)
    witness = next(_lockstep([scan], exact))
    if witness is None:
        return False, None
    return True, strategy_from(witness.solution, exact)


def _scan(m, cell, opt, exclude, anchor_payoffs, mu, exact):
    """The scan of :func:`utility_verification` on prebuilt rows, as a
    generator: it yields each LP, is sent its outcome, and returns the
    witness's outcome, or ``None``. ``cell`` is the region's rows;
    ``opt.others(j)`` and ``exclude[j][q]``, from
    :func:`baseline.region_rows`, are j's best-response rows and its
    delta-margin row against q."""
    floor = scalar(mu, exact) - tolerance(exact)
    below = [t < floor for t in anchor_payoffs]
    Q = [j for j, b in enumerate(below) if b]
    for j, b in enumerate(below):
        if b:
            continue
        cons = cell + opt.others(j) + tuple(exclude[j][q] for q in Q)
        out = yield lp.feasibility(m, cons, simplex=True)
        if out.status == "optimal":
            return out
    return None


def _anchor_search(game, col_l, opt, exclude, anchor, epsilon, exact):
    """qptas's search of one anchor, an LP-yielding generator like
    :func:`_scan`. It binary-searches the largest verifiable level mu over
    the anchor's payoff values and returns ``(anchor, witness, mu)``, the
    witness an LP outcome as :func:`_scan` returns it, or ``None`` when even
    the smallest level fails. Only the returned witness's point is read, so
    an exact LP whose point is found on first read finds it once per
    anchor."""
    region = make_region(game, anchor, epsilon, exact=exact)
    cell = _region_constraints(col_l, region, exact)
    payoffs = region.anchor_payoffs
    levels = sorted(set(payoffs))
    # Largest verifiable mu; the smallest level always verifies with the
    # anchor's own best response as witness.
    lo, hi = 0, len(levels) - 1
    witness = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = yield from _scan(game.m, cell, opt, exclude, payoffs,
                                 levels[mid], exact)
        if found is not None:
            lo = mid
            witness = found
        else:
            hi = mid - 1
    if witness is None:
        witness = yield from _scan(game.m, cell, opt, exclude, payoffs,
                                   levels[lo], exact)
    return anchor, witness, levels[lo]


class _Search:
    """One generator run by :func:`_lockstep`: its pending LP, or ``None``
    and its return value once it is done."""

    __slots__ = ("gen", "lp", "result")

    def __init__(self, gen):
        self.gen, self.lp, self.result = gen, None, None
        self.send(None)

    def send(self, outcome):
        try:
            self.lp = self.gen.send(outcome)
        except StopIteration as stop:
            self.lp, self.result = None, stop.value


def _lockstep(searches, exact):
    """Run the LP-yielding generators ``searches`` side by side and yield
    their return values in the order given.

    Up to :data:`SEARCH_WINDOW` searches are in flight, taken from
    ``searches`` in order. Each round sends the pending LP of every one to
    one :func:`lp.feasible_many` call and each its own outcome back. A
    search never waits on another, so each solves the LPs it would solve
    alone.
    """
    searches = iter(searches)
    queue = deque()  # in order: the searches not yet reported
    live = []
    more = True
    while True:
        while more and len(live) < SEARCH_WINDOW:
            gen = next(searches, None)
            if gen is None:
                more = False
            else:
                queue.append(_Search(gen))
                if queue[-1].lp is not None:
                    live.append(queue[-1])
        while queue and queue[0].lp is None:
            yield queue.popleft().result
        if not live:
            return
        outcomes = lp.feasible_many([s.lp for s in live], exact=exact)
        for s, out in zip(live, outcomes):
            s.send(out)
        live = [s for s in live if s.lp is not None]


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
    col_l, col_f = game.columns(exact)
    opt, _, exclude, _ = region_rows(col_l, col_f, scalar(delta, exact))
    best = None  # (report, anchor, mu)
    anchors = (KUniformStrategy(counts, k) for counts in compositions(k, game.m))
    for anchor, witness, mu in _lockstep(
            (_anchor_search(game, col_l, opt, exclude, anchor, epsilon, exact)
             for anchor in anchors), exact):
        if witness is None:
            continue
        for x in (strategy_from(witness.solution, exact),
                  anchor.to_strategy(exact=exact)):
            rep = evaluate(game, x, delta, exact=exact)
            if best is None or rep.leader_value > best[0].leader_value:
                best = (rep, anchor, mu)
    if best is None:
        raise GameFormatError("verification failed on every anchor")
    outcome, anchor, mu = best
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
