"""``rsekit.approx.qptas_solve`` as it ran before its anchors' searches
moved to lockstep batches: one anchor at a time, each candidate's LP
solved alone by ``lp.feasible``.

It stays here, unchanged, as the reference: the lockstep solve must return
the same strategy, value, response set, anchor, verified level and LP
count. ``qptas_solve(game, delta, epsilon, exact=...)`` takes the
arguments of ``rsekit.approx.qptas_solve``.
"""

import math

from rsekit import lp
from rsekit.approx import (ANCHOR_BUDGET, KUniformStrategy, _region_constraints,
                           build_k, compositions, make_region)
from rsekit.baseline import region_rows
from rsekit.errors import EnumerationCapExceeded, GameFormatError
from rsekit.exact import RseSolution
from rsekit.game import (BimatrixGame, evaluate, scalar, strategy_from,
                         tolerance)


def _verify(m, cell, opt, exclude, anchor_payoffs, mu, exact):
    """:func:`utility_verification` on prebuilt rows: the region's ``cell``
    rows, and ``opt`` and ``exclude`` from :func:`baseline.region_rows`, whose
    ``opt.others(j)`` and ``exclude[j][q]`` are j's best-response rows and its
    delta-margin row against q."""
    floor = scalar(mu, exact) - tolerance(exact)
    below = [t < floor for t in anchor_payoffs]
    Q = [j for j, b in enumerate(below) if b]
    for j, b in enumerate(below):
        if b:
            continue
        cons = cell + opt.others(j) + tuple(exclude[j][q] for q in Q)
        out = lp.feasible(lp.feasibility(m, cons, simplex=True), exact=exact)
        if out.status == "optimal":
            return True, strategy_from(out.solution, exact)
    return False, None


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
    for counts in compositions(k, game.m):
        anchor = KUniformStrategy(counts, k)
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
            ok, x = _verify(game.m, cell, opt, exclude, payoffs, levels[mid],
                            exact)
            if ok:
                lo = mid
                witness = x
            else:
                hi = mid - 1
        if witness is None:
            ok, witness = _verify(game.m, cell, opt, exclude, payoffs,
                                  levels[lo], exact)
            if not ok:
                continue
        for x in (witness, anchor.to_strategy(exact=exact)):
            rep = evaluate(game, x, delta, exact=exact)
            if best is None or rep.leader_value > best[0].leader_value:
                best = (rep, anchor, levels[lo])
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
