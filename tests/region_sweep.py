"""Every region tuple, one LP each: the reference for the cuts of
``rsekit.exact.solve_exact``.

``sweep(game, delta)`` solves the objective LP of every (S, j_tilde, j) in
the order of ``solve_exact``, with no static filter, bound cut or
feasibility gate, in exact arithmetic, and keeps the first maximizer. Its
LPs hold the same rows in the same order as ``solve_exact``'s, so the two
must return the same value, chosen tuple and exact strategy, and the sweep
never solves fewer objective LPs. With its feasibility gates
``solve_exact`` can solve more LPs in all on a small game.
"""

from fractions import Fraction
from itertools import combinations

from rsekit import lp
from rsekit.baseline import region_rows
from rsekit.exact import RegionTuple, RseSolution
from rsekit.game import ResponseSet, evaluate, exact_strategy


def sweep(game, delta) -> RseSolution:
    first = lp.solve_count()
    col_l, col_f = game.columns(True)
    d = Fraction(delta)
    opt, member, exclude, leader = region_rows(col_l, col_f, d)
    n = game.n
    best = None  # (objective, RegionTuple, solution)
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            outside = [k for k in range(n) if k not in S]
            for jt in S:
                region = (opt.others(jt)
                          + tuple(member[jt][k] for k in S if k != jt)
                          + tuple(exclude[jt][k] for k in outside))
                for j in S:
                    cons = region + tuple(leader[j][k] for k in S if k != j)
                    out = lp.solve(lp.maximize(col_l[j], cons, simplex=True),
                                   exact=True)
                    if out.status == "optimal" and (
                            best is None or out.objective_value > best[0]):
                        best = (out.objective_value,
                                RegionTuple(ResponseSet(S), jt, j),
                                out.solution)
    _, tup, xs = best
    outcome = evaluate(game, exact_strategy(xs), d, exact=True)
    return RseSolution(outcome, tup, lp.solve_count() - first, "exact")
