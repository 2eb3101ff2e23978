"""The two-phase Bland simplex in ``Fraction`` arithmetic, as ``rsekit.lp``
ran it before exact mode moved to an integer-preserving tableau.

It stays here, unchanged, as an independent reference: the exact kernel
must make the same pivot decisions and so return the same status, point,
tight set and phase-1 duals. ``simplex(prog.num_vars, rows(prog),
objective(prog), True)`` solves an LP; :func:`rows` and :func:`objective`
build its ``Fraction`` rows from each constraint's ``coeffs``,
``relation``, ``rhs`` and ``scale``, with no ``rsekit.lp`` conversion.
"""

from fractions import Fraction

from rsekit.errors import SolverFailure
from rsekit.lp import FEASIBILITY_TOL, PIVOT_TOL


def row(con):
    """``(coeffs, relation, rhs)`` of the constraint ``con`` in ``Fraction``
    arithmetic: each entry over ``con.scale``, a float read exactly."""
    return (tuple(Fraction(v) / con.scale for v in con.coeffs), con.relation,
            Fraction(con.rhs) / con.scale)


def rows(prog):
    """The ``Fraction`` rows of ``prog``'s constraints, then its simplex
    row if it has one."""
    out = [row(con) for con in prog.constraints]
    if prog.simplex_constraint:
        out.append(((Fraction(1),) * prog.num_vars, "==", Fraction(1)))
    return out


def objective(prog):
    """``prog``'s objective in ``Fraction`` arithmetic, in max form."""
    if prog.sense == "feasibility":
        return [Fraction(0)] * prog.num_vars
    sign = -1 if prog.sense == "min" else 1
    return [sign * Fraction(v) for v in prog.objective]


def simplex(num_vars: int, rows, objective, exact: bool):
    """Maximize objective . x subject to rows, x >= 0.

    rows: list of (coeffs, rel in {"<=", ">=", "=="}, rhs).
    Returns ``(status, x, evidence)``. Evidence backs the status for the
    exact certificate: when infeasible, the phase-1 dual of every row in
    the orientation given (<= 0 on ``<=`` rows, >= 0 on ``>=`` rows, up to
    pivot noise); when optimal, the keys of the constraints the final basis
    holds tight (a row index, or ``len(rows) + i`` for ``x_i = 0``).
    """
    # Exact mode has no tolerances: a test against 0 is an exact test.
    zero, one, tol, feas_tol = ((Fraction(0), Fraction(1), 0, 0) if exact
                                else (0.0, 1.0, PIVOT_TOL, FEASIBILITY_TOL))

    # Normalize to rhs >= 0, preferring "<=" rows (slack-basic, no
    # artificial): flip ">=" rows whenever their rhs is nonpositive.
    norm = []
    flipped = []
    for coeffs, rel, rhs in rows:
        flip = rhs < 0 or (rel == ">=" and rhs == 0)
        if flip:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rel, rhs))
        flipped.append(flip)

    n_slack = sum(1 for _, rel, _ in norm if rel != "==")
    # artificial vars for ">=" and "==" rows
    art_rows = [i for i, (_, rel, _) in enumerate(norm) if rel != "<="]
    n_art = len(art_rows)
    n_total = num_vars + n_slack + n_art

    m = len(norm)
    tableau = [[zero] * (n_total + 1) for _ in range(m)]
    basis = [-1] * m
    slack_col = [-1] * m
    art_col = [-1] * m
    s_at = num_vars
    a_at = num_vars + n_slack
    for r, (coeffs, rel, rhs) in enumerate(norm):
        for j, c in enumerate(coeffs):
            tableau[r][j] = c
        tableau[r][n_total] = rhs
        if rel != "==":
            tableau[r][s_at] = one if rel == "<=" else -one
            slack_col[r] = s_at
            s_at += 1
        if rel != "<=":
            art_col[r] = a_at
            a_at += 1
            tableau[r][art_col[r]] = one
        basis[r] = slack_col[r] if rel == "<=" else art_col[r]

    art_start = num_vars + n_slack
    keep = list(range(m))

    if n_art:
        # Phase 1: minimize sum of artificials.
        cost = [zero] * (n_total + 1)
        for j in range(art_start, n_total):
            cost[j] = one
        for r in range(m):
            if basis[r] >= art_start:
                row = tableau[r]
                for j in range(n_total + 1):
                    cost[j] = cost[j] - row[j]
        status = _pivot_until_optimal(tableau, basis, cost, n_total, tol,
                                      blocked_from=None)
        if status == "unbounded":  # cannot happen for a bounded-below phase 1
            raise SolverFailure("phase 1 reported unbounded")
        phase1_val = -cost[n_total]
        if abs(phase1_val) > feas_tol:
            # Reduced cost of a column = its phase-1 cost minus y . column.
            duals = []
            for r, (_, rel, _) in enumerate(norm):
                if rel == "==":
                    y = one - cost[art_col[r]]
                else:
                    y = cost[slack_col[r]] if rel == ">=" else -cost[slack_col[r]]
                duals.append(-y if flipped[r] else y)
            return "infeasible", None, duals
        # Drive remaining artificials out of the basis (or drop unit rows).
        keep = []
        for r in range(m):
            if basis[r] >= art_start:
                pivot_col = -1
                for j in range(art_start):
                    v = tableau[r][j]
                    if v > tol or v < -tol:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, r, pivot_col)
                    keep.append(r)
                # else: redundant row, skip it entirely below
            else:
                keep.append(r)
        if len(keep) != m:
            tableau = [tableau[r] for r in keep]
            basis = [basis[r] for r in keep]
            m = len(keep)

    # Phase 2: maximize objective. Work with cost row for min(-objective).
    cost = [zero] * (n_total + 1)
    for j in range(num_vars):
        cost[j] = -objective[j]
    for r in range(m):
        b = basis[r]
        cb = cost[b]
        if cb != 0:
            row = tableau[r]
            for j in range(n_total + 1):
                cost[j] = cost[j] - cb * row[j]
    status = _pivot_until_optimal(tableau, basis, cost, n_total, tol,
                                  blocked_from=art_start if n_art else None)
    if status == "unbounded":
        return "unbounded", None, None

    x = [zero] * num_vars
    for r in range(m):
        if basis[r] < num_vars:
            x[basis[r]] = tableau[r][n_total]
    x = [zero if -tol < v < tol else v for v in x]
    basic = set(basis)
    tight = [r for r in keep if slack_col[r] < 0 or slack_col[r] not in basic]
    tight += [len(rows) + i for i in range(num_vars) if i not in basic]
    return "optimal", x, tight


def _pivot_until_optimal(tableau, basis, cost, n_total, tol, blocked_from):
    """Bland pivoting on the cost row until no negative reduced cost remains.

    ``blocked_from`` excludes columns at or past that index (artificials in
    phase 2) from entering the basis.
    """
    limit = n_total if blocked_from is None else blocked_from
    while True:
        enter = -1
        for j in range(limit):
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # Ratio test; ties broken by smallest basic variable index (Bland).
        leave = -1
        best = None
        for r in range(len(tableau)):
            a = tableau[r][enter]
            if a > tol:
                ratio = tableau[r][n_total] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, leave, enter, cost)


def _pivot(tableau, basis, r, c, cost=None):
    row = tableau[r]
    piv = row[c]
    for j in range(len(row)):
        row[j] = row[j] / piv
    row[c] = piv / piv  # exactly one, also in float
    for rr in range(len(tableau)):
        if rr == r:
            continue
        other = tableau[rr]
        f = other[c]
        if f == 0:
            continue
        for j in range(len(row)):
            other[j] = other[j] - f * row[j]
        other[c] = 0 * f  # kill residual noise in float mode
    if cost is not None:
        f = cost[c]
        if f != 0:
            for j in range(len(row)):
                cost[j] = cost[j] - f * row[j]
            cost[c] = 0 * f
    basis[r] = c
