"""The one-LP float simplex, as the reference for the lockstep kernel.

``solve(prog)`` runs ``lp._simplex`` in doubles on the
:attr:`~rsekit.lp.Constraint.float_row` of each of ``prog``'s rows and
returns the :class:`~rsekit.lp.LpOutcome` it finds: the status, the point
and, for ``max``/``min``, the value in doubles. ``lp.feasible_stacked`` and
float qptas must give each LP this outcome, to the last bit, so they are
checked against a solve of each LP alone, not against themselves.
"""

from fractions import Fraction

from rsekit import lp
from rsekit.baseline import region_rows


def canonical(prog):
    """``(rows, objective)`` in doubles, the objective in max form: the
    float twin of each row, then the simplex row, if ``prog`` has it."""
    rows = [con.float_row for con in prog.constraints]
    if prog.simplex_constraint:
        rows.append(((1.0,) * prog.num_vars, "==", 1.0))
    if prog.sense == "feasibility":
        return rows, [0.0] * prog.num_vars
    sign = 1.0 if prog.sense == "max" else -1.0
    return rows, [sign * float(v) for v in prog.objective]


def solve(prog):
    """The float simplex's outcome of ``prog``, alone; like ``lp.solve``,
    it counts as one LP in ``lp.solve_count``."""
    lp._solves += 1
    rows, objective = canonical(prog)
    status, x, _ = lp._simplex(prog.num_vars, rows, objective, False)
    if status != "optimal":
        return lp.LpOutcome(status, None, None)
    value = None
    if prog.sense != "feasibility":
        val = sum(c * xi for c, xi in zip(objective, x))
        value = val if prog.sense == "max" else -val
    return lp.LpOutcome("optimal", tuple(x), value)


def region_rows_of_doubles(col_l, col_f, d):
    """``baseline.region_rows`` of float columns and a float ``d``, each
    double read as the rational it is. The float twin of each row is then
    the doubles ``u_f(j) - u_f(k)`` and ``d`` of float arithmetic, since a
    double subtraction rounds the exact difference correctly."""
    def rational(cols):
        return tuple(tuple(map(Fraction, col)) for col in cols)

    return region_rows(rational(col_l), rational(col_f), Fraction(d))
