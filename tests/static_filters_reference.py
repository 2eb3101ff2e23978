"""``rsekit.exact._static_filters`` as it ran when it read the membership
``Constraint`` rows, before it moved to the scaled integer columns.

It stays here, unchanged, as the reference: the integer routine must give
the same ``(no_member, must_member)`` masks for any follower columns and
delta. ``member_rows(col_f, d)`` builds the rows this routine reads, by
``Fraction`` subtraction as the solver built them then;
``static_filters(member, d)`` takes them.
"""

from rsekit.lp import Constraint


def member_rows(col_f, d):
    """Per j_tilde, the rows ``u_f(jt) - u_f(k) <= d`` for every k."""
    return [[Constraint(tuple(a - b for a, b in zip(top, col)), "<=", d)
             for col in col_f] for top in col_f]


def static_filters(member, d):
    """Single-row necessary conditions as bitmasks over follower actions.

    Reads the membership rows of :func:`member_rows`. For each j_tilde,
    ``no_member[jt]`` marks the k whose membership row alone has no point
    in the simplex and ``must_member[jt]`` the k whose exclusion row alone
    has none; a j_tilde that can never be optimal gets every bit of
    ``no_member``. A set mask passes when it meets no bit of the first and
    holds every bit of the second.
    """
    n = len(member)
    no_member, must_member = [0] * n, [0] * n
    for jt, rows in enumerate(member):
        if not all(any(v >= 0 for v in row.coeffs) for row in rows):
            no_member[jt] = (1 << n) - 1
            continue
        for k, row in enumerate(rows):
            if not any(v <= d for v in row.coeffs):
                no_member[jt] |= 1 << k
            if not any(v >= d for v in row.coeffs):
                must_member[jt] |= 1 << k
    return no_member, must_member
