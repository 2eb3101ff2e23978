"""An independent reference for the robust value: one big-M MILP in HiGHS.

The robust value at delta is the largest relaxed region-LP optimum over
region tuples, and that is the closure of this mixed-integer program over
the leader's mixed strategy x:

* x in the simplex, the follower's best payoff v, the objective t, and
  binaries w_k (k attains v) and z_k (k is in the delta-response set);
* ``u_f(k).x <= v`` and ``v <= u_f(k).x + M (1 - w_k)``, with ``sum w = 1``;
* z_k = 0 forces ``u_f(k).x <= v - delta``, and z_k = 1 forces
  ``u_f(k).x >= v - delta``;
* ``t <= u_l(k).x + M (1 - z_k)``; maximize t.

M is the larger payoff span plus delta, so a switched-off row never binds.
It shares no code with :func:`rsekit.exact.solve_exact`: it reads the float
matrices and runs ``scipy.optimize.milp`` with ``mip_rel_gap=0``. scipy is
a test dependency only, so callers import it through
``pytest.importorskip``.
"""

import numpy as np


def milp_value(game, delta: float) -> float:
    """The MILP's optimal t for ``game`` at ``delta``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    ul, uf = np.asarray(game.u_l, float), np.asarray(game.u_f, float)
    m, n = uf.shape
    delta = float(delta)
    big = max(np.ptp(ul), np.ptp(uf)) + delta
    # Columns: x (m), v, t, w (n), z (n).
    nv = m + 2 + 2 * n
    X, V, T, W, Z = 0, m, m + 1, m + 2, m + 2 + n
    rows, lo, hi = [], [], []

    def add(coeffs, low, high):
        row = np.zeros(nv)
        for at, c in coeffs:
            row[at] += c
        rows.append(row)
        lo.append(low)
        hi.append(high)

    def dot(col, sign=1.0):  # the terms of sign * col . x
        return [(X + i, sign * c) for i, c in enumerate(col)]

    add([(X + i, 1.0) for i in range(m)], 1.0, 1.0)
    add([(W + k, 1.0) for k in range(n)], 1.0, 1.0)
    for k in range(n):
        f, g = uf[:, k], ul[:, k]
        add(dot(f) + [(V, -1.0)], -np.inf, 0.0)  # u_f(k).x <= v
        # w_k = 1: v <= u_f(k).x
        add([(V, 1.0), (W + k, big)] + dot(f, -1.0), -np.inf, big)
        # z_k = 0: u_f(k).x <= v - delta; z_k = 1: u_f(k).x >= v - delta
        add(dot(f) + [(V, -1.0), (Z + k, -big)], -np.inf, -delta)
        add([(V, 1.0), (Z + k, big)] + dot(f, -1.0), -np.inf, delta + big)
        # z_k = 1: t <= u_l(k).x
        add([(T, 1.0), (Z + k, big)] + dot(g, -1.0), -np.inf, big)
    cost = np.zeros(nv)
    cost[T] = -1.0
    integral = np.zeros(nv)
    integral[W:] = 1
    low = np.zeros(nv)
    high = np.ones(nv)
    low[V], high[V] = -np.inf, np.inf
    low[T], high[T] = -np.inf, np.inf
    res = milp(cost, constraints=LinearConstraint(np.array(rows), lo, hi),
               integrality=integral, bounds=Bounds(low, high),
               options={"mip_rel_gap": 0})
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    return -res.fun
