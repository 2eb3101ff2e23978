"""Tests for the LP engine: determinism, both arithmetic modes, relation checks."""

from fractions import Fraction

import numpy as np
import pytest

from rsekit import lp
from rsekit.errors import MalformedLpError
from rsekit.lp import Constraint, LinearProgram


def test_max_first_coordinate_over_simplex():
    prog = lp.maximize([1, 0], [], simplex=True)
    out = lp.solve(prog)
    assert out.status == "optimal"
    assert out.objective_value == pytest.approx(1.0)
    assert out.solution == pytest.approx((1.0, 0.0))


def test_overcommitted_simplex_is_infeasible():
    cons = [Constraint((1, 0), ">=", 0.6), Constraint((0, 1), ">=", 0.6)]
    out = lp.feasible(lp.feasibility(2, cons, simplex=True))
    assert out.status == "infeasible"


def test_contradictory_equalities_infeasible():
    cons = [Constraint((1, 0), "==", 0), Constraint((1, 0), "==", 1)]
    out = lp.feasible(lp.feasibility(2, cons))
    assert out.status == "infeasible"


def test_empty_feasibility_over_simplex_returns_a_simplex_point():
    out = lp.feasible(lp.feasibility(3, [], simplex=True))
    assert out.status == "optimal"
    assert min(out.solution) >= 0 and sum(out.solution) == pytest.approx(1)


def _lattice_points(resolution, dims):
    """All points of the simplex lattice with the given resolution."""
    if dims == 1:
        yield (resolution,)
        return
    for head in range(resolution + 1):
        for rest in _lattice_points(resolution - head, dims - 1):
            yield (head,) + rest


def test_margin_lp_forces_unique_vertex():
    # Leader objective x1, margin constraint 0.5*x1 - x2 + x3 >= 1 over the
    # 3-simplex. A lattice scan (the independent oracle) shows the feasible
    # set collapses to the single point (0, 0, 1).
    margin_row = (0.5, -1.0, 1.0)
    feas = [
        c for c in _lattice_points(40, 3)
        if sum(m * ci / 40 for m, ci in zip(margin_row, c)) >= 1 - 1e-12
    ]
    assert feas == [(0, 0, 40)]

    prog = lp.maximize([1, 0, 0], [Constraint(margin_row, ">=", 1)], simplex=True)
    out = lp.solve(prog)
    assert out.status == "optimal"
    assert out.solution == pytest.approx((0.0, 0.0, 1.0))
    assert out.objective_value == pytest.approx(0.0)


def test_best_response_feasibility_with_margin():
    # Q-separation query: j1 weakly best everywhere and at least 0.25 above j3.
    # u_f columns: j1 = j2 = (1/2, 1/2, 1/2), j3 = (0, 0, 1/2).
    j1 = (0.5, 0.5, 0.5)
    j3 = (0.0, 0.0, 0.5)
    cons = [
        Constraint(tuple(a - b for a, b in zip(j1, j3)), ">=", 0),
        Constraint(tuple(a - b for a, b in zip(j1, j3)), ">=", 0.25),
    ]
    out = lp.feasible(lp.feasibility(3, cons, simplex=True))
    assert out.status == "optimal"
    x = out.solution
    # Hand check template: pure i2 gives margin 1/2 - 0 = 1/2 >= 0.25.
    assert sum(x) == pytest.approx(1.0)
    assert sum((a - b) * xi for a, b, xi in zip(j1, j3, x)) >= 0.25 - 1e-9


def test_strict_relations_rejected():
    # No solver emits a strict row, so the LP layer accepts only <=, >=, ==.
    for rel in ("<", ">"):
        with pytest.raises(MalformedLpError):
            Constraint((1, 0), rel, 0.5)


def test_exact_mode_returns_fractions():
    cons = [Constraint((Fraction(1), Fraction(2)), "<=", Fraction(3, 2))]
    prog = lp.maximize([Fraction(1), Fraction(1)], cons, simplex=True)
    out = lp.solve(prog, exact=True)
    assert out.status == "optimal"
    assert all(isinstance(v, Fraction) for v in out.solution)
    # x1 + 2*x2 <= 3/2 with x1 + x2 = 1 maximizing x1 + x2 -> any feasible
    # point has value exactly 1.
    assert out.objective_value == Fraction(1)


def test_exact_tight_constraints():
    cons = [
        Constraint((Fraction(1), Fraction(0)), "<=", Fraction(1, 3)),
        Constraint((Fraction(0), Fraction(1)), "<=", Fraction(9, 10)),
    ]
    prog = lp.maximize([Fraction(1), Fraction(0)], cons, simplex=True)
    out = lp.solve(prog, exact=True)
    assert out.solution == (Fraction(1, 3), Fraction(2, 3))
    tight = {i for i, con in enumerate(cons)
             if sum(c * x for c, x in zip(con.coeffs, out.solution)) == con.rhs}
    assert tight == {0}


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nv = int(rng.integers(2, 5))
        cons = [
            Constraint(tuple(rng.uniform(-1, 1, nv)), rel, float(rng.uniform(0, 1)))
            for rel in rng.choice(["<=", ">="], size=int(rng.integers(1, 4)))
        ]
        prog = lp.maximize(tuple(rng.uniform(-1, 1, nv)), cons, simplex=True)
        a = lp.solve(prog)
        b = lp.solve(prog)
        assert a == b


def test_solutions_satisfy_constraints():
    rng = np.random.default_rng(11)
    seen_optimal = 0
    for _ in range(50):
        nv = int(rng.integers(2, 6))
        cons = [
            Constraint(tuple(rng.uniform(-1, 1, nv)), "<=", float(rng.uniform(0.2, 1)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        prog = lp.maximize(tuple(rng.uniform(-1, 1, nv)), cons, simplex=True)
        out = lp.solve(prog)
        if out.status != "optimal":
            continue
        seen_optimal += 1
        x = out.solution
        assert abs(sum(x) - 1) <= 1e-8
        assert all(v >= -1e-9 for v in x)
        for con in cons:
            assert sum(c * xi for c, xi in zip(con.coeffs, x)) <= con.rhs + 1e-8
    assert seen_optimal > 20


def test_duality_spot_check_negated_objective():
    rng = np.random.default_rng(3)
    for _ in range(20):
        nv = int(rng.integers(2, 5))
        obj = tuple(float(v) for v in rng.uniform(-1, 1, nv))
        cons = [
            Constraint(tuple(rng.uniform(-1, 1, nv)), "<=", float(rng.uniform(0.2, 1)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        hi = lp.solve(lp.maximize(obj, cons, simplex=True))
        neg = LinearProgram(nv, tuple(-v for v in obj), "min", tuple(cons), True)
        lo = lp.solve(neg)
        if hi.status == "optimal":
            assert lo.status == "optimal"
            assert lo.objective_value == pytest.approx(-hi.objective_value, abs=1e-9)


def test_malformed_lp_rejected():
    with pytest.raises(MalformedLpError):
        LinearProgram(2, (1,), "max", (), True)
    with pytest.raises(MalformedLpError):
        Constraint((1, 2), "!=", 0)
    with pytest.raises(MalformedLpError):
        LinearProgram(2, (1, 0), "max", (Constraint((1,), "<=", 1),), False)
    with pytest.raises(MalformedLpError, match="feasibility LP"):
        lp.feasible(lp.maximize([1, 0], [], simplex=True))


def test_unbounded_detected():
    prog = lp.maximize([1, 1], [Constraint((1, -1), "<=", 0)])
    out = lp.solve(prog)
    assert out.status == "unbounded"
