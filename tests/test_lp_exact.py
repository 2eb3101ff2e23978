"""Exact-mode LP: every answer must equal the ``Fraction`` simplex's.

``lp.solve(..., exact=True)`` keeps a float simplex answer only after proving
it in rationals and otherwise falls back to the integer-preserving tableau.
When the float basis proves the status, or the value, but not the point, the
point is found on the integer tableau when it is first read.
The reference here is the ``Fraction`` simplex of ``fraction_simplex.py``,
which shares no code with either; every ``LpOutcome`` field that takes part
in equality must match it exactly. The Farkas support an infeasible outcome
carries is checked on its own: its rows alone must be infeasible under the
same reference. The kernel tests below also compare the integer tableau
with the reference directly, status, point, tight set and duals.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import farkas_reference
import fraction_simplex
from rsekit import baseline, lab, lp
from rsekit.lp import Constraint, LinearProgram, LpOutcome


def reference(prog: LinearProgram) -> LpOutcome:
    """The ``Fraction`` simplex on ``prog``, without the float pass."""
    return kernel_outcome(prog, fraction_simplex.simplex)[0]


def kernel_outcome(prog: LinearProgram, simplex):
    """``(outcome, evidence)`` of ``simplex`` alone on ``prog``; an
    infeasible outcome carries the support of its own duals' certificate.
    The integer tableau reads the integer rows, the reference the
    ``Fraction`` rows."""
    objective = fraction_simplex.objective(prog)
    rows = (lp._int_rows(prog) if simplex is lp._simplex
            else fraction_simplex.rows(prog))
    status, x, evidence = simplex(prog.num_vars, rows, objective, True)
    if status != "optimal":
        support = None
        if status == "infeasible":
            support = lp._farkas(prog.num_vars, lp._int_rows(prog), evidence,
                                 prog.simplex_constraint)
        return LpOutcome(status, None, None, support), evidence
    value = None
    if prog.sense != "feasibility":
        value = sum(c * xi for c, xi in zip(objective, x))
        value = value if prog.sense == "max" else -value
    return LpOutcome("optimal", tuple(x), value), evidence


def assert_same(prog):
    got = lp.solve(prog, exact=True)
    want = reference(prog)
    assert got == want, prog
    for v in (got.solution or ()) + (got.objective_value,):
        assert v is None or type(v) is Fraction
    assert_support_proves(prog, got)
    return got


def assert_support_proves(prog, out):
    """A support appears only on infeasible outcomes, and its rows alone
    (with the simplex row, if ``prog`` has one) are infeasible under the
    ``Fraction`` simplex."""
    if out.support is None:
        return
    assert out.status == "infeasible"
    assert list(out.support) == sorted(set(out.support))
    rows = tuple(prog.constraints[r] for r in out.support)
    reduced = lp.feasibility(prog.num_vars, rows,
                             simplex=prog.simplex_constraint)
    assert reference(reduced).status == "infeasible", reduced


def _grid(rng, q):
    return Fraction(rng.randint(-q, q), q)


def random_lp(rng: random.Random, num_vars=(1, 5), num_rows=(0, 7),
              anchored=False) -> LinearProgram:
    """An LP on a rational grid, its size drawn from the two ranges;
    duplicated rows and ties are common. Every row of an ``anchored`` LP
    holds at one random point of the simplex, so the LP is feasible."""
    nv = rng.randint(*num_vars)
    q = rng.choice([1, 2, 3, 10])
    if anchored:
        weights = [rng.randint(0, q) for _ in range(nv - 1)] + [1]
        point = [Fraction(w, sum(weights)) for w in weights]
    cons = []
    for _ in range(rng.randint(*num_rows)):
        rel = rng.choice(["<=", ">=", "<=", ">=", "=="])
        coeffs = tuple(_grid(rng, q) for _ in range(nv))
        rhs = _grid(rng, q)
        if anchored:
            at = sum(c * v for c, v in zip(coeffs, point))
            rhs = {"<=": at + abs(rhs), ">=": at - abs(rhs), "==": at}[rel]
        cons.append(Constraint(coeffs, rel, rhs))
        if rng.random() < 0.15:
            cons.append(cons[-1])
    sense = rng.choice(["max", "min", "feasibility"])
    objective = (None if sense == "feasibility"
                 else tuple(_grid(rng, q) for _ in range(nv)))
    return LinearProgram(nv, objective, sense, tuple(cons), rng.random() < 0.7)


@pytest.mark.parametrize("seed", range(4))
def test_random_grid_lps_match_fraction_simplex(seed, fallbacks):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(300):
        before = fallbacks[0]
        prog = random_lp(rng)
        out = assert_same(prog)
        statuses.add(out.status)
        # Rounded float duals (phase 1's, or the Farkas dual's of a
        # feasibility LP over the simplex) prove every infeasible LP here.
        assert out.status != "infeasible" or fallbacks[0] == before
        assert (out.support is not None) == (out.status == "infeasible")
        assert lp.solve(prog).support is None  # float mode proves nothing
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert fallbacks[0] < 100


def test_baseline_lps_match_fraction_simplex(monkeypatch):
    """The no-simplex-row LPs of maximin and the inducibility gap included."""
    seen = []
    solve = lp.solve

    def recording(prog, *, exact=False):
        seen.append(prog)
        return solve(prog, exact=exact)

    monkeypatch.setattr(lp, "solve", recording)
    for seed in range(6):
        game = lab.gen_random(2 + seed % 3, 2 + seed % 4, seed, rational_grid=4)
        baseline.solve_sse(game, exact=True)
        baseline.solve_maximin(game, exact=True)
        baseline.inducibility_gap(game, exact=True)
    monkeypatch.setattr(lp, "solve", solve)
    assert any(not p.simplex_constraint for p in seen)
    for prog in seen:
        assert_same(prog)


def test_unique_vertex_is_certified_without_fallback(fallbacks):
    out = assert_same(FEASIBLE)  # defined with the adversarial cases below
    assert out.solution == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert out.objective_value == Fraction(7, 6)
    assert fallbacks[0] == 0


# Two rows, the simplex row and x3 >= 0 are tight at (1/2, 1/2, 0): a
# degenerate vertex of a gate with more points than that one.
DEGENERATE_GATE = lp.feasibility(3, [Constraint((1, 0, 0), "<=", Fraction(1, 2)),
                                     Constraint((0, 1, 0), "<=", Fraction(1, 2))],
                                 simplex=True)


@pytest.mark.parametrize("name", ["tied", "degenerate gate"])
def test_status_and_value_proven_before_the_point(name, fallbacks):
    """The float basis proves the status, and the value of the tied LP,
    with no integer-tableau run. The point is the reference simplex's,
    found by one run on its first read and kept."""
    prog, value = {"tied": (TIED, 1),
                   "degenerate gate": (DEGENERATE_GATE, None)}[name]
    out = lp.solve(prog, exact=True)
    assert (out.status, out.objective_value, out.support) == \
        ("optimal", value, None)
    assert value is None or type(out.objective_value) is Fraction
    assert fallbacks[0] == 0
    x = out.solution
    assert fallbacks[0] == 1
    assert out.solution is x and out == out and fallbacks[0] == 1
    assert out == reference(prog) and x == reference(prog).solution
    assert all(type(v) is Fraction for v in x)


# Degenerate optima whose float basis holds one, then two, inequalities
# with a zero multiplier; a row tight at the vertex but out of the basis
# still makes the vertex the only optimum.
ONE_ZERO = lp.maximize((1, 1), [Constraint((1, 0), "<=", 1),
                                Constraint((1, 1), "<=", 2),
                                Constraint((0, 1), "<=", 1)])
TWO_ZEROS = lp.maximize((1, 1, 1), [Constraint((1, 0, 0), "<=", 1),
                                    Constraint((0, 1, 0), "<=", 1),
                                    Constraint((1, 1, 1), "<=", 3),
                                    Constraint((0, 0, 1), "<=", 1)])
# The same two rows and the simplex row in two dimensions: the gate's only
# point is (1/2, 1/2).
SINGLE_POINT_GATE = lp.feasibility(2, [Constraint((1, 0), "<=", Fraction(1, 2)),
                                       Constraint((0, 1), "<=", Fraction(1, 2))],
                                   simplex=True)


@pytest.mark.parametrize("name, zeros, runs", [
    ("one zero multiplier", 1, 0), ("two zero multipliers", 2, 0),
    ("single-point gate", 1, 0), ("tied", 1, 1), ("degenerate gate", 2, 1)])
def test_unique_optimum_is_proven_from_its_vertex(name, zeros, runs,
                                                  fallbacks):
    """A point found on first read is the float basis's vertex, with no
    integer-tableau run, when the optimal face is proven to be that one
    point; otherwise one run finds it. Either way the state held for the
    read is dropped."""
    prog = {"one zero multiplier": ONE_ZERO, "two zero multipliers": TWO_ZEROS,
            "single-point gate": SINGLE_POINT_GATE, "tied": TIED,
            "degenerate gate": DEGENERATE_GATE}[name]
    out = lp.solve(prog, exact=True)
    _, (_, _, _, free) = out.__dict__["_pending"]
    assert len(free) == zeros
    assert out.solution == reference(prog).solution
    assert all(type(v) is Fraction for v in out.solution)
    assert fallbacks[0] == runs
    assert "_pending" not in out.__dict__
    assert out == reference(prog)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rng=st.randoms(use_true_random=False))
def test_points_proven_without_the_tableau_are_the_reference_points(
        rng, fallbacks):
    prog = random_lp(rng, (2, 4), (1, 6))
    before = fallbacks[0]
    out = lp.solve(prog, exact=True)
    if out.status == "optimal":
        x = out.solution
        if fallbacks[0] == before:
            assert x == reference(prog).solution, prog


def test_face_proofs_spare_the_tableau_on_random_lps(fallbacks):
    """Of the random LPs whose point is left to its first read, some are
    proven unique from the vertex (no run) and some are not (one run)."""
    rng = random.Random(7)
    runs = []
    for _ in range(400):
        prog = random_lp(rng, (2, 4), (1, 6))
        out = lp.solve(prog, exact=True)
        if "_pending" in out.__dict__:
            before = fallbacks[0]
            assert out.solution == reference(prog).solution, prog
            runs.append(fallbacks[0] - before)
    assert runs.count(0) >= 10 and runs.count(1) >= 10, runs
    assert set(runs) == {0, 1}


def test_degenerate_vertex_and_duplicated_rows():
    # Three rows meet at (1/2, 1/2) in two dimensions; one is repeated.
    half = Fraction(1, 2)
    cons = [Constraint((1, 0), "<=", half), Constraint((0, 1), "<=", half),
            Constraint((1, 1), "<=", 1), Constraint((1, 1), "<=", 1),
            Constraint((1, -1), "==", 0), Constraint((1, -1), "==", 0)]
    for objective in ((1, 1), (1, 0), (2, 1), (-1, -1)):
        assert_same(lp.maximize(objective, cons))
    assert_same(lp.feasibility(2, cons))
    assert_same(lp.maximize((1, 1), cons[2:], simplex=True))


def test_tied_optima_match_fraction_simplex():
    # Every point of the face x1 + x2 = 1 is optimal; the tie must resolve
    # to the same vertex as the Fraction simplex.
    for nv in range(1, 6):
        tied = LinearProgram(nv, (1,) * nv, "max", (), True)
        assert_same(tied)
        assert_same(LinearProgram(nv, (1,) * nv, "min",
                                  (Constraint((1,) * nv, ">=", 1),), False))
    assert_same(lp.maximize((1, 1, 0), [Constraint((0, 0, 1), "<=", 0)],
                            simplex=True))


@pytest.mark.parametrize("exponent", [6, 9])
@pytest.mark.parametrize("simplex", [True, False])
def test_thin_infeasibility_margin(exponent, simplex, fallbacks):
    # x1 >= 1/2 + eps and x2 >= 1/2 + eps cannot fit under x1 + x2 <= 1.
    # At eps = 1e-9 the float pass sees a feasible point within tolerance.
    eps = Fraction(1, 10 ** exponent)
    cons = [Constraint((1, 0), ">=", Fraction(1, 2) + eps),
            Constraint((0, 1), ">=", Fraction(1, 2) + eps)]
    if not simplex:
        cons.append(Constraint((1, 1), "<=", 1))
    for prog in (lp.feasibility(2, cons, simplex=simplex),
                 lp.maximize((1, 0), cons, simplex=simplex)):
        assert assert_same(prog).status == "infeasible"
    for prog in (lp.feasibility(2, cons, simplex=simplex),
                 lp.maximize((1, 0), cons, simplex=simplex)):
        # Certified by the float pass at 1e-6 and by the Fraction
        # simplex's own duals at 1e-9: both name the rows they used.
        assert lp.solve(prog, exact=True).support is not None
    if exponent == 6:
        assert fallbacks[0] == 0
    else:
        assert lp.feasible(lp.feasibility(2, cons, simplex=simplex)).status \
            == "optimal"  # float mode alone gets this one wrong


def test_highs_agrees_on_status_and_objective():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    codes = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    checked = 0
    for _ in range(200):
        prog = random_lp(rng)
        if prog.sense == "feasibility":
            continue
        out = lp.solve(prog, exact=True)
        sign = -1 if prog.sense == "max" else 1
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in prog.constraints:
            row, rhs = [float(c) for c in con.coeffs], float(con.rhs)
            if con.relation == "==":
                a_eq.append(row), b_eq.append(rhs)
            else:
                flip = 1 if con.relation == "<=" else -1
                a_ub.append([flip * c for c in row]), b_ub.append(flip * rhs)
        if prog.simplex_constraint:
            a_eq.append([1.0] * prog.num_vars), b_eq.append(1.0)
        res = optimize.linprog([sign * float(c) for c in prog.objective],
                               A_ub=a_ub or None, b_ub=b_ub or None,
                               A_eq=a_eq or None, b_eq=b_eq or None,
                               bounds=[(0, None)] * prog.num_vars,
                               method="highs")
        assert codes.get(res.status) == out.status, prog
        if out.status == "optimal":
            assert sign * res.fun == pytest.approx(float(out.objective_value),
                                                   abs=1e-9)
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# The integer tableau on its own, against the Fraction simplex.
# ---------------------------------------------------------------------------

def assert_kernel_matches(prog):
    """The integer tableau, with no float pass, against the reference: the
    same outcome, the same tight set or duals, the same Farkas support."""
    got, got_evidence = kernel_outcome(prog, lp._simplex)
    want, want_evidence = kernel_outcome(prog, fraction_simplex.simplex)
    assert got == want, prog
    assert got.support == want.support
    assert got_evidence == want_evidence
    assert_same(prog)
    return got


@pytest.fixture
def seen(monkeypatch):
    """What the integer tableau met: drive-out pivot entries, redundant rows
    dropped, and ratio tests with more than one row at the minimum ratio."""
    met = {"drive_out": [], "dropped": 0, "ties": 0}

    class Watched(lp._IntTableau):
        def __init__(self, rows, basis):
            super().__init__(rows, basis)
            self.m = len(rows)

        def pivot(self, r, c):
            if self.cost is None:
                met["drive_out"].append(self.rows[r][c])
            super().pivot(r, c)

        def set_cost(self, cost):
            met["dropped"] += self.m - len(self.rows)
            self.m = len(self.rows)
            super().set_cost(cost)

        def leaving(self, enter):
            ratios = [Fraction(row[-1], row[enter]) for row in self.rows
                      if row[enter] > 0]
            met["ties"] += ratios.count(min(ratios, default=0)) > 1
            return super().leaving(enter)

    monkeypatch.setattr(lp, "_IntTableau", Watched)
    return met


def test_artificial_driven_out_on_a_negative_entry(seen):
    # Phase 1 ends with the simplex row's artificial basic at zero; its row
    # reads -x2 + x3 first, so it leaves on a negative pivot entry.
    third = Fraction(1, 3)
    prog = lp.maximize((2, -2, -1), [Constraint((0, -third, third), ">=",
                                                third)], simplex=True)
    out = assert_kernel_matches(prog)
    assert out.solution == (0, 0, 1)
    assert min(seen["drive_out"]) < 0


def test_redundant_equality_dropped_after_phase_1(seen):
    # The second row is the simplex row over 3: its artificial stays basic
    # on a zero row after phase 1, and the row is dropped.
    third = Fraction(1, 3)
    cons = [Constraint((third, third, third), "==", third),
            Constraint((1, -1, 0), "<=", Fraction(1, 5)),
            Constraint((0, 1, -1), ">=", Fraction(1, 7))]
    for prog in (lp.maximize((1, 0, 0), cons, simplex=True),
                 lp.feasibility(3, cons, simplex=True)):
        out = assert_kernel_matches(prog)
        assert out.status == "optimal"
    assert seen["dropped"] >= 2


def test_coprime_denominators_and_a_fractional_objective():
    f = Fraction
    cons = [Constraint((f(1, 7), f(2, 11), f(3, 13)), "<=", f(1, 2)),
            Constraint((f(3, 7), f(-1, 11), f(1, 13)), ">=", f(1, 77)),
            Constraint((f(1, 13), f(1, 7), f(-1, 11)), "==", f(1, 91))]
    objective = (f(1, 2), f(-1, 3), f(2, 5))
    for simplex in (True, False):
        out = assert_kernel_matches(lp.maximize(objective, cons,
                                                simplex=simplex))
        assert out.status == "optimal"
        assert all(v.denominator > 1 for v in out.solution if v)


def test_unbounded_after_phase_1():
    # Phase 1 pivots x1 in; then (1, 1) raises the objective forever.
    cons = [Constraint((1, -1), "<=", Fraction(1, 2)),
            Constraint((Fraction(1, 3), -Fraction(1, 7)), ">=",
                       Fraction(1, 5))]
    assert assert_kernel_matches(lp.maximize((1, Fraction(1, 3)), cons)
                                 ).status == "unbounded"
    assert assert_kernel_matches(lp.maximize((-1, 0), cons)).status \
        == "optimal"


def test_degenerate_ratio_tie_goes_to_the_smallest_basic_index(seen):
    # x2 enters at the vertex 0, where rows 1 and 2 both bound it by 0.
    cons = [Constraint((2, 1), "<=", 2), Constraint((-2, 1), "<=", 0),
            Constraint((-1, 2), "<=", 0)]
    for objective in ((-1, 2), (1, 2)):
        assert_kernel_matches(lp.maximize(objective, cons))
    assert seen["ties"] > 0


@pytest.mark.parametrize("anchored", [False, True])
def test_larger_grid_lps_match_on_the_kernel(anchored):
    """Up to 10 variables by 16 rows, so that tableau entries grow; the
    anchored LPs are feasible, so phase 2 runs on them too."""
    rng = random.Random(10 + anchored)
    statuses = set()
    for _ in range(20):
        prog = random_lp(rng, (8, 10), (12, 16), anchored)
        statuses.add(assert_kernel_matches(prog).status)
    assert statuses == ({"optimal"} if anchored else {"infeasible"})


# ---------------------------------------------------------------------------
# Adversarial float pass: a lying float answer must never leak through.
# ---------------------------------------------------------------------------

FEASIBLE = lp.maximize((1, 2, 0), [Constraint((0, 1, 0), "<=", Fraction(1, 3)),
                                   Constraint((1, 0, 0), "<=", Fraction(1, 2))],
                       simplex=True)
INFEASIBLE = lp.maximize((1, 0), [Constraint((1, 0), ">=", Fraction(2, 3)),
                                  Constraint((0, 1), ">=", Fraction(2, 3))],
                         simplex=True)
# Loose rows that would be infeasible as equalities: a wrongly signed dual
# turns them into a fake Farkas certificate unless it is clipped.
LOOSE_LE = lp.maximize((1, 0), [Constraint((1, 0), "<=", 2)], simplex=True)
LOOSE_GE = lp.maximize((1, 0), [Constraint((1, 0), ">=", -1)], simplex=True)
BOX = lp.maximize((1, 1), [Constraint((1, 0), "<=", 1),
                          Constraint((0, 1), "<=", 1)])
# Every point with x3 = 0 is optimal; the Fraction simplex picks one.
TIED = lp.maximize((1, 1, 0), [], simplex=True)
# The row alone admits x1 = -1 with a strict multiplier; x1 >= 0 forbids it.
NEGATIVE = LinearProgram(1, (-1,), "max", (Constraint((1,), ">=", -1),), False)


def _lie(monkeypatch, *answer):
    monkeypatch.setattr(lp, "_float_pass", lambda *args: answer)


@pytest.mark.parametrize("prog, duals", [
    (FEASIBLE, [0.0, 0.0, 0.0]), (FEASIBLE, [-1.0, -1.0, 5.0]),
    (FEASIBLE, [1.0, 1.0, -1.0]), (FEASIBLE, [-3.0, 0.5, 0.0]),
    (FEASIBLE, [float("nan"), 0.0, 0.0]), (FEASIBLE, [float("inf"), 0.0, 0.0]),
    (LOOSE_LE, [1.0, 0.0]), (LOOSE_GE, [-1.0, 0.0]), (BOX, [0.0, 0.0]),
    (BOX, [-1.0, 0.0])])
def test_bogus_infeasible_claim_is_not_trusted(monkeypatch, prog, duals):
    _lie(monkeypatch, "infeasible", None, duals)
    out = assert_same(prog)
    assert out.status == "optimal" and out.support is None
    out = assert_same(lp.feasibility(prog.num_vars, prog.constraints,
                                     simplex=prog.simplex_constraint))
    assert out.status == "optimal" and out.support is None


@pytest.mark.parametrize("duals", [
    [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, -1.0, 5.0], [1.0, -1.0, -1.0],
    [float("nan"), 1.0, -1.0], [1.0, float("inf"), -1.0]])
def test_bogus_duals_on_infeasible_lp_teach_no_support(monkeypatch, duals):
    """An unproven claim never becomes a support: the rows named are the
    ones the Fraction simplex's own certificate uses, never the liar's."""
    honest = lp.solve(INFEASIBLE, exact=True).support
    assert honest == (0, 1)
    assert lp._farkas(2, lp._int_rows(INFEASIBLE), duals, True) is None
    _lie(monkeypatch, "infeasible", None, duals)
    for prog in (INFEASIBLE, lp.feasibility(2, INFEASIBLE.constraints,
                                            simplex=True)):
        assert assert_same(prog).support == honest


@pytest.mark.parametrize("prog, active", [
    # FEASIBLE: rows 0-1, simplex row 2, keys 3-5 for the bounds x_i >= 0.
    (FEASIBLE, [0, 1, 5]),  # (1/2, 1/3, 0) misses the simplex row
    (FEASIBLE, [2, 3, 4]),  # (0, 0, 1) is feasible but not optimal
    (FEASIBLE, [0, 2, 5]),  # (2/3, 1/3, 0) breaks x1 <= 1/2
    (FEASIBLE, [0, 1, 2]),  # the true optimum: a truthful claim passes
    (FEASIBLE, [0, 2]),     # too few constraints
    (FEASIBLE, [0, 0, 2]),  # singular
    # INFEASIBLE: rows 0-1, simplex row 2, keys 3-4 for the bounds.
    (INFEASIBLE, [0, 1]),   # (2/3, 2/3) misses the simplex row
    (INFEASIBLE, [0, 2]),   # (2/3, 1/3) breaks x2 >= 2/3
    (INFEASIBLE, [2, 4]),   # (1, 0) breaks x2 >= 2/3
    # TIED: simplex row 0, keys 1-3 for the bounds.
    (TIED, [0, 1, 3]),      # (0, 1, 0) is optimal, but so is (1, 0, 0)
    (TIED, [0, 2, 3]),      # (1, 0, 0) likewise
    # NEGATIVE: row 0, key 1 for the bound.
    (NEGATIVE, [0]),        # x1 = -1
])
def test_wrong_optimal_vertex_is_not_trusted(monkeypatch, prog, active):
    _lie(monkeypatch, "optimal", None, active)
    want = reference(prog)
    assert assert_same(prog) == want
    assert want.status == ("infeasible" if prog is INFEASIBLE else "optimal")


# max x1 + x2 over the simplex in three dimensions: a tied face from
# (1, 0, 0), where the reference ends, to (0, 1, 0), where x2 <= 1 is tight
# too. The second LP also holds the row x1 >= 0, tight there.
TIED_DEGENERATE = lp.maximize((1, 1, 0), [Constraint((0, 1, 0), "<=", 1)],
                              simplex=True)
TIED_ROW = lp.maximize((1, 1, 0), [Constraint((0, 1, 0), "<=", 1),
                                   Constraint((1, 0, 0), ">=", 0)],
                       simplex=True)


@pytest.mark.parametrize("prog, active", [
    (TIED_DEGENERATE, [0, 1, 4]),  # the bound x1 >= 0, out of the basis
    (TIED_ROW, [0, 2, 5]),         # the row x1 >= 0 and that bound
])
def test_vertex_of_a_tied_face_is_not_kept(monkeypatch, fallbacks, prog,
                                           active):
    """A float basis at (0, 1, 0) proves the value, with a zero multiplier
    on x2 <= 1. The constraints tight there but out of the basis allow the
    direction (1, -1, 0) along the face, so the vertex is not kept: one
    run finds the reference's point."""
    _lie(monkeypatch, "optimal", None, active)
    out = lp.solve(prog, exact=True)
    _, (_, xs, d, free) = out.__dict__["_pending"]
    assert (xs, d, free) == ([0, 1, 0], 1, [0])
    assert out.solution == reference(prog).solution == (1, 0, 0)
    assert fallbacks[0] == 1


# Each LP below is infeasible but for the last, which is a feasible gate.
INFEASIBLE_GATE = lp.feasibility(2, INFEASIBLE.constraints, simplex=True)
NEGATIVE_GATE = lp.feasibility(1, [Constraint((1,), "<=", -1)])
FEASIBLE_GATE = lp.feasibility(3, FEASIBLE.constraints, simplex=True)


@pytest.mark.parametrize("prog, active", [
    (INFEASIBLE_GATE, [0, 1]),  # (2/3, 2/3) misses the simplex row
    (INFEASIBLE_GATE, [0, 2]),  # (2/3, 1/3) breaks x2 >= 2/3
    (INFEASIBLE_GATE, [2, 4]),  # (1, 0) breaks x2 >= 2/3
    (NEGATIVE_GATE, [0]),       # x1 = -1 holds the row, not x1 >= 0
    (FEASIBLE_GATE, [0, 1, 5]),  # (1/2, 1/3, 0) misses the simplex row
])
def test_wrong_feasible_vertex_is_not_trusted(monkeypatch, fallbacks, prog,
                                              active):
    _lie(monkeypatch, "optimal", None, active)
    out = lp.solve(prog, exact=True)
    assert fallbacks[0] == 1  # the integer tableau decided
    assert out == reference(prog)
    assert out.status == ("optimal" if prog is FEASIBLE_GATE else "infeasible")


# x1 + x2 >= 1 and x1 <= 2: the least x1 + x2 is 1, at (1, 0) or (0, 1).
MIN_LP = LinearProgram(2, (1, 1), "min", (Constraint((1, 1), ">=", 1),
                                          Constraint((1, 0), "<=", 2)), False)


@pytest.mark.parametrize("prog, active", [
    # (0, 0, 1): 1 = lam on x1 >= 0, a ">=" constraint, so lam must be <= 0
    (FEASIBLE, [2, 3, 4]),
    # (2, 0): in max form -1 = lam on x1 <= 2, a "<=" row, so lam must be >= 0
    (MIN_LP, [1, 3]),
])
def test_wrongly_signed_multiplier_is_not_trusted(monkeypatch, fallbacks, prog,
                                                  active):
    """A feasible vertex whose multipliers have a wrong sign is not optimal:
    neither its value nor its point may be kept."""
    _lie(monkeypatch, "optimal", None, active)
    out = lp.solve(prog, exact=True)
    assert fallbacks[0] == 1
    assert out == reference(prog)
    assert out.objective_value == {FEASIBLE: Fraction(7, 6), MIN_LP: 1}[prog]


def test_float_breakdown_falls_back(monkeypatch):
    def broken(*args):
        raise lp.SolverFailure("phase 1 reported unbounded")

    monkeypatch.setattr(lp, "_float_pass", broken)
    assert assert_same(FEASIBLE).support is None
    assert assert_same(INFEASIBLE).support == (0, 1)


def test_rows_beyond_the_double_range_go_to_the_fraction_simplex(fallbacks):
    # A row with no double cannot take the float pass; the exact answer is
    # the Fraction simplex's, for an optimum and for an infeasible LP.
    huge = Fraction(10) ** 400
    rows = [Constraint((1, -1), "<=", huge), Constraint((1, 1), "<=", 1)]
    prog = lp.maximize((1, 0), rows, simplex=False)
    got = assert_same(prog)
    assert got.status == "optimal" and got.solution == (1, 0)
    prog = lp.feasibility(2, [Constraint((1, 1), ">=", huge)], simplex=True)
    assert assert_same(prog).status == "infeasible"
    # A second solve on the same constraint objects: the row with no double
    # raises again, as no float twin was cached, and the exact simplex decides.
    before = fallbacks[0]
    assert assert_same(lp.maximize((1, 0), rows, simplex=False)) == got
    assert assert_same(prog).status == "infeasible"
    assert fallbacks[0] == before + 2


# ---------------------------------------------------------------------------
# Each constraint's integer and float rows, built once.
# ---------------------------------------------------------------------------

def test_scaled_row_is_its_ints_over_the_scale():
    # 12/30 x1 - 6/30 x2 <= 9/30 is 2/5 x1 - 1/5 x2 <= 3/10: the integer
    # form takes the LCM 10, not 30, as the row built from Fractions does.
    con = Constraint((12, -6), "<=", 9, 30)
    want = Constraint((Fraction(2, 5), Fraction(-1, 5)), "<=", Fraction(3, 10))
    assert fraction_simplex.row(con) == fraction_simplex.row(want)
    assert con.int_row == want.int_row == ((4, -2), "<=", 3, 10)
    assert repr(con.float_row) == repr(want.float_row)
    assert Constraint((0, 0), ">=", 0, 7).int_row == ((0, 0), ">=", 0, 1)
    assert con != want  # equality compares the fields as given
    for prog in (lp.maximize((1, 1), [con], simplex=True),
                 lp.feasibility(2, [con, Constraint((5, 0), ">=", 6, 5)],
                                simplex=True)):
        assert_same(prog)
        twin = LinearProgram(prog.num_vars, prog.objective, prog.sense,
                             tuple(Constraint(*fraction_simplex.row(c))
                                   for c in prog.constraints), True)
        assert lp.solve(prog, exact=True) == lp.solve(twin, exact=True)


def test_cached_rows_are_the_entries_in_each_arithmetic():
    con = Constraint((1, Fraction(-2, 3), 0.1, 0, Fraction(10) ** 30), ">=",
                     Fraction(1, 7))
    coeffs, rel, rhs = con.float_row
    assert coeffs == tuple(float(v) for v in con.coeffs)
    assert all(type(v) is float for v in coeffs)
    assert (rel, rhs) == (">=", float(Fraction(1, 7)))
    coeffs = (1, Fraction(-2, 3), Fraction(0.1), 0, Fraction(10) ** 30)
    ints, rel, rhs, s = con.int_row
    assert s == lcm(*(v.denominator for v in coeffs + (Fraction(1, 7),)))
    assert tuple(Fraction(v, s) for v in ints) == coeffs
    assert (rel, Fraction(rhs, s)) == (">=", Fraction(1, 7))
    assert all(type(v) is int for v in ints + (rhs, s))
    assert con.float_row is con.float_row and con.int_row is con.int_row
    assert type(con.float_row[0]) is tuple and type(con.int_row[0]) is tuple
    # The float twin is read off the integer form: the same double as
    # float() of each entry, to the last bit, over a shared scale.
    rng = random.Random(3)
    for _ in range(300):
        vals = [Fraction(rng.randint(-10 ** 30, 10 ** 30),
                         rng.choice(PRIMES) ** rng.randint(1, 4))
                for _ in range(4)]
        vals.append(rng.choice([0, 0.1, -2.5e-300, 1e300]))
        con = Constraint(vals[:-1], "<=", vals[-1])
        want = (tuple(float(v) for v in vals[:-1]), "<=", float(vals[-1]))
        assert repr(con.float_row) == repr(want)


def _fresh(prog):
    """``prog`` rebuilt from new constraint objects, none of them used."""
    cons = tuple(Constraint(c.coeffs, c.relation, c.rhs)
                 for c in prog.constraints)
    return LinearProgram(prog.num_vars, prog.objective, prog.sense, cons,
                         prog.simplex_constraint)


def test_a_used_constraint_equals_a_fresh_one():
    rng = random.Random(7)
    for _ in range(100):
        prog = random_lp(rng, num_rows=(1, 7))
        lp.solve(prog, exact=True)
        lp.solve(prog)
        for used, new in zip(prog.constraints, _fresh(prog).constraints):
            assert used == new and hash(used) == hash(new)
            assert repr(used) == repr(new)


@pytest.mark.parametrize("first_exact", [False, True],
                         ids=["float first", "exact first"])
def test_one_constraint_serves_float_and_exact_lps(first_exact):
    rng = random.Random(11)
    statuses = set()
    for _ in range(200):
        prog = random_lp(rng)
        for exact in (first_exact, not first_exact):
            got = lp.solve(prog, exact=exact)
            want = lp.solve(_fresh(prog), exact=exact)
            assert repr(got) == repr(want), prog
            assert got.support == want.support
            statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


# ---------------------------------------------------------------------------
# _farkas against the routine that rounds every dual before it clips.
# ---------------------------------------------------------------------------

TINY = (1e-10, 4.99e-10, 1e-300, 5e-324)  # each below 1 / (2 * 10**9)


def _tweak(rng, y):
    """A dual near ``y`` or of a kind the float pass can produce."""
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice([0.0, -0.0])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.choice(TINY)
    if kind == 2:  # a near-rational: pivot noise on a simple rational
        return float(Fraction(rng.randint(-9, 9), rng.randint(1, 7))) + \
            rng.choice([-1, 1]) * rng.choice([1e-15, 1e-12, 3e-10])
    if kind == 3:
        return -y
    if kind == 4 and rng.random() < 0.2:
        return rng.choice([float("nan"), float("inf"), float("-inf")])
    return y


def int_rows(rows):
    """The integer form ``_farkas`` reads of each ``Fraction`` row."""
    return [Constraint(*row).int_row for row in rows]


def test_farkas_matches_the_rounding_reference():
    rng = random.Random(5)
    found = dict.fromkeys(("support", "none"), 0)
    for _ in range(600):
        prog = random_lp(rng, num_rows=(1, 7))
        rows = fraction_simplex.rows(prog)
        objective = fraction_simplex.objective(prog)
        duals = []
        status, _, evidence = lp._float_pass(prog, objective)
        if status == "infeasible":
            duals.append(evidence)
        status, _, evidence = lp._simplex(prog.num_vars, lp._int_rows(prog),
                                          objective, True)
        if status == "infeasible":
            duals.append(evidence)
        if not duals:
            duals.append([rng.uniform(-2, 2) for _ in rows])
        for y in list(duals):
            duals.append([_tweak(rng, float(v)) for v in y])
            duals.append([v if rng.random() < 0.7 else -v for v in y])
        for y in duals:
            want = farkas_reference.farkas(prog.num_vars, rows, y,
                                           prog.simplex_constraint)
            got = lp._farkas(prog.num_vars, int_rows(rows), y,
                             prog.simplex_constraint)
            assert got == want, (prog, y)
            found["none" if got is None else "support"] += 1
    assert min(found.values()) >= 200, found
    # Rows unlike any LP above: coprime denominators up to about 1e9, int
    # and zero right-hand sides, all-zero rows; each set of duals is also
    # tried with one right-hand side moved onto, and to either side of,
    # the edge of the proof.
    found = dict.fromkeys(("support", "none"), 0)
    for _ in range(500):
        num_vars, rows, y = _odd_certificate(rng)
        for simplex in (True, False):
            got = lp._farkas(num_vars, int_rows(rows), y, simplex)
            assert got == farkas_reference.farkas(num_vars, rows, y,
                                                  simplex), (rows, y)
            found["none" if got is None else "support"] += 1
    assert min(found.values()) >= 200, found


PRIMES = (7, 11, 13, 999_999_929, 999_999_937, 1_000_000_007)


def _odd_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice(PRIMES))


def _odd_certificate(rng):
    """``(num_vars, rows, duals)``: rows of the kinds above, the last one
    the simplex row, and duals of both signs, float or ``Fraction``, some
    zero. One row's rhs is then set so that, with the duals ``_farkas``
    keeps, ``y.b - max_i (y.A)_i`` is 0, 1e-9 (twice as often) or -1e-9."""
    num_vars = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.2:
            coeffs = (Fraction(0),) * num_vars
        else:
            coeffs = tuple(Fraction(_odd_value(rng)) for _ in range(num_vars))
        rows.append((coeffs, rng.choice(["<=", ">=", "=="]), _odd_value(rng)))
    duals = []
    for _, rel, _ in rows:
        y = Fraction(rng.randint(1, 10 ** 6), rng.choice(PRIMES))
        y = -y if rel == "<=" or (rel == "==" and rng.random() < 0.5) else y
        kind = rng.randrange(6)
        duals.append(0 if kind == 0 else -y if kind == 1 else
                     float(y) if kind == 2 else y)
    kept = {}
    for r, ((_, rel, _), y) in enumerate(zip(rows, duals)):
        y = (Fraction(y).limit_denominator(lp.DUAL_DENOMINATOR)
             if isinstance(y, float) else Fraction(y))
        if y and not (rel == "<=" and y > 0) and not (rel == ">=" and y < 0):
            kept[r] = y
    if kept:
        r = rng.choice(sorted(kept))
        combo = [sum(y * rows[i][0][v] for i, y in kept.items())
                 for v in range(num_vars)]
        rest = sum(y * rows[i][2] for i, y in kept.items() if i != r)
        gap = Fraction(rng.choice([0, 1, 1, -1]), 10 ** 9)
        coeffs, rel, _ = rows[r]
        rows[r] = (coeffs, rel, (max(combo) + gap - rest) / kept[r])
    rows.append(((Fraction(1),) * num_vars, "==", Fraction(1)))
    return num_vars, rows, duals + [rng.uniform(-1, 1)]
