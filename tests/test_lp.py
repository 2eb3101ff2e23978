"""Tests for the LP engine: determinism, exact answers, the float simplex
and its lockstep kernel, relation checks."""

from fractions import Fraction

import numpy as np
import pytest

import float_simplex
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
    out = lp.solve(prog)
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
    out = lp.solve(prog)
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
    for scale in (0, -2, 1.5, True):
        with pytest.raises(MalformedLpError, match="scale"):
            Constraint((1, 2), "<=", 1, scale)


def test_unbounded_detected():
    prog = lp.maximize([1, 1], [Constraint((1, -1), "<=", 0)])
    out = lp.solve(prog)
    assert out.status == "unbounded"


class _DenseTableau(lp._FloatTableau):
    """The float tableau with the dense ``set_cost`` and ``pivot`` loops,
    which visit every column, kept verbatim as the reference for the
    zero-skipping kernel."""

    def set_cost(self, cost):
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[r]
                for j in range(len(row)):
                    cost[j] = cost[j] - cb * row[j]
        self.cost = cost

    def pivot(self, r, c):
        tableau, cost = self.rows, self.cost
        row = tableau[r]
        piv = row[c]
        for j in range(len(row)):
            row[j] = row[j] / piv
        row[c] = piv / piv  # exactly one
        for rr in range(len(tableau)):
            if rr == r:
                continue
            other = tableau[rr]
            f = other[c]
            if f == 0:
                continue
            for j in range(len(row)):
                other[j] = other[j] - f * row[j]
            other[c] = 0 * f  # kill residual noise
        if cost is not None:
            f = cost[c]
            if f != 0:
                for j in range(len(row)):
                    cost[j] = cost[j] - f * row[j]
                cost[c] = 0 * f
        self.basis[r] = c


def _sparse_lp(rng, exact):
    """A random LP whose coefficients are mostly zero, on a small grid."""
    conv = Fraction if exact else float
    q = int(rng.choice([1, 2, 3, 7]))

    def entry():
        if rng.random() < 0.6:
            return conv(0)
        return conv(Fraction(int(rng.integers(-2 * q, 2 * q + 1)), q))

    nv = int(rng.integers(1, 7))
    cons = [Constraint(tuple(entry() for _ in range(nv)),
                       str(rng.choice(["<=", ">=", "<=", ">=", "=="])), entry())
            for _ in range(int(rng.integers(0, 9)))]
    sense = str(rng.choice(["max", "min", "feasibility"]))
    objective = (None if sense == "feasibility"
                 else tuple(entry() for _ in range(nv)))
    return LinearProgram(nv, objective, sense, tuple(cons),
                         bool(rng.random() < 0.6))


def _unsigned_zeros(values):
    """``values`` with each -0.0 made 0.0, the one difference the zero skip
    may make: it leaves a zero's sign where the dense loop would flip it."""
    return None if values is None else [v + 0 if v == 0 else v for v in values]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_zero_skipping_pivots_match_dense_pivots(monkeypatch, exact):
    rng = np.random.default_rng(19)
    solve = lp.solve if exact else float_simplex.solve
    statuses = {}
    for _ in range(600):
        prog = _sparse_lp(rng, exact)
        rows, objective = float_simplex.canonical(prog)
        got = solve(prog)
        got_raw = lp._simplex(prog.num_vars, rows, objective, False)
        with monkeypatch.context() as mp:
            mp.setattr(lp, "_FloatTableau", _DenseTableau)
            want = solve(prog)
            want_raw = lp._simplex(prog.num_vars, rows, objective, False)
        # The answer is bit-for-bit the dense kernel's, support included.
        assert repr(got) == repr(want), prog
        assert repr(got_raw[:2]) == repr(want_raw[:2]), prog
        assert repr(_unsigned_zeros(got_raw[2])) == \
            repr(_unsigned_zeros(want_raw[2])), prog
        statuses[got.status] = statuses.get(got.status, 0) + 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 20, statuses


def _grid_feasibility_lp(rng):
    """A random float feasibility LP on a coarse grid: rich in ratio ties,
    zero right-hand sides, redundant rows and infeasible systems."""
    q = int(rng.choice([1, 2, 4]))

    def entry():
        return 0.0 if rng.random() < 0.4 else \
            float(rng.integers(-2 * q, 2 * q + 1)) / q

    nv = int(rng.integers(1, 6))
    cons = [Constraint(tuple(entry() for _ in range(nv)),
                       str(rng.choice(["<=", ">=", "=="])), entry())
            for _ in range(int(rng.integers(0, 9)))]
    return lp.feasibility(nv, cons, simplex=bool(rng.random() < 0.7))


def _stacked(lps, num_vars):
    """``lps``, each over ``num_vars`` variables, as the stacked rows of
    :func:`lp.feasible_stacked`: each LP's rows, then its simplex row."""
    rows, rel, rhs, counts = [], [], [], []
    for p in lps:
        cons = [(c.coeffs, c.relation, c.rhs) for c in p.constraints]
        cons += [((1.0,) * num_vars, "==", 1.0)] * p.simplex_constraint
        rows += [coeffs for coeffs, _, _ in cons]
        rel += [lp.RELATIONS.index(r) for _, r, _ in cons]
        rhs += [b for _, _, b in cons]
        counts.append(len(cons))
    return (np.array(rows, dtype=float).reshape(len(rows), num_vars), rel,
            rhs, counts)


def test_feasible_stacked_matches_feasible(monkeypatch):
    rng = np.random.default_rng(23)
    lps = [_grid_feasibility_lp(rng) for _ in range(600)]
    # the simplex row twice: phase 1 leaves an artificial basic at zero in a
    # row with no other nonzero entry, and the drive-out drops that row
    lps.append(lp.feasibility(2, [Constraint((1.0, 1.0), "==", 1.0)],
                              simplex=True))
    want = [repr(float_simplex.solve(p)) for p in lps]

    # What the batch holds, read off the one-LP simplex.
    census = dict.fromkeys(("zero >=", "negative rhs", "drive-out pivot",
                            "dropped row", "infeasible", "m = 1"), 0)

    class CensusTableau(lp._FloatTableau):
        def pivot(self, r, c):
            census["drive-out pivot"] += self.cost is None
            super().pivot(r, c)

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_FloatTableau", CensusTableau)
        for p in lps:
            rows, objective = float_simplex.canonical(p)
            status, _, tight = lp._simplex(p.num_vars, rows, objective, False)
            census["zero >="] += sum(rel == ">=" and b == 0 for _, rel, b in rows)
            census["negative rhs"] += sum(b < 0 for _, _, b in rows)
            census["dropped row"] += status == "optimal" and any(
                rel == "==" and r not in tight
                for r, (_, rel, _) in enumerate(rows))
            census["infeasible"] += status == "infeasible"
            census["m = 1"] += p.num_vars == 1
    assert min(census.values()) >= 5, census

    chunks = []
    real_batch = lp._feasible_batch

    def spy(A, rel, rhs, counts):
        # The compact layout: a slack column for each row position r at
        # which some LP of the chunk has a slack, then an artificial column
        # for each r at which one has an artificial, both in row order; row
        # r's are its own, and a pad row is a zero row keyed past every
        # column.
        T, basis, M, F = lp._batch_tableau(A, rel, rhs, counts)
        R, C = T.shape[1] - 1, T.shape[2] - 1
        at_row = [r for own in counts for r in range(own)]
        slacks = sorted({r for r, c in zip(at_row, rel) if c != lp._EQ})
        arts = sorted({r for r, c in zip(at_row, rel) if c != lp._LE})
        assert (F, C) == (M + len(slacks), M + len(slacks) + len(arts))
        for b, own in enumerate(counts):
            assert not T[b, own:R].any() and (basis[b, own:] == C).all()
            for r in range(own):
                extra = set(np.flatnonzero(T[b, r, M:C]) + M)
                assert extra <= {M + slacks.index(r) if r in slacks else -1,
                                 F + arts.index(r) if r in arts else -1}
                assert basis[b, r] in extra
        chunks.append(T.size)
        return real_batch(A, rel, rhs, counts)

    monkeypatch.setattr(lp, "_feasible_batch", spy)
    # One batch per variable count, then the last LP alone and no LP.
    batches = {}
    for i, p in enumerate(lps):
        batches.setdefault(p.num_vars, []).append(i)
    assert sorted(batches) == [1, 2, 3, 4, 5]
    for num_vars, picks in [*sorted(batches.items()), (2, [len(lps) - 1]),
                            (2, [])]:
        first = lp.solve_count()
        got = lp.feasible_stacked(*_stacked([lps[i] for i in picks],
                                            num_vars))
        assert lp.solve_count() - first == len(picks)
        assert [repr(o) for o in got] == [want[i] for i in picks]
    # The batches are more than one kernel call holds.
    assert len(chunks) > 3 and max(chunks) <= lp.BATCH_DOUBLES, chunks
