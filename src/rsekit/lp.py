"""Uniform linear-program representation and a deterministic simplex solver.

Every solver in the package funnels through :func:`solve` / :func:`feasible`,
whose answers are exact, or through :func:`feasible_stacked`, which solves a
batch of float feasibility LPs (float qptas's). One two-phase tableau
simplex with Bland's rule serves both arithmetics, so results are
deterministic and cycling-free. In doubles it has a feasibility tolerance
of 1e-8 and a pivot tolerance of 1e-9. Pivots and price-outs skip the zero
entries of the row they subtract, so only the sign of a zero entry can
differ from a loop over every column. That sign decides no pivot and cannot
reach an answer: x snaps to 0.0, and a zero dual takes no part in a
certificate.

:func:`solve` answers in ``fractions.Fraction`` with no tolerances, found by
certify-then-fallback. The simplex first runs in float on the same rows,
and its answer is kept only once it is proven in rationals:

* *infeasible*: float multipliers, clipped to their allowed signs, must
  form an exact Farkas certificate. A feasibility LP over the simplex
  takes them from the optimal basis of its normalized Farkas dual, an
  LP of ``num_vars + 1`` rows whose slack basis is feasible, so the
  certificate names at most ``num_vars + 1`` rows; only when that dual's
  optimum is not positive does the simplex run on the LP itself. Any
  other LP takes its phase-1 duals;
* *optimal*: the ``num_vars`` constraints the final basis holds tight
  are solved as equalities, in ints with no fraction, and the vertex
  must hold x >= 0 and every row, checked in ints. That proves the LP
  feasible. For ``max``/``min``, the vertex's multipliers must also be
  signed, weakly, as optimality asks (>= 0 on ``<=``, <= 0 on ``>=``, any
  sign on ``==``), which proves the objective value. If each multiplier
  of an inequality is nonzero, the vertex is the unique optimum, so it is
  the very point the exact simplex would return, and it is kept.

A proven status or value is returned at once, before the point: the
outcome's ``solution`` is found when it is first read, and kept
(:class:`LpOutcome`). That read first tests the optimal face at the
vertex. Each active inequality with a zero multiplier gives one
direction out of it, and the vertex is the only optimum when no
nonnegative mix of those directions keeps to the feasible side of the
other constraints tight there; a Farkas certificate on that small LP,
from the float simplex and checked in ints, proves it, and the vertex is
kept. Failing that proof, the exact simplex runs on the LP. So a caller
that reads only statuses and values, or the point of one winner, runs
the exact simplex at most for that winner.

Everything else (an unbounded LP, a failed proof) is solved by the same
simplex on an integer-preserving tableau: Python ints over one common
denominator, with no gcd per entry, each row starting as its
constraint's integer form. Its pivot decisions are those of the simplex
in ``Fraction`` arithmetic, so exact outcomes, points found on first
read included, always equal that simplex's, which stays the reference.

An infeasible outcome whose Farkas certificate checks (from the float
pass, or from the exact simplex's own phase-1 duals) also names the rows
that certificate uses, ``LpOutcome.support``, so a caller can rule out any
later LP that holds the same rows.

A row has two forms, each built once, on first use: its integer form
(the row times the LCM of its denominators, from the entries' numerators
and denominators and one gcd) and its float twin, read off the integer
form (:attr:`Constraint.int_row`, :attr:`Constraint.float_row`), so a
row that a caller builds once and puts in many exact LPs is converted
once. The float pass reads the float twin; the vertex proof, the Farkas
check and the integer tableau read the integer form, so an exact solve
makes no ``Fraction`` row. A row given as ints over a common ``scale``
gets its integer form with no ``Fraction`` at all. The Farkas
check skips a float dual whose sign clips it to zero before rounding it:
rounding to the nearest rational keeps the sign or gives zero, so that
dual would be clipped after rounding too, and the support and the
verdict are those of rounding every dual. A whole-number dual is taken
as that int, which is what rounding gives. The check sums y.A and y.b in
Python ints, each row and dual scaled to one positive common
denominator; a positive factor changes no comparison, so the verdict is
that of the sums in ``Fraction`` arithmetic.

:func:`feasible_stacked` takes float feasibility LPs as stacked rows and
returns, for each, the outcome that the float simplex (:func:`_simplex`
in doubles) gives that LP alone: the same status and the same point, to
the last bit. It runs phase 1, the drive-out and the
read-out of the float simplex for the whole batch at once, on one
``(B, R + 1, C + 1)`` array of doubles, in chunks of at most
:data:`BATCH_DOUBLES`. Each LP takes its own Bland entering column and
leaving row, and each pivot is the elementwise ``row / piv`` and
``other - f * row``, so each double is the one the one-LP tableau
computes, but for the sign of a zero. A chunk holds a slack column for
each row position at which one of its LPs has a slack, and an artificial
column for each at which one has an artificial, each kind in row order,
so every LP's columns keep their Bland order. An LP with fewer rows is
padded with zero rows that have no slack or artificial and a basis key
past every column, so they never enter a ratio test or a price-out.

:func:`solve_count` counts the LPs solved: each :func:`solve` call, those
made through :func:`feasible` included, and each LP of
:func:`feasible_stacked`. A solver reports the change in
:func:`solve_count` across its run as its LP count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence, Union

import numpy as np

from .errors import MalformedLpError, SolverFailure

Scalar = Union[int, float, Fraction]

FEASIBILITY_TOL = 1e-8
PIVOT_TOL = 1e-9
# Float duals are rounded to the nearest rational with at most this
# denominator before the exact Farkas check. That strips pivot noise from
# duals whose true values are simple rationals; any rounding is safe, since
# the check itself is exact.
DUAL_DENOMINATOR = 10 ** 9
# Tableau doubles in one lockstep kernel call of feasible_stacked, which
# splits a longer batch into chunks: a call holds two arrays of this size at
# most, the tableau and its elimination buffer. An LP too large for it
# alone is a chunk of its own.
BATCH_DOUBLES = 1 << 16

RELATIONS = ("<=", ">=", "==")

_solves = 0


def solve_count() -> int:
    """Number of LPs solved so far in this process: :func:`solve` calls,
    and the LPs of :func:`feasible_stacked` calls."""
    return _solves


@dataclass(frozen=True)
class Constraint:
    """One linear constraint ``coeffs / scale . x  <rel>  rhs / scale``.

    ``scale`` (a positive int, 1 unless given) lets a caller that holds a
    row as ints over a common denominator pass it as it is, the same
    half-space as ``coeffs . x <rel> rhs``. The row solved is the one
    divided by ``scale``, as if it were built from ``Fraction`` numbers.

    :attr:`int_row` and :attr:`float_row` are the row in each arithmetic,
    built on first use and kept, so a constraint that serves many exact LPs
    is converted once. Both are tuples, and neither takes part in equality.
    """

    coeffs: tuple
    relation: str
    rhs: Scalar
    scale: int = 1

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise MalformedLpError(f"unknown relation {self.relation!r}")
        if type(self.scale) is not int or self.scale < 1:
            raise MalformedLpError(f"scale must be a positive int, not "
                                   f"{self.scale!r}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @cached_property
    def int_row(self) -> tuple:
        """``(coeffs, relation, rhs, s)``: the row times ``s``, the LCM of
        the denominators of its coefficients and rhs, in Python ints, from
        the entries' numerators and denominators (a float's through
        ``Fraction``) and one gcd; a row of ints makes no ``Fraction``."""
        ints, s = (*self.coeffs, self.rhs), self.scale
        if set(map(type, ints)) != {int}:
            vals = [v if type(v) is Fraction else Fraction(v) for v in ints]
            den = lcm(*(v.denominator for v in vals))
            ints = [v.numerator * (den // v.denominator) for v in vals]
            s *= den
        g = gcd(s, *ints)
        return (tuple(v // g for v in ints[:-1]), self.relation, ints[-1] // g,
                s // g)

    @cached_property
    def float_row(self) -> tuple:
        """``(coeffs, relation, rhs)`` with the float of each number; raises
        ``OverflowError``, on every read, if one has no double. Each is read
        off :attr:`int_row` as ``int / s``, which Python rounds correctly,
        so it is the very double ``float()`` gives."""
        coeffs, rel, rhs, s = self.int_row
        return tuple(c / s for c in coeffs), rel, rhs / s


def _fraction(v) -> Fraction:
    """``Fraction(v)``, or ``v`` itself if it is one already."""
    return v if type(v) is Fraction else Fraction(v)


@dataclass(frozen=True)
class LinearProgram:
    """An LP over nonnegative variables, optionally restricted to the simplex.

    ``sense`` is one of ``"max"``, ``"min"`` or ``"feasibility"``. When
    ``simplex_constraint`` is set, the constraint ``sum(x) == 1`` is added
    (all variables are nonnegative regardless).
    """

    num_vars: int
    objective: tuple | None
    sense: str
    constraints: tuple[Constraint, ...]
    simplex_constraint: bool = False

    def __post_init__(self):
        if self.sense not in ("max", "min", "feasibility"):
            raise MalformedLpError(f"unknown sense {self.sense!r}")
        if self.sense != "feasibility":
            if self.objective is None or len(self.objective) != self.num_vars:
                raise MalformedLpError("objective length != num_vars")
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise MalformedLpError("constraint length != num_vars")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective is not None:
            object.__setattr__(self, "objective", tuple(self.objective))


def maximize(objective: Sequence[Scalar], constraints: Sequence[Constraint], *,
             simplex: bool = False) -> LinearProgram:
    return LinearProgram(len(objective), tuple(objective), "max", tuple(constraints), simplex)


def feasibility(num_vars: int, constraints: Sequence[Constraint], *,
                simplex: bool = False) -> LinearProgram:
    return LinearProgram(num_vars, None, "feasibility", tuple(constraints), simplex)


@dataclass(frozen=True)
class LpOutcome:
    """Result of an LP solve.

    ``support`` is set only on an ``"infeasible"`` :func:`solve` outcome that
    rests on a checked Farkas certificate: the indices into
    ``lp.constraints`` of the rows with a nonzero multiplier (the simplex
    row, when present, is implied). Any LP over the same variables that
    holds those rows, plus the simplex row if the original had it, is
    infeasible too. It is ``None`` in every other case. It is evidence, not
    part of the answer, so it takes no part in equality.

    An ``"optimal"`` :func:`solve` outcome whose status, or value, is
    proven before its point is found (see the module docstring) holds its
    LP and the float basis's vertex in place of ``solution``. The first
    read of ``solution`` keeps that vertex if it is proven to be the only
    optimum, and else runs the exact simplex on the LP; either way it keeps
    the point the exact simplex returns, drops the rest, and every later
    read, equality and hash included, sees that point.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    solution: tuple | None
    objective_value: Scalar | None
    support: tuple | None = field(default=None, compare=False)

    def __getattr__(self, name):
        # Reached only for a name the instance lacks: the solution of an
        # outcome made by _deferred, read for the first time.
        state = self.__dict__
        if name != "solution" or "_pending" not in state:
            raise AttributeError(name)
        lp, vertex = state.pop("_pending")
        point = _unique_point(lp, *vertex)
        state["solution"] = _exact_point(lp) if point is None else point
        return state["solution"]


def _deferred(lp: LinearProgram, value, vertex) -> LpOutcome:
    """The ``"optimal"`` outcome of ``lp`` with objective value ``value``,
    its point found when first read; ``vertex`` is the optimal vertex
    ``(active, xs, d, free)`` of :func:`_proven_vertex`."""
    out = object.__new__(LpOutcome)
    out.__dict__.update(status="optimal", objective_value=value, support=None,
                        _pending=(lp, vertex))
    return out


def _exact_point(lp: LinearProgram) -> tuple:
    """The point the exact simplex returns for ``lp``, which must have one."""
    status, x, _ = _simplex(lp.num_vars, _int_rows(lp), _objective(lp), True)
    if status != "optimal":
        raise SolverFailure(f"a proven optimal LP came back {status}")
    return tuple(x)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly, to the vertex-optimal solution of Bland's rule.

    Deterministic: identical inputs give identical outcomes.
    """
    global _solves
    _solves += 1
    objective = _objective(lp)
    rows = _int_rows(lp)
    proven = _certified(lp, rows, objective)
    if proven is not None:
        return proven
    status, x, evidence = _simplex(lp.num_vars, rows, objective, True)
    if status == "infeasible":
        return LpOutcome(status, None, None, _farkas(
            lp.num_vars, rows, evidence, lp.simplex_constraint))
    if status != "optimal":
        return LpOutcome(status, None, None)

    obj_val = None
    if lp.sense != "feasibility":
        val = sum(c * xi for c, xi in zip(objective, x))
        obj_val = val if lp.sense == "max" else -val
    return LpOutcome("optimal", tuple(x), obj_val)


def _objective(lp: LinearProgram) -> list:
    """``lp``'s objective in ``Fraction``s, in max form."""
    if lp.sense == "feasibility":
        return [Fraction(0)] * lp.num_vars
    if lp.sense == "max":
        return [_fraction(v) for v in lp.objective]
    return [-_fraction(v) for v in lp.objective]


def feasible(lp: LinearProgram) -> LpOutcome:
    """:func:`solve` for a ``feasibility`` LP only, under its own name so
    that a profile can tell feasibility probes from optimizations."""
    if lp.sense != "feasibility":
        raise MalformedLpError(
            f"feasible() takes a feasibility LP, not {lp.sense!r}")
    return solve(lp)


# ---------------------------------------------------------------------------
# Float feasibility LPs in lockstep.
# ---------------------------------------------------------------------------

_LE, _GE, _EQ = range(3)


def feasible_stacked(A, relation, rhs, counts) -> list[LpOutcome]:
    """The outcomes of the float simplex, to the last bit, of feasibility
    LPs given as stacked rows: each LP's status and point, as the one-LP
    simplex in doubles finds them; :func:`solve_count` advances by
    ``len(counts)``.

    Every LP is over x >= 0 in the columns of ``A``, and LP b's rows, a
    simplex row included, are the next ``counts[b]`` rows of ``A``,
    ``relation`` (each an index in :data:`RELATIONS`) and ``rhs``. The LPs
    are cut, in order, into chunks of at most :data:`BATCH_DOUBLES`
    doubles at the width :func:`_batch_tableau` gives; an LP too large for
    it alone is a chunk of its own.
    """
    global _solves
    counts = np.asarray(counts, dtype=np.int64)
    B = len(counts)
    _solves += B
    A = np.array(A, dtype=float)
    M = A.shape[1]
    rhs = np.array(rhs, dtype=float)
    rel = np.asarray(relation, dtype=np.int64)
    # rhs >= 0, and ">=" rows with rhs 0 become slack-basic "<=" rows
    flip = (rhs < 0) | ((rel == _GE) & (rhs == 0))
    A[flip] = -A[flip]
    rhs[flip] = -rhs[flip]
    rel = np.where(flip & (rel != _EQ), _LE + _GE - rel, rel)
    # slack[b, r], art[b, r]: row r of LP b has a slack, an artificial
    at_lp, at_row = _row_owners(counts)
    slack = np.zeros((B, counts.max(initial=0)), dtype=bool)
    art = np.zeros_like(slack)
    slack[at_lp, at_row] = rel != _EQ
    art[at_lp, at_row] = rel != _LE
    ends = np.cumsum(counts)
    outcomes = []
    b0 = 0
    while b0 < B:
        # Each LP of a chunk from b0 takes at least this many doubles.
        least = (counts[b0] + 1) * (M + 1)
        most = min(B, b0 + max(1, BATCH_DOUBLES // int(least)))
        # size[i]: the tableau doubles of a chunk of LPs b0..b0 + i
        width = (M + np.logical_or.accumulate(slack[b0:most]).sum(axis=1)
                 + np.logical_or.accumulate(art[b0:most]).sum(axis=1))
        size = (np.arange(1, most - b0 + 1)
                * (np.maximum.accumulate(counts[b0:most]) + 1) * (width + 1))
        b1 = b0 + max(1, int(np.searchsorted(size, BATCH_DOUBLES, "right")))
        r0, r1 = ends[b0] - counts[b0], ends[b1 - 1]
        outcomes += _feasible_batch(A[r0:r1], rel[r0:r1], rhs[r0:r1],
                                    counts[b0:b1])
        b0 = b1
    return outcomes


def _row_owners(counts):
    """``(at_lp, at_row)``: the LP of each stacked row, and its index in
    that LP, when LP b owns the next ``counts[b]`` rows."""
    at_lp = np.repeat(np.arange(len(counts)), counts)
    at_row = np.arange(len(at_lp)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return at_lp, at_row


def _batch_tableau(A, rel, rhs, counts):
    """``(T, basis, M, F)``: the phase-1 tableaux :func:`_simplex` would
    build for the feasibility LPs whose rows, normalized to rhs >= 0 and
    no ``>=`` row with rhs 0, are stacked in ``A``, ``rel`` and ``rhs``, LP
    b owning the next ``counts[b]``.

    ``T[b]`` is LP b's tableau. Columns ``0..M-1`` are the variables; from
    column M come slack columns, one for each row position at which some LP
    has a ``<=`` or ``>=`` row, and from column F artificial columns, one
    for each at which some LP has a ``>=`` or ``==`` row, each kind in row
    order. The last column, C, is the rhs, and the last row, R, the
    phase-1 cost row, priced out. ``basis[b, r]`` is the column basic in
    row r. A column an LP does not use stays zero, so it never enters; pad
    rows are zero rows with basis key C.
    """
    B, M = len(counts), A.shape[1]
    R = int(counts.max(initial=0))
    at_lp, at_row = _row_owners(counts)
    s, a = rel != _EQ, rel != _LE
    # col_s[r], col_a[r]: the slack and artificial columns of row position r
    used_s, used_a = np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)
    used_s[at_row[s]] = True
    used_a[at_row[a]] = True
    F = M + int(used_s.sum())
    C = F + int(used_a.sum())
    col_s, col_a = M - 1 + np.cumsum(used_s), F - 1 + np.cumsum(used_a)

    T = np.zeros((B, R + 1, C + 1))
    T[at_lp, at_row, :M] = A
    T[at_lp, at_row, C] = rhs
    T[at_lp[s], at_row[s], col_s[at_row[s]]] = np.where(rel[s] == _LE, 1.0,
                                                        -1.0)
    T[at_lp[a], at_row[a], col_a[at_row[a]]] = 1.0
    T[at_lp[a], R, col_a[at_row[a]]] = 1.0  # minimize the artificials
    basis = np.full((B, R), C, dtype=np.int64)
    basis[at_lp, at_row] = np.where(a, col_a[at_row], col_s[at_row])
    # Price out the basic artificials, row by row as set_cost does.
    for r in range(R):
        cb = (basis[:, r] >= F) & (basis[:, r] < C)
        if cb.any():
            T[:, R] -= cb[:, None] * T[:, r]
    return T, basis, M, F


def _feasible_batch(A, rel, rhs, counts):
    """Float outcomes of the feasibility LPs of :func:`_batch_tableau`,
    each over every column of ``A``: :func:`_simplex`'s phase 1, drive-out
    and read-out, run for every LP at once. Phase 2 has nothing to do,
    since a zero objective prices out to a zero cost row.
    Each LP takes its own Bland entering column and leaving row, and pivots
    are elementwise, so each double is the one :class:`_FloatTableau`
    computes, but for the sign of a zero.
    """
    T, basis, M, F = _batch_tableau(A, rel, rhs, counts)
    B, R, C = T.shape[0], T.shape[1] - 1, T.shape[2] - 1
    buf = np.empty_like(T)
    pos = np.arange(B)  # pos[i]: the index in lps of the tableau T[i]
    n = B  # T[:n] are the LPs still pivoting in phase 1
    while n:
        neg = T[:n, R, :C] < -PIVOT_TOL
        go = neg.any(axis=1)
        enter = neg.argmax(axis=1)
        if not go.all():
            # Swap the LPs at their phase-1 optimum past the active prefix.
            k = int(go.sum())
            holes = np.flatnonzero(~go[:k])
            movers = k + np.flatnonzero(go[k:])
            for arr in (T, basis, pos, enter):
                arr[holes], arr[movers] = arr[movers], arr[holes]
            n, enter = k, enter[:k]
            if not n:
                break
        V, bas, ar = T[:n], basis[:n], np.arange(n)
        col = V[ar, :R, enter]
        ok = col > PIVOT_TOL
        if not ok.any(axis=1).all():
            raise SolverFailure("phase 1 reported unbounded")
        ratio = np.divide(V[:, :R, C], col, out=np.full((n, R), np.inf),
                          where=ok)
        tie = ratio == ratio.min(axis=1, keepdims=True)
        leave = np.where(tie, bas, C + 1).argmin(axis=1)  # Bland: least key
        _pivot_many(V, bas, leave, enter, buf[:n])

    found = np.abs(T[:, R, C]) <= FEASIBILITY_TOL
    # Drive the artificials still basic out of the basis, row by row; a row
    # with no other nonzero entry is redundant and read no further.
    art = (basis >= F) & (basis < C) & found[:, None]
    for r in np.flatnonzero(art.any(axis=0)):
        idx = np.flatnonzero(art[:, r])
        big = np.abs(T[idx, r, :F]) > PIVOT_TOL
        has = big.any(axis=1)
        idx, enter = idx[has], big[has].argmax(axis=1)
        if idx.size:
            sub, bas = T[idx], basis[idx]
            _pivot_many(sub, bas, np.full(idx.size, r), enter,
                        buf[:idx.size])
            T[idx], basis[idx] = sub, bas

    x = np.zeros((B, M))
    lp_at, row_at = np.nonzero(basis < M)
    x[lp_at, basis[lp_at, row_at]] = T[lp_at, row_at, C]
    x[(x > -PIVOT_TOL) & (x < PIVOT_TOL)] = 0.0
    outcomes = [None] * B
    for i, b in enumerate(pos.tolist()):
        outcomes[b] = (LpOutcome("optimal", tuple(x[i].tolist()), None)
                       if found[i] else LpOutcome("infeasible", None, None))
    return outcomes


def _pivot_many(V, basis, rows, cols, buf):
    """Pivot each tableau ``V[b]`` on entry ``(rows[b], cols[b])``, as
    :meth:`_FloatTableau.pivot` does, the cost row included; ``buf`` is
    scratch of V's shape."""
    ar = np.arange(len(V))
    prow = V[ar, rows] / V[ar, rows, cols][:, None]
    prow[ar, cols] = 1.0
    f = V[ar, :, cols]
    f[ar, rows] = 0.0
    np.multiply(f[:, :, None], prow[:, None, :], out=buf)
    V -= buf
    V[ar, :, cols] = 0.0
    V[ar, rows] = prow
    basis[ar, rows] = cols


# ---------------------------------------------------------------------------
# Exact mode: float simplex, rational certificate.
# ---------------------------------------------------------------------------

def _float_pass(lp: LinearProgram, objective):
    """The float simplex on the float twins of ``lp``'s rows, maximizing
    ``objective``; see :func:`_simplex` for the result. A row with no
    double raises ``OverflowError`` here.

    A feasibility LP with the simplex row first solves its normalized
    Farkas dual (:func:`_farkas_dual`), and a positive optimum is returned
    as ``("infeasible", None, y)``: a certificate on at most
    ``num_vars + 1`` rows, for :func:`_farkas` to prove. Any other LP, and
    one whose dual optimum is not positive, runs the simplex itself."""
    rows = [con.float_row for con in lp.constraints]
    if lp.simplex_constraint:
        if lp.sense == "feasibility":
            y = _farkas_dual(lp.num_vars, rows)
            if y is not None:
                return "infeasible", None, y
        rows.append(((1.0,) * lp.num_vars, "==", 1.0))
    return _simplex(lp.num_vars, rows, [float(c) for c in objective], False)


# The signs a row's Farkas multiplier may take, by relation: one dual column
# per sign.
_DUAL_SIGNS = {"<=": (-1.0,), ">=": (1.0,), "==": (1.0, -1.0)}


def _farkas_dual(num_vars: int, rows):
    """Float multipliers, one per row and a last 0 for the simplex row,
    whose combination proves that the float ``rows`` have no point in the
    simplex; ``None`` if the float pass finds none.

    They solve: maximize ``y.b - t`` subject to ``(y.A)_i <= t`` for each
    variable i and ``sum_r |y_r| <= 1``, with ``y_r <= 0`` on ``<=`` rows
    and ``>= 0`` on ``>=`` rows. In nonnegative columns an ``==`` row takes
    two signed ones, and ``t = t+ - t-``. Every row is a ``<=`` with rhs 0
    or 1, so the slack basis is feasible and there is no phase 1. By
    Farkas's lemma the optimum is positive exactly when the rows have no
    point, and it sits at a basis of ``num_vars + 1`` rows, so at most that
    many multipliers are nonzero. They are scaled so that the smallest
    nonzero one is 1.
    """
    cols = [(r, sign, coeffs, rhs) for r, (coeffs, rel, rhs) in enumerate(rows)
            for sign in _DUAL_SIGNS[rel]]
    dual_rows = [([sign * coeffs[i] for _, sign, coeffs, _ in cols] + [-1.0, 1.0],
                  "<=", 0.0) for i in range(num_vars)]
    dual_rows.append(([1.0] * len(cols) + [0.0, 0.0], "<=", 1.0))
    objective = [sign * rhs for _, sign, _, rhs in cols] + [-1.0, 1.0]
    status, u, _ = _simplex(len(cols) + 2, dual_rows, objective, False)
    if status != "optimal" or \
            sum(c * v for c, v in zip(objective, u)) <= FEASIBILITY_TOL:
        return None
    y = [0.0] * (len(rows) + 1)
    for (r, sign, _, _), v in zip(cols, u):
        y[r] += sign * v
    small = min((abs(v) for v in y if v), default=0.0)
    return [v / small for v in y] if small else None


def _int_rows(lp: LinearProgram) -> list:
    """The :attr:`Constraint.int_row` of each of ``lp``'s rows, the simplex
    row last."""
    rows = [con.int_row for con in lp.constraints]
    if lp.simplex_constraint:
        rows.append(((1,) * lp.num_vars, "==", 1, 1))
    return rows


def _certified(lp: LinearProgram, rows, objective) -> LpOutcome | None:
    """The float pass's outcome once proven exactly, else ``None``.

    ``rows`` are :func:`_int_rows` of ``lp``, and ``objective`` is its
    ``Fraction`` objective in max form.
    """
    try:
        status, _, evidence = _float_pass(lp, objective)
    except (SolverFailure, OverflowError):
        # phase 1 broke down or a row has no double: the exact simplex decides
        return None
    if status == "infeasible":
        support = _farkas(lp.num_vars, rows, evidence, lp.simplex_constraint)
        if support is not None:
            return LpOutcome("infeasible", None, None, support)
    if status == "optimal":
        return _proven_vertex(lp, rows, objective, evidence)
    return None


def _farkas(num_vars: int, rows, duals, simplex: bool):
    """The certificate's support when ``duals`` prove exactly that ``rows``
    (each a :attr:`Constraint.int_row`) have no point x >= 0, else ``None``.

    Each dual is clipped to its relation's sign (<= 0 on ``<=`` rows, >= 0
    on ``>=`` rows), so every x satisfying the rows has ``y.A x >= y.b``.
    Without the simplex row, ``y.A <= 0`` and ``y.b > 0`` contradict that;
    with it, the simplex row's own dual is dropped and
    ``y.b > max_i (y.A)_i`` does. Float duals are rounded first (a whole
    number becomes that int, as rounding would make it); exact
    ``Fraction`` duals are used as they are. The support is the tuple of
    row indices whose clipped multiplier is nonzero, the simplex row left
    out; those rows alone carry the same proof.

    A dual whose sign clips it to zero is skipped before it is rounded:
    rounding keeps a dual's sign or makes it zero, so it would be clipped
    after rounding too. The sums run in ints, as :class:`_IntTableau`
    does: y.A and y.b times one positive common denominator, which
    changes no comparison.
    """
    if simplex:
        rows, duals = rows[:-1], duals[:-1]
    terms = []  # (numerator of y, denominator of y * row scale, coeffs, rhs)
    support = []
    for r, ((coeffs, rel, rhs, s), y) in enumerate(zip(rows, duals)):
        if not abs(y) < float("inf"):  # NaN or infinite: no certificate
            return None
        if y == 0 or (rel == "<=" and y > 0) or (rel == ">=" and y < 0):
            continue
        if not isinstance(y, Fraction):
            if y == int(y):  # a whole number is its own nearest rational
                y = int(y)
            else:
                y = Fraction(y).limit_denominator(DUAL_DENOMINATOR)
                if y == 0:
                    continue
        support.append(r)
        terms.append((y.numerator, y.denominator * s, coeffs, rhs))
    scale = lcm(*(t for _, t, _, _ in terms))
    combo = [0] * num_vars  # scale * y.A
    bound = 0  # scale * y.b
    for p, t, coeffs, rhs in terms:
        k = p * (scale // t)
        for i, c in enumerate(coeffs):
            if c:
                combo[i] += k * c
        bound += k * rhs
    proven = (bound > max(combo) if simplex
              else bound > 0 and all(v <= 0 for v in combo))
    return tuple(support) if proven else None


def _proven_vertex(lp: LinearProgram, rows, objective, active):
    """The outcome the vertex pinned by ``active`` proves, or ``None``.

    ``rows`` are :func:`_int_rows` of ``lp``; ``active`` holds ``num_vars``
    constraint keys: a row index, or ``len(rows) + i`` for the bound
    ``x_i >= 0``. The vertex solves those constraints as equalities, in
    ints; it proves ``lp`` feasible if it satisfies every row and bound.
    For a ``max`` or ``min`` LP (``objective`` in max form) it must also be
    optimal: ``objective = sum_k lam_k * g_k`` over the normals g_k of the
    active constraints, with lam_k >= 0 on ``<=`` and lam_k <= 0 on ``>=``
    constraints (bounds included), so no point of the LP does better. Then
    the value is proven. If every such lam_k is nonzero (for a feasibility
    LP, whose objective is zero, if every active constraint is an
    equality), every optimum is tight on all of them, so the vertex is the
    only one, and the point is proven too. A point not proven is found when
    it is first read (:func:`_deferred`).
    """
    num_vars = lp.num_vars
    if len(active) != num_vars:
        return None
    tight = _tight_rows(rows, active, num_vars)
    vertex = _solve_int([coeffs for coeffs, _, _, _ in tight],
                        [[rhs for _, _, rhs, _ in tight]])
    if vertex is None:
        return None
    (xs,), d = vertex  # x = xs / d
    if any(v < 0 for v in xs):
        return None
    for coeffs, rel, rhs, _ in rows:
        lhs, b = sum(c * v for c, v in zip(coeffs, xs) if v), rhs * d
        if (rel == "<=" and lhs > b) or (rel == ">=" and lhs < b) or \
                (rel == "==" and lhs != b):
            return None
    value, lam = None, [0] * num_vars
    if lp.sense != "feasibility":
        # Each g_k is a row scaled by s_k > 0, and the objective by its own
        # positive scale, so each multiplier below has the sign of lam_k.
        # The transposed system is nonsingular, as the vertex's is.
        ints, s = _integral(objective)
        (lam,), _ = _solve_int(
            [list(col) for col in zip(*(c for c, _, _, _ in tight))], [ints])
        if any((rel == "<=" and v < 0) or (rel == ">=" and v > 0)
               for (_, rel, _, _), v in zip(tight, lam)):
            return None
        value = Fraction(sum(c * v for c, v in zip(ints, xs)), s * d)
        if lp.sense == "min":
            value = -value
    free = [k for k, (_, rel, _, _), v in zip(active, tight, lam)
            if not v and rel != "=="]
    if free:
        return _deferred(lp, value, (active, xs, d, free))
    return LpOutcome("optimal", tuple(Fraction(v, d) for v in xs), value)


def _tight_rows(rows, active, num_vars) -> list:
    """The integer row of each key in ``active``: ``rows[k]``, or the bound
    ``x_i >= 0`` for ``k = len(rows) + i``."""
    return [rows[k] if k < len(rows) else
            (tuple(int(i == k - len(rows)) for i in range(num_vars)), ">=", 0, 1)
            for k in active]


def _unique_point(lp: LinearProgram, active, xs, d, free) -> tuple | None:
    """The vertex ``xs / d`` of :func:`_proven_vertex` if it is proven to
    be the only optimum of ``lp`` (its only point, for a feasibility LP),
    else ``None``. No :class:`_IntTableau` runs, and no LP is counted.

    With B the normals of the ``active`` constraints, an optimum y gives
    the direction y - x, which every constraint tight at x allows, and
    along which the objective ``sum_k lam_k (B (y - x))_k`` stays put. Each
    term has the sign that keeps to the feasible side, so each is zero:
    B (y - x) is zero but on ``free``, the active inequalities whose lam_k
    is zero. So y - x is ``sum_z s_z D_z`` with s >= 0, where
    ``D_z = B^-1 (sign_z e_z)`` leaves constraint z into its feasible side
    (sign -1 on ``<=``, +1 on ``>=`` and on a bound). The vertex is the
    only optimum when no such s, scaled to ``sum s = 1``, also keeps to
    the feasible side of every other constraint tight at x: a small LP over
    s, one row per such constraint, that the float simplex solves and
    :func:`_farkas` proves infeasible in ints.
    """
    rows = _int_rows(lp)
    num_vars = lp.num_vars
    tight = _tight_rows(rows, active, num_vars)
    at = {k: i for i, k in enumerate(active)}
    units = []
    for z in free:
        e = [0] * num_vars
        e[at[z]] = -1 if tight[at[z]][1] == "<=" else 1
        units.append(e)
    dirs, _ = _solve_int([coeffs for coeffs, _, _, _ in tight], units)
    cone = []  # (coefficients over s, relation) of each other tight one
    for k, (coeffs, rel, rhs, _) in enumerate(rows):
        if k not in at and sum(c * v for c, v in zip(coeffs, xs)) == rhs * d:
            cone.append(([sum(c * v for c, v in zip(coeffs, dz) if c)
                          for dz in dirs], rel))
    for i, v in enumerate(xs):
        if not v and len(rows) + i not in at:
            cone.append(([dz[i] for dz in dirs], ">="))
    size = len(free)
    float_rows, int_rows = [], []
    for coeffs, rel in cone:
        top = max(map(abs, coeffs))
        if top:  # each row over its largest entry, so floats stay in [-1, 1]
            float_rows.append(([c / top for c in coeffs], rel, 0.0))
            int_rows.append((coeffs, rel, 0, top))
    float_rows.append(([1.0] * size, "==", 1.0))
    int_rows.append(((1,) * size, "==", 1, 1))
    try:
        status, _, duals = _simplex(size, float_rows, [0.0] * size, False)
    except SolverFailure:
        return None
    if status != "infeasible" or _farkas(size, int_rows, duals, True) is None:
        return None
    return tuple(Fraction(v, d) for v in xs)


def _solve_int(mat, cols):
    """``(zs, d)``, d > 0, with ``mat . (z / d) = col`` for each int column
    ``col`` in ``cols`` and its z in ``zs``, by fraction-free Gauss-Jordan
    on the int matrix ``mat``; ``None`` if ``mat`` is singular. Each pivot
    updates the rows as :meth:`_IntTableau.pivot` does, so every division
    is exact and, once every column holds a pivot, row r reads ``d`` times
    (e_r, z_r / d) for each column."""
    n = len(mat)
    aug = [list(row) + [col[r] for col in cols] for r, row in enumerate(mat)]
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        row = aug[col]
        p = row[col]
        if p < 0:
            row = aug[col] = [-t for t in row]
            p = -p
        for r in range(n):
            if r != col:
                aug[r] = _eliminate(aug[r], row, col, p, d)
        d = p
    return [[row[n + j] for row in aug] for j in range(len(cols))], d


# ---------------------------------------------------------------------------
# Two-phase tableau simplex, Bland's rule: one routine, two arithmetics.
# ---------------------------------------------------------------------------

def _simplex(num_vars: int, rows, objective, exact: bool):
    """Maximize objective . x subject to rows, x >= 0.

    rows: list of (coeffs, rel in {"<=", ">=", "=="}, rhs) in float, or,
    when ``exact``, of :attr:`Constraint.int_row` (coeffs, rel, rhs, s):
    the rational row times s, in ints. The tableau is :class:`_IntTableau`
    or :class:`_FloatTableau` accordingly; the phases, the drive-out and
    the read-outs here serve both. An int row's slack and artificial
    entries are s, so the row starts as s times its rational tableau row.
    Returns ``(status, x, evidence)``. Evidence backs the status for the
    exact certificate: when infeasible, the phase-1 dual of every row in
    the orientation given (<= 0 on ``<=`` rows, >= 0 on ``>=`` rows, up to
    pivot noise); when optimal, the keys of the constraints the final basis
    holds tight (a row index, or ``len(rows) + i`` for ``x_i = 0``).
    """
    tab_type = _IntTableau if exact else _FloatTableau
    # Exact mode has no tolerances: a test against 0 is an exact test.
    zero, one, tol = tab_type.zero, tab_type.one, tab_type.tol

    # Normalize to rhs >= 0, preferring "<=" rows (slack-basic, no
    # artificial): flip ">=" rows whenever their rhs is nonpositive.
    norm = []
    flipped = []
    for coeffs, rel, rhs, *unit in rows:
        flip = rhs < 0 or (rel == ">=" and rhs == 0)
        if flip:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rel, rhs, unit[0] if unit else one))
        flipped.append(flip)

    n_slack = sum(1 for _, rel, _, _ in norm if rel != "==")
    # artificial vars for ">=" and "==" rows
    art_rows = [i for i, (_, rel, _, _) in enumerate(norm) if rel != "<="]
    n_art = len(art_rows)
    n_total = num_vars + n_slack + n_art

    m = len(norm)
    fill = 0 if exact else zero  # the int tableau holds ints
    tableau = [[fill] * (n_total + 1) for _ in range(m)]
    basis = [-1] * m
    slack_col = [-1] * m
    art_col = [-1] * m
    s_at = num_vars
    a_at = num_vars + n_slack
    for r, (coeffs, rel, rhs, unit) in enumerate(norm):
        for j, c in enumerate(coeffs):
            tableau[r][j] = c
        tableau[r][n_total] = rhs
        if rel != "==":
            tableau[r][s_at] = unit if rel == "<=" else -unit
            slack_col[r] = s_at
            s_at += 1
        if rel != "<=":
            art_col[r] = a_at
            a_at += 1
            tableau[r][art_col[r]] = unit
        basis[r] = slack_col[r] if rel == "<=" else art_col[r]
    tab = tab_type(tableau, basis)

    art_start = num_vars + n_slack
    keep = list(range(m))

    if n_art:
        # Phase 1: minimize sum of artificials.
        cost = [zero] * (n_total + 1)
        for j in range(art_start, n_total):
            cost[j] = one
        tab.set_cost(cost)
        status = _pivot_until_optimal(tab, n_total, blocked_from=None)
        if status == "unbounded":  # cannot happen for a bounded-below phase 1
            raise SolverFailure("phase 1 reported unbounded")
        if abs(tab.cost[n_total]) > tab.feas_tol:
            # Reduced cost of a column = its phase-1 cost minus y . column.
            duals = []
            for r, (_, rel, _, _) in enumerate(norm):
                if rel == "==":
                    y = one - tab.reduced_cost(art_col[r])
                else:
                    y = tab.reduced_cost(slack_col[r])
                    y = y if rel == ">=" else -y
                duals.append(-y if flipped[r] else y)
            return "infeasible", None, duals
        tab.cost = None
        # Drive remaining artificials out of the basis (or drop unit rows).
        keep = []
        for r in range(m):
            if tab.basis[r] >= art_start:
                pivot_col = -1
                for j in range(art_start):
                    v = tab.rows[r][j]
                    if v > tol or v < -tol:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    tab.pivot(r, pivot_col)
                    keep.append(r)
                # else: redundant row, skip it entirely below
            else:
                keep.append(r)
        if len(keep) != m:
            tab.rows = [tab.rows[r] for r in keep]
            tab.basis = [tab.basis[r] for r in keep]

    # Phase 2: maximize objective. Work with cost row for min(-objective).
    cost = [zero] * (n_total + 1)
    for j in range(num_vars):
        cost[j] = -objective[j]
    tab.set_cost(cost)
    status = _pivot_until_optimal(tab, n_total,
                                  blocked_from=art_start if n_art else None)
    if status == "unbounded":
        return "unbounded", None, None

    x = [zero] * num_vars
    for r, b in enumerate(tab.basis):
        if b < num_vars:
            x[b] = tab.value(r)
    x = [zero if -tol < v < tol else v for v in x]
    basic = set(tab.basis)
    tight = [r for r in keep if slack_col[r] < 0 or slack_col[r] not in basic]
    tight += [len(rows) + i for i in range(num_vars) if i not in basic]
    return "optimal", x, tight


def _pivot_until_optimal(tab, n_total, blocked_from):
    """Bland pivoting on the cost row until no negative reduced cost remains.

    ``blocked_from`` excludes columns at or past that index (artificials in
    phase 2) from entering the basis.
    """
    limit = n_total if blocked_from is None else blocked_from
    tol = tab.tol
    while True:
        cost = tab.cost
        enter = -1
        for j in range(limit):
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = tab.leaving(enter)
        if leave < 0:
            return "unbounded"
        tab.pivot(leave, enter)


class _FloatTableau:
    """The simplex tableau in doubles, with pivot and feasibility tolerances.

    ``rows`` are the constraint rows, rhs last; ``basis[r]`` is the column
    basic in row r. ``cost`` is the reduced-cost row being minimized, its
    last entry minus the objective value, or ``None`` between the phases.

    :meth:`pivot` and :meth:`set_cost` skip the zero entries of the row
    they subtract, mostly slack and artificial columns. Against loops over
    every column, only the sign of a zero entry can differ.
    """

    zero, one, tol, feas_tol = 0.0, 1.0, PIVOT_TOL, FEASIBILITY_TOL

    def __init__(self, rows, basis):
        self.rows, self.basis, self.cost = rows, basis, None

    def set_cost(self, cost):
        """Make ``cost`` the cost row, its basic columns priced out."""
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[r]
                for j, v in enumerate(row):
                    if v != 0:
                        cost[j] = cost[j] - cb * v
        self.cost = cost

    def reduced_cost(self, j):
        return self.cost[j]

    def value(self, r):
        """The value of row r's basic variable."""
        return self.rows[r][-1]

    def leaving(self, enter):
        """Ratio test; ties broken by smallest basic variable index (Bland).
        -1 when no row bounds the entering column."""
        basis = self.basis
        leave = -1
        best = None
        for r, row in enumerate(self.rows):
            a = row[enter]
            if a > self.tol:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        return leave

    def pivot(self, r, c):
        tableau, cost = self.rows, self.cost
        row = tableau[r]
        piv = row[c]
        nz = [j for j, v in enumerate(row) if v != 0]
        for j in nz:
            row[j] = row[j] / piv
        row[c] = piv / piv  # exactly one
        for rr in range(len(tableau)):
            if rr == r:
                continue
            other = tableau[rr]
            f = other[c]
            if f == 0:
                continue
            for j in nz:
                other[j] = other[j] - f * row[j]
            other[c] = 0 * f  # kill residual noise
        if cost is not None:
            f = cost[c]
            if f != 0:
                for j in nz:
                    cost[j] = cost[j] - f * row[j]
                cost[c] = 0 * f
        self.basis[r] = c


class _IntTableau:
    """The :class:`_FloatTableau` interface on the exact tableau, kept
    fraction-free (Edmonds 1967; Bareiss 1968): Python ints over one
    positive common denominator ``d``.

    Each row starts as its :attr:`Constraint.int_row`, scaled by the LCM
    of its denominators, ``s``, with ``d = 1``. A row holds ``d * s`` times
    its rational tableau row until it first holds a pivot, and ``d`` times
    it from then on; the cost row holds ``d * scale`` times the rational
    reduced costs. All entries stay
    integers: each is a minor of the scaled rows. Positive factors change
    no sign and no ratio, so every entering and leaving choice is the one
    the rational tableau makes, with no gcd taken.
    """

    zero, one, tol, feas_tol = Fraction(0), Fraction(1), 0, 0

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis, self.cost, self.d, self.scale = basis, None, 1, 1

    def set_cost(self, cost):
        """Make ``cost`` (rationals) the cost row, its basic columns priced
        out. Scaling it by the LCM of its denominators times that of the
        basic entries to price out makes every multiplier below an int."""
        d, rows, basis = self.d, self.rows, self.basis
        priced = [r for r, b in enumerate(basis) if cost[b]]
        cost, self.scale = _integral(
            cost, lcm(*(rows[r][basis[r]] // d for r in priced)))
        cost = [c * d for c in cost]
        for r in priced:
            row = rows[r]
            k = cost[basis[r]] // row[basis[r]]
            cost = [c - k * t for c, t in zip(cost, row)]
        self.cost = cost

    def reduced_cost(self, j):
        return Fraction(self.cost[j], self.d * self.scale)

    def value(self, r):
        return Fraction(self.rows[r][-1], self.d)

    def leaving(self, enter):
        """Ratio test by cross-multiplication, rows ranked as in
        :meth:`_FloatTableau.leaving`."""
        basis, rows = self.basis, self.rows
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                best = rows[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        return leave

    def pivot(self, r, c):
        """Pivot on entry (r, c); a negative pivot row is negated first, so
        that ``d`` stays positive. Every division here is exact."""
        rows, d = self.rows, self.d
        row = rows[r]
        p = row[c]
        if p < 0:
            row = rows[r] = [-t for t in row]
            p = -p
        for i, other in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(other, row, c, p, d)
        if self.cost is not None:
            self.cost = _eliminate(self.cost, row, c, p, d)
        self.d = p
        self.basis[r] = c


def _eliminate(other, row, c, p, d):
    """``other`` with column c cleared by the pivot row ``row``, moved from
    common denominator ``d`` to ``p``."""
    f = other[c]
    if f:
        return [(t * p - f * s) // d for t, s in zip(other, row)]
    if p == d:
        return other
    return [t * p // d for t in other]


def _integral(values, factor=1):
    """``(ints, s)``: rationals ``values`` times ``s``, the LCM of their
    denominators times ``factor``."""
    dens = [v.denominator for v in values]
    s = lcm(*dens) * factor
    return [v.numerator * (s // d) for v, d in zip(values, dens)], s
