"""Game representation, delta-optimal response sets, and leader value evaluation.

A :class:`BimatrixGame` always carries float64 utility matrices with entries
in [0, 1]. Games built from rational data additionally carry exact
``Fraction`` matrices; operations accept ``exact=True`` to run entirely in
rational arithmetic (the reference mode for boundary-sensitive questions).
:func:`rational_reading` gives any game exact matrices.

The arithmetic mode is decided in one place. Every LP solver reads the
rational game and level of :func:`rational_view`: in float mode, the
rational reading. :meth:`BimatrixGame.columns` hands the matrix columns
over as Python floats or as ``Fraction``s (and rejects exact mode on a
game without rational matrices), and :func:`strategy_from` turns LP
coordinates into a :class:`MixedStrategy` of the mode; :func:`scalar` does
the same for a single input value such as delta. The payoff vectors are
lists of Python scalars in both modes, so callers need no per-mode
conversion.

The mode also fixes the tolerance: :func:`tolerance` is 0 in exact mode and
``ETA`` (1e-9) in float. One strict-response rule serves both modes and
every delta: with ``best`` the best follower payoff, ``j`` responds iff
``u_f(x, j) >= best - tol`` or ``u_f(x, j) > best - delta + tol``. The first
clause keeps the argmax set, so ``delta == 0`` gives that set alone; the
second is ``u_f(x, j) > best - delta``, cleared by more than ``tol``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Any, Sequence

import numpy as np

from .errors import GameFormatError, InvalidStrategyError

ETA = 1e-9

ExactMatrix = tuple[tuple[Fraction, ...], ...]

PESSIMISTIC = "pessimistic"
OPTIMISTIC = "optimistic"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BimatrixGame:
    """Leader/follower utility matrices with entries in [0, 1].

    Rows index leader actions, columns follower actions (zero-based).
    ``exact_u_l``/``exact_u_f`` hold the same matrices as Fractions when the
    game was built from rational data; an exact entry more than
    ``tolerance(False)`` away from its float entry is a ``GameFormatError``.
    """

    u_l: np.ndarray
    u_f: np.ndarray
    meta: dict = field(default_factory=dict)
    exact_u_l: ExactMatrix | None = None
    exact_u_f: ExactMatrix | None = None

    def __post_init__(self):
        ul = _freeze(self.u_l)
        uf = _freeze(self.u_f)
        if ul.ndim != 2 or ul.shape != uf.shape or ul.shape[0] < 1 or ul.shape[1] < 1:
            raise GameFormatError(f"matrix shapes disagree: {ul.shape} vs {uf.shape}")
        if not (np.isfinite(ul).all() and np.isfinite(uf).all()):
            raise GameFormatError("non-finite utility entry")
        for a in (ul, uf):
            if a.min() < -ETA or a.max() > 1 + ETA:
                raise GameFormatError("utilities must lie in [0, 1]; normalize first")
        object.__setattr__(self, "u_l", ul)
        object.__setattr__(self, "u_f", uf)
        for name, floats in (("exact_u_l", ul), ("exact_u_f", uf)):
            ex = getattr(self, name)
            if ex is not None:
                ex = tuple(tuple(Fraction(v) for v in row) for row in ex)
                if len(ex) != ul.shape[0] or any(len(r) != ul.shape[1] for r in ex):
                    raise GameFormatError(f"{name} shape disagrees with float matrix")
                if any(v < 0 or v > 1 for row in ex for v in row):
                    raise GameFormatError("exact utilities must lie in [0, 1]")
                off = np.abs(np.array(ex, dtype=np.float64) - floats)
                i, j = np.unravel_index(off.argmax(), off.shape)
                if off[i, j] > tolerance(False):
                    raise GameFormatError(f"{name} disagrees with {name[6:]} at "
                                          f"({i}, {j}): {ex[i][j]} vs {floats[i, j]}")
                object.__setattr__(self, name, ex)

    @property
    def m(self) -> int:
        return self.u_l.shape[0]

    @property
    def n(self) -> int:
        return self.u_l.shape[1]

    @property
    def has_exact(self) -> bool:
        return self.exact_u_l is not None and self.exact_u_f is not None

    def columns(self, exact: bool):
        """``(leader_cols, follower_cols)``, one tuple of entries per column.

        Entries are ``Fraction``s when ``exact``, else Python floats.
        """
        if not exact:
            return tuple(zip(*self.u_l.tolist())), tuple(zip(*self.u_f.tolist()))
        if not self.has_exact:
            raise GameFormatError("exact mode requires a game with rational matrices")
        return tuple(zip(*self.exact_u_l)), tuple(zip(*self.exact_u_f))

    def __eq__(self, other):
        if not isinstance(other, BimatrixGame):
            return NotImplemented
        return (
            np.array_equal(self.u_l, other.u_l)
            and np.array_equal(self.u_f, other.u_f)
            and self.exact_u_l == other.exact_u_l
            and self.exact_u_f == other.exact_u_f
            and self.meta == other.meta
        )

    def __hash__(self):
        return hash((self.u_l.tobytes(), self.u_f.tobytes()))


def exact_game(u_l_rows: Sequence[Sequence], u_f_rows: Sequence[Sequence],
               meta: dict | None = None) -> BimatrixGame:
    """Build a game from rational entries, keeping the exact matrices."""
    exl = tuple(tuple(Fraction(v) for v in row) for row in u_l_rows)
    exf = tuple(tuple(Fraction(v) for v in row) for row in u_f_rows)
    ul = np.array([[float(v) for v in row] for row in exl])
    uf = np.array([[float(v) for v in row] for row in exf])
    return BimatrixGame(ul, uf, meta or {}, exl, exf)


@dataclass(frozen=True, slots=True)
class MixedStrategy:
    """Point on the leader's simplex, optionally with exact coordinates."""

    probs: np.ndarray
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise InvalidStrategyError("strategy must be a 1-d probability vector")
        if not np.isfinite(p).all():
            raise InvalidStrategyError(
                f"non-finite probability in strategy {p.tolist()}")
        if p.min() < -ETA:
            raise InvalidStrategyError(f"negative probability {p.min()}")
        if abs(p.sum() - 1.0) > ETA:
            raise InvalidStrategyError(f"probabilities sum to {p.sum()}, not 1")
        p = np.where(p < 0, 0.0, p)
        object.__setattr__(self, "probs", _freeze(p))
        if self.exact is not None:
            ex = tuple(map(_fraction, self.exact))
            if len(ex) != p.size or any(v < 0 for v in ex) or not _sum_is_one(ex):
                raise InvalidStrategyError("exact coordinates are not a distribution")
            object.__setattr__(self, "exact", ex)

    def __eq__(self, other):
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs) and self.exact == other.exact

    def __hash__(self):
        return hash(self.probs.tobytes())


def _fraction(v) -> Fraction:
    """``Fraction(v)``, or ``v`` itself if it is one already."""
    return v if type(v) is Fraction else Fraction(v)


def _sum_is_one(values: Sequence[Fraction]) -> bool:
    """``sum(values) == 1``, summed in ints over the LCM of the
    denominators, so that no ``Fraction`` is made."""
    dens = [v.denominator for v in values]
    s = lcm(*dens)
    return sum(v.numerator * (s // d) for v, d in zip(values, dens)) == s


def exact_strategy(coords: Sequence) -> MixedStrategy:
    ex = tuple(map(_fraction, coords))
    return MixedStrategy(np.array([float(v) for v in ex]), ex)


def scalar(v, exact: bool):
    """``v`` as a number of the mode: a ``Fraction`` if ``exact``, else a
    float. A number whose double overflows, or rounds a nonzero ``v`` to
    zero, is a ``ValueError`` in float mode."""
    if exact:
        return Fraction(v)
    try:
        f = float(v)
    except OverflowError:
        raise ValueError("number too large for float mode") from None
    if f == 0 and Fraction(v) != 0:
        raise ValueError("number too small for float mode")
    return f


def tolerance(exact: bool):
    """Slack of the mode's comparisons: 0 in exact mode, ``ETA`` in float."""
    return 0 if exact else ETA


def strategy_from(coords: Sequence, exact: bool) -> MixedStrategy:
    """Strategy at ``coords``, keeping them as exact coordinates if ``exact``."""
    if exact:
        return exact_strategy(coords)
    return MixedStrategy(np.array(coords, dtype=float))


def pure_strategy(i: int, m: int, *, exact: bool = False) -> MixedStrategy:
    return strategy_from([1 if k == i else 0 for k in range(m)], exact)


def compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total:
    the counts of the points of the simplex whose coordinates are multiples
    of 1 / total.

    Lexicographically ascending: (0, ..., 0, total) first, (total, 0, ..., 0)
    last. qptas's anchor enumeration and the lattice oracle share this order.
    """
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


@dataclass(frozen=True, slots=True)
class ResponseSet:
    """Nonempty subset of follower actions, stored sorted."""

    actions: tuple[int, ...]

    def __post_init__(self):
        acts = tuple(sorted(set(int(a) for a in self.actions)))
        if not acts:
            raise GameFormatError("response set must be nonempty")
        object.__setattr__(self, "actions", acts)

    def __contains__(self, j) -> bool:
        return j in self.actions

    def __iter__(self):
        return iter(self.actions)

    def __len__(self):
        return len(self.actions)

    def issubset(self, other: "ResponseSet") -> bool:
        return set(self.actions) <= set(other.actions)


@dataclass(frozen=True, slots=True)
class GameValueReport:
    """A (strategy, response) outcome: the set the response was picked from,
    the leader's payoff, and the tie-breaking convention that picked it."""

    strategy: MixedStrategy
    response: int
    response_set: ResponseSet
    leader_value: float | Fraction
    tie_breaking: str = PESSIMISTIC


def _payoffs(game: BimatrixGame, x: MixedStrategy, player: int,
             exact: bool) -> list:
    if x.probs.size != game.m:
        raise InvalidStrategyError(
            f"strategy has {x.probs.size} entries, the game has {game.m} "
            "leader actions")
    if not exact:
        return (x.probs @ (game.u_l, game.u_f)[player]).tolist()
    cols = game.columns(True)[player]
    if x.exact is None:
        raise InvalidStrategyError("exact mode requires an exact strategy")
    return [sum(xi * v for xi, v in zip(x.exact, col)) for col in cols]


def follower_payoffs(game: BimatrixGame, x: MixedStrategy, *,
                     exact: bool = False) -> list:
    """Follower utility of each pure response against ``x``."""
    return _payoffs(game, x, 1, exact)


def leader_payoffs(game: BimatrixGame, x: MixedStrategy, *,
                   exact: bool = False) -> list:
    """Leader utility of each follower pure response against ``x``."""
    return _payoffs(game, x, 0, exact)


def br_delta(game: BimatrixGame, x: MixedStrategy, delta, *,
             exact: bool = False) -> ResponseSet:
    """Delta-optimal response set: strictly within ``delta`` of the optimum.

    ``delta == 0`` returns the plain argmax set; the module docstring
    states the rule.
    """
    if delta < 0:
        raise InvalidStrategyError(f"delta must be nonnegative, got {delta}")
    payoffs = follower_payoffs(game, x, exact=exact)
    best = max(payoffs)
    tol = tolerance(exact)
    argmax, strict = best - tol, best - scalar(delta, exact) + tol
    return ResponseSet(tuple(j for j, v in enumerate(payoffs)
                             if v >= argmax or v > strict))


def evaluate(game: BimatrixGame, x: MixedStrategy, delta, *,
             exact: bool = False) -> GameValueReport:
    """Leader value against a pessimistic delta-rational follower.

    The response is the leader-utility minimizer in the delta-optimal set,
    ties broken by smallest follower index.
    """
    rset = br_delta(game, x, delta, exact=exact)
    lead = leader_payoffs(game, x, exact=exact)
    response = min(rset.actions, key=lambda j: (lead[j], j))
    return GameValueReport(x, response, rset, lead[response], PESSIMISTIC)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _affine_params(values):
    """(scale, shift) mapping values into [0, 1] via (v + shift) * scale."""
    lo = min(values)
    hi = max(values)
    one = Fraction(1) if isinstance(lo, Fraction) else 1.0
    zero = one - one
    if lo >= 0 and hi <= 1:
        return one, zero
    if lo == hi:
        return one, -lo
    return one / (hi - lo), -lo


def normalize(raw_leader, raw_follower, meta: dict | None = None) -> BimatrixGame:
    """Affinely map each player's matrix into [0, 1], independently.

    Matrices already inside [0, 1] pass through unchanged; constant matrices
    map to all zeros. The per-player (scale, shift) pair lands in
    ``meta["normalization"]``; a delta measured against the raw follower
    utilities must be multiplied by the follower scale. Accepts numeric or
    Fraction entries; Fraction input yields an exact game.
    """
    rows_l = [list(r) for r in raw_leader]
    rows_f = [list(r) for r in raw_follower]
    if len(rows_l) != len(rows_f) or any(
            len(a) != len(b) or len(a) != len(rows_l[0]) for a, b in zip(rows_l, rows_f)):
        raise GameFormatError("leader/follower matrices must share one shape")
    is_exact = all(isinstance(v, (int, Fraction)) for row in rows_l + rows_f for v in row)
    if is_exact:
        rows_l = [[Fraction(v) for v in r] for r in rows_l]
        rows_f = [[Fraction(v) for v in r] for r in rows_f]
    else:
        for rows in (rows_l, rows_f):
            for r in rows:
                for v in r:
                    if not np.isfinite(float(v)):
                        raise GameFormatError("non-finite utility entry")
        rows_l = [[float(v) for v in r] for r in rows_l]
        rows_f = [[float(v) for v in r] for r in rows_f]

    flat_l = [v for r in rows_l for v in r]
    flat_f = [v for r in rows_f for v in r]
    scale_l, shift_l = _affine_params(flat_l)
    scale_f, shift_f = _affine_params(flat_f)
    mapped_l = [[(v + shift_l) * scale_l for v in r] for r in rows_l]
    mapped_f = [[(v + shift_f) * scale_f for v in r] for r in rows_f]

    meta = dict(meta or {})
    meta["normalization"] = {
        "leader": {"scale": float(scale_l), "shift": float(shift_l)},
        "follower": {"scale": float(scale_f), "shift": float(shift_f)},
    }
    if is_exact:
        meta["normalization"]["exact"] = {
            "leader": {"scale": str(scale_l), "shift": str(shift_l)},
            "follower": {"scale": str(scale_f), "shift": str(shift_f)},
        }
        return exact_game(mapped_l, mapped_f, meta)
    return BimatrixGame(np.array(mapped_l), np.array(mapped_f), meta)


# ---------------------------------------------------------------------------
# Game JSON schema
# ---------------------------------------------------------------------------

_MAX_EXACT_DENOMINATOR = 10 ** 12


def decimal_fraction(v) -> Fraction:
    """Decimal-faithful conversion: 0.1 becomes 1/10, not the IEEE ratio."""
    return Fraction(repr(float(v)))


def float_to_fraction(v: float) -> Fraction:
    """:func:`decimal_fraction`, rejected off a rational grid."""
    f = decimal_fraction(v)
    if f.denominator > _MAX_EXACT_DENOMINATOR:
        raise GameFormatError(
            f"entry {v!r} is not representable on a rational grid; "
            "exact mode rejected")
    return f


def _with_exact(game: BimatrixGame, convert) -> BimatrixGame:
    if game.has_exact:
        return game
    exl = tuple(tuple(convert(v) for v in row) for row in game.u_l.tolist())
    exf = tuple(tuple(convert(v) for v in row) for row in game.u_f.tolist())
    return BimatrixGame(game.u_l, game.u_f, game.meta, exl, exf)


def attach_exact(game: BimatrixGame) -> BimatrixGame:
    """Return the game with exact matrices derived from its float entries."""
    return _with_exact(game, float_to_fraction)


def rational_reading(game: BimatrixGame) -> BimatrixGame:
    """The game with exact matrices: its own, or else each float entry's
    :func:`decimal_fraction`, with no grid limit."""
    return _with_exact(game, decimal_fraction)


def rational_view(game: BimatrixGame, level, exact: bool):
    """``(rational, q, number)``: the game an LP solver of the mode reads,
    ``level`` (a delta or a margin) as the ``Fraction`` it reads, and the
    type of its answers: the game, ``Fraction(level)`` and ``Fraction`` in
    exact mode, else :func:`rational_reading`, :func:`decimal_fraction`
    and ``float``."""
    if exact:
        return game, Fraction(level), Fraction
    return rational_reading(game), decimal_fraction(level), float


def game_to_dict(game: BimatrixGame) -> dict[str, Any]:
    meta = dict(game.meta)
    if game.has_exact:
        meta["exact"] = {
            "u_l": [[str(v) for v in row] for row in game.exact_u_l],
            "u_f": [[str(v) for v in row] for row in game.exact_u_f],
        }
    return {
        "m": game.m,
        "n": game.n,
        "u_l": [list(row) for row in game.u_l.tolist()],
        "u_f": [list(row) for row in game.u_f.tolist()],
        "meta": meta,
    }


def game_from_dict(d: dict[str, Any]) -> BimatrixGame:
    try:
        m, n = int(d["m"]), int(d["n"])
        ul = np.array(d["u_l"], dtype=np.float64)
        uf = np.array(d["u_f"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise GameFormatError(f"bad game JSON: {e}") from e
    if ul.shape != (m, n) or uf.shape != (m, n):
        raise GameFormatError(f"declared {m}x{n} but matrices are {ul.shape}/{uf.shape}")
    try:
        meta = dict(d.get("meta") or {})
        exact = meta.pop("exact", None)
        exl = exf = None
        if exact is not None:
            exl = tuple(tuple(Fraction(v) for v in row) for row in exact["u_l"])
            exf = tuple(tuple(Fraction(v) for v in row) for row in exact["u_f"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as e:
        raise GameFormatError(f"bad game JSON: meta: {e!r}") from e
    return BimatrixGame(ul, uf, meta, exl, exf)


def dumps_game(game: BimatrixGame) -> str:
    return json.dumps(game_to_dict(game), sort_keys=True)


def loads_game(text: str) -> BimatrixGame:
    return game_from_dict(json.loads(text))
