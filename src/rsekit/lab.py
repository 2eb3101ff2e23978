"""Instance lab: the worked-example catalog, the exact-cover reduction
generator, random games, and the brute-force lattice oracle.

The catalog materializes the small named games used throughout the test
suite with exact rational entries, together with their documented
quantities (SSE value, maximin value, inducibility gap, robust-value curve
segments). The exact-cover generator turns a 3-set system into a game whose
robust value separates yes- from no-instances at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceeded, GameFormatError, RejectionCapExceeded
from .game import (BimatrixGame, GameValueReport, MixedStrategy, compositions,
                   evaluate, exact_game, float_to_fraction, normalize,
                   tolerance)

# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A named game with parameter map and documented expected quantities."""

    name: str
    parameters: dict
    game: BimatrixGame
    expected: dict


def _frac(v) -> Fraction:
    if isinstance(v, float):
        return float_to_fraction(v)
    return Fraction(v)


def _existence_example(delta: Fraction) -> tuple[list, list, dict]:
    u_l = [[0, 0], [0, 1], [0, 0]]
    u_f = [[-1, 0], [-delta, 0], [1, 0]]
    return u_l, u_f, {"delta": delta}


def _variants_example() -> tuple[list, list]:
    h, q = Fraction(1, 2), Fraction(1, 4)
    u_l = [[1, q, 0], [h, h, 0], [q, q, q]]
    u_f = [[h, h, 0], [h, h, 0], [h, h, h]]
    return u_l, u_f


def _tie_break_example(gap: Fraction, c: Fraction) -> tuple[list, list]:
    u_l = [[0, 0], [gap, gap - c], [0, 0]]
    u_f = [[gap, 0], [gap, gap], [0, gap]]
    return u_l, u_f


def _continuous_example(eps: Fraction) -> tuple[list, list]:
    u_l = [[1, 0], [0, 0], [0, 0]]
    u_f = [[(1 + eps) / 2, (1 - eps) / 2], [0, 1], [1, 0]]
    return u_l, u_f


def _nonconvex_example(gap: Fraction, c: Fraction) -> tuple[list, list]:
    u_l = [[0, c], [Fraction(1, 2), c], [1, c]]
    u_f = [[1, gap], [0, gap], [Fraction(1, 2), gap]]
    return u_l, u_f


def _learning_pair_3x2(delta: Fraction, eps: Fraction, gap: Fraction,
                       flipped: bool) -> tuple[list, list]:
    hi, lo = (1 + eps) / 2, (1 - eps) / 2
    first = (lo + delta, hi) if flipped else (hi + delta, lo)
    u_l = [[1, 0], [0, 0], [0, 0]]
    u_f = [list(first), [0, gap], [gap, 0]]
    return u_l, u_f


def _learning_pair_2x2(delta: Fraction, eps: Fraction,
                       flipped: bool) -> tuple[list, list]:
    hi, lo = (1 + eps) / 2, (1 - eps) / 2
    first = (lo + delta, hi) if flipped else (hi + delta, lo)
    u_l = [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]
    u_f = [list(first), [1, 1]]
    return u_l, u_f


def _nonconvex_curve(gap: Fraction, c: Fraction) -> Callable:
    lo = Fraction(1, 2) - gap
    hi = 1 - c / 2 - gap

    def curve(delta) -> Fraction:
        d = _frac(delta)
        if d <= 0:
            raise ValueError("curve defined for delta > 0")
        if d <= lo:
            return Fraction(1)
        if d <= hi:
            return 2 - 2 * gap - 2 * d
        return c

    return curve


def _continuous_curve(eps: Fraction) -> Callable:
    def curve(delta) -> Fraction:
        d = _frac(delta)
        if d <= 0:
            raise ValueError("curve defined for delta > 0")
        if d <= eps:
            return Fraction(1)
        if d <= 1:
            return (1 - d) / (1 - eps)
        return Fraction(0)

    return curve


def catalog(name: str, parameters: Mapping | None = None) -> CatalogEntry:
    """Materialize a named catalog game with parameters substituted.

    Known names: ``table1`` .. ``table5``, ``table6_g1``, ``table6_g2``,
    ``table7_g1``, ``table7_g2``. Raw forms whose entries leave [0, 1] pass
    through :func:`normalize`; the applicable delta rescale factor is then
    recorded under ``expected["delta_scale"]``. A parameter the entry does
    not take is a :class:`GameFormatError`.
    """
    params = {k: _frac(v) for k, v in (parameters or {}).items()}
    given, takes = list(params), []

    def take(key, default):
        takes.append(key)
        return params.setdefault(key, _frac(default))

    if name == "table1":
        delta = take("delta", Fraction(1, 4))
        if not 0 < delta < 1:
            raise GameFormatError("table1 needs 0 < delta < 1")
        u_l, u_f, _ = _existence_example(delta)
        game = normalize(u_l, u_f, {"catalog": name})
        scale = Fraction(game.meta["normalization"]["exact"]["follower"]["scale"])
        expected = {
            "delta_scale": scale,
            "raw_u_l": u_l,
            "raw_u_f": u_f,
            "br_at_interior": (1,),
        }
    elif name == "table2":
        u_l, u_f = _variants_example()
        game = exact_game(u_l, u_f, {"catalog": name})
        expected = {
            "delta_scale": Fraction(1),
            "sse_value": Fraction(1),
            "sse_strategy": (1, 0, 0),
            "maximin_value": Fraction(1, 4),
            "maximin_strategy": (0, 0, 1),
            "gap": Fraction(0),
            "rse_value": Fraction(1, 2),  # for 0 < delta <= 1/2
            "rse_strategy": (0, 1, 0),
            "eval_sse_at_quarter": Fraction(1, 4),
            "eval_maximin_at_quarter": Fraction(1, 4),
        }
    elif name == "table3":
        gap = take("gap", Fraction(2, 5))
        c = take("c", Fraction(1, 5))
        if not 0 < c < gap:
            raise GameFormatError("table3 needs 0 < c < gap")
        u_l, u_f = _tie_break_example(gap, c)
        game = exact_game(u_l, u_f, {"catalog": name})
        expected = {
            "delta_scale": Fraction(1),
            "gap": gap,
            "rse_strategy": (0, 1, 0),      # for c < delta < gap
            "rse_value": gap - c,
            "tie_gap": c,
        }
    elif name == "table4":
        eps = take("eps", Fraction(1, 2))
        if not 0 <= eps <= 1:
            raise GameFormatError("table4 needs eps in [0, 1]")
        u_l, u_f = _continuous_example(eps)
        game = exact_game(u_l, u_f, {"catalog": name})
        expected = {
            "delta_scale": Fraction(1),
            "gap": Fraction(1),
            "sse_value": Fraction(1),
            "sse_strategy": (1, 0, 0),
            "maximin_value": Fraction(0),
            "curve": _continuous_curve(eps),
        }
    elif name == "table5":
        gap = take("gap", Fraction(2, 5))
        c = take("c", Fraction(4, 5))
        if not (0 < gap < Fraction(1, 2) and 0 < c < 1):
            raise GameFormatError("table5 needs gap in (0, 1/2) and c in (0, 1)")
        u_l, u_f = _nonconvex_example(gap, c)
        game = exact_game(u_l, u_f, {"catalog": name})
        expected = {
            "delta_scale": Fraction(1),
            "gap": gap,
            "sse_value": Fraction(1),
            "maximin_value": c,
            "curve": _nonconvex_curve(gap, c),
            "breakpoints": (Fraction(1, 2) - gap, 1 - c / 2 - gap),
        }
    elif name in ("table6_g1", "table6_g2"):
        delta = take("delta", Fraction(1, 10))
        eps = take("eps", Fraction(1, 10))
        gap = take("gap", Fraction(2, 5))
        if not 0 < delta < gap:
            raise GameFormatError("table6 needs 0 < delta < gap")
        flipped = name.endswith("g2")
        u_l, u_f = _learning_pair_3x2(delta, eps, gap, flipped)
        game = normalize(u_l, u_f, {"catalog": name})
        scale = Fraction(game.meta["normalization"]["exact"]["follower"]["scale"])
        expected = {
            "delta_scale": scale,
            "gap_parameter": gap,
            "rse_value": ((gap - delta) / (gap - delta + eps)
                          if flipped else Fraction(1)),
            "rse_strategy": None if flipped else (1, 0, 0),
            "loss_if_misidentified": (eps / (gap - delta + eps),
                                      (gap - delta) / (gap - delta + eps)),
        }
    elif name in ("table7_g1", "table7_g2"):
        delta = take("delta", Fraction(1, 10))
        eps = take("eps", Fraction(1, 10))
        flipped = name.endswith("g2")
        u_l, u_f = _learning_pair_2x2(delta, eps, flipped)
        game = normalize(u_l, u_f, {"catalog": name})
        scale = Fraction(game.meta["normalization"]["exact"]["follower"]["scale"])
        expected = {
            "delta_scale": scale,
            "rse_value": Fraction(1, 2) if flipped else Fraction(1),
        }
    else:
        raise GameFormatError(f"unknown catalog name {name!r}")
    unknown = [k for k in given if k not in takes]
    if unknown:
        raise GameFormatError(
            f"{name} takes no parameter {unknown[0]!r} (it takes: "
            f"{', '.join(takes) or 'none'})")
    return CatalogEntry(name, params, game, expected)


CATALOG_NAMES = ("table1", "table2", "table3", "table4", "table5",
                 "table6_g1", "table6_g2", "table7_g1", "table7_g2")


# ---------------------------------------------------------------------------
# Exact-cover reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class X3CInstance:
    """A 3-set system: ``subsets`` over the ground set {1, .., 3k}."""

    k: int
    subsets: tuple[frozenset, ...]

    def __post_init__(self):
        if self.k < 1:
            raise GameFormatError("k must be >= 1")
        subs = tuple(frozenset(int(e) for e in s) for s in self.subsets)
        for s in subs:
            if len(s) != 3 or not all(1 <= e <= 3 * self.k for e in s):
                raise GameFormatError(f"subset {sorted(s)} is not a 3-subset of "
                                      f"{{1..{3 * self.k}}}")
        if not subs:
            raise GameFormatError("instance needs at least one subset")
        object.__setattr__(self, "subsets", subs)

    @property
    def m(self) -> int:
        return len(self.subsets)


def parse_x3c(text: str) -> X3CInstance:
    """File format: first line k, then one 3-subset per line."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GameFormatError("empty instance file")
    k = int(lines[0])
    subsets = tuple(frozenset(int(v) for v in ln.split()) for ln in lines[1:])
    return X3CInstance(k, subsets)


def x3c_to_text(instance: X3CInstance) -> str:
    lines = [str(instance.k)]
    for s in instance.subsets:
        lines.append(" ".join(str(v) for v in sorted(s)))
    return "\n".join(lines) + "\n"


def x3c_brute_check(instance: X3CInstance) -> bool:
    """Exhaustively test all size-k subset families for an exact cover."""
    if instance.m > 20:
        raise BudgetExceeded(f"brute-force check capped at 20 subsets, got {instance.m}")
    # k 3-subsets of {1, .., 3k} cover it exactly when their union has 3k
    # elements, so no ground set is built; with k > m there is no family.
    return any(len(frozenset().union(*family)) == 3 * instance.k
               for family in combinations(instance.subsets, instance.k))


def gen_x3c_game(instance: X3CInstance, delta, epsilon) -> BimatrixGame:
    """Game whose robust value is 1/k exactly when an exact cover exists.

    Follower columns are ordered [a, b_1..b_m, c_1..c_3k]. The coupling
    constant lambda = eps / (6 m k^2) makes choosing a subset with
    probability above lambda expose its b-column while pinning element
    coverage near 1/k. All entries are exact rationals. A game of more
    than ``MAX_ENTRIES`` entries per matrix raises :class:`BudgetExceeded`
    before any row is built.
    """
    d = _frac(delta)
    e = _frac(epsilon)
    if not (0 < d < 1 and 0 < e < 1):
        raise GameFormatError("delta and epsilon must lie in (0, 1)")
    k, m = instance.k, instance.m
    n = m + 3 * k + 1
    if m * n > MAX_ENTRIES:
        raise BudgetExceeded(f"the x3c game with m = {m} and k = {k} has "
                             f"{m * n} entries per matrix, above the cap of "
                             f"{MAX_ENTRIES}")
    lam = e / (6 * m * k * k)

    b_off = max(1 - d / (1 - lam), Fraction(0))
    b_on = min(Fraction(1), (1 - d) / lam)
    c_out = min((1 - d) * k / (k - 1 + lam * k), Fraction(1))
    c_in = max(Fraction(0), 1 - d * k / (1 - lam * k))

    u_f = []
    u_l = []
    inv_k = Fraction(1, k)
    for ell, subset in enumerate(instance.subsets):
        fw = [Fraction(1)]
        lw = [inv_k]
        for j in range(m):
            fw.append(b_on if j == ell else b_off)
            lw.append(Fraction(1) if j == ell else Fraction(0))
        for i in range(1, 3 * k + 1):
            fw.append(c_in if i in subset else c_out)
            lw.append(Fraction(0))
        u_f.append(fw)
        u_l.append(lw)

    labels = ["a"] + [f"b{j + 1}" for j in range(m)] + \
             [f"c{i}" for i in range(1, 3 * k + 1)]
    meta = {
        "x3c": {
            "k": k,
            "lambda": str(lam),
            "yes_value": str(inv_k),
            "delta": str(d),
            "eps_reduction": str(e),
            "columns": labels,
        }
    }
    game = exact_game(u_l, u_f, meta)
    assert game.n == n
    return game


# ---------------------------------------------------------------------------
# Random games
# ---------------------------------------------------------------------------

MAX_DRAWS = 64  # draws gen_random makes for ensure_gap before giving up
# most entries m * n a gen_random or gen_x3c_game matrix may have
MAX_ENTRIES = 10 ** 7


def gen_random(m: int, n: int, seed: int, *, rational_grid: int | None = None,
               ensure_gap: float | None = None) -> BimatrixGame:
    """Seeded i.i.d. uniform [0, 1] game.

    ``rational_grid=q`` snaps entries to multiples of 1/q and attaches exact
    matrices. ``ensure_gap`` rejection-samples until the inducibility gap
    exceeds the threshold (at most ``MAX_DRAWS`` draws). A game of more
    than ``MAX_ENTRIES`` entries per matrix raises :class:`BudgetExceeded`
    before any draw.
    """
    if m < 1 or n < 1:
        raise GameFormatError("need m, n >= 1")
    if rational_grid is not None and rational_grid < 1:
        raise GameFormatError(
            f"rational_grid must be at least 1, got {rational_grid}")
    if m * n > MAX_ENTRIES:
        raise BudgetExceeded(f"a {m}x{n} game has {m * n} entries per "
                             f"matrix, above the cap of {MAX_ENTRIES}")
    if ensure_gap is not None:  # lab's one solver, loaded only for it
        from .baseline import inducibility_gap
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        if rational_grid is not None:
            q = int(rational_grid)
            lw = rng.integers(0, q + 1, size=(m, n))
            fw = rng.integers(0, q + 1, size=(m, n))
            game = exact_game(
                [[Fraction(int(v), q) for v in row] for row in lw],
                [[Fraction(int(v), q) for v in row] for row in fw],
                {"seed": seed, "grid": q})
        else:
            game = BimatrixGame(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)),
                                {"seed": seed})
        if ensure_gap is None or inducibility_gap(game).gap > ensure_gap:
            return game
    raise RejectionCapExceeded(
        f"no game with gap > {ensure_gap} in {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# Brute-force lattice oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_M = 4
ORACLE_MAX_RESOLUTION = 200


def grid_oracle(game: BimatrixGame, delta, resolution: int) -> GameValueReport:
    """Pessimistic-value maximizer over the resolution-step simplex lattice.

    Pure matrix arithmetic, no LPs: an independent one-sided reference
    (lattice value <= true robust value; the gap shrinks with resolution
    where the value curve is locally Lipschitz). Budget-guarded.

    Lattice points are scored in batches with the strict response rule of
    :func:`~rsekit.game.br_delta`; the first maximizer in the lexicographic
    order of :func:`~rsekit.game.compositions` wins.
    """
    if game.m > ORACLE_MAX_M:
        raise BudgetExceeded(f"oracle capped at m <= {ORACLE_MAX_M}, got {game.m}")
    if not 1 <= resolution <= ORACLE_MAX_RESOLUTION:
        raise BudgetExceeded(
            f"oracle resolution must be in [1, {ORACLE_MAX_RESOLUTION}]")
    d, eta = float(delta), tolerance(False)
    best_val, best_counts = -np.inf, None
    points = compositions(int(resolution), game.m)
    while batch := list(islice(points, 8192)):
        x = np.array(batch, dtype=np.float64) / resolution
        uf = x @ game.u_f
        top = uf.max(axis=1, keepdims=True)
        responds = (uf >= top - eta) | (uf > top - d + eta)
        vals = np.where(responds, x @ game.u_l, np.inf).min(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_counts = vals[i], batch[i]
    x = MixedStrategy(np.array(best_counts, dtype=np.float64) / resolution)
    return evaluate(game, x, d)
