"""Bandit-feedback learning of robust equilibria.

Pipeline: query every action pair a fixed number of times, form the
plug-in utility estimate, solve a (delta + 2 epsilon)-robust equilibrium on
the estimate, and evaluate the resulting strategy on the true game. The
inflation by 2 epsilon absorbs the estimation error of the follower matrix:
any true delta-optimal response is (delta + 2 epsilon)-optimal under an
estimate within epsilon in sup norm, so the pessimistic value computed on
the estimate transfers to the truth.

The learner half only sees the oracle's ``query``; truth is read by the
harness half for evaluation. :func:`rse_from_estimate` is the deterministic
core used to check the guarantee under injected perturbations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .approx import gap_approx, qptas_solve
from .baseline import inducibility_gap, solve_sse
from .errors import GameFormatError, GapTooSmall, PerturbationBoundError
from .exact import solve_exact
from .game import (BimatrixGame, MixedStrategy, br_delta, evaluate, scalar,
                   tolerance)


def _parse_noise(noise):
    if noise == "bernoulli":
        return ("bernoulli", 0.0)
    if isinstance(noise, str) and noise.startswith("gaussian:"):
        return ("gaussian", float(noise.split(":", 1)[1]))
    raise GameFormatError(f"unknown noise model {noise!r}")


@dataclass
class NoisyGameOracle:
    """Bandit oracle over a hidden game.

    ``bernoulli``: rewards are 0/1 draws with the entry as success
    probability. ``gaussian:SIGMA``: additive zero-mean noise, symmetrically
    clipped at three sigma (so still zero-mean); sigma 0 gives noiseless
    feedback. One rng per oracle; queries are sequential, so a fixed query
    order reproduces exactly.
    """

    truth: BimatrixGame
    noise: str = "bernoulli"
    seed: int = 0
    query_count: np.ndarray = field(init=False)

    def __post_init__(self):
        self._kind, self._sigma = _parse_noise(self.noise)
        self._rng = np.random.default_rng(self.seed)
        self.query_count = np.zeros((self.truth.m, self.truth.n), dtype=np.int64)

    @property
    def m(self) -> int:
        return self.truth.m

    @property
    def n(self) -> int:
        return self.truth.n

    def query(self, i: int, j: int, count: int = 1):
        """``count`` reward draws for the pair (i, j), leader then follower."""
        self.query_count[i, j] += count
        mu_l = self.truth.u_l[i, j]
        mu_f = self.truth.u_f[i, j]
        if self._kind == "bernoulli":
            r_l = (self._rng.random(count) < mu_l).astype(np.float64)
            r_f = (self._rng.random(count) < mu_f).astype(np.float64)
        else:
            s = self._sigma
            if s == 0.0:
                r_l = np.full(count, mu_l)
                r_f = np.full(count, mu_f)
            else:
                xi = np.clip(self._rng.normal(0.0, s, count), -3 * s, 3 * s)
                xi2 = np.clip(self._rng.normal(0.0, s, count), -3 * s, 3 * s)
                r_l = mu_l + xi
                r_f = mu_f + xi2
        return r_l, r_f


class QueryView:
    """Learner-facing facade of an oracle: query access only, no truth."""

    def __init__(self, oracle: NoisyGameOracle):
        self._query = oracle.query
        self.m = oracle.m
        self.n = oracle.n

    def query(self, i, j, count=1):
        return self._query(i, j, count)


@dataclass(frozen=True)
class LearnedOutcome:
    """Learned strategy, its value on the truth, and the sampling record."""

    samples_per_pair: int
    strategy: MixedStrategy
    true_value: float | Fraction
    guarantee_floor: float | Fraction
    sup_err_l: float
    sup_err_f: float


def samples_per_pair(m: int, n: int, epsilon: float, iota: float) -> int:
    """T = ceil(ln(2mn / iota) / (2 epsilon^2)), in doubles; ``ValueError``
    unless epsilon > 0 is finite, 0 < iota < 1 and T is finite."""
    if not (0 < epsilon < math.inf and 0 < iota < 1):
        raise ValueError("need a finite epsilon > 0 and iota in (0, 1)")
    try:
        return int(math.ceil(math.log(2 * m * n / iota)
                             / (2 * epsilon * epsilon)))
    except (OverflowError, ZeroDivisionError):  # T left the double range
        raise ValueError(
            f"samples per pair T = ceil(ln(2mn / iota) / (2 epsilon^2)) is "
            f"not finite for epsilon {epsilon}, iota {iota}") from None


def sample_estimate(oracle: NoisyGameOracle, epsilon: float,
                    iota: float) -> BimatrixGame:
    """Query every pair T times and return clamped empirical means.

    T lands in the returned game's ``meta["samples_per_pair"]``.
    """
    view = QueryView(oracle)
    T = samples_per_pair(view.m, view.n, epsilon, iota)
    u_l = np.empty((view.m, view.n))
    u_f = np.empty((view.m, view.n))
    for i in range(view.m):
        for j in range(view.n):
            r_l, r_f = view.query(i, j, T)
            u_l[i, j] = r_l.mean()
            u_f[i, j] = r_f.mean()
    np.clip(u_l, 0.0, 1.0, out=u_l)
    np.clip(u_f, 0.0, 1.0, out=u_f)
    return BimatrixGame(u_l, u_f, {"samples_per_pair": T})


def _solve_on_estimate(estimate: BimatrixGame, delta_prime, solver: str,
                       solver_epsilon, exact: bool) -> MixedStrategy:
    if solver == "exact":
        return solve_exact(estimate, delta_prime, exact=exact).strategy
    if solver == "qptas":
        eps = solver_epsilon if solver_epsilon is not None else 0.1
        return qptas_solve(estimate, delta_prime, eps, exact=exact).strategy
    raise GameFormatError(f"unknown solver {solver!r}")


@functools.lru_cache(maxsize=1)
def _robust_value(truth: BimatrixGame, delta, exact: bool):
    """``solve_exact(truth, delta, exact=exact).value``; a learning run asks
    it once per seed with the same arguments."""
    return solve_exact(truth, delta, exact=exact).value


def rse_from_estimate(truth: BimatrixGame, estimate: BimatrixGame, delta,
                      epsilon, *, solver: str = "exact", solver_epsilon=None,
                      exact: bool = False) -> LearnedOutcome:
    """Deterministic core of the learning guarantee.

    Solves the (delta + 2 epsilon)-robust problem on the estimate and
    evaluates the strategy on the truth at delta. ``guarantee_floor`` is
    the truth's robust value at delta + 4 epsilon minus 2 epsilon; whenever
    the estimate is within epsilon of the truth in sup norm, the true value
    must reach the floor (up to the solver's own additive epsilon for the
    quasi-polynomial route).
    """
    delta_prime = delta + 2 * epsilon
    x = _solve_on_estimate(estimate, delta_prime, solver, solver_epsilon, exact)
    rep = evaluate(truth, x, delta, exact=exact)
    floor = _robust_value(truth, delta + 4 * epsilon, exact) - 2 * epsilon
    sup_l = float(np.abs(estimate.u_l - truth.u_l).max())
    sup_f = float(np.abs(estimate.u_f - truth.u_f).max())
    T = estimate.meta.get("samples_per_pair", 0)
    return LearnedOutcome(T, x, rep.leader_value, floor, sup_l, sup_f)


def learn_rse(oracle: NoisyGameOracle, delta: float, epsilon: float,
              iota: float, solver: str = "exact", *,
              solver_epsilon=None) -> LearnedOutcome:
    """Sample, solve on the estimate, and score against the hidden truth."""
    estimate = sample_estimate(oracle, epsilon, iota)
    return rse_from_estimate(oracle.truth, estimate, float(delta),
                             float(epsilon), solver=solver,
                             solver_epsilon=solver_epsilon)


def check_br_inclusion(truth: BimatrixGame, estimate: BimatrixGame,
                       x: MixedStrategy, delta, epsilon, *,
                       exact: bool = False) -> bool:
    """True delta-responses stay (delta + 2 epsilon)-responses on the estimate.

    Raises :class:`PerturbationBoundError` when the follower matrices differ
    by more than epsilon in sup norm (that violates the lemma's hypothesis,
    distinct from a legitimate False).
    """
    _, est_cols = estimate.columns(exact)
    _, true_cols = truth.columns(exact)
    err = max(abs(a - b) for ca, cb in zip(est_cols, true_cols)
              for a, b in zip(ca, cb))
    if not err <= scalar(epsilon, exact) + tolerance(exact):
        raise PerturbationBoundError(
            f"sup-norm error {err} exceeds epsilon {epsilon}")
    true_set = br_delta(truth, x, delta, exact=exact)
    est_set = br_delta(estimate, x, delta + 2 * epsilon, exact=exact)
    return true_set.issubset(est_set)


def learn_sse(oracle: NoisyGameOracle, epsilon: float, iota: float, *,
              gap_floor: float | None = None) -> LearnedOutcome:
    """Learn a near-optimal optimistic commitment from bandit feedback.

    Regime: the truth's inducibility gap must exceed epsilon (harness
    check). ``gap_floor`` (default epsilon) is the known lower bound g on
    the gap; the internal scales are sampling accuracy epsilon*g/8 and
    robustness level epsilon*g/2, which keep the total shortfall below
    epsilon while using O(1/epsilon^2) samples per pair.
    """
    true_gap = inducibility_gap(oracle.truth).gap
    if not true_gap > epsilon:
        raise GapTooSmall(
            f"inducibility gap {true_gap} must exceed epsilon {epsilon}")
    g = min(float(gap_floor if gap_floor is not None else epsilon), 1.0)
    eps_s = epsilon * g / 8
    delta_prime = epsilon * g / 2
    estimate = sample_estimate(oracle, eps_s, iota)
    est_gap = inducibility_gap(estimate).gap
    if not est_gap > delta_prime:
        raise GapTooSmall(
            f"estimated gap {est_gap} fell below the robustness level "
            f"{delta_prime}; sampling noise too high")
    x = gap_approx(estimate, delta_prime).strategy
    delta_eval = delta_prime - 2 * eps_s
    rep = evaluate(oracle.truth, x, delta_eval)
    sse_true = solve_sse(oracle.truth).leader_value
    sup_l = float(np.abs(estimate.u_l - oracle.truth.u_l).max())
    sup_f = float(np.abs(estimate.u_f - oracle.truth.u_f).max())
    return LearnedOutcome(estimate.meta["samples_per_pair"], x,
                          rep.leader_value, sse_true - epsilon, sup_l, sup_f)


def misidentification_report(delta, gap, T: int, n_runs: int, seed: int) -> dict:
    """Empirical twin-game identification experiment on the 3x2 learning pair.

    The twin games differ only in the first row of the follower matrix, with
    separation 1/(3 sqrt(T)). Each run draws T Bernoulli samples of that
    row's first entry under each truth and identifies by nearest mean. The
    report carries the error rate and the documented value losses of a
    wrong call; no information-theoretic bound is asserted.
    """
    from .lab import catalog
    eps_inst = 1.0 / (3.0 * math.sqrt(T))
    params = {"delta": Fraction(str(delta)), "eps": Fraction(str(eps_inst)).limit_denominator(10 ** 9),
              "gap": Fraction(str(gap))}
    g1 = catalog("table6_g1", params)
    g2 = catalog("table6_g2", params)
    p1 = float(g1.game.u_f[0, 0])
    p2 = float(g2.game.u_f[0, 0])
    rng = np.random.default_rng(seed)
    wrong = 0
    for _ in range(n_runs):
        truth_is_g1 = bool(rng.integers(0, 2))
        p = p1 if truth_is_g1 else p2
        mean = (rng.random(T) < p).mean()
        guess_g1 = abs(mean - p1) <= abs(mean - p2)
        wrong += guess_g1 != truth_is_g1
    d, gp, e = float(delta), float(gap), eps_inst
    return {
        "T": T,
        "runs": n_runs,
        "misidentification_rate": wrong / n_runs,
        "separation": eps_inst,
        "loss_wrong_on_g1": e / (gp - d + e),
        "loss_wrong_on_g2": (gp - d) / (gp - d + e),
    }
