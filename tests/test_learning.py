"""Tests for bandit sampling, the transfer guarantee, and SSE learning."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rsekit import lab, learning
from rsekit.baseline import solve_sse
from rsekit.errors import GapTooSmall, PerturbationBoundError
from rsekit.exact import solve_exact
from rsekit.game import BimatrixGame, MixedStrategy, exact_game, pure_strategy
from rsekit.learning import (NoisyGameOracle, check_br_inclusion, learn_rse,
                             learn_sse, misidentification_report,
                             rse_from_estimate, sample_estimate,
                             samples_per_pair)


def test_sample_count_formula():
    assert samples_per_pair(3, 2, 0.1, 0.1) == 240
    with pytest.raises(ValueError):
        samples_per_pair(3, 2, 0.0, 0.1)


def test_zero_noise_estimate_is_exact():
    truth = lab.catalog("table2").game
    oracle = NoisyGameOracle(truth, "gaussian:0", seed=1)
    est = sample_estimate(oracle, 0.2, 0.2)
    assert np.array_equal(est.u_l, truth.u_l)
    assert np.array_equal(est.u_f, truth.u_f)
    assert est.meta["samples_per_pair"] == samples_per_pair(3, 3, 0.2, 0.2)
    assert oracle.query_count.min() == est.meta["samples_per_pair"]


def test_oracle_unbiased_and_reproducible():
    truth = lab.catalog("table6_g1").game
    a = NoisyGameOracle(truth, "bernoulli", seed=9)
    b = NoisyGameOracle(truth, "bernoulli", seed=9)
    ra, _ = a.query(0, 0, 50_000)
    rb, _ = b.query(0, 0, 50_000)
    assert np.array_equal(ra, rb)
    assert ra.mean() == pytest.approx(truth.u_f[0, 0] * 0 + truth.u_l[0, 0],
                                      abs=0.01)
    g = NoisyGameOracle(truth, "gaussian:0.1", seed=4)
    rl, rf = g.query(1, 1, 50_000)
    assert rl.mean() == pytest.approx(truth.u_l[1, 1], abs=0.005)
    assert rf.mean() == pytest.approx(truth.u_f[1, 1], abs=0.005)


def test_bernoulli_concentration_small_scale():
    truth = lab.catalog("table6_g1").game
    eps, iota = 0.1, 0.1
    hits = 0
    runs = 100
    for seed in range(runs):
        est = sample_estimate(NoisyGameOracle(truth, "bernoulli", seed),
                              eps, iota)
        err = max(np.abs(est.u_l - truth.u_l).max(),
                  np.abs(est.u_f - truth.u_f).max())
        hits += err <= eps
    assert hits / runs >= 1 - iota - 3 * np.sqrt(iota * (1 - iota) / runs)


def test_learn_rse_zero_noise_variants_game():
    truth = lab.catalog("table2").game
    oracle = NoisyGameOracle(truth, "gaussian:0", seed=0)
    out = learn_rse(oracle, 0.25, 0.01, 0.1)
    assert out.true_value >= 0.5 - 0.02
    assert out.sup_err_l == 0.0 and out.sup_err_f == 0.0
    assert out.samples_per_pair == samples_per_pair(3, 3, 0.01, 0.1)


def _perturb(game, eps, rng):
    signs_l = rng.choice([-1, 1], size=game.u_l.shape)
    signs_f = rng.choice([-1, 1], size=game.u_f.shape)
    ul = [[min(max(v + int(s) * eps, Fraction(0)), Fraction(1))
           for v, s in zip(row, srow)]
          for row, srow in zip(game.exact_u_l, signs_l)]
    uf = [[min(max(v + int(s) * eps, Fraction(0)), Fraction(1))
           for v, s in zip(row, srow)]
          for row, srow in zip(game.exact_u_f, signs_f)]
    return exact_game(ul, uf)


def test_conditional_guarantee_under_adversarial_perturbation():
    truth = lab.catalog("table2").game
    eps = Fraction(1, 32)
    delta = Fraction(1, 4)
    rng = np.random.default_rng(0)
    for _ in range(8):
        estimate = _perturb(truth, eps, rng)
        out = rse_from_estimate(truth, estimate, delta, eps, exact=True)
        assert out.true_value >= out.guarantee_floor


def test_inclusion_trivial_when_estimate_equals_truth():
    truth = lab.catalog("table2").game
    x = pure_strategy(0, 3, exact=True)
    assert check_br_inclusion(truth, truth, x, Fraction(1, 4), Fraction(1, 20),
                              exact=True)


def test_inclusion_exhaustive_sign_patterns():
    truth = lab.catalog("table2").game
    eps = Fraction(1, 20)
    x = pure_strategy(0, 3, exact=True)
    flat = [v for row in truth.exact_u_f for v in row]
    for pattern in product((-1, 1), repeat=9):
        vals = [min(max(v + s * eps, Fraction(0)), Fraction(1))
                for v, s in zip(flat, pattern)]
        uf = [vals[0:3], vals[3:6], vals[6:9]]
        estimate = exact_game(truth.exact_u_l, uf)
        assert check_br_inclusion(truth, estimate, x, Fraction(1, 4), eps,
                                  exact=True)


def test_inclusion_monte_carlo_random_games():
    rng = np.random.default_rng(3)
    for seed in range(60):
        truth = lab.gen_random(3, 3, seed, rational_grid=16)
        eps = Fraction(1, 16)
        estimate = _perturb(truth, eps, rng)
        w = rng.integers(1, 5, size=3)
        x = MixedStrategy(w / w.sum())
        delta = float(rng.uniform(0.05, 0.5))
        assert check_br_inclusion(truth, estimate, x, delta, float(eps))


def test_inclusion_precondition_violation_is_distinct():
    truth = lab.catalog("table2").game
    bad = BimatrixGame(truth.u_l, np.clip(truth.u_f + 0.2, 0, 1))
    x = pure_strategy(0, 3)
    with pytest.raises(PerturbationBoundError):
        check_br_inclusion(truth, bad, x, 0.25, 0.05)


def test_learn_sse_zero_noise():
    truth = lab.catalog("table4").game
    oracle = NoisyGameOracle(truth, "gaussian:0", seed=0)
    out = learn_sse(oracle, 0.05, 0.1, gap_floor=1.0)
    sse = solve_sse(truth).leader_value
    assert out.true_value >= sse - 0.05


def test_learn_sse_monte_carlo():
    truth = lab.catalog("table4").game
    sse = solve_sse(truth).leader_value
    good = 0
    runs = 15
    for seed in range(runs):
        oracle = NoisyGameOracle(truth, "bernoulli", seed=seed)
        out = learn_sse(oracle, 0.1, 0.1, gap_floor=1.0)
        good += out.true_value >= sse - 0.1
    assert good >= runs - 1


def test_learn_sse_rejects_zero_gap():
    truth = lab.catalog("table2").game
    with pytest.raises(GapTooSmall):
        learn_sse(NoisyGameOracle(truth, "gaussian:0", seed=0), 0.05, 0.1)


def test_learn_rse_qptas_route():
    truth = lab.catalog("table2").game
    oracle = NoisyGameOracle(truth, "gaussian:0", seed=0)
    out = learn_rse(oracle, 0.25, 0.05, 0.2, solver="qptas",
                    solver_epsilon=0.25)
    # QPTAS adds its own additive epsilon on top of the learning slack.
    assert out.true_value >= out.guarantee_floor - 0.25


def test_misidentification_report_shape():
    rep = misidentification_report(0.05, 0.4, T=400, n_runs=200, seed=5)
    assert rep["T"] == 400
    assert 0.0 <= rep["misidentification_rate"] <= 1.0
    e, d, g = rep["separation"], 0.05, 0.4
    assert rep["loss_wrong_on_g1"] == pytest.approx(e / (g - d + e))
    assert rep["loss_wrong_on_g2"] == pytest.approx((g - d) / (g - d + e))
    # Separation 1/(3 sqrt(T)) leaves the twins genuinely confusable.
    assert rep["misidentification_rate"] > 0.0
