"""Monte Carlo engine tests: samplers against closed transition laws, the
estimator against closed-form values, determinism, and the two sampling
routes against each other."""

import math

import numpy as np
import pytest
from scipy import stats

from obmstop.core import DomainError, ObmParams, Reward
from obmstop.solver import Region, solve_region
from obmstop.mc import (
    McConfig,
    Sampler,
    estimate_value,
    obm_step,
    sbm_step_exact,
    sbm_transition_cdf,
)

P12 = ObmParams(1.0, 2.0)
QUAD = Reward.quadratic_plus()


def test_sbm_step_sign_frequency():
    rng = np.random.Generator(np.random.Philox(7))
    beta = 0.75
    y = sbm_step_exact(np.zeros(200_000), 1.0, beta, rng)
    freq = float(np.mean(y > 0.0))
    se = math.sqrt(beta * (1.0 - beta) / y.size)
    assert abs(freq - beta) < 3.0 * se


def _chi_square_p(y, x0, t, beta):
    """p-value of draws y from x0 against the closed-form law, 26 bins."""
    edges = x0 + math.sqrt(t) * stats.norm.ppf(np.linspace(0.02, 0.98, 25))
    cdf = np.concatenate(([0.0], sbm_transition_cdf(x0, t, beta, edges), [1.0]))
    expected = y.size * np.diff(cdf)
    observed, _ = np.histogram(y, bins=np.concatenate(([-np.inf], edges, [np.inf])))
    assert expected.min() > 20.0
    return stats.chisquare(observed, f_exp=expected).pvalue


def test_sbm_step_chi_square():
    beta, x0, t = 0.75, 0.5, 1.0
    rng = np.random.Generator(np.random.Philox(11))
    y = sbm_step_exact(np.full(200_000, x0), t, beta, rng)
    assert _chi_square_p(y, x0, t, beta) > 0.01


def test_sbm_step_per_path_durations_chi_square():
    # one call with two interleaved durations: each half follows its own law
    beta, x0 = 0.75, 0.2
    durations = (0.3, 2.0)
    t = np.where(np.arange(200_000) % 2 == 0, *durations)
    rng = np.random.Generator(np.random.Philox(12))
    y = sbm_step_exact(np.full(t.size, x0), t, beta, rng)
    for dur in durations:
        assert _chi_square_p(y[t == dur], x0, dur, beta) > 0.01


def test_sbm_step_beta_half_is_brownian():
    rng = np.random.Generator(np.random.Philox(13))
    x0, t = -1.0, 0.5
    y = sbm_step_exact(np.full(50_000, x0), t, 0.5, rng)
    p = stats.kstest(y, lambda z: stats.norm.cdf(z, loc=x0, scale=math.sqrt(t))).pvalue
    assert p > 0.01


def test_transition_cdf_shape():
    beta, x0, t = 0.7, 0.4, 0.8
    ys = np.linspace(-6.0, 6.0, 4001)
    cdf = sbm_transition_cdf(x0, t, beta, ys)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] < 1e-8 and cdf[-1] > 1.0 - 1e-8
    # no atom at the interface
    assert abs(sbm_transition_cdf(x0, t, beta, 1e-13)
               - sbm_transition_cdf(x0, t, beta, -1e-13)) < 1e-10
    # beta = 1/2 collapses to the Gaussian law
    assert sbm_transition_cdf(0.3, t, 0.5, 1.1) == pytest.approx(
        stats.norm.cdf(1.1, loc=0.3, scale=math.sqrt(t)), abs=1e-14)


def test_sbm_step_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sbm_step_exact(0.0, -1.0, 0.5, rng)
    with pytest.raises(DomainError):
        sbm_step_exact(0.0, 1.0, 1.0, rng)


def test_obm_step_moments():
    rng = np.random.Generator(np.random.Philox(17))
    n, t = 400_000, 0.01
    # away from the interface the step is plain N(x, sigma^2 t)
    for x0, sig in ((-3.0, 1.0), (3.0, 2.0)):
        y = obm_step(np.full(n, x0), t, P12, rng)
        assert abs(float(y.mean()) - x0) < 4.0 * sig * math.sqrt(t / n)
        assert float(y.var()) == pytest.approx(sig**2 * t, rel=0.05)
    # across it the martingale property holds and E[X^2] = sigma1 sigma2 t
    y = obm_step(np.zeros(n), 1.0, P12, rng)
    assert abs(float(y.mean())) < 4.0 * math.sqrt(2.0 / n)
    assert float((y**2).mean()) == pytest.approx(2.0, rel=0.05)


def test_estimator_reproducible():
    region = Region.one_sided(-1.0 / 3.0)
    cfg = McConfig(dt=1e-3, horizon=3.0, seed=42)
    a = estimate_value(P12, 4.5, QUAD, region, -0.8, 2000, cfg)
    b = estimate_value(P12, 4.5, QUAD, region, -0.8, 2000, cfg)
    assert a.value == b.value and a.stderr == b.stderr
    c = estimate_value(P12, 4.5, QUAD, region, -0.8, 2000,
                       McConfig(dt=1e-3, horizon=3.0, seed=43))
    assert c.value != a.value


def test_start_inside_region_is_exact():
    res = estimate_value(P12, 4.5, QUAD, Region.one_sided(-1.0 / 3.0), 0.5, 10)
    assert res.value == 1.5**2
    assert res.stderr == 0.0
    assert res.censored_frac == 0.0


def test_estimator_matches_constant_volatility_value():
    # plain BM, r = 2, stop on [0, inf): V(-0.5) = e^{-1}
    res = estimate_value(ObmParams(1.0, 1.0), 2.0, QUAD, Region.one_sided(0.0),
                         -0.5, 30_000, McConfig(seed=5))
    # hitting times are heavy-tailed (P(tau > 25) ~ 8%), but the horizon is
    # 50/r so censored paths carry discount e^{-50} and cannot move the value
    assert res.censored_frac < 0.12
    assert abs(res.value - math.exp(-1.0)) < 3.0 * res.stderr + 5e-3


def test_estimator_matches_one_sided_value():
    sol = solve_region(P12, 4.5, QUAD)
    res = estimate_value(P12, 4.5, QUAD, sol.region, -0.8, 30_000,
                         McConfig(seed=6))
    want = 0.1095986506407349  # k psi(-0.8) in closed form
    assert abs(res.value - want) < 3.0 * res.stderr + 5e-3


def test_exact_and_euler_routes_agree():
    region = Region.one_sided(-1.0 / 3.0)
    a = estimate_value(P12, 4.5, QUAD, region, -0.5, 15_000,
                       McConfig(dt=4e-4, seed=9))
    b = estimate_value(P12, 4.5, QUAD, region, -0.5, 15_000,
                       McConfig(dt=1e-4, seed=10, sampler=Sampler.EULER))
    assert abs(a.value - b.value) < 3.0 * (a.stderr + b.stderr) + 1e-2


@pytest.mark.parametrize("x0", [0.0, 0.005])
def test_merged_steps_across_interface_agree_with_single_steps(x0):
    # merged steps cross 0 in one exact draw; single dt steps are the reference
    region = solve_region(P12, 1.5, QUAD).region
    a = estimate_value(P12, 1.5, QUAD, region, x0, 10_000,
                       McConfig(dt=1e-3, horizon=4.0, seed=21))
    b = estimate_value(P12, 1.5, QUAD, region, x0, 10_000,
                       McConfig(dt=1e-3, horizon=4.0, seed=22, merge_far_steps=False))
    assert a.iterations < b.iterations
    assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr) + 5e-3


def test_straggler_iterations_counted():
    # 20 paths from x0 = 0.7 at r = 1.5: with merging limited by the
    # distance to 0 this point took 9,966 loop passes
    region = solve_region(P12, 1.5, QUAD).region
    res = estimate_value(P12, 1.5, QUAD, region, 0.7, 20, McConfig(seed=4))
    again = estimate_value(P12, 1.5, QUAD, region, 0.7, 20, McConfig(seed=4))
    assert res.iterations == again.iterations
    assert 0 < res.iterations <= 9966 // 2
    assert estimate_value(P12, 1.5, QUAD, region, 1.5, 20).iterations == 0
