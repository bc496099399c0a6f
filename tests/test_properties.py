"""Property test of solve_region over the dimensionless parameter space.

Seeded samples with sigma1 = 1 cover the quadratic reward at volatility
ratios rho in [1.05, 16] with r log-uniform in [0.05, 4 rho^2], the linear
reward at rho in [0.2, 100] and the skew reward at beta in [0.05, 0.95],
both with r log-uniform in [0.05, 20].  Every sample must solve and pass
verify_solution, and keep its boundaries under the scale change
(sigma, r) -> (a sigma, a^2 r); a few must agree with the grid oracle to
O(h).

Known open failure (ROADMAP item 2): the quadratic reward at volatility
ratios of 30 and above is left out.  There verify_solution rejects some
correct one-sided solutions at small rates (monotonicity off by about
1e-10 far right of the threshold, from ratio 100 up), and solve_region
raises DomainError where psi underflows, once sqrt(2r)/sigma1 exceeds
about 745.
"""

import math

import numpy as np
import pytest

from obmstop.core import ObmParams, Reward
from obmstop.gridsolve import build_chain, extract_region, solve_stopping
from obmstop.solver import solve_region
from obmstop.value import verify_solution

QUAD = Reward.quadratic_plus()
LIN = Reward.linear_plus()
GRID_H = 2e-3
GRID_CELLS = 3.0


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def samples():
    rng = np.random.default_rng(20261018)
    out = []
    for _ in range(30):
        rho = float(rng.uniform(1.05, 16.0))
        out.append((ObmParams(1.0, rho), _log_uniform(rng, 0.05, 4.0 * rho * rho), QUAD))
    for _ in range(12):
        rho = float(rng.uniform(0.2, 100.0))
        out.append((ObmParams(1.0, rho), _log_uniform(rng, 0.05, 20.0), LIN))
    for _ in range(18):
        beta = float(rng.uniform(0.05, 0.95))
        # the SBM image sbm_to_obm(beta) scaled to sigma1 = 1
        params = ObmParams(1.0, (1.0 - beta) / beta)
        out.append((params, _log_uniform(rng, 0.05, 20.0), Reward.skew_linear(beta)))
    return out


SAMPLES = samples()


def _label(sample):
    params, r, reward = sample
    return f"{reward.kind.value}-rho{params.sigma2:.4g}-r{r:.4g}" + (
        f"-beta{reward.beta:.3g}" if reward.beta else "")


@pytest.mark.parametrize("sample", SAMPLES, ids=[_label(s) for s in SAMPLES])
def test_solution_verifies_and_is_scale_invariant(sample):
    params, r, reward = sample
    sol = solve_region(params, r, reward)
    rep = verify_solution(sol)
    assert rep.ok, rep.failures
    for a in (0.1, 10.0):
        scaled = solve_region(ObmParams(a * params.sigma1, a * params.sigma2),
                              a * a * r, reward)
        assert scaled.regime.tag is sol.regime.tag
        assert len(scaled.boundaries) == len(sol.boundaries)
        for got, want in zip(scaled.boundaries, sol.boundaries):
            assert got == pytest.approx(want, abs=1e-12)


def _grid_samples():
    """Per reward, the first one-sided sample and the first two bubbles
    that a grid of spacing GRID_H on [-4, 6] resolves: boundaries inside
    [-1.5, 3], at least 20 cells apart."""
    picked, kinds = [], {}
    for params, r, reward in SAMPLES:
        bounds = solve_region(params, r, reward).boundaries
        if reward.support_left < -2.0 or not -1.5 < min(bounds) <= max(bounds) < 3.0:
            continue
        if min(np.diff(bounds), default=math.inf) < 20 * GRID_H:
            continue
        key = (reward.kind, len(bounds))
        if kinds.get(key, 0) < (2 if len(bounds) == 3 else 1):
            kinds[key] = kinds.get(key, 0) + 1
            picked.append((params, r, reward))
    return picked


def test_grid_oracle_agrees_to_order_h():
    picked = _grid_samples()
    assert len(picked) >= 5
    for params, r, reward in picked:
        model = build_chain(params, -4.0, 6.0, GRID_H)
        _v, flags, _info = solve_stopping(model, r, reward)
        grid_b = extract_region(model, flags, reward).boundaries()
        exact = solve_region(params, r, reward).boundaries
        assert len(grid_b) == len(exact), (params, r, reward, grid_b, exact)
        err = max(abs(g - e) for g, e in zip(grid_b, exact)) / GRID_H
        assert err <= GRID_CELLS, (params, r, reward, grid_b, exact)
