"""Value assembly and verification tests.

The verification checks are exercised in both directions: correct solutions
must pass all four checks, and each hand-built wrong candidate must fail on
the specific check that catches its defect.
"""

import math

import numpy as np
import pytest

from obmstop.core import ObmParams, Reward, fundamental_pair, generator_apply
from obmstop.solver import (
    Region,
    Regime,
    RegimeTag,
    RegionSolution,
    build_interface_fit,
    solve_region,
)
from obmstop.value import (
    ValueFunctionRep,
    excessivity_check,
    majorant_check,
    verify_solution,
)
from obmstop.gridsolve import build_chain, solve_stopping

P12 = ObmParams(1.0, 2.0)
QUAD = Reward.quadratic_plus()
LIN = Reward.linear_plus()

# frozen from the closed form k psi with k = g(-1/3)/psi(-1/3) at (1, 2, 4.5)
V45_M06 = 0.19970176182987623
V45_M08 = 0.1095986506407349

# skew reward beta = 3/4 on the matching piecewise medium, r = 1
SKEW_BOUNDS_R1 = (-0.58578643762690497, -0.53144084351448195, 0.15003835437117252)


def test_one_sided_piece_values():
    rep = ValueFunctionRep(solve_region(P12, 4.5, QUAD))
    sol = rep.solution
    # c = 2 sigma1 / sqrt(2r) - 1 = -1/3, lam1 = 3, so k = (4/9) e
    assert sol.k == pytest.approx(4.0 * math.e / 9.0, rel=1e-12)
    assert float(rep.value(-1.0 / 3.0)) == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert float(rep.value(-0.6)) == pytest.approx(V45_M06, rel=1e-12)
    assert float(rep.value(-0.8)) == pytest.approx(V45_M08, rel=1e-12)
    # on the stopping set the value is the reward itself
    assert float(rep.value(0.7)) == 1.7**2
    assert float(rep.deriv(0.7)) == pytest.approx(3.4)


def test_linear_zero_threshold_value():
    rep = ValueFunctionRep(solve_region(P12, 0.5, LIN))  # 2r = sigma1^2: c = 0, k = 1
    assert rep.solution.k == pytest.approx(1.0, abs=1e-13)
    assert float(rep.value(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert float(rep.value(1.0)) == 2.0


def test_constant_volatility_value():
    rep = ValueFunctionRep(solve_region(ObmParams(1.0, 1.0), 2.0, QUAD))  # plain BM, c = 0
    assert float(rep.value(-1.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_bubble_piece_values():
    rep = ValueFunctionRep(solve_region(P12, 3.9, QUAD))
    sol = rep.solution
    bb = sol.bubble
    fp = fundamental_pair(P12, 3.9)
    assert float(rep.value(-0.5)) == pytest.approx(
        sol.k * float(fp.psi(-0.5)), rel=1e-14)
    assert float(rep.value(-0.1)) == 0.9**2  # inside [c1, c2]
    x = 0.005  # inside the bubble (c2, c3)
    assert float(rep.value(x)) == pytest.approx(
        bb.a * float(fp.psi(x)) + bb.b * float(fp.phi(x)), rel=1e-14)
    assert float(rep.value(x)) > float(QUAD.value(x))
    assert float(rep.value(0.0)) > 1.0  # interface is in the continuation set
    assert float(rep.value(1.0)) == 4.0


def test_value_harmonic_on_continuation():
    for r, pts in ((4.5, (-0.9, -0.5, -0.4)),
                   (3.9, (-0.9, -0.35, -1e-5, 0.005, 0.015))):
        rep = ValueFunctionRep(solve_region(P12, r, QUAD))
        for x in pts:
            lv = float(generator_apply(P12, rep, x))
            rv = r * float(rep.value(x))
            assert lv == pytest.approx(rv, rel=1e-9), (r, x)


def test_verify_passes_solved_problems():
    cases = [
        (P12, 1.0, QUAD), (P12, 2.0, QUAD), (P12, 2.5, QUAD),
        (P12, 3.9, QUAD), (P12, 4.0, QUAD), (P12, 4.5, QUAD),
        (P12, 0.5, LIN), (P12, 2.0, LIN),
        (ObmParams(1.0, 1.0), 2.0, QUAD), (ObmParams(2.0, 1.0), 8.0, QUAD),
    ]
    for params, r, reward in cases:
        report = verify_solution(solve_region(params, r, reward))
        assert report.ok, (params, r, report.failures)
        assert report.smooth_fit.worst < 1e-9


def test_verify_skew_reward():
    params = ObmParams(2.0, 2.0 / 3.0)
    reward = Reward.skew_linear(0.75)
    for r in (0.01, 1.0, 100.0):
        sol = solve_region(params, r, reward)
        report = verify_solution(sol)
        assert report.ok, (r, report.failures)
        # the convex kink at 0 keeps the interface out of the stopping set
        assert not sol.region.contains(0.0)
    sol = solve_region(params, 1.0, reward)
    assert sol.regime.tag is RegimeTag.BUBBLE
    for got, want in zip(sol.boundaries, SKEW_BOUNDS_R1):
        assert got == pytest.approx(want, abs=1e-9)
    assert solve_region(params, 0.01, reward).regime.tag is not RegimeTag.BUBBLE


def test_interface_fit_fails_excessivity():
    # smooth fit at 0 alone does not make a value function: the candidate's
    # representing function decreases just right of the interface
    grid = np.linspace(-2.0, 2.0, 8001)
    for r in (2.5, 3.0, 3.5):
        cand = build_interface_fit(P12, r)
        res = excessivity_check(P12, r, cand, grid)
        assert not res.ok
        assert 0.0 < res.where < P12.sigma2 / math.sqrt(r) - 1.0 + 1e-6
    # below the window the failure route is different: B < 0 sends the
    # candidate to -inf on the left, again through lost monotonicity
    cand = build_interface_fit(P12, 1.5)
    res = excessivity_check(P12, 1.5, cand, np.linspace(-6.0, 1.0, 8001))
    assert not res.ok


class _RewardAsCandidate:
    def __init__(self, reward):
        self.value = reward.value
        self.deriv = reward.slope


def test_stop_everywhere_fails_where_waiting_pays():
    # g itself is not excessive when r g - (sigma^2/2) g'' < 0 somewhere
    cand = _RewardAsCandidate(QUAD)
    res = excessivity_check(ObmParams(1.0, 1.0), 1.0, cand,
                            np.linspace(-1.5, 1.5, 3001))
    assert not res.ok
    assert -1.0 < res.where < 0.0


def _one_sided_solution(params, r, reward, c):
    fp = fundamental_pair(params, r)
    k = float(reward.value(c)) / float(fp.psi(c))
    return RegionSolution(params, r, reward,
                          Regime(RegimeTag.ONE_SIDED_NEGATIVE_C, {"c": c}),
                          Region.one_sided(c), k)


def test_perturbed_threshold_right_fails_majorant():
    c = 2.0 / math.sqrt(9.0) - 1.0  # true threshold at r = 4.5
    sol = _one_sided_solution(P12, 4.5, QUAD, c + 0.1)
    report = verify_solution(sol)
    assert not report.ok
    assert not report.majorant.ok
    assert c - 1e-9 < report.majorant.where < c + 0.1
    assert not report.smooth_fit.ok


def test_perturbed_threshold_left_fails_excessivity():
    # stopping too early keeps G_- < 0 points inside the stopping set, which
    # shows up as a drop of the representing function, not as V < g
    c = 2.0 / math.sqrt(9.0) - 1.0
    sol = _one_sided_solution(P12, 4.5, QUAD, c - 0.1)
    report = verify_solution(sol)
    assert not report.ok
    assert not report.excessive.ok
    assert report.majorant.ok


def test_value_matches_grid_oracle():
    model = build_chain(P12, -2.0, 6.0, 4e-3)
    v, flags, info = solve_stopping(model, 3.9, QUAD)
    assert info["residual"] < 1e-12
    rep = ValueFunctionRep(solve_region(P12, 3.9, QUAD))
    # sample away from the killed bottom node, whose V = g(x_min) = 0
    # artifact decays like exp(-lam1 (x - x_min)) going right
    idx = np.nonzero(model.x >= -0.5)[0][::10]
    assert idx.size > 150
    err = np.abs(np.asarray(rep.value(model.x[idx])) - v[idx])
    assert float(err.max()) < 8e-5  # a few h^2 at h = 4e-3


def test_report_raise_if_failed():
    report = verify_solution(solve_region(P12, 3.9, QUAD))
    report.raise_if_failed()  # no-op on a clean pass
    bad = verify_solution(_one_sided_solution(P12, 4.5, QUAD, -0.1))
    with pytest.raises(Exception) as exc:
        bad.raise_if_failed()
    assert "V < g" in str(exc.value) or "monotonicity" in str(exc.value)
