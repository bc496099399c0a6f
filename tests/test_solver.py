"""Stopping-region solver tests.

Frozen literals come from the independent routines in oracle_tools (ODE
fundamental pair, dense sign scans, plain bisection), not from the solver.
"""

import math

import numpy as np
import pytest

import oracle_tools as oracle
from obmstop.core import DomainError, ObmParams, Reward, fundamental_pair, sbm_to_obm
from obmstop.gridsolve import build_chain, extract_region, solve_stopping
from obmstop.solver import (
    BubbleSolution,
    Interval,
    Region,
    Regime,
    RegimeTag,
    RegionSolution,
    _nodes,
    _tangent_points,
    build_interface_fit,
    find_r0,
    solve_bubble,
    solve_region,
    stopping_rate,
    threshold_minus,
    threshold_plus,
)
from obmstop.value import verify_solution

P12 = ObmParams(1.0, 2.0)
QUAD = Reward.quadratic_plus()
LIN = Reward.linear_plus()

# G_- root locations for params (1, 2), quadratic reward, from the ODE pair
# + sign scan at 1e-5 spacing + bisection.  r = 2 also has a tangency at 0
# (local max touching zero) that strict sign scans cannot see.
ORACLE_GM_ROOTS = {
    1.0: (1.651743394982033,),
    1.5: (1.0860922106691069,),
    2.0: (0.69119948279026899,),
    2.1: (-0.024099927051477031, 0.052463290871419099, 0.61420844507876793),
    3.9: (-0.28388512596059584,),
}

# linear reward, params (2, 1), r = 0.5 (2r < sigma1^2): root right of 0.
# span=40 in the oracle: with lam1 = 0.5 the default span leaves seed
# contamination of order 1e-8 near the root
ORACLE_LIN_ROOT_210 = 0.37434423960321589

# bubble regression anchors (residuals re-verified against the ODE pair in
# test_bubble_conditions_against_ode_oracle)
BUBBLE_39 = dict(c1=-0.28388512596056714, c2=-4.120484932962982e-05,
                 c3=0.019104054391641666, k=1.1331695708200251,
                 a=0.81080029549031885, b=0.1891997094330522)
BUBBLE_25 = dict(c1=-0.10557280900008419, c2=-0.02555139166832204,
                 c3=0.39640954269074824, k=1.0130083075650458)

# critical rates from oracle_tools.critical_rate (ODE pair, sign scan,
# bisection in r) on the rate brackets (2.1, 2.5), (2.3, 3.5) and (3, 8),
# the last with x_hi = 8
R0_12 = 2.2170934247154497
R0_13 = 2.7447154121169994
R0_110 = 5.314160807779579


def tangent_points(params, r, reward=QUAD):
    """Local maxima of g/psi found by the solver's engine."""
    fp = fundamental_pair(params, r)
    return _tangent_points(fp, reward, _nodes(fp, reward))


def threshold(params, r, reward):
    """One-sided threshold c of the solved region."""
    return solve_region(params, r, reward).regime.thresholds["c"]


# -- region containers -------------------------------------------------------

def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 0.0)
    with pytest.raises(DomainError):
        Interval(math.nan, 1.0)
    iv = Interval(-1.0, math.inf)
    assert iv.closed_lo and not iv.closed_hi
    assert iv.contains(-1.0) and iv.contains(1e9) and not iv.contains(-1.1)


def test_region_validation():
    with pytest.raises(DomainError):
        Region((Interval(0.0, 2.0), Interval(1.0, 3.0)))  # overlap
    with pytest.raises(DomainError):
        Region((Interval(0.0, 1.0), Interval(1.0, 2.0)))  # adjacent, both closed
    reg = Region.two_sided(-0.3, -0.1, 0.5)
    assert len(reg) == 2
    assert reg.boundaries() == [-0.3, -0.1, 0.5]


def test_region_contains_and_distance():
    reg = Region.two_sided(-0.3, -0.1, 0.5)
    assert reg.contains(-0.3) and reg.contains(-0.1) and reg.contains(0.5)
    assert not reg.contains(0.0) and not reg.contains(-0.5)
    assert reg.distance(-0.2) == 0.0
    assert reg.distance(0.0) == pytest.approx(0.1)
    assert reg.distance(0.4) == pytest.approx(0.1)
    assert reg.distance(-0.6) == pytest.approx(0.3)
    one = Region.one_sided(-0.5)
    assert one.contains(-0.5) and not one.contains(-0.50000001)
    assert one.boundaries() == [-0.5]


# -- threshold functions -----------------------------------------------------

@pytest.mark.parametrize("sigma1,sigma2,r", [
    (1.0, 2.0, 1.5), (1.0, 2.0, 3.9), (2.0, 0.7, 5.0), (0.6, 1.1, 0.9),
])
def test_threshold_values_at_interface(sigma1, sigma2, r):
    fp = fundamental_pair(ObmParams(sigma1, sigma2), r)
    gm0 = float(threshold_minus(fp, QUAD, 0.0))
    gp0 = float(threshold_plus(fp, QUAD, 0.0))
    assert gm0 == pytest.approx(fp.lam1 - 2.0, abs=1e-13)
    # psi, phi normalization makes the two thresholds sum to the Wronskian
    assert gm0 + gp0 == pytest.approx(fp.wronskian, abs=1e-13)
    assert float(threshold_minus(fp, LIN, 0.0)) == pytest.approx(
        fp.lam1 - 1.0, abs=1e-13)


def test_threshold_support_edge():
    fp = fundamental_pair(P12, 2.5)
    assert float(threshold_minus(fp, QUAD, -1.0)) == 0.0
    assert float(threshold_minus(fp, LIN, -1.0)) == pytest.approx(
        -float(fp.psi(-1.0)), rel=1e-14)


def test_threshold_matches_ode_oracle():
    fp = fundamental_pair(P12, 3.0)
    orf = oracle.threshold_function(1.0, 2.0, 3.0,
                                    oracle.quad_value, oracle.quad_slope)
    for x in (-0.8, -0.3, 0.4, 1.7):
        assert float(threshold_minus(fp, QUAD, x)) == pytest.approx(
            float(orf(x)), rel=1e-10, abs=1e-12)


def test_stopping_rate_piecewise():
    # r g - (sigma^2 / 2) g'' with g'' = 2 for the quadratic reward
    assert float(stopping_rate(P12, 3.0, QUAD, -0.5)) == pytest.approx(-0.25)
    assert float(stopping_rate(P12, 3.0, QUAD, 0.5)) == pytest.approx(2.75)
    assert float(stopping_rate(P12, 3.0, QUAD, 0.0)) == pytest.approx(-1.0)
    # left limit at the interface: sigma1 applies
    assert float(stopping_rate(P12, 3.0, QUAD, np.nextafter(0.0, -1.0))) == pytest.approx(2.0)
    # linear reward: no curvature term
    assert float(stopping_rate(P12, 0.5, LIN, 1.0)) == pytest.approx(1.0)


def test_tangent_points_against_oracle():
    # the tangent points are the roots of G_- where g/psi has a local
    # maximum: every other oracle root, since the middle one of the three
    # at r = 2.1 is a local minimum
    for r, roots in ORACLE_GM_ROOTS.items():
        points = tangent_points(P12, r)
        if r == 2.0:
            # the tangency at 0 counts, plus one strict crossing
            assert len(points) == 2
            assert points[0] == 0.0
            points = points[1:]
        expected = roots[::2]
        assert len(points) == len(expected)
        for got, want in zip(points, expected):
            assert got == pytest.approx(want, abs=2e-9)


# -- linear reward -----------------------------------------------------------

def test_linear_threshold_closed_form():
    # 2r > sigma1^2: c = sigma1 / sqrt(2r) - 1, independent of sigma2
    for sigma1, r in [(1.0, 2.0), (1.0, 0.7), (2.0, 2.5), (0.5, 5.0)]:
        want = sigma1 / math.sqrt(2.0 * r) - 1.0
        for sigma2 in (0.4, 1.0, 3.0):
            c = threshold(ObmParams(sigma1, sigma2), r, LIN)
            assert c == pytest.approx(want, abs=1e-12)
    assert threshold(P12, 2.0, LIN) == pytest.approx(-0.5, abs=1e-13)


def test_linear_threshold_sign_rule():
    # sign(c) = -sign(2r - sigma1^2); exact zero at equality
    for sigma1, sigma2, r in [(1.0, 2.0, 0.7), (1.0, 0.5, 3.0),
                              (1.5, 1.0, 0.8), (0.8, 2.0, 0.1)]:
        c = threshold(ObmParams(sigma1, sigma2), r, LIN)
        assert np.sign(c) == -np.sign(2.0 * r - sigma1**2)
    assert threshold(ObmParams(1.0, 1.7), 0.5, LIN) == 0.0
    assert threshold(ObmParams(2.0, 1.0), 2.0, LIN) == 0.0


def test_linear_threshold_right_root_oracle():
    c = threshold(ObmParams(2.0, 1.0), 0.5, LIN)
    assert c == pytest.approx(ORACLE_LIN_ROOT_210, abs=1e-12)


def test_linear_solution_assembly():
    sol = solve_region(P12, 2.0, LIN)
    assert sol.regime.tag is RegimeTag.ONE_SIDED_NEGATIVE_C
    assert sol.boundaries == [sol.regime.thresholds["c"]]
    # k = g(c) / psi(c) = 0.5 / e^{-1} at c = -1/2, lam1 = 2
    assert sol.k == pytest.approx(0.5 * math.e, rel=1e-12)
    assert sol.bubble is None


# -- quadratic reward, one-sided ---------------------------------------------

def test_one_sided_closed_form_high_rate():
    # r >= max(2 sigma1^2, sigma2^2): c = 2 sigma1 / sqrt(2r) - 1 exactly
    for sigma1, sigma2, r in [(1.0, 2.0, 4.0), (1.0, 2.0, 4.5),
                              (1.0, 2.0, 6.0), (1.0, 2.0, 10.0),
                              (0.5, 1.2, 1.44), (0.5, 1.2, 2.0),
                              (2.0, 1.0, 9.0)]:
        c = threshold(ObmParams(sigma1, sigma2), r, QUAD)
        assert c == pytest.approx(2.0 * sigma1 / math.sqrt(2.0 * r) - 1.0,
                                  abs=1e-10)


def test_one_sided_tie_break_at_window_edge():
    # r = 2 sigma1^2 with sigma2^2 > 2 sigma1^2: G_-(0) = 0 is a tangency,
    # the threshold is the strict crossing to its right
    c = threshold(P12, 2.0, QUAD)
    assert c == pytest.approx(ORACLE_GM_ROOTS[2.0][0], abs=2e-9)


def test_classification_regimes():
    cases = [
        (1.0, RegimeTag.ONE_SIDED_POSITIVE_C),
        (2.0, RegimeTag.ONE_SIDED_POSITIVE_C),
        (2.5, RegimeTag.BUBBLE),
        (3.9, RegimeTag.BUBBLE),
        (4.0, RegimeTag.ONE_SIDED_NEGATIVE_C),
        (5.0, RegimeTag.ONE_SIDED_NEGATIVE_C),
    ]
    for r, tag in cases:
        assert solve_region(P12, r, QUAD).regime.tag is tag
    sol = solve_region(P12, 1.0, QUAD)
    assert sol.regime.thresholds["c"] == pytest.approx(ORACLE_GM_ROOTS[1.0][0],
                                                       abs=2e-9)
    sol = solve_region(P12, 4.0, QUAD)
    assert sol.regime.thresholds["c"] == pytest.approx(1.0 / math.sqrt(2.0) - 1.0,
                                                       abs=1e-12)


def test_zero_threshold_at_twice_sigma1_sq():
    # no disconnected window: the tangency root 0 is the threshold
    for sigma1, sigma2 in [(1.0, 1.0), (2.0, 1.0), (1.0, 1.2)]:
        regime = solve_region(ObmParams(sigma1, sigma2), 2.0 * sigma1**2, QUAD).regime
        assert regime.tag is RegimeTag.ONE_SIDED_ZERO_C
        assert abs(regime.thresholds["c"]) <= 1e-12


# -- quadratic reward, disconnected ------------------------------------------

def test_bubble_frozen_values():
    sol = solve_bubble(P12, 3.9)
    for key, want in BUBBLE_39.items():
        assert getattr(sol, key) == pytest.approx(want, rel=1e-9, abs=1e-12)
    sol = solve_bubble(P12, 2.5)
    for key, want in BUBBLE_25.items():
        assert getattr(sol, key) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_bubble_conditions_against_ode_oracle():
    # value and slope of the assembled pieces match the reward at all three
    # boundaries, with psi and phi taken from direct ODE integration
    psi, psi_d, phi, phi_d = oracle.ode_fundamental_pair(1.0, 2.0, 3.9)
    sol = solve_bubble(P12, 3.9)
    checks = (
        sol.k * psi(sol.c1) - oracle.quad_value(sol.c1),
        sol.k * psi_d(sol.c1) - oracle.quad_slope(sol.c1),
        sol.a * psi(sol.c2) + sol.b * phi(sol.c2) - oracle.quad_value(sol.c2),
        sol.a * psi_d(sol.c2) + sol.b * phi_d(sol.c2) - oracle.quad_slope(sol.c2),
        sol.a * psi(sol.c3) + sol.b * phi(sol.c3) - oracle.quad_value(sol.c3),
        sol.a * psi_d(sol.c3) + sol.b * phi_d(sol.c3) - oracle.quad_slope(sol.c3),
    )
    assert max(abs(float(v)) for v in checks) < 1e-10


def test_bubble_ordering_and_residuals():
    for r in (2.25, 2.5, 3.0, 3.5, 3.9):
        sol = solve_bubble(P12, r)
        assert sol is not None
        assert -1.0 < sol.c1 <= sol.c2 <= 0.0 < sol.c3
        assert sol.max_residual < 1e-10
        assert sol.k > 0.0 and sol.a > 0.0 and sol.b > 0.0
        reg = sol.region()
        assert len(reg) == 2
        assert reg.contains(sol.c1) and not reg.contains(0.5 * (sol.c2 + sol.c3))


def test_bubble_none_or_domain_errors():
    assert solve_bubble(P12, 2.05) is None  # window, but below onset
    assert solve_bubble(P12, 2.1) is None
    with pytest.raises(DomainError):
        solve_bubble(P12, 5.0)  # outside the rate window
    with pytest.raises(DomainError):
        solve_bubble(ObmParams(1.0, 1.2), 2.5)  # sigma2^2 <= 2 sigma1^2
    assert solve_bubble(P12, 2.5, Reward.linear_plus()) is None


def test_solve_region_bubble_assembly():
    sol = solve_region(P12, 3.9, QUAD)
    assert sol.regime.tag is RegimeTag.BUBBLE
    assert sol.bubble is not None
    assert sol.boundaries == [sol.bubble.c1, sol.bubble.c2, sol.bubble.c3]
    assert sol.k == pytest.approx(sol.bubble.k)
    assert sol.regime.thresholds == {"c1": sol.bubble.c1, "c2": sol.bubble.c2,
                                     "c3": sol.bubble.c3}


def test_regimes_mutually_exclusive():
    # on the window either the region is a bubble or the one-sided candidate
    # at the largest tangent point verifies, never both, never neither
    for r in np.arange(2.05, 4.0, 0.1):
        r = float(r)
        c = tangent_points(P12, r)[-1]
        k = float(QUAD.value(c)) / float(fundamental_pair(P12, r).psi(c))
        tag = RegimeTag.ONE_SIDED_POSITIVE_C if c > 0 else RegimeTag.ONE_SIDED_NEGATIVE_C
        one_sided = RegionSolution(P12, r, QUAD, Regime(tag, {"c": c}),
                                   Region.one_sided(c), k)
        bubble = solve_region(P12, r, QUAD).regime.is_bubble
        assert verify_solution(one_sided).ok == (not bubble)


def test_region_monotone_in_rate():
    xs = np.linspace(-0.999, 3.0, 1201)
    prev = None
    for r in (1.0, 1.5, 2.0, 2.5, 3.0, 3.9, 4.5, 5.0):
        mask = solve_region(P12, r, QUAD).region.contains(xs)
        if prev is not None:
            assert not np.any(prev & ~mask)
        prev = mask


def test_find_r0_frozen():
    r0 = find_r0(P12)
    assert r0 == pytest.approx(R0_12, abs=1e-10)
    assert 2.0 < r0 < 4.0
    assert solve_bubble(P12, r0 + 1e-3) is not None
    assert solve_bubble(P12, r0 - 1e-3) is None
    assert find_r0(ObmParams(1.0, 3.0)) == pytest.approx(R0_13, abs=1e-10)
    assert find_r0(ObmParams(1.0, 10.0)) == pytest.approx(R0_110, abs=1e-10)


@pytest.mark.parametrize("rho", [25.0, 30.0, 50.0])
def test_find_r0_at_large_ratios(rho):
    # connected just below the critical rate, disconnected just above
    params = ObmParams(1.0, rho)
    lo, hi = 2.0, rho**2
    r0 = find_r0(params)
    assert lo < r0 < hi
    assert not solve_region(params, r0 - 1e-3 * (r0 - lo), QUAD).regime.is_bubble
    assert solve_region(params, r0 + 1e-3 * (hi - r0), QUAD).regime.is_bubble


@pytest.mark.parametrize("rho", [1.5, 2.0, 10.0, 16.0, 30.0])
def test_solve_region_verifies_at_r0(rho):
    # at onset c2 can land a hair below c1; the region must stay valid
    params = ObmParams(1.0, rho)
    assert verify_solution(solve_region(params, find_r0(params), QUAD)).ok


@pytest.mark.parametrize("beta", [0.75, 0.9])
def test_find_r0_skew_above_sigma2_squared(beta):
    # at these skews the region disconnects above sigma2^2, past the
    # bracket's starting upper end
    params, reward = sbm_to_obm(beta), Reward.skew_linear(beta)
    r0 = find_r0(params, reward)
    assert r0 > params.sigma2**2
    assert not solve_region(params, r0 - 1e-6, reward).regime.is_bubble
    assert solve_region(params, r0 + 1e-6, reward).regime.is_bubble


def test_psi_underflow_is_a_domain_error():
    # sqrt(2r)/sigma1 = 913: psi underflows to 0 at the tangent point near
    # the support edge, so g/psi is out of the double range
    with pytest.raises(DomainError):
        solve_region(ObmParams(0.0595, 24.9), 1477.0, QUAD)


def test_find_r0_rejects_when_no_window():
    with pytest.raises(DomainError):
        find_r0(ObmParams(1.0, 1.2))
    with pytest.raises(DomainError):
        find_r0(ObmParams(1.0, math.sqrt(2.0)))
    with pytest.raises(DomainError):
        find_r0(P12, LIN)


# -- skew reward, beta < 1/2 -------------------------------------------------

def test_skew_concave_kink_stops_exactly_at_zero():
    # the kink at 0 is concave: G_- jumps upward across zero there, so the
    # threshold is the kink itself (the grid oracle puts it at -h/2)
    beta = 0.2873
    sol = solve_region(sbm_to_obm(beta), 0.18, Reward.skew_linear(beta))
    assert sol.regime.tag is RegimeTag.ONE_SIDED_ZERO_C
    assert sol.boundaries == [0.0]
    assert verify_solution(sol).ok


def test_skew_small_beta_negative_threshold():
    # left of 0 the skew reward is linear with slope 1/sigma1, so a negative
    # threshold solves lam1 g(c) = g'(c): c = sigma1 (1/sqrt(2r) - 1)
    beta, r = 0.2575, 0.53
    params = sbm_to_obm(beta)
    c = threshold(params, r, Reward.skew_linear(beta))
    assert c == pytest.approx(params.sigma1 * (1.0 / math.sqrt(2.0 * r) - 1.0), abs=1e-12)
    assert c == pytest.approx(-0.019336, abs=1e-6)


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.4])
def test_skew_small_beta_solves_and_verifies(beta):
    params, reward = sbm_to_obm(beta), Reward.skew_linear(beta)
    for r in (0.1, 1.0, 3.0):
        sol = solve_region(params, r, reward)
        assert not sol.regime.is_bubble
        assert verify_solution(sol).ok


def test_skew_small_beta_against_grid():
    beta, r, h = 0.2575, 0.53, 1e-3
    params, reward = sbm_to_obm(beta), Reward.skew_linear(beta)
    model = build_chain(params, -8.0, 4.0, h)  # an edge at -2 moves it 3 cells
    _v, flags, _info = solve_stopping(model, r, reward)
    grid_b = extract_region(model, flags, reward).boundaries()
    assert len(grid_b) == 1
    assert abs(grid_b[0] - threshold(params, r, reward)) <= 3.0 * h


# -- smooth-fit-at-interface candidate ---------------------------------------

def test_interface_fit_coefficients():
    cand = build_interface_fit(P12, 2.0)
    assert cand.A == 1.0 and cand.B == 0.0  # pure psi multiple
    assert build_interface_fit(P12, 1.5).B < 0.0
    assert build_interface_fit(P12, 3.0).B > 0.0
    # value and slope glue to the reward at 0
    cand = build_interface_fit(P12, 3.0)
    assert cand.value(0.0) == pytest.approx(1.0, abs=1e-12)
    assert cand.value(-1e-9) == pytest.approx(cand.value(1e-9), abs=1e-8)
    assert cand.deriv(-1e-9) == pytest.approx(2.0, abs=1e-8)
    assert cand.value(0.5) == 2.25


def test_interface_fit_not_excessive_in_window():
    for r in (2.5, 3.0, 3.5):
        rep = build_interface_fit(P12, r).report()
        assert rep["representing_derivative_right_of_zero"] < 0.0
        assert rep["excessive"] is False
    rep = build_interface_fit(P12, 1.5).report()
    assert rep["b_negative"] is True and rep["excessive"] is False
