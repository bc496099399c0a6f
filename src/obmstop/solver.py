"""Stopping-region solver: one tangency engine for every reward and regime.

The engine follows the concave-majorant characterization of Dayanik and
Karatzas (2003, "On the optimal stopping problem for one-dimensional
diffusions"): V/phi is the smallest concave majorant of g/phi in the
coordinate F = psi/phi.  It works with the threshold functions

    G_-(x) = psi'(x) g(x) - psi(x) g'(x)      (left / psi side)
    G_+(x) = phi(x) g'(x) - phi'(x) g(x)      (right / phi side)

and the "stopping rate"

    Q(x) = r g(x) - (sigma(x)^2 / 2) g''(x),
    G_-'(x) = m(x) psi(x) Q(x),   G_+'(x) = -m(x) phi(x) Q(x),

with m the speed density.  (g/psi)' = -G_-/psi^2, and g/phi is concave in F
exactly where Q >= 0 and g has no convex kink.

solve_region evaluates these on one grid.  The tangent points are the local
maxima of g/psi (sign changes of G_- from - to +); the one with the largest
g/psi, c1, starts the stopping region, with V = k psi left of it.  If g/phi
is concave right of c1 the region is [c1, oo).  Otherwise it is the
disconnected ("bubble") region [c1, c2] union [c3, oo): the upper hull of
(F, g/phi) over the grid seeds (c2, c3), and Newton polishes them on the
two-boundary system

    G_-(c2) = G_-(c3),   G_+(c2) = G_+(c3),

whose solution also yields the bubble coefficients a = G_+(c2)/w,
b = G_-(c2)/w with w the Wronskian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .core import (
    ConvergenceError,
    DomainError,
    FundamentalPair,
    ObmParams,
    Reward,
    RewardKind,
    as_rate,
    fundamental_pair,
)

__all__ = [
    "ROOT_XTOL",
    "RESIDUAL_TOL",
    "Interval",
    "Region",
    "RegimeTag",
    "Regime",
    "BubbleSolution",
    "RegionSolution",
    "threshold_minus",
    "threshold_plus",
    "stopping_rate",
    "solve_bubble",
    "find_r0",
    "bubble_window",
    "solve_region",
    "build_interface_fit",
    "InterfaceFitCandidate",
]

ROOT_XTOL = 1e-12      # absolute tolerance on root locations
RESIDUAL_TOL = 1e-10   # smooth-fit residual tolerance

_BRENT_RTOL = 4 * np.finfo(float).eps
_R0_DOUBLINGS = 40     # find_r0 grows the skew bracket to at most 2^40 sigma2^2
_BASE_NODES = 200      # uniform grid nodes over [support_left, 8/lam2]
_GEO_NODES = 100       # nodes in each geometric cluster, down to 1e-12 from its end


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One interval component; infinite endpoints are open by construction."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise DomainError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isinf(lo):
            object.__setattr__(self, "closed_lo", False)
        if math.isinf(hi):
            object.__setattr__(self, "closed_hi", False)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        left = x >= self.lo if self.closed_lo else x > self.lo
        right = x <= self.hi if self.closed_hi else x < self.hi
        out = left & right
        return bool(out) if x.ndim == 0 else out


@dataclass(frozen=True)
class Region:
    """Ordered disjoint, non-adjacent union of intervals (stopping set)."""

    components: tuple[Interval, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        for prev, nxt in zip(comps, comps[1:]):
            if nxt.lo < prev.hi or (
                nxt.lo == prev.hi and (prev.closed_hi or nxt.closed_lo)
            ):
                raise DomainError("region components must be disjoint, sorted, non-adjacent")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def one_sided(c: float) -> "Region":
        return Region((Interval(c, math.inf),))

    @staticmethod
    def two_sided(c1: float, c2: float, c3: float) -> "Region":
        return Region((Interval(c1, c2), Interval(c3, math.inf)))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for comp in self.components:
            out |= np.asarray(comp.contains(x))
        return bool(out) if x.ndim == 0 else out

    def distance(self, x):
        """Distance from x to the set (0 inside)."""
        x = np.asarray(x, dtype=float)
        dist = np.full(x.shape, np.inf)
        for comp in self.components:
            below = np.maximum(comp.lo - x, 0.0)
            above = np.maximum(x - comp.hi, 0.0)
            dist = np.minimum(dist, np.maximum(below, above))
        return float(dist) if x.ndim == 0 else dist

    def boundaries(self) -> list[float]:
        out = []
        for comp in self.components:
            if math.isfinite(comp.lo):
                out.append(comp.lo)
            if math.isfinite(comp.hi):
                out.append(comp.hi)
        return out

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


class RegimeTag(Enum):
    ONE_SIDED_NEGATIVE_C = "OneSidedNegativeC"
    ONE_SIDED_ZERO_C = "OneSidedZeroC"
    ONE_SIDED_POSITIVE_C = "OneSidedPositiveC"
    BUBBLE = "Bubble"


@dataclass(frozen=True)
class Regime:
    tag: RegimeTag
    thresholds: dict = field(default_factory=dict)

    @property
    def is_bubble(self) -> bool:
        return self.tag is RegimeTag.BUBBLE


@dataclass(frozen=True)
class BubbleSolution:
    """Disconnected-region solution: stop on [c1, c2] union [c3, oo).

    k scales psi on (-oo, c1); (a, b) scale (psi, phi) on (c2, c3).
    residuals holds the six |value/derivative mismatch| numbers at
    (c1, c2, c3).
    """

    c1: float
    c2: float
    c3: float
    k: float
    a: float
    b: float
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    def region(self) -> Region:
        return Region.two_sided(self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class RegionSolution:
    """Solved stopping problem: regime, region, continuation coefficients."""

    params: ObmParams
    r: float
    reward: Reward
    regime: Regime
    region: Region
    k: float                       # psi coefficient on the left component
    bubble: Optional[BubbleSolution] = None

    @property
    def boundaries(self) -> list[float]:
        return self.region.boundaries()


# ---------------------------------------------------------------------------
# threshold functions
# ---------------------------------------------------------------------------


def _check_domain(x, support_left: float):
    if np.any(np.asarray(x, dtype=float) < support_left - 1e-15):
        raise DomainError(f"threshold functions defined for x >= {support_left}")


def threshold_minus(fp: FundamentalPair, reward: Reward, x, side: int = +1):
    """G_-(x) = psi'(x) g(x) - psi(x) g'(x); side=-1 takes g'(x-) at kinks."""
    _check_domain(x, reward.support_left)
    gp = reward.slope_left(x) if side < 0 else reward.slope(x)
    return fp.psi_deriv(x) * reward.value(x) - fp.psi(x) * gp


def threshold_plus(fp: FundamentalPair, reward: Reward, x):
    """G_+(x) = phi(x) g'(x) - phi'(x) g(x)."""
    _check_domain(x, reward.support_left)
    return fp.phi(x) * reward.slope(x) - fp.phi_deriv(x) * reward.value(x)


def stopping_rate(params: ObmParams, r: float, reward: Reward, x):
    """Q(x) = r g(x) - (sigma(x)^2/2) g''(x), right-continuous at 0.

    Positive where immediate stopping beats waiting locally: g/phi is
    concave in psi/phi exactly there (away from reward kinks), and
    G_-' = m psi Q, G_+' = -m phi Q.
    """
    x = np.asarray(x, dtype=float)
    out = r * np.asarray(reward.value(x)) - 0.5 * np.asarray(
        params.sigma(x)) ** 2 * np.asarray(reward.curvature(x))
    return float(out) if x.ndim == 0 else out


def bubble_window(params: ObmParams, reward: Reward) -> Optional[Interval]:
    """Open interval of rates at which the stopping region can disconnect.

    (2 sigma1^2, sigma2^2) for the quadratic reward when sigma2^2 > 2
    sigma1^2, every rate for the skew reward, and None when the region is
    connected at every rate (the linear reward, or sigma2^2 <= 2 sigma1^2).
    """
    if reward.kind is RewardKind.SKEW_LINEAR:
        return Interval(0.0, math.inf, closed_lo=False)
    lo, hi = 2.0 * params.sigma1**2, params.sigma2**2
    # sigma2 = sqrt(2) sigma1 can round to a window that holds no float
    if reward.kind is RewardKind.LINEAR_PLUS or math.nextafter(lo, math.inf) >= hi:
        return None
    return Interval(lo, hi, closed_lo=False, closed_hi=False)


# ---------------------------------------------------------------------------
# the tangency engine
# ---------------------------------------------------------------------------


def _nodes(fp: FundamentalPair, reward: Reward) -> np.ndarray:
    """The engine's grid on [support_left, 8/lam2].

    It holds the support edge, 0, the reward kinks, a uniform base and
    points spaced geometrically toward 0 from both sides, where bubbles
    hug the interface, and toward the support edge, where the tangent point
    sits about 1/lam1 from the edge at high rates.  Right of 8/lam2, G_- > 0
    and Q > 0 for the built-in rewards, so no tangent point lies beyond.
    """
    lo, hi = reward.support_left, 8.0 / fp.lam2
    geo = np.geomspace(1e-12, 1.0, _GEO_NODES)
    return np.unique(np.concatenate((
        [lo, 0.0], reward.kinks(), np.linspace(lo, hi, _BASE_NODES),
        lo * geo, hi * geo, lo - lo * geo)))


def _polished_root(f, df, a: float, b: float, xtol: float) -> float:
    """brentq on [a, b] followed by two safeguarded Newton steps."""
    x = brentq(f, a, b, xtol=xtol, rtol=_BRENT_RTOL, maxiter=200)
    for _ in range(2):
        d = df(x)
        if d == 0.0 or not math.isfinite(d):
            break
        step = f(x) / d
        y = x - step
        if not (a <= y <= b):
            break
        x = y
    return x


def _tangent_points(fp: FundamentalPair, reward: Reward, xs: np.ndarray,
                    xtol: float = ROOT_XTOL) -> list[float]:
    """Local maxima of g/psi on the grid xs, sorted.

    (g/psi)' = -G_-/psi^2, so these are the sign changes of G_- from - to +.
    One between two nodes is polished by brentq and Newton; the left branch
    of G_- closes a piece at a kink node.  A node where G_- jumps across 0
    or touches it counts as is: the concave kink of the skew reward at 0
    when beta < 1/2, and the tangency at 0 when r = 2 sigma1^2.
    """
    params = fp.params
    left = threshold_minus(fp, reward, xs, side=-1)
    right = threshold_minus(fp, reward, xs)
    points = [float(x) for x in xs[(left <= 0.0) & (right >= 0.0) & (reward.value(xs) > 0.0)]]

    def dG(x):  # G_-' = m psi Q
        return (2.0 / float(params.sigma(x)) ** 2 * float(fp.psi(x))
                * float(stopping_rate(params, fp.r, reward, x)))

    for i in np.flatnonzero((right[:-1] < 0.0) & (left[1:] > 0.0)):
        a, b = float(xs[i]), float(xs[i + 1])

        def G(x, _b=b):
            return float(threshold_minus(fp, reward, x, side=-1 if x == _b else +1))

        points.append(_polished_root(G, dG, a, b, xtol))
    return sorted(points)


def _upper_hull(F: list[float], W: list[float]) -> list[int]:
    """Indices of the vertices of the upper hull of the points (F, W), F increasing."""
    hull: list[int] = []
    for i in range(len(F)):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            if (W[k] - W[j]) * (F[i] - F[j]) > (W[i] - W[j]) * (F[k] - F[j]):
                break
            hull.pop()
        hull.append(i)
    return hull


def _bubble(fp: FundamentalPair, reward: Reward, xs: np.ndarray, c1: float,
            holes: np.ndarray, residual_tol: float) -> BubbleSolution:
    """Continuation bubble (c2, c3) around the grid nodes xs[holes].

    The segment of the upper hull of (psi/phi, g/phi) over c1 and the nodes
    right of it that spans the holes seeds (c2, c3).  Damped Newton on
    (G_-(c2) - G_-(c3), G_+(c2) - G_+(c3)) with the analytic Jacobian
    polishes them.
    """
    params, rate = fp.params, fp.r
    pts = np.concatenate(([c1], xs[xs > c1]))
    phi = np.asarray(fp.phi(pts))
    hull = pts[_upper_hull((np.asarray(fp.psi(pts)) / phi).tolist(),
                           (np.asarray(reward.value(pts)) / phi).tolist())]
    first, last = float(xs[holes[0]]), float(xs[holes[-1]])
    c2 = float(hull[hull < first].max())
    c3 = float(hull[hull > last].min())

    def system(c):  # rows of (c2, c3) -> rows of (G_-(c2) - G_-(c3), G_+(c2) - G_+(c3))
        gm, gp = threshold_minus(fp, reward, c), threshold_plus(fp, reward, c)
        return np.stack((gm[..., 0] - gm[..., 1], gp[..., 0] - gp[..., 1]), axis=-1)

    # near the ends of the window Q(c3) is tiny and the system ill-conditioned,
    # so Newton runs until it stops reducing the residual, not to a tolerance
    c = np.array([c2, c3])
    fvec = system(c)
    steps = 0.5 ** np.arange(25)
    for _ in range(60):
        if not fvec.any():
            break
        mq = 2.0 / params.sigma(c) ** 2 * stopping_rate(params, rate, reward, c)
        dgm, dgp = mq * fp.psi(c), -mq * fp.phi(c)  # G_-', G_+' at (c2, c3)
        j = np.array([[dgm[0], -dgm[1]], [dgp[0], -dgp[1]]])
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if not math.isfinite(det) or abs(det) < 1e-14 * (np.abs(j).max() ** 2 + 1e-300):
            break
        trial = c + steps[:, None] * np.linalg.solve(j, -fvec)
        # stay in the wedge around the holes: the diagonal c2 = c3 solves the
        # system trivially and must not attract the iteration
        trial = trial[(trial[:, 0] > reward.support_left) & (trial[:, 0] <= first)
                      & (trial[:, 1] > last)]
        res = system(trial)
        better = np.flatnonzero(np.abs(res).max(axis=1) < np.abs(fvec).max())
        if better.size == 0:
            break
        c, fvec = trial[better[0]], res[better[0]]
    c2, c3 = float(c[0]), float(c[1])

    if c2 < c1 - 1e-10:
        raise ConvergenceError(
            f"bubble boundary c2={c2:.6g} left of c1={c1:.6g} at r={rate:.8g}")
    # the tolerance above lets c2 sit just left of c1
    c2 = max(c2, c1)
    w = fp.wronskian
    a, b = float(threshold_plus(fp, reward, c2)) / w, float(threshold_minus(fp, reward, c2)) / w
    k = float(reward.value(c1)) / float(fp.psi(c1))

    def val(x):
        return a * float(fp.psi(x)) + b * float(fp.phi(x))

    def der(x):
        return a * float(fp.psi_deriv(x)) + b * float(fp.phi_deriv(x))

    residuals = (
        abs(k * float(fp.psi(c1)) - float(reward.value(c1))),
        abs(k * float(fp.psi_deriv(c1)) - float(reward.slope(c1))),
        abs(val(c2) - float(reward.value(c2))),
        abs(der(c2) - float(reward.slope(c2))),
        abs(val(c3) - float(reward.value(c3))),
        abs(der(c3) - float(reward.slope(c3))),
    )
    if max(residuals) > residual_tol * max(1.0, abs(b * w), abs(a * w)):
        raise ConvergenceError(
            f"bubble system residuals did not converge at r={rate:.8g}",
            residuals=residuals,
        )
    return BubbleSolution(c1=float(c1), c2=float(c2), c3=float(c3), k=k, a=a, b=b,
                          residuals=residuals)


def _tag_for(c: float) -> RegimeTag:
    if abs(c) <= 1e-12:
        return RegimeTag.ONE_SIDED_ZERO_C
    return RegimeTag.ONE_SIDED_POSITIVE_C if c > 0 else RegimeTag.ONE_SIDED_NEGATIVE_C


def _solve(params: ObmParams, rate: float, reward: Reward,
           residual_tol: float, xtol: float) -> RegionSolution:
    fp = fundamental_pair(params, rate)
    xs = _nodes(fp, reward)
    points = _tangent_points(fp, reward, xs, xtol)
    if not points:
        raise ConvergenceError(f"no local maximum of g/psi found at r={rate:.6g}")
    with np.errstate(divide="ignore"):
        ratios = np.asarray(reward.value(points)) / np.asarray(fp.psi(points))
    k = float(ratios.max())
    if math.isinf(k):
        raise DomainError(f"psi underflows at a tangent point: sqrt(2r)/sigma1 = "
                          f"{fp.lam1:.6g} is too large for double precision")
    c1 = float(np.asarray(points)[ratios == k].max())
    # right of c1, g/phi is concave in psi/phi unless Q < 0 or g has a
    # convex kink there; such points lie inside a continuation bubble
    holes = np.flatnonzero((xs > c1) & (
        (stopping_rate(params, rate, reward, xs) < 0.0)
        | (reward.slope_left(xs) < reward.slope(xs))))
    if holes.size == 0:
        return RegionSolution(params, rate, reward, Regime(_tag_for(c1), {"c": c1}),
                              Region.one_sided(c1), k)
    sol = _bubble(fp, reward, xs, c1, holes, residual_tol)
    regime = Regime(RegimeTag.BUBBLE, {"c1": sol.c1, "c2": sol.c2, "c3": sol.c3})
    return RegionSolution(params, rate, reward, regime, sol.region(), sol.k, bubble=sol)


def solve_region(params: ObmParams, r, reward: Reward) -> RegionSolution:
    """Solve the stopping problem: regime, region and coefficients.

    One engine serves every reward and regime.  c1, the local maximum of
    g/psi with the largest value (the rightmost on ties), starts the
    stopping region, and k = g(c1)/psi(c1).  The region is [c1, oo) unless
    a grid node right of c1 has Q < 0 or g has a convex kink there; then it
    is [c1, c2] union [c3, oo), with the bubble (c2, c3) seeded by the upper
    hull of (psi/phi, g/phi) and polished by Newton.  Raises
    ConvergenceError when the bubble system does not converge, and
    DomainError when psi underflows at a tangent point.
    """
    return _solve(params, as_rate(r), reward, RESIDUAL_TOL, ROOT_XTOL)


def solve_bubble(params: ObmParams, r, reward: Reward = Reward.quadratic_plus(),
                 residual_tol: float = RESIDUAL_TOL,
                 xtol: float = ROOT_XTOL) -> Optional[BubbleSolution]:
    """The disconnected solution at rate r; None when the region is connected.

    Raises DomainError outside bubble_window; the linear reward, which
    never disconnects, gives None.  residual_tol bounds the smooth-fit
    residuals of the bubble system and xtol the tangent-point roots.
    """
    rate = as_rate(r)
    if reward.kind is RewardKind.LINEAR_PLUS:
        return None
    window = bubble_window(params, reward)
    if window is None:
        raise DomainError("disconnected regime requires sigma2^2 > 2 sigma1^2")
    if not window.contains(rate):
        raise DomainError(
            f"disconnected regime requires r in (2 sigma1^2, sigma2^2) = "
            f"({window.lo:.6g}, {window.hi:.6g}), got {rate:.6g}"
        )
    return _solve(params, rate, reward, residual_tol, xtol).bubble


def find_r0(params: ObmParams, reward: Reward = Reward.quadratic_plus()) -> float:
    """Critical rate at which the stopping region first disconnects.

    g/psi has a local maximum at the smallest tangent point c1 (negative)
    and at the largest one c; the one-sided region [c, oo) is optimal while
    the right one is the higher.  r0 is the root in r of g(c1)/psi(c1) -
    g(c)/psi(c), found by bisection over the bubble window: the smallest
    float rate found at which the left maximum is the higher.  For the skew
    reward the bracket starts at (1e-6, sigma2^2) and its upper end
    doubles, at most _R0_DOUBLINGS times, until the region is disconnected
    there.  A rate with no positive tangent point counts as disconnected,
    one with none at or below 0 as connected.
    """
    window = bubble_window(params, reward)
    if window is None:
        if reward.kind is RewardKind.QUADRATIC_PLUS:
            raise DomainError("no disconnected regime when sigma2^2 <= 2 sigma1^2")
        raise DomainError("the linear reward never disconnects")
    lo, hi, doublings = window.lo, window.hi, 0
    if reward.kind is RewardKind.SKEW_LINEAR:
        lo, hi, doublings = 1e-6, params.sigma2**2, _R0_DOUBLINGS

    def gap(r: float) -> float:
        fp = fundamental_pair(params, r)
        points = _tangent_points(fp, reward, _nodes(fp, reward))
        if not points:
            raise ConvergenceError(f"no local maximum of g/psi found at r={r:.8g}")
        c1, c = points[0], points[-1]
        if c <= 0.0:
            return 1.0
        if c1 > 0.0:
            return -1.0
        return (float(reward.value(c1)) / float(fp.psi(c1))
                - float(reward.value(c)) / float(fp.psi(c)))

    if gap(lo) >= 0.0:
        raise ConvergenceError("region already disconnected at the lower end of the bracket")
    while gap(hi) <= 0.0:
        if doublings == 0:
            raise ConvergenceError(
                f"region still connected at r={hi:.6g}, the upper end of the bracket")
        lo, hi, doublings = hi, 2.0 * hi, doublings - 1
    # bisection down to adjacent floats keeps gap(hi) > 0, so solve_region
    # returns the disconnected region at the rate returned
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# smooth-fit-at-the-interface candidate (non-excessive for r < sigma2^2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterfaceFitCandidate:
    """Candidate value function glued smoothly at 0, quadratic reward right.

    F(x) = A e^{lam1 x} + B e^{-lam1 x} on x <= 0, (1+x)^2 on x >= 0, with
    A + B = 1 and A lam1 - B lam1 = 2 (value + derivative fit at 0).  For
    2 sigma1^2 <= r < sigma2^2 this satisfies smooth fit yet is NOT
    r-excessive: its psi-type representing function decreases just right of
    0 (rate r(1+x)^2 - sigma2^2 < 0).  For r < 2 sigma1^2 the coefficient B
    is negative and F -> -inf on the left.
    """

    params: ObmParams
    r: float
    A: float
    B: float

    @property
    def fp(self) -> FundamentalPair:
        return fundamental_pair(self.params, self.r)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        lam1 = self.fp.lam1
        neg = x <= 0.0
        xl = np.where(neg, x, 0.0)
        xr = np.where(neg, 0.0, x)
        out = np.where(
            neg,
            self.A * np.exp(lam1 * xl) + self.B * np.exp(-lam1 * xl),
            (1.0 + xr) ** 2,
        )
        return float(out) if x.ndim == 0 else out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        lam1 = self.fp.lam1
        neg = x <= 0.0
        xl = np.where(neg, x, 0.0)
        xr = np.where(neg, 0.0, x)
        out = np.where(
            neg,
            lam1 * (self.A * np.exp(lam1 * xl) - self.B * np.exp(-lam1 * xl)),
            2.0 * (1.0 + xr),
        )
        return float(out) if x.ndim == 0 else out

    def report(self) -> dict:
        fp = self.fp
        probe = 0.01
        # d/dx [psi' F - psi F'] = m psi (r F - sigma^2) just right of 0
        rep_deriv = (
            (2.0 / self.params.sigma2**2)
            * float(fp.psi(probe))
            * (self.r * (1.0 + probe) ** 2 - self.params.sigma2**2)
        )
        return {
            "A": self.A,
            "B": self.B,
            "b_negative": self.B < 0.0,
            "smooth_fit_at_interface": True,
            "representing_derivative_right_of_zero": rep_deriv,
            "excessive": not (rep_deriv < 0.0 or self.B < 0.0),
            "left_limit_diverges": self.B < 0.0,
        }


def build_interface_fit(params: ObmParams, r) -> InterfaceFitCandidate:
    """Construct the smooth-fit-at-0 candidate for the quadratic reward.

    A + B = g(0) = 1, lam1 (A - B) = g'(0) = 2.  At r = 2 sigma1^2 this
    gives A = 1, B = 0 (a pure psi multiple); for r < 2 sigma1^2, B < 0.
    """
    rate = as_rate(r)
    lam1 = math.sqrt(2.0 * rate) / params.sigma1
    A = 0.5 * (1.0 + 2.0 / lam1)
    B = 0.5 * (1.0 - 2.0 / lam1)
    return InterfaceFitCandidate(params=params, r=rate, A=A, B=B)
