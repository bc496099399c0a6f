"""Stopping-region solver: threshold functions, regimes, bubble system.

The candidate stopping regions of the OBM problem are characterized by roots
of the threshold functions

    G_-(x) = psi'(x) g(x) - psi(x) g'(x)      (left / psi side)
    G_+(x) = phi(x) g'(x) - phi'(x) g(x)      (right / phi side)

(for the linear reward these are traditionally written H_-, H_+).  Their
derivatives factor through the "stopping rate"

    Q(x) = r g(x) - (sigma(x)^2 / 2) g''(x),
    G_-'(x) = m(x) psi(x) Q(x),   G_+'(x) = -m(x) phi(x) Q(x),

with m the speed density, so sign changes of Q delimit the monotone pieces
used for bracketing.  One-sided regimes stop on [c, oo) with c the largest
root of G_-.  In the disconnected ("bubble") regime the continuation set is
(-oo, c1) union (c2, c3); smooth fit at c1 decouples (G_-(c1) = 0, c1 the
negative root), and (c2, c3) solve the two-boundary system

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
from scipy.optimize import brentq, minimize_scalar

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
    "RegimeError",
    "threshold_minus",
    "threshold_plus",
    "stopping_rate",
    "g_minus_roots",
    "solve_linear_threshold",
    "solve_quadratic_one_sided",
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


class RegimeError(RuntimeError):
    """An operation was called in a regime it does not apply to."""


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


def threshold_plus(fp: FundamentalPair, reward: Reward, x, side: int = +1):
    """G_+(x) = phi(x) g'(x) - phi'(x) g(x)."""
    _check_domain(x, reward.support_left)
    gp = reward.slope_left(x) if side < 0 else reward.slope(x)
    return fp.phi(x) * gp - fp.phi_deriv(x) * reward.value(x)


def stopping_rate(params: ObmParams, r: float, reward: Reward, x, side: int = +1):
    """Q(x) = r g(x) - (sigma(x)^2/2) g''(x).

    Positive where immediate stopping beats waiting locally; G_-' = m psi Q
    and G_+' = -m phi Q away from kinks.  side=-1 evaluates the left branch
    at breakpoints (sigma1 and g''(x-)).
    """
    x = np.asarray(x, dtype=float)
    if side < 0:
        sig = np.where(x <= 0.0, params.sigma1, params.sigma2)
        # curvature of our rewards is right-continuous; only the quadratic
        # has a curvature break (at -1, where it is 0 from the left)
        curv = reward.curvature(x)
        if reward.kind is RewardKind.QUADRATIC_PLUS:
            curv = np.where(x <= -1.0, 0.0, 2.0)
    else:
        sig = params.sigma(x)
        curv = reward.curvature(x)
    out = r * reward.value(x) - 0.5 * np.asarray(sig) ** 2 * np.asarray(curv)
    return float(out) if x.ndim == 0 else out


def _q_signflips(params: ObmParams, r: float, reward: Reward) -> tuple[Optional[float], Optional[float]]:
    """Q sign-change points on (support_left, 0) and (0, oo), if any."""
    if reward.kind is RewardKind.QUADRATIC_PLUS:
        x1 = params.sigma1 / math.sqrt(r) - 1.0
        x0 = params.sigma2 / math.sqrt(r) - 1.0
        return (x1 if -1.0 < x1 < 0.0 else None, x0 if x0 > 0.0 else None)
    # linear-type rewards: Q = r g >= 0 wherever g > 0, no interior flip
    return (None, None)


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
# root finding
# ---------------------------------------------------------------------------


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


def _expand_right(f, start: float, step: float, cap: float):
    """Walk right from start until f > 0; return bracketing endpoint."""
    hi = start + step
    while f(hi) <= 0.0:
        step *= 2.0
        hi += step
        if hi > cap:
            raise ConvergenceError(f"no sign change found up to x = {cap}")
    return hi


def g_minus_roots(params: ObmParams, r, reward: Reward = Reward.quadratic_plus(),
                  xtol: float = ROOT_XTOL) -> list[float]:
    """All roots of G_- on (support_left, oo), sorted.

    Bracketing runs piece by piece over the monotonicity breakpoints (Q sign
    flips and reward kinks); the structural zero at the support edge is not
    counted.  For the built-in rewards the count is 1, 2 or 3.
    """
    rate = as_rate(r)
    fp = fundamental_pair(params, rate)

    def f(x, side=+1):
        return float(threshold_minus(fp, reward, x, side=side))

    def fprime(x):
        sig = params.sigma1 if x < 0 else params.sigma2
        return (2.0 / sig**2) * float(fp.psi(x)) * float(
            stopping_rate(params, rate, reward, x)
        )

    lo_edge = reward.support_left
    neg_flip, pos_flip = _q_signflips(params, rate, reward)
    breaks = [lo_edge]
    if neg_flip is not None and neg_flip > lo_edge:
        breaks.append(neg_flip)
    for kink in reward.kinks():
        if kink > lo_edge:
            breaks.append(kink)
    if 0.0 not in breaks:
        breaks.append(0.0)
    if pos_flip is not None:
        breaks.append(pos_flip)
    breaks = sorted(set(breaks))

    # right end: G_- -> +inf, expand until positive
    last = breaks[-1]
    hi = _expand_right(lambda x: f(x), max(last, 0.0), 1.0, max(last, 0.0) + 1e6)
    breaks.append(hi)

    roots: list[float] = []
    eps = 1e-12
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= 2 * eps:
            continue
        a_eff = a + eps if a == lo_edge else a
        left_limit_at_b = b in reward.kinks()

        def piece_f(x, _b=b, _left=left_limit_at_b):
            # G_- jumps down at convex reward kinks; the piece ending at a
            # kink is the left-continuous branch
            return f(x, side=-1) if (_left and x == _b) else f(x)

        fa, fb = piece_f(a_eff), piece_f(b)
        for val, x in ((fa, a_eff), (fb, b)):
            if abs(val) < 1e-13 and x > lo_edge + eps:
                roots.append(float(x))
        if fa * fb < 0.0:
            roots.append(_polished_root(piece_f, fprime, a_eff, b, xtol))

    roots = sorted(roots)
    out: list[float] = []
    for x in roots:
        if not out or x - out[-1] > 1e-9:
            out.append(x)
    return out


def solve_linear_threshold(params: ObmParams, r, xtol: float = ROOT_XTOL) -> float:
    """Unique root c of H_- on (-1, oo) for the linear reward.

    c < 0 iff 2r > sigma1^2 (then c = sigma1/sqrt(2r) - 1 in closed form),
    c = 0 at equality.
    """
    rate = as_rate(r)
    fp = fundamental_pair(params, rate)
    reward = Reward.linear_plus()

    def f(x):
        return float(threshold_minus(fp, reward, x))

    def df(x):
        sig = params.sigma1 if x < 0 else params.sigma2
        return (2.0 / sig**2) * float(fp.psi(x)) * rate * float(reward.value(x))

    at0 = fp.lam1 - 1.0  # H_-(0) = sqrt(2r)/sigma1 - 1
    if abs(at0) < 1e-14:
        return 0.0
    if at0 > 0.0:
        # root in (-1, 0); H_-(-1) = -psi(-1) < 0
        return _polished_root(f, df, -1.0 + 1e-14, 0.0, xtol)
    hi = _expand_right(f, 0.0, 1.0, 1e6)
    return _polished_root(f, df, 0.0, hi, xtol)


# ---------------------------------------------------------------------------
# one-sided candidate and its verification
# ---------------------------------------------------------------------------


def _one_sided_feasible(params: ObmParams, rate: float, reward: Reward,
                        c: float, tol: float = 1e-11) -> bool:
    """Check the one-sided candidate (stop on [c, oo), k psi below).

    Requires Q >= 0 on [c, oo), no convex reward kink strictly inside the
    stopping set, and k psi >= g on a dense grid left of c.
    """
    fp = fundamental_pair(params, rate)
    gc = float(reward.value(c))
    if gc <= 0.0:
        return False
    k = gc / float(fp.psi(c))

    # stopping-rate nonnegativity: Q is monotone between breakpoints for the
    # built-in rewards, so endpoint checks suffice
    probes = [c] + [x for x in (0.0,) if x > c] + [
        kk for kk in reward.kinks() if kk > c
    ]
    for x in probes:
        if float(stopping_rate(params, rate, reward, x)) < -tol:
            return False
        if float(stopping_rate(params, rate, reward, x, side=-1)) < -tol and x > c:
            return False

    # convex kinks cannot sit strictly inside the stopping set
    for kink in reward.kinks():
        if kink > c + 1e-12:
            if float(reward.slope_left(kink)) < float(reward.slope(kink)) - 1e-15:
                return False

    lo = reward.support_left + 1e-9
    if c <= lo:
        return True
    xs = np.linspace(lo, c, 2001)
    gap = k * np.asarray(fp.psi(xs)) - np.asarray(reward.value(xs))
    return bool(gap.min() >= -tol * max(1.0, gc))


def solve_quadratic_one_sided(params: ObmParams, r, reward: Reward = Reward.quadratic_plus(),
                              xtol: float = ROOT_XTOL) -> float:
    """One-sided threshold c(r): the largest root of G_-.

    This covers every one-sided case of the quadratic and skew rewards: the
    unique-root cases, the tie at r = 2 sigma1^2 (where the positive root
    wins), and r >= sigma2^2 where the quadratic root equals
    2 sigma1/sqrt(2r) - 1 exactly.  Raises RegimeError when the candidate
    fails verification (disconnected regime).
    """
    rate = as_rate(r)
    roots = g_minus_roots(params, rate, reward, xtol=xtol)
    if not roots:
        raise ConvergenceError(f"no root of G_- found at r={rate:.6g}")
    c = roots[-1]
    if not _one_sided_feasible(params, rate, reward, c):
        raise RegimeError(
            f"one-sided candidate c={c:.6g} fails verification at r={rate:.6g}; "
            "stopping region is disconnected here"
        )
    return c


# ---------------------------------------------------------------------------
# bubble system
# ---------------------------------------------------------------------------


def _bubble_fit(fp: FundamentalPair, reward: Reward, c3: float) -> tuple[float, float]:
    """(a, b) matching value and slope of g at c3: a = G_+/w, b = G_-/w."""
    w = fp.wronskian
    a = float(threshold_plus(fp, reward, c3)) / w
    b = float(threshold_minus(fp, reward, c3)) / w
    return a, b


def _min_gap(fp: FundamentalPair, reward: Reward, a: float, b: float,
             wlo: float, whi: float, n: int = 129) -> tuple[float, float]:
    """(min, argmin) of W = a psi + b phi - g over [wlo, whi].

    Coarse grid plus refinement around the best node.  Dips much narrower
    than the grid spacing occur when the tangency point approaches the
    window edges (bubbles hugging the interface), so edge nodes get the
    same derivative-bracketed refinement as interior ones.
    """
    xs = np.linspace(wlo, whi, n)
    w = a * np.asarray(fp.psi(xs)) + b * np.asarray(fp.phi(xs)) - np.asarray(
        reward.value(xs)
    )
    i = int(np.argmin(w))

    def W(x):
        return float(a * fp.psi(x) + b * fp.phi(x) - reward.value(x))

    def W1(x):
        # the window closes at the interface; use the left slope there
        gp = reward.slope_left(x) if x >= whi else reward.slope(x)
        return float(a * fp.psi_deriv(x) + b * fp.phi_deriv(x) - gp)

    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n - 1)]
    d_lo, d_hi = W1(lo), W1(hi)
    xm = None
    if d_lo < 0.0 < d_hi:
        xm = brentq(W1, lo, hi, xtol=1e-13, rtol=_BRENT_RTOL)
    elif 0 < i < n - 1:
        res = minimize_scalar(W, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        xm = float(res.x)
    if xm is not None and W(xm) <= w[i]:
        return W(xm), xm
    return float(w[i]), float(xs[i])


def solve_bubble(params: ObmParams, r, reward: Reward = Reward.quadratic_plus(),
                 residual_tol: float = RESIDUAL_TOL,
                 xtol: float = ROOT_XTOL) -> Optional[BubbleSolution]:
    """Solve for a disconnected stopping region; None when there is none.

    The left boundary c1 decouples as the negative root of G_-.  The pair
    (c2, c3) is located by bisection on c3 of T(c3) = min_x [a psi + b phi
    - g] with (a, b) fitted at c3 (T is strictly increasing in c3 where
    Q(c3) > 0), then polished by damped Newton on (G_-(c2) - G_-(c3),
    G_+(c2) - G_+(c3)) with the analytic Jacobian.  Candidates violating
    the ordering -1 < c1 <= c2 <= 0 < c3 or the domination checks are
    rejected (one-sided regime).
    """
    rate = as_rate(r)
    if reward.kind is RewardKind.LINEAR_PLUS:
        return None  # linear reward is always one-sided
    window = bubble_window(params, reward)
    if window is None:
        raise DomainError("disconnected regime requires sigma2^2 > 2 sigma1^2")
    if not window.contains(rate):
        raise DomainError(
            f"disconnected regime requires r in (2 sigma1^2, sigma2^2) = "
            f"({window.lo:.6g}, {window.hi:.6g}), got {rate:.6g}"
        )

    fp = fundamental_pair(params, rate)
    w = fp.wronskian

    def Gm(x, side=+1):
        return float(threshold_minus(fp, reward, x, side=side))

    def Gp(x, side=+1):
        return float(threshold_plus(fp, reward, x, side=side))

    # left boundary: negative root of G_-
    neg_roots = [x for x in g_minus_roots(params, rate, reward, xtol=xtol) if x < 0.0]
    if not neg_roots:
        return None
    c1 = neg_roots[0]

    neg_flip, pos_flip = _q_signflips(params, rate, reward)
    wlo = max(reward.support_left + 1e-9, neg_flip if neg_flip is not None else -np.inf)

    def T(c3: float) -> tuple[float, float]:
        a, b = _bubble_fit(fp, reward, c3)
        return _min_gap(fp, reward, a, b, wlo, 0.0)

    lo3 = (pos_flip if pos_flip is not None else 0.0) + 1e-9
    t_lo, _ = T(lo3)
    if t_lo >= 0.0:
        return None  # candidate never dips below g: no tangency, one-sided
    hi3 = max(lo3 + 0.5, 1.0)
    step = hi3 - lo3
    for _ in range(80):
        t_hi, _ = T(hi3)
        if t_hi > 0.0:
            break
        step *= 2.0
        hi3 += step
    else:
        return None

    # bisection on c3 (T is increasing in c3 on the bracket)
    a3, b3 = lo3, hi3
    c2 = wlo
    for _ in range(100):
        mid = 0.5 * (a3 + b3)
        t_mid, arg = T(mid)
        if t_mid < 0.0:
            a3 = mid
        else:
            b3 = mid
            c2 = arg
        if b3 - a3 < 1e-13:
            break
    c3 = b3
    _, c2 = T(c3)

    # Newton polish of the two-boundary system
    def m_of(x):
        return 2.0 / (params.sigma1 if x < 0 else params.sigma2) ** 2

    def F(c2_, c3_):
        return np.array([Gm(c2_) - Gm(c3_), Gp(c2_) - Gp(c3_)])

    cc2, cc3 = c2, c3
    fvec = F(cc2, cc3)
    scale = max(1.0, abs(Gm(cc3)), abs(Gp(cc3)))
    for _ in range(60):
        if np.max(np.abs(fvec)) < 1e-13 * scale:
            break
        q2 = float(stopping_rate(params, rate, reward, cc2))
        q3 = float(stopping_rate(params, rate, reward, cc3))
        j = np.array(
            [
                [m_of(cc2) * float(fp.psi(cc2)) * q2, -m_of(cc3) * float(fp.psi(cc3)) * q3],
                [-m_of(cc2) * float(fp.phi(cc2)) * q2, m_of(cc3) * float(fp.phi(cc3)) * q3],
            ]
        )
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if not math.isfinite(det) or abs(det) < 1e-14 * (np.abs(j).max() ** 2 + 1e-300):
            break
        dx = np.linalg.solve(j, -fvec)
        alpha = 1.0
        improved = False
        for _ in range(25):
            n2 = cc2 + alpha * dx[0]
            n3 = cc3 + alpha * dx[1]
            # stay in the wedge c2 <= 0 < c3: the diagonal c2 = c3 solves the
            # system trivially and must not attract the iteration
            if wlo <= n2 <= 0.0 and n3 > max(lo3 - 1e-9, 0.0) and n3 - n2 > 1e-12:
                fnew = F(n2, n3)
                if np.max(np.abs(fnew)) < np.max(np.abs(fvec)):
                    cc2, cc3, fvec = n2, n3, fnew
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            break
    c2, c3 = cc2, cc3

    a, b = _bubble_fit(fp, reward, c2)
    k = float(reward.value(c1)) / float(fp.psi(c1))

    def val(a_, b_, x):
        return a_ * float(fp.psi(x)) + b_ * float(fp.phi(x))

    def der(a_, b_, x):
        return a_ * float(fp.psi_deriv(x)) + b_ * float(fp.phi_deriv(x))

    residuals = (
        abs(k * float(fp.psi(c1)) - float(reward.value(c1))),
        abs(k * float(fp.psi_deriv(c1)) - float(reward.slope(c1))),
        abs(val(a, b, c2) - float(reward.value(c2))),
        abs(der(a, b, c2) - float(reward.slope(c2))),
        abs(val(a, b, c3) - float(reward.value(c3))),
        abs(der(a, b, c3) - float(reward.slope(c3))),
    )

    # feasibility: ordering, tangency quality, domination, stopping rate
    if not (reward.support_left < c1 <= c2 + 1e-10 and c2 <= 1e-14 and c3 > 0.0):
        return None
    # the tolerances above let c2 sit just outside [c1, 0]
    c2 = min(max(c2, c1), 0.0)
    if max(residuals) > residual_tol * scale:
        raise ConvergenceError(
            f"bubble system residuals did not converge at r={rate:.8g}",
            residuals=residuals,
        )
    for x in (c1, c2):
        if float(stopping_rate(params, rate, reward, x)) < -1e-11:
            return None
    xs = np.linspace(c2, c3, 2001)
    wgap = a * np.asarray(fp.psi(xs)) + b * np.asarray(fp.phi(xs)) - np.asarray(
        reward.value(xs)
    )
    if wgap.min() < -1e-10 * scale:
        return None
    lo = reward.support_left + 1e-9
    if c1 > lo:
        xs = np.linspace(lo, c1, 1001)
        lgap = k * np.asarray(fp.psi(xs)) - np.asarray(reward.value(xs))
        if lgap.min() < -1e-10 * scale:
            return None
    for kink in reward.kinks():
        if c1 + 1e-12 < kink < c2 - 1e-12 or kink > c3 + 1e-12:
            if float(reward.slope_left(kink)) < float(reward.slope(kink)) - 1e-15:
                return None

    return BubbleSolution(c1=float(c1), c2=float(c2), c3=float(c3),
                          k=float(k), a=float(a), b=float(b),
                          residuals=residuals)


def find_r0(params: ObmParams, reward: Reward = Reward.quadratic_plus()) -> float:
    """Critical rate at which the stopping region first disconnects.

    g/psi has a local maximum at the negative root c1 of G_- and another at
    its largest root c; the one-sided region [c, oo) is optimal while the
    right one is the higher (k psi with k = g(c)/psi(c) must dominate g).
    r0 is the root in r of g(c1)/psi(c1) - g(c)/psi(c), found by brentq
    over the bubble window.  For the skew reward the bracket starts at
    (1e-6, sigma2^2) and its upper end doubles, at most _R0_DOUBLINGS
    times, until the region is disconnected there.  A rate with no
    positive root of G_- counts as disconnected, one with no root at or
    below 0 as connected.
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
        roots = g_minus_roots(params, r, reward)
        if not roots:
            raise ConvergenceError(f"no root of G_- found at r={r:.8g}")
        c1, c = roots[0], roots[-1]
        if c <= 0.0:
            return 1.0
        if c1 > 0.0:
            return -1.0
        fp = fundamental_pair(params, r)
        return (float(reward.value(c1)) / float(fp.psi(c1))
                - float(reward.value(c)) / float(fp.psi(c)))

    if gap(lo) >= 0.0:
        raise ConvergenceError("region already disconnected at the lower end of the bracket")
    while gap(hi) <= 0.0:
        if doublings == 0:
            raise ConvergenceError(
                f"region still connected at r={hi:.6g}, the upper end of the bracket")
        lo, hi, doublings = hi, 2.0 * hi, doublings - 1
    return brentq(gap, lo, hi, xtol=ROOT_XTOL, rtol=_BRENT_RTOL, maxiter=200)


# ---------------------------------------------------------------------------
# classification and the top-level solve
# ---------------------------------------------------------------------------


def _tag_for(c: float) -> RegimeTag:
    if abs(c) <= 1e-12:
        return RegimeTag.ONE_SIDED_ZERO_C
    return RegimeTag.ONE_SIDED_POSITIVE_C if c > 0 else RegimeTag.ONE_SIDED_NEGATIVE_C


def solve_region(params: ObmParams, r, reward: Reward) -> RegionSolution:
    """Solve the stopping problem: regime, region and coefficients.

    Inside the disconnection window the bubble system is tried first (a
    successful solve is self-certifying); everywhere else, and when no
    bubble exists, the one-sided candidate (largest root of G_-) is used.
    Exactly one of the two regimes verifies at any given rate.
    """
    rate = as_rate(r)
    window = bubble_window(params, reward)
    if window is not None and window.contains(rate):
        sol = solve_bubble(params, rate, reward)
        if sol is not None:
            regime = Regime(RegimeTag.BUBBLE,
                            {"c1": sol.c1, "c2": sol.c2, "c3": sol.c3})
            return RegionSolution(params, rate, reward, regime, sol.region(),
                                  sol.k, bubble=sol)

    if reward.kind is RewardKind.LINEAR_PLUS:
        c = solve_linear_threshold(params, rate)
    else:
        try:
            c = solve_quadratic_one_sided(params, rate, reward)
        except RegimeError as exc:
            raise ConvergenceError(
                f"neither one-sided nor disconnected solution verified at r={rate:.6g}"
            ) from exc
    k = float(reward.value(c)) / float(fundamental_pair(params, rate).psi(c))
    return RegionSolution(params, rate, reward, Regime(_tag_for(c), {"c": c}),
                          Region.one_sided(c), k)


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
