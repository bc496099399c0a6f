"""Value-function assembly and independent verification checks.

A candidate value V is optimal iff it is an r-excessive majorant of the
reward that agrees with it on the stopping set.  Excessivity of a function
that is C^1 across 0 and piecewise C^2 is equivalent to two monotonicity
statements in terms of the fundamental pair:

    I_V(x) = psi'(x) V(x) - psi(x) V'(x)   nondecreasing,
    D_V(x) = phi(x) V'(x) - phi'(x) V(x)   nonincreasing and >= 0,

together with concave-type kinks only (V'(x-) >= V'(x+)).  On the assembled
solutions both quantities are piecewise explicit: I_V is 0 on the far-left
continuation piece, the constant b*w across a bubble, and G_-(x) on stopping
pieces; D_V is k*w on the left piece, a*w across a bubble, and G_+(x) on
stopping pieces.  The checks below do not use those closed forms: they
evaluate any candidate with value/deriv methods on a dense grid, so the same
code path validates assembled solutions and rejects the non-excessive
interface-fit candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    FundamentalPair,
    ObmParams,
    Reward,
    VerificationError,
    as_rate,
    fundamental_pair,
)
from .solver import RegionSolution

__all__ = [
    "ValueFunctionRep",
    "build_check_grid",
    "excessivity_check",
    "majorant_check",
    "verify_solution",
    "CheckResult",
    "VerificationReport",
]

MONOTONE_TOL = 1e-10
MAJORANT_TOL = 1e-12


@dataclass(frozen=True)
class ValueFunctionRep:
    """Piecewise closed-form value function of a solved problem.

    One-sided: k psi on (-oo, c), g on [c, oo).  Disconnected: k psi on
    (-oo, c1), g on [c1, c2], a psi + b phi on (c2, c3), g on [c3, oo).
    """

    solution: RegionSolution

    @property
    def fp(self) -> FundamentalPair:
        return fundamental_pair(self.solution.params, self.solution.r)

    def _pieces(self, x, order: int):
        sol = self.solution
        fp = self.fp
        reward = sol.reward
        x = np.asarray(x, dtype=float)
        if order == 0:
            psi, phi, g = fp.psi, fp.phi, reward.value
        elif order == 1:
            psi, phi, g = fp.psi_deriv, fp.phi_deriv, reward.slope
        else:
            psi, phi, g = fp.psi_deriv2, fp.phi_deriv2, reward.curvature

        if sol.bubble is None:
            c = sol.region.components[0].lo
            stop = x >= c
            out = np.where(stop, np.asarray(g(x), dtype=float),
                           sol.k * np.asarray(psi(x), dtype=float))
        else:
            bb = sol.bubble
            gx = np.asarray(g(x), dtype=float)
            left = sol.k * np.asarray(psi(x), dtype=float)
            mid = bb.a * np.asarray(psi(x), dtype=float) + bb.b * np.asarray(
                phi(x), dtype=float
            )
            out = np.where(
                x < bb.c1,
                left,
                np.where(
                    x <= bb.c2,
                    gx,
                    np.where(x < bb.c3, mid, gx),
                ),
            )
        return float(out) if x.ndim == 0 else out

    def value(self, x):
        return self._pieces(x, 0)

    def deriv(self, x):
        return self._pieces(x, 1)

    def deriv2(self, x):
        return self._pieces(x, 2)


def build_check_grid(solution: RegionSolution, n: int = 4001,
                     pad_left: float = 1.0, pad_right: Optional[float] = None) -> np.ndarray:
    """Dense grid spanning all boundaries, the interface and the support edge.

    Boundary points themselves plus +-1e-7 offsets around each boundary, the
    interface and the support edge are inserted so kink and smooth-fit
    behavior is probed where it matters.
    """
    bounds = solution.region.boundaries()
    specials = sorted(set(bounds + [0.0, solution.reward.support_left]))
    lo = min(specials) - pad_left
    if pad_right is None:
        fp = fundamental_pair(solution.params, solution.r)
        pad_right = 1.0 + 3.0 / fp.lam2
    hi = max(specials) + pad_right
    xs = np.linspace(lo, hi, n)
    extra = []
    for s in specials:
        extra.extend([s, s - 1e-7, s + 1e-7])
    xs = np.unique(np.concatenate([xs, np.asarray(extra)]))
    return xs


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    worst: float
    where: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    excessive: CheckResult
    majorant: CheckResult
    smooth_fit: CheckResult
    nonnegative: CheckResult
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self):
        if not self.ok:
            raise VerificationError("; ".join(self.failures))


def excessivity_check(params: ObmParams, r, candidate, grid: np.ndarray,
                      tol: float = MONOTONE_TOL) -> CheckResult:
    """Monotonicity of the representing pair I_V, D_V on the grid.

    candidate needs vectorized value(x) and deriv(x).  Slack is relative to
    neighboring magnitudes so exponential growth of psi/phi at the grid
    edges does not mask or fake violations.  A convex kink at the interface
    (deriv(0-) < deriv(0+)) also fails the check.
    """
    rate = as_rate(r)
    fp = fundamental_pair(params, rate)
    xs = np.asarray(grid, dtype=float)
    v = np.asarray(candidate.value(xs), dtype=float)
    dv = np.asarray(candidate.deriv(xs), dtype=float)
    i_rep = np.asarray(fp.psi_deriv(xs)) * v - np.asarray(fp.psi(xs)) * dv
    d_rep = np.asarray(fp.phi(xs)) * dv - np.asarray(fp.phi_deriv(xs)) * v

    scale = np.maximum(1.0, np.maximum(np.abs(i_rep[:-1]), np.abs(i_rep[1:])))
    i_viol = (i_rep[:-1] - i_rep[1:]) / scale
    scale_d = np.maximum(1.0, np.maximum(np.abs(d_rep[:-1]), np.abs(d_rep[1:])))
    d_viol = (d_rep[1:] - d_rep[:-1]) / scale_d
    neg_viol = -d_rep / np.maximum(1.0, np.abs(d_rep))

    worst = 0.0
    where = float(xs[0])
    for viol, pts in ((i_viol, xs[1:]), (d_viol, xs[1:]), (neg_viol, xs)):
        j = int(np.argmax(viol))
        if viol[j] > worst:
            worst = float(viol[j])
            where = float(pts[j])

    # one-sided derivative limits at the interface by linear extrapolation,
    # so curvature of V near 0 cannot masquerade as a kink at high rates
    eps = 1e-9
    dl = 2.0 * float(candidate.deriv(-eps)) - float(candidate.deriv(-2.0 * eps))
    dr = 2.0 * float(candidate.deriv(eps)) - float(candidate.deriv(2.0 * eps))
    kink = dl - dr
    kink_bad = kink < -1e-7 * max(1.0, abs(dl), abs(dr))
    ok = worst <= tol and not kink_bad
    parts = []
    if worst > tol:
        parts.append(f"monotonicity violation {worst:.3e} at x={where:.6g}")
    if kink_bad:
        parts.append(f"convex kink at interface (V'(0-) - V'(0+) = {kink:.3e})")
    return CheckResult(ok=ok, worst=worst, where=where,
                       detail="" if ok else "; ".join(parts))


def majorant_check(candidate, reward: Reward, grid: np.ndarray,
                   tol: float = MAJORANT_TOL) -> CheckResult:
    """V >= g on the grid, slack relative to max(1, |g|)."""
    xs = np.asarray(grid, dtype=float)
    v = np.asarray(candidate.value(xs), dtype=float)
    g = np.asarray(reward.value(xs), dtype=float)
    gap = (v - g) / np.maximum(1.0, np.abs(g))
    j = int(np.argmin(gap))
    worst = -float(gap[j])
    ok = worst <= tol
    return CheckResult(
        ok=ok, worst=max(worst, 0.0), where=float(xs[j]),
        detail="" if ok else f"V < g by {worst:.3e} at x={xs[j]:.6g}",
    )


def _smooth_fit_check(rep: ValueFunctionRep, tol: float = 1e-9) -> CheckResult:
    sol = rep.solution
    worst = 0.0
    where = math.nan
    eps = 1e-9
    for b in sol.region.boundaries():
        scale = max(1.0, abs(float(sol.reward.value(b))))
        kink = b in sol.reward.kinks()
        # value continuity: V and g compared at the same probe point, so
        # under true smooth fit the gap is O(eps^2) and never trips tol
        for xq in (b - eps, b + eps):
            gap = float(rep.value(xq)) - float(sol.reward.value(xq))
            if kink:
                # no smooth fit at a reward kink: the slope term is taken
                # out so the gap is the value mismatch at b up to O(eps^2)
                gap -= (xq - b) * (float(rep.deriv(xq)) - float(sol.reward.slope(xq)))
            err = abs(gap) / scale
            if err > worst:
                worst, where = err, b
        # derivative match across the boundary, skipping reward kinks where
        # only an inequality is required (checked by excessivity); the probe
        # sits eps inside each piece and a curvature term removes the offset
        if not kink:
            dl = float(rep.deriv(b - eps)) + eps * float(rep.deriv2(b - eps))
            dr = float(rep.deriv(b + eps)) - eps * float(rep.deriv2(b + eps))
            err = abs(dl - dr) / max(1.0, abs(dl), abs(dr))
            if err > worst:
                worst, where = err, b
    ok = worst <= tol
    return CheckResult(ok=ok, worst=worst, where=where,
                       detail="" if ok else f"smooth fit off by {worst:.3e} at x={where:.6g}")


def _nonnegative_check(rep: ValueFunctionRep, grid: np.ndarray) -> CheckResult:
    v = np.asarray(rep.value(grid), dtype=float)
    j = int(np.argmin(v))
    worst = -float(min(v[j], 0.0))
    return CheckResult(ok=worst <= 1e-14, worst=worst, where=float(grid[j]),
                       detail="" if worst <= 1e-14 else f"V negative at x={grid[j]:.6g}")


def verify_solution(solution: RegionSolution, n: int = 4001,
                    monotone_tol: float = MONOTONE_TOL,
                    majorant_tol: float = MAJORANT_TOL) -> VerificationReport:
    """Full independent verification of a solved problem.

    Checks excessivity (representing-pair monotonicity + kink direction),
    the majorant property, smooth fit at every boundary, and nonnegativity,
    all on a dense grid around the boundaries.
    """
    rep = ValueFunctionRep(solution)
    grid = build_check_grid(solution, n=n)
    exc = excessivity_check(solution.params, solution.r, rep, grid, tol=monotone_tol)
    maj = majorant_check(rep, solution.reward, grid, tol=majorant_tol)
    fit = _smooth_fit_check(rep)
    pos = _nonnegative_check(rep, grid)
    failures = tuple(
        c.detail for c in (exc, maj, fit, pos) if not c.ok
    )
    return VerificationReport(excessive=exc, majorant=maj, smooth_fit=fit,
                              nonnegative=pos, failures=failures)
