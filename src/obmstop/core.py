"""Closed-form building blocks for the oscillating Brownian motion (OBM).

The OBM is the driftless diffusion with piecewise-constant volatility
sigma(x) = sigma1 for x < 0 and sigma2 for x >= 0.  It is in natural scale
(S(x) = x) and its speed measure has density 2/sigma(x)^2 with no mass at
the interface.  This module provides:

- parameter containers with validation (`ObmParams`, `Discount`, `Reward`,
  `SkewParams`),
- the increasing/decreasing fundamental solutions psi_r, phi_r of the
  generalized ODE (d/dm)(d/dS) u = r u as piecewise exponentials
  (`FundamentalPair`), normalized to psi_r(0) = phi_r(0) = 1,
- the generator action (sigma(x)^2/2) f''(x),
- the skew Brownian motion (SBM) correspondence: the SBM scale map, its
  inverse, and the exact two-way parameter mapping between SBM index beta
  and OBM volatility pairs.

All evaluators accept scalars or numpy arrays and are pure functions of
immutable values (thread-safe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "VerificationError",
    "OVERFLOW_EXP_ARG",
    "ObmParams",
    "Discount",
    "RewardKind",
    "Reward",
    "FundamentalPair",
    "SkewParams",
    "fundamental_pair",
    "generator_apply",
    "sbm_scale",
    "sbm_scale_inv",
    "sbm_to_obm",
    "obm_to_sbm",
    "as_rate",
]


class DomainError(ValueError):
    """Invalid parameter or evaluation point (maps to CLI exit code 1)."""


class ConvergenceError(RuntimeError):
    """An iterative scheme did not converge (maps to CLI exit code 3).

    Carries the last residuals seen, for diagnostics.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class VerificationError(RuntimeError):
    """A solution failed verification (maps to CLI exit code 2)."""


# exp arguments beyond this saturate to signed infinity instead of raising
OVERFLOW_EXP_ARG = 700.0


def _checked_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return value


def _safe_exp(a):
    """exp(a) with overflow saturation to +inf (no warnings)."""
    a = np.asarray(a, dtype=float)
    big = a > OVERFLOW_EXP_ARG
    if not big.any():
        return np.exp(a)
    # np.where keeps 0-d inputs working; item assignment would not
    return np.where(big, np.inf, np.exp(np.where(big, 0.0, a)))


def _maybe_scalar(x_in, out):
    if np.ndim(x_in) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ObmParams:
    """Volatility pair of the OBM: sigma1 on x < 0, sigma2 on x >= 0."""

    sigma1: float
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma1", _checked_positive("sigma1", self.sigma1))
        object.__setattr__(self, "sigma2", _checked_positive("sigma2", self.sigma2))

    def sigma(self, x):
        """sigma(x): sigma1 for x < 0, sigma2 for x >= 0."""
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, self.sigma1, self.sigma2)
        return _maybe_scalar(x, out)

    def speed_density(self, x):
        """Speed measure density 2/sigma(x)^2 (no mass at 0)."""
        s = self.sigma(x)
        return 2.0 / (np.asarray(s) ** 2) if np.ndim(x) else 2.0 / s**2


@dataclass(frozen=True)
class Discount:
    """Strictly positive discount rate.

    Zero discount is excluded: every closed form downstream divides by
    sqrt(2 r).
    """

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", _checked_positive("r", self.r))


def as_rate(r) -> float:
    """Accept a Discount or a bare positive float; return the validated rate."""
    if isinstance(r, Discount):
        return r.r
    return Discount(r).r


class RewardKind(Enum):
    LINEAR_PLUS = "linear"
    QUADRATIC_PLUS = "quad"
    SKEW_LINEAR = "linear-skew"


@dataclass(frozen=True)
class Reward:
    """Payoff g for the stopping problem.

    LINEAR_PLUS      g(x) = max(1 + x, 0)
    QUADRATIC_PLUS   g(x) = max(1 + x, 0)^2
    SKEW_LINEAR      g(x) = max(1 + 2(1-beta) x, 0) for x < 0,
                     1 + 2 beta x for x >= 0  (beta in (0,1))

    SKEW_LINEAR is the linear reward seen through the SBM scale map: it is
    g_lin(Sinv(x)) for Sinv the inverse of the SBM natural-scale function,
    so solving the OBM problem with it solves the SBM problem with the
    plain linear reward.
    """

    kind: RewardKind
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind is RewardKind.SKEW_LINEAR:
            if self.beta is None:
                raise DomainError("SKEW_LINEAR reward requires beta")
            b = float(self.beta)
            if not (0.0 < b < 1.0) or not math.isfinite(b):
                raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
            object.__setattr__(self, "beta", b)
        elif self.beta is not None:
            raise DomainError(f"{self.kind} reward takes no beta")

    # -- factories ---------------------------------------------------------

    @staticmethod
    def linear_plus() -> "Reward":
        return Reward(RewardKind.LINEAR_PLUS)

    @staticmethod
    def quadratic_plus() -> "Reward":
        return Reward(RewardKind.QUADRATIC_PLUS)

    @staticmethod
    def skew_linear(beta: float) -> "Reward":
        return Reward(RewardKind.SKEW_LINEAR, beta=float(beta))

    # -- geometry ----------------------------------------------------------

    @property
    def support_left(self) -> float:
        """Leftmost point where g becomes positive (g = 0 at and below it)."""
        if self.kind is RewardKind.SKEW_LINEAR:
            return -1.0 / (2.0 * (1.0 - self.beta))
        return -1.0

    def kinks(self) -> tuple[float, ...]:
        """Points where the slope of g jumps.

        The jump is upward (a convex kink) at the support edge.  The skew
        reward's kink at 0 is convex for beta > 1/2 and concave for
        beta < 1/2, where g'(0-) = 2(1-beta) exceeds g'(0+) = 2 beta.
        """
        if self.kind is RewardKind.LINEAR_PLUS:
            return (-1.0,)
        if self.kind is RewardKind.QUADRATIC_PLUS:
            return ()  # slope 2(1+x)^+ is continuous at -1
        return (self.support_left, 0.0)

    # -- evaluation (right-continuous branch convention at breakpoints) -----

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is RewardKind.LINEAR_PLUS:
            out = np.maximum(1.0 + x, 0.0)
        elif self.kind is RewardKind.QUADRATIC_PLUS:
            out = np.maximum(1.0 + x, 0.0) ** 2
        else:
            g1 = 2.0 * (1.0 - self.beta)
            g2 = 2.0 * self.beta
            out = np.where(x < 0.0, np.maximum(1.0 + g1 * x, 0.0), 1.0 + g2 * x)
        return _maybe_scalar(x, out)

    def slope(self, x):
        """g'(x), right derivative at slope breakpoints."""
        x = np.asarray(x, dtype=float)
        if self.kind is RewardKind.LINEAR_PLUS:
            out = np.where(x >= -1.0, 1.0, 0.0)
        elif self.kind is RewardKind.QUADRATIC_PLUS:
            out = 2.0 * np.maximum(1.0 + x, 0.0)
        else:
            g1 = 2.0 * (1.0 - self.beta)
            g2 = 2.0 * self.beta
            out = np.where(
                x >= 0.0, g2, np.where(x >= self.support_left, g1, 0.0)
            )
        return _maybe_scalar(x, out)

    def slope_left(self, x):
        """g'(x-), left derivative (differs from slope() only at kinks)."""
        x = np.asarray(x, dtype=float)
        if self.kind is RewardKind.LINEAR_PLUS:
            out = np.where(x > -1.0, 1.0, 0.0)
        elif self.kind is RewardKind.QUADRATIC_PLUS:
            out = 2.0 * np.maximum(1.0 + x, 0.0)
        else:
            g1 = 2.0 * (1.0 - self.beta)
            g2 = 2.0 * self.beta
            out = np.where(x > 0.0, g2, np.where(x > self.support_left, g1, 0.0))
        return _maybe_scalar(x, out)

    def curvature(self, x):
        """g''(x) away from kinks (right-continuous at breakpoints)."""
        x = np.asarray(x, dtype=float)
        if self.kind is RewardKind.QUADRATIC_PLUS:
            out = np.where(x >= -1.0, 2.0, 0.0)
        else:
            out = np.zeros_like(x)
        return _maybe_scalar(x, out)


@dataclass(frozen=True)
class FundamentalPair:
    """psi_r (increasing) and phi_r (decreasing) fundamental solutions.

    With lam1 = sqrt(2r)/sigma1, lam2 = sqrt(2r)/sigma2:

        psi_r(x) = exp(lam1 x)                          x < 0
                   b1 exp(lam2 x) + b2 exp(-lam2 x)     x >= 0
        phi_r(x) = a1 exp(-lam1 x) + a2 exp(lam1 x)     x < 0
                   exp(-lam2 x)                         x >= 0

    a1 = (1 + sigma1/sigma2)/2, a2 = (1 - sigma1/sigma2)/2,
    b1 = (1 + sigma2/sigma1)/2, b2 = (1 - sigma2/sigma1)/2.

    Both are normalized to 1 at the interface and are C^1 there:
    a1 + a2 = b1 + b2 = 1, psi'(0-) = psi'(0+) = lam1,
    phi'(0-) = phi'(0+) = -lam2.  The Wronskian psi' phi - psi phi' is the
    constant sqrt(2r) (1/sigma1 + 1/sigma2).

    Evaluation overflow saturates to signed infinity (exp arguments above
    OVERFLOW_EXP_ARG), never raises.
    """

    params: ObmParams
    r: float
    lam1: float
    lam2: float
    a1: float
    a2: float
    b1: float
    b2: float

    # -- psi ---------------------------------------------------------------

    def psi(self, x):
        # the left branch is exact at 0: psi(0) = 1, psi'(0) = lam1
        x = np.asarray(x, dtype=float)
        neg = x <= 0.0
        out = np.where(
            neg,
            _safe_exp(self.lam1 * np.where(neg, x, 0.0)),
            self.b1 * _safe_exp(self.lam2 * np.where(neg, 0.0, x))
            + self.b2 * np.exp(-self.lam2 * np.where(neg, 0.0, x)),
        )
        return _maybe_scalar(x, out)

    def psi_deriv(self, x):
        x = np.asarray(x, dtype=float)
        neg = x <= 0.0
        xl = np.where(neg, x, 0.0)
        xr = np.where(neg, 0.0, x)
        out = np.where(
            neg,
            self.lam1 * _safe_exp(self.lam1 * xl),
            self.lam2
            * (self.b1 * _safe_exp(self.lam2 * xr) - self.b2 * np.exp(-self.lam2 * xr)),
        )
        return _maybe_scalar(x, out)

    def psi_deriv2(self, x):
        # psi'' = (2r/sigma(x)^2) psi almost everywhere
        x = np.asarray(x, dtype=float)
        lam = np.where(x < 0.0, self.lam1, self.lam2)
        out = lam**2 * np.asarray(self.psi(x))
        return _maybe_scalar(x, out)

    # -- phi ---------------------------------------------------------------

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        neg = x < 0.0
        xl = np.where(neg, x, 0.0)
        xr = np.where(neg, 0.0, x)
        out = np.where(
            neg,
            self.a1 * _safe_exp(-self.lam1 * xl) + self.a2 * np.exp(self.lam1 * xl),
            np.exp(-self.lam2 * xr),
        )
        return _maybe_scalar(x, out)

    def phi_deriv(self, x):
        x = np.asarray(x, dtype=float)
        neg = x < 0.0
        xl = np.where(neg, x, 0.0)
        xr = np.where(neg, 0.0, x)
        out = np.where(
            neg,
            self.lam1
            * (-self.a1 * _safe_exp(-self.lam1 * xl) + self.a2 * np.exp(self.lam1 * xl)),
            -self.lam2 * np.exp(-self.lam2 * xr),
        )
        return _maybe_scalar(x, out)

    def phi_deriv2(self, x):
        x = np.asarray(x, dtype=float)
        lam = np.where(x < 0.0, self.lam1, self.lam2)
        out = lam**2 * np.asarray(self.phi(x))
        return _maybe_scalar(x, out)

    # -- invariants --------------------------------------------------------

    @property
    def wronskian(self) -> float:
        """psi' phi - psi phi', constant in x."""
        return self.lam1 + self.lam2


def fundamental_pair(params: ObmParams, r) -> FundamentalPair:
    """Build the fundamental pair for the given volatilities and rate."""
    rate = as_rate(r)
    s1, s2 = params.sigma1, params.sigma2
    root = math.sqrt(2.0 * rate)
    return FundamentalPair(
        params=params,
        r=rate,
        lam1=root / s1,
        lam2=root / s2,
        a1=0.5 * (1.0 + s1 / s2),
        a2=0.5 * (1.0 - s1 / s2),
        b1=0.5 * (1.0 + s2 / s1),
        b2=0.5 * (1.0 - s2 / s1),
    )


def generator_apply(
    params: ObmParams,
    f,
    x,
    second_derivative: Optional[Callable] = None,
):
    """(sigma(x)^2 / 2) f''(x), the diffusion generator away from 0.

    Parameters
    ----------
    f : callable or Reward
        The function. If `second_derivative` is not given, f'' is taken
        from ``f.deriv2`` or ``f.curvature`` when available, else by a
        central second difference.
    x : scalar or array, must avoid 0
        The generator is undefined pointwise at the interface (the speed
        measure has no mass there).

    For f = psi_r or phi_r the result equals r * f(x).
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs == 0.0):
        raise DomainError("generator undefined at the interface x = 0")
    if second_derivative is not None:
        d2 = second_derivative(x)
    elif hasattr(f, "deriv2"):
        d2 = f.deriv2(x)
    elif hasattr(f, "curvature"):
        d2 = f.curvature(x)
    else:
        h = 1e-5 * np.maximum(1.0, np.abs(xs))
        d2 = (np.asarray(f(xs + h)) - 2.0 * np.asarray(f(xs)) + np.asarray(f(xs - h))) / h**2
    sig = params.sigma(x)
    out = 0.5 * np.asarray(sig) ** 2 * np.asarray(d2)
    return _maybe_scalar(x, out)


@dataclass(frozen=True)
class SkewParams:
    """Skew Brownian motion index beta in (0, 1).

    beta is the probability that an excursion from 0 is positive; beta=1/2
    is standard Brownian motion.
    """

    beta: float

    def __post_init__(self):
        b = float(self.beta)
        if not math.isfinite(b) or not (0.0 < b < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        object.__setattr__(self, "beta", b)


def _as_beta(beta) -> float:
    if isinstance(beta, SkewParams):
        return beta.beta
    return SkewParams(float(beta)).beta


def sbm_scale(beta, x):
    """Natural scale of the SBM: x/(2(1-beta)) for x<0, x/(2 beta) for x>=0."""
    b = _as_beta(beta)
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, x / (2.0 * (1.0 - b)), x / (2.0 * b))
    return _maybe_scalar(x, out)


def sbm_scale_inv(beta, y):
    """Inverse of sbm_scale (a bijection of the reals)."""
    b = _as_beta(beta)
    y = np.asarray(y, dtype=float)
    out = np.where(y < 0.0, 2.0 * (1.0 - b) * y, 2.0 * b * y)
    return _maybe_scalar(y, out)


def sbm_to_obm(beta) -> ObmParams:
    """OBM parameters of the scale-transformed SBM.

    The SBM with index beta, mapped through its natural scale, is the OBM
    with sigma1 = 1/(2(1-beta)), sigma2 = 1/(2 beta).
    """
    b = _as_beta(beta)
    return ObmParams(sigma1=1.0 / (2.0 * (1.0 - b)), sigma2=1.0 / (2.0 * b))


def obm_to_sbm(params: ObmParams) -> tuple[SkewParams, float]:
    """SBM index and spatial factor reproducing a general OBM.

    Returns (beta, lam) with beta = sigma1/(sigma1+sigma2) and
    lam = 2 sigma1 sigma2 / (sigma1 + sigma2), such that
    lam * S_beta(SBM(beta)) is the OBM with (sigma1, sigma2) in law;
    equivalently x -> sigma1 x (x<0) / sigma2 x (x>=0) applied to the SBM.
    lam = 1 exactly when sigma1 = 1/(2(1-beta)).
    """
    s1, s2 = params.sigma1, params.sigma2
    beta = s1 / (s1 + s2)
    lam = 2.0 * s1 * s2 / (s1 + s2)
    return SkewParams(beta), lam
