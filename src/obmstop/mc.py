"""Monte Carlo cross-check: exact OBM sampling and stopping-rule valuation.

The OBM is simulated without discretization bias through the skew Brownian
motion: with beta = sigma1/(sigma1+sigma2), the map y -> sigma1 y (y < 0),
sigma2 y (y >= 0) carries the SBM(beta) to the OBM, so y = x/sigma(x) is the
SBM coordinate of x.  One SBM transition over a step t is sampled exactly by
the hit/no-hit decomposition:

  * propose y ~ N(x, t); if y has the sign of x, accept it as a no-zero-hit
    path with probability 1 - exp(-2|x||y|/t) (reflection identity);
  * otherwise the bridge hit zero: draw the terminal magnitude M from
    P(M > m) = Sf((|x|+m)/sqrt(t)) / Sf(|x|/sqrt(t)) by survival inversion
    and give it positive sign with probability beta.

The resulting transition density is N(y-x; t) + sgn(y)(2 beta - 1)
N(|x|+|y|; t), which the distribution tests pin against closed-form CDF
bins.  Proposals landing exactly on 0 take the hit branch.  The step is
exact for any t, including steps that cross the interface.

Valuation of a stopping region runs the chain on a fixed clock dt with
first-entry detection at step resolution.  A path far from the region takes
one exact step over M dt at once ("far-step merging").  The miss bound:
|Y| is a reflected Brownian motion, so ||Y_s| - |y|| <= sup |W| over the
step.  To enter a component the path must reach one of its endpoints b
(in SBM coordinates); that takes ||Y_s| - |y|| >= ||b| - |y|| when b is on
the side of y, and >= max(|y|, ||b| - |y||) when b is across 0, since the
path must reach 0 as well.  A step of M dt is allowed only while
8 sqrt(M dt) stays below the smallest such distance (and M <=
MAX_MERGE_STEPS), so an unobserved entry has probability below
4 Sf(8) ~ 2.5e-15 per endpoint per merged step.  The distance to 0 itself
does not limit the step.

The Euler sampler is a plain Gaussian step in x; it cannot cross the
interface exactly, so its merged steps also stay 8 sigma sqrt(M dt) away
from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .core import DomainError, ObmParams, Reward, as_rate, obm_to_sbm
from .solver import Region

__all__ = [
    "Sampler",
    "McConfig",
    "McResult",
    "sbm_step_exact",
    "sbm_transition_cdf",
    "obm_step",
    "estimate_value",
]

MAX_MERGE_STEPS = 65536


class Sampler(Enum):
    EXACT_SBM = "exact"
    EULER = "euler"


@dataclass(frozen=True)
class McConfig:
    """Estimator knobs; horizon None means 50/r (discount ~ 2e-22 left)."""

    dt: float = 1e-4
    horizon: Optional[float] = None
    batch_size: int = 32768
    merge_far_steps: bool = True
    sampler: Sampler = Sampler.EXACT_SBM
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")


@dataclass(frozen=True)
class McResult:
    value: float
    stderr: float
    n_paths: int
    censored_frac: float
    horizon: float
    dt: float
    seed: int
    iterations: int               # simulation loop passes, summed over batches


def sbm_step_exact(x, t, beta: float, rng: np.random.Generator):
    """One exact SBM(beta) transition from x (vectorized).

    The duration t is a scalar or an array of per-path durations that
    broadcasts against x.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & np.isfinite(t)):
        raise DomainError(f"step duration must be positive, got {t}")
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    scalar = np.ndim(x) == 0 and t.ndim == 0
    x, t = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), t)
    sqt = np.sqrt(t)
    y = x + sqt * rng.standard_normal(x.shape)
    same_side = x * y > 0.0
    u = rng.random(x.shape)
    # no-hit acceptance: P = 1 - exp(-2 x y / t) for same-sign endpoints
    keep = same_side & (u < -np.expm1(-2.0 * x * y / t))
    out = np.where(keep, y, 0.0)
    hit = ~keep
    if np.any(hit):
        ax, s = np.abs(x[hit]), sqt[hit]
        tail = np.maximum(ndtr(-ax / s), 1e-300)
        v = 1.0 - rng.random(ax.shape)  # in (0, 1], keeps the inverse finite
        m = s * -ndtri(v * tail) - ax
        sign = np.where(rng.random(ax.shape) < beta, 1.0, -1.0)
        out[hit] = sign * np.maximum(m, 0.0)
    return float(out[0]) if scalar else out


def sbm_transition_cdf(x: float, t: float, beta: float, y):
    """Closed-form CDF of the SBM transition (validates the sampler).

    Density: N_t(y - x) + sgn(y) (2 beta - 1) N_t(|x| + |y|).
    """
    y = np.asarray(y, dtype=float)
    sqt = math.sqrt(t)
    ax = abs(x)
    skew = 2.0 * beta - 1.0
    neg = ndtr((y - x) / sqt) - skew * ndtr((y - ax) / sqt)
    pos = ndtr((y - x) / sqt) - skew * ndtr(-(ax + y) / sqt)
    out = np.where(y < 0.0, neg, pos)
    return out if y.ndim else float(out)


def obm_step(x, t, params: ObmParams, rng: np.random.Generator):
    """One exact OBM transition from x (vectorized; t scalar or per path)."""
    skew, _lam = obm_to_sbm(params)
    scalar = np.ndim(x) == 0 and np.ndim(t) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.where(x < 0.0, x / params.sigma1, x / params.sigma2)
    y1 = np.atleast_1d(sbm_step_exact(y, t, skew.beta, rng))
    out = np.where(y1 < 0.0, params.sigma1 * y1, params.sigma2 * y1)
    return float(out[0]) if scalar else out


def _merge_limit(y, ends):
    """Smallest ||Y| - |y|| move that can carry SBM coordinate y to an end.

    ends are the finite region endpoints in SBM coordinates; an endpoint
    across 0 also needs the path to reach 0, a move of |y|.
    """
    ay = np.abs(y)
    dist = np.full(y.shape, np.inf)
    for b in ends:
        gap = np.abs(abs(b) - ay)
        across = (b < 0.0) != (y < 0.0)
        dist = np.minimum(dist, np.where(across, np.maximum(ay, gap), gap))
    return dist


def _euler_step(xa, sig, mm, dt: float, rng: np.random.Generator):
    """Gaussian step in x.

    Merged paths draw their normals before single-step paths, the order
    that earlier versions used, so a seed keeps its Euler results.
    """
    xn = np.empty_like(xa)
    far = mm > 1
    for sel in (far, ~far):
        if np.any(sel):
            z = rng.standard_normal(int(sel.sum()))
            xn[sel] = xa[sel] + sig[sel] * np.sqrt(mm[sel] * dt) * z
    return xn


def _run_batch(params: ObmParams, rate: float, reward: Reward, region: Region,
               x0: float, m: int, n_steps: int, cfg: McConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
    pay = np.zeros(m)
    if region.contains(x0):
        pay[:] = float(reward.value(x0))
        return pay, 0, 0

    exact = cfg.sampler is Sampler.EXACT_SBM
    ends = [b / float(params.sigma(b)) for b in region.boundaries()]
    xa = np.full(m, float(x0))
    na = np.zeros(m, dtype=np.int64)
    idx = np.arange(m)
    censored = iterations = 0
    while xa.size:
        iterations += 1
        sig = np.asarray(params.sigma(xa), dtype=float)
        if not cfg.merge_far_steps:
            room = np.zeros(xa.size)
        elif exact:
            room = _merge_limit(xa / sig, ends)
        else:
            room = np.minimum(np.abs(xa), region.distance(xa)) / sig
        mm = np.clip(np.floor((room / 8.0) ** 2 / cfg.dt), 1, MAX_MERGE_STEPS)
        mm = np.minimum(mm.astype(np.int64), n_steps - na)
        if exact:
            xn = obm_step(xa, mm * cfg.dt, params, rng)
        else:
            xn = _euler_step(xa, sig, mm, cfg.dt, rng)
        na = na + mm
        stopped = np.asarray(region.contains(xn))
        expired = ~stopped & (na >= n_steps)
        finished = stopped | expired
        if np.any(finished):
            tau = na[finished] * cfg.dt
            pay[idx[finished]] = np.exp(-rate * tau) * np.asarray(
                reward.value(xn[finished]), dtype=float
            )
            censored += int(expired.sum())
        keep = ~finished
        xa, na, idx = xn[keep], na[keep], idx[keep]
    return pay, censored, iterations


def estimate_value(params: ObmParams, r, reward: Reward, region: Region,
                   x0: float, n_paths: int, config: Optional[McConfig] = None) -> McResult:
    """Monte Carlo value of the rule 'stop on first entry into region'.

    Discounted payoff e^{-r tau} g(X_tau) with tau detected at resolution
    dt; paths alive at the horizon contribute their discounted terminal
    reward and are counted in censored_frac.  Same seed, same result.
    """
    rate = as_rate(r)
    cfg = config or McConfig()
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    horizon = cfg.horizon if cfg.horizon is not None else 50.0 / rate
    n_steps = max(1, int(math.ceil(horizon / cfg.dt)))
    ss = np.random.SeedSequence(cfg.seed)
    n_batches = (n_paths + cfg.batch_size - 1) // cfg.batch_size
    children = ss.spawn(n_batches)
    payoffs = np.empty(n_paths)
    censored = iterations = 0
    pos = 0
    for b in range(n_batches):
        mb = min(cfg.batch_size, n_paths - pos)
        rng = np.random.Generator(np.random.Philox(children[b]))
        p, c, it = _run_batch(params, rate, reward, region, x0, mb, n_steps, cfg, rng)
        payoffs[pos:pos + mb] = p
        censored += c
        iterations += it
        pos += mb
    value = float(payoffs.mean())
    stderr = float(payoffs.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return McResult(value=value, stderr=stderr, n_paths=n_paths,
                    censored_frac=censored / n_paths,
                    horizon=n_steps * cfg.dt, dt=cfg.dt, seed=cfg.seed,
                    iterations=iterations)
