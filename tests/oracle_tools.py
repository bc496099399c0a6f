"""Independent numerical oracles for freezing expected values.

Nothing here reuses the package's closed forms: the fundamental pair comes
from direct ODE integration, rewards are re-declared from their defining
formulas, roots come from dense sign scans refined by plain bisection.
Tests compare package output against these routines or against literals
frozen from them.
"""

import numpy as np
from scipy.integrate import solve_ivp


def ode_fundamental_pair(sigma1, sigma2, r, span=18.0):
    """Fundamental pair by integrating u'' = (2r / sigma(x)^2) u.

    The increasing solution is produced by integrating rightward from
    x = -span with an arbitrary positive seed: the increasing mode dominates
    and the seed's decreasing-mode contamination decays like
    exp(-2 lambda1 (x + span)).  The decreasing solution is the mirror
    image, integrated leftward from +span.  Both are normalized to 1 at 0.

    Returns (psi, psi_d, phi, phi_d): vectorized callables on [-span, span].
    """
    def rhs_left(_x, u):
        return [u[1], (2.0 * r / sigma1**2) * u[0]]

    def rhs_right(_x, u):
        return [u[1], (2.0 * r / sigma2**2) * u[0]]

    opt = dict(method="DOP853", rtol=1e-13, atol=1e-280, dense_output=True)

    # increasing solution: seed at -span, integrate right in two legs so the
    # coefficient jump at 0 never sits inside a step
    inc_l = solve_ivp(rhs_left, (-span, 0.0), [1.0, 1.0], **opt)
    inc_r = solve_ivp(rhs_right, (0.0, span), inc_l.y[:, -1], **opt)
    inc_scale = inc_l.y[0, -1]

    dec_r = solve_ivp(rhs_right, (span, 0.0), [1.0, -1.0], **opt)
    dec_l = solve_ivp(rhs_left, (0.0, -span), dec_r.y[:, -1], **opt)
    dec_scale = dec_r.y[0, -1]

    def eval_pair(sol_l, sol_r, scale, comp):
        def f(x):
            xs = np.asarray(x, dtype=float)
            out = np.where(xs < 0.0,
                           sol_l.sol(np.minimum(xs, 0.0))[comp],
                           sol_r.sol(np.maximum(xs, 0.0))[comp])
            return out / scale
        return f

    psi = eval_pair(inc_l, inc_r, inc_scale, 0)
    psi_d = eval_pair(inc_l, inc_r, inc_scale, 1)
    phi = eval_pair(dec_l, dec_r, dec_scale, 0)
    phi_d = eval_pair(dec_l, dec_r, dec_scale, 1)
    return psi, psi_d, phi, phi_d


# rewards, re-declared from their defining formulas

def quad_value(x):
    return np.maximum(1.0 + np.asarray(x, dtype=float), 0.0) ** 2


def quad_slope(x):
    xs = np.asarray(x, dtype=float)
    return np.where(xs > -1.0, 2.0 * (1.0 + xs), 0.0)


def linear_value(x):
    return np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)


def linear_slope(x):
    xs = np.asarray(x, dtype=float)
    return np.where(xs > -1.0, 1.0, 0.0)


def skew_value(beta, x):
    xs = np.asarray(x, dtype=float)
    return np.where(xs < 0.0,
                    np.maximum(1.0 + 2.0 * (1.0 - beta) * xs, 0.0),
                    1.0 + 2.0 * beta * xs)


def threshold_function(sigma1, sigma2, r, g, g_d, span=18.0):
    """x -> psi'(x) g(x) - psi(x) g'(x) with the ODE-integrated pair."""
    psi, psi_d, _phi, _phi_d = ode_fundamental_pair(sigma1, sigma2, r, span)

    def f(x):
        return psi_d(x) * g(x) - psi(x) * g_d(x)

    return f


def sign_scan(f, lo, hi, spacing=1e-5):
    """Sign-change brackets of f on [lo, hi] at the given grid spacing.

    Returns a list of (a, b) with f(a) and f(b) of strict opposite sign.
    A zero hit exactly on a grid node counts as one change.
    """
    n = int(np.ceil((hi - lo) / spacing)) + 1
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    sgn = np.sign(ys)
    # fold exact zeros into the following sign so each counts once
    for i in range(len(sgn)):
        if sgn[i] == 0.0:
            sgn[i] = sgn[i + 1] if i + 1 < len(sgn) else sgn[i - 1]
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0.0)[0]
    return [(float(xs[i]), float(xs[i + 1])) for i in idx]


def bisect_root(f, a, b, tol=1e-13, max_iter=200):
    """Plain bisection; requires a strict sign change on [a, b]."""
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = float(f(m))
        if fm == 0.0 or (b - a) < tol:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def chain_step_moments(x_node, h, sigma1, sigma2):
    """(mean increment, variance) of one move of the symmetric chain at a node.

    The chain jumps to x +- h with probability 1/2 each after a hold of
    dt = h^2 / sigma(x)^2 (harmonic average of the two one-sided clocks at
    the interface node), so the increment has mean 0 and variance h^2 and
    the diffusion rate is variance / dt = sigma(x)^2 away from 0.
    """
    if x_node < 0.0:
        dt = h**2 / sigma1**2
    elif x_node > 0.0:
        dt = h**2 / sigma2**2
    else:
        dt = 0.5 * h**2 * (1.0 / sigma1**2 + 1.0 / sigma2**2)
    return 0.0, h**2, dt


def critical_rate(sigma1, sigma2, r_lo, r_hi, x_hi=3.0, spacing=1e-5, span=18.0):
    """Rate in [r_lo, r_hi] where the quadratic-reward region disconnects.

    At a trial rate the two local maxima of g/psi sit at the smallest and
    the largest root of G_- = psi' g - psi g' (ODE-integrated psi, roots on
    (-1, x_hi] from a sign scan refined by bisection).  Their difference is
    negative while the one-sided region is optimal and positive once the
    left maximum wins; a rate with no positive root counts as positive.
    The critical rate is the bisection root of that difference in r.
    """
    def gap(r):
        psi, psi_d, _phi, _phi_d = ode_fundamental_pair(sigma1, sigma2, r, span)

        def g_minus(x):
            return psi_d(x) * quad_value(x) - psi(x) * quad_slope(x)

        roots = [bisect_root(g_minus, a, b)
                 for a, b in sign_scan(g_minus, -1.0 + spacing, x_hi, spacing)]
        if roots[-1] <= 0.0:
            return 1.0
        c1, c = roots[0], roots[-1]
        return float(quad_value(c1) / psi(c1) - quad_value(c) / psi(c))

    return bisect_root(gap, r_lo, r_hi)
