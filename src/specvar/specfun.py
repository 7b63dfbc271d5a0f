"""Special functions used by the spectral routines.

* the gamma function on x > 0 (``math.gamma`` behind a domain check),
* the oscillatory power moments ``int_0^x u**p cos(u) du`` and the sine
  analogue, evaluated by direct quadrature for small ``x`` and by
  constant-minus-asymptotic-tail for large ``x``.  These give closed-form
  cosine transforms of power-law densities for arbitrarily large frequency,
* sin and cos of an angle given as a TwoProduct pair (``sin_cos``),
* the improper integral ``int_0^inf sin(y)**2 / y**(1+gamma) dy``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .quadrature import integrate

# below this the base moments are computed by quadrature, above by the
# asymptotic tail series (which needs x somewhat larger than |exponent|)
_ASYMPTOTIC_CUT = 45.0


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x > 0 (``math.gamma``, checked domain)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def sin_cos(x, x_lo=0.0):
    """sin and cos of the angle x + x_lo, with |x_lo| at most an ulp of x
    (a TwoProduct pair), to first order in x_lo."""
    sx, cx = np.sin(x), np.cos(x)
    return sx + x_lo * cx, cx - x_lo * sx


def _tail_pair(q: float, x: np.ndarray, sx, cx):
    """``int_x^inf u**q {cos,sin}(u) du`` for scalar q < 0 and large x,
    given sx = sin x and cx = cos x.

    Repeated integration by parts; terms shrink like (|q|+2i)/x per step, so
    for x >= _ASYMPTOTIC_CUT and |q| <= 3 the series bottoms out well below
    1e-16 absolute.
    """
    tc = np.zeros_like(x)
    ts = np.zeros_like(x)
    coef = 1.0
    e = q
    xmin = float(np.min(x))
    for i in range(40):
        sgn = -1.0 if i % 2 == 0 else 1.0
        xe = x ** e
        xe1 = x ** (e - 1.0)
        tc += sgn * coef * (xe * sx + e * xe1 * cx)
        ts -= sgn * coef * (xe * cx - e * xe1 * sx)
        nxt = coef * e * (e - 1.0)
        if abs(nxt) * xmin ** (e - 2.0) * 2.0 < 1e-19:
            break
        coef = nxt
        e -= 2.0
    return tc, ts


@lru_cache(maxsize=4096)
def _base_pair_small(mu: float, x: float):
    """Base moments at exponent mu in (-1, 0) for one x below the cut.

    Memoized: the points ``k * hi`` below the cut depend on the density piece
    only, so every n of a scan asks for the same few again.
    """
    cuts = np.arange(1, int(2.0 * x / math.pi) + 2) * (math.pi / 2.0)
    c, _ = integrate(np.cos, 0.0, x, points=cuts, tol=1e-13, edge_beta=mu)
    s, _ = integrate(np.sin, 0.0, x, points=cuts, tol=1e-13, edge_beta=mu)
    return c, s


def trig_power_moments(p: float, x, x_lo=0.0):
    """``(int_0^x u**p cos u du, int_0^x u**p sin u du)`` for p > -1.

    ``x`` may be an array; both moments are returned with matching shape.
    The endpoint is ``x + x_lo`` when the low part ``x_lo`` of a TwoProduct
    pair is given: sines and cosines then take the exact angle, which keeps
    the moments' absolute error near 1e-16 relative to x**p even where x is
    large.
    """
    p = float(p)
    if not p > -1.0:
        raise DomainError(f"moment exponent must exceed -1, got {p}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise DomainError("moment endpoint must be nonnegative")
    d = int(math.ceil(p)) if p > 0 else 0
    mu = p - d

    c = np.zeros_like(x)
    s = np.zeros_like(x)
    pos = x > 0.0
    sx, cx = sin_cos(x, x_lo)
    if mu == 0.0:
        c[pos] = sx[pos]
        s[pos] = 1.0 - cx[pos]
    else:
        big = pos & (x >= _ASYMPTOTIC_CUT)
        small = pos & ~big
        if big.any():
            tc, ts = _tail_pair(mu, x[big], sx[big], cx[big])
            gam = gamma_fn(mu + 1.0)
            c[big] = gam * math.cos(math.pi * (mu + 1.0) / 2.0) - tc
            s[big] = gam * math.sin(math.pi * (mu + 1.0) / 2.0) - ts
        for i in np.nonzero(small)[0]:
            c[i], s[i] = _base_pair_small(mu, float(x[i]))

    # raise the exponent back up from mu to p
    q = mu
    for _ in range(d):
        q += 1.0
        xq = np.where(pos, x, 1.0) ** q
        c_new = xq * sx - q * s
        s_new = -xq * cx + q * c
        c, s = c_new, s_new
    c[~pos] = 0.0
    s[~pos] = 0.0
    return c, s


def sin_sq_moment(gamma: float) -> float:
    """``int_0^inf sin(y)**2 / y**(1+gamma) dy`` for gamma in (0, 2).

    The integrand is y**(1-gamma) * (sin y / y)**2 near the origin (Jacobi
    edge rule), Gauss-Kronrod panels per half-oscillation up to Y ~ 1e4, and
    beyond Y the exact mean ``Y**-gamma / (2 gamma)`` minus the oscillatory
    remainder ``(1/2) int_Y^inf cos(2y) y**(-1-gamma) dy`` summed by parts.
    A raw ``sin**2 <= 1`` truncation cannot reach usable accuracy at any
    feasible Y for small gamma, which is why the tail is split this way.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must lie in (0, 2), got {gamma}")
    beta = 1.0 - gamma
    head, _ = integrate(lambda y: (np.sin(y) / y) ** 2, 0.0, math.pi,
                        tol=1e-14, edge_beta=beta)
    n_panels = 3183  # Y = n_panels * pi ~ 1e4
    edges = np.arange(1, n_panels + 1) * math.pi
    mid, _ = integrate(lambda y: np.sin(y) ** 2 * y ** (-1.0 - gamma),
                       edges[0], edges[-1], points=edges[1:-1], tol=1e-13)
    y_cut = float(edges[-1])
    tail_mean = y_cut ** (-gamma) / (2.0 * gamma)
    x_cut = np.array([2.0 * y_cut])
    tc, _ = _tail_pair(-1.0 - gamma, x_cut, *sin_cos(x_cut))
    tail_osc = 0.5 * 2.0 ** gamma * float(tc[0])
    return head + mid + tail_mean - tail_osc
