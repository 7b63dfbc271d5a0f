"""Special functions used by the spectral routines.

* the oscillatory power moments ``int_0^x u**p cos(u) du`` and the sine
  analogue, evaluated by their Taylor series for ``x <= 1``, by the series
  at 1 plus one quadrature pass cut at pi/2 multiples for moderate ``x``
  and by constant-minus-asymptotic-tail for large ``x``: closed-form
  cosine transforms of power-law densities at any frequency,
* sin and cos of an angle given as a TwoProduct pair (``sin_cos``),
* the improper integral ``int_0^inf sin(y)**2 / y**(1+gamma) dy``.

Near the origin each integrand is a power times a power series (DLMF 4.19),
so its singular head on [0, 1] is a sum of powers' integrals and no
quadrature rule has to resolve the singularity.  Above 1 both integrals
take ``quadrature.integrate``, whose 25-point Chebyshev panels are the rule
the Fejer route's panel sets use.  So the covariance route's power moments
share that rule but not its assembly: they take one pass over panels cut at
the multiples of pi/2, while a Fejer row reads a piece's fixed panel set
through ``interpolant_moments``.  C1, the agreement of the two routes, keeps
its tolerance.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_float
from .quadrature import integrate

# below this the base moments are computed by quadrature, above by the
# asymptotic tail series (which needs x somewhat larger than |exponent|)
_ASYMPTOTIC_CUT = 45.0
# up to this endpoint the integrals are taken from their Taylor series
_SERIES_CUT = 1.0
# sin_sq_moment's oscillating part is summed by parts beyond this point
_SIN_SQ_TAIL = 64.0
# terms of the series; at the cut the first one left out is below 1e-26 of
# the sum, also for sin(y)**2, whose series runs in 2y
_SERIES_TERMS = 16
_M2 = 2.0 * np.arange(_SERIES_TERMS)  # 2m
_SIGN = np.where(_M2 % 4.0 == 0.0, 1.0, -1.0)  # (-1)**m
_INV_FACT = np.array([1.0 / math.factorial(k)
                      for k in range(2 * _SERIES_TERMS + 1)])


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


def _series_pair(p: float, x):
    """Both moments for p > -1 and 0 <= x <= _SERIES_CUT from the Taylor
    series of cos and sin: the sums over m of (-1)**m x**(p+2m+1) /
    ((2m)! (p+2m+1)) and (-1)**m x**(p+2m+2) / ((2m+1)! (p+2m+2)), each
    taken by Horner's rule in x**2."""
    a = _SIGN * _INV_FACT[0:-1:2] / (p + _M2 + 1.0)
    b = _SIGN * _INV_FACT[1::2] / (p + _M2 + 2.0)
    x2 = x * x
    c = np.zeros_like(x)
    s = np.zeros_like(x)
    for am, bm in zip(a[::-1], b[::-1]):
        c = c * x2 + am
        s = s * x2 + bm
    xp = x ** (p + 1.0)
    return xp * c, xp * x * s


@lru_cache(maxsize=4096)
def _base_pair_small(mu: float, x: float):
    """Base moments at exponent mu in (-1, 0) for one x below the asymptotic
    cut: the series on [0, min(x, _SERIES_CUT)] and, above, one
    ``integrate`` pass over panels cut at the multiples of pi/2.

    Memoized: the points ``k * hi`` below the cut depend on the density piece
    only, so every n of a scan asks for the same few again.
    """
    c, s = (float(v[0]) for v in
            _series_pair(mu, np.array([min(x, _SERIES_CUT)])))
    if x > _SERIES_CUT:
        cuts = np.arange(1, int(2.0 * x / math.pi) + 2) * (math.pi / 2.0)
        c += integrate(lambda u: u ** mu * np.cos(u), _SERIES_CUT, x,
                       points=cuts, tol=1e-13)[0]
        s += integrate(lambda u: u ** mu * np.sin(u), _SERIES_CUT, x,
                       points=cuts, tol=1e-13)[0]
    return c, s


def trig_power_moments(p: float, x, x_lo=0.0):
    """``(int_0^x u**p cos u du, int_0^x u**p sin u du)`` for p > -1.

    ``x`` may be an array; both moments are returned with matching shape.
    The endpoint is ``x + x_lo`` when the low part ``x_lo`` of a TwoProduct
    pair is given: sines and cosines then take the exact angle, which keeps
    the moments' absolute error near 1e-16 relative to x**p even where x is
    large.  Up to x = 1 the moments are the Taylor series at p itself;
    above, the base moments at mu = p - ceil(p) are raised to p by parts,
    which would cancel at small x.
    """
    p = check_float(p, "moment exponent", above=-1.0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise DomainError("moment endpoint must be nonnegative")
    sx, cx = sin_cos(x, x_lo)
    far = x > _SERIES_CUT
    d = int(math.ceil(p)) if p > 0 else 0
    mu = p - d
    if mu == -1.0:  # p below 2**-53: u**p is 1 to rounding
        d, mu = 0, 0.0
    if mu == 0.0:
        c, s = sx.copy(), 1.0 - cx  # c is written below, where sx is read
    else:
        c = np.zeros_like(x)
        s = np.zeros_like(x)
        big = x >= _ASYMPTOTIC_CUT
        if big.any():
            tc, ts = _tail_pair(mu, x[big], sx[big], cx[big])
            gam = math.gamma(mu + 1.0)
            c[big] = gam * math.cos(math.pi * (mu + 1.0) / 2.0) - tc
            s[big] = gam * math.sin(math.pi * (mu + 1.0) / 2.0) - ts
        for i in np.nonzero(far & ~big)[0]:
            c[i], s[i] = _base_pair_small(mu, float(x[i]))

    # raise the exponent back up from mu to p
    q = mu
    for _ in range(d):
        q += 1.0
        xq = x ** q
        c, s = xq * sx - q * s, -xq * cx + q * c
    near = ~far & (x > 0.0)
    if near.any():
        c[near], s[near] = _series_pair(p, x[near])
        # the low part of the endpoint, to first order
        dx = np.broadcast_to(x_lo, x.shape)[near] * x[near] ** p
        c[near] += dx * cx[near]
        s[near] += dx * sx[near]
    return c, s


def sin_sq_moment(gamma: float) -> float:
    """``int_0^inf sin(y)**2 / y**(1+gamma) dy`` for gamma in (0, 2).

    On [0, 1] the Taylor series of sin(y)**2 = (1 - cos 2y) / 2 integrates
    term by term: the sum over m >= 1 of (-1)**(m+1) 2**(2m-1) / ((2m)!
    (2m - gamma)).  Above 1 the same identity splits the integral into its
    mean, 1 / (2 gamma), and ``-2**(gamma-1) int_2^inf cos(u) u**(-1-gamma)
    du``: one ``integrate`` pass on [2, _SIN_SQ_TAIL] at the multiples of
    pi/2 and, beyond, ``_tail_pair``.  At nine gamma from 0.01 to 1.99 the
    sum is within 4e-16 relative of the closed form -2**(gamma-1)
    Gamma(-gamma) cos(pi gamma/2), which it never uses.
    """
    gamma = check_float(gamma, "gamma", above=0.0, below=2.0)
    series = math.fsum(_SIGN * 2.0 ** (_M2 + 1.0) * _INV_FACT[2::2]
                       / (_M2 + 2.0 - gamma))
    q = -1.0 - gamma
    cuts = np.arange(1, int(2.0 * _SIN_SQ_TAIL / math.pi) + 1) * (math.pi / 2.0)
    mid, _ = integrate(lambda u: u ** q * np.cos(u), 2.0, _SIN_SQ_TAIL,
                       points=cuts, tol=1e-15)
    x_cut = np.array([_SIN_SQ_TAIL])
    tc, _ = _tail_pair(q, x_cut, *sin_cos(x_cut))
    return series + 0.5 / gamma - 2.0 ** (gamma - 1.0) * (mid + float(tc[0]))
