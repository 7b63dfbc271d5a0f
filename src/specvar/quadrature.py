"""Panel quadrature on one panel rule.

A panel interpolates its integrand at 25 Chebyshev points
(``chebyshev_panels``); ``clenshaw_curtis`` integrates the interpolant and
takes its Chebyshev tail as the error estimate.  ``integrate`` takes one
pass of that rule over the panels its caller cuts where the integrand is
smooth.  ``bisect_panels`` is the only adaptive loop, and it chooses panel
sets: once per density piece, the set from which ``fejer_variance`` reads
its Fejer integral at every n and, for an opaque piece, the panels of its
transforms; ``interpolant_moments`` integrates a panel's interpolant against
exp(i omega x) with no matrix product, which BLAS would round by its shape,
so each (omega, panel) cell is the same float in any batch.

``bisect_panels`` evaluates every panel once: a round evaluates only the two
children of each bisected panel (as QUADPACK's QAG does), which replace
their parent in edge order, so the result is bit for bit that of
re-evaluating every panel each round.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError

# relative roundoff floor of a quadrature sum: no estimate is asked to go
# below it, for the total or for a single panel
_ROUNDOFF = 64.0 * np.finfo(float).eps
# most bisection rounds of one panel set; a panel holding a jump halves each
# round, so 64 rounds take it far below any tolerance the package asks for
_MAX_ROUNDS = 64


def _chebyshev_rule(deg: int):
    """The points x_k = cos(k pi/deg) of [-1, 1], the DCT-I matrix that takes
    values there to Chebyshev coefficients (``values @ dct.T``), and the
    Clenshaw-Curtis weights on the coefficients, int T_j = 2/(1 - j**2)."""
    k = np.arange(deg + 1)
    dct = np.cos(np.pi * np.outer(k, k) / deg) * (2.0 / deg)
    dct[:, [0, deg]] *= 0.5
    dct[[0, deg]] *= 0.5
    cc = np.zeros(deg + 1)
    cc[::2] = 2.0 / (1.0 - k[::2] ** 2.0)
    return np.cos(np.pi * k / deg), dct, cc


# a Chebyshev panel interpolates at 25 Chebyshev points
_DEG = 24
_CHEB_X, _DCT, _CC = _chebyshev_rule(_DEG)
# the Clenshaw-Curtis weights at the points themselves
_CC_NODES = _CC @ _DCT
# the forward moment recurrence is stable from this frequency on; below it
# a panel's interpolant takes the 129-point Clenshaw-Curtis rule, exact to
# rounding on T_j(x) exp(i omega x) there
_RECURRENCE_MIN_OMEGA = 24.0
# panel budget of a Chebyshev panel set: enough to bisect a panel holding a
# jump down to the tolerance, and few enough to bound the memory
_CHEB_MAX_PANELS = 2 ** 12


def _panel_values(f, a, b):
    """The centres c and half-widths h of the panels [a[i], b[i]], and the
    values of f at their 25 Chebyshev points ``c + h _CHEB_X``, a row each."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = c[:, None] + h[:, None] * _CHEB_X
    return c, h, np.asarray(f(y.ravel()), dtype=float).reshape(y.shape)


def chebyshev_panels(f, a, b):
    """Interpolate f at the 25 Chebyshev points of each panel [a[i], b[i]].

    Returns the panels' centres c and half-widths h, the values of f at the
    points ``c + h _CHEB_X`` (one row per panel), their Chebyshev
    coefficients (``f(c + h x) = sum_j coef_j T_j(x)``) and each panel's
    error estimate, its Chebyshev tail (|c_23| + |c_24|) h, which estimates
    ``int |f - interpolant|`` over the panel.
    """
    c, h, values = _panel_values(f, a, b)
    coef = values @ _DCT.T
    return c, h, values, coef, h * (np.abs(coef[:, -2]) + np.abs(coef[:, -1]))


def clenshaw_curtis(f, a, b):
    """The panel rule that ``bisect_panels`` runs: each panel's 25-point
    Clenshaw-Curtis value and the Chebyshev-tail error estimate of
    ``chebyshev_panels``.  Both are sums along the panel's own row of
    values, not BLAS products, which round by the number of panels, so a
    panel is the same float in any batch.  The points include both ends of
    the panel."""
    _, h, values = _panel_values(f, a, b)
    tail = (np.abs((values * _DCT[-2]).sum(axis=1))
            + np.abs((values * _DCT[-1]).sum(axis=1)))
    return h * (values * _CC_NODES).sum(axis=1), h * tail


def _cheb_moments(w):
    """``int_{-1}^1 T_j(x) exp(i w x) dx`` for j = 0 .. _DEG, one row per
    w >= _RECURRENCE_MIN_OMEGA, by Piessens & Branders' forward recurrence.
    It runs on real rows, since the moments of even j are real and those of
    odd j imaginary, and divides as complex arithmetic divides by a real,
    through the reciprocal, so it gives the values of the recurrence in
    complex numbers bit for bit.
    """
    s, c = np.sin(w), np.cos(w)
    r = 1.0 / w
    # row j+1 = a_j row j + b_j row j-1 + e_j for j = 2 .. _DEG-1, with
    # exp(i w) - (-1)**j exp(-i w) = 2i sin w (j even) or 2 cos w (j odd);
    # an odd row holds imaginary parts, so i times it is minus its value
    j = np.arange(2.0, _DEG)[:, None]
    odd = j % 2.0 == 1.0
    a = np.where(odd, -2.0, 2.0) * (j + 1.0) * r
    b = ((j + 1.0) / (j - 1.0)).ravel().tolist()
    e = np.where(odd, -4.0 * s, 4.0 * c) * (1.0 / (w * (j - 1.0)))
    m = np.empty((_DEG + 1, len(w)))
    row = list(m)
    row[0][:] = 2.0 * s / w
    row[1][:] = 2.0 * (s - w * c) * (1.0 / (w * w))
    row[2][:] = row[0] - 4.0 * row[1] * r
    for k, (ak, bk, ek) in enumerate(zip(a, b, e)):
        np.multiply(ak, row[k + 2], out=row[k + 3])
        row[k + 3] += bk * row[k + 1]
        row[k + 3] += ek
    mu = np.zeros((len(w), _DEG + 1), dtype=complex)
    mu.real[:, 0::2] = m[0::2].T
    mu.imag[:, 1::2] = m[1::2].T
    return mu


@lru_cache(maxsize=1)
def _fine_rule():
    """The points x_k = cos(k pi/128) >= 0 of the 129-point Clenshaw-Curtis
    rule, and T_j(x_k) times twice its weight there (once at x = 0), row j."""
    x, dct, cc = _chebyshev_rule(128)
    w = 2.0 * (cc @ dct)[:65]
    w[64] *= 0.5
    return x[:65], np.cos(np.pi * np.outer(np.arange(_DEG + 1),
                                           np.arange(65)) / 128) * w


def fine_fold(coef):
    """Each panel's interpolant p = sum_j coef_j T_j at the points x of
    ``_fine_rule``, folded into rows A = w (p(x) + p(-x)) and B = w (p(x) -
    p(-x)) from p's even and odd terms, w the rule's weight (halved at 0)."""
    _, t = _fine_rule()
    return np.stack([coef[:, 0::2] @ t[0::2], coef[:, 1::2] @ t[1::2]], axis=1)


def interpolant_moments(omega, panel, coef, fold):
    """``sum_j coef_j mu_j(omega)``, the integral of a panel's interpolant p
    against exp(i omega x) on [-1, 1], per cell (omega >= 0, panel): from
    the moments of ``_cheb_moments`` from _RECURRENCE_MIN_OMEGA on, and
    below, ``sum A cos(omega x) + i sum B sin(omega x)`` from p's
    ``fine_fold``.  Elementwise work and sums along contiguous rows make
    each cell's value independent of the other cells."""
    out = np.empty(len(omega), dtype=complex)
    small = omega < _RECURRENCE_MIN_OMEGA
    out[~small] = (coef[panel[~small]]
                   * _cheb_moments(omega[~small])).sum(axis=1)
    wx = omega[small, None] * _fine_rule()[0]
    out.real[small] = (fold[panel[small], 0] * np.cos(wx)).sum(axis=1)
    out.imag[small] = (fold[panel[small], 1] * np.sin(wx)).sum(axis=1)
    return out


def bisect_panels(rule, edges, *, tol, max_panels):
    """Choose a panel set: from the panels between ``edges`` (increasing),
    bisect the ones whose estimates are too large until the total estimate
    meets ``tol`` or the roundoff floor of the total.

    rule: ``rule(a, b) -> (values, error_estimates)`` for the panels
        [a[i], b[i]], given as arrays.
    Returns ``(value, error_estimate, edges)``, the last the final panels'
    edges; raises NumericError with the achieved estimate when
    ``max_panels`` or the _MAX_ROUNDS rounds run out first.
    """
    # panel i is [edges[i], edges[i + 1]]; its value and estimate are kept
    # across rounds, and each round evaluates only the panels in `fresh`
    ik = np.empty(len(edges) - 1)
    err = np.empty_like(ik)
    fresh = np.arange(len(ik))
    for _ in range(_MAX_ROUNDS):
        ik[fresh], err[fresh] = rule(edges[fresh], edges[fresh + 1])
        total = float(ik.sum())
        total_err = float(err.sum())
        eff_tol = max(tol, _ROUNDOFF * abs(total))
        if total_err <= eff_tol:
            return total, total_err, edges
        if len(ik) >= max_panels:
            break
        # bisect every panel that carries more than its share of the error,
        # always including the worst one; a panel whose estimate is already
        # at the roundoff floor of its own value is not split, since halving
        # it cannot shrink noise and only adds panels
        share = eff_tol / (2.0 * len(ik))
        split = np.nonzero((err > share) & (err > _ROUNDOFF * np.abs(ik)))[0]
        if len(split) == 0:
            split = np.array([int(np.argmax(err))])
        mids = 0.5 * (edges[split] + edges[split + 1])
        # a panel between adjacent floats has no midpoint strictly inside
        inside = (mids > edges[split]) & (mids < edges[split + 1])
        split, mids = split[inside], mids[inside]
        if len(split) == 0:
            break
        # the children of a split panel take its place in edge order, so the
        # sums above add the same numbers in the same order as re-evaluating
        # every panel would
        edges = np.insert(edges, split + 1, mids)
        ik = np.insert(ik, split + 1, np.nan)
        err = np.insert(err, split + 1, np.nan)
        first = split + np.arange(len(split))
        fresh = np.column_stack([first, first + 1]).ravel()

    raise NumericError(
        f"quadrature on [{edges[0]}, {edges[-1]}] did not reach "
        f"tol={tol:.1e}", achieved=total_err)


def integrate(f, lo, hi, *, points=(), tol=1e-10):
    """Integrate ``f`` over ``[lo, hi]`` in one pass of ``clenshaw_curtis``
    over the panels between lo, hi and the breakpoints inside (lo, hi).

    points: breakpoints (oscillation zeros, knots) that cut [lo, hi] into
        panels on which f is smooth; values outside (lo, hi) are ignored.
    Returns ``(value, error_estimate)``; raises NumericError with the
    achieved estimate when it misses max(tol, the roundoff floor of the
    value), or when f or the sum is not finite.  The rule evaluates f at
    both ends of every panel, so f must be finite on [lo, hi].
    """
    lo = float(lo)
    hi = float(hi)
    if hi < lo:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
    if hi == lo:
        return 0.0, 0.0
    pts = np.asarray(points, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    edges = np.unique(np.concatenate([[lo, hi], pts]))
    with np.errstate(all="ignore"):  # inf and nan fail the check below
        ik, err = clenshaw_curtis(f, edges[:-1], edges[1:])
    total, total_err = float(ik.sum()), float(err.sum())
    if not (math.isfinite(total)
            and total_err <= max(tol, _ROUNDOFF * abs(total))):
        raise NumericError(
            f"quadrature on [{lo}, {hi}] did not reach tol={tol:.1e} on "
            f"{len(ik)} panels", achieved=total_err)
    return total, total_err
