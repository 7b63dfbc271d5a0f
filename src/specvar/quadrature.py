"""Adaptive panel quadrature.

``bisect_panels`` is the adaptive loop: given a panel rule, it bisects the
panels whose error estimates are too large until the total estimate meets the
tolerance.  ``integrate`` runs it with a vectorized Gauss-Kronrod 7/15 rule;
an integrable endpoint weight ``y**beta`` at ``lo == 0`` is handled by a
Gauss-Jacobi rule on the leftmost panel so that adaptive bisection never has
to chase the singularity.  ``fejer_variance`` runs the same loop with a
Filon-Clenshaw-Curtis rule on the Fejer kernel's tail.

Every panel is evaluated once: a panel's value and estimate are kept across
rounds, and a round evaluates only the two children of each bisected panel
(as QUADPACK's QAG does).  The children replace their parent in edge order, so
the result is the same, bit for bit, as re-evaluating every panel each round.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, NumericError

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1], QUADPACK qk15's
# 33-digit values (float64 rounds each once).  The 7-point Gauss weights are
# zero-padded onto the Kronrod nodes so both rules share one function
# evaluation batch.
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_MID = 0.417959183673469387755102040816327

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_MID], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF
_WG[7] = _WG_MID
_WG[9:15:2] = _WG_HALF[::-1]

# relative roundoff floor of a quadrature sum: no estimate is asked to go
# below it, for the total or for a single panel
_ROUNDOFF = 64.0 * np.finfo(float).eps


def _gk_batch(f, lo, hi):
    """Kronrod values and |K - G| error estimates for a batch of panels."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y = c[:, None] + h[:, None] * _XK[None, :]
    fy = np.asarray(f(y.ravel()), dtype=float).reshape(y.shape)
    ik = h * (fy * _WK[None, :]).sum(axis=1)
    ig = h * (fy * _WG[None, :]).sum(axis=1)
    return ik, np.abs(ik - ig)


@lru_cache(maxsize=256)
def _jacobi_rule(npts: int, beta: float):
    # weight (1 + x)**beta on [-1, 1]
    x, w = roots_jacobi(npts, 0.0, beta)
    return x, w


def _jacobi_edge(g, beta, b):
    """``int_0^b y**beta * g(y) dy`` with smooth ``g``; value and error estimate.

    The error estimate compares the 15- and 31-point rules.
    """
    vals = []
    for npts in (15, 31):
        x, w = _jacobi_rule(npts, float(beta))
        y = b * (x + 1.0) / 2.0
        gy = np.asarray(g(y), dtype=float)
        vals.append((b / 2.0) ** (beta + 1.0) * float((w * gy).sum()))
    return vals[1], abs(vals[1] - vals[0])


def bisect_panels(rule, edges, *, tol, max_panels, max_rounds):
    """Integrate over the panels between ``edges`` (increasing), bisecting
    the ones whose estimates are too large until the total estimate meets
    ``tol`` or the roundoff floor of the total.

    rule: ``rule(a, b) -> (values, error_estimates)`` for the panels
        [a[i], b[i]], given as arrays.
    Returns ``(value, error_estimate)``; raises NumericError with the
    achieved estimate when ``max_panels`` or ``max_rounds`` runs out first.
    """
    # panel i is [edges[i], edges[i + 1]]; its value and estimate are kept
    # across rounds, and each round evaluates only the panels in `fresh`
    ik = np.empty(len(edges) - 1)
    err = np.empty_like(ik)
    fresh = np.arange(len(ik))
    for _ in range(max_rounds):
        ik[fresh], err[fresh] = rule(edges[fresh], edges[fresh + 1])
        total = float(ik.sum())
        total_err = float(err.sum())
        eff_tol = max(tol, _ROUNDOFF * abs(total))
        if total_err <= eff_tol:
            return total, total_err
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


def integrate(f, lo, hi, *, points=(), tol=1e-10, edge_beta=None,
              max_panels=200_000, max_rounds=30):
    """Integrate ``f`` over ``[lo, hi]`` with breakpoint-seeded adaptivity.

    points: interior breakpoints (oscillation zeros, knots); values outside
        (lo, hi) are ignored.
    edge_beta: when given, the full integrand is ``y**edge_beta * f(y)`` with
        ``lo == 0`` and ``f`` smooth; the leftmost panel then uses the
        Gauss-Jacobi edge rule.
    Returns ``(value, error_estimate)``; raises NumericError if the estimate
    cannot be pushed below the effective tolerance within the panel budget.
    """
    lo = float(lo)
    hi = float(hi)
    if hi < lo:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
    if hi == lo:
        return 0.0, 0.0
    if edge_beta is None:
        rule = partial(_gk_batch, f)
    elif lo != 0.0:
        raise DomainError("edge_beta requires lo == 0")
    else:
        full = lambda y: y ** edge_beta * f(y)  # noqa: E731

        def rule(a, b):
            if a[0] != 0.0:
                return _gk_batch(full, a, b)
            # the edge panel [0, b[0]] takes the Gauss-Jacobi rule
            ik0, err0 = _jacobi_edge(f, edge_beta, b[0])
            if len(a) == 1:
                return ik0, err0
            ik, err = _gk_batch(full, a[1:], b[1:])
            return np.concatenate(([ik0], ik)), np.concatenate(([err0], err))

    pts = np.asarray(points, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    edges = np.unique(np.concatenate([[lo, hi], pts]))
    return bisect_panels(rule, edges, tol=tol, max_panels=max_panels,
                         max_rounds=max_rounds)
