"""Adaptive panel quadrature.

Panels are integrated with a vectorized Gauss-Kronrod 7/15 rule; panels whose
embedded error estimate is too large are bisected until the total estimate
meets the tolerance.  An integrable endpoint weight ``y**beta`` at ``lo == 0``
is handled by a Gauss-Jacobi rule on the leftmost panel so that adaptive
bisection never has to chase the singularity.

Every panel is evaluated once: a panel's value and estimate are kept across
rounds, and a round evaluates only the two children of each bisected panel
(as QUADPACK's QAG does).  The children replace their parent in edge order, so
the result is the same, bit for bit, as re-evaluating every panel each round.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, NumericError

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1].  The 7-point Gauss
# weights are zero-padded onto the Kronrod nodes so both rules share one
# function evaluation batch.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277,
    0.0, 0.381830050505119, 0.0, 0.417959183673469,
    0.0, 0.381830050505119, 0.0, 0.279705391489277,
    0.0, 0.129484966168870, 0.0,
])

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
    if edge_beta is not None:
        if lo != 0.0:
            raise DomainError("edge_beta requires lo == 0")
        full = lambda y: y ** edge_beta * f(y)  # noqa: E731
    else:
        full = f

    pts = np.asarray(points, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    edges = np.unique(np.concatenate([[lo, hi], pts]))

    # panel i is [edges[i], edges[i + 1]]; its value and estimate are kept
    # across rounds, and each round evaluates only the panels in `fresh`
    ik = np.empty(len(edges) - 1)
    err = np.empty_like(ik)
    fresh = np.arange(len(ik))
    for _ in range(max_rounds):
        if edge_beta is not None and fresh[0] == 0:
            ik[0], err[0] = _jacobi_edge(f, edge_beta, edges[1])
            fresh = fresh[1:]
        if len(fresh):
            ik[fresh], err[fresh] = _gk_batch(full, edges[fresh],
                                              edges[fresh + 1])
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
        f"quadrature on [{lo}, {hi}] did not reach tol={tol:.1e}",
        achieved=total_err)
