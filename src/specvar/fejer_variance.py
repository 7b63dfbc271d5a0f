"""Variance of partial sums from a spectral measure, by two routes.

The spectral route integrates the Fejer kernel ``I_n(y) = sin(ny/2)**2 /
sin(y/2)**2`` against the folded measure:  ``Var(S_n) = int_[0,pi] I_n dG``.
Atoms are summed in double-double and rounded once.  A density piece is
integrated in two parts, at a cost of O(log n) for every n < 2**63: its
head, the part of (0, 32 pi/n], on Gauss-Kronrod panels over the half-arcs
of I_n (with a Gauss-Jacobi rule at a singular origin), and its tail on
dyadic panels [a, 2a] (broken at a table's grid points) by Filon-Clenshaw-
Curtis: with ``I_n = (1 - cos ny) / (2 sin(y/2)**2)``, the smooth factor
``g = density / (2 sin(y/2)**2)`` is interpolated at 25 Chebyshev points per
panel and ``g cos(ny)`` is integrated through the modified moments
``int T_j(x) exp(i omega x) dx`` (QUADPACK QAWO's method; Piessens et al.
1983, error bounds in Dominguez, Graham & Smyshlyaev 2011).  Tail panels
whose estimates miss the tolerance are bisected by the same loop
(``quadrature.bisect_panels``) that refines the head's panels.

The covariance route assembles the same quantity from autocovariances,
``Var(S_n) = n r_0 + 2 sum_{k<n} (n-k) r_k``, and serves as an independent
cross-check at every n; on atoms it sums the lags per atom, also in
double-double, so the two routes return the same float there.

``sandwich`` evaluates the two-sided bracket

    (4/pi^2) n^2 G(1/n)  <=  Var(S_n)
      <=  G(pi) + (pi^2/4) n^2 G(A/n) + pi^2 int_{A/n}^pi G(y) y^-3 dy

valid for any 0 < A <= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, NumericError, ValidationError, check_int
from .quadrature import bisect_panels, integrate
from .spectral_measure import (PI, SpectralMeasure, atom_covariance_sums,
                               atom_fejer_sums, g_eval)

# no longer read here; the benchmark workloads (perfbench/workloads.py)
# still import it
KERNEL_QUAD_MAX_N = 2 ** 14

# A density piece's part of (0, _HEAD_ARCS pi/n] is integrated over the
# half-arcs of I_n (the head), the rest on dyadic Chebyshev panels (the tail)
_HEAD_ARCS = 32


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


# a tail panel interpolates g at 25 Chebyshev points
_DEG = 24
_CHEB_X, _DCT, _CC = _chebyshev_rule(_DEG)
# the forward moment recurrence is stable from this frequency on; below it
# the moments come from a 129-point Clenshaw-Curtis rule, exact to rounding
# on T_j(x) exp(i omega x) there
_RECURRENCE_MIN_OMEGA = 24.0
_FINE_X, _dct, _cc = _chebyshev_rule(128)
_FINE_T = (np.cos(np.pi * np.outer(np.arange(129), np.arange(_DEG + 1)) / 128)
           * (_cc @ _dct)[:, None])  # weight times T_j(x_k), column j
# bisection budget of a piece's tail: enough rounds to take a panel holding
# a jump down to the tolerance, and few enough panels to bound the memory
_TAIL_MAX_PANELS = 2 ** 12
_TAIL_MAX_ROUNDS = 64


@dataclass(frozen=True)
class BoundsReport:
    """One row of the variance bracket: lower <= variance <= upper."""

    n: int
    A: float
    lower: float
    variance: float
    upper: float

    @staticmethod
    def rows_to_csv(rows) -> str:
        lines = ["n,lower,variance,upper"]
        for r in rows:
            lines.append(f"{r.n},{r.lower!r},{r.variance!r},{r.upper!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def rows_from_csv(cls, text: str, A: float):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "n,lower,variance,upper":
            raise ValidationError("not a bounds CSV: bad header")
        rows = []
        for ln in lines[1:]:
            n, lower, variance, upper = ln.split(",")
            rows.append(cls(n=int(n), A=A, lower=float(lower),
                            variance=float(variance), upper=float(upper)))
        return rows


def _kernel_raw(n: int, y: np.ndarray) -> np.ndarray:
    """Fejer kernel values without domain checks; y is an ndarray."""
    out = np.empty_like(y)
    tiny = np.abs(y) < 1e-6 / n
    # series for the removable singularity; relative error below 1e-12 there
    out[tiny] = n * n * (1.0 - (n * n - 1.0) * y[tiny] ** 2 / 12.0)
    rest = ~tiny
    yr = y[rest]
    out[rest] = (np.sin(n * yr / 2.0) / np.sin(yr / 2.0)) ** 2
    return out


def fejer_kernel(n: int, y):
    """``I_n(y) = sin(ny/2)**2 / sin(y/2)**2`` on [0, pi], ``I_n(0) = n**2``."""
    n = check_int(n, "n", 1)
    scalar = np.isscalar(y) or np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all((y >= 0.0) & (y <= PI)):  # also rejects NaN
        raise DomainError("fejer_kernel argument must lie in [0, pi]")
    out = _kernel_raw(n, y)
    return float(out[0]) if scalar else out


def _kernel_breakpoints(n: int, lo: float, hi: float) -> np.ndarray:
    """Half-arc edges of I_n (multiples of pi/n) inside (lo, hi)."""
    j0 = int(math.floor(lo * n / PI)) + 1
    j1 = int(math.ceil(hi * n / PI)) - 1
    if j1 < j0:
        return np.empty(0)
    return np.arange(j0, j1 + 1) * (PI / n)


def _cheb_moments(omega):
    """``int_{-1}^1 T_j(x) exp(i omega x) dx`` for j = 0 .. _DEG, one row per
    omega >= 0 (Piessens & Branders' forward recurrence)."""
    mu = np.empty((len(omega), _DEG + 1), dtype=complex)
    small = omega < _RECURRENCE_MIN_OMEGA
    mu[small] = np.exp(1j * np.outer(omega[small], _FINE_X)) @ _FINE_T
    w = omega[~small]
    s, c = np.sin(w), np.cos(w)
    m = mu[~small]
    m[:, 0] = 2.0 * s / w
    m[:, 1] = 2j * (s - w * c) / w ** 2
    m[:, 2] = m[:, 0] + 4j * m[:, 1] / w
    # exp(i w) - (-1)**j exp(-i w) is 2i sin w for even j, 2 cos w for odd j
    edge = (2j * s, 2.0 * c)
    for j in range(2, _DEG):
        m[:, j + 1] = ((2j * (j + 1) / w) * m[:, j]
                       + ((j + 1) / (j - 1)) * m[:, j - 1]
                       + 2j * edge[(j + 1) % 2] / (w * (j - 1)))
    mu[~small] = m
    return mu


def _tail_edges(piece, start):
    """Dyadic panel edges start, 2 start, 4 start, .. up to piece.hi, broken
    at a table's grid points."""
    doublings = math.ceil(math.log2(piece.hi / start))
    edges = start * 2.0 ** np.arange(doublings + 1)
    knots = np.asarray(getattr(piece, "ys", ()), dtype=float)
    inner = np.concatenate([edges, knots[knots > start]])
    return np.unique(np.append(inner[inner < piece.hi], piece.hi))


def _fcc_panels(density, n: float, a, b):
    """Values and error estimates of ``int density I_n`` on the panels
    [a[i], b[i]] by Filon-Clenshaw-Curtis.

    With ``g = density / (2 sin(y/2)**2)`` the integrand is
    ``g (1 - cos ny)``.  On each panel g is interpolated at 25 Chebyshev
    points; ``int g`` takes Clenshaw-Curtis weights and ``int g cos(ny)``
    the modified moments at omega = n h (h the half-width), so a panel costs
    the same at any n.  The phase n c of the panel centre c is a plain float
    product: its error eps n c multiplies an oscillatory part of size
    g(c)/n.  A panel's error estimate is its Chebyshev tail
    (|c_23| + |c_24|) h.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = c[:, None] + h[:, None] * _CHEB_X
    f = density(y.ravel()).reshape(y.shape)
    g = f / (2.0 * np.sin(0.5 * y) ** 2)
    coef = g @ _DCT.T
    flat = h * (coef @ _CC)
    osc = h * (np.exp(1j * (n * c))
               * (coef * _cheb_moments(n * h)).sum(axis=1)).real
    return flat - osc, h * (np.abs(coef[:, -2]) + np.abs(coef[:, -1]))


def _piece_variance(piece, n: int, tol: float) -> float:
    """``int density I_n`` for one density piece: head plus tail."""
    cut = _HEAD_ARCS * PI / n
    total = 0.0
    if piece.lo < cut:
        hi = min(cut, piece.hi)
        total += piece.integrate_against(
            lambda y: _kernel_raw(n, y),
            points=_kernel_breakpoints(n, piece.lo, hi), tol=0.5 * tol,
            max_panels=4 * _HEAD_ARCS + 64, hi=hi)
    if piece.hi > cut:
        # dyadic tail panels; one whose estimate is too large (a density not
        # smooth inside it) is bisected, as QUADPACK's QAWO does
        tail = partial(_fcc_panels, piece.formula, float(n))
        total += bisect_panels(tail, _tail_edges(piece, max(cut, piece.lo)),
                               tol=0.5 * tol, max_panels=_TAIL_MAX_PANELS,
                               max_rounds=_TAIL_MAX_ROUNDS)[0]
    return total


def _piece_variance_covariance(piece, n: int, tol: float) -> float:
    k = np.arange(1, n)
    c = piece.cos_transform(k, tol=tol)
    return n * piece.mass + 2.0 * float(((n - k) * c).sum())


def variance_spectral(m: SpectralMeasure, n, tol: float = 1e-10) -> float:
    """Var(S_n) by integrating the Fejer kernel against the measure.

    Any origin atom contributes ``atom_at_zero * n**2`` and atoms in (0, pi]
    contribute ``I_n(loc) * mass`` exactly.  A density piece's part of
    (0, 32 pi/n] is integrated with Gauss-Kronrod panels on the half-arcs of
    I_n, the rest with Filon-Clenshaw-Curtis panels on dyadic intervals, so
    its cost is O(log n) and no array grows with n, for every n < 2**63.
    Against exact references (white noise, the quadratic measure) the
    relative error stays below 1e-15 from n = 1 to 2**62.  A tail panel
    on which the density is not smooth enough for its Chebyshev estimate
    (a kink or a jump inside it) is bisected until the estimates meet the
    tolerance, at a cost that does not grow with n; NumericError when the
    bisection budget runs out first.
    """
    n = check_int(n, "n", 1)
    total = m.atom_at_zero * float(n) ** 2 + float(atom_fejer_sums(m, [n])[0])
    for piece in m.density:
        total += _piece_variance(piece, n, tol)
    return total


def variance_covariance(m: SpectralMeasure, n, tol: float = 1e-10) -> float:
    """Var(S_n) via the triangular covariance sum (independent oracle).

    Every term is a covariance: the origin atom's are constant, so its lags
    sum to ``atom_at_zero * n**2``; the other atoms' lags are summed per atom
    in double-double (``atom_covariance_sums``); each density piece sums its
    cosine transforms.  A density's sum is ill-conditioned: n r_0 cancels
    down to Var(S_n) (to about 4 ln n on the quadratic measure), so even
    with exact c_k its relative error grows like n/ln n times their
    rounding, and it costs O(n).
    """
    n = check_int(n, "n", 1)
    total = m.atom_at_zero * float(n) ** 2 + atom_covariance_sums(m, n)
    for piece in m.density:
        total += _piece_variance_covariance(piece, n, min(tol, 1e-12))
    return total


def _blocked_cumsum(x, block: int = 512):
    """Cumulative sum of x, summed within blocks and then across them: a
    long run of tiny alternating terms is not added one by one to a large
    running total, whose rounding would drift."""
    rows = np.concatenate([x, np.zeros(-len(x) % block)]).reshape(-1, block)
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return rows.ravel()[:len(x)]


def variance_profile(m: SpectralMeasure, n_max, tol: float = 1e-10):
    """Array of Var(S_n) for n = 1 .. n_max in one vectorized pass.

    Atoms are evaluated against the kernel exactly; the density part uses the
    covariance identity with cumulative sums, which yields the entire profile
    in O(n_max) after one batch of cosine transforms.  Its conditioning is
    that of ``variance_covariance``: n r_0 cancels down to Var(S_n), so even
    with exact c_k the relative error of a density row grows like n/ln n
    times the c_k's rounding (a few 1e-10 at n = 2**18 on the quadratic
    measure).
    """
    n_max = check_int(n_max, "n_max", 1)
    n = np.arange(1, n_max + 1, dtype=float)
    out = m.atom_at_zero * n ** 2 + atom_fejer_sums(m, n)
    for piece in m.density:
        if n_max == 1:
            out += piece.mass
            continue
        k = np.arange(1, n_max)
        c = piece.cos_transform(k, tol=min(tol, 1e-12))
        # s1[j] = sum_{k<=j} c_k and s2c[j] = sum_{k<=j} k c_k
        s1 = np.concatenate([[0.0], _blocked_cumsum(c)])
        s2c = np.concatenate([[0.0], _blocked_cumsum(k * c)])
        out += n * piece.mass + 2.0 * (n * s1[:n_max] - s2c[:n_max])
    return out


def sandwich(m: SpectralMeasure, n, A: float = 1.0,
             tol: float = 1e-10) -> BoundsReport:
    """Bracket Var(S_n) between the kernel's main-lobe lower bound and the
    split upper bound with free parameter A (0 < A <= n)."""
    n = check_int(n, "n", 1)
    A = float(A)
    if not 0.0 < A <= n:
        raise DomainError(f"sandwich requires 0 < A <= n, got A={A}, n={n}")
    lower = (4.0 / PI ** 2) * n ** 2 * g_eval(m, 1.0 / n)
    variance = variance_spectral(m, n, tol=tol)
    a_over_n = A / n
    upper = g_eval(m, PI) + (PI ** 2 / 4.0) * n ** 2 * g_eval(m, a_over_n)
    if a_over_n < PI:
        locs, _ = m.atom_arrays()
        pts = [locs[(locs > a_over_n) & (locs < PI)]]
        for piece in m.density:
            pts.append(np.array([piece.lo, piece.hi]))
        # G decays to its total mass; log-spaced points resolve the y^-3 head
        pts.append(np.geomspace(a_over_n, PI, 65))
        tail, _ = integrate(lambda y: g_eval(m, y) / y ** 3, a_over_n, PI,
                            points=np.concatenate(pts), tol=tol)
        upper += PI ** 2 * tail
    return BoundsReport(n=n, A=A, lower=float(lower), variance=variance,
                        upper=float(upper))
