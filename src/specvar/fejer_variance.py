"""Variance of partial sums from a spectral measure, by two routes.

The spectral route integrates the Fejer kernel ``I_n(y) = sin(ny/2)**2 /
sin(y/2)**2`` against the folded measure:  ``Var(S_n) = int_[0,pi] I_n dG``.
Atoms are summed in double-double and rounded once; density pieces are
integrated with panels seeded at the kernel's oscillation zeros.  The
covariance route assembles the same quantity from autocovariances,
``Var(S_n) = n r_0 + 2 sum_{k<n} (n-k) r_k``, and serves as an independent
cross-check; on atoms it sums the lags per atom, also in double-double, so
the two routes return the same float there.

``sandwich`` evaluates the two-sided bracket

    (4/pi^2) n^2 G(1/n)  <=  Var(S_n)
      <=  G(pi) + (pi^2/4) n^2 G(A/n) + pi^2 int_{A/n}^pi G(y) y^-3 dy

valid for any 0 < A <= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, check_int
from .quadrature import integrate
from .spectral_measure import (PI, OpaqueDensity, SpectralMeasure,
                               atom_covariance_sums, atom_fejer_sums, g_eval)

# beyond this the density contribution switches from kernel quadrature to the
# closed-form covariance route (cost control at very large n)
KERNEL_QUAD_MAX_N = 2 ** 14


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


def _piece_variance_quad(piece, n: int, tol: float) -> float:
    points = _kernel_breakpoints(n, piece.lo, piece.hi)
    return piece.integrate_against(lambda y: _kernel_raw(n, y), points=points,
                                   tol=tol, max_panels=4 * n + 64)


def _piece_variance_covariance(piece, n: int, tol: float) -> float:
    k = np.arange(1, n)
    c = piece.cos_transform(k, tol=tol)
    return n * piece.mass + 2.0 * float(((n - k) * c).sum())


def variance_spectral(m: SpectralMeasure, n, tol: float = 1e-10) -> float:
    """Var(S_n) by integrating the Fejer kernel against the measure.

    Any origin atom contributes ``atom_at_zero * n**2`` and atoms in (0, pi]
    contribute ``I_n(loc) * mass`` exactly.  Density pieces use oscillation-
    aware quadrature up to n = 2**14; beyond that their contribution is
    assembled from closed-form cosine transforms instead.  That is cheaper
    but not tighter: against the quadratic measure's closed form the
    relative error grows from about 3e-15 at n = 2**14 to 1.9e-11 at
    n = 2**14 + 1.
    """
    n = check_int(n, "n", 1)
    total = m.atom_at_zero * float(n) ** 2 + float(atom_fejer_sums(m, [n])[0])
    for piece in m.density:
        # opaque pieces have no cheap cosine transform, so they always take
        # the quadrature route
        if n <= KERNEL_QUAD_MAX_N or isinstance(piece, OpaqueDensity):
            total += _piece_variance_quad(piece, n, tol)
        else:
            total += _piece_variance_covariance(piece, n, tol)
    return total


def variance_covariance(m: SpectralMeasure, n, tol: float = 1e-10) -> float:
    """Var(S_n) via the triangular covariance sum (independent oracle).

    Every term is a covariance: the origin atom's are constant, so its lags
    sum to ``atom_at_zero * n**2``; the other atoms' lags are summed per atom
    in double-double (``atom_covariance_sums``); each density piece sums its
    cosine transforms.
    """
    n = check_int(n, "n", 1)
    total = m.atom_at_zero * float(n) ** 2 + atom_covariance_sums(m, n)
    for piece in m.density:
        total += _piece_variance_covariance(piece, n, min(tol, 1e-12))
    return total


def variance_profile(m: SpectralMeasure, n_max, tol: float = 1e-10):
    """Array of Var(S_n) for n = 1 .. n_max in one vectorized pass.

    Atoms are evaluated against the kernel exactly; the density part uses the
    covariance identity with cumulative sums, which yields the entire profile
    in O(n_max) after one batch of cosine transforms.
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
        s1 = np.concatenate([[0.0], np.cumsum(c)])          # sum_{k<=j} c_k
        s2c = np.concatenate([[0.0], np.cumsum(k * c)])     # sum_{k<=j} k c_k
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
