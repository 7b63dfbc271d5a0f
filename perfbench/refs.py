"""Exact references for Var(S_n), computed with mpmath outside every timed region.

* white noise: Var(S_n) = n;
* quadratic (density 2y on (0, pi]): r_0 = pi^2, r_k = -4/k^2 for odd k and 0
  for even k, so Var(S_n) = n pi^2 + 2 sum_{k<n} (n-k) r_k.  The sum over the
  J = floor(n/2) odd lags has the closed form 2 n psi1(J+1/2) + 4 (psi(J+1/2) -
  psi(1/2)), evaluated here in 40-digit arithmetic; ``quadratic_fsum`` is the
  literal ``math.fsum`` of the same series, kept for the self-test;
* atomic measures: the direct sum of mass * sin^2(n t/2) / sin^2(t/2) over the
  atoms (at their float locations, converted exactly), plus a0 * n^2;
* power and table densities (no closed form): the Fejer integral
  int f(y) I_n(y) dy by fixed Gauss rules on every half-arc of the kernel,
  written here independently of specvar's quadrature and cosine transforms.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

_DPS = 40
# Gauss nodes per half-arc of the Fejer kernel.  The kernel is a trigonometric
# polynomial and the density is smooth on each panel (or carries y**p at the
# origin, which the Gauss-Jacobi rule of the first panel absorbs), so 24
# nodes reach float64 rounding.  The rules are computed in mpmath: float64
# Golub-Welsch weights are off by up to 5e-15.
_NODES = 24
_CHUNK = 1 << 14  # panels evaluated per numpy batch


def whitenoise(n: int) -> float:
    return float(n)


def quadratic(n: int) -> float:
    with mpmath.workdps(_DPS):
        j = mpmath.mpf(n // 2) + mpmath.mpf(0.5)
        half = mpmath.mpf(0.5)
        v = (2 * n * mpmath.psi(1, j)
             + 4 * (mpmath.psi(0, j) - mpmath.psi(0, half)))
        return float(v)


def quadratic_fsum(n: int) -> float:
    terms = [n * math.pi ** 2]
    terms.extend(2.0 * (n - k) * (-4.0 / k ** 2) for k in range(1, n, 2))
    return math.fsum(terms)


class AtomicReference:
    """Exact Var(S_n) and G(x) for a measure made of atoms only."""

    def __init__(self, atom_at_zero: float, atoms):
        with mpmath.workdps(_DPS):
            self._a0 = mpmath.mpf(atom_at_zero)
            self._atoms = [(mpmath.mpf(loc), mpmath.mpf(mass),
                            mpmath.sin(mpmath.mpf(loc) / 2) ** 2)
                           for loc, mass in atoms]
        self._cum = [(loc, mass) for loc, mass in atoms]

    def variance(self, n: int) -> float:
        with mpmath.workdps(_DPS):
            total = self._a0 * n * n
            for loc, mass, s2 in self._atoms:
                total += mass * mpmath.sin(n * loc / 2) ** 2 / s2
            return float(total)

    def g(self, x: float) -> float:
        """Cumulative mass of [0, x] (atoms counted when x >= location)."""
        return math.fsum([float(self._a0)]
                         + [mass for loc, mass in self._cum if x >= loc])


@functools.lru_cache(maxsize=None)
def _gauss(nodes, kind, beta=0.0):
    """Gauss nodes and weights as float arrays (mpmath, 40 digits)."""
    with mpmath.workdps(_DPS):
        x, w = mpmath.gauss_quadrature(nodes, kind, 0, beta)
        return (np.array([float(v) for v in x]),
                np.array([float(v) for v in w]))


class DensityReference:
    """Var(S_n) of a measure made of power and table density pieces.

    Works in u = y n / pi, where the half-arcs of I_n are the unit intervals
    [j, j+1].  On them sin^2(n y/2) is sin^2(pi t/2) (j even) or cos^2(pi t/2)
    (j odd) with t = u - j in [0, 1], so no large angle is ever rounded.
    Each panel, split further at the piece's edges and knots, gets a
    Gauss-Legendre rule; a power piece y**p starting at 0 with non-integer p
    gets a Gauss-Jacobi rule with weight u**p on its first panel.
    """

    def __init__(self, density):
        self.pieces = []
        for piece in density:
            if hasattr(piece, "exponent"):
                self.pieces.append(("power", piece.lo, piece.hi,
                                    (piece.coef, piece.exponent)))
            else:
                ys = np.asarray(piece.ys, dtype=float)
                self.pieces.append(("table", float(ys[0]),
                                    min(float(ys[-1]), math.pi),
                                    (ys, np.asarray(piece.vals, dtype=float))))

    @functools.lru_cache(maxsize=None)
    def variance(self, n: int) -> float:
        return math.fsum(self._piece(n, *piece) for piece in self.pieces)

    def _piece(self, n, kind, lo, hi, params):
        scale = n / math.pi
        knots = [] if kind == "power" else list(params[0][1:-1] * scale)
        u_lo, u_hi = lo * scale, hi * scale
        edges = np.unique(np.concatenate([
            [u_lo, u_hi], knots,
            np.arange(math.floor(u_lo) + 1, math.ceil(u_hi))]))
        a, b = edges[:-1], edges[1:]
        total = []
        if kind == "power" and lo == 0.0 and not float(params[1]).is_integer():
            # first panel [0, b0]: Gauss-Jacobi with u**p in the weight, the
            # y**p of the density folded into the constant
            coef, p = params
            half = b[0] / 2.0
            xj, wj = _gauss(_NODES, "jacobi", p)
            _, kernel = self._kernel(n, np.zeros(1), half * (1.0 + xj))
            total.append(half * coef * (math.pi * half / n) ** p
                         * float(np.sum(wj * kernel)))
            a, b = a[1:], b[1:]
        x, w = _gauss(_NODES, "legendre01")  # on [0, 1]
        for i in range(0, len(a), _CHUNK):
            aa, bb = a[i:i + _CHUNK, None], b[i:i + _CHUNK, None]
            j = np.floor(aa)
            t = (aa - j) + (bb - aa) * x[None, :]
            weights = (bb - aa) * w[None, :]
            total.append(float(np.sum(
                weights * self._integrand(n, kind, params, j, t))))
        return math.fsum(total) * (math.pi / n)

    @staticmethod
    def _kernel(n, j, t):
        """y = pi (j + t) / n and I_n(y)."""
        y = (j + t) * (math.pi / n)
        top = np.where(j % 2 == 0, np.sin(math.pi * t / 2.0),
                       np.cos(math.pi * t / 2.0)) ** 2
        return y, top / np.sin(y / 2.0) ** 2

    def _integrand(self, n, kind, params, j, t):
        """f(y) I_n(y) at y = pi (j + t) / n."""
        y, kernel = self._kernel(n, j, t)
        if kind == "power":
            coef, p = params
            return coef * y ** p * kernel
        ys, vals = params
        return np.interp(y, ys, vals) * kernel


def digits(value: float, ref: float) -> float:
    """Correct significant digits of ``value`` against ``ref`` (capped at 17)."""
    if not math.isfinite(value):
        return 0.0
    if value == ref:
        return 17.0
    rel = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
    return min(17.0, max(0.0, -math.log10(rel)))
