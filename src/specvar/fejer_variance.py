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

A grid of n (``_variance_rows``, which the CLI's ``variance`` and
``asymptotics.theorem_check`` call once per grid) shares this work: the atoms
take one sum per run of consecutive n, and a piece's tail panels take one
density evaluation and one moment recurrence per batch of rows, with the BLAS
products kept per row.  So every row equals ``variance_spectral`` at its n
bit for bit, and no row depends on the others in its grid.

The covariance route assembles the same quantity from autocovariances,
``Var(S_n) = n r_0 + 2 sum_{k<n} (n-k) r_k``, and serves as an independent
cross-check at every n; on atoms it sums the lags per atom, also in
double-double, so the two routes return the same float there.

``sandwich`` evaluates the two-sided bracket

    (4/pi^2) n^2 G(1/n)  <=  Var(S_n)
      <=  G(pi) + (pi^2/4) n^2 G(A/n) + pi^2 int_{A/n}^pi G(y) y^-3 dy

valid for any 0 < A <= n.  With a = A/n and G right-continuous, parts give
``int_a^pi G y^-3 dy = G(a)/(2a^2) - G(pi)/(2pi^2) + R(a)/2`` with the
inverse-square mass ``R(a) = int_(a,pi] y^-2 dG`` (``robinson_integral``),
so the upper bound is the sum of positive closed-form terms

    G(pi)/2 + pi^2 n^2 G(a) (1/4 + 1/(2A^2)) + (pi^2/2) R(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, pairwise

import numpy as np

from .errors import DomainError, ValidationError, check_int
from .quadrature import (_CC, _CHEB_MAX_PANELS, _cheb_moments, _offsets,
                         bisect_panels, chebyshev_panels)
from .spectral_measure import (PI, SpectralMeasure, atom_covariance_sums,
                               atom_fejer_sums, check_lags, g_eval,
                               robinson_integral)

# no longer read here; the benchmark workloads (perfbench/workloads.py)
# still import it
KERNEL_QUAD_MAX_N = 2 ** 14

# A density piece's part of (0, _HEAD_ARCS pi/n] is integrated over the
# half-arcs of I_n (the head), the rest on dyadic Chebyshev panels (the tail)
_HEAD_ARCS = 32
# absolute accuracy target of a density piece's integral against I_n (half
# for its head, half for its tail)
_TOL = 1e-10
# most tail panels in one batch of rows of _variance_rows: the batch's arrays
# stay a few MB on a grid of any length (a row has at most 60-odd panels,
# plus a table's knots)
_BATCH_PANELS = 2 ** 12


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


def _tail_edges(piece, start):
    """Dyadic panel edges start, 2 start, 4 start, .. up to piece.hi, broken
    at a table's grid points."""
    hi = piece.hi
    edges = {math.ldexp(start, k)
             for k in range(math.ceil(math.log2(hi / start)) + 1)}
    edges.update(getattr(piece, "ys", ()))
    return np.array(sorted(y for y in edges if start <= y < hi) + [hi])


def _fcc_panels(density, n, a, b, blocks=None):
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

    n is a float or one float per panel.  blocks: offsets that split the
    panels into the rows of a grid of n (one row by default); g is evaluated
    once for all rows, and the BLAS products, which BLAS rounds by their
    shape, run per row, so every row gets the values of its panels alone.
    """
    c, h, coef, err = chebyshev_panels(
        lambda y: density(y) / (2.0 * np.sin(0.5 * y) ** 2), a, b, blocks)
    flat = np.empty_like(h)
    for lo, hi in pairwise(_offsets(blocks, len(h))):
        np.matmul(coef[lo:hi], _CC, out=flat[lo:hi])
    osc = h * (np.exp(1j * (n * c))
               * (coef * _cheb_moments(n * h, blocks)).sum(axis=1)).real
    return h * flat - osc, err


def _tail_batches(piece, ns):
    """The rows (n, tail edges) of the n in ns, in batches of at most
    _BATCH_PANELS panels (or of one row)."""
    batch, size = [], 0
    for n in ns:
        edges = _tail_edges(piece, max(_HEAD_ARCS * PI / n, piece.lo))
        if batch and size + len(edges) - 1 > _BATCH_PANELS:
            yield batch
            batch, size = [], 0
        batch.append((n, edges))
        size += len(edges) - 1
    if batch:
        yield batch


def _tail_rows(piece, ns):
    """The tail part of ``int density I_n`` for each n in ns (each > 32 pi /
    piece.hi).

    A batch of rows takes its first-round panels from one ``_fcc_panels``
    call: one density evaluation and one moment recurrence.  Each row then
    goes to ``bisect_panels`` with its own first round; one whose estimate
    misses the tolerance (a density not smooth inside a panel) is bisected
    there by the same rule, as QUADPACK's QAWO does.
    """
    out = []
    for batch in _tail_batches(piece, ns):
        counts = [len(edges) - 1 for _, edges in batch]
        offsets = [0, *accumulate(counts)]
        a = np.concatenate([edges[:-1] for _, edges in batch])
        b = np.concatenate([edges[1:] for _, edges in batch])
        n_panel = np.repeat([float(n) for n, _ in batch], counts)
        ik, err = _fcc_panels(piece.formula, n_panel, a, b, offsets)
        for (n, edges), lo, hi in zip(batch, offsets[:-1], offsets[1:]):
            rule = partial(_fcc_panels, piece.formula, float(n))
            out.append(bisect_panels(rule, edges, tol=0.5 * _TOL,
                                     max_panels=_CHEB_MAX_PANELS,
                                     first=(ik[lo:hi], err[lo:hi]))[0])
    return out


def _piece_rows(piece, ns):
    """``int density I_n`` for one density piece and each n in ns: the head
    per n, plus the tail (``_tail_rows``)."""
    rows = [0.0] * len(ns)
    tails = []
    for i, n in enumerate(ns):
        cut = _HEAD_ARCS * PI / n
        if piece.lo < cut:
            hi = min(cut, piece.hi)
            rows[i] += piece.integrate_against(
                partial(_kernel_raw, n),
                points=_kernel_breakpoints(n, piece.lo, hi), tol=0.5 * _TOL,
                max_panels=4 * _HEAD_ARCS + 64, hi=hi)
        if piece.hi > cut:
            tails.append(i)
    for i, tail in zip(tails, _tail_rows(piece, [ns[i] for i in tails])):
        rows[i] += tail
    return rows


def _atom_rows(m: SpectralMeasure, ns):
    """The atoms' Fejer sums at each n in ns, from one ``atom_fejer_sums``
    call per run of consecutive n among them."""
    if not m.atoms:
        return [0.0] * len(ns)
    grid = sorted(set(ns))
    starts = [i for i, n in enumerate(grid) if i == 0 or n != grid[i - 1] + 1]
    sums = {}
    for lo, hi in pairwise(starts + [len(grid)]):
        sums.update(zip(grid[lo:hi],
                        atom_fejer_sums(m, grid[lo], hi - lo).tolist()))
    return [sums[n] for n in ns]


def _variance_rows(m: SpectralMeasure, ns) -> list:
    """``variance_spectral(m, n)`` for each n in ns (any order, repeats
    allowed), bit for bit, with the work shared across the grid: the atoms
    take one sum per run of consecutive n, and each density piece's tail one
    density evaluation and one moment recurrence per batch of rows.  The
    rows go in batches of at most _BATCH_PANELS tail panels, so the memory
    stays bounded on a grid of any length."""
    ns = [check_int(n, "n", 1) for n in ns]
    rows = [m.atom_at_zero * float(n) ** 2 + atoms
            for n, atoms in zip(ns, _atom_rows(m, ns))]
    for piece in m.density:
        rows = [total + v for total, v in zip(rows, _piece_rows(piece, ns))]
    return rows


def _piece_variance_covariance(piece, n: int) -> float:
    k = np.arange(1, n)
    c = piece.cos_transform(k)
    return n * piece.mass + 2.0 * float(((n - k) * c).sum())


def variance_spectral(m: SpectralMeasure, n) -> float:
    """Var(S_n) by integrating the Fejer kernel against the measure.

    Any origin atom contributes ``atom_at_zero * n**2`` and atoms in (0, pi]
    contribute ``I_n(loc) * mass`` exactly.  A density piece's part of
    (0, 32 pi/n] is integrated with Gauss-Kronrod panels on the half-arcs of
    I_n, the rest with Filon-Clenshaw-Curtis panels on dyadic intervals, so
    its cost is O(log n) and no array grows with n, for every n < 2**63.
    Against exact references (white noise, the quadratic measure) the
    relative error stays below 1e-15 from n = 1 to 2**62.  A piece aims at
    an absolute error estimate of _TOL = 1e-10.  A panel on which the
    density is not smooth enough for its estimate (a kink or a jump inside
    it) is bisected until the estimates meet it, at a cost that does not
    grow with n; NumericError when the bisection budget runs out first.
    """
    return _variance_rows(m, [n])[0]


def variance_covariance(m: SpectralMeasure, n) -> float:
    """Var(S_n) via the triangular covariance sum (independent oracle).

    Every term is a covariance: the origin atom's are constant, so its lags
    sum to ``atom_at_zero * n**2``; the other atoms' lags are summed per atom
    in double-double (``atom_covariance_sums``); each density piece sums its
    cosine transforms.  A density's sum is ill-conditioned: n r_0 cancels
    down to Var(S_n) (to about 4 ln n on the quadratic measure), so even
    with exact c_k its relative error grows like n/ln n times their
    rounding, and it costs O(n), so n is at most ``MAX_LAGS``.
    """
    n = check_lags(n, "n")
    total = m.atom_at_zero * float(n) ** 2 + atom_covariance_sums(m, n)
    for piece in m.density:
        total += _piece_variance_covariance(piece, n)
    return total


def _blocked_cumsum(x, block: int = 512):
    """Cumulative sum of x, summed within blocks and then across them: a
    long run of tiny alternating terms is not added one by one to a large
    running total, whose rounding would drift."""
    rows = np.concatenate([x, np.zeros(-len(x) % block)]).reshape(-1, block)
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return rows.ravel()[:len(x)]


def variance_profile(m: SpectralMeasure, n_max):
    """Array of Var(S_n) for n = 1 .. n_max in one vectorized pass.

    Atoms are evaluated against the kernel exactly; the density part uses the
    covariance identity with cumulative sums, which yields the entire profile
    in O(n_max) after one batch of cosine transforms.  Its conditioning is
    that of ``variance_covariance``: n r_0 cancels down to Var(S_n), so even
    with exact c_k the relative error of a density row grows like n/ln n
    times the c_k's rounding (a few 1e-10 at n = 2**18 on the quadratic
    measure).  n_max is at most ``MAX_LAGS``.
    """
    n_max = check_lags(n_max, "n_max")
    n = np.arange(1, n_max + 1, dtype=float)
    out = m.atom_at_zero * n ** 2 + atom_fejer_sums(m, 1, n_max)
    k = np.arange(1, n_max)
    for piece in m.density:
        c = piece.cos_transform(k)
        # s1[j] = sum_{k<=j} c_k and s2c[j] = sum_{k<=j} k c_k
        s1 = np.concatenate([[0.0], _blocked_cumsum(c)])
        s2c = np.concatenate([[0.0], _blocked_cumsum(k * c)])
        out += n * piece.mass + 2.0 * (n * s1[:n_max] - s2c[:n_max])
    return out


def sandwich(m: SpectralMeasure, n, A: float = 1.0) -> BoundsReport:
    """Bracket Var(S_n) between the kernel's main-lobe lower bound and the
    split upper bound with free parameter A, in the closed form of the
    module docstring.  DomainError unless 0 < A <= n and A/n >= 2**-511,
    below which (A/n)**2 is not a normal float.
    """
    n = check_int(n, "n", 1)
    A = float(A)
    if not 0.0 < A <= n:
        raise DomainError(f"sandwich requires 0 < A <= n, got A={A}, n={n}")
    a = A / n
    if a < 2.0 ** -511:
        raise DomainError(f"sandwich requires A/n >= 2**-511, got A={A}, "
                          f"n={n}")
    lower = (4.0 / PI ** 2) * n ** 2 * g_eval(m, 1.0 / n)
    variance = variance_spectral(m, n)
    upper = (0.5 * g_eval(m, PI)
             + PI ** 2 * n ** 2 * g_eval(m, a) * (0.25 + 0.5 / A ** 2)
             + 0.5 * PI ** 2 * robinson_integral(m, a))
    return BoundsReport(n=n, A=A, lower=float(lower), variance=variance,
                        upper=float(upper))
