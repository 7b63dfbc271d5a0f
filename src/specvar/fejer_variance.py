"""Variance of partial sums from a spectral measure, by two routes.

The spectral route integrates the Fejer kernel ``I_n(y) = sin(ny/2)**2 /
sin(y/2)**2`` against the folded measure:  ``Var(S_n) = int_[0,pi] I_n dG``.
Atoms are summed in double-double and rounded once (``atom_fejer_sums``):
on a run of at least 1024 n, those in the kernel's main lobe, n loc <= 1
at its last n, as one Taylor series in (n b)**2 per row, and only the
others atom by atom.
A density piece reads its integral at every n < 2**63, at a cost of
O(log n), from one panel set chosen once from the density alone
(``_panel_set``, where a kink or a jump is bisected): with ``I_n =
(1 - cos ny) / (2 sin(y/2)**2)``, the factor ``g = density / (2
sin(y/2)**2)`` is interpolated at 25 Chebyshev points on dyadic panels.
A row reads two zones of them.  Where ``I_n`` oscillates, n b > 1 on a
panel with right edge b, ``g cos(ny)`` is integrated through the modified
moments ``int T_j(x) exp(i omega x) dx`` (Filon-Clenshaw-Curtis, QUADPACK
QAWO's method; Piessens et al. 1983, error bounds in Dominguez, Graham &
Smyshlyaev 2011).  Below, in the kernel's main lobe,
``1 - cos ny`` is its Taylor series, so the row is a short polynomial in
(n b)**2 over sums ``S_m = int g (y/b)**(2m) dy`` below b that the panel
set keeps for each b.  A grid of n (``_variance_rows``, which the CLI's
``variance`` and ``simulate --check-n`` and ``asymptotics.theorem_check`` and
``dichotomy_check`` call) takes a piece's moments from one recurrence per
batch of rows, and the atoms from one sum per long run of consecutive n and
one pass over the (n, atom) cells of every other n (``atom_fejer_points``),
the path a single n takes too; every row equals ``variance_spectral`` at
its n bit for bit.
The bracket's rows share it the same way: ``_sandwich_rows``, which the CLI's
``bounds`` calls once per grid, and ``sandwich``, its one-row case.

The covariance route assembles the same quantity from autocovariances,
``Var(S_n) = n r_0 + 2 sum_{k<n} (n-k) r_k``, and serves as an independent
cross-check at every n up to ``MAX_LAGS``: atoms in O(log n) steps, in
double-double, so the two routes return the same float there; pieces O(n).

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
from functools import lru_cache, reduce
from itertools import pairwise

import numpy as np

from .errors import DomainError, NumericError, ValidationError, check_int
from .quadrature import (_CC, _CC_NODES, _CHEB_MAX_PANELS, _ROUNDOFF,
                         _panel_nodes, bisect_panels, chebyshev_panels,
                         clenshaw_curtis, fine_fold, interpolant_moments)
from .spectral_measure import (PI, SpectralMeasure, atom_covariance_sums,
                               atom_fejer_points, atom_fejer_sums,
                               check_lags, g_eval, lag_blocks,
                               robinson_integral)

# no longer read here; the benchmark workloads (perfbench/workloads.py)
# still import it
KERNEL_QUAD_MAX_N = 2 ** 14

# absolute accuracy target of a density piece's integral against I_n
_TOL = 1e-10
# a density piece's panels start at _E0: every n < _N_MAX has n _E0 <
# 2**-65, where I_n = n**2 to rounding, so (0, _E0] contributes n**2 G(_E0),
# which the Taylor sums of _panel_set carry from their seed
_E0 = math.ldexp(PI, -130)
_N_MAX = 2.0 ** 63
# a row's panels with n b <= 1 take 2 sin(ny/2)**2 = 1 - cos(ny) from its
# Taylor series to this many terms t_m (ny)**(2m): the first one left out
# is below 2**-77 times the first
_TAYLOR_TERMS = 11
_TAYLOR = np.array([(-1.0) ** (m + 1) / math.factorial(2 * m)
                    for m in range(1, _TAYLOR_TERMS + 1)])
# most (row, panel) cells in one batch of rows of _variance_rows: the
# batch's arrays stay a few MB on a grid of any length
_BATCH_CELLS = 2 ** 12
# a run of at least two consecutive n whose (n, atom) cells reach this many
# takes its atoms from one atom_fejer_sums call, any other n from the grid
# pass of atom_fejer_points: in process, a run of L n over 8, 39, 60 and
# 200 atoms cost the same both ways at 300-400 cells (L = 48, 9, 6 and 2),
# and a single n on 1000 atoms 5 % less in the grid pass
_RUN_CELLS = 1 << 8
# terms per block of _blocked_cumsum; spectral_measure's _LAG_BLOCK is a
# multiple of it, so these blocks fall at the same lags whatever lag block
# they come in
_CUMSUM_BLOCK = 512
# lags per numpy sum of a density piece in variance_covariance: every n <=
# 2**16 + 1 is one sum.  The lag blocks fill each run's terms, so the route
# is the same float whatever _LAG_BLOCK is
_COVARIANCE_RUN = 2 ** 16


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


def _envelope(n, b):
    """``min(2, (n b)**2 / 2)`` >= ``1 - cos(ny)`` on y <= b: a panel's
    estimate of ``int |g - interpolant|`` times it bounds its error at n."""
    return np.minimum(2.0, 0.5 * (n * b) ** 2)


@lru_cache(maxsize=64)
def _panel_set(piece):
    """The panels from which every n reads the piece's Fejer integral: their
    right edges b, centres c, half-widths h, the Chebyshev coefficients of
    ``g = density / (2 sin(y/2)**2)`` on each, their ``fine_fold``, ``int
    g`` and estimates, and the series sums ``t_m S_m[k]``, row m - 1.

    ``S_m[k] = int g (y/b_k)**(2m) dy`` below b_k, for m = 1 ..
    _TAYLOR_TERMS, with ``t_m = (-1)**(m+1) / (2m)!`` the Taylor
    coefficients of ``1 - cos``; k = 0 stands for b_0 = _E0, where ``g y**2``
    is twice the density to rounding, so S_1[0] = 2 G(_E0)/_E0**2, and k >=
    1 for the panels.  One pass builds them, ``S_m[k] = (b_(k-1)/b_k)**(2m)
    S_m[k-1] + int_(panel k) g (y/b_k)**(2m) dy``: each step scales a
    positive sum down and adds a positive term, so none overflows or
    cancels.

    The panels lie between the piece's ends, a table's grid points and the
    dyadic points pi 2**-j in [_E0, pi].  A kink or a jump inside one is
    bisected until the estimates, weighted by ``_envelope`` at _N_MAX, sum
    to _TOL / 10, so the bound holds at every n, with a margin for a
    Chebyshev tail that undershoots a break's error by a few times.  Two
    estimates count as met, since halving cannot shrink them: one at the
    roundoff floor of its panel's ``int g``, and one on a panel at most two
    floats wide, which a break at y can leave at about ``eps y`` times the
    density's jump there, while the rows nearby hold ``y`` times it; the
    rows' relative floor covers both.
    """
    def g(y):
        return piece.formula(y) / (2.0 * np.sin(0.5 * y) ** 2)

    def rule(a, b):
        value, err = clenshaw_curtis(g, a, b)
        settled = ((err <= _ROUNDOFF * np.abs(value))
                   | (b - a <= 2.0 * np.spacing(b)))
        return np.zeros_like(value), np.where(settled, 0.0,
                                              err * _envelope(_N_MAX, b))

    lo, hi = max(piece.lo, _E0), piece.hi
    edges = np.array([hi])
    if lo < hi:
        points = {math.ldexp(PI, -j) for j in range(131)}
        points.update(getattr(piece, "ys", ()))
        edges = np.array([lo, *sorted(y for y in points if lo < y < hi), hi])
        edges = bisect_panels(rule, edges, tol=0.1 * _TOL,
                              max_panels=_CHEB_MAX_PANELS)[2]
    b = edges[1:]
    c, h, values, coef, err = chebyshev_panels(g, edges[:-1], b)
    # int_(panel k) g (y/b_k)**(2m) dy, m = 1 .. _TAYLOR_TERMS, row m - 1
    twice_m = np.arange(2.0, 2.0 * _TAYLOR_TERMS + 1.0, 2.0)
    x = _panel_nodes(edges[:-1], b)[2] / b[:, None]
    parts = h * (values * _CC_NODES * x ** twice_m[:, None, None]).sum(axis=2)
    s = np.zeros(_TAYLOR_TERMS)
    s[0] = 2.0 * piece.mass_upto(np.array([min(_E0, hi)]))[0] / _E0 ** 2
    sums = [s]
    for ratio, part in zip(np.concatenate([[_E0], b[:-1]]) / b, parts.T):
        s = ratio ** twice_m * s + part
        sums.append(s)
    return (b, c, h, coef, fine_fold(coef), h * (coef @ _CC), err,
            _TAYLOR[:, None] * np.array(sums).T)


def _batch_rows(panels, ns) -> list:
    """``int density I_n`` from a ``_panel_set`` for each n in ns.

    A row takes the panels where ``I_n`` does not oscillate, n b <= 1, from
    their Taylor series: with k the last of them (k = 0, b_0 = _E0, when
    there is none), ``2 sin(ny/2)**2 = sum_m t_m (ny)**(2m)`` gives
    ``sum_m t_m (n b_k)**(2m) S_m[k]``, by Horner's rule.  Each other panel,
    n b > 1, adds a cell ``int g - h Re(exp(i n c) sum_j coef_j mu_j(n h))``
    (``interpolant_moments``), which depends on its n and panel alone.  The
    phase n c is a plain float product: its error eps n c multiplies an
    oscillatory part of size g(c)/n.  NumericError when a row's estimate,
    the panels' weighted by ``_envelope`` at its n, misses max(_TOL,
    roundoff of the row).
    """
    b, c, h, coef, fold, flat, err, taylor = panels
    n = np.array(ns, dtype=float)[:, None]
    nb = n * b
    k = (nb <= 1.0).sum(axis=1)
    x = (n[:, 0] * np.concatenate([[_E0], b])[k]) ** 2
    rows = reduce(lambda acc, t: x * (t + acc), taylor[::-1, k], 0.0)
    cells = np.zeros((len(ns), len(b)))
    r, p = np.nonzero(nb > 1.0)
    nr = n[r, 0]
    v = interpolant_moments(nr * h[p], p, coef, fold)
    cells[r, p] = flat[p] - h[p] * (np.exp(1j * (nr * c[p])) * v).real
    rows += cells.sum(axis=1)
    achieved = (err * _envelope(n, b)).sum(axis=1)
    missed = np.flatnonzero(achieved > np.maximum(_TOL,
                                                  _ROUNDOFF * np.abs(rows)))
    if len(missed):
        i = missed[0]
        raise NumericError(f"Fejer integral of a density piece at n={ns[i]} "
                           f"did not reach tol={_TOL:.1e}",
                           achieved=float(achieved[i]))
    return rows.tolist()


def _piece_rows(piece, ns) -> list:
    """``int density I_n`` for one density piece and each n in ns, in
    batches of at most _BATCH_CELLS (row, panel) cells."""
    panels = _panel_set(piece)
    step = max(1, _BATCH_CELLS // max(1, len(panels[0])))
    return [v for i in range(0, len(ns), step)
            for v in _batch_rows(panels, ns[i:i + step])]


def _atom_rows(m: SpectralMeasure, ns):
    """The atoms' Fejer sums at each n in ns: one ``atom_fejer_sums`` call
    per run of consecutive n among them with at least _RUN_CELLS (n, atom)
    cells, and one grid pass (``atom_fejer_points``) for every other n.  A
    single n always takes the grid pass, so its row is its single-n call's
    by construction."""
    if not m.atoms:
        return [0.0] * len(ns)
    grid = sorted(set(ns))
    starts = [i for i, n in enumerate(grid) if i == 0 or n != grid[i - 1] + 1]
    sums, isolated = {}, []
    for lo, hi in pairwise(starts + [len(grid)]):
        if hi - lo > 1 and (hi - lo) * len(m.atoms) >= _RUN_CELLS:
            sums.update(zip(grid[lo:hi],
                            atom_fejer_sums(m, grid[lo], hi - lo).tolist()))
        else:
            isolated += grid[lo:hi]
    sums.update(zip(isolated, atom_fejer_points(m, isolated).tolist()))
    return [sums[n] for n in ns]


def _variance_rows(m: SpectralMeasure, ns) -> list:
    """``variance_spectral(m, n)`` for each n in ns (any order, repeats
    allowed), bit for bit, with the work shared across the grid: the atoms
    take one sum per long run of consecutive n and one grid pass for the
    other n (``_atom_rows``), and each density piece's rows one moment
    recurrence per batch of rows, from the piece's one panel set.  The
    rows go in batches of at most _BATCH_CELLS (row, panel) cells, so the
    memory stays bounded on a grid of any length."""
    ns = [check_int(n, "n", 1) for n in ns]
    rows = [m.atom_at_zero * float(n) ** 2 + atoms
            for n, atoms in zip(ns, _atom_rows(m, ns))]
    for piece in m.density:
        rows = [total + v for total, v in zip(rows, _piece_rows(piece, ns))]
    return rows


def _piece_variance_covariance(piece, n: int) -> float:
    """``n mass + 2 sum_{k<n} (n - k) c_k`` for one density piece: one numpy
    sum per run of _COVARIANCE_RUN lags, its terms filled into one buffer
    lag block by lag block (``lag_blocks``), the run sums added by
    ``math.fsum``; so a sum of one run is the numpy sum of all its terms,
    and the call holds that buffer and one lag block's work."""
    terms = np.empty(min(n - 1, _COVARIANCE_RUN))
    parts = []
    for r in range(1, n, _COVARIANCE_RUN):
        run = terms[:min(n - r, _COVARIANCE_RUN)]
        for a, k in lag_blocks(r, len(run)):
            np.multiply(n - k, piece.cos_transform(k), out=run[a:a + len(k)])
        parts.append(float(run.sum()))
    return n * piece.mass + 2.0 * math.fsum(parts)


def variance_spectral(m: SpectralMeasure, n) -> float:
    """Var(S_n) by integrating the Fejer kernel against the measure.

    Any origin atom contributes ``atom_at_zero * n**2`` and atoms in (0, pi]
    contribute ``I_n(loc) * mass`` exactly.  A density piece's integral
    comes from its panel set (``_panel_set``), so its cost is O(log n) and
    no array grows with n, for every n < 2**63.  Against exact references
    (white noise, the quadratic measure) the relative error stays below
    1e-15 from n = 1 to 2**62.  A piece aims at an absolute error estimate
    of _TOL = 1e-10, or the roundoff floor of its value; NumericError when
    the estimate misses it, or when the bisection budget of a panel set
    runs out.
    """
    return _variance_rows(m, [n])[0]


def variance_covariance(m: SpectralMeasure, n) -> float:
    """Var(S_n) via the triangular covariance sum (independent oracle).

    Every term is a covariance: the origin atom's are constant, so its lags
    sum to ``atom_at_zero * n**2``; the other atoms' in O(log n) steps in
    double-double (``atom_covariance_sums``); each density piece sums its
    cosine transforms one lag block at a time, so the memory stays bounded
    whatever n (``_piece_variance_covariance``).  A density's sum is
    ill-conditioned: n r_0 cancels down to Var(S_n) (to about 4 ln n on the
    quadratic measure), so even with exact c_k its relative error grows like
    n/ln n times their rounding, and it costs O(n), so n is at most
    ``MAX_LAGS`` (on atoms too).
    """
    n = check_lags(n, "n")
    total = m.atom_at_zero * float(n) ** 2 + atom_covariance_sums(m, n)
    for piece in m.density:
        total += _piece_variance_covariance(piece, n)
    return total


def _blocked_cumsum(x, carry: float):
    """Cumulative sums of x, one lag block of a longer run, summed within
    blocks of _CUMSUM_BLOCK terms and then across them: a long run of tiny
    alternating terms is not added one by one to a large running total,
    whose rounding would drift.  carry is the running total of the run's
    earlier blocks of _CUMSUM_BLOCK (-0.0 at its start, which adds nothing
    to any float); returns the sums and the carry for the next lag block.
    np.cumsum adds in sequence, so a run taken in lag blocks that are whole
    multiples of _CUMSUM_BLOCK gives the same floats as taken whole."""
    rows = np.zeros((-(-len(x) // _CUMSUM_BLOCK), _CUMSUM_BLOCK))
    rows.ravel()[:len(x)] = x
    np.cumsum(rows, axis=1, out=rows)
    carries = np.cumsum(np.concatenate([[carry], rows[:, -1]]))
    rows += carries[:-1, None]
    return rows.ravel()[:len(x)], carries[-1]


def variance_profile(m: SpectralMeasure, n_max):
    """Array of Var(S_n) for n = 1 .. n_max.

    Atoms are evaluated against the kernel exactly; the density part uses the
    covariance identity with cumulative sums, which yields the entire profile
    in O(n_max).  The cosine transforms go one lag block of _LAG_BLOCK =
    2**13 lags at a time (``lag_blocks``), each block's rows straight into
    the array, with the cumulative sums carried from block to block: the
    call holds its output and one block's work (a few hundred KB), and
    every row is the float a pass over all lags at once gives.  Its
    conditioning is that of ``variance_covariance``: n r_0 cancels down to
    Var(S_n), so even with exact c_k the relative error of a density row
    grows like n/ln n times the c_k's rounding (a few 1e-10 at n = 2**18 on
    the quadratic measure).  n_max is at most ``MAX_LAGS``.
    """
    n_max = check_lags(n_max, "n_max")
    out = atom_fejer_sums(m, 1, n_max)
    # row n = 1 has no lags: the sums s1 and s2c below are 0 there
    out[0] += m.atom_at_zero
    for piece in m.density:
        out[0] += piece.mass
    carries = [[-0.0, -0.0] for _ in m.density]
    for a, k in lag_blocks(1, n_max - 1):
        # row n = k + 1 reads s1 = sum_{j<=k} c_j and s2c = sum_{j<=k} j c_j
        n = k + 1.0
        rows = out[1 + a:1 + a + len(k)]
        rows += m.atom_at_zero * n ** 2
        for piece, carry in zip(m.density, carries):
            c = piece.cos_transform(k)
            s1, carry[0] = _blocked_cumsum(c, carry[0])
            s2c, carry[1] = _blocked_cumsum(k * c, carry[1])
            rows += n * piece.mass + 2.0 * (n * s1 - s2c)
    return out


def _sandwich_rows(m: SpectralMeasure, ns, A: float = 1.0) -> list:
    """``sandwich(m, n, A)`` for each n in ns (any order, repeats allowed),
    bit for bit, with the work shared across the grid: every n and A/n is
    checked before any row is computed, the variances come from one
    ``_variance_rows`` call, and G from one ``g_eval`` call at every 1/n,
    one at every A/n and one at pi; only R(A/n) is taken row by row."""
    ns = [check_int(n, "n", 1) for n in ns]
    A = float(A)
    for n in ns:
        if not 0.0 < A <= n:
            raise DomainError(f"sandwich requires 0 < A <= n, got A={A}, "
                              f"n={n}")
        if A / n < 2.0 ** -511:
            raise DomainError(f"sandwich requires A/n >= 2**-511, got A={A}, "
                              f"n={n}")
    g_pi = g_eval(m, PI)
    g_inv = g_eval(m, [1.0 / n for n in ns]).tolist()
    g_a = g_eval(m, [A / n for n in ns]).tolist()
    rows = []
    for n, variance, g1, ga in zip(ns, _variance_rows(m, ns), g_inv, g_a):
        lower = (4.0 / PI ** 2) * n ** 2 * g1
        upper = (0.5 * g_pi
                 + PI ** 2 * n ** 2 * ga * (0.25 + 0.5 / A ** 2)
                 + 0.5 * PI ** 2 * robinson_integral(m, A / n))
        rows.append(BoundsReport(n=n, A=A, lower=lower, variance=variance,
                                 upper=float(upper)))
    return rows


def sandwich(m: SpectralMeasure, n, A: float = 1.0) -> BoundsReport:
    """Bracket Var(S_n) between the kernel's main-lobe lower bound and the
    split upper bound with free parameter A, in the closed form of the
    module docstring.  DomainError unless 0 < A <= n and A/n >= 2**-511,
    below which (A/n)**2 is not a normal float.
    """
    return _sandwich_rows(m, [n], A)[0]
