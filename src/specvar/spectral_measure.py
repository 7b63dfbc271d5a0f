"""Folded spectral measures on [0, pi].

A weakly stationary sequence with symmetric spectral measure is represented
one-sided: the two symmetric atoms at +-t are stored as one folded atom at t
carrying their combined mass, so no factor-of-two ambiguity survives into any
formula.  A measure consists of

* an optional atom at the origin (``atom_at_zero``),
* finitely many atoms in (0, pi] with positive masses,
* an absolutely continuous part given by disjoint density pieces on (0, pi].

``G(x)`` denotes the cumulative mass of [0, x].  Atoms are counted when
``x >= location`` (right-continuous convention), which differs from a
left-continuous convention only at the countably many jump points and does
not affect any integral.

Measures are immutable after construction and all operations here are pure
functions, so instances are safe to share across workers (a measure keeps
its atoms' phases once made, always the same values).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Union

import numpy as np

from . import ddouble as dd
from .errors import (DomainError, SerializationError, ValidationError,
                     check_float, check_int)
from .quadrature import (_CHEB_MAX_PANELS, bisect_panels,
                         chebyshev_panels, clenshaw_curtis, fine_fold,
                         integrate, interpolant_moments)
from .specfun import sin_cos, trig_power_moments

PI = math.pi
_LOC_MIN = 2.0 ** -1022
_PI_SLACK = 1e-12  # how far beyond float pi interval bounds may stray


def _clamp_pi(x: float, what: str) -> float:
    if x > PI:
        if x > PI + _PI_SLACK:
            raise DomainError(f"{what} = {x!r} exceeds pi")
        return PI
    return x


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PowerDensity:
    """Density ``coef * y**exponent`` on the interval (lo, hi].

    ``exponent > -1`` keeps the mass finite even when ``lo == 0``.
    """

    lo: float
    hi: float
    coef: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "lo",
                           check_float(self.lo, "power density lo"))
        object.__setattr__(self, "hi", _clamp_pi(
            check_float(self.hi, "power density hi"), "density hi"))
        object.__setattr__(self, "coef",
                           check_float(self.coef, "power density coef", 0.0))
        object.__setattr__(self, "exponent", check_float(
            self.exponent, "power density exponent", above=-1.0))
        if not 0.0 <= self.lo < self.hi:
            raise DomainError(
                f"power density needs 0 <= lo < hi <= pi, got ({self.lo}, {self.hi})")

    def mass_upto(self, x):
        """Integral of the density over (lo, min(x, hi)]; vectorized in x.
        Exactly 0 for x <= lo, where numpy's b**q and Python's lo**q may
        differ by an ulp."""
        x = np.asarray(x, dtype=float)
        b = np.clip(x, self.lo, self.hi)
        q = self.exponent + 1.0
        return np.where(b > self.lo, self.coef * (b ** q - self.lo ** q) / q,
                        0.0)

    @property
    def mass(self) -> float:
        return float(self.mass_upto(self.hi))

    def cos_transform(self, k):
        """``int cos(k y) * density(y) dy`` for an array of integer lags k in
        [1, MAX_LAGS].  More than _LAG_BLOCK lags are taken a block at a
        time, so a call holds its output and one block's temporaries; every
        step is elementwise, so a lag is the same float whatever lags come
        with it."""
        k = _lag_array(k)
        if k.size <= _LAG_BLOCK:
            return self._cos_block(k)
        out = np.empty_like(k)
        for i0 in range(0, len(k), _LAG_BLOCK):
            out[i0:i0 + _LAG_BLOCK] = self._cos_block(k[i0:i0 + _LAG_BLOCK])
        return out

    def _cos_block(self, k):
        p = self.exponent
        hi_m, _ = trig_power_moments(p, *dd.two_prod(k, self.hi))
        if self.lo > 0.0:
            lo_m, _ = trig_power_moments(p, *dd.two_prod(k, self.lo))
        else:
            lo_m = 0.0
        return self.coef * k ** (-(p + 1.0)) * (hi_m - lo_m)

    def formula(self, y):
        """The density at y in [lo, hi], both ends included."""
        return self.coef * np.asarray(y, dtype=float) ** self.exponent

    def integrate_against(self, g, points=(), *, tol, hi=None):
        """``int density(y) * g(y) dy`` over (lo, hi] (by default the whole
        support) by one ``integrate`` pass, with ``points`` cutting the
        product into smooth panels.  A panel evaluates both its ends, so a
        singular y**exponent at lo = 0 raises NumericError.  No route calls
        it, on any piece class; it stays only because perfbench/tracing.py
        wraps it on each class by name."""
        return integrate(lambda y: self.formula(y) * g(y), self.lo,
                         self.hi if hi is None else hi, points=points,
                         tol=tol)[0]

    def robinson_part(self, a: float = 0.0) -> float:
        """``int y**-2 density(y) dy`` over (max(lo, a), hi]; +inf when
        divergent at the origin or beyond the float range.  With q =
        exponent - 1 it is (hi**q - lo**q)/q, taken as ``b**q (-expm1(-|q|
        log(hi/lo))) / |q|`` (b = hi for q > 0, else lo), which does not
        cancel as q -> 0 and never takes expm1 of a positive argument."""
        lo = max(self.lo, a)
        if self.coef == 0.0 or lo >= self.hi:
            return 0.0
        q = self.exponent - 1.0
        if lo == 0.0:
            return math.inf if q <= 0.0 else self.coef * self.hi ** q / q
        log_ratio = math.log(self.hi / lo)
        if q == 0.0:
            return self.coef * log_ratio
        b = self.hi if q > 0.0 else lo
        shrink = -math.expm1(-abs(q) * log_ratio)
        try:
            return self.coef * b ** q * shrink / abs(q)
        except OverflowError:
            # lo**q beyond the float range: the product through logarithms,
            # +inf where it lies beyond the range too
            log_r = (math.log(self.coef) + q * math.log(lo)
                     + math.log(shrink / abs(q)))
            return math.exp(log_r) if log_r < _LOG_FLOAT_MAX else math.inf


# (lag, segment) cells per block of a table piece's cosine transforms: a
# table of up to four segments takes a whole lag block at once, and each of
# a block's temporaries stays 256 KB whatever the segment count
_SEGMENT_CELLS = 1 << 15


@dataclass(frozen=True)
class TableDensity:
    """Piecewise-linear density through (ys, vals); support (ys[0], ys[-1]]."""

    ys: tuple
    vals: tuple

    def __post_init__(self):
        ys = tuple(check_float(v, "table density grid point") for v in self.ys)
        vals = tuple(check_float(v, "table density value", 0.0)
                     for v in self.vals)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "vals", vals)
        if len(ys) < 2 or len(ys) != len(vals):
            raise DomainError("table density needs matching grids of length >= 2")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise DomainError("table density grid must be strictly increasing")
        if ys[0] < 0.0:
            raise DomainError("table density grid must start at >= 0")
        if ys[-1] > PI + _PI_SLACK:
            raise DomainError("table density grid must end at <= pi")

    @property
    def lo(self) -> float:
        return self.ys[0]

    @property
    def hi(self) -> float:
        return min(self.ys[-1], PI)

    def _arrays(self):
        return np.asarray(self.ys), np.asarray(self.vals)

    def mass_upto(self, x):
        x = np.asarray(x, dtype=float)
        ys, vals = self._arrays()
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(ys)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        b = np.clip(x, ys[0], ys[-1])
        i = np.clip(np.searchsorted(ys, b, side="right") - 1, 0, len(ys) - 2)
        fb = np.interp(b, ys, vals)
        partial = 0.5 * (vals[i] + fb) * (b - ys[i])
        return cum[i] + partial

    @property
    def mass(self) -> float:
        return float(self.mass_upto(self.ys[-1]))

    def cos_transform(self, k):
        """``int cos(k y) * density(y) dy`` for an array of integer lags k in
        [1, MAX_LAGS], exact per linear segment:
        ``int (a + s y) cos(k y) dy = [f(y) sin(k y)/k] + s [cos(k y)]/k**2``.

        The lags go in blocks of at most _SEGMENT_CELLS (lag, segment)
        cells, so a table of many segments holds no more than a few
        segments do.  A lag sums its segments along a contiguous row, so it
        is the same float whatever lags come with it.
        """
        k = _lag_array(k)
        ys, vals = self._arrays()
        out = np.empty_like(k)
        a, b = ys[:-1], ys[1:]
        fa, fb = vals[:-1], vals[1:]
        s = (fb - fa) / (b - a)
        step = max(1, _SEGMENT_CELLS // len(s))
        for i0 in range(0, len(k), step):
            kk = k[i0:i0 + step, None]
            # sin and cos of the exact angles k*y, as in trig_power_moments
            sb, cb = sin_cos(*dd.two_prod(kk, b[None, :]))
            sa, ca = sin_cos(*dd.two_prod(kk, a[None, :]))
            term = (fb[None, :] * sb - fa[None, :] * sa) / kk
            term += s[None, :] * (cb - ca) / kk ** 2
            out[i0:i0 + step] = term.sum(axis=1)
        return out

    def formula(self, y):
        """The density at y in [lo, hi], both ends included."""
        ys, vals = self._arrays()
        return np.interp(y, ys, vals)

    def integrate_against(self, g, points=(), *, tol, hi=None):
        """``PowerDensity.integrate_against``, with the grid points among
        the breakpoints."""
        pts = np.concatenate([np.asarray(points, dtype=float), np.asarray(self.ys)])
        return integrate(lambda y: self.formula(y) * g(y), self.lo,
                         self.hi if hi is None else hi,
                         points=pts, tol=tol)[0]

    def robinson_part(self, a: float = 0.0) -> float:
        """``int y**-2 density(y) dy`` over (max(lo, a), hi], exact per
        linear segment; +inf when divergent at the origin."""
        ys, vals = self._arrays()
        total = 0.0
        for y0, b, fa, fb in zip(ys[:-1], ys[1:], vals[:-1], vals[1:]):
            lo = max(y0, a)
            if lo >= b:
                continue
            if lo == 0.0:
                if fa == 0.0 and fb == 0.0:
                    continue
                return math.inf
            s = (fb - fa) / (b - y0)
            alpha = fa - s * y0
            total += alpha * (1.0 / lo - 1.0 / b) + s * math.log(b / lo)
        return total


# absolute accuracy target of an opaque piece's panel set: the sum of its
# panels' Chebyshev tails, an estimate of int |density - interpolant|, which
# bounds the error of every cosine transform and mass taken from the panels
_OPAQUE_TOL = 1e-12
# (panels x lags) cells per block of an opaque piece's cosine transforms;
# bounds the moment temporaries
_PANEL_CELLS = 1 << 12
# most dyadic points of an opaque piece's G (toward lo) and R(a) (toward 0)
_MASS_CUTS, _ROBINSON_CUTS = 520, 511


@dataclass(frozen=True)
class OpaqueDensity:
    """Caller-supplied density evaluator on (lo, hi]; library use only.

    The evaluator must accept ndarray input and return finite, nonnegative
    values on [lo, hi], both ends included (``formula`` checks every value).
    Opaque pieces cannot be serialized.  Their cosine transforms come from
    one set of Chebyshev panels, chosen once from the density alone
    (``_panels``); G and R(a) read those panels' edges plus dyadic points
    toward lo and the origin, so both stay accurate relative to themselves.
    """

    lo: float
    hi: float
    fn: Callable

    def __post_init__(self):
        object.__setattr__(self, "lo",
                           check_float(self.lo, "opaque density lo"))
        object.__setattr__(self, "hi", _clamp_pi(
            check_float(self.hi, "opaque density hi"), "density hi"))
        if not 0.0 <= self.lo < self.hi:
            raise DomainError(
                f"opaque density needs 0 <= lo < hi <= pi, got ({self.lo}, {self.hi})")

    @cached_property
    def _panels(self):
        # the panels that meet _OPAQUE_TOL, bisected from [lo, hi] by
        # Clenshaw-Curtis with Chebyshev-tail estimates; they do not depend
        # on any lag or point asked for later.  The mass grid adds points
        # dyadic toward lo; cum holds the mass below each of its points
        _, _, edges = bisect_panels(partial(clenshaw_curtis, self.formula),
                                    np.array([self.lo, self.hi]),
                                    tol=_OPAQUE_TOL,
                                    max_panels=_CHEB_MAX_PANELS)
        c, h, _, coef, _ = chebyshev_panels(self.formula, edges[:-1],
                                            edges[1:])
        span = edges[1] - self.lo
        cuts = self.lo + span * 2.0 ** -np.arange(_MASS_CUTS, 0, -1)
        grid = np.concatenate([edges[:1], cuts[cuts > self.lo], edges[1:]])
        cum = np.cumsum(clenshaw_curtis(self.formula, grid[:-1], grid[1:])[0])
        return (edges, c, h, coef, fine_fold(coef), grid,
                np.concatenate([[0.0], cum]))

    def mass_upto(self, x):
        """Integral of the density over (lo, min(x, hi)]; vectorized in x.

        The mass below the point a of the mass grid (``_panels``) next below
        x, plus ``clenshaw_curtis`` of the density on [a, x]: the grid is
        dyadic toward lo, so the value stays accurate relative to itself
        down to x - lo = 2**-520 (edges[1] - lo), or an ulp of lo > 0.  The
        rule sums along each point's own row, so a value is the same float
        whatever points come with it.
        """
        x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)),
                    self.lo, self.hi)
        grid, cum = self._panels[5:]
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0,
                    len(grid) - 2)
        return cum[i] + clenshaw_curtis(self.formula, grid[i], x)[0]

    @property
    def mass(self) -> float:
        return float(self.mass_upto(self.hi)[0])

    def cos_transform(self, k):
        """``int cos(k y) * density(y) dy`` for an array of integer lags k in
        [1, MAX_LAGS], to about _OPAQUE_TOL at every lag.

        A panel with centre c and half-width h contributes
        ``h Re(exp(i k c) sum_j coef_j mu_j(k h))``, the sum from
        ``interpolant_moments`` and the phase k c taken as an exact angle,
        as in a table piece's transform.  A lag sums its panels along a
        contiguous row, so it is the same float whatever lags come with it.
        """
        k = _lag_array(k)
        _, c, h, coef, fold = self._panels[:5]
        out = np.empty_like(k)
        step = max(1, _PANEL_CELLS // len(h))
        panel = np.arange(len(h))
        for i0 in range(0, len(k), step):
            kk = k[i0:i0 + step, None]
            v = interpolant_moments((kk * h).ravel(), np.tile(panel, len(kk)),
                                    coef, fold).reshape(len(kk), len(h))
            s, co = sin_cos(*dd.two_prod(kk, c))
            out[i0:i0 + step] = (h * (co * v.real - s * v.imag)).sum(axis=1)
        return out

    def formula(self, y):
        """The density at y in [lo, hi], both ends included; DomainError
        unless every value is finite and nonnegative."""
        v = np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=float)
        bad = ~((v >= 0.0) & (v < math.inf))
        if bad.any():
            raise DomainError(f"opaque density values must be finite and "
                              f">= 0, got {float(v[bad].flat[0])}")
        return v

    def integrate_against(self, g, points=(), *, tol, hi=None):
        """``PowerDensity.integrate_against``, over the breakpoints
        ``points``, not the piece's panel set."""
        return integrate(lambda y: self.formula(y) * g(y), self.lo,
                         self.hi if hi is None else hi, points=points,
                         tol=tol)[0]

    def robinson_part(self, a: float = 0.0) -> float:
        """``int y**-2 density(y) dy`` over (max(lo, a), hi] by one
        ``integrate`` pass over the piece's panel edges and the cuts hi
        2**-j above max(lo, a), j <= _ROBINSON_CUTS.  Divergence at a 0
        endpoint cannot be decided symbolically: the integrand reads 0 at
        y = 0, on a first panel that holds a negligible share of a
        convergent integral, and a divergent one raises NumericError."""
        lo = max(self.lo, a)
        if lo >= self.hi:
            return 0.0
        span = math.log2(self.hi) - math.log2(lo) if lo > 0.0 else math.inf
        cuts = self.hi * 2.0 ** -np.arange(1, min(span, _ROBINSON_CUTS) + 1)

        def integrand(y):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(y > 0.0, self.formula(y) / y ** 2, 0.0)

        return integrate(integrand, lo, self.hi,
                         points=np.concatenate([self._panels[0], cuts]),
                         tol=1e-9)[0]


DensityPiece = Union[PowerDensity, TableDensity, OpaqueDensity]


@dataclass(frozen=True)
class SpectralMeasure:
    """Folded spectral measure: origin atom + atoms in (0, pi] + density."""

    atom_at_zero: float = 0.0
    atoms: tuple = ()
    density: tuple = ()
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "atom_at_zero", check_float(
            self.atom_at_zero, "atom_at_zero", 0.0))

        atoms = tuple((
            _clamp_pi(check_float(loc, "atom location", above=0.0),
                      "atom location"),
            check_float(mass, "atom mass", above=0.0))
            for loc, mass in self.atoms)
        for loc, _ in atoms:
            if loc < _LOC_MIN:  # the atom sums' phase loc/2 would round
                raise DomainError(f"atom location must be at least 2**-1022 "
                                  f"(the least normal float), got {loc}")
        locs = [loc for loc, _ in atoms]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise DomainError("atom locations must be strictly increasing")
        object.__setattr__(self, "atoms", atoms)

        pieces = tuple(sorted(self.density, key=lambda p: p.lo))
        for left, right in zip(pieces, pieces[1:]):
            if right.lo < left.hi:
                raise DomainError(
                    f"density pieces overlap: ({left.lo}, {left.hi}] and "
                    f"({right.lo}, {right.hi}]")
        object.__setattr__(self, "density", pieces)

    def atom_arrays(self):
        """Atom locations and masses as float arrays (possibly empty)."""
        arr = np.asarray(self.atoms, dtype=float).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]

    # exp(i loc) and exp(i loc/2) per atom (``ddouble.cis``), made on first
    # use and kept: the measure never changes

    @cached_property
    def _cis(self):
        return dd.cis(1, self.atom_arrays()[0])

    @cached_property
    def _cis_half(self):
        return dd.cis(1, self.atom_arrays()[0] / 2.0)

    @property
    def total_mass(self) -> float:
        return float(g_eval(self, PI))


def g_eval(m: SpectralMeasure, x):
    """Cumulative mass G(x) of [0, x]; x may be a scalar or an array."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x >= 0.0) & (x <= PI + _PI_SLACK)):  # also rejects NaN
        raise DomainError("g_eval argument must lie in [0, pi]")
    x = np.minimum(x, PI)
    locs, masses = m.atom_arrays()
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    out = m.atom_at_zero + cum[np.searchsorted(locs, x, side="right")]
    for piece in m.density:
        out += piece.mass_upto(x)
    return float(out[0]) if scalar else out


# most lags, or rows, of a call whose cost is O(n) (autocovariance_batch,
# variance_profile, variance_covariance).  They walk their lags in blocks of
# _LAG_BLOCK (``lag_blocks``), so the cap bounds their time and the output of
# a profile or a batch (2 GiB at 2**28), not a workspace; a larger n raises
# DomainError before any array is made
MAX_LAGS = 2 ** 28
# lags per block of the O(n) routes and of a power piece's transform: a
# multiple of fejer_variance's _CUMSUM_BLOCK, and short enough that a
# block's temporaries (about 16 arrays of 64 KB in a power piece's
# transform) stay in cache and well under a profile's output.  No float
# depends on it: variance_covariance groups its sums by fejer_variance's
# _COVARIANCE_RUN, not by this block
_LAG_BLOCK = 2 ** 13
_ATOM_CELLS = 1 << 15  # (atoms x n) cells per block: its workspace fits L2
# (atom, n) cells per block of atom_fejer_points: ``cis``'s reduction and
# series take some 450 bytes a cell, so a block peaks near 4 MB; fewer
# cells pay the series' fixed ufunc calls more often
_GRID_CELLS = 1 << 13
# An atom with n loc <= _LOBE_CUT for every n of a Fejer sum lies in the
# kernel's main lobe, where 2 sin(n loc/2)**2 = 1 - cos(n loc) is its Taylor
# series in (n loc)**2; _LOBE_TERMS terms leave out one below 2**-106 of the
# first.  Its t_m = (-1)**(m+1) / (2m)! are the even rows of ddouble's.
# Past the first _LOBE_DD terms, each is below 2**-60 of the first, so
# float64 carries them to 2**-113 of it, at a tenth of a double-double
# Horner step's ufunc calls.  The series costs a fixed few hundred ufunc
# calls to build per call (``_lobe``) and as many per run of its rows, about
# 0.3 ms each on a 2-core x86_64 host, so only a run of at least _LOBE_RUN n
# takes it; a shorter one keeps every atom in the kernel (in process, the
# series cost more than the cells it saves below about 1000 n).
_LOBE_CUT = 1.0
_LOBE_TERMS = 14
_LOBE_DD = 9
_LOBE_RUN = 1024
# n per run of the lobe's rows in _atom_sums, a power of two: a row costs
# about 150 ns in runs of 2**13 n against 270 ns in runs of 1024 (same
# host), and the sixteen arrays of a run (1 MiB) take no more memory than
# the kernel's blocks, whose workspace they share
_LOBE_ROWS = 1 << 13
_LOBE_T = -dd._TAYLOR[2:2 * _LOBE_TERMS + 1:2]


def _lobe_rows(c, b2, start: int, steps, w):
    """``n**2 sum_m c[m] (n b)**(2m)`` (m from 0) for the n = start + steps,
    as an unnormalized pair (``ddouble.add`` takes it as is): c holds the
    Horner coefficients as pairs, b2 is b**2 ``presplit``, and w is sixteen
    arrays of steps' shape.  n and n**2 are pairs, exact and to 2**-106 for
    any n < 2**64; (n b)**2 is n**2 b**2, where b**2 underflows only when
    every (n b)**2 < 2**-896 is far below a term's resolution."""
    hi = float(start)
    n = dd.add((hi, float(start - int(hi))), (steps, 0.0), w[0:5])
    n2 = dd.sqr(n, (w[12], w[13], *w[2:7]))
    n2 = (*n2, *dd.split(n2[0], w[14:16]))
    x = dd.mul_presplit(n2, b2, w[8:12])
    x = (*x, *dd.split(x[0], w[10:12]))
    tail = w[0]  # the float64 terms, Horner's first partial sum
    np.copyto(tail, c[-1, 0])
    for cj in c[-2:_LOBE_DD - 1:-1]:
        np.add(np.multiply(tail, x[0], out=tail), cj[0], out=tail)
    p = dd.horner([*c[:_LOBE_DD], (tail, 0.0)], x, w[0:8])
    return dd.mul_presplit((*p, *dd.split(p[0], w[2:4])), n2, w[4:8])


def _atom_sums(t, z, weight, n0: int, count: int, imag: bool, out,
               lobe=None):
    """Per n = n0 .. n0+count-1, the atoms' sum of ``Re(weight z**n)`` or,
    with ``imag``, of ``Im(weight z**n)**2``, each rounded once, into the
    array out of count floats, which it returns; with ``lobe = (c, b2)``
    (``_lobe``), plus the ``_lobe_rows`` of n, added before that rounding.

    t holds an angle per atom and z = exp(i t) (a complex stack, ``cis(1,
    t)``), weight a real pair per atom (there may be none when a lobe is
    given).  The n lie on a grid n = n0 + a*B + b (b < B, B the least power
    of two with B*B >= count): the row table holds ``weight z**(n0 + aB)``,
    ``cis(n0, t)`` (z itself at n0 = 1) times the powers of z**B, and the
    column table z**b (``ddouble.power_grid``), so no angle n*t is ever
    rounded.  A cell takes only the part it needs of row times column, from
    two products of pre-split table values and one double-double addition;
    the atoms are summed pairwise in double-double (``ddouble.fold``).
    ``cis`` is good to about 2**-104 whatever n0, and the powers add up to
    count * 2**-104 relative, far below a float's resolution for count <=
    MAX_LAGS.

    The grid goes in blocks of whole rows or of part of one row: a block's
    run of n is a power of two, so it divides B, of about _ATOM_CELLS /
    (atoms + 1) n but never fewer than 64 (or the whole grid), so that no
    ufunc loops over short rows; its n are consecutive, so its sums go to
    one slice of out, and a block wholly past the last n is skipped.  Every
    block writes into one workspace made per call, seven arrays of (atoms +
    1) x block cells (the spare row pads the pairwise sum), through ufuncs
    with ``out``: no block allocates, and the workspace (1.75 MiB below
    512 atoms) fits a core's L2 cache.

    The lobe's rows come once per run of _LOBE_ROWS n (one block when a
    block is longer, every block when they span fewer n; with no atom in
    the kernel a block is a run), so the series' fixed ufunc calls are paid
    once per run, not once per block.  Runs and blocks start at multiples
    of the block's power-of-two length, so a run starts with a block: its
    sixteen arrays use the workspace before that block's kernel work does,
    its rows (an unnormalized pair) are kept apart, and each block adds its
    slice.  A row's n is the exact double-double of the integer n however
    the grid is split, so every row is the same float for any run.
    """
    atoms = z.shape[1]
    B, A = dd.grid_shape(count)
    cells = _ATOM_CELLS // (atoms + 1) if atoms else _LOBE_ROWS
    per = 1 << max(6, cells.bit_length() - 1)
    rb, cb = (max(1, min(per // B, A)), B) if per >= B else (1, per)
    if atoms:
        cols, rows = dd.power_grid(z, count)
        first = z if n0 == 1 else dd.cis(n0, t)  # z is cis(1, t)
        rows = dd.cmul(first[:, None], rows)
        rows = np.stack([*dd.mul(rows[0:2], weight),
                         *dd.mul(rows[2:4], weight)])
        # (atoms, rows, 1) and (atoms, 1, columns): cells broadcast to a block
        rows = np.ascontiguousarray(rows.transpose(0, 2, 1)[..., None])
        cols = np.ascontiguousarray(cols.transpose(0, 2, 1)[:, :, None])
        if imag:  # Im(r c) = Re r Im c + Im r Re c
            factors = (rows[0:2], cols[2:4]), (rows[2:4], cols[0:2])
        else:     # Re(r c) = Re r Re c - Im r Im c, negated in place
            np.negative(rows[2:4], out=rows[2:4])
            factors = (rows[0:2], cols[0:2]), (rows[2:4], cols[2:4])
        (x1, y1), (x2, y2) = [(dd.presplit(x), dd.presplit(y))
                              for x, y in factors]
    size = 7 * (atoms + 1) * rb * cb
    if lobe is not None:
        # the n of every block, end to end: whole rows, or whole column blocks
        span = A * B if cb == B else -(-count // cb) * cb
        run = min(max(_LOBE_ROWS, rb * cb), span)
        steps = np.arange(run, dtype=float)
        kept = np.empty((2, run))
        size = max(size, 16 * run)
    work = np.empty(size)
    # numpy copies a factor broadcast along a row through its ufunc buffer;
    # from 128 columns on, the copy costs more than the longer inner loops
    # it buys, so such blocks run with the least buffer
    old = np.setbufsize(16 if cb >= 128 else np.getbufsize())
    try:
        for a0 in range(0, A, rb):
            r = min(rb, A - a0)
            w = work[:7 * (atoms + 1) * r * cb].reshape(7, atoms + 1, r, cb)
            if atoms:
                c = tuple(w[:, :atoms])
                r1 = tuple(t[:, a0:a0 + r] for t in x1)
                r2 = tuple(t[:, a0:a0 + r] for t in x2)
            for b0 in range(0, min(B, count - a0 * B), cb):
                at = a0 * B + b0
                if lobe is not None and at % run == 0:
                    k = min(run, span - at)
                    kept[0, :k], kept[1, :k] = _lobe_rows(
                        *lobe, n0 + at, steps[:k],
                        work[:16 * k].reshape(16, k))
                hi = lo = 0.0
                if atoms:
                    v = dd.add(
                        dd.mul_presplit(
                            r1, tuple(t[..., b0:b0 + cb] for t in y1),
                            (c[0], c[1], c[5], c[6])),
                        dd.mul_presplit(
                            r2, tuple(t[..., b0:b0 + cb] for t in y2),
                            (c[2], c[3], c[5], c[6])),
                        (c[0], c[1], c[4], c[5], c[6]))
                    if imag:
                        dd.sqr(v, c)
                    hi, lo = dd.fold(w[0:2], atoms, w[2:5])
                if lobe is not None:
                    s = tuple(x[at % run:at % run + r * cb].reshape(r, cb)
                              for x in kept)
                    hi, lo = dd.add((hi, lo), s, (*s, *w[2:5, 0]))
                np.add(hi, lo, out=hi)
                out[at:at + r * cb] = hi.ravel()[:count - at]
    finally:
        np.setbufsize(old)
    return out


# The atom sums run on masses or weights times 2**-k and scale the sum back
# by 2**k (2**2k for squares), both exactly: k is the least k >= 0 that keeps
# every double-double value of the sum below 2**_DD_EXP, where a Veltkamp
# split (a factor times 2**27 + 1) and a sum over up to 2**33 atoms stay
# finite.  So a sum beyond the float range comes out inf, never NaN, and
# values that small to begin with, as every gallery measure's, give k = 0.
_DD_EXP = 990


def _downscale(exponents) -> int:
    """The least k >= 0 that brings values below 2**exponents (an array)
    under 2**_DD_EXP."""
    return max(0, int(np.max(exponents)) - _DD_EXP)


def atom_cos_sums(m: SpectralMeasure, k0: int, count: int, out=None):
    """``sum mass cos(k loc)`` over the atoms in (0, pi], for the integers
    k = k0 .. k0+count-1, into out (made when None): the real parts of mass
    exp(i loc)**k, summed in double-double (``_atom_sums``)."""
    locs, masses = m.atom_arrays()
    out = np.empty(count) if out is None else out
    if not len(locs):  # spares density measures the double-double work
        out.fill(0.0)
        return out
    k = _downscale(np.frexp(masses)[1])
    w = np.ldexp(masses, -k)
    _atom_sums(locs, m._cis, (w, np.zeros_like(w)), k0, count, imag=False,
               out=out)
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return np.ldexp(out, k, out=out)


def _lobe(locs, root_w):
    """The lobe of ``atom_fejer_sums`` for the atoms at locs, up to b, with
    the weights root_w (pairs): its Horner coefficients t_m S_m as pairs,
    m = 1 .. _LOBE_TERMS, and b**2 ``presplit``."""
    # each atom's (root_w loc)**2 / 2, near 2 mass 2**-2k whatever loc
    # (nothing underflows at 2**-1022), times (loc/b)**(2j) from products
    # of squares, rows j: S_(j+1) sums a row of positive pairs
    b = locs[-1]
    zero = np.zeros_like(locs)
    term = dd.sqr(dd.mul(root_w, (locs, zero)))
    q = dd.sqr(dd.div((locs, zero), (b + zero, zero)))
    powers = np.stack([np.ones((1, len(locs))), np.zeros((1, len(locs)))])
    while powers.shape[1] < _LOBE_TERMS:
        powers = np.concatenate([powers, np.stack(dd.mul(powers, q))], 1)
        q = dd.sqr(q)
    sums = dd.total(np.stack(dd.mul(powers[:, :_LOBE_TERMS],
                                    (0.5 * term[0], 0.5 * term[1]))), 2)
    return (np.stack(dd.mul(_LOBE_T.T, sums), axis=1),
            dd.presplit(dd.sqr((b, 0.0))))


def _fejer_weights(m: SpectralMeasure, bits):
    """The scale k of ``_downscale`` of the Fejer sums at n of each bit
    length in bits, and for each k the weights sqrt(mass) 2**-k /
    sin(loc/2) as pairs (a dict)."""
    masses = m.atom_arrays()[1]
    h = m._cis_half
    root = dd.sqrt((masses, np.zeros_like(masses)))
    # a weight root / sin(loc/2) lies below 2**e and the value a cell
    # squares below 2**min(e, e_root + bits of n), as |sin(nx) / sin x| <= n
    e_root = np.frexp(root[0])[1]
    e = e_root - np.frexp(h[2])[1] + 1
    e_cell = np.minimum(e, e_root + np.asarray(bits)[:, None])
    ks = [_downscale(x) for x in np.maximum(e, e_cell + _DD_EXP // 2)]
    return ks, {k: dd.div(np.ldexp(root, -k), h[2:4]) for k in set(ks)}


def atom_fejer_sums(m: SpectralMeasure, n0: int, count: int):
    """``sum mass sin(n loc/2)**2 / sin(loc/2)**2`` over the atoms in (0, pi],
    for the integers n = n0 .. n0+count-1, in double-double, rounded once.

    With w = mass / sin(loc/2)**2, an atom's term is w sin(n loc/2)**2 =
    (w/2) (1 - cos(n loc)).  The atoms with n loc <= _LOBE_CUT at the last
    n, a prefix of the sorted locations up to b, lie in the kernel's main
    lobe.  On a run of at least _LOBE_RUN n they enter each row once, as
    the Taylor series of 1 - cos: n**2 sum_m t_m (n b)**(2m-2) S_m over
    _LOBE_TERMS terms by Horner's rule, with t_m = (-1)**(m+1) / (2m)! and
    S_m = sum (w loc**2 / 2) (loc/b)**(2m-2) (``_lobe``, built per call).
    Only the other atoms run the kernel of ``_atom_sums``, on the squared
    imaginary parts of sqrt(w) exp(i loc/2)**n, whose sum the series joins
    before the one rounding.  A shorter run, whose cost is the series' and
    the kernel's fixed ufunc calls, not its cells, keeps every atom in the
    kernel.  A sum beyond the float range is inf.

    Every term is positive, so the sum carries about max(2**-100,
    count 2**-104) relative error before its one rounding, whatever n0: it
    is the correctly rounded value unless that lies within this of a tie or
    the sum nearly vanishes.
    """
    locs = m.atom_arrays()[0]
    if not len(locs):
        return np.zeros(count)
    h = m._cis_half
    n_last = n0 + count - 1
    (k,), weights = _fejer_weights(m, [n_last.bit_length()])
    root_w = weights[k]
    p = (int(np.searchsorted(locs, _LOBE_CUT / n_last, side="right"))
         if count >= _LOBE_RUN else 0)
    lobe = _lobe(locs[:p], (root_w[0][:p], root_w[1][:p])) if p else None
    sums = _atom_sums(locs[p:] / 2.0, h[:, p:], tuple(x[p:] for x in root_w),
                      n0, count, imag=True, out=np.empty(count), lobe=lobe)
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return np.ldexp(sums, 2 * k, out=sums)


def atom_fejer_points(m: SpectralMeasure, ns):
    """``atom_fejer_sums(m, n, 1)`` for each integer n of the 1-D array ns,
    bit for bit, from one pass over the (n, atom) grid.

    A single n's sum is its atoms' squared imaginary parts of the weight
    times ``cis(n, loc/2)``, summed pairwise in double-double and rounded
    once.  Here one ``cis`` call takes every cell of a block, each n keeps
    its own scale of ``_fejer_weights``, and each n's column is summed by
    one ``ddouble.fold`` over the atoms: every cell and every column sum is
    the same float as at that n alone, and only the fixed costs of a call
    are shared.  The n go in blocks of about _GRID_CELLS cells, so the
    memory does not grow with ns, and a sum beyond the float range is inf.
    """
    locs = m.atom_arrays()[0]
    ns = np.asarray(ns, dtype=np.int64)
    if not (len(locs) and len(ns)):
        return np.zeros(len(ns))
    atoms, t = len(locs), locs / 2.0
    # the scale depends on n through its bit length alone
    lengths, which = np.unique([n.bit_length() for n in ns.tolist()],
                               return_inverse=True)
    ks, weights = _fejer_weights(m, lengths)
    weights = np.stack([np.stack(weights[k]) for k in ks])
    shifts = 2 * np.array(ks)
    per = max(1, _GRID_CELLS // atoms)
    work = np.empty((7, atoms + 1, min(per, len(ns))))
    out = np.empty(len(ns))
    for i in range(0, len(ns), per):
        n, j = ns[i:i + per], which[i:i + per]
        w = work[..., :len(n)]
        z = dd.cis(np.broadcast_to(n, (atoms, len(n))).ravel(),
                   np.repeat(t, len(n)))
        v = dd.mul(z[2:4].reshape(2, atoms, -1),
                   weights[j].transpose(1, 2, 0))
        dd.sqr(v, tuple(x[:atoms] for x in w))
        hi, lo = dd.fold(w[0:2], atoms, w[2:5])
        with np.errstate(over="ignore"):  # beyond the float range: inf
            out[i:i + len(n)] = np.ldexp(hi + lo, shifts[j])
    return out


def atom_covariance_sums(m: SpectralMeasure, n: int) -> float:
    """``sum_{|k|<n} (n-|k|) sum mass cos(k loc)`` over the atoms in (0, pi]:
    their share of the triangular covariance sum, rounded once.

    Per atom it is ``2 Re (n U - V) - n`` with ``U = sum_{k<n} z**k``, ``V =
    sum_{k<n} k z**k``, z = exp(i loc), in double-double by doubling (Knuth,
    TAOCP 4.6.3): from j = 1 (1, 0, z), U, V and P = z**j of the lags below
    j join a copy, ``U += P U``, ``V += P (V + j U)``, ``P = P**2``, then on
    a 1 bit of n one lag, ``U += P``, ``V += j P``, ``P = P z``: O(atoms log
    n) time, O(atoms) memory.  A join is one ``cscale``, two ``cadd`` and
    one ``cmul``, which takes the three products by P at once; each is one
    batched pass of ufunc calls over the atoms.  z**k is off by about
    k 2**-104, a term by at most 2**-104 n**3 mass, so this equals
    ``atom_fejer_sums`` bit for bit unless the sum nearly vanishes or lies
    within that of a tie (tested at dyadic n on ``nonergodic``).
    """
    locs, masses = m.atom_arrays()
    if not len(locs):
        return 0.0
    one = np.zeros((4, 3, len(locs)))  # U, V and P of the lag 0: 1, 0, z
    one[0, 0], one[:, 2] = 1.0, m._cis
    s, j = one, 1
    for bit in bin(n)[3:]:
        for t, i in ((s, j), (one, 1))[:1 + int(bit)]:  # join s, then t
            v = dd.cadd(t[:, 1], dd.cscale(t[:, 0], float(j)))
            x = dd.cmul(s[:, 2:], np.stack([t[:, 0], v, t[:, 2]], axis=1))
            x[:, :2] = dd.cadd(s[:, :2], x[:, :2])
            s, j = x, j + i
    w = dd.add(dd.mul(s[0:2, 0], (2.0 * n, 0.0)), -2.0 * s[0:2, 1])  # 2 Re W
    k = _downscale(np.frexp(masses)[1] + 2 * n.bit_length())  # mass n**2
    per_atom = dd.mul(dd.add(w, (-float(n), 0.0)), (np.ldexp(masses, -k), 0.0))
    hi, lo = dd.total(np.stack(per_atom))
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return float(np.ldexp(hi + lo, k))


def lag_blocks(k0: int, count: int):
    """The lags k0 .. k0+count-1 in blocks of at most _LAG_BLOCK, as pairs
    (offset of the block in the run, int array of its lags): the O(n)
    routes take their cosine transforms block by block, so each holds one
    block's work at a time, not an array of all the lags."""
    for a in range(0, count, _LAG_BLOCK):
        yield a, np.arange(k0 + a, k0 + min(count, a + _LAG_BLOCK))


def _lags(m: SpectralMeasure, k0: int, count: int, out=None):
    """r_k for k = k0 .. k0+count-1 (k0 >= 1; the range may be empty), into
    out (made when None): ``atom_cos_sums`` plus the origin atom, then each
    piece's ``cos_transform`` added block by block (``lag_blocks``)."""
    out = atom_cos_sums(m, k0, count, out)
    out += m.atom_at_zero
    for a, k in lag_blocks(k0, count):
        for piece in m.density:
            out[a:a + len(k)] += piece.cos_transform(k)
    return out


def autocovariance(m: SpectralMeasure, k: int) -> float:
    """Lag-k autocovariance r_k of the sequence with spectral measure m.

    Folded form: ``r_k = atom_at_zero + sum cos(k loc) mass
    + int cos(k y) density(y) dy``; in particular r_0 is the total mass.
    A lag k >= 1 comes from ``_lags``, as in ``autocovariance_batch``; with
    density pieces, k is at most ``MAX_LAGS`` (their ``cos_transform``).
    """
    k = check_int(k, "lag", 0)
    if k == 0:
        return float(g_eval(m, PI))
    return float(_lags(m, k, 1)[0])


def check_lags(n, what: str) -> int:
    """``n`` as an int in [1, MAX_LAGS], else DomainError naming ``what``;
    checked before an O(n) array is made."""
    n = check_int(n, what, 1)
    if n > MAX_LAGS:
        raise DomainError(f"{what} must be <= MAX_LAGS = {MAX_LAGS}, got {n}")
    return n


def _lag_array(k):
    """``k`` as a float array of integer lags in [1, MAX_LAGS], else
    DomainError; checked before a cosine transform sizes anything by k."""
    k = np.asarray(k, dtype=float)
    bad = ~((k >= 1.0) & (k <= MAX_LAGS) & (k == np.floor(k)))
    if bad.any():
        raise DomainError(f"lags must be integers in [1, MAX_LAGS = "
                          f"{MAX_LAGS}], got {float(k[bad].flat[0])}")
    return k


def autocovariance_batch(m: SpectralMeasure, n: int):
    """Array of r_0 .. r_{n-1}: the total mass, then ``_lags`` written into
    the array, its cosine transforms one lag block of _LAG_BLOCK lags at a
    time, so the call holds its output and one block's work (a few hundred
    KB); n is at most ``MAX_LAGS``."""
    n = check_lags(n, "batch length")
    out = np.empty(n)
    out[0] = g_eval(m, PI)
    _lags(m, 1, n - 1, out[1:])
    return out


def robinson_integral(m: SpectralMeasure, a: float = 0.0) -> float:
    """The inverse-square mass ``R(a) = int_(a,pi] y**-2 dG(y)`` (at a = 0,
    ``int_[0,pi]``), +inf when divergent; DomainError unless 0 <= a <= pi.

    Finiteness of R(0) is the boundedness criterion for the whole sequence
    sup_n Var(S_n); any origin atom makes it +inf.  ``sandwich`` takes its
    upper bound from R(A/n), which counts only atoms above A/n.
    """
    a = check_float(a, "robinson_integral lower limit", 0.0, PI)
    if a == 0.0 and m.atom_at_zero > 0.0:
        return math.inf
    locs, masses = m.atom_arrays()
    above = locs > a
    total = float((masses[above] / locs[above] ** 2).sum())
    for piece in m.density:
        part = piece.robinson_part(a)
        if math.isinf(part):
            return math.inf
        total += part
    return total


# --- JSON serialization ----------------------------------------------------

def measure_to_dict(m: SpectralMeasure) -> dict:
    """Measure as a plain dict matching the JSON schema."""
    density = []
    for piece in m.density:
        if isinstance(piece, PowerDensity):
            density.append({"type": "power", "coef": piece.coef,
                            "exp": piece.exponent, "lo": piece.lo,
                            "hi": piece.hi})
        elif isinstance(piece, TableDensity):
            density.append({"type": "table", "ys": list(piece.ys),
                            "vals": list(piece.vals)})
        else:
            raise SerializationError(
                "opaque density pieces cannot be serialized; rebuild the "
                "measure with power or table pieces")
    return {"atom_at_zero": m.atom_at_zero,
            "atoms": [{"y": loc, "mass": mass} for loc, mass in m.atoms],
            "density": density}


def _expect_number(obj, path, **ends):
    # a JSON number through check_float and its ends; ValidationError at path
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError("expected a number", path)
    try:
        return check_float(obj, "value", **ends)
    except DomainError as exc:
        raise ValidationError(str(exc), path) from None


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ValidationError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ValidationError("unknown key", f"{path}.{key}" if path else key)


def measure_from_dict(d: dict) -> SpectralMeasure:
    """Build a measure from schema-shaped data, validating with key paths."""
    _check_keys(d, {"atom_at_zero", "atoms", "density"}, "")
    atom0 = _expect_number(d.get("atom_at_zero", 0.0), "atom_at_zero",
                           minimum=0.0)

    atoms = []
    raw_atoms = d.get("atoms", [])
    if not isinstance(raw_atoms, list):
        raise ValidationError("expected a list", "atoms")
    for i, entry in enumerate(raw_atoms):
        path = f"atoms[{i}]"
        _check_keys(entry, {"y", "mass"}, path)
        if "y" not in entry or "mass" not in entry:
            raise ValidationError("entry needs keys y and mass", path)
        y = _expect_number(entry["y"], f"{path}.y", above=0.0)
        if y > PI + _PI_SLACK:
            raise ValidationError("atom location exceeds pi", f"{path}.y")
        mass = _expect_number(entry["mass"], f"{path}.mass", above=0.0)
        atoms.append((min(y, PI), mass))
    atoms.sort()
    for (y1, _), (y2, _) in zip(atoms, atoms[1:]):
        if y1 == y2:
            raise ValidationError(f"duplicate atom location {y1}", "atoms")

    pieces = []
    raw_density = d.get("density", [])
    if not isinstance(raw_density, list):
        raise ValidationError("expected a list", "density")
    for i, entry in enumerate(raw_density):
        path = f"density[{i}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValidationError("density piece needs a type", path)
        kind = entry["type"]
        if kind == "power":
            _check_keys(entry, {"type", "coef", "exp", "lo", "hi"}, path)
            coef = _expect_number(entry.get("coef", 0.0), f"{path}.coef",
                                  minimum=0.0)
            exp = _expect_number(entry.get("exp"), f"{path}.exp", above=-1.0)
            lo = _expect_number(entry.get("lo", 0.0), f"{path}.lo",
                                minimum=0.0)
            hi = _expect_number(entry.get("hi", PI), f"{path}.hi")
            if hi > PI + _PI_SLACK:
                raise ValidationError("interval end exceeds pi", f"{path}.hi")
            try:
                pieces.append(PowerDensity(lo=lo, hi=min(hi, PI), coef=coef,
                                           exponent=exp))
            except DomainError as exc:
                raise ValidationError(str(exc), path) from exc
        elif kind == "table":
            _check_keys(entry, {"type", "ys", "vals"}, path)
            ys = entry.get("ys")
            vals = entry.get("vals")
            if not isinstance(ys, list) or not isinstance(vals, list):
                raise ValidationError("table needs ys and vals lists", path)
            ys = [_expect_number(v, f"{path}.ys[{j}]") for j, v in enumerate(ys)]
            vals = [_expect_number(v, f"{path}.vals[{j}]", minimum=0.0)
                    for j, v in enumerate(vals)]
            try:
                pieces.append(TableDensity(ys=tuple(ys), vals=tuple(vals)))
            except DomainError as exc:
                raise ValidationError(str(exc), path) from exc
        else:
            raise ValidationError(f"unknown density type {kind!r}", f"{path}.type")

    try:
        return SpectralMeasure(atom_at_zero=atom0, atoms=tuple(atoms),
                               density=tuple(pieces))
    except DomainError as exc:
        raise ValidationError(str(exc)) from exc


def measure_to_json(m: SpectralMeasure) -> str:
    return json.dumps(measure_to_dict(m), sort_keys=True)


def measure_from_json(text: str) -> SpectralMeasure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return measure_from_dict(data)
