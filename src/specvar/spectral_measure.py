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
from .errors import DomainError, SerializationError, ValidationError, check_int
from .quadrature import (_CHEB_MAX_PANELS, bisect_panels,
                         chebyshev_panels, clenshaw_curtis, fine_fold,
                         integrate, interpolant_moments)
from .specfun import sin_cos, trig_power_moments

PI = math.pi
_LOC_MIN = 2.0 ** -1022
_PI_SLACK = 1e-12  # how far beyond float pi interval bounds may stray


def _finite(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x}")
    return x


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
        for name in ("lo", "hi", "coef", "exponent"):
            object.__setattr__(self, name, _finite(getattr(self, name),
                                                   f"power density {name}"))
        object.__setattr__(self, "hi", _clamp_pi(self.hi, "density hi"))
        if not 0.0 <= self.lo < self.hi:
            raise DomainError(
                f"power density needs 0 <= lo < hi <= pi, got ({self.lo}, {self.hi})")
        if not self.coef >= 0.0:
            raise DomainError(f"power density coefficient must be >= 0, got {self.coef}")
        if not self.exponent > -1.0:
            raise DomainError(
                f"power density exponent must exceed -1, got {self.exponent}")

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
        [1, MAX_LAGS]."""
        k = _lag_array(k)
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


@dataclass(frozen=True)
class TableDensity:
    """Piecewise-linear density through (ys, vals); support (ys[0], ys[-1]]."""

    ys: tuple
    vals: tuple

    def __post_init__(self):
        ys = tuple(_finite(v, "table density grid point") for v in self.ys)
        vals = tuple(_finite(v, "table density value") for v in self.vals)
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
        if any(v < 0.0 for v in vals):
            raise DomainError("table density values must be nonnegative")

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
        # exact per linear segment:
        # int (a + s*y) cos(ky) dy = [f(y) sin(ky)/k] + s (cos(kb)-cos(ka))/k^2
        k = _lag_array(k)
        ys, vals = self._arrays()
        out = np.zeros_like(k)
        a, b = ys[:-1], ys[1:]
        fa, fb = vals[:-1], vals[1:]
        s = (fb - fa) / (b - a)
        for i0 in range(0, len(k), 8192):
            kk = k[i0:i0 + 8192, None]
            # sin and cos of the exact angles k*y, as in trig_power_moments
            sb, cb = sin_cos(*dd.two_prod(kk, b[None, :]))
            sa, ca = sin_cos(*dd.two_prod(kk, a[None, :]))
            term = (fb[None, :] * sb - fa[None, :] * sa) / kk
            term += s[None, :] * (cb - ca) / kk ** 2
            out[i0:i0 + 8192] = term.sum(axis=1)
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
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", _clamp_pi(float(self.hi), "density hi"))
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
        a0 = float(self.atom_at_zero)
        if not (math.isfinite(a0) and a0 >= 0.0):
            raise DomainError(f"atom_at_zero must be finite and >= 0, got {a0}")
        object.__setattr__(self, "atom_at_zero", a0)

        atoms = tuple((
            _clamp_pi(float(loc), "atom location"), float(mass))
            for loc, mass in self.atoms)
        for loc, mass in atoms:
            if not loc > 0.0:
                raise DomainError(f"atom location must lie in (0, pi], got {loc}")
            if loc < _LOC_MIN:  # the atom sums' phase loc/2 would round
                raise DomainError(f"atom location must be at least 2**-1022 "
                                  f"(the least normal float), got {loc}")
            if not (math.isfinite(mass) and mass > 0.0):
                raise DomainError(f"atom mass must be finite and > 0, got {mass}")
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

    @property
    def is_atomic(self) -> bool:
        return not self.density


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


# most lags, or rows, of a call that builds O(n) arrays (autocovariance_batch,
# variance_profile): 2 GiB per float64 array, enough for a full profile to
# 2**26; a larger n raises DomainError instead of numpy's MemoryError
MAX_LAGS = 2 ** 28
_ATOM_CELLS = 1 << 15  # (atoms x n) cells per block: its workspace fits L2


def _atom_sums(t, z, weight, n0: int, count: int, imag: bool):
    """Per n = n0 .. n0+count-1, the atoms' sum of ``Re(weight z**n)`` or,
    with ``imag``, of ``Im(weight z**n)**2``, each rounded once.

    t holds an angle per atom and z = exp(i t) (a complex stack, ``cis(1,
    t)``), weight a real pair per atom.  The n lie on a grid n = n0 + a*B + b
    (b < B, B the least power of two with B*B >= count): the row table holds
    ``weight z**(n0 + aB)``, ``cis(n0, t)`` times the powers of z**B, and the
    column table z**b (``cpowers`` both), so no angle n*t is ever rounded.
    A cell takes only the part it needs of row times column, from two
    products of pre-split table values and one double-double addition; the
    atoms are summed pairwise in double-double (``ddouble.fold``).  ``cis``
    is good to about 2**-104 whatever n0, and the powers add up to count *
    2**-104 relative, far below a float's resolution for count <= MAX_LAGS.

    The grid goes in blocks of whole rows or of part of one row: a block's
    run of n is a power of two, so it divides B, of about _ATOM_CELLS /
    atoms n but never fewer than 64 (or the whole grid), so that no ufunc
    loops over short rows.  Every block writes into one workspace made per
    call, seven arrays of (atoms + 1) x block cells (the spare row pads the
    pairwise sum), through ufuncs with ``out``: no block allocates, and at
    _ATOM_CELLS cells the workspace stays in a core's L2 cache.
    """
    atoms = z.shape[1]
    B = 1 << ((count - 1).bit_length() + 1) // 2
    A = -(-count // B)
    cols, zB = dd.cpowers(z, B)
    rows = dd.cmul(dd.cis(n0, t)[:, None], dd.cpowers(zB, A)[0])
    rows = np.stack([*dd.mul(rows[0:2], weight), *dd.mul(rows[2:4], weight)])
    # (atoms, rows, 1) and (atoms, 1, columns): cells broadcast to a block
    rows = np.ascontiguousarray(rows.transpose(0, 2, 1)[..., None])
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1)[:, :, None])
    if imag:  # Im(r c) = Re r Im c + Im r Re c
        factors = (rows[0:2], cols[2:4]), (rows[2:4], cols[0:2])
    else:     # Re(r c) = Re r Re c - Im r Im c
        factors = (rows[0:2], cols[0:2]), (-rows[2:4], cols[2:4])
    (x1, y1), (x2, y2) = [(dd.presplit(x), dd.presplit(y))
                          for x, y in factors]
    per = 1 << max(6, (_ATOM_CELLS // atoms).bit_length() - 1)
    rb, cb = (max(1, min(per // B, A)), B) if per >= B else (1, per)
    work = np.empty((7, (atoms + 1) * rb * cb))
    grid = np.empty((A, B))
    # numpy copies a factor broadcast along a row through its ufunc buffer;
    # from 128 columns on, the copy costs more than the longer inner loops
    # it buys, so such blocks run with the least buffer
    old = np.setbufsize(16 if cb >= 128 else np.getbufsize())
    try:
        for a0 in range(0, A, rb):
            r = min(rb, A - a0)
            w = work[:, :(atoms + 1) * r * cb].reshape(7, atoms + 1, r, cb)
            c = tuple(w[:, :atoms])
            r1 = tuple(t[:, a0:a0 + r] for t in x1)
            r2 = tuple(t[:, a0:a0 + r] for t in x2)
            for b0 in range(0, B, cb):
                v = dd.add(
                    dd.mul_presplit(r1, tuple(t[..., b0:b0 + cb] for t in y1),
                                    (c[0], c[1], c[5], c[6])),
                    dd.mul_presplit(r2, tuple(t[..., b0:b0 + cb] for t in y2),
                                    (c[2], c[3], c[5], c[6])),
                    (c[0], c[1], c[4], c[5], c[6]))
                if imag:
                    dd.sqr(v, c)
                hi, lo = dd.fold(w[0:2], atoms, w[2:5])
                np.add(hi, lo, out=grid[a0:a0 + r, b0:b0 + cb])
    finally:
        np.setbufsize(old)
    return grid.ravel()[:count]


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


def atom_cos_sums(m: SpectralMeasure, k0: int, count: int):
    """``sum mass cos(k loc)`` over the atoms in (0, pi], for the integers
    k = k0 .. k0+count-1: the real parts of mass exp(i loc)**k, summed in
    double-double (``_atom_sums``)."""
    locs, masses = m.atom_arrays()
    if not len(locs):  # spares density measures the double-double work
        return np.zeros(count)
    k = _downscale(np.frexp(masses)[1])
    w = np.ldexp(masses, -k)
    return np.ldexp(_atom_sums(locs, m._cis, (w, np.zeros_like(w)), k0,
                               count, imag=False), k)


def atom_fejer_sums(m: SpectralMeasure, n0: int, count: int):
    """``sum mass sin(n loc/2)**2 / sin(loc/2)**2`` over the atoms in (0, pi],
    for the integers n = n0 .. n0+count-1: the squared imaginary parts of
    sqrt(w) exp(i loc/2)**n with w = mass / sin(loc/2)**2 (``_atom_sums``).

    Every term is positive, so the sum carries about max(2**-100,
    count 2**-104) relative error before its one rounding, whatever n0: it
    is the correctly rounded value unless that lies within this of a tie or
    the sum nearly vanishes.
    """
    locs, masses = m.atom_arrays()
    if not len(locs):
        return np.zeros(count)
    h = m._cis_half
    root = dd.sqrt((masses, np.zeros_like(masses)))
    # a weight root / sin(loc/2) lies below 2**e and the value a cell
    # squares below 2**min(e, e_root + bits of n), as |sin(nx) / sin x| <= n
    e_root = np.frexp(root[0])[1]
    e = e_root - np.frexp(h[2])[1] + 1
    e_cell = np.minimum(e, e_root + (n0 + count - 1).bit_length())
    k = _downscale(np.maximum(e, e_cell + _DD_EXP // 2))
    root_w = dd.div(np.ldexp(root, -k), h[2:4])
    return np.ldexp(_atom_sums(locs / 2.0, h, root_w, n0, count, imag=True),
                    2 * k)


def atom_covariance_sums(m: SpectralMeasure, n: int) -> float:
    """``sum_{|k|<n} (n-|k|) sum mass cos(k loc)`` over the atoms in (0, pi]:
    their share of the triangular covariance sum, rounded once.

    Per atom the lag sum is ``2 Re W - n`` with ``W = sum_{k<n} (n-k) z**k``
    and z = exp(i loc), taken in double-double on the grid k = a*B + b
    (b < B, B*B >= n): ``W = sum_a z**(aB) ((n - aB) U - V)`` with
    ``U = sum_b z**b`` and ``V = sum_b b z**b``, the last row summing only
    its first L = n - (A-1)B lags.  The powers come from repeated squaring,
    so no cos(k loc) is ever rounded, and the cost is O(sqrt(n)) per atom.
    The error before the one rounding is about 2**-100 * n**1.5 * mass, so
    this equals ``atom_fejer_sums`` bit for bit unless the variance nearly
    vanishes or lies within that of a tie.
    """
    locs, masses = m.atom_arrays()
    if not len(locs):
        return 0.0
    B = 1 << ((n - 1).bit_length() + 1) // 2
    A = -(-n // B)
    L = n - (A - 1) * B
    zb, zB = dd.cpowers(m._cis, B)
    za, _ = dd.cpowers(zB, A)
    bzb = dd.cscale(zb, np.arange(B, dtype=float)[:, None])
    u = dd.cscale(dd.total(zb)[:, None],
                  n - B * np.arange(A, dtype=float)[:, None])
    u[:, -1] = dd.cscale(dd.total(zb[:, :L]), np.float64(L))
    v = np.repeat(-dd.total(bzb)[:, None], A, axis=1)
    v[:, -1] = -dd.total(bzb[:, :L])
    rows = np.concatenate([dd.add(u[i:i + 2], v[i:i + 2]) for i in (0, 2)])
    w = dd.total(dd.cmul(za, rows))
    k = _downscale(np.frexp(masses)[1] + 2 * n.bit_length())  # mass n**2
    per_atom = dd.mul(dd.add((2.0 * w[0], 2.0 * w[1]), (-float(n), 0.0)),
                      (np.ldexp(masses, -k), 0.0))
    hi, lo = dd.total(np.stack(per_atom))
    return float(np.ldexp(hi + lo, k))


def _lags(m: SpectralMeasure, k0: int, count: int):
    """r_k for k = k0 .. k0+count-1 (k0 >= 1; the range may be empty): the
    origin atom, ``atom_cos_sums`` and each piece's ``cos_transform``."""
    r = m.atom_at_zero + atom_cos_sums(m, k0, count)
    k = np.arange(k0, k0 + count)
    for piece in m.density:
        r += piece.cos_transform(k)
    return r


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
    """Array of r_0 .. r_{n-1}: the total mass, then ``_lags`` (vectorized
    over lags); n is at most ``MAX_LAGS``."""
    n = check_lags(n, "batch length")
    return np.concatenate([[g_eval(m, PI)], _lags(m, 1, n - 1)])


def robinson_integral(m: SpectralMeasure, a: float = 0.0) -> float:
    """The inverse-square mass ``R(a) = int_(a,pi] y**-2 dG(y)`` (at a = 0,
    ``int_[0,pi]``), +inf when divergent; DomainError unless 0 <= a <= pi.

    Finiteness of R(0) is the boundedness criterion for the whole sequence
    sup_n Var(S_n); any origin atom makes it +inf.  ``sandwich`` takes its
    upper bound from R(A/n), which counts only atoms above A/n.
    """
    a = float(a)
    if not 0.0 <= a <= PI:  # also rejects NaN
        raise DomainError(f"robinson_integral lower limit must lie in "
                          f"[0, pi], got {a}")
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


def _expect_number(obj, path, minimum=None, strict=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError("expected a number", path)
    v = float(obj)
    if not math.isfinite(v):
        raise ValidationError("expected a finite number", path)
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ValidationError(f"expected a number {op} {minimum}", path)
    return v


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ValidationError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ValidationError("unknown key", f"{path}.{key}" if path else key)


def measure_from_dict(d: dict) -> SpectralMeasure:
    """Build a measure from schema-shaped data, validating with key paths."""
    _check_keys(d, {"atom_at_zero", "atoms", "density"}, "")
    atom0 = _expect_number(d.get("atom_at_zero", 0.0), "atom_at_zero", 0.0)

    atoms = []
    raw_atoms = d.get("atoms", [])
    if not isinstance(raw_atoms, list):
        raise ValidationError("expected a list", "atoms")
    for i, entry in enumerate(raw_atoms):
        path = f"atoms[{i}]"
        _check_keys(entry, {"y", "mass"}, path)
        if "y" not in entry or "mass" not in entry:
            raise ValidationError("entry needs keys y and mass", path)
        y = _expect_number(entry["y"], f"{path}.y", 0.0, strict=True)
        if y > PI + _PI_SLACK:
            raise ValidationError("atom location exceeds pi", f"{path}.y")
        mass = _expect_number(entry["mass"], f"{path}.mass", 0.0, strict=True)
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
            coef = _expect_number(entry.get("coef", 0.0), f"{path}.coef", 0.0)
            exp = _expect_number(entry.get("exp"), f"{path}.exp")
            lo = _expect_number(entry.get("lo", 0.0), f"{path}.lo", 0.0)
            hi = _expect_number(entry.get("hi", PI), f"{path}.hi")
            if hi > PI + _PI_SLACK:
                raise ValidationError("interval end exceeds pi", f"{path}.hi")
            if not exp > -1.0:
                raise ValidationError("exponent must exceed -1", f"{path}.exp")
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
            vals = [_expect_number(v, f"{path}.vals[{j}]", 0.0)
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
