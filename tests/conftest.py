import io
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from specvar import PowerDensity, SpectralMeasure, g_eval
from specvar import ddouble as dd
from specvar.quadrature import _DEG
from specvar.cli import run as cli_run


def scale_measure(m: SpectralMeasure, c: float) -> SpectralMeasure:
    """Measure with every mass and density multiplied by c (for linearity tests)."""
    atoms = tuple((loc, c * mass) for loc, mass in m.atoms)
    pieces = tuple(
        PowerDensity(p.lo, p.hi, c * p.coef, p.exponent) for p in m.density)
    return SpectralMeasure(atom_at_zero=c * m.atom_at_zero, atoms=atoms,
                           density=pieces)


_PI_EXACT = Fraction(Decimal(
    "3.14159265358979323846264338327950288419716939937510"))


def _reduce(x: Fraction, period: Fraction) -> float:
    """x modulo period, to the nearest representative, as a float."""
    return float(x - round(x / period) * period)


def atomic_variance_oracle(m: SpectralMeasure, n: int) -> float:
    """Independent direct sum over atoms, no shared code with the package.

    Each n * loc / 2 is formed exactly as a fraction and reduced modulo pi
    (the period of sin**2) against a 50-digit pi, and the terms are added
    with math.fsum, so the sum keeps full float accuracy for n far beyond
    2**18.
    """
    terms = [m.atom_at_zero * float(n) ** 2]
    for loc, mass in m.atoms:
        r = _reduce(Fraction(n) * Fraction(loc) / 2, _PI_EXACT)
        terms.append((math.sin(r) / math.sin(loc / 2.0)) ** 2 * mass)
    return math.fsum(terms)


def atomic_autocovariance_oracle(m: SpectralMeasure, k: int) -> float:
    """Lag-k autocovariance of an atomic measure by an independent direct sum.

    Each k * loc is formed exactly as a fraction and reduced modulo 2 pi
    against the same 50-digit pi; the terms are added with math.fsum.
    """
    terms = [m.atom_at_zero]
    for loc, mass in m.atoms:
        r = _reduce(Fraction(k) * Fraction(loc), 2 * _PI_EXACT)
        terms.append(math.cos(r) * mass)
    return math.fsum(terms)


def machin_pi(bits: int) -> int:
    """floor(pi * 2**bits) from Machin's formula pi = 16 atan(1/5) -
    4 atan(1/239), each arctangent a series in integers with 64 guard bits."""
    one = 1 << (bits + 64)

    def atan_inv(x):
        total = term = one // x
        k = 1
        while term:
            term //= x * x
            total += (-1) ** k * (term // (2 * k + 1))
            k += 1
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> 64


def cis_reference(n: int, x: float):
    """cos(n x) and sin(n x) as fractions, good to about 1e-55 and for small
    angles also relative: n x formed exactly, reduced modulo 2 pi against a
    320-bit pi (Machin), then the Taylor series in 60-digit decimals."""
    two_pi = Fraction(machin_pi(320), 2 ** 319)
    a = Fraction(n) * Fraction(x)
    a -= round(a / two_pi) * two_pi
    with localcontext(Context(prec=60)):
        t = Decimal(a.numerator) / Decimal(a.denominator)
        eps = abs(t) * Decimal("1e-58")
        parts, term, k = [Decimal(0), Decimal(0)], Decimal(1), 0  # cos, sin
        while abs(term) > eps:
            parts[k % 2] += term if k % 4 < 2 else -term
            k += 1
            term = term * t / k
    return Fraction(parts[0]), Fraction(parts[1])


def atomic_variance_exact(m: SpectralMeasure, n: int) -> float:
    """Var(S_n) of an atomic measure, rounded once (inf beyond the float
    range): the origin atom's a * n**2 plus each atom's mass (sin(n loc/2) /
    sin(loc/2))**2, the Fejer kernel at loc, summed as fractions from
    ``cis_reference`` at the exact half angle, where the sines are relative
    however small loc is."""
    total = Fraction(m.atom_at_zero) * n * n
    for loc, mass in m.atoms:
        half = Fraction(loc) / 2
        ratio = cis_reference(n, half)[1] / cis_reference(1, half)[1]
        total += Fraction(mass) * ratio * ratio
    try:
        return float(total)
    except OverflowError:
        return math.inf


def _total_reference(x):
    """Pairwise double-double sum of a stack of pairs over axis 1, each odd
    level padded with a zero pair: ``ddouble.total`` as it was before it
    summed in place."""
    while x.shape[1] > 1:
        if x.shape[1] % 2:
            x = np.concatenate([x, np.zeros_like(x[:, :1])], axis=1)
        x = np.stack(dd.add(x[:, 0::2], x[:, 1::2]))
    return x[:, 0]


def cmul_reference(x, y):
    """``ddouble.cmul`` as it was before it batched its products: four
    ``mul`` calls and two ``add`` calls."""
    xr, xi, yr, yi = x[0:2], x[2:4], y[0:2], y[2:4]
    re = dd.add(dd.mul(xr, yr), dd.mul(xi, (-yi[0], -yi[1])))
    im = dd.add(dd.mul(xr, yi), dd.mul(xi, yr))
    return np.stack([*re, *im])


def cpowers_reference(z, count: int):
    """``ddouble.cpowers`` as it was before it filled one table: each
    doubling concatenates the table with its product by the square, then
    squares the square, by ``cmul_reference``."""
    p = np.zeros((4, 1) + z.shape[1:])
    p[0] = 1.0
    q = z
    while p.shape[1] < count:
        p = np.concatenate([p, cmul_reference(p, q[:, None])], axis=1)
        q = cmul_reference(q, q)
    return p[:, :count], q


def atom_sums_reference(t, z, weight, n0: int, count: int, imag: bool,
                        lobe=None):
    """``spectral_measure._atom_sums`` as it was before its blocks ran in
    place: the same grid, tables and formulas, with every operation
    allocating its result and at most 2**16 cells to a block.  With ``lobe
    = (c, b2)`` each block adds its own ``_lobe_rows``, made on fresh arrays
    for the block's n alone, before the one rounding, as every block did
    before the lobe's rows were made once per run of n."""
    from specvar.spectral_measure import _lobe_rows

    atoms = z.shape[1]
    B = 1 << ((count - 1).bit_length() + 1) // 2
    A = -(-count // B)
    if atoms:
        cols, zB = cpowers_reference(z, B)
        rows = cmul_reference(dd.cis(n0, t)[:, None],
                              cpowers_reference(zB, A)[0])
        rows = np.stack([*dd.mul(rows[0:2], weight),
                         *dd.mul(rows[2:4], weight)])
        rows = np.ascontiguousarray(rows.transpose(0, 2, 1)[..., None])
        cols = np.ascontiguousarray(cols.transpose(0, 2, 1)[:, :, None])
        if imag:
            factors = (rows[0:2], cols[2:4]), (rows[2:4], cols[0:2])
        else:
            factors = (rows[0:2], cols[0:2]), (-rows[2:4], cols[2:4])
        (x1, y1), (x2, y2) = [(dd.presplit(x), dd.presplit(y))
                              for x, y in factors]
    per = max(1, (1 << 16) // max(1, atoms))
    rb, cb = (per // B, B) if per >= B else (1, per)
    grid = np.empty((A, B))
    for a0 in range(0, A, rb):
        r = min(rb, A - a0)
        for b0 in range(0, B, cb):
            hi = lo = 0.0
            if atoms:
                r1 = tuple(t[:, a0:a0 + rb] for t in x1)
                r2 = tuple(t[:, a0:a0 + rb] for t in x2)
                v = dd.add(
                    dd.mul_presplit(r1,
                                    tuple(t[..., b0:b0 + cb] for t in y1)),
                    dd.mul_presplit(r2,
                                    tuple(t[..., b0:b0 + cb] for t in y2)))
                if imag:
                    v = dd.sqr(v)
                hi, lo = _total_reference(np.stack(v))
            if lobe is not None:
                steps = np.arange(r * cb, dtype=float).reshape(r, cb)
                hi, lo = dd.add((hi, lo), _lobe_rows(
                    *lobe, n0 + a0 * B + b0, steps, np.empty((16, r, cb))))
            grid[a0:a0 + rb, b0:b0 + cb] = hi + lo
    return grid.ravel()[:count]


def harmonic_table_reference(cis, masses, N: int):
    """``simulate._harmonic_table`` as it was before it took its powers on
    the grid of ``ddouble.power_grid``: each run of up to 2**16 // N atoms
    takes z**0 .. z**(N-1) from one doubling chain (``ddouble.cpowers``), and
    its rows are the transposed chain times sqrt(mass)."""
    J = len(masses)
    table = np.empty((2 * J, N), order="F")
    step = max(1, (1 << 16) // N)
    for j in range(0, J, step):
        s = slice(j, min(J, j + step))
        p, _ = dd.cpowers(cis[:, s], N)
        amp = np.sqrt(masses[s])[:, None]
        table[s] = amp * (p[0] + p[1]).T
        table[J + s.start:J + s.stop] = amp * (p[2] + p[3]).T
    return table


def cheb_moments_reference(omega):
    """``quadrature._cheb_moments`` as it was before its recurrence ran on
    real rows: the forward recurrence in complex numbers, for omega >= 24."""
    w = omega
    s, c = np.sin(w), np.cos(w)
    m = np.empty((len(omega), _DEG + 1), dtype=complex)
    m[:, 0] = 2.0 * s / w
    m[:, 1] = 2j * (s - w * c) / w ** 2
    m[:, 2] = m[:, 0] + 4j * m[:, 1] / w
    # exp(i w) - (-1)**j exp(-i w) is 2i sin w for even j, 2 cos w for odd j
    edge = (2j * s, 2.0 * c)
    for j in range(2, _DEG):
        m[:, j + 1] = ((2j * (j + 1) / w) * m[:, j]
                       + ((j + 1) / (j - 1)) * m[:, j - 1]
                       + 2j * edge[(j + 1) % 2] / (w * (j - 1)))
    return m


def sandwich_upper_quadrature(m: SpectralMeasure, n: int, A: float) -> float:
    """The sandwich's upper bound G(pi) + (pi^2/4) n^2 G(a) + pi^2 int_a^pi
    G(y) y^-3 dy at a = A/n, its tail by scipy's adaptive quad, with no code
    shared with the package's quadrature: once per interval between
    breakpoints at the atoms, the piece ends and log-spaced points at most a
    factor e apart.  quad never evaluates an interval's ends, so the
    right-continuous G is read only where it is smooth."""
    from scipy.integrate import quad  # test_cli checks the CLI never loads it

    pi = math.pi
    a = A / n
    locs, _ = m.atom_arrays()
    efolds = np.geomspace(a, pi, max(2, math.ceil(math.log(pi / a)) + 1))
    pts = [[a, pi], locs, efolds]
    pts += [[piece.lo, piece.hi] for piece in m.density]
    edges = np.unique(np.concatenate(pts))
    edges = edges[(edges >= a) & (edges <= pi)]
    tail = math.fsum(
        quad(lambda y: g_eval(m, y) / y ** 3, lo, hi, epsabs=1e-14,
             epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    return (g_eval(m, pi) + (pi ** 2 / 4.0) * n ** 2 * g_eval(m, a)
            + pi ** 2 * tail)


def power_fejer_reference(coef: float, p: float, n: int,
                          nodes: int = 32) -> float:
    """``int_0^pi coef y**p I_n(y) dy`` for -1 < p <= -0.8 by a fixed Gauss
    rule on every half-arc of I_n, with no code shared with the package.

    Half-arc j >= 1 is y = pi (j + t)/n, t in [0, 1], where sin(n y/2)**2 is
    sin(pi t/2)**2 (j even) or cos(pi t/2)**2 (j odd), so no large angle is
    rounded; it takes Gauss-Legendre in t.  The first, [0, b] with
    b = pi/n, holds the singular weight y**p: y = b s**(1/q), q = p + 1,
    takes y**p dy to (b**q / q) ds, and Gauss-Legendre in s integrates the
    rest, I_n(b s**(1/q)) = n**2 - O(s**(2/q)).  That is smooth to rounding
    for 2/q >= 10, hence the bound on p; at p = -0.896 and n <= 1000 the
    sum stays within 4e-16 of a 30-digit integral.  (scipy's ``roots_jacobi`` rule for the
    weight misses its moments by about 1e-12 there.)
    """
    if not -1.0 < p <= -0.8:
        raise ValueError(f"exponent {p} outside (-1, -0.8]")
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    j = np.arange(1, n)[:, None]
    y = math.pi * (j + t) / n
    top = np.where(j % 2 == 0, np.sin(math.pi * t / 2.0),
                   np.cos(math.pi * t / 2.0)) ** 2
    arcs = (w * y ** p * top / np.sin(y / 2.0) ** 2).sum(axis=1) * (math.pi / n)
    q, b = p + 1.0, math.pi / n
    y0 = b * t ** (1.0 / q)
    first = (b ** q / q) * float(
        (w * np.sin(n * y0 / 2.0) ** 2 / np.sin(y0 / 2.0) ** 2).sum())
    return coef * math.fsum([first, *arcs.tolist()])


def covariance_variance_oracle(r: np.ndarray, n: int) -> float:
    """Triangular sum oracle from externally supplied autocovariances."""
    k = np.arange(1, n)
    return n * float(r[0]) + 2.0 * float(((n - k) * r[1:n]).sum())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli_run(list(argv), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def gallery_measures():
    from specvar import counterexample, nonergodic, power_law, quadratic, white_noise
    return {
        "whitenoise": white_noise(),
        "power05": power_law(0.5),
        "quadratic": quadratic(),
        "counterexample": counterexample(),
        "nonergodic": nonergodic(),
    }
