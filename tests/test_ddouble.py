"""Double-double helpers against exact rational arithmetic."""

import math
from fractions import Fraction

import numpy as np

from conftest import (cis_reference, cmul_reference, cpowers_reference,
                      machin_pi)
from specvar import ddouble as dd


def _pair(x, i=()):
    return Fraction(float(x[0][i])) + Fraction(float(x[1][i]))


def _complex_err(z, i, want_re, want_im):
    """Largest error of entry i of the complex stack z against fractions."""
    return max(abs(_pair(z[0:2], i) - want_re), abs(_pair(z[2:4], i) - want_im))


def test_two_sum_and_two_prod_are_exact():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(300) * 10.0 ** rng.integers(-9, 10, 300)
    b = rng.standard_normal(300) * 10.0 ** rng.integers(-9, 10, 300)
    s, e = dd.two_sum(a, b)
    p, f = dd.two_prod(a, b)
    for i in range(300):
        x, y = Fraction(float(a[i])), Fraction(float(b[i]))
        assert Fraction(float(s[i])) + Fraction(float(e[i])) == x + y
        assert Fraction(float(p[i])) + Fraction(float(f[i])) == x * y


def test_mul_div_total_keep_106_bits():
    rng = np.random.default_rng(5)
    x = dd.two_prod(rng.random(64) + 0.5, rng.random(64) + 0.5)
    y = dd.two_prod(rng.random(64) + 0.5, rng.random(64) + 0.5)
    prod, quot = dd.mul(x, y), dd.div(x, y)
    for i in range(64):
        exact = _pair(x, i) * _pair(y, i)
        assert abs(_pair(prod, i) - exact) <= Fraction(1, 2 ** 100) * exact
        exact = _pair(x, i) / _pair(y, i)
        assert abs(_pair(quot, i) - exact) <= Fraction(1, 2 ** 100) * exact
    # same-sign terms: the pairwise sum is good to about 2**-104 of the sum
    terms = np.stack(x)[:, None, :]
    summed = dd.total(terms, axis=2)
    exact = sum(_pair(x, i) for i in range(64))
    assert abs(_pair(summed, 0) - exact) <= Fraction(1, 2 ** 100) * exact


def test_sqr_and_sqrt_keep_106_bits():
    rng = np.random.default_rng(8)
    x = dd.two_prod(rng.random(64) + 0.5, 10.0 ** rng.integers(-9, 10, 64))
    sq, root = dd.sqr(x), dd.sqrt(x)
    for i in range(64):
        exact = _pair(x, i) ** 2
        assert abs(_pair(sq, i) - exact) <= Fraction(1, 2 ** 100) * exact
        r = _pair(root, i)
        assert abs(r * r - _pair(x, i)) <= Fraction(1, 2 ** 100) * _pair(x, i)


def test_pio2_is_machin_pi():
    assert machin_pi(52) == int(math.pi * 2 ** 52)  # pi's float is below pi
    assert dd._PIO2 == machin_pi(255)  # floor(pi/2 * 2**256)
    assert machin_pi(400) >> 145 == machin_pi(255)


def test_cis_is_on_the_unit_circle_and_doubles_its_angle():
    x = np.array([2.0 ** -60, 1e-9, 0.3, 1.0, np.pi / 4])
    z, z2 = dd.cis(1, x), dd.cis(2, x)
    sq = dd.cmul(z, z)
    for i in range(len(x)):
        assert abs(float(z[0, i]) - np.cos(x[i])) <= 2.3e-16
        assert abs(float(z[2, i]) - np.sin(x[i])) <= 2.3e-16 * np.sin(x[i])
        re, im = _pair(z[0:2], i), _pair(z[2:4], i)
        assert abs(re * re + im * im - 1) <= Fraction(1, 10 ** 30)
        assert _complex_err(sq, i, _pair(z2[0:2], i),
                            _pair(z2[2:4], i)) <= Fraction(1, 10 ** 30)


def test_cpowers_and_cis_match_exact_angles():
    # cis(n, x) is good to 1e-31 at every n, and relative to sin(n x) where
    # that is small (x = pi and pi/2 as floats); a cpowers table carries up
    # to k * 2**-104 at power k
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.random(6) * np.pi,
                        [np.pi, np.pi / 2, 2.0 ** -60, 1e-300, 0.0]])
    ns = [0, 1, 2, 3, 1000, 2 ** 31 + 5, 2 ** 53 + 1, 3 ** 38, 2 ** 63 - 1]
    ns += [int(rng.integers(2 ** j, 2 ** (j + 1))) for j in range(4, 63, 6)]
    for n in ns:
        z = dd.cis(n, x)
        for i, t in enumerate(x.tolist()):
            cos, sin = cis_reference(n, t)
            assert _complex_err(z, i, cos, sin) <= Fraction(1, 10 ** 31), n
            if t in (np.pi, np.pi / 2) and sin:  # n t near a multiple of pi
                assert abs(_pair(z[2:4], i) - sin) <= abs(sin) / 2 ** 96, n
    table, _ = dd.cpowers(dd.cis(1, x), 5000)
    for k in range(0, 5000, 499):
        for i, t in enumerate(x.tolist()):
            want = cis_reference(k, t)
            assert _complex_err(table[:, k], i, *want) <= Fraction(1, 10 ** 26)


def test_cpowers_returns_the_table_and_the_next_square():
    x = np.array([0.7, 3.0])
    table, q = dd.cpowers(dd.cis(1, x), 5)
    assert table.shape == (4, 5, 2)
    want = dd.cis(8, x)
    for i in range(2):
        assert _complex_err(q, i, _pair(want[0:2], i),
                            _pair(want[2:4], i)) <= Fraction(1, 10 ** 30)
    assert (table[0, 0] == 1.0).all() and (table[2, 0] == 0.0).all()


def _angles():
    """1200 seeded angles (atoms' half angles on (0, pi/2], up to 256, and
    2**-1074 to 256 by octave), tiny and subnormal ones, and float
    multiples of pi/4 and pi/3, where n t lies near a multiple of pi/2."""
    rng = np.random.default_rng(26)
    return np.concatenate([
        rng.uniform(0.0, np.pi / 2, 600), rng.uniform(0.0, 256.0, 200),
        np.minimum(2.0 ** rng.uniform(-1074.0, 8.0, 400), 255.0),
        [0.0, 5e-324, 2.0 ** -1023, 2.0 ** -1022, 1e-300, 5e-301,
         2.0 ** -204, 2.0 ** -203, np.nextafter(2.0 ** -203, 1.0),
         2.0 ** -60, 1e-9],
        [k * np.pi / 4 for k in range(1, 325)],
        [k * np.pi / 3 for k in range(1, 244)]])


def test_cis_grid_equals_one_call_per_n():
    # one call over a grid of (n, t) cells gives every cell the floats of
    # the call at its n alone, read as int64
    t = _angles()
    ns = [0, 1, 2, 1000, 2 ** 31 + 5, 2 ** 53 + 1, 3 ** 38, 2 ** 63 - 1]
    rng = np.random.default_rng(27)
    n = rng.integers(0, 2 ** 63 - 1, len(t), endpoint=True)
    n[::3] = rng.choice(ns, len(n[::3]))
    got = dd.cis(n, t)
    for m in np.unique(n).tolist():
        at = n == m
        want = dd.cis(m, t[at])
        assert (got[:, at].view(np.int64) == want.view(np.int64)).all(), m


def _complex_operands(rng, shape, top=900):
    """Complex stacks of the given shape (past the four planes): normalized
    pairs whose high words run from 2**-1022 to 2**top, about one in eight
    of them zero."""
    shape = (2,) + shape
    hi = (rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
          * 2.0 ** rng.integers(-1022, top, shape, endpoint=True))
    hi[rng.random(hi.shape) < 0.125] = 0.0
    lo = hi * rng.uniform(-2.0 ** -53, 2.0 ** -53, hi.shape)
    return np.stack([hi[0], lo[0], hi[1], lo[1]])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


def _cscale_reference(x, s):
    return np.stack([*dd.mul(x[0:2], (s, 0.0)), *dd.mul(x[2:4], (s, 0.0))])


def _cadd_reference(x, y):
    return np.concatenate([dd.add(x[i:i + 2], y[i:i + 2]) for i in (0, 2)])


def test_batched_complex_products_equal_the_four_product_formula():
    # every element sees the operations of the unbatched formulas in their
    # order, read as int64; the shapes broadcast as the atom sums' do, and
    # the larger ones take several passes of dd._CMUL_CELLS cells
    rng = np.random.default_rng(31)
    budget = dd._CMUL_CELLS
    shapes = [((a,), (a,)) for a in (1, 7, budget + 5)]
    shapes += [((1, a), (k, a))
               for a, k in ((39, 3), (39, 300), (2, budget + 1))]
    shapes += [((3, a), (1, a)) for a in (5, budget + 3)]
    for (sx, sy), (tx, ty) in zip(shapes * 2, [(900, 0)] * 8 + [(0, 900)] * 8):
        # one factor of each product is at most 2**1, so the product and
        # its Veltkamp halves stay finite
        x = _complex_operands(rng, sx, top=tx)
        y = _complex_operands(rng, sy, top=ty)
        want = cmul_reference(x, y)
        assert _same(dd.cmul(x, y), want), (sx, sy)
        assert _same(dd.cmul(x, y, np.empty(want.shape)), want), (sx, sy)
        wide = np.broadcast_to(x, want.shape)
        assert _same(dd.cadd(wide, want), _cadd_reference(wide, want))
        s = rng.uniform(-4.0, 4.0, sy) * 2.0 ** rng.integers(-40, 40, sy)
        assert _same(dd.cscale(y, s), _cscale_reference(y, s))
        assert _same(dd.cscale(y, 3.0), _cscale_reference(y, 3.0))
    x = _complex_operands(rng, (50,))
    assert _same(dd.cscale(x, 2.0 ** -900), _cscale_reference(x, 2.0 ** -900))
    # out may be x's own array shifted to later positions of axis 1, here
    # across three passes
    x = _complex_operands(rng, (budget // 4, 8), top=0)
    y = _complex_operands(rng, (1, 8), top=0)
    want = cmul_reference(x[:, :1000], y)
    dd.cmul(x[:, :1000], y, x[:, 7:1007])
    assert _same(x[:, 7:1007], want)
    # powers of points on the unit circle (some tiny angles), at a few
    # atoms and at enough that a doubling takes several passes
    t = np.concatenate([rng.uniform(0.0, np.pi, 5), [1e-300, 0.0]])
    z = dd.cis(1, t)
    for count in [*range(1, 71), 4097]:
        table, square = dd.cpowers(z, count)
        want_table, want_square = cpowers_reference(z, count)
        assert _same(table, want_table) and _same(square, want_square), count
    z = np.concatenate([dd.cis(1, rng.uniform(0.0, np.pi, budget // 8)),
                        _complex_operands(rng, (4,), top=0) * 0.5], axis=1)
    for count in (1, 2, 13, 64, 65):
        table, square = dd.cpowers(z, count)
        want_table, want_square = cpowers_reference(z, count)
        assert _same(table, want_table) and _same(square, want_square), count
