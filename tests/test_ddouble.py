"""Double-double helpers against exact rational arithmetic."""

from fractions import Fraction

import numpy as np

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


def test_cis_is_on_the_unit_circle_and_doubles_its_angle():
    x = np.array([2.0 ** -60, 1e-9, 0.3, 1.0, np.pi / 4])
    z, z2 = dd.cis(x), dd.cis(2.0 * x)  # 2x is exact
    sq = dd.cmul(z, z)
    for i in range(len(x)):
        assert abs(float(z[0, i]) - np.cos(x[i])) <= 2.3e-16
        assert abs(float(z[2, i]) - np.sin(x[i])) <= 2.3e-16 * np.sin(x[i])
        re, im = _pair(z[0:2], i), _pair(z[2:4], i)
        assert abs(re * re + im * im - 1) <= Fraction(1, 10 ** 30)
        assert _complex_err(sq, i, _pair(z2[0:2], i),
                            _pair(z2[2:4], i)) <= Fraction(1, 10 ** 30)


def test_cpow_matches_cis_of_exact_angles():
    # x = 2**-20: every n*x below is exact, so cis(n*x) is an independent
    # reference for z**n, from cpow for single n and cpowers for a range
    x = 2.0 ** -20
    z = dd.cis(np.array([x]))
    sparse = [0, 1, 2, 15, 16, 17, 1000, 2 ** 21 + 3, 3 * 2 ** 20 + 5]
    table, _ = dd.cpowers(z, 5000)
    cases = [(n, dd.cpow(z, n)) for n in sparse]
    cases += [(n, table[:, n]) for n in range(0, 5000, 499)]
    for n, got in cases:
        want = dd.cis(np.array([float(n) * x]))
        err = _complex_err(got, 0, _pair(want[0:2], 0), _pair(want[2:4], 0))
        assert err <= Fraction(1, 10 ** 26), n


def test_cpowers_returns_the_table_and_the_next_square():
    z = dd.cis(np.array([0.7]))
    table, q = dd.cpowers(z, 5)
    assert table.shape == (4, 5, 1)
    want = dd.cpow(z, 8)
    assert _complex_err(q, 0, _pair(want[0:2], 0),
                        _pair(want[2:4], 0)) <= Fraction(1, 10 ** 30)
    assert table[0, 0, 0] == 1.0 and table[2, 0, 0] == 0.0
