import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as cephes_gamma

from specvar import specfun
from specvar.errors import DomainError
from specvar.quadrature import integrate
from specvar.specfun import sin_sq_moment, trig_power_moments

# thirty reference points across the range the package actually uses: the
# package takes Gamma from math.gamma, at x in (0, 3)
_GAMMA_GRID = np.linspace(0.05, 3.0, 30)


def test_gamma_matches_stdlib_on_grid():
    # Cephes' gamma is an independent implementation of the same function
    for x in _GAMMA_GRID:
        assert math.gamma(float(x)) == pytest.approx(
            float(cephes_gamma(float(x))), rel=1e-12)


@pytest.mark.parametrize("x,expected", [
    (1.0, 1.0),
    (2.0, 1.0),
    (3.0, 2.0),
    (0.5, math.sqrt(math.pi)),
    (1.5, math.sqrt(math.pi) / 2.0),
    (2.5, 3.0 * math.sqrt(math.pi) / 4.0),
])
def test_gamma_exact_values(x, expected):
    assert math.gamma(x) == pytest.approx(expected, rel=1e-13)


# scipy's quad flags roundoff on the highly oscillatory reference integrals;
# the reference values are still far more accurate than the tolerances below
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("p", [-0.5, -0.25, 0.0, 0.5, 1.0, 1.7])
@pytest.mark.parametrize("x", [0.3, 5.0, 44.0, 46.0, 400.0, 2.0 ** 14 * math.pi])
def test_trig_moments_against_quadrature(p, x):
    c, s = trig_power_moments(p, np.array([x]))
    # brute force on a fine oscillation-aligned panel set, fully independent
    # of the moment code path
    if x <= 500.0:
        edges = np.linspace(0.0, x, max(64, int(x * 8)))
        cc = sum(quad(lambda u: u ** p * math.cos(u), a, b,
                      epsabs=1e-14, epsrel=1e-14)[0]
                 for a, b in zip(edges[:-1], edges[1:]))
        ss = sum(quad(lambda u: u ** p * math.sin(u), a, b,
                      epsabs=1e-14, epsrel=1e-14)[0]
                 for a, b in zip(edges[:-1], edges[1:]))
        assert c[0] == pytest.approx(cc, abs=5e-11 * max(1.0, x ** max(p, 0.0)))
        assert s[0] == pytest.approx(ss, abs=5e-11 * max(1.0, x ** max(p, 0.0)))
    else:
        # consistency across the small/large switchover instead: shift by one
        # period and compare against direct quadrature of the slice
        y = x - 2.0 * math.pi
        c2, s2 = trig_power_moments(p, np.array([y]))
        cc = quad(lambda u: u ** p * math.cos(u), y, x,
                  epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        ss = quad(lambda u: u ** p * math.sin(u), y, x,
                  epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        scale = max(1.0, x ** max(p, 0.0))
        assert c[0] - c2[0] == pytest.approx(cc, abs=1e-9 * scale)
        assert s[0] - s2[0] == pytest.approx(ss, abs=1e-9 * scale)


def test_trig_moments_integer_exponent_closed_form():
    # int_0^x u cos u du = cos x + x sin x - 1
    xs = np.array([0.7, 13.0, 251.3])
    c, s = trig_power_moments(1.0, xs)
    assert np.allclose(c, np.cos(xs) + xs * np.sin(xs) - 1.0, atol=1e-12)
    assert np.allclose(s, np.sin(xs) - xs * np.cos(xs), atol=1e-12)


@pytest.mark.parametrize("p", [5e-324, 1e-17, 2.0 ** -54])
def test_trig_moments_of_an_exponent_below_2_to_minus_53(p):
    # p - ceil(p) rounds to -1 there, which once reached the Gauss-Jacobi
    # edge rule as the weight exponent -1; u**p is 1 to rounding, so the
    # moments are those of p = 0: sin x and 1 - cos x
    x = np.array([0.5, 3.0, 44.0, 50.0])
    c, s = trig_power_moments(p, x)
    assert np.allclose(c, np.sin(x), rtol=0.0, atol=1e-15)
    assert np.allclose(s, 1.0 - np.cos(x), rtol=0.0, atol=1e-15)


def test_trig_moments_zero_endpoint():
    c, s = trig_power_moments(-0.5, np.array([0.0, 1.0]))
    assert c[0] == 0.0 and s[0] == 0.0
    assert c[1] > 0.0


def test_small_x_moments_memo_changes_nothing_but_cost(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(specfun, "integrate", counting)
    specfun._base_pair_small.cache_clear()
    p = 0.37
    x = np.array([0.25, 1.5, 7.0, 30.0, 44.5])  # all below the 45 cut
    c1, s1 = trig_power_moments(p, x)
    first = len(calls)
    c2, s2 = trig_power_moments(p, x)
    # one cos and one sin integral per point above 1, where the series stops
    assert first == 2 * int((x > 1.0).sum())
    assert len(calls) == first
    assert c1.tobytes() == c2.tobytes() and s1.tobytes() == s2.tobytes()
    # and the memoized base moments are what the bare function computes
    for xi in x:
        assert (specfun._base_pair_small(p - 1.0, float(xi))
                == specfun._base_pair_small.__wrapped__(p - 1.0, float(xi)))


def test_trig_moments_domain():
    with pytest.raises(DomainError):
        trig_power_moments(-1.0, np.array([1.0]))
    with pytest.raises(DomainError):
        trig_power_moments(0.5, np.array([-2.0]))


# the moments by the hypergeometric closed forms x**(p+1)/(p+1) 1F2((p+1)/2;
# 1/2, (p+3)/2; -x**2/4) and x**(p+2)/(p+2) 1F2((p+2)/2; 3/2, (p+4)/2;
# -x**2/4), by mpmath at 40 digits; 1 + 2**-52 is the first float above the
# series cut, where the series at 1 meets the quadrature above it
@pytest.mark.parametrize("p, x, cos_moment, sin_moment", [
    (-0.9999999, 0.001, 9999993.097510416, 0.0009999991536692766),
    (-0.9999999, 0.5, 9999999.250263846, 0.49310733409391766),
    (-0.9999999, 1.0, 9999999.765451828, 0.946082972186113),
    (-0.9999999, 1.0000000000000002, 9999999.765451828, 0.9460829721861133),
    (-0.92, 0.001, 7.192999078387565, 0.0005328147256551402),
    (-0.92, 0.5, 11.769466638759264, 0.43163874311079353),
    (-0.92, 1.0, 12.269602409580308, 0.8734260686143588),
    (-0.92, 1.0000000000000002, 12.269602409580308, 0.8734260686143589),
    (-0.5, 0.001, 0.06324554687881256, 2.108184956194274e-05),
    (-0.5, 0.5, 1.3792650758684297, 0.23152662614970718),
    (-0.5, 1.0, 1.809048475800544, 0.6205366034467622),
    (-0.5, 1.0000000000000002, 1.8090484758005443, 0.6205366034467624),
    (2.0 ** -52, 0.001, 0.00099999983333334, 4.99999958333334e-07),
    (2.0 ** -52, 0.5, 0.47942553860420284, 0.12241743810962726),
    (2.0 ** -52, 1.0, 0.8414709848078963, 0.45969769413186023),
    (2.0 ** -52, 1.0000000000000002, 0.8414709848078964, 0.4596976941318604),
    (1.0, 0.001, 4.999998750000069e-07, 3.3333330000000123e-10),
    (1.0, 0.5, 0.11729533119247422, 0.04063425765901664),
    (1.0, 1.0, 0.3817732906760362, 0.3011686789397568),
    (1.0, 1.0000000000000002, 0.3817732906760363, 0.30116867893975696),
    (1.5, 0.001, 1.2649107127031876e-08, 9.03507807078659e-12),
    (1.5, 0.5, 0.06587058865481858, 0.02459031423741412),
    (1.5, 1.0, 0.29513808675969794, 0.25650171875863337),
    (1.5, 1.0000000000000002, 0.2951380867596981, 0.2565017187586336),
])
def test_trig_moments_near_the_series_cut(p, x, cos_moment, sin_moment):
    # up to x = 1 the moments are the Taylor series at p itself; raising
    # the base moments to p by parts once cancelled there (at x = 1e-3,
    # p = 1.5 was 1.5e-9 off, relative)
    c, s = trig_power_moments(p, np.array([x]))
    assert c[0] == pytest.approx(cos_moment, rel=1e-14, abs=0.0)
    assert s[0] == pytest.approx(sin_moment, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("gamma", [0.01, 0.25, 0.5, 1.0, 1.5, 1.75, 1.99])
def test_sin_sq_moment_identity(gamma):
    # 2^(2-g) (2-g) * integral must invert C(g); residual far below 1e-8
    from specvar.asymptotics import c_gamma
    quad_val = 2.0 ** (2.0 - gamma) * (2.0 - gamma) * sin_sq_moment(gamma)
    assert quad_val == pytest.approx(1.0 / c_gamma(gamma), abs=1e-10)


# -2**(gamma-1) Gamma(-gamma) cos(pi gamma/2), pi/2 at gamma = 1, by mpmath
# at 40 digits at the float gamma
@pytest.mark.parametrize("gamma, want", [
    (0.01, 50.637170874582367293),
    (0.1, 5.6561349870924080677),
    (0.5, 1.7724538509055160273),
    (0.9, 1.5428638601953992594),
    (1.0, 1.5707963267948966192),
    (1.1, 1.6288068624193808115),
    (1.5, 2.3632718012073547031),
    (1.9, 10.253956878153765869),
    (1.99, 100.23204107923943393),
])
def test_sin_sq_moment_closed_form(gamma, want):
    assert sin_sq_moment(gamma) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_sin_sq_moment_known_value():
    # gamma = 1: int sin^2 y / y^2 = pi/2
    assert sin_sq_moment(1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)
