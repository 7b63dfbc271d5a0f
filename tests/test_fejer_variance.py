import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, polygamma

from conftest import (atomic_autocovariance_oracle, atomic_variance_oracle,
                      covariance_variance_oracle, scale_measure)
from specvar import (DomainError, OpaqueDensity, SpectralMeasure,
                     autocovariance, autocovariance_batch, counterexample,
                     fejer_kernel, nonergodic, power_law, quadratic,
                     sandwich, variance_covariance, variance_profile,
                     variance_spectral, white_noise, with_origin_atom)
from specvar.fejer_variance import (_cheb_moments, _piece_variance,
                                    _piece_variance_covariance)

PI = math.pi


def quadratic_exact(n):
    """Var(S_n) of the quadratic measure: the sum over its J = n // 2 odd
    lags in closed form, 2 n psi1(J + 1/2) + 4 (psi(J + 1/2) - psi(1/2))."""
    j = n // 2 + 0.5
    return 2.0 * n * polygamma(1, j) + 4.0 * (digamma(j) - digamma(0.5))


# --- kernel ------------------------------------------------------------------

def test_kernel_at_zero_is_n_squared():
    for n in (1, 2, 7, 1000):
        assert fejer_kernel(n, 0.0) == pytest.approx(n ** 2, rel=1e-12)


def test_kernel_n1_is_one():
    ys = np.linspace(0.0, PI, 100)
    assert np.allclose(fejer_kernel(1, ys), 1.0, atol=1e-12)


def test_kernel_n2_half_pi():
    assert fejer_kernel(2, PI / 2.0) == pytest.approx(2.0, rel=1e-12)
    # I_2(y) = 4 cos^2(y/2) everywhere
    ys = np.linspace(0.01, PI, 57)
    assert np.allclose(fejer_kernel(2, ys), 4.0 * np.cos(ys / 2.0) ** 2,
                       rtol=1e-12)


def test_kernel_series_consistent_with_direct():
    # just above and below the series switchover
    n = 1000
    for y in (0.9e-6 / n, 1.1e-6 / n):
        direct = (math.sin(n * y / 2.0) / math.sin(y / 2.0)) ** 2
        assert fejer_kernel(n, y) == pytest.approx(direct, rel=1e-10)


def test_kernel_bounds_random_pairs():
    rng = np.random.default_rng(1234)
    n_vals = rng.integers(1, 5000, size=100_000)
    y_vals = rng.uniform(0.0, PI, size=100_000)
    for n in np.unique(n_vals):
        ys = y_vals[n_vals == n]
        vals = fejer_kernel(int(n), ys)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= n ** 2 * (1.0 + 1e-12))
        pos = ys > 0
        assert np.all(vals[pos] <= PI ** 2 / ys[pos] ** 2 * (1.0 + 1e-12))
        low = ys < 1.0 / n
        assert np.all(vals[low] >= 4.0 * n ** 2 / PI ** 2 * (1.0 - 1e-12))


def test_kernel_domain():
    with pytest.raises(DomainError):
        fejer_kernel(0, 0.5)
    with pytest.raises(DomainError):
        fejer_kernel(3, -0.1)
    with pytest.raises(DomainError):
        fejer_kernel(3, PI + 0.1)


# --- variance, both routes ---------------------------------------------------

def test_variance_whitenoise_is_n():
    m = white_noise()
    for n in (1, 2, 7, 64, 1000):
        assert variance_spectral(m, n) == pytest.approx(n, rel=1e-12)
        assert variance_covariance(m, n) == pytest.approx(n, rel=1e-12)


def test_variance_single_atom_parity():
    m = SpectralMeasure(atoms=((PI, 1.0),))
    assert variance_spectral(m, 4) == pytest.approx(0.0, abs=1e-12)
    assert variance_spectral(m, 5) == pytest.approx(1.0, rel=1e-12)
    assert variance_covariance(m, 4) == pytest.approx(0.0, abs=1e-12)
    assert variance_covariance(m, 5) == pytest.approx(1.0, rel=1e-12)


def test_variance_pure_origin_atom():
    m = SpectralMeasure(atom_at_zero=0.25)
    for n in (1, 3, 100):
        assert variance_spectral(m, n) == 0.25 * n ** 2


def test_variance_quadratic_n2():
    m = quadratic()
    expected = 2.0 * PI ** 2 - 8.0
    assert variance_spectral(m, 2) == pytest.approx(expected, rel=1e-12)
    assert variance_covariance(m, 2) == pytest.approx(expected, rel=1e-12)


def test_variance_n1_equals_mass(gallery_measures):
    from specvar import g_eval
    for m in gallery_measures.values():
        assert variance_spectral(m, 1) == pytest.approx(g_eval(m, PI),
                                                        rel=1e-11)


def test_variance_atomic_against_independent_oracle(gallery_measures):
    for name in ("counterexample", "nonergodic"):
        m = gallery_measures[name]
        for n in (1, 2, 37, 1024):
            assert variance_spectral(m, n) == pytest.approx(
                atomic_variance_oracle(m, n), rel=1e-11, abs=1e-11)


ATOMIC = {"counterexample": counterexample(), "nonergodic": nonergodic(),
          "nonergodic+origin": with_origin_atom(nonergodic(), 0.3)}


@pytest.mark.parametrize("name", sorted(ATOMIC))
def test_atom_sums_exact_to_2_26(name):
    # seeded n up to 2**26, every power of two (where the nonergodic atoms
    # cancel) and the C6b alternating-bit witnesses; the oracles reduce the
    # angle exactly, so only float64 rounding of the terms is left
    m = ATOMIC[name]
    rng = np.random.default_rng(20261018)
    ns = sorted({*rng.integers(1, 2 ** 26, size=100, endpoint=True).tolist(),
                 *(2 ** j for j in range(27)), 11184810, 44739242})
    mass = m.atom_at_zero + sum(v for _, v in m.atoms)
    for n in ns:
        var = atomic_variance_oracle(m, n)
        assert abs(variance_spectral(m, n) - var) <= 2e-15 * var, n
        assert abs(autocovariance(m, n)
                   - atomic_autocovariance_oracle(m, n)) <= 1e-15 * mass, n


def test_atom_sums_exact_beyond_float_n():
    # n and the lag stay exact integers, also above 2**53
    m = ATOMIC["nonergodic+origin"]
    mass = m.atom_at_zero + sum(v for _, v in m.atoms)
    for n in (2 ** 53 + 1, 3 ** 38, 2 ** 63 - 1):
        var = atomic_variance_oracle(m, n)
        assert abs(variance_spectral(m, n) - var) <= 2e-15 * var, n
        assert abs(autocovariance(m, n)
                   - atomic_autocovariance_oracle(m, n)) <= 1e-15 * mass, n
    for f in (variance_spectral, autocovariance):
        with pytest.raises(DomainError):
            f(m, 2 ** 63)


@pytest.mark.parametrize("name", sorted(ATOMIC))
def test_atom_routes_agree_exactly(name):
    # both routes round the atom sum once from double-double, so the
    # covariance oracle returns the spectral value bit for bit
    m = ATOMIC[name]
    rng = np.random.default_rng(11)
    ns = sorted({1, 2, 3, 16, 17, 2 ** 14, 2 ** 16 - 1, 2 ** 18,
                 *rng.integers(1, 2 ** 18, size=20).tolist()})
    for n in ns:
        assert variance_covariance(m, n) == variance_spectral(m, n), n


@pytest.mark.parametrize("name", sorted(ATOMIC))
def test_atom_profile_rows_equal_pointwise(name):
    # both are rounded once from double-double: rows agree exactly, across
    # kernel blocks too
    m = ATOMIC[name]
    prof = variance_profile(m, 2 ** 16)
    rng = np.random.default_rng(7)
    picks = rng.integers(1, 2 ** 16, size=60, endpoint=True).tolist()
    for n in (1, 2, 3, 32767, 32768, 32769, 2 ** 16, *picks):
        assert prof[n - 1] == variance_spectral(m, n), n


def test_variance_density_against_independent_sum():
    # triangular sum assembled here from the batch, not by the library call
    m = power_law(0.5)
    r = autocovariance_batch(m, 600)
    for n in (3, 50, 600):
        assert variance_covariance(m, n) == pytest.approx(
            covariance_variance_oracle(r, n), rel=1e-12)


def test_oracle_equivalence_spot(gallery_measures):
    for name, tol in (("whitenoise", 1e-6), ("power05", 1e-6),
                      ("quadratic", 1e-6), ("counterexample", 1e-9),
                      ("nonergodic", 1e-9)):
        m = gallery_measures[name]
        for n in (1, 5, 64, 1024):
            a = variance_spectral(m, n)
            b = variance_covariance(m, n)
            assert abs(a - b) <= tol * max(1.0, abs(a)), (name, n)


def test_large_n_route_continuity():
    # the piece rule and the cosine-transform sum are independent at every n
    for m in (power_law(0.5), power_law(1.5), quadratic()):
        piece = m.density[0]
        for n in (2 ** 14, 2 ** 16, 2 ** 18):
            a = _piece_variance(piece, n, 1e-10)
            b = _piece_variance_covariance(piece, n, 1e-12)
            assert a == pytest.approx(b, rel=1e-9), n


@pytest.mark.parametrize("n", [2 ** 20, 2 ** 30, 2 ** 40, 2 ** 53 + 1,
                               2 ** 62])
def test_density_exact_at_any_n(n):
    # the dyadic tail costs O(log n), so exact references can be met far
    # beyond any n the covariance sum reaches
    v = variance_spectral(quadratic(), n)
    assert abs(v - quadratic_exact(n)) <= 1e-14 * v
    assert abs(variance_spectral(white_noise(), n) - n) <= 1e-14 * n


def test_cheb_moments_against_composite_gauss():
    # both sides of the switch from the Clenshaw-Curtis rule to the forward
    # recurrence at omega = 24, against 12-point Gauss-Legendre on each of
    # 128 subintervals, summed exactly
    omega = [0.7, 23.9, 24.0, 30.0, 100.0]
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(-1.0, 1.0, 129)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * x).ravel()
    ws = (half[:, None] * w).ravel()
    cheb = np.polynomial.chebyshev.chebvander(xs, 24)
    got = _cheb_moments(np.array(omega))
    for row, om in zip(got, omega):
        terms = (ws * np.exp(1j * om * xs))[:, None] * cheb
        for j, value in enumerate(row):
            want = complex(math.fsum(terms[:, j].real),
                           math.fsum(terms[:, j].imag))
            assert abs(value - want) <= 1.5e-15, (om, j)


@pytest.mark.parametrize("n", [64, 2 ** 14 + 1, 2 ** 20])
def test_opaque_density_matches_power_piece(n):
    piece = OpaqueDensity(0.0, PI, lambda y: 2.0 * y)
    opaque = SpectralMeasure(density=(piece,))
    assert variance_spectral(opaque, n) == pytest.approx(
        variance_spectral(quadratic(), n), rel=1e-13)


@pytest.mark.parametrize("whole, below, above", [
    # a kink at y = 1
    (lambda y: np.abs(y - 1.0) + 0.5, lambda y: 1.5 - y, lambda y: y - 0.5),
    # a jump at y = 1
    (lambda y: np.where(y < 1.0, 1.0, 2.0), lambda y: np.ones_like(y),
     lambda y: np.full_like(y, 2.0)),
], ids=["kink", "jump"])
@pytest.mark.parametrize("n", [128, 2 ** 19, 2 ** 30, 2 ** 50, 2 ** 62])
def test_density_not_smooth_inside_a_tail_panel(whole, below, above, n):
    # the break at y = 1 lies inside a dyadic tail panel at every n here;
    # that panel's Chebyshev estimate fails and it is bisected, so the
    # result is that of the density split at the break into two smooth
    # pieces, with no work or memory growing with n
    m = SpectralMeasure(density=(OpaqueDensity(0.0, PI, whole),))
    split = SpectralMeasure(density=(OpaqueDensity(0.0, 1.0, below),
                                     OpaqueDensity(1.0, PI, above)))
    assert variance_spectral(m, n) == pytest.approx(
        variance_spectral(split, n), rel=1e-12)


def test_quadratic_profile_against_closed_form():
    # blocked cumulative sums: the rounding of 2**18 tiny alternating terms
    # does not drift
    n_max = 2 ** 18
    prof = variance_profile(quadratic(), n_max)
    rng = np.random.default_rng(2026)
    rows = {1, 2, 3, 511, 512, 513, n_max - 1, n_max,
            *rng.integers(1, n_max, size=200, endpoint=True).tolist()}
    for n in sorted(rows):
        want = quadratic_exact(n)
        assert abs(prof[n - 1] - want) <= 1e-9 * want, n


def test_variance_domain():
    with pytest.raises(DomainError):
        variance_spectral(white_noise(), 0)
    with pytest.raises(DomainError):
        variance_covariance(white_noise(), -3)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.9), st.integers(1, 300), st.floats(0.1, 10.0))
# once raised NumericError: the Gauss-Jacobi edge panel's roundoff-level
# error estimate kept it bisecting until the round cap
@example(gamma=1.8952076515176384, n=70, c=3.0)
def test_variance_linear_in_measure(gamma, n, c):
    m = power_law(gamma)
    doubled = scale_measure(m, c)
    v1 = variance_spectral(m, n)
    v2 = variance_spectral(doubled, n)
    assert v2 == pytest.approx(c * v1, rel=1e-12)


def test_variance_profile_matches_pointwise(gallery_measures):
    for name in ("whitenoise", "power05", "counterexample"):
        m = gallery_measures[name]
        prof = variance_profile(m, 256)
        for n in (1, 2, 100, 256):
            assert prof[n - 1] == pytest.approx(variance_spectral(m, n),
                                                rel=1e-9)


# --- sandwich ----------------------------------------------------------------

def test_sandwich_whitenoise_lower_closed_form():
    rep = sandwich(white_noise(), 10, A=1.0)
    assert rep.lower == pytest.approx(40.0 / PI ** 3, rel=1e-12)
    assert rep.lower <= rep.variance <= rep.upper


def test_sandwich_empty_measure():
    rep = sandwich(SpectralMeasure(), 16, A=1.0)
    assert rep.lower == 0.0 and rep.variance == pytest.approx(0.0, abs=1e-12)
    assert rep.upper == pytest.approx(0.0, abs=1e-12)


def test_sandwich_brackets_gallery(gallery_measures):
    ns = [1, 2, 9, 64, 1024, 2 ** 14]
    for m in gallery_measures.values():
        for A in (1.0, 2.0, 8.0):
            for n in ns:
                if A > n:
                    continue
                rep = sandwich(m, n, A=A)
                slack = 1e-9 * max(1.0, rep.variance)
                assert rep.lower <= rep.variance + slack
                assert rep.variance <= rep.upper + slack


def test_sandwich_counterexample_large_n():
    rep = sandwich(white_noise(), 2 ** 10, A=1.0)
    assert rep.lower <= rep.variance <= rep.upper
    rep = sandwich(SpectralMeasure(atoms=((PI, 1.0),)), 2 ** 10, A=8.0)
    assert rep.lower <= rep.variance + 1e-12 <= rep.upper


def test_sandwich_domain():
    with pytest.raises(DomainError):
        sandwich(white_noise(), 4, A=5.0)
    with pytest.raises(DomainError):
        sandwich(white_noise(), 4, A=0.0)


def test_origin_atom_exact_decomposition():
    m = with_origin_atom(white_noise(), 0.7)
    for n in (1, 10, 101, 4096):
        assert variance_spectral(m, n) == pytest.approx(0.7 * n ** 2 + n,
                                                        rel=1e-12)
