import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import _PI_EXACT, _reduce

from specvar import (DomainError, NumericError, OpaqueDensity,
                     PowerDensity, SerializationError, SpectralMeasure,
                     TableDensity, ValidationError, autocovariance,
                     autocovariance_batch, counterexample, g_eval,
                     measure_from_dict, measure_from_json, measure_to_dict,
                     measure_to_json, nonergodic, power_law, quadratic,
                     robinson_integral, variance_spectral, white_noise,
                     with_origin_atom)
from specvar.spectral_measure import atom_fejer_sums

PI = math.pi


# --- construction and validation --------------------------------------------

def test_atoms_must_increase():
    with pytest.raises(DomainError):
        SpectralMeasure(atoms=((0.5, 1.0), (0.5, 1.0)))
    with pytest.raises(DomainError):
        SpectralMeasure(atoms=((0.7, 1.0), (0.5, 1.0)))


def test_atom_domain():
    with pytest.raises(DomainError):
        SpectralMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(DomainError):
        SpectralMeasure(atoms=((1.0, -0.5),))
    with pytest.raises(DomainError):
        SpectralMeasure(atoms=((PI + 1e-6, 1.0),))
    # within 1e-12 of pi is accepted and clamped
    m = SpectralMeasure(atoms=((PI + 5e-13, 1.0),))
    assert m.atoms[0][0] == PI


def test_atom_location_below_least_normal_rejected():
    # the atom sums take the phase loc/2, which a subnormal loc rounds
    with pytest.raises(DomainError, match="least normal"):
        SpectralMeasure(atoms=((5e-324, 1.0),))
    with pytest.raises(ValidationError, match="least normal"):
        measure_from_dict({"atom_at_zero": 0.0, "density": [],
                           "atoms": [{"y": 1e-310, "mass": 1.0}]})
    m = SpectralMeasure(atoms=((2.0 ** -1022, 1.0),))
    assert variance_spectral(m, 2 ** 62) == 2.0 ** 124


def test_density_pieces_must_be_disjoint():
    with pytest.raises(DomainError):
        SpectralMeasure(density=(PowerDensity(0.0, 2.0, 1.0, 0.0),
                                 PowerDensity(1.0, 3.0, 1.0, 0.0)))
    # touching intervals are fine
    SpectralMeasure(density=(PowerDensity(0.0, 1.0, 1.0, 0.0),
                             PowerDensity(1.0, 2.0, 1.0, 0.0)))


def test_power_density_validation():
    with pytest.raises(DomainError):
        PowerDensity(0.0, PI, 1.0, -1.0)
    with pytest.raises(DomainError):
        PowerDensity(0.0, PI, -1.0, 0.0)
    with pytest.raises(DomainError):
        PowerDensity(2.0, 1.0, 1.0, 0.0)


def test_table_density_validation():
    with pytest.raises(DomainError):
        TableDensity(ys=(0.0, 0.0, 1.0), vals=(1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        TableDensity(ys=(0.0, 1.0), vals=(1.0, -1.0))
    with pytest.raises(DomainError):
        TableDensity(ys=(0.0,), vals=(1.0,))


NONFINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("name", ("lo", "hi", "coef", "exponent"))
def test_power_density_rejects_nonfinite(name, bad):
    args = dict(lo=0.5, hi=2.0, coef=1.0, exponent=0.5)
    args[name] = bad
    with pytest.raises(DomainError, match="finite"):
        PowerDensity(**args)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("name, i", [("ys", 0), ("ys", 1), ("ys", 2),
                                     ("vals", 0), ("vals", 1)])
def test_table_density_rejects_nonfinite(name, i, bad):
    grid = {"ys": [0.0, 1.0, 2.0], "vals": [1.0, 2.0, 1.0]}
    grid[name][i] = bad
    with pytest.raises(DomainError, match="finite"):
        TableDensity(ys=tuple(grid["ys"]), vals=tuple(grid["vals"]))


@pytest.mark.parametrize("bad", NONFINITE)
def test_json_nonfinite_keeps_key_path(bad):
    with pytest.raises(ValidationError, match=r"density\[0\]\.ys\[1\]"):
        measure_from_dict({"density": [{"type": "table", "ys": [0.0, bad, 1.0],
                                        "vals": [1.0, 1.0, 1.0]}]})
    with pytest.raises(ValidationError, match=r"density\[0\]\.coef"):
        measure_from_dict({"density": [{"type": "power", "coef": bad,
                                        "exp": 0.5}]})


# --- g_eval ------------------------------------------------------------------

def test_g_eval_counterexample_example():
    m = counterexample()
    assert g_eval(m, 0.3) == pytest.approx(0.5, abs=1e-15)


def test_g_eval_empty_measure():
    m = SpectralMeasure()
    for x in (0.0, 0.5, PI):
        assert g_eval(m, x) == 0.0


def test_g_eval_whitenoise_total():
    assert g_eval(white_noise(), PI) == pytest.approx(1.0, abs=1e-14)


def test_g_eval_right_continuous_at_atom():
    m = SpectralMeasure(atoms=((0.5, 2.0),))
    assert g_eval(m, 0.5) == 2.0
    assert g_eval(m, np.nextafter(0.5, 0.0)) == 0.0


def test_g_eval_domain():
    with pytest.raises(DomainError):
        g_eval(white_noise(), -0.1)
    with pytest.raises(DomainError):
        g_eval(white_noise(), PI + 1e-6)


def test_g_eval_table_piece():
    # triangle density on [0.5, 1.5]: total mass 0.5 * base * height
    piece = TableDensity(ys=(0.5, 1.0, 1.5), vals=(0.0, 1.0, 0.0))
    m = SpectralMeasure(density=(piece,))
    assert g_eval(m, PI) == pytest.approx(0.5, abs=1e-14)
    assert g_eval(m, 1.0) == pytest.approx(0.25, abs=1e-14)
    # quarter point of the rising edge
    assert g_eval(m, 0.75) == pytest.approx(0.0625, abs=1e-14)


@st.composite
def measures(draw):
    atom0 = draw(st.floats(0.0, 2.0))
    n_atoms = draw(st.integers(0, 4))
    locs = draw(st.lists(st.floats(0.01, PI), min_size=n_atoms,
                         max_size=n_atoms, unique=True))
    masses = draw(st.lists(st.floats(0.01, 3.0), min_size=n_atoms,
                           max_size=n_atoms))
    pieces = ()
    if draw(st.booleans()):
        coef = draw(st.floats(0.0, 3.0))
        expo = draw(st.floats(-0.9, 2.0))
        pieces = (PowerDensity(0.0, PI, coef, expo),)
    return SpectralMeasure(atom_at_zero=atom0,
                           atoms=tuple(sorted(zip(locs, masses))),
                           density=pieces)


@settings(max_examples=60, deadline=None)
@given(measures(), st.floats(0.0, PI), st.floats(0.0, PI))
def test_g_eval_monotone(m, x1, x2):
    x1, x2 = sorted((x1, x2))
    assert g_eval(m, x1) <= g_eval(m, x2) + 1e-12


# --- autocovariance ----------------------------------------------------------

def test_autocovariance_whitenoise():
    m = white_noise()
    assert autocovariance(m, 0) == pytest.approx(1.0, abs=1e-14)
    for k in (1, 2, 17, 4096):
        assert autocovariance(m, k) == pytest.approx(0.0, abs=1e-12)


def test_autocovariance_single_atom_alternates():
    m = SpectralMeasure(atoms=((PI, 1.0),))
    for k in range(8):
        assert autocovariance(m, k) == pytest.approx((-1.0) ** k, abs=1e-12)


def test_autocovariance_quadratic_closed_form():
    m = quadratic()
    assert autocovariance(m, 0) == pytest.approx(PI ** 2, abs=1e-12)
    for k in (1, 3, 5, 11, 101):
        assert autocovariance(m, k) == pytest.approx(-4.0 / k ** 2, abs=1e-12)
    for k in (2, 4, 10, 100):
        assert autocovariance(m, k) == pytest.approx(0.0, abs=1e-12)


def _sin_cos_exact(k: int, y: float):
    """sin and cos of k*y for the float y, reduced exactly modulo pi."""
    turns = Fraction(k) * Fraction(y) / _PI_EXACT
    sign = -1.0 if round(turns) % 2 else 1.0
    r = _reduce(Fraction(k) * Fraction(y), _PI_EXACT)
    return sign * math.sin(r), sign * math.cos(r)


def test_quadratic_cos_transform_exact_to_2_18():
    # r_k of the density 2y on (0, h], h = fl(pi), is
    # 2 [h sin(kh)/k + (cos(kh) - 1)/k^2]; for even k it is ~1e-15, all of
    # it from the angles, so they must be taken exactly
    h = PI
    piece = quadratic().density[0]
    rng = np.random.default_rng(20261018)
    ks = sorted({1, 2, 3, 2 ** 18 - 1, 2 ** 18,
                 *rng.integers(1, 2 ** 18, size=200, endpoint=True).tolist()})
    got = piece.cos_transform(np.array(ks, dtype=float))
    for k, value in zip(ks, got):
        s, c = _sin_cos_exact(k, h)
        want = 2.0 * (h * s / k + (c - 1.0) / k ** 2)
        assert abs(value - want) <= 1e-14 * abs(want), k


def test_table_cos_transform_exact_to_2_18():
    # the table piece of perfbench/data/table_measure.json against its exact
    # per-segment formula
    piece = TableDensity(ys=(0.5, 1.0, 1.7, 2.4, PI),
                         vals=(0.4242640687119285, 0.55, 0.9, 0.3, 0.05))
    rng = np.random.default_rng(20261019)
    ks = sorted({1, 2, 2 ** 18,
                 *rng.integers(1, 2 ** 18, size=200, endpoint=True).tolist()})
    got = piece.cos_transform(np.array(ks, dtype=float))
    segments = list(zip(piece.ys, piece.ys[1:], piece.vals, piece.vals[1:]))
    for k, value in zip(ks, got):
        terms = []
        for a, b, fa, fb in segments:
            slope = (fb - fa) / (b - a)
            (sa, ca), (sb, cb) = _sin_cos_exact(k, a), _sin_cos_exact(k, b)
            terms += [fb * sb / k, -fa * sa / k,
                      slope * cb / k ** 2, -slope * ca / k ** 2]
        want = math.fsum(terms)
        assert abs(value - want) <= 1e-12 * abs(want), k


def test_autocovariance_quadratic_vs_independent_quadrature():
    m = quadratic()
    for k in (1, 2, 7, 40):
        ref, _ = quad(lambda y: math.cos(k * y) * 2.0 * y, 0.0, PI,
                      limit=200, epsabs=1e-13, epsrel=1e-13)
        assert autocovariance(m, k) == pytest.approx(ref, abs=1e-11)


def test_autocovariance_power_vs_independent_quadrature():
    m = power_law(0.5)  # density 1.5 y^0.5
    for k in (1, 3, 64, 701):
        ref, _ = quad(lambda y: 1.5 * math.sqrt(y) * math.cos(k * y), 0.0, PI,
                      limit=max(100, 4 * k), epsabs=1e-13, epsrel=1e-13)
        assert autocovariance(m, k) == pytest.approx(ref, abs=1e-10)


def test_autocovariance_table_vs_independent_quadrature():
    piece = TableDensity(ys=(0.2, 0.9, 2.0, PI), vals=(0.3, 1.2, 0.1, 0.8))
    m = SpectralMeasure(density=(piece,))
    grid = np.asarray(piece.ys)
    vals = np.asarray(piece.vals)
    for k in (1, 5, 33):
        ref = sum(quad(lambda y: np.interp(y, grid, vals) * math.cos(k * y),
                       a, b, limit=200, epsabs=1e-13)[0]
                  for a, b in zip(grid[:-1], grid[1:]))
        assert autocovariance(m, k) == pytest.approx(ref, abs=1e-10)


def test_autocovariance_batch_matches_scalar():
    m = power_law(1.5)
    r = autocovariance_batch(m, 80)
    for k in (0, 1, 2, 40, 79):
        assert r[k] == pytest.approx(autocovariance(m, k), abs=1e-12)
    # atoms: both are rounded once from double-double, so the values agree
    # exactly, also across the kernel's blocks of lags
    for m in (counterexample(), nonergodic(),
              with_origin_atom(nonergodic(), 0.3)):
        r = autocovariance_batch(m, 40000)
        for k in (0, 1, 2, 40, 79, 32767, 32768, 32769, 39999):
            assert r[k] == autocovariance(m, k), k


def test_autocovariance_bounded_by_r0(gallery_measures):
    for m in gallery_measures.values():
        r = autocovariance_batch(m, 200)
        assert np.all(np.abs(r[1:]) <= r[0] + 1e-10)


def test_autocovariance_domain():
    with pytest.raises(DomainError):
        autocovariance(white_noise(), -1)
    with pytest.raises(DomainError):
        autocovariance(white_noise(), 1.5)


def test_mass_consistency(gallery_measures):
    for m in gallery_measures.values():
        assert autocovariance(m, 0) == pytest.approx(g_eval(m, PI), abs=1e-12)


def test_toeplitz_positive_semidefinite(gallery_measures):
    for m in gallery_measures.values():
        r = autocovariance_batch(m, 64)
        mat = np.array([[r[abs(i - j)] for j in range(64)] for i in range(64)])
        assert np.linalg.eigvalsh(mat).min() >= -1e-8


# --- robinson_integral -------------------------------------------------------

def test_robinson_single_atom():
    m = SpectralMeasure(atoms=((PI, 1.0),))
    assert robinson_integral(m) == pytest.approx(1.0 / PI ** 2, rel=1e-14)


def test_robinson_quadratic_diverges():
    assert robinson_integral(quadratic()) == math.inf


def test_robinson_origin_atom_diverges():
    m = SpectralMeasure(atom_at_zero=0.1)
    assert robinson_integral(m) == math.inf


def test_robinson_counterexample_grows_without_bound():
    # the truncated atomic measure has the finite value sum 2^k ~ 2^(kmax+1);
    # divergence of the underlying family shows as unbounded growth in k_max
    vals = [robinson_integral(counterexample(k)) for k in (16, 32, 60)]
    assert vals[0] > 1e4 and vals[1] > 1e9 and vals[2] > 1e17
    assert vals[0] < vals[1] < vals[2]
    assert robinson_integral(counterexample(60)) == pytest.approx(
        2.0 ** 61 - 4.0, rel=1e-12)


def test_robinson_integrable_power():
    m = SpectralMeasure(density=(PowerDensity(0.0, PI, 1.0, 1.5),))
    # int_0^pi y^-0.5 dy = 2 sqrt(pi)
    assert robinson_integral(m) == pytest.approx(2.0 * math.sqrt(PI), rel=1e-14)


def test_robinson_table_cases():
    diverging = SpectralMeasure(density=(
        TableDensity(ys=(0.0, 1.0), vals=(1.0, 1.0)),))
    assert robinson_integral(diverging) == math.inf
    flat = SpectralMeasure(density=(
        TableDensity(ys=(1.0, 2.0), vals=(3.0, 3.0)),))
    assert robinson_integral(flat) == pytest.approx(3.0 * (1.0 - 0.5), rel=1e-13)


@pytest.mark.parametrize("fn, exact", [
    (lambda y: y ** 2, PI),
    (lambda y: y ** 3, PI ** 2 / 2.0),
    (lambda y: y ** 1.5, 2.0 * math.sqrt(PI)),
    (lambda y: (np.abs(y - 1.0) + 1.0) * y ** 2,
     0.5 + (PI - 1.0) ** 2 / 2.0 + PI),
    (lambda y: np.ones_like(y), None),
    (lambda y: y, None),
], ids=["y^2", "y^3", "y^1.5", "kink", "1", "y"])
def test_robinson_opaque_piece_from_zero(fn, exact):
    # a panel evaluates its ends, and the integrand reads 0 at y = 0, not
    # f(0)/0**2: the panels cut at pi 2**-j, j <= 511, leave [0, pi 2**-511]
    # a negligible share of the convergent integrals and spoil the estimate
    # of the divergent ones, which raise
    m = SpectralMeasure(density=(OpaqueDensity(0.0, PI, fn),))
    if exact is None:
        with pytest.raises(NumericError):
            robinson_integral(m, 0.0)
    else:
        assert robinson_integral(m, 0.0) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("exponent, exact", [
    # (pi**q - 1e-3**q) / q with q = exponent - 1, by mpmath at 40 digits
    (1.0 - 1e-9, 8.0524851880348748),
    (1.0 + 1e-9, 8.0524851416281971),
])
def test_robinson_power_near_exponent_one(exponent, exact):
    # (hi**q - lo**q) / q cancels as q -> 0; the expm1 form does not
    piece = PowerDensity(1e-3, PI, 1.0, exponent)
    assert piece.robinson_part() == pytest.approx(exact, rel=1e-14)


def test_robinson_power_beyond_the_float_range():
    # lo**q overflows for q = -1.5 and lo = 1e-300: +inf where the integral
    # does too, and the product through logarithms where a small
    # coefficient brings it back into range
    m = SpectralMeasure(density=(PowerDensity(1e-300, 1.0, 1.0, -0.5),))
    assert robinson_integral(m) == math.inf
    assert robinson_integral(m, 1e-300) == math.inf
    # 1e-300 (1e-300**-1.5 - 1) / 1.5, the floats taken exactly, by mpmath
    # at 40 digits
    piece = PowerDensity(1e-300, 1.0, 1e-300, -0.5)
    assert piece.robinson_part() == pytest.approx(6.6666666666666665831e149,
                                                  rel=1e-12)


def test_robinson_a_zero_unchanged_on_gallery(gallery_measures):
    # R(0) = int_[0,pi] y**-2 dG, bit for bit as before R took a lower limit
    expected = {"counterexample": float.fromhex("0x1.0000000000000p+61"),
                "nonergodic": float.fromhex("0x1.f9cb9bf9a62afp-1"),
                "whitenoise": math.inf, "power05": math.inf,
                "quadratic": math.inf}
    for name, m in gallery_measures.items():
        assert robinson_integral(m) == expected[name]
        assert robinson_integral(m, 0.0) == expected[name]


def test_robinson_lower_limit_excludes_atoms_at_or_below_it():
    m = SpectralMeasure(atom_at_zero=5.0, atoms=((0.5, 1.0), (1.0, 2.0)))
    assert robinson_integral(m, 1e-300) == 4.0 + 2.0
    assert robinson_integral(m, 0.25) == 4.0 + 2.0
    assert robinson_integral(m, 0.5) == 2.0
    assert robinson_integral(m, 1.0) == 0.0
    assert robinson_integral(m, PI) == 0.0


def test_robinson_lower_limit_cuts_pieces_that_straddle_it():
    # power: int_a^pi y**-2 2y dy = 2 log(pi/a)
    m = quadratic()
    for a in (1e-300, 2.0 ** -62, 0.5, 3.0):
        assert robinson_integral(m, a) == pytest.approx(
            2.0 * math.log(PI / a), rel=1e-15)
    # table: cut at 0.75, where the interpolant is 1.5
    table = SpectralMeasure(density=(
        TableDensity((0.5, 1.0, 2.0), (1.0, 2.0, 0.5)),))
    cut = SpectralMeasure(density=(
        TableDensity((0.75, 1.0, 2.0), (1.5, 2.0, 0.5)),))
    assert robinson_integral(table, 0.75) == pytest.approx(
        robinson_integral(cut), rel=1e-15)
    assert robinson_integral(table, 0.25) == robinson_integral(table)
    assert robinson_integral(table, 2.0) == 0.0
    # opaque: int_a^2 1.3 dy, and int_a^pi 2/y dy for a far below pi
    opaque = SpectralMeasure(density=(
        OpaqueDensity(0.1, 2.0, lambda y: 1.3 * y ** 2),))
    assert robinson_integral(opaque, 0.5) == pytest.approx(1.95, rel=1e-12)
    linear = SpectralMeasure(density=(
        OpaqueDensity(0.0, PI, lambda y: 2.0 * y),))
    for a in (1e-6, 2.0 ** -62, 2.0 ** -511):
        assert robinson_integral(linear, a) == pytest.approx(
            2.0 * math.log(PI / a), rel=1e-12)


@pytest.mark.parametrize("a", [math.nan, -1.0, -1e-300, PI * (1 + 2e-16),
                               4.0, math.inf], ids=repr)
def test_robinson_lower_limit_domain(a):
    with pytest.raises(DomainError, match="lower limit"):
        robinson_integral(nonergodic(), a)


def test_robinson_finite_bounds_variance(gallery_measures):
    from specvar import variance_spectral
    finite_cases = [
        SpectralMeasure(atoms=((PI, 1.0),)),
        SpectralMeasure(density=(PowerDensity(0.0, PI, 1.0, 1.5),)),
        gallery_measures["nonergodic"],
    ]
    for m in finite_cases:
        rob = robinson_integral(m)
        assert math.isfinite(rob)
        bound = rob * PI ** 2 + g_eval(m, PI)
        for n in [2 ** r for r in range(0, 15)]:
            assert variance_spectral(m, n) <= bound * (1.0 + 1e-12)


# --- opaque densities --------------------------------------------------------

def test_opaque_density_roundtrip_against_power():
    power = SpectralMeasure(density=(PowerDensity(0.1, 2.0, 1.3, 2.0),))
    opaque = SpectralMeasure(density=(
        OpaqueDensity(0.1, 2.0, lambda y: 1.3 * y ** 2),))
    assert g_eval(opaque, 1.5) == pytest.approx(g_eval(power, 1.5), abs=1e-10)
    for k in (0, 1, 7):
        assert autocovariance(opaque, k) == pytest.approx(
            autocovariance(power, k), abs=1e-9)
    assert robinson_integral(opaque) == pytest.approx(
        robinson_integral(power), rel=1e-8)


def _one_plus_cos_squared():
    # 3/2 + cos(2y)/2: r_2 = pi/4, every other lag 0, G(x) = 3x/2 + sin(2x)/4
    return OpaqueDensity(0.0, PI, lambda y: 1.0 + np.cos(y) ** 2)


def test_opaque_cos_transform_closed_form_to_2_16():
    # every lag from the one panel set, in blocks whose temporaries stay
    # small however many lags are asked for
    k = np.arange(1.0, 2 ** 16 + 1)
    piece = _one_plus_cos_squared()
    tracemalloc.start()
    try:
        got = piece.cos_transform(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(got - np.where(k == 2, PI / 4, 0.0)).max() <= 1e-14
    assert peak < 64 * 2 ** 20


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_atom_sums_memory_bounded():
    # the power tables grow as atoms * sqrt(count), the block workspace as
    # atoms * min(count, its block): 6.1 and 15.7 MB with numpy 2.4, and
    # 10.5 and 14.5 MB when every block operation allocated its result
    m = nonergodic()
    m._cis_half  # the measure's own cached phases are not the call's
    assert _peak_bytes(atom_fejer_sums, m, 1, 2 ** 18) < 12e6
    rng = np.random.default_rng(2000)
    locs = np.unique(rng.uniform(1e-6, PI, 2000))
    m = SpectralMeasure(atoms=tuple(zip(locs.tolist(),
                                        rng.uniform(0.1, 2.0, len(locs)))))
    m._cis_half
    assert _peak_bytes(atom_fejer_sums, m, 1, 2 ** 10) < 20e6


@pytest.mark.parametrize("fn, exact, tol", [
    (lambda y: np.exp(-y),
     lambda k: (1.0 - (-1.0) ** k * math.exp(-PI)) / (1.0 + k * k), 1e-14),
    # a kink at y = 1: the exact transform of its two linear segments
    (lambda y: np.abs(y - 1.0) + 0.5,
     TableDensity((0.0, 1.0, PI), (1.5, 0.5, PI - 0.5)).cos_transform, 1e-13),
    # the square-root singularity at 0, against the power-law transform
    (np.sqrt, PowerDensity(0.0, PI, 1.0, 0.5).cos_transform, 1e-12),
], ids=["exp", "kink", "sqrt"])
def test_opaque_cos_transform_closed_forms(fn, exact, tol):
    k = np.arange(1.0, 1025.0)
    got = OpaqueDensity(0.0, PI, fn).cos_transform(k)
    assert np.abs(got - exact(k)).max() <= tol


@pytest.mark.parametrize("fn", [
    lambda y: 1.0 + np.cos(y) ** 2, lambda y: np.abs(y - 1.0) + 0.5,
], ids=["one_plus_cos_squared", "kink"])
def test_opaque_lag_is_the_same_float_in_any_call(fn):
    # a lag's transform depends on its lag and the panels alone; its
    # small-omega moments once came from a BLAS product, which rounds by
    # its shape, so a single-lag call differed from a batch in the last bit
    m = SpectralMeasure(density=(OpaqueDensity(0.0, PI, fn),))
    batch = autocovariance_batch(m, 400)
    for k in range(1, 400):
        assert autocovariance(m, k) == batch[k], k
    k = np.arange(1.0, 400.0)
    perm = np.random.default_rng(5).permutation(len(k))
    piece = m.density[0]
    assert np.array_equal(piece.cos_transform(k[perm]), batch[1:][perm])
    assert np.array_equal(piece.cos_transform(k[17:40]), batch[18:41])


def test_opaque_masses_closed_form():
    # a small G(x) keeps its relative accuracy down to x = 1e-300
    m = SpectralMeasure(density=(_one_plus_cos_squared(),))
    x = np.concatenate([np.linspace(0.0, PI, 201),
                        np.geomspace(1e-300, 1.0, 61)])
    want = 1.5 * x + np.sin(2.0 * x) / 4.0
    got = g_eval(m, x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.minimum(1.0, want))
    assert g_eval(m, 0.0) == 0.0


def test_opaque_masses_relative_near_the_origin():
    # the mass grid's dyadic points toward lo keep G(x) accurate relative to
    # itself at x = 1/n for every n < 2**63, and below
    linear = SpectralMeasure(density=(
        OpaqueDensity(0.0, PI, lambda y: 2.0 * y),))
    for x in (2.0 ** -62, 2.0 ** -200, 2.0 ** -511):
        assert g_eval(linear, x) == pytest.approx(x * x, rel=1e-15, abs=0.0)
    root = SpectralMeasure(density=(OpaqueDensity(0.0, PI, np.sqrt),))
    for x in (2.0 ** -62, 1e-8, 1e-3, 2.0):
        assert g_eval(root, x) == pytest.approx(2.0 / 3.0 * x ** 1.5,
                                                rel=1e-14, abs=0.0)
    # and toward lo > 0, where the density reads y, not y - lo, so the
    # rounding of y near lo, an ulp of lo, bounds what G resolves at lo + d
    # (a panel's end node may also round an ulp below lo)
    shifted = SpectralMeasure(density=(OpaqueDensity(
        0.5, PI, lambda y: np.sqrt(np.maximum(y - 0.5, 0.0))),))
    for d in (2.0 ** -10, 2.0 ** -20, 2.0 ** -40):
        assert g_eval(shifted, 0.5 + d) == pytest.approx(
            2.0 / 3.0 * d ** 1.5, rel=np.spacing(0.5) / d, abs=0.0)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf],
                         ids=repr)
def test_opaque_evaluator_values_checked(value):
    # every evaluation goes through ``formula``, which rejects a negative or
    # non-finite density value
    m = SpectralMeasure(density=(
        OpaqueDensity(0.0, PI, lambda y: np.where(y > 2.0, value, 1.0)),))
    for call in (lambda: g_eval(m, 1.0), lambda: autocovariance(m, 3),
                 lambda: variance_spectral(m, 100),
                 lambda: robinson_integral(m)):
        with pytest.raises(DomainError, match="^opaque density values"):
            call()


# --- serialization -----------------------------------------------------------

def test_json_roundtrip(gallery_measures):
    for name, m in gallery_measures.items():
        back = measure_from_json(measure_to_json(m))
        assert back.atom_at_zero == m.atom_at_zero
        assert back.atoms == m.atoms
        assert back.density == m.density


@settings(max_examples=40, deadline=None)
@given(measures())
def test_json_roundtrip_random(m):
    back = measure_from_json(measure_to_json(m))
    assert back == m


def test_json_unknown_key_paths():
    with pytest.raises(ValidationError) as e:
        measure_from_dict({"atom_at_zero": 0.0, "weird": 1})
    assert "weird" in str(e.value)
    with pytest.raises(ValidationError) as e:
        measure_from_dict({"atoms": [{"y": 1.0, "mass": 1.0, "w": 2}]})
    assert "atoms[0].w" in str(e.value)
    with pytest.raises(ValidationError) as e:
        measure_from_dict({"density": [{"type": "power", "coef": 1.0,
                                        "exp": 0.0, "low": 0.0}]})
    assert "density[0].low" in str(e.value)


def test_json_validation_errors():
    with pytest.raises(ValidationError):
        measure_from_dict({"atom_at_zero": -1.0})
    with pytest.raises(ValidationError):
        measure_from_dict({"atoms": [{"y": 4.0, "mass": 1.0}]})
    with pytest.raises(ValidationError):
        measure_from_dict({"atoms": [{"y": 1.0, "mass": 0.0}]})
    with pytest.raises(ValidationError):
        measure_from_dict({"density": [{"type": "power", "coef": 1.0,
                                        "exp": -1.5}]})
    with pytest.raises(ValidationError):
        measure_from_dict({"density": [{"type": "wavelet"}]})
    with pytest.raises(ValidationError):
        measure_from_json("{not json")


def test_json_pi_literal_tolerance():
    text = json.dumps({"atom_at_zero": 0.0, "atoms": [],
                       "density": [{"type": "power", "coef": 1.0, "exp": 0.0,
                                    "lo": 0.0, "hi": 3.141592653589793}]})
    m = measure_from_json(text)
    assert m.density[0].hi == PI


def test_opaque_not_serializable():
    m = SpectralMeasure(density=(OpaqueDensity(0.1, 1.0, lambda y: y),))
    with pytest.raises(SerializationError):
        measure_to_dict(m)


def test_atoms_sorted_on_load():
    m = measure_from_dict({"atoms": [{"y": 2.0, "mass": 1.0},
                                     {"y": 1.0, "mass": 2.0}]})
    assert m.atoms == ((1.0, 2.0), (2.0, 1.0))


@pytest.mark.parametrize("data, path", [
    ({"atom_at_zero": "1"}, "atom_at_zero"),
    ({"atoms": [{"y": 1.0, "mass": [1.0]}]}, "atoms[0].mass"),
    ({"atoms": [5]}, "atoms[0]"),
    ({"atoms": {"y": 1.0}}, "atoms"),
    ({"density": {"type": "power"}}, "density"),
    ({"atoms": [{"y": 1.0}]}, "atoms[0]"),
    ({"atoms": [{"mass": 1.0}]}, "atoms[0]"),
    ({"atoms": [{"y": 1.0, "mass": 1.0}, {"y": 1.0, "mass": 2.0}]}, "atoms"),
    ({"density": [{"coef": 1.0, "exp": 0.0}]}, "density[0]"),
    ({"density": [{"type": "power", "exp": 0.0, "hi": 3.5}]},
     "density[0].hi"),
    ({"density": [{"type": "table", "ys": 1.0, "vals": [1.0]}]},
     "density[0]"),
], ids=["non-number", "non-number-in-entry", "non-object", "atoms-not-list",
        "density-not-list", "missing-mass", "missing-y", "duplicate-atom",
        "piece-without-type", "hi-beyond-pi", "table-without-lists"])
def test_json_validation_error_key_paths(data, path):
    with pytest.raises(ValidationError) as e:
        measure_from_dict(data)
    assert e.value.path == path


def _mixed_measure():
    """An origin atom, atoms in (0, pi], a power piece and a table piece."""
    return SpectralMeasure(
        atom_at_zero=0.25, atoms=((0.3, 0.2), (2.0, 0.1), (PI, 0.05)),
        density=(PowerDensity(0.0, 0.25, 0.7, -0.4),
                 TableDensity((0.5, 1.0, 2.5), (0.2, 0.6, 0.1))))


@pytest.mark.parametrize("m", [counterexample(), power_law(0.5),
                               _mixed_measure()],
                         ids=["atomic", "density", "mixed"])
def test_autocovariance_batch_of_one_lag_is_r0(m):
    # the lag range 1 .. 0 is empty, so only r_0 is left
    r = autocovariance_batch(m, 1)
    assert r.shape == (1,) and r[0] == autocovariance(m, 0)
