import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import _PI_EXACT, _reduce

from specvar import (DomainError, OpaqueDensity, PowerDensity,
                     SerializationError, SpectralMeasure, TableDensity,
                     ValidationError, autocovariance, autocovariance_batch,
                     counterexample, g_eval, measure_from_dict,
                     measure_from_json, measure_to_dict, measure_to_json,
                     nonergodic, power_law, quadratic, robinson_integral,
                     white_noise, with_origin_atom)

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
