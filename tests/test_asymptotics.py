import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specvar import (DomainError, RegularVariationModel, ScanReport,
                     SlowlyVarying, c_gamma, c_identity_residual,
                     counterexample, d_gamma, dichotomy_check, g_eval,
                     gamma_fit, growth_bound_report, nonergodic, power_law,
                     subsequence_scan, theorem_check, variance_spectral,
                     white_noise, with_origin_atom)
from test_fejer_variance import _sandwich_measures, _thousand_atoms

PI = math.pi


# --- constants ---------------------------------------------------------------

def test_c_gamma_at_one():
    assert c_gamma(1.0) == pytest.approx(1.0 / PI, abs=1e-12)


def test_c_gamma_formula_spot():
    expected = math.gamma(1.5) * math.sin(PI / 4.0) / (1.5 * PI)
    assert c_gamma(0.5) == pytest.approx(expected, rel=1e-13)


def test_d_gamma_at_one():
    assert d_gamma(1.0) == pytest.approx(2.0 / PI, abs=1e-12)


def test_constants_domain():
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(DomainError):
            c_gamma(bad)
        with pytest.raises(DomainError):
            d_gamma(bad)


def test_c_d_algebraic_identity():
    rng = np.random.default_rng(7)
    for g in rng.uniform(0.01, 1.99, size=50):
        lhs = c_gamma(g)
        rhs = (g / (2.0 - g)) * 2.0 ** (g - 2.0) * d_gamma(g)
        assert abs(lhs - rhs) <= 1e-12


def test_c_gamma_continuity():
    for g in np.linspace(0.1, 1.9, 37):
        assert abs(c_gamma(g + 1e-6) - c_gamma(g)) <= 1e-4


@pytest.mark.parametrize("gamma", [0.25, 1.0, 1.75])
def test_quadrature_identity(gamma):
    assert c_identity_residual(gamma) <= 1e-8


# --- slowly varying ----------------------------------------------------------

def test_slowly_varying_constant():
    L = SlowlyVarying.constant()
    assert L(5.0) == 1.0
    assert np.all(L(np.array([1.0, 1e9])) == 1.0)


def test_slowly_varying_log_power_values():
    L = SlowlyVarying.log_power(2.0)
    assert L(0.0) == pytest.approx(1.0, rel=1e-12)
    assert L(100.0) == pytest.approx(math.log(math.e + 100.0) ** 2, rel=1e-12)


def test_slowly_varying_ratio_tends_to_one():
    # lambda = 2 at x = 2^30 lands within 0.05 for moderate exponents; for
    # larger lambda or exponent only the monotone trend toward 1 is checked
    for a in (0.5, 1.0):
        L = SlowlyVarying.log_power(a)
        assert abs(L(2.0 * 2.0 ** 30) / L(2.0 ** 30) - 1.0) <= 0.05
    for a in (0.5, 1.0, 2.0):
        L = SlowlyVarying.log_power(a)
        for lam in (2.0, 10.0):
            gaps = [abs(L(lam * 2.0 ** e) / L(2.0 ** e) - 1.0)
                    for e in (10, 20, 30)]
            assert gaps[0] > gaps[1] > gaps[2]


def test_slowly_varying_unknown_kind():
    with pytest.raises(DomainError):
        SlowlyVarying("polynomial")


@pytest.mark.parametrize("exponent", [2.5, -1.0, 1e-300], ids=repr)
def test_constant_slowly_varying_takes_no_exponent(exponent):
    # SlowlyVarying("constant", 2.5) once evaluated to 1, ignoring its
    # exponent, and still compared unequal to SlowlyVarying.constant()
    with pytest.raises(DomainError, match="^exponent must be 0.0 for kind "
                                          "'constant'"):
        SlowlyVarying("constant", exponent)
    assert SlowlyVarying("constant", 0) == SlowlyVarying.constant()


def test_model_domain():
    with pytest.raises(DomainError):
        RegularVariationModel(gamma=0.0, K0=1.0)
    with pytest.raises(DomainError):
        RegularVariationModel(gamma=2.0, K0=1.0)
    with pytest.raises(DomainError):
        RegularVariationModel(gamma=1.0, K0=0.0)


# --- theorem_check -----------------------------------------------------------

def test_theorem_check_power_exact_g_column():
    m = power_law(0.5)
    model = RegularVariationModel(gamma=0.5, K0=1.0 / c_gamma(0.5))
    rep = theorem_check(m, model, [2 ** r for r in range(4, 15)])
    # the G-ratio is algebraically 1 for this family, independent of quadrature
    for row in rep.rows:
        assert row.g_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.rows[-1].var_ratio == pytest.approx(1.0, abs=5e-3)
    assert rep.var_ratio_converged and rep.g_ratio_converged


def test_theorem_check_whitenoise_both_columns_one():
    m = white_noise()
    model = RegularVariationModel(gamma=1.0, K0=1.0)
    rep = theorem_check(m, model, [2 ** r for r in range(2, 13)])
    for row in rep.rows:
        assert row.var_ratio == pytest.approx(1.0, abs=1e-9)
        assert row.g_ratio == pytest.approx(1.0, abs=1e-9)


def test_theorem_check_counterexample_oscillates():
    m = counterexample()
    model = RegularVariationModel(gamma=1.0, K0=1.0)
    n_grid = sorted(set(int(v) for v in np.geomspace(2 ** 10, 2 ** 14, 120)))
    rep = theorem_check(m, model, n_grid)
    # the spread is intrinsic (G(x)/x has no limit); oracle value ~0.78
    assert rep.var_ratio_sup - rep.var_ratio_inf >= 0.5
    assert rep.var_ratio_sup - rep.var_ratio_inf >= 0.05  # coarse floor


def test_theorem_check_bad_grid():
    model = RegularVariationModel(gamma=1.0, K0=1.0)
    with pytest.raises(DomainError):
        theorem_check(white_noise(), model, [])
    with pytest.raises(DomainError):
        theorem_check(white_noise(), model, [4, 4, 8])


# --- growth_bound_report -----------------------------------------------------

def test_growth_bound_whitenoise_all_one():
    rep = growth_bound_report(white_noise(), 1.0, SlowlyVarying.constant(),
                              [2 ** k for k in range(0, 13)])
    assert rep.kappa == 2.0 and rep.kappa_bounded
    for v in (rep.subseq_sup, rep.subseq_inf, rep.filled_sup, rep.filled_inf):
        assert v == pytest.approx(1.0, abs=1e-9)
    # flat-spectrum G(x) = x/pi, so the G-ratio column is identically 1/pi
    assert rep.g_sup == pytest.approx(1.0 / PI, abs=1e-12)


def test_growth_bound_power_half():
    rep = growth_bound_report(power_law(0.5), 0.5, SlowlyVarying.constant(),
                              [2 ** k for k in range(0, 15)])
    # Var/g and G-ratio estimate the same scale once the G side is divided by
    # C(gamma); the raw columns differ by exactly that constant
    assert rep.g_sup == pytest.approx(1.0, abs=1e-12)
    assert rep.subseq_sup == pytest.approx(rep.g_sup / c_gamma(0.5), rel=0.01)
    assert rep.filled_sup == pytest.approx(rep.subseq_sup, rel=0.01)
    assert rep.subseq_sup / rep.filled_sup <= 4.0
    assert math.isfinite(rep.filled_inf) and rep.filled_inf > 0.0


def test_growth_bound_kappa_flag():
    rep = growth_bound_report(white_noise(), 1.0, SlowlyVarying.constant(),
                              [1, 100], kappa_warn=16.0)
    assert rep.kappa == 100.0 and not rep.kappa_bounded


def test_growth_bound_domain():
    with pytest.raises(DomainError):
        growth_bound_report(white_noise(), 1.0, SlowlyVarying.constant(), [5])
    with pytest.raises(DomainError):
        growth_bound_report(white_noise(), 1.0, SlowlyVarying.constant(),
                            [4, 2])


@pytest.mark.parametrize("name", sorted(_sandwich_measures()))
def test_g_columns_equal_per_row_g(name):
    # one g_eval call takes the whole G column; each value equals G at its
    # own 1/n bit for bit
    m = _sandwich_measures()[name]
    L = SlowlyVarying.log_power(0.5)
    ns = [*range(1, 40), *(2 ** r for r in range(6, 63, 3))]
    rep = theorem_check(m, RegularVariationModel(gamma=0.5, K0=1.0, L=L), ns)
    assert [(r.x, r.G_x) for r in rep.rows] == [
        (1.0 / n, g_eval(m, 1.0 / n)) for n in ns]
    ns = [2 ** r for r in range(13)]
    rep = growth_bound_report(m, 0.5, L, ns)
    xs = 1.0 / np.array(ns, dtype=float)
    ratios = (np.array([g_eval(m, x) for x in xs])
              / (xs ** 1.5 * L(1.0 / xs)))
    assert (rep.g_sup, rep.g_inf) == (ratios.max(), ratios.min())


# --- dichotomy_check ---------------------------------------------------------

def test_dichotomy_origin_atom_exact():
    m = with_origin_atom(white_noise(), 0.7)
    rep = dichotomy_check(m, [2 ** r for r in range(1, 13)], tol=1e-3)
    for n, ratio in zip(rep.n, rep.ratios):
        assert ratio - 0.7 == pytest.approx(1.0 / n, abs=1e-12)
    assert rep.matches_origin_atom
    assert abs(rep.limit_estimate - 0.7) <= 1e-3


def test_dichotomy_whitenoise_vanishes():
    rep = dichotomy_check(white_noise(), [2 ** r for r in range(1, 13)])
    assert rep.ratios[-1] == pytest.approx(1.0 / 2 ** 12, rel=1e-9)
    assert rep.matches_origin_atom  # atom mass 0, column -> 0


def test_dichotomy_counterexample_vanishes():
    rep = dichotomy_check(counterexample(), [2 ** r for r in range(4, 11)])
    assert rep.ratios[-1] < 1e-2
    assert rep.matches_origin_atom


@pytest.mark.parametrize("name", ["counterexample", "nonergodic", "origin",
                                  "thousand"])
def test_dichotomy_ratios_equal_single_n_calls(name):
    # one batched call for the whole column: isolated n, a run of
    # consecutive n and n up to 2**63 - 1, each ratio the single-n value
    # over n**2 bit for bit
    m = {"counterexample": counterexample, "nonergodic": nonergodic,
         "origin": lambda: with_origin_atom(nonergodic(), 0.3),
         "thousand": _thousand_atoms}[name]()
    grid = [1, 2, 3, 4, 5, 17, 1000, *range(4096, 4116), 2 ** 31 + 5,
            2 ** 53 + 1, 3 ** 38, 2 ** 62, 2 ** 63 - 1]
    rep = dichotomy_check(m, grid)
    assert rep.ratios == tuple(variance_spectral(m, n) / float(n) ** 2
                               for n in grid)


# --- subsequence_scan --------------------------------------------------------

def test_subsequence_whitenoise_identity():
    rep = subsequence_scan(white_noise(), 1.0, 2, 8)
    assert np.allclose(rep.dyadic_ratios, 1.0, atol=1e-11)
    assert np.allclose(rep.octave_ratios, 1.0, atol=1e-9)


def test_subsequence_counterexample_dyadic_settles_octaves_do_not():
    rep = subsequence_scan(counterexample(), 1.0, 10, 18)
    dy = rep.dyadic_ratios
    diffs = [abs(dy[i + 1] - dy[i]) for i, r in enumerate(rep.r_values[:-1])
             if r >= 12]
    assert max(diffs) < 1e-3
    # octave maxima stay ~2% above the dyadic baseline; they do not tend to 1
    assert min(rep.octave_ratios[-4:]) > 1.02


def test_subsequence_nonergodic_growth():
    # gamma = 0: raw variances; dyadic column bounded, octave maxima grow.
    # The final octave ratio at this scale is ~8.35 by direct evaluation of
    # the atom sums (the window maximum 1.436 sits at the alternating-bit
    # integer 174762 while the dyadic value has settled at 0.172).
    rep = subsequence_scan(nonergodic(), 0.0, 0, 18)
    assert max(rep.dyadic_ratios) == pytest.approx(0.19854569229312555,
                                                   rel=1e-9)
    assert rep.octave_ratios[-1] == pytest.approx(8.3526147, rel=1e-5)
    assert rep.octave_ratios[-1] > 8.0
    octs = list(rep.octave_ratios)
    assert octs[-1] == max(octs)  # still growing at the window edge


def test_subsequence_gamma_zero_allowed_two_rejected():
    with pytest.raises(DomainError):
        subsequence_scan(white_noise(), -0.1, 2, 4)
    with pytest.raises(DomainError):
        subsequence_scan(white_noise(), 2.1, 2, 4)
    with pytest.raises(DomainError):
        subsequence_scan(white_noise(), 1.0, 4, 4)


# --- gamma_fit ---------------------------------------------------------------

def test_gamma_fit_exact_power():
    pts = [(n, 3.0 * n ** 1.5) for n in [2 ** r for r in range(4, 13)]]
    fit = gamma_fit(pts)
    assert fit.gamma_hat == pytest.approx(1.5, abs=1e-10)
    assert fit.K0_hat == pytest.approx(3.0, rel=1e-10)
    assert fit.residual < 1e-10


def test_gamma_fit_whitenoise_scan():
    from specvar import variance_spectral
    pts = [(n, variance_spectral(white_noise(), n))
           for n in [2 ** r for r in range(2, 12)]]
    fit = gamma_fit(pts)
    assert fit.gamma_hat == pytest.approx(1.0, abs=1e-9)
    assert fit.K0_hat == pytest.approx(1.0, rel=1e-9)


def test_gamma_fit_power_half_scan():
    from specvar import variance_spectral
    m = power_law(0.5)
    pts = [(n, variance_spectral(m, n)) for n in [2 ** r for r in range(8, 15)]]
    fit = gamma_fit(pts)
    assert 0.48 <= fit.gamma_hat <= 0.52


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0))
def test_gamma_fit_scale_equivariance(c):
    base = [(n, 2.0 * n ** 1.2) for n in (4, 9, 17, 40, 120)]
    scaled = [(n, c * v) for n, v in base]
    f0 = gamma_fit(base)
    f1 = gamma_fit(scaled)
    assert f1.gamma_hat == pytest.approx(f0.gamma_hat, abs=1e-10)
    assert f1.K0_hat == pytest.approx(c * f0.K0_hat, rel=1e-10)


def test_gamma_fit_domain():
    with pytest.raises(DomainError):
        gamma_fit([(2, 1.0), (4, 2.0)])
    with pytest.raises(DomainError):
        gamma_fit([(2, 1.0), (2, 2.0), (4, 3.0)])
    with pytest.raises(DomainError):
        gamma_fit([(2, 1.0), (4, -2.0), (8, 3.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gamma_fit_rejects_nonfinite_variance(bad):
    # a NaN variance used to pass the positivity check and give NaN fits
    with pytest.raises(DomainError, match="finite"):
        gamma_fit([(2, 1.0), (4, bad), (8, 3.0)])


# --- report serialization ----------------------------------------------------

def test_scan_report_csv_roundtrip():
    model = RegularVariationModel(gamma=1.0, K0=1.0)
    rep = theorem_check(counterexample(), model, [2 ** r for r in range(8, 13)])
    rows = ScanReport.rows_from_csv(rep.to_csv())
    assert rows == rep.rows
