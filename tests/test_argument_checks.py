"""Numeric arguments on the library path raise DomainError.

Every integer argument goes through one validator and every float argument
through another, so NaN, +-inf, non-integral and out-of-range values fail
the same way wherever they enter; the JSON path raises ValidationError.
"""

import inspect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import specvar
from specvar import (DomainError, OpaqueDensity, PowerDensity,
                     RegularVariationModel, SlowlyVarying, SpectralMeasure,
                     TableDensity, ValidationError, autocovariance,
                     autocovariance_batch, c_gamma, c_identity_residual,
                     counterexample, d_gamma, dichotomy_check,
                     empirical_variance, fejer_kernel, g_eval, gamma_fit,
                     growth_bound_report, measure_from_dict,
                     measure_from_json, nonergodic, power_law, quadratic,
                     robinson_integral, sandwich, simulate, subsequence_scan,
                     theorem_check, variance_covariance, variance_profile,
                     variance_spectral, white_noise, with_origin_atom)
from specvar.errors import check_float
from specvar.gallery import build
from specvar.simulate import MAX_PATH_LENGTH
from specvar.spectral_measure import MAX_LAGS

NAN, INF, PI = math.nan, math.inf, math.pi
BAD_INTEGERS = [NAN, INF, -INF, 2.5]

_M = nonergodic()

INTEGER_ARGS = {
    "variance_spectral": lambda v: variance_spectral(_M, v),
    "variance_covariance": lambda v: variance_covariance(_M, v),
    "variance_profile": lambda v: variance_profile(_M, v),
    "sandwich": lambda v: sandwich(_M, v),
    "fejer_kernel": lambda v: fejer_kernel(v, 0.5),
    "autocovariance": lambda v: autocovariance(_M, v),
    "autocovariance_batch": lambda v: autocovariance_batch(_M, v),
    "simulate N": lambda v: simulate(white_noise(), N=v, P=2, seed=1),
    "simulate P": lambda v: simulate(white_noise(), N=8, P=v, seed=1),
    "empirical_variance": lambda v: empirical_variance(
        simulate(white_noise(), N=8, P=2, seed=1), v),
    "gamma_fit n": lambda v: gamma_fit([(v, 1.0), (4, 2.0), (8, 3.0)]),
    "theorem_check": lambda v: theorem_check(
        _M, RegularVariationModel(gamma=1.0, K0=1.0), [v, 4, 8]),
    "dichotomy_check": lambda v: dichotomy_check(_M, [v, 4, 8]),
    "growth_bound_report": lambda v: growth_bound_report(
        _M, 1.0, SlowlyVarying.constant(), [v, 4, 8]),
    "subsequence_scan r0": lambda v: subsequence_scan(_M, 1.0, v, 3),
    "subsequence_scan r1": lambda v: subsequence_scan(_M, 1.0, 1, v),
}


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("call", sorted(INTEGER_ARGS))
def test_integer_argument_rejected(call, bad):
    with pytest.raises(DomainError, match="integer"):
        INTEGER_ARGS[call](bad)


N_ARGS = {
    "variance_spectral": (lambda v: variance_spectral(white_noise(), v), "n"),
    "variance_covariance": (lambda v: variance_covariance(power_law(0.5), v),
                            "n"),
    "variance_profile": (lambda v: variance_profile(_M, v), "n_max"),
    "autocovariance": (lambda v: autocovariance(_M, v), "lag"),
    "autocovariance_batch": (lambda v: autocovariance_batch(_M, v),
                             "batch length"),
}


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 + 5, 1e19], ids=repr)
@pytest.mark.parametrize("call", sorted(N_ARGS))
def test_n_at_or_above_2_63_rejected_before_allocation(call, big):
    # n and lags are int64 inside; at 2**63 numpy would build empty or
    # overflowing arrays, so the bound is checked before anything is made
    fn, name = N_ARGS[call]
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^{name} must be .*< 2\*\*63"):
            fn(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


CAPPED_ARGS = {
    "variance_covariance": (lambda v: variance_covariance(_M, v), "n"),
    "variance_profile": (lambda v: variance_profile(_M, v), "n_max"),
    "autocovariance_batch": (lambda v: autocovariance_batch(quadratic(), v),
                             "batch length"),
}


@pytest.mark.parametrize("n", [MAX_LAGS + 1, 2 ** 62], ids=repr)
@pytest.mark.parametrize("call", sorted(CAPPED_ARGS))
def test_o_n_calls_capped_at_max_lags_before_allocation(call, n):
    # these cost O(n) time, and a profile or a batch an O(n) output (their
    # lags go in fixed blocks, so no workspace grows with n); above the cap
    # they raise DomainError naming the argument before any array is made,
    # and the cap still admits a full nonergodic profile to 2**26
    assert MAX_LAGS >= 2 ** 26
    fn, name = CAPPED_ARGS[call]
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^{name} must be <= MAX_LAGS"):
            fn(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


COS_TRANSFORM_PIECES = {
    "power": power_law(0.5).density[0],
    "table": TableDensity((0.0, 1.0, PI), (1.0, 2.0, 0.5)),
    "opaque": OpaqueDensity(0.0, PI, lambda y: 1.0 + np.cos(y) ** 2),
}


@pytest.mark.parametrize("k", [MAX_LAGS + 1, 2 ** 62], ids=repr)
@pytest.mark.parametrize("piece", sorted(COS_TRANSFORM_PIECES))
def test_cos_transform_lags_capped_before_allocation(piece, k):
    # every piece costs O(1) per lag, but lags keep the cap of the O(n)
    # calls: one above it raises DomainError before anything is built, an
    # opaque piece's Chebyshev panels included
    fn = COS_TRANSFORM_PIECES[piece].cos_transform
    lags = np.array([1.0, 2.0, float(k)])
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^lags must be integers in "
                                              r"\[1, MAX_LAGS"):
            fn(lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("k", [0.0, -3.0, 2.5, NAN, INF], ids=repr)
@pytest.mark.parametrize("piece", sorted(COS_TRANSFORM_PIECES))
def test_cos_transform_rejects_lags_below_one_or_not_integers(piece, k):
    with pytest.raises(DomainError, match="^lags must be integers"):
        COS_TRANSFORM_PIECES[piece].cos_transform([3.0, k])


@pytest.mark.parametrize("call", [
    lambda: fejer_kernel(8, NAN),
    lambda: g_eval(quadratic(), NAN),
    lambda: g_eval(nonergodic(), NAN),
    lambda: g_eval(nonergodic(), [0.5, NAN]),
], ids=["fejer_kernel", "g_eval density", "g_eval atoms", "g_eval array"])
def test_nan_point_rejected(call):
    with pytest.raises(DomainError):
        call()


FLOAT_ARGS = {
    "growth_bound_report gamma": lambda v: growth_bound_report(
        _M, v, SlowlyVarying.constant(), [2, 4, 8]),
    "growth_bound_report kappa_warn": lambda v: growth_bound_report(
        _M, 1.0, SlowlyVarying.constant(), [2, 4, 8], kappa_warn=v),
    "RegularVariationModel K0": lambda v: RegularVariationModel(0.5, K0=v),
    "RegularVariationModel gamma": lambda v: RegularVariationModel(v, K0=1.0),
    "SlowlyVarying.log_power": lambda v: SlowlyVarying.log_power(v),
    "SlowlyVarying exponent": lambda v: SlowlyVarying("log_power", v),
    "theorem_check tol": lambda v: theorem_check(
        _M, RegularVariationModel(gamma=1.0, K0=1.0), [2, 4, 8], tol=v),
    "dichotomy_check tol": lambda v: dichotomy_check(_M, [2, 4, 8], tol=v),
}


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=repr)
@pytest.mark.parametrize("call", sorted(FLOAT_ARGS))
def test_float_argument_rejected(call, bad):
    # NaN used to flow into a NaN sup or a NaN model, +inf into a 0.0 ratio
    # or an infinite K0, and a NaN tol into a report that never converges
    with pytest.raises(DomainError, match="must be a finite number"):
        FLOAT_ARGS[call](bad)


@pytest.mark.parametrize("call", ["theorem_check tol", "dichotomy_check tol"])
def test_negative_tol_rejected(call):
    with pytest.raises(DomainError, match=r"^tol must be a finite number >= 0"):
        FLOAT_ARGS[call](-1.0)


@pytest.mark.parametrize("bad", [100.5, NAN, 0], ids=repr)
def test_growth_bound_fill_limit_is_an_integer(bad):
    with pytest.raises(DomainError, match="^fill_limit must be an integer"):
        growth_bound_report(_M, 1.0, SlowlyVarying.constant(), [2, 4, 8],
                            fill_limit=bad)


@pytest.mark.parametrize("gamma", [0, 0.0, 1, 2.0])
def test_growth_bound_finite_gamma_still_valid(gamma):
    # the boundary indices 0 and 2 stay valid diagnostics here (the
    # benchmark passes 0.0, 1.0 and 2.0)
    rep = growth_bound_report(_M, gamma, SlowlyVarying.log_power(0.5),
                              [2, 4, 8], kappa_warn=2.0, fill_limit=8)
    assert rep.kappa_bounded and math.isfinite(rep.filled_sup)


def test_growth_models_store_their_checked_floats():
    # a numeric string passes check_float; the model must keep the float,
    # not the string, or g() and predicted_g_small fail later in numpy
    model = RegularVariationModel("0.5", K0="2")
    assert (model.gamma, model.K0) == (0.5, 2.0)
    assert type(model.gamma) is float and type(model.K0) is float
    assert model.g(4) == 4.0 ** 0.5
    assert math.isfinite(model.predicted_g_small(0.25))
    L = SlowlyVarying("log_power", "2")
    assert type(L.exponent) is float and L(1.0) == math.log(math.e + 1.0) ** 2
    assert SlowlyVarying.log_power(2) == L


@pytest.mark.parametrize("gamma", [-5.0, -1e-300, 2.0000000000000004, 7.0],
                         ids=repr)
def test_growth_bound_gamma_outside_0_2_rejected(gamma):
    # gamma = -5 once returned subseq_sup of about 1.09e6
    with pytest.raises(DomainError, match=r"^gamma must be a finite number "
                                          r">= 0\.0 and <= 2\.0, got"):
        growth_bound_report(_M, gamma, SlowlyVarying.constant(), [2, 4, 8])


@pytest.mark.parametrize("value, ends, text", [
    (0.0, {"above": 0.0, "below": 2.0}, "> 0.0 and < 2.0"),
    (2.0, {"above": 0.0, "below": 2.0}, "> 0.0 and < 2.0"),
    (-1.0, {"minimum": 0.0}, ">= 0.0"),
    (2.5, {"minimum": 0.0, "maximum": 2.0}, ">= 0.0 and <= 2.0"),
    (-1.0, {"above": -1.0}, "> -1.0"),
    ("x", {"minimum": 0.0, "below": 1.0}, ">= 0.0 and < 1.0"),
], ids=repr)
def test_check_float_names_every_end(value, ends, text):
    with pytest.raises(DomainError, match=re.escape(
            f"x must be a finite number {text}, got {value!r}")):
        check_float(value, "x", **ends)


def test_check_float_takes_values_at_closed_ends_and_inside_open_ones():
    assert check_float(0, "x", 0.0, 2.0) == 0.0
    assert check_float(2.0, "x", 0.0, 2.0) == 2.0
    assert check_float("1.5", "x", above=0.0, below=2.0) == 1.5
    assert check_float(5e-324, "x", above=0.0) == 5e-324
    assert type(check_float(np.float32(0.5), "x")) is float


@pytest.mark.parametrize("family", [counterexample, nonergodic],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [8.5, 40.7, NAN, INF, -INF, 7, "12.5", "x",
                                 None], ids=repr)
def test_k_max_is_an_integer_of_at_least_8(family, bad):
    # 8.5 once built 8 atoms and 40.7 a k_max of 40; NaN raised a bare
    # ValueError and inf an OverflowError
    with pytest.raises(DomainError, match="^k_max must be an integer"):
        family(bad)


@pytest.mark.parametrize("name", ["counterexample", "nonergodic"])
def test_k_max_as_an_integer_string_still_builds(name):
    # the CLI passes gallery:<name>:k_max=12 on as a string
    for k_max in ("12", 12, 12.0, np.int64(12)):
        m = build(name, k_max=k_max)
        assert m.meta["k_max"] == 12 and type(m.meta["k_max"]) is int
    assert build(name, k_max="12").atoms == build(name, k_max=12).atoms


# --- every numeric parameter of every public callable -------------------------

# names in specvar.__all__ the walk below leaves out, besides the exception
# types: result types, which the library builds and a caller only reads
RESULT_TYPES = {"BoundsReport", "DichotomyReport", "EmpiricalVariance",
                "FitResult", "GrowthBoundReport", "PathBatch", "ScanReport",
                "ScanRow", "SubsequenceScanReport"}

_W = white_noise()
_BATCH = simulate(_W, N=8, P=2, seed=1)
_MODEL = RegularVariationModel(1.0, 1.0)
_CONST = SlowlyVarying.constant()


def _opaque(lo=0.0, hi=PI):
    return OpaqueDensity(lo, hi, lambda y: 1.0 + np.cos(y) ** 2)


def _json_power(**entry):
    return {"density": [{"type": "power", "coef": 1.0, "exp": 0.5, **entry}]}


def _json_atom(y=1.0, mass=1.0):
    return {"atoms": [{"y": y, "mass": mass}]}


# id -> (public name, parameter, call with the bad value in that parameter,
# out-of-range values beside NaN, +inf and -inf); a sequence parameter takes
# the bad value in one of its entries
NUMERIC_ARGS = {
    "OpaqueDensity lo": ("OpaqueDensity", "lo", lambda v: _opaque(lo=v),
                         [-0.5]),
    "OpaqueDensity hi": ("OpaqueDensity", "hi", lambda v: _opaque(hi=v),
                         [0.0, 4.0]),
    "PowerDensity lo": ("PowerDensity", "lo",
                        lambda v: PowerDensity(v, PI, 1.0, 0.5), [-0.5]),
    "PowerDensity hi": ("PowerDensity", "hi",
                        lambda v: PowerDensity(0.0, v, 1.0, 0.5), [0.0, 4.0]),
    "PowerDensity coef": ("PowerDensity", "coef",
                          lambda v: PowerDensity(0.0, PI, v, 0.5), [-1.0]),
    "PowerDensity exponent": ("PowerDensity", "exponent",
                              lambda v: PowerDensity(0.0, PI, 1.0, v),
                              [-1.0, -2.0]),
    "TableDensity ys": ("TableDensity", "ys",
                        lambda v: TableDensity((v, 1.0, 2.0), (1.0,) * 3),
                        [-1.0, 1.5]),
    "TableDensity vals": ("TableDensity", "vals",
                          lambda v: TableDensity((0.0, 1.0), (1.0, v)),
                          [-1.0]),
    "SpectralMeasure atom_at_zero": (
        "SpectralMeasure", "atom_at_zero",
        lambda v: SpectralMeasure(atom_at_zero=v), [-1.0]),
    "SpectralMeasure atom location": (
        "SpectralMeasure", "atoms",
        lambda v: SpectralMeasure(atoms=((v, 1.0),)), [0.0, -1.0, 4.0, 1e-320]),
    "SpectralMeasure atom mass": (
        "SpectralMeasure", "atoms",
        lambda v: SpectralMeasure(atoms=((1.0, v),)), [0.0, -1.0]),
    "RegularVariationModel gamma": (
        "RegularVariationModel", "gamma",
        lambda v: RegularVariationModel(v, 1.0), [0.0, 2.0, -1.0]),
    "RegularVariationModel K0": (
        "RegularVariationModel", "K0",
        lambda v: RegularVariationModel(1.0, v), [0.0, -1.0]),
    "SlowlyVarying exponent": ("SlowlyVarying", "exponent",
                               lambda v: SlowlyVarying("constant", v), [2.5]),
    "autocovariance": ("autocovariance", "k",
                       lambda v: autocovariance(_M, v), [-1]),
    "autocovariance_batch": ("autocovariance_batch", "n",
                             lambda v: autocovariance_batch(_M, v),
                             [0, MAX_LAGS + 1]),
    "c_gamma": ("c_gamma", "gamma", c_gamma, [0.0, 2.0, -1e308]),
    "c_identity_residual": ("c_identity_residual", "gamma",
                            c_identity_residual, [0.0, 2.0, -1e308]),
    "counterexample": ("counterexample", "k_max", counterexample, [7]),
    "d_gamma": ("d_gamma", "gamma", d_gamma, [0.0, 2.0, -1e308]),
    "dichotomy_check n_grid": ("dichotomy_check", "n_grid",
                               lambda v: dichotomy_check(_M, [v, 4]), [0]),
    "dichotomy_check tol": ("dichotomy_check", "tol",
                            lambda v: dichotomy_check(_M, [2, 4], tol=v),
                            [-1.0]),
    "empirical_variance": ("empirical_variance", "n",
                           lambda v: empirical_variance(_BATCH, v), [0, 9]),
    "fejer_kernel n": ("fejer_kernel", "n", lambda v: fejer_kernel(v, 0.5),
                       [0]),
    "fejer_kernel y": ("fejer_kernel", "y", lambda v: fejer_kernel(8, v),
                       [-0.1, 4.0]),
    "g_eval": ("g_eval", "x", lambda v: g_eval(_M, [0.5, v]), [-0.1, 4.0]),
    "gamma_fit n": ("gamma_fit", "points",
                    lambda v: gamma_fit([(v, 1.0), (4, 2.0), (8, 3.0)]),
                    [0]),
    "gamma_fit variance": ("gamma_fit", "points",
                           lambda v: gamma_fit([(2, v), (4, 2.0), (8, 3.0)]),
                           [0.0, -1.0]),
    "growth_bound_report gamma": (
        "growth_bound_report", "gamma",
        lambda v: growth_bound_report(_M, v, _CONST, [2, 4]), [-5.0, 2.5]),
    "growth_bound_report subsequence": (
        "growth_bound_report", "subsequence",
        lambda v: growth_bound_report(_M, 1.0, _CONST, [v, 4]), [0]),
    "growth_bound_report kappa_warn": (
        "growth_bound_report", "kappa_warn",
        lambda v: growth_bound_report(_M, 1.0, _CONST, [2, 4], kappa_warn=v),
        []),
    "growth_bound_report fill_limit": (
        "growth_bound_report", "fill_limit",
        lambda v: growth_bound_report(_M, 1.0, _CONST, [2, 4], fill_limit=v),
        [0, 3]),
    "measure_from_dict atom_at_zero": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict({"atom_at_zero": v}), [-1.0]),
    "measure_from_dict atom y": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_atom(y=v)), [0.0, 4.0, 1e-320]),
    "measure_from_dict atom mass": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_atom(mass=v)), [0.0, 2 ** 1024]),
    "measure_from_dict power coef": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_power(coef=v)), [-1.0]),
    "measure_from_dict power exp": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_power(exp=v)), [-1.0]),
    "measure_from_dict power lo": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_power(lo=v)), [-0.5, PI]),
    "measure_from_dict power hi": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict(_json_power(hi=v)), [0.0, 4.0]),
    "measure_from_dict table ys": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict({"density": [
            {"type": "table", "ys": [v, 1.0], "vals": [1.0, 1.0]}]}),
        [-1.0, 2.0]),
    "measure_from_dict table vals": (
        "measure_from_dict", "d",
        lambda v: measure_from_dict({"density": [
            {"type": "table", "ys": [0.0, 1.0], "vals": [1.0, v]}]}),
        [-1.0]),
    "measure_from_json": (
        "measure_from_json", "text",
        lambda v: measure_from_json(json.dumps(_json_atom(mass=v))), [0.0]),
    "nonergodic": ("nonergodic", "k_max", nonergodic, [7]),
    "power_law gamma": ("power_law", "gamma", power_law, [0.0, 2.0]),
    "power_law scale": ("power_law", "scale", lambda v: power_law(0.5, v),
                        [0.0, -1.0]),
    "robinson_integral": ("robinson_integral", "a",
                          lambda v: robinson_integral(_M, v), [-1.0, 4.0]),
    "sandwich n": ("sandwich", "n", lambda v: sandwich(_M, v), [0]),
    "sandwich A": ("sandwich", "A", lambda v: sandwich(_M, 4, v),
                   [0.0, 5.0, 2.0 ** -520]),
    "simulate N": ("simulate", "N", lambda v: simulate(_W, v, 2, 1),
                   [0, MAX_PATH_LENGTH + 1]),
    "simulate P": ("simulate", "P", lambda v: simulate(_W, 8, v, 1), [0]),
    "simulate seed": ("simulate", "seed", lambda v: simulate(_W, 8, 2, v),
                      [2.5]),
    "subsequence_scan gamma": ("subsequence_scan", "gamma",
                               lambda v: subsequence_scan(_M, v, 1, 3),
                               [-0.5, 2.5]),
    "subsequence_scan r0": ("subsequence_scan", "r0",
                            lambda v: subsequence_scan(_M, 1.0, v, 3), [-1]),
    "subsequence_scan r1": ("subsequence_scan", "r1",
                            lambda v: subsequence_scan(_M, 1.0, 1, v), [-1]),
    "theorem_check n_grid": ("theorem_check", "n_grid",
                             lambda v: theorem_check(_M, _MODEL, [v, 4]), [0]),
    "theorem_check tol": ("theorem_check", "tol",
                          lambda v: theorem_check(_M, _MODEL, [2, 4], tol=v),
                          [-1.0]),
    "variance_covariance": ("variance_covariance", "n",
                            lambda v: variance_covariance(_M, v),
                            [0, MAX_LAGS + 1]),
    "variance_profile": ("variance_profile", "n_max",
                         lambda v: variance_profile(_M, v),
                         [0, MAX_LAGS + 1]),
    "variance_spectral": ("variance_spectral", "n",
                          lambda v: variance_spectral(_M, v), [0]),
    "with_origin_atom": ("with_origin_atom", "a",
                         lambda v: with_origin_atom(_M, v), [0.0, -1.0]),
}

# the parameters that take no number: measures, models, pieces' evaluators,
# names and metadata
NOT_NUMERIC = {
    ("OpaqueDensity", "fn"), ("RegularVariationModel", "L"),
    ("SlowlyVarying", "kind"), ("SpectralMeasure", "density"),
    ("SpectralMeasure", "meta"), ("autocovariance", "m"),
    ("autocovariance_batch", "m"), ("dichotomy_check", "m"),
    ("empirical_variance", "batch"), ("g_eval", "m"),
    ("growth_bound_report", "m"), ("growth_bound_report", "L"),
    ("measure_to_dict", "m"), ("measure_to_json", "m"),
    ("robinson_integral", "m"), ("sandwich", "m"), ("simulate", "m"),
    ("subsequence_scan", "m"), ("theorem_check", "m"),
    ("theorem_check", "model"), ("variance_covariance", "m"),
    ("variance_profile", "m"), ("variance_spectral", "m"),
    ("with_origin_atom", "base"),
}


def test_every_public_parameter_is_in_the_table():
    # a new public callable or argument fails here until it is classified:
    # a number goes into NUMERIC_ARGS, and with it through the checks below
    assert RESULT_TYPES <= set(specvar.__all__)
    params = set()
    for name in specvar.__all__:
        obj = getattr(specvar, name)
        if name in RESULT_TYPES or (isinstance(obj, type)
                                    and issubclass(obj, BaseException)):
            continue
        params |= {(name, p) for p in inspect.signature(obj).parameters}
    numeric = {(name, p) for name, p, _, _ in NUMERIC_ARGS.values()}
    assert not numeric & NOT_NUMERIC
    assert params == numeric | NOT_NUMERIC


_BAD_NUMBERS = [(key, bad) for key, (*_, out_of_range) in NUMERIC_ARGS.items()
                for bad in [NAN, INF, -INF, *out_of_range]]


@pytest.mark.parametrize("key, bad", _BAD_NUMBERS,
                         ids=[f"{key}-{bad!r:.24}" for key, bad in _BAD_NUMBERS])
def test_numeric_argument_rejected(key, bad):
    # the JSON path reports ValidationError with the key path, every other
    # path DomainError, and neither lets a NaN, an infinity or an
    # out-of-range value through (a JSON integer beyond the float range
    # once raised a bare OverflowError)
    name, _, call, _ = NUMERIC_ARGS[key]
    error = ValidationError if name.startswith("measure_from") else DomainError
    with pytest.raises(error):
        call(bad)
