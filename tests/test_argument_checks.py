"""Integer and NaN arguments on the library path raise DomainError.

Every integer argument goes through one validator, so NaN, +-inf and
non-integral values fail the same way wherever they enter.
"""

import math
import tracemalloc

import numpy as np
import pytest

from specvar import (DomainError, OpaqueDensity, RegularVariationModel,
                     SlowlyVarying, TableDensity, autocovariance,
                     autocovariance_batch, dichotomy_check,
                     empirical_variance, fejer_kernel, g_eval, gamma_fit,
                     growth_bound_report, nonergodic, power_law, quadratic,
                     sandwich, simulate, subsequence_scan, theorem_check,
                     variance_covariance, variance_profile, variance_spectral,
                     white_noise)
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
