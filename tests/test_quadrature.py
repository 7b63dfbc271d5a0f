import math

import numpy as np
import pytest

from specvar.errors import NumericError
from specvar.quadrature import (_ROUNDOFF, _WG, _WK, _XK, _gk_batch,
                                _jacobi_edge, _jacobi_rule, integrate)


def test_polynomial_exact():
    val, err = integrate(lambda y: 3.0 * y ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)
    assert err < 1e-10


def test_gauss_kronrod_constants_are_exact_on_monomials():
    # K15 is exact to degree 22 and G7 to degree 13; with the constants
    # rounded once from 33 digits, float64 misses 2/(k+1) (or 0) by ulps
    for rule, degree in ((_WK, 22), (_WG, 13)):
        for k in range(degree + 1):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(rule * _XK ** k)
            assert abs(got - want) <= 4 * np.finfo(float).eps, (degree, k)


def test_oscillatory_with_breakpoints():
    k = 37
    zeros = np.arange(1, k) * math.pi / k
    val, _ = integrate(lambda y: np.sin(k * y), 0.0, math.pi, points=zeros)
    assert val == pytest.approx(2.0 / k, abs=1e-12)


def test_oscillatory_without_breakpoints_still_adapts():
    k = 23
    val, _ = integrate(lambda y: np.cos(k * y), 0.0, 1.0)
    assert val == pytest.approx(math.sin(k) / k, abs=1e-10)


def test_jacobi_edge_weight():
    # int_0^1 y^-0.5 * exp(y) dy, known via series/quad reference
    from scipy.integrate import quad
    ref, _ = quad(lambda y: math.exp(y) / math.sqrt(y), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    val, _ = integrate(np.exp, 0.0, 1.0, edge_beta=-0.5)
    assert val == pytest.approx(ref, abs=1e-10)


def test_jacobi_edge_positive_exponent():
    # int_0^2 y^1.5 dy = 2^2.5/2.5
    val, _ = integrate(lambda y: np.ones_like(y), 0.0, 2.0, edge_beta=1.5)
    assert val == pytest.approx(2.0 ** 2.5 / 2.5, rel=1e-12)


@pytest.mark.parametrize("npts", [15, 31])
@pytest.mark.parametrize("beta, bound", [
    *((b, 2e-14) for b in (-0.9, -0.5, 0.0, 0.5, 0.9, 1.5, 3.0)),
    (-0.999, 1e-12), (-0.9999, 1e-12)])
def test_jacobi_rule_exact_on_moments(npts, beta, bound):
    # int_{-1}^1 (1+x)^beta (1+x)^j dx = 2^(beta+j+1) / (beta+j+1) for every
    # j < 2 npts; near beta = -1 the first node lies within 1e-6 of -1, where
    # the float spacing of x alone puts a few 1e-13 on the j = 1 moment
    from scipy.special import roots_jacobi
    x, w = _jacobi_rule(npts, beta)
    for j in range(2 * npts):
        want = 2.0 ** (beta + j + 1) / (beta + j + 1)
        got = math.fsum(w * (1.0 + x) ** j)
        assert abs(got / want - 1.0) <= bound, j
    assert np.abs(x - roots_jacobi(npts, 0.0, beta)[0]).max() <= 1e-15


@pytest.mark.parametrize("npts", [15, 31])
@pytest.mark.parametrize("beta", [-0.96, -0.94, -0.92, -0.8963724607988205,
                                  -0.875, -0.5, 1.5])
def test_jacobi_rule_rounded_once(npts, beta):
    # the recurrence's coefficients, the Newton step and the Christoffel sums
    # run in double-double, so the moments are off by a few ulps only; in
    # float64 they were off by up to 2e-14 near beta = -0.9, which kept the
    # 15/31-point estimate of an edge panel above its roundoff floor
    x, w = _jacobi_rule(npts, beta)
    for j in range(2 * npts):
        want = 2.0 ** (beta + j + 1) / (beta + j + 1)
        got = math.fsum(w * (1.0 + x) ** j)
        assert abs(got / want - 1.0) <= 4e-15, j


def test_budget_exhaustion_raises_with_achieved():
    # a needle the panel budget cannot resolve
    f = lambda y: 1.0 / (1e-14 + (y - 0.123456) ** 2)  # noqa: E731
    with pytest.raises(NumericError) as excinfo:
        integrate(f, 0.0, 1.0, tol=1e-12, max_panels=8)
    assert excinfo.value.achieved is not None


def test_empty_interval():
    assert integrate(np.sin, 1.0, 1.0) == (0.0, 0.0)


def _every_panel_each_round(f, lo, hi, tol=1e-10, edge_beta=None,
                            max_rounds=30):
    """The adaptive loop without memory: each round evaluates every panel."""
    full = f if edge_beta is None else (lambda y: y ** edge_beta * f(y))
    edges = np.array([lo, hi])
    for _ in range(max_rounds):
        if edge_beta is None:
            ik, err = _gk_batch(full, edges[:-1], edges[1:])
        else:
            v0, e0 = _jacobi_edge(f, edge_beta, edges[1])
            ik, err = _gk_batch(full, edges[1:-1], edges[2:])
            ik, err = np.r_[v0, ik], np.r_[e0, err]
        total, total_err = float(ik.sum()), float(err.sum())
        eff_tol = max(tol, _ROUNDOFF * abs(total))
        if total_err <= eff_tol:
            return total, total_err
        share = eff_tol / (2.0 * len(ik))
        split = np.nonzero((err > share) & (err > _ROUNDOFF * np.abs(ik)))[0]
        if len(split) == 0:
            split = np.array([int(np.argmax(err))])
        edges = np.unique(np.r_[edges, 0.5 * (edges[split] + edges[split + 1])])
    raise AssertionError("reference loop did not converge")


# at tol=1e-13 one panel of cos(23 y) converges a round before the others
@pytest.mark.parametrize("f, hi, edge_beta, tol", [
    (lambda y: np.cos(23 * y), 1.0, None, 1e-13),
    (lambda y: np.cos(40 * y), 3.0, -0.5, 1e-10),
])
def test_no_panel_is_evaluated_twice(f, hi, edge_beta, tol):
    seen = []

    def recording(y):
        seen.append(np.array(y, copy=True))
        return f(y)

    got = integrate(recording, 0.0, hi, tol=tol, edge_beta=edge_beta)
    ys = np.concatenate(seen)
    assert len(seen) > 3  # several rounds of bisection
    if edge_beta is not None:
        # the Jacobi edge rule ran on more than one edge panel
        assert sum(len(y) == 31 for y in seen) > 1
    assert len(np.unique(ys)) == len(ys)
    assert got == _every_panel_each_round(f, 0.0, hi, tol=tol,
                                          edge_beta=edge_beta)
