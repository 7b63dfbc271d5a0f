import math
from functools import partial

import numpy as np
import pytest

from specvar.errors import NumericError
from specvar.quadrature import (_CHEB_X, _ROUNDOFF, bisect_panels,
                                clenshaw_curtis, integrate)


def test_polynomial_exact():
    val, err = integrate(lambda y: 3.0 * y ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)
    assert err < 1e-10


def test_clenshaw_curtis_is_exact_on_monomials():
    # 25 points integrate every polynomial of degree <= 25 exactly; float64
    # misses the integrals of y**k on [-1, 1] and [0, 2] by a few ulps
    eps = np.finfo(float).eps
    for k in range(26):
        val, _ = clenshaw_curtis(lambda y: y ** k, np.array([-1.0, 0.0]),
                                 np.array([1.0, 2.0]))
        assert abs(val[0] - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 8 * eps
        assert val[1] == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=8 * eps)


def test_oscillatory_with_breakpoints():
    k = 37
    zeros = np.arange(1, k) * math.pi / k
    val, _ = integrate(lambda y: np.sin(k * y), 0.0, math.pi, points=zeros)
    assert val == pytest.approx(2.0 / k, abs=1e-12)


def _bisect(f, lo, hi, tol=1e-10, max_panels=200_000):
    """The value and estimate of the panel set ``bisect_panels`` chooses
    for f from the single panel [lo, hi]."""
    return bisect_panels(partial(clenshaw_curtis, f), np.array([lo, hi]),
                         tol=tol, max_panels=max_panels)[:2]


def test_oscillatory_without_breakpoints_still_adapts():
    k = 23
    val, _ = _bisect(lambda y: np.cos(k * y), 0.0, 1.0)
    assert val == pytest.approx(math.sin(k) / k, abs=1e-10)


def test_budget_exhaustion_raises_with_achieved():
    # a needle the panel budget cannot resolve
    f = lambda y: 1.0 / (1e-14 + (y - 0.123456) ** 2)  # noqa: E731
    with pytest.raises(NumericError) as excinfo:
        _bisect(f, 0.0, 1.0, tol=1e-12, max_panels=8)
    assert excinfo.value.achieved is not None


def test_integrate_is_one_pass():
    # integrate does not bisect: cos 23y needs panels cut every pi/46
    k = 23
    f = lambda y: np.cos(k * y)  # noqa: E731
    with pytest.raises(NumericError) as excinfo:
        integrate(f, 0.0, 1.0, tol=1e-12)
    assert excinfo.value.achieved is not None
    cuts = np.arange(1, 15) * (math.pi / (2 * k))
    val, err = integrate(f, 0.0, 1.0, points=cuts, tol=1e-12)
    assert val == pytest.approx(math.sin(k) / k, abs=1e-12)
    assert err <= 1e-12
    # an integrand beyond the float range raises NumericError, not a
    # RuntimeWarning (which the suite turns into an error)
    with pytest.raises(NumericError):
        integrate(np.exp, 0.0, 1000.0, points=np.arange(1.0, 1000.0))


def test_empty_interval():
    assert integrate(np.sin, 1.0, 1.0) == (0.0, 0.0)


def _every_panel_each_round(f, lo, hi, tol=1e-10, max_rounds=30):
    """The adaptive loop without memory: each round evaluates every panel."""
    edges = np.array([lo, hi])
    for _ in range(max_rounds):
        ik, err = clenshaw_curtis(f, edges[:-1], edges[1:])
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


def test_no_panel_is_evaluated_twice():
    # at tol=1e-13 the quarters of [0, 1/2] converge a round before those
    # of [1/2, 1], where cos(40 y**2) oscillates fastest
    f = lambda y: np.cos(40 * y * y)  # noqa: E731
    seen = []

    def recording(y):
        seen.append(np.array(y, copy=True))
        return f(y)

    got = _bisect(recording, 0.0, 1.0, tol=1e-13)
    # adjacent panels share an end point, so a panel is its row of nodes
    panels = np.concatenate(seen).reshape(-1, len(_CHEB_X))
    assert len(seen) > 3  # several rounds of bisection
    assert len(panels) < 2 ** len(seen) - 1  # a round kept some panels
    assert len(np.unique(panels, axis=0)) == len(panels)
    assert got == _every_panel_each_round(f, 0.0, 1.0, tol=1e-13)
