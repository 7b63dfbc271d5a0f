import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, polygamma

from conftest import (atom_sums_reference, atomic_autocovariance_oracle,
                      atomic_variance_exact, atomic_variance_oracle,
                      cheb_moments_reference, covariance_variance_oracle,
                      power_fejer_reference, run_cli,
                      sandwich_upper_quadrature, scale_measure)
from specvar import (DomainError, OpaqueDensity, PowerDensity,
                     SpectralMeasure, TableDensity, autocovariance,
                     autocovariance_batch, counterexample, fejer_kernel,
                     g_eval, nonergodic, power_law, quadratic, sandwich,
                     variance_covariance, variance_profile,
                     variance_spectral, white_noise, with_origin_atom)
from specvar import ddouble as dd
from specvar import fejer_variance as fv
from specvar import spectral_measure as sm
from specvar.fejer_variance import _sandwich_rows, _variance_rows
from specvar.quadrature import _cheb_moments, fine_fold, interpolant_moments
from test_spectral_measure import measures

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


@pytest.mark.parametrize("name", ["counterexample", "nonergodic"])
def test_atom_sums_within_2_ulp_of_oracle_in_every_octave(name):
    # the phase exp(i n loc/2) comes from the exact angle at every n, so
    # the error does not grow with n: 10 seeded n in each [2**j, 2**(j+1))
    m = ATOMIC[name]
    rng = np.random.default_rng(20261019)
    for j in range(63):
        for n in rng.integers(2 ** j, 2 ** (j + 1), size=10).tolist():
            var = atomic_variance_oracle(m, n)
            assert abs(variance_spectral(m, n) - var) <= 2 * np.spacing(var), n


@pytest.mark.parametrize("name", ["counterexample", "nonergodic"])
def test_atom_sums_correctly_rounded_in_every_octave(name):
    # against the exact sum rounded once, 2 seeded n in each [2**j,
    # 2**(j+1)): the double-double sum rounds to the same float
    m = ATOMIC[name]
    rng = np.random.default_rng(20261020)
    for j in range(63):
        for n in rng.integers(2 ** j, 2 ** (j + 1), size=2).tolist():
            assert variance_spectral(m, n) == atomic_variance_exact(m, n), n


def _lobe_switches(m, n_max):
    """Each atom's n = floor(1/loc) and floor(1/loc) + 1, up to n_max: a
    run whose last n is the first takes the atom from the Taylor lobe, and
    one whose last n is the second from the kernel."""
    ns = set()
    for loc, _ in m.atoms:
        n = math.floor(1 / Fraction(loc))
        ns.update(k for k in (n, n + 1) if 1 <= k <= n_max)
    return sorted(ns)


def _run_to(n):
    """The n of a run long enough to take the lobe, ending at n (or, for a
    small n, starting at 1)."""
    first = max(1, n - sm._LOBE_RUN + 1)
    return range(first, first + sm._LOBE_RUN)


@pytest.mark.parametrize("name", ["counterexample", "nonergodic"])
def test_atom_rows_correctly_rounded_across_the_lobe_switch(name):
    # a run of n takes an atom from the Taylor series at n loc <= 1 for its
    # last n, and from the kernel beyond, as a single-n call always does:
    # both sides of every atom's switch round the exact sum once, and a
    # profile, whose lobe ends at its last n, takes the same rows
    m = ATOMIC[name]
    for n in _lobe_switches(m, 2 ** 62):
        want = atomic_variance_exact(m, n)
        assert variance_spectral(m, n) == want, n
        if n >= sm._LOBE_RUN:
            assert _variance_rows(m, _run_to(n))[-1] == want, n
    prof = variance_profile(m, 2 ** 16)
    for n in _lobe_switches(m, 2 ** 16):
        assert prof[n - 1] == variance_spectral(m, n), n


_EXTREME_ATOMS = {
    "least-normal": ((2.0 ** -1022, 1.0),),
    "1e-300": ((1e-300, 1.0),),
    "2**-70": ((2.0 ** -70, 1.0),),
    "huge-masses": ((2.0 ** -1022, 1e300), (1e-300, 1e300),
                    (2.0 ** -70, 1e300)),
    "tiny-masses": ((2.0 ** -1022, 1e-300), (1e-300, 1e-300),
                    (2.0 ** -70, 1e-300)),
    "mixed-masses": ((2.0 ** -1022, 1e-300), (1e-300, 1.0),
                     (2.0 ** -70, 1e300), (0.5, 1e-300), (3.0, 1e300)),
}


@pytest.mark.parametrize("name", sorted(_EXTREME_ATOMS))
def test_atom_rows_at_the_extremes_of_the_lobe(name):
    # the lobe factors n**2 out of its series and scales it as the kernel's
    # cells, so nothing underflows at loc = 2**-1022 or 1e-300; a row is
    # finite wherever its exact value is, and inf (numpy warns of the
    # overflow), never NaN, where 1e300 n**2 lies beyond the float range
    m = SpectralMeasure(atoms=_EXTREME_ATOMS[name])
    for n in (1, 5, 1000, 2 ** 53 + 1, 3 ** 38, 2 ** 63 - 1):
        want = atomic_variance_exact(m, n)
        ns = _run_to(n)
        with np.errstate(over="ignore" if math.isinf(want) else "raise"):
            got = (variance_spectral(m, n),
                   _variance_rows(m, ns)[ns.index(n)])
        assert got == (want, want), n
        if name == "1e-300" and float(n) ** 2 == n * n:
            assert got[1] == float(n * n), n
        if n <= sm.MAX_LAGS:
            # the covariance route too, with no warning of an overflow
            with np.errstate(over="raise", invalid="raise"):
                assert variance_covariance(m, n) == want, n


@pytest.mark.parametrize("name", [*sorted(ATOMIC), "random1000"])
def test_atom_routes_agree_exactly(name):
    # both routes round the atom sum once from double-double, so the
    # covariance oracle returns the spectral value bit for bit, up to
    # MAX_LAGS = 2**28 (1000 atoms to 2**18)
    m = ATOMIC[name] if name in ATOMIC else _random_atomic(2026, size=1000)
    rng = np.random.default_rng(11)
    ns = {1, 2, 3, 16, 17, 2 ** 14, 2 ** 16 - 1, 2 ** 18,
          *rng.integers(1, 2 ** 18, size=20).tolist()}
    if name in ATOMIC:
        ns |= {2 ** 22 - 1, 2 ** 22 + 1, 2 ** 28 - 1, 2 ** 28}
    for n in sorted(ns):
        assert variance_covariance(m, n) == variance_spectral(m, n), n
    if name == "nonergodic":
        # a dyadic n annihilates the atoms above its scale, whose lag sums
        # cancel to nearly nothing: the doubling's error there stays below
        # the one rounding
        for n in [2 ** j + d for j in (10, 20, 27) for d in (-1, 0, 1)] + [
                2 ** 28]:
            assert variance_covariance(m, n) == atomic_variance_exact(m, n), n


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


def _random_atomic(seed, size=None):
    """Seeded atomic measure: up to 80 atoms, masses over 10 decades; with
    ``size`` given, also atoms at float 2 pi/3 and pi, where sin(n loc/2)
    nearly vanishes for n divisible by 3 and even n."""
    rng = np.random.default_rng(seed)
    locs = rng.uniform(1e-6, PI, size or int(rng.integers(1, 81)))
    if size:
        locs = np.concatenate([locs, [2.0 * PI / 3.0, PI]])
    locs = np.unique(locs)
    masses = 10.0 ** rng.uniform(-5.0, 5.0, len(locs))
    return SpectralMeasure(atoms=tuple(zip(locs.tolist(), masses.tolist())))


def test_grid_profile_equals_single_n_everywhere():
    # the profile's n lie on one (row x column) grid, a single n on its own
    # 1 x 1 grid: both round the same double-double sum once
    m = _random_atomic(2026, size=78)
    prof = variance_profile(m, 3000)
    for n in range(1, 3001):
        assert prof[n - 1] == variance_spectral(m, n), n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_block_edges_and_offsets(seed):
    m = _random_atomic(seed)
    n_max = 2 ** 15 + 11
    prof = variance_profile(m, n_max)
    # rows of B = 256 columns, per // 256 rows to a block (or one row split
    # into column blocks), per a power of two of at least 64
    B = 256
    per = 1 << max(6, (sm._ATOM_CELLS // len(m.atoms)).bit_length() - 1)
    step = (per // B) * B if per >= B else per
    edges = range(1, n_max + 1, step)
    rng = np.random.default_rng(seed)
    picks = rng.integers(1, n_max, size=40, endpoint=True).tolist()
    for n in {n_max, *picks, *(e + d for e in edges for d in (-1, 0, 1)
                               if 1 <= e + d <= n_max)}:
        assert prof[n - 1] == variance_spectral(m, n), n
    # the same n on grids that start elsewhere
    for n0, count in ((2, 700), (4097, 5000), (n_max - 30, 31)):
        assert np.array_equal(sm.atom_fejer_sums(m, n0, count),
                              prof[n0 - 1:n0 - 1 + count]), n0


@pytest.mark.parametrize("seed", [4, 5])
def test_grid_cos_sums_equal_scalar_lags(seed):
    m = _random_atomic(seed, size=60)
    r = autocovariance_batch(m, 2 ** 16 + 1)
    rng = np.random.default_rng(seed)
    for k in {*range(2 ** 16 - 40, 2 ** 16 + 1),
              *rng.integers(1, 2 ** 16, size=40).tolist()}:
        assert r[k] == autocovariance(m, k), k
    k0 = 2 ** 30 + 12345  # a grid that starts at a large lag
    c = sm.atom_cos_sums(m, k0, 300)
    for i in range(0, 300, 7):
        assert c[i] == autocovariance(m, k0 + i), k0 + i


def _reference_sums(m, n0, count, imag, lobe=False):
    """``atom_fejer_sums`` (imag) or ``atom_cos_sums`` of m from the
    allocating reference kernel, with the same weights.  Every atom runs the
    kernel, so the reference knows nothing of the Taylor lobe; with ``lobe``
    a Fejer sum puts the same atoms in the lobe as the library does, and
    each reference block makes its own lobe rows."""
    locs, masses = m.atom_arrays()
    if not imag:
        return atom_sums_reference(locs, m._cis, (masses, 0.0 * masses), n0,
                                   count, imag)
    h = m._cis_half
    w = dd.div(dd.sqrt((masses, 0.0 * masses)), h[2:4])
    if not lobe:
        return atom_sums_reference(locs / 2.0, h, w, n0, count, imag)
    p = (int(np.searchsorted(locs, sm._LOBE_CUT / (n0 + count - 1),
                             side="right"))
         if count >= sm._LOBE_RUN else 0)
    series = sm._lobe(locs[:p], (w[0][:p], w[1][:p])) if p else None
    return atom_sums_reference(locs[p:] / 2.0, h[:, p:],
                               (w[0][p:], w[1][p:]), n0, count, imag, series)


@pytest.mark.parametrize("cells", [1, 100, 2 ** 20, sm._ATOM_CELLS])
@pytest.mark.parametrize("atoms", [1, 2, 3, 5, 63, 64, 65, 1000])
def test_atom_kernel_equals_allocating_reference(monkeypatch, atoms, cells):
    # odd counts of atoms, and odd levels above them, pad the pairwise sum
    # with the workspace's spare row; 37 grid rows (4700 = 36 * 128 + 92)
    # end in a partial block of rows, and 128 columns (B > 64) split into
    # blocks of 64 when a block holds fewer cells than a row, so a last row
    # of 2 n (4610 = 36 * 128 + 2) skips its second block
    rng = np.random.default_rng(atoms)
    locs = np.unique(rng.uniform(1e-6, PI, atoms))
    masses = 10.0 ** rng.uniform(-5.0, 5.0, len(locs))
    m = SpectralMeasure(atoms=tuple(zip(locs.tolist(), masses.tolist())))
    assert len(m.atoms) == atoms
    monkeypatch.setattr(sm, "_ATOM_CELLS", cells)
    n = 270 if atoms == 1000 else 4700
    for n0, count in ((1, n), (4097, n // 4), (7, n - 90), (2 ** 40 + 7, 3)):
        for imag, got in ((True, sm.atom_fejer_sums(m, n0, count)),
                          (False, sm.atom_cos_sums(m, n0, count))):
            want = _reference_sums(m, n0, count, imag)
            assert np.array_equal(got, want), (n0, imag)


@pytest.mark.parametrize("name", sorted(ATOMIC))
def test_profile_and_batch_equal_allocating_reference(name):
    m = ATOMIC[name]
    n = np.arange(1, 2 ** 14 + 1, dtype=float)
    assert np.array_equal(
        variance_profile(m, 2 ** 14),
        m.atom_at_zero * n ** 2 + _reference_sums(m, 1, 2 ** 14, True))
    assert np.array_equal(
        autocovariance_batch(m, 2 ** 14)[1:],
        m.atom_at_zero + _reference_sums(m, 1, 2 ** 14 - 1, False))


_LOBE_MEASURES = {
    **ATOMIC,
    # every atom in the lobe at every n below, so no atom runs the kernel
    "lobe only": SpectralMeasure(atoms=((1e-20, 1.0), (2e-20, 0.5))),
}


@pytest.mark.parametrize("n0", [1, 4097, 2 ** 40 + 7, 2 ** 62 - 2 ** 14])
@pytest.mark.parametrize("name", sorted(_LOBE_MEASURES))
def test_lobe_runs_do_not_change_a_float(monkeypatch, name, n0):
    # the lobe's rows are made once per run of _LOBE_ROWS n (one block when
    # a block is longer) and each block adds its slice: every row is the
    # float of a series made per block, on grids whose last run ends inside
    # a block (8191, 8193 and 3 * 2**13 + 5 n) and whose n pairs carry a
    # low word (n >= 2**53).  The per-block series itself is checked
    # against the all-kernel reference, which has no Taylor series, so a
    # wrong coefficient or step in the series fails here too
    m = _LOBE_MEASURES[name]
    for count in (1024, 8191, 8193, 3 * 2 ** 13 + 5):
        want = _reference_sums(m, n0, count, True, lobe=True)
        assert np.array_equal(want.view(np.int64), _reference_sums(
            m, n0, count, True).view(np.int64)), count
        n = np.arange(1, count + 1, dtype=float)
        profile = (m.atom_at_zero * n ** 2 + want).view(np.int64)
        want = want.view(np.int64)
        for rows in (1, 2 ** 12, 2 ** 13, 2 ** 16):
            for cells in (100, 2 ** 15):
                monkeypatch.setattr(sm, "_LOBE_ROWS", rows)
                monkeypatch.setattr(sm, "_ATOM_CELLS", cells)
                got = sm.atom_fejer_sums(m, n0, count).view(np.int64)
                assert np.array_equal(got, want), (count, rows, cells)
                if n0 == 1:
                    got = variance_profile(m, count).view(np.int64)
                    assert np.array_equal(got, profile), (count, rows, cells)


def test_huge_atom_weights_give_numbers_not_nan(tmp_path):
    # a weight sqrt(mass) / sin(loc/2) or a mass above 2**996 overflows an
    # unscaled Veltkamp split (x * (2**27 + 1)) into NaN
    spec = tmp_path / "tiny_atom.json"
    spec.write_text(json.dumps({"atom_at_zero": 0.0, "density": [],
                                "atoms": [{"y": 1e-300, "mass": 1.0}]}))
    rc, out, _ = run_cli(["variance", "--measure", f"file:{spec}",
                          "--n", "1,5,1000"])
    assert rc == 0
    assert out.splitlines()[1:] == ["1,1.0", "5,25.0", "1000,1000000.0"]
    m = SpectralMeasure(atoms=((1e-150, 1e300),))
    assert variance_spectral(m, 5) == pytest.approx(2.5e301, rel=1e-15)
    assert variance_spectral(m, 5) == variance_covariance(m, 5)
    m = SpectralMeasure(atoms=((1.0, 1e301),))
    assert autocovariance(m, 3) == pytest.approx(1e301 * math.cos(3.0),
                                                 rel=1e-15)
    assert variance_covariance(m, 5) == variance_spectral(m, 5)
    assert variance_spectral(m, 5) == pytest.approx(
        1e301 * math.sin(2.5) ** 2 / math.sin(0.5) ** 2, rel=1e-14)
    # a variance beyond the float range is inf, and no overflow warning
    # escapes (the tests turn RuntimeWarning into an error)
    m = SpectralMeasure(atoms=((0.1, 1e308),))
    for f in (variance_spectral, variance_covariance):
        assert f(m, 5) == math.inf


def test_atom_rows_beyond_the_float_range_are_quiet():
    # the documented inf of a row, a lag or a covariance sum beyond the
    # float range comes with no RuntimeWarning on any route, grid pass and
    # kernel alike; nothing here sets np.errstate
    m = SpectralMeasure(atoms=((1e-300, 1e300),))
    ns = [1000, 2 ** 53 + 1, 2 ** 63 - 1]
    assert _variance_rows(m, ns) == [1e306, math.inf, math.inf]
    assert variance_spectral(m, 2 ** 63 - 1) == math.inf
    assert np.isinf(sm.atom_fejer_sums(m, 2 ** 62, 2000)).all()
    assert np.isinf(sm.atom_fejer_points(m, [2 ** 62, 3 ** 38])).all()
    m = SpectralMeasure(atoms=((1e-9, 1e308), (2e-9, 1e308)))
    assert autocovariance(m, 3) == math.inf
    assert np.isinf(sm.atom_cos_sums(m, 1, 100)).all()
    assert variance_covariance(m, 5) == math.inf


@pytest.mark.parametrize("cells", [1, 7, 64, sm._GRID_CELLS])
def test_grid_pass_equals_single_n_sums(monkeypatch, cells):
    # each n of the grid pass keeps its own weights' scale (it changes with
    # the bit length of n on huge weights) and sums its own column, in
    # blocks of any size: every entry is the single-n atom_fejer_sums
    monkeypatch.setattr(sm, "_GRID_CELLS", cells)
    rng = np.random.default_rng(cells)
    ns = [1, 2, 3, 5, 1000, 2 ** 31 + 5, 2 ** 53 + 1, 3 ** 38, 2 ** 63 - 1,
          *rng.integers(1, 2 ** 63 - 1, 12).tolist(), 1000]
    for m in (_random_atomic(cells), ATOMIC["nonergodic"],
              SpectralMeasure(atoms=_EXTREME_ATOMS["mixed-masses"])):
        with np.errstate(over="ignore"):  # mixed masses reach 1e300 n**2
            want = [sm.atom_fejer_sums(m, n, 1)[0] for n in ns]
        got = sm.atom_fejer_points(m, ns).tolist()
        assert got == want
    assert sm.atom_fejer_points(m, []).shape == (0,)


def _two_hundred_atoms():
    rng = np.random.default_rng(31)
    locs = np.unique(rng.uniform(1e-3, PI, 200))
    masses = rng.uniform(0.1, 1.0, len(locs)) / len(locs)
    return SpectralMeasure(atoms=tuple(zip(locs.tolist(), masses.tolist())))


# (route, measure, n or (length, index), float.hex of the value), recorded
# before the complex double-double products ran batched; the double-double
# steps are IEEE operations elementwise, so the values do not depend on the
# platform.  "fejer" is atom_fejer_points, except on "origin", whose origin
# atom it leaves out: there it is variance_spectral.
RECORDED_FLOATS = [
    ("covariance", "counterexample", 1, "0x1.0000000000000p+0"),
    ("covariance", "counterexample", 7, "0x1.d34e3fa8de22ep+4"),
    ("covariance", "counterexample", 1025, "0x1.30b0be484e57cp+12"),
    ("covariance", "counterexample", 262141, "0x1.304154b822141p+20"),
    ("covariance", "counterexample", 268435456, "0x1.30427ff6a21fap+30"),
    ("covariance", "nonergodic", 1, "0x1.5555555555555p-4"),
    ("covariance", "nonergodic", 7, "0x1.dda5b7ff392dcp-3"),
    ("covariance", "nonergodic", 1025, "0x1.058d9b946e2a3p-2"),
    ("covariance", "nonergodic", 262141, "0x1.798cdddd0f91ep-2"),
    ("covariance", "nonergodic", 268435456, "0x1.603466cfb3cc1p-3"),
    ("covariance", "origin", 1, "0x1.8888888888888p-2"),
    ("covariance", "origin", 7, "0x1.dddcfd46634b1p+3"),
    ("covariance", "origin", 1025, "0x1.33ccf058d9b94p+18"),
    ("covariance", "origin", 262141, "0x1.333166672acc0p+34"),
    ("covariance", "origin", 268435456, "0x1.3333333333333p+54"),
    ("covariance", "many", 1, "0x1.0f6c49f146f11p-1"),
    ("covariance", "many", 7, "0x1.0f91ec69fddd1p+2"),
    ("covariance", "many", 1025, "0x1.0a975ac233cb4p+6"),
    ("covariance", "many", 262141, "0x1.d288d3b0f5956p+4"),
    ("covariance", "many", 268435456, "0x1.212b877f28342p+6"),
    ("profile", "counterexample", (5000, 0), "0x1.0000000000000p+0"),
    ("profile", "counterexample", (5000, 6), "0x1.d34e3fa8de22ep+4"),
    ("profile", "counterexample", (5000, 1024), "0x1.30b0be484e57cp+12"),
    ("profile", "counterexample", (5000, 4999), "0x1.66921f9cf92fbp+14"),
    ("profile", "nonergodic", (65536, 0), "0x1.5555555555555p-4"),
    ("profile", "nonergodic", (65536, 1023), "0x1.6034759518da7p-3"),
    ("profile", "nonergodic", (65536, 40000), "0x1.7b440c75d8dd1p-1"),
    ("profile", "nonergodic", (65536, 65535), "0x1.6034697b201dfp-3"),
    ("profile", "origin", (1500, 0), "0x1.8888888888888p-2"),
    ("profile", "origin", (1500, 1499), "0x1.4997145ad95c7p+19"),
    ("profile", "many", (3000, 9), "0x1.a9e80e144e593p+2"),
    ("profile", "many", (3000, 2999), "0x1.158e28a5b0ea5p+6"),
    ("batch", "counterexample", (4097, 1), "0x1.dc1c759188b22p-1"),
    ("batch", "counterexample", (4097, 4096), "0x1.2985271bd7455p-1"),
    ("batch", "many", (9000, 2), "0x1.4a507bcbc4ddap-6"),
    ("batch", "many", (9000, 8999), "-0x1.8ac5f8cf31908p-10"),
    ("fejer", "counterexample", 1099511627779, "0x1.30427c09f76abp+42"),
    ("fejer", "counterexample", 4611686018427387904, "0x1.6e2a3fbc1bac7p+62"),
    ("fejer", "nonergodic", 1099511627779, "0x1.92e6fb999b164p-3"),
    ("fejer", "nonergodic", 4611686018427387904, "0x1.1ba1c6a8a9e87p-1"),
    ("fejer", "origin", 1099511627779, "0x1.333333333a666p+78"),
    ("fejer", "origin", 4611686018427387904, "0x1.3333333333333p+122"),
    ("fejer", "many", 1099511627779, "0x1.02b2018c5c98cp+5"),
    ("fejer", "many", 4611686018427387904, "0x1.bf830b1ae6da4p+4"),
]


def test_atom_routes_match_recorded_floats():
    ms = {"counterexample": counterexample(), "nonergodic": nonergodic(),
          "origin": with_origin_atom(nonergodic(), 0.3),
          "many": _two_hundred_atoms()}
    got = {}
    for route, name, arg, want in RECORDED_FLOATS:
        m = ms[name]
        if route == "covariance":
            value = variance_covariance(m, arg)
        elif route == "fejer" and name == "origin":
            value = variance_spectral(m, arg)
        elif route == "fejer":
            value = sm.atom_fejer_points(m, [arg])[0]
        else:
            key = (route, name, arg[0])
            if key not in got:
                f = {"profile": variance_profile,
                     "batch": autocovariance_batch}[route]
                got[key] = f(m, arg[0])
            value = got[key][arg[1]]
        assert float(value).hex() == want, (route, name, arg)


def _thousand_atoms():
    """1000 seeded atoms, masses over 10 decades."""
    rng = np.random.default_rng(1000)
    locs = np.unique(rng.uniform(1e-6, PI, 1000))
    masses = 10.0 ** rng.uniform(-5.0, 5.0, len(locs))
    m = SpectralMeasure(atoms=tuple(zip(locs.tolist(), masses.tolist())))
    assert len(m.atoms) == 1000
    return m


def test_isolated_rows_memory_bounded():
    # isolated n take their atoms from the grid pass in blocks of about
    # _GRID_CELLS (n, atom) cells, so the peak does not grow with the grid:
    # 2**7 isolated n on 1000 atoms are 128 k cells, some 50 MB of cis
    # work at once
    m = _thousand_atoms()
    ns = [*range(1, 3 * 2 ** 6, 3),
          *(int(n) | 1 for n in np.geomspace(2.0 ** 12, 2.0 ** 62, 2 ** 6))]
    assert len(set(ns)) == len(ns)
    assert all(b - a > 1 for a, b in zip(ns, ns[1:]))
    m._cis_half  # the measure's own cached tables are not the rows' cost
    tracemalloc.start()
    try:
        rows = _variance_rows(m, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    for i in (0, 1, 2 ** 6, 2 ** 7 - 1):
        assert rows[i] == variance_spectral(m, ns[i])


def test_grid_tiny_variances_at_float_two_pi_over_three_and_pi():
    # Var(S_3) at the atom 2 pi/3 is 1.58e-31: sin(3 loc/2) is the float
    # error of loc, so the row and column powers must hold it to 1e-14
    for loc, ns in ((2.0 * PI / 3.0, (3, 6, 3 * 1001)), (PI, (2, 4, 2000))):
        m = SpectralMeasure(atoms=((loc, 1.0),))
        prof = variance_profile(m, max(ns))
        for n in ns:
            want = atomic_variance_oracle(m, n)
            assert want < 1e-24
            assert variance_spectral(m, n) == pytest.approx(want, rel=1e-14)
            assert prof[n - 1] == pytest.approx(want, rel=1e-14)
    m = SpectralMeasure(atoms=((2.0 * PI / 3.0, 1.0),))
    assert atomic_variance_oracle(m, 3) == pytest.approx(1.58e-31, rel=1e-2)


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
        assert len(m.density) == 1 and not m.atoms
        for n in (2 ** 14, 2 ** 16, 2 ** 18):
            a = variance_spectral(m, n)
            b = variance_covariance(m, n)
            assert a == pytest.approx(b, rel=1e-9), n


@pytest.mark.parametrize("n", [2 ** 20, 2 ** 30, 2 ** 40, 2 ** 53 + 1,
                               2 ** 62])
def test_density_exact_at_any_n(n):
    # the dyadic panel set costs O(log n), so exact references can be met
    # far beyond any n the covariance sum reaches
    v = variance_spectral(quadratic(), n)
    assert abs(v - quadratic_exact(n)) <= 1e-14 * v
    assert abs(variance_spectral(white_noise(), n) - n) <= 1e-14 * n


def test_cheb_moments_against_composite_gauss():
    # interpolant_moments on the unit coefficient rows e_j gives mu_j, on
    # both sides of the switch from the 129-point rule on the folded
    # interpolant to the forward recurrence at omega = 24, against 12-point
    # Gauss-Legendre on each of 128 subintervals, summed exactly
    omega = [0.0, 1e-300, 1e-8, 0.25, 0.7, 5.0, 12.0, 23.9,
             np.nextafter(24.0, 0.0), 24.0, 30.0, 100.0]
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(-1.0, 1.0, 129)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * x).ravel()
    ws = (half[:, None] * w).ravel()
    cheb = np.polynomial.chebyshev.chebvander(xs, 24)
    unit = np.eye(25)
    cells = np.repeat(np.array(omega), 25)
    got = interpolant_moments(cells, np.tile(np.arange(25), len(omega)),
                              unit, fine_fold(unit)).reshape(len(omega), 25)
    for row, om in zip(got, omega):
        terms = (ws * np.exp(1j * om * xs))[:, None] * cheb
        for j, value in enumerate(row):
            want = complex(math.fsum(terms[:, j].real),
                           math.fsum(terms[:, j].imag))
            assert abs(value - want) <= 1.5e-15, (om, j)


def test_cheb_moments_equal_the_complex_recurrence():
    # the recurrence on real rows gives the moments of the recurrence in
    # complex numbers bit for bit: log-uniform omega from the switch to
    # 1e19, and a mix with omega at the switch and just above it
    rng = np.random.default_rng(2026)
    large = np.exp(rng.uniform(math.log(24.0), math.log(1e19), 5000))
    mixed = rng.permutation(np.concatenate([
        large[:200], rng.uniform(24.0, 48.0, 100),
        [24.0, np.nextafter(24.0, 25.0)]]))
    for omega in (large, mixed, large[:1], mixed[:3], mixed[:0]):
        assert np.array_equal(_cheb_moments(omega),
                              cheb_moments_reference(omega))


@pytest.mark.parametrize("piece", [
    PowerDensity(0.0, PI, 1.0, -0.92), PowerDensity(1.0, 2.0, 1.0, 1.125),
    PowerDensity(0.3, PI, 2.0, 0.06)], ids=["-0.92", "1.125", "0.06"])
@pytest.mark.parametrize("n", [2, 100])
def test_covariance_route_with_base_exponent_near_minus_1(piece, n):
    # the cosine transforms of y**p take the moments of u**mu cos u with
    # mu = p - ceil(p) near -0.9 here; they once came from a Gauss-Jacobi
    # edge rule, whose float64 weights made them raise NumericError
    m = SpectralMeasure(density=(piece,))
    v = variance_spectral(m, n)
    assert abs(variance_covariance(m, n) - v) <= 1e-12 * v


@pytest.mark.parametrize("p", [1.0, 1.5, 2.7])
@pytest.mark.parametrize("n", [10, 1000])
def test_covariance_route_on_a_piece_near_the_origin(p, n):
    # every k hi is at most 1e-5, where the moments of u**p cos u come from
    # their Taylor series at p; raising the base moments to p by parts
    # cancelled there, which put the covariance route 80 % off at p = 1.5
    m = SpectralMeasure(density=(PowerDensity(0.0, 1e-8, 1.0, p),))
    v = variance_spectral(m, n)
    assert abs(variance_covariance(m, n) - v) <= 1e-12 * v


@pytest.mark.parametrize("n", [64, 2 ** 14 + 1, 2 ** 20])
def test_opaque_density_matches_power_piece(n):
    piece = OpaqueDensity(0.0, PI, lambda y: 2.0 * y)
    opaque = SpectralMeasure(density=(piece,))
    assert variance_spectral(opaque, n) == pytest.approx(
        variance_spectral(quadratic(), n), rel=1e-13)


@pytest.mark.parametrize("n", [2 ** 20, 2 ** 40, 2 ** 62])
def test_opaque_bracket_matches_power_piece(n):
    # G(1/n) of an opaque 2y is (1/n)**2 to rounding, so the bracket equals
    # the closed form's and holds the variance
    opaque = sandwich(SpectralMeasure(density=(
        OpaqueDensity(0.0, PI, lambda y: 2.0 * y),)), n)
    want = sandwich(quadratic(), n)
    assert opaque.lower <= opaque.variance <= opaque.upper
    assert opaque.lower == pytest.approx(want.lower, rel=1e-14)
    assert opaque.upper == pytest.approx(want.upper, rel=1e-14)


def _whole_and_split(whole, below, above):
    """A density on (0, pi] with a break at y = 1, and the same density as
    two smooth pieces split at the break."""
    return (SpectralMeasure(density=(OpaqueDensity(0.0, PI, whole),)),
            SpectralMeasure(density=(OpaqueDensity(0.0, 1.0, below),
                                     OpaqueDensity(1.0, PI, above))))


_BREAK_AT_ONE = pytest.mark.parametrize("whole, below, above", [
    # a kink at y = 1
    (lambda y: np.abs(y - 1.0) + 0.5, lambda y: 1.5 - y, lambda y: y - 0.5),
    # a jump at y = 1
    (lambda y: np.where(y < 1.0, 1.0, 2.0), lambda y: np.ones_like(y),
     lambda y: np.full_like(y, 2.0)),
], ids=["kink", "jump"])


@_BREAK_AT_ONE
@pytest.mark.parametrize("n", [128, 2 ** 19, 2 ** 30, 2 ** 50, 2 ** 62])
def test_density_not_smooth_inside_a_tail_panel(whole, below, above, n):
    # the break at y = 1 lies inside the dyadic panel [pi/4, pi/2]; its
    # Chebyshev estimate fails and it is bisected once, when the panel set
    # is chosen, so the result is that of the density split at the break
    # into two smooth pieces, with no work or memory growing with n
    m, split = _whole_and_split(whole, below, above)
    assert variance_spectral(m, n) == pytest.approx(
        variance_spectral(split, n), rel=1e-12)


@pytest.mark.parametrize("n", [1000, 4096])
def test_routes_agree_on_a_kinked_opaque_density(n):
    # C1 with the kink inside one of the opaque piece's Chebyshev panels,
    # which are bisected towards it until every cosine transform meets
    # 1e-12, as the Fejer route's panel set is
    m = SpectralMeasure(density=(
        OpaqueDensity(0.0, PI, lambda y: np.abs(y - 1.0) + 0.5),))
    v = variance_spectral(m, n)
    assert abs(variance_covariance(m, n) - v) <= 1e-12 * v


@_BREAK_AT_ONE
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_density_not_smooth_at_small_n(whole, below, above, n):
    # at small n the kernel varies little across the break at y = 1, so
    # nothing of its error cancels: the panel set's bisection towards the
    # break must meet the route's absolute target, 1e-10, at every n
    m, split = _whole_and_split(whole, below, above)
    assert abs(variance_spectral(m, n) - variance_spectral(split, n)) <= 1e-10


@pytest.mark.parametrize("scale, at", [(1e6, 1.0), (1.0, 1e-6)],
                         ids=["large_jump", "jump_near_zero"])
@pytest.mark.parametrize("n", [1, 2 ** 10, 2 ** 40])
def test_jump_beyond_the_absolute_target(scale, at, n):
    # a jump whose panel cannot meet 1e-10 by bisection before its width
    # reaches the float spacing at the jump: the panel set stops there, and
    # each row meets the roundoff floor of its value
    m = SpectralMeasure(density=(OpaqueDensity(
        0.0, PI, lambda y: scale * np.where(y < at, 1.0, 2.0)),))
    split = SpectralMeasure(density=(
        OpaqueDensity(0.0, at, lambda y: np.full_like(y, scale)),
        OpaqueDensity(at, PI, lambda y: np.full_like(y, 2.0 * scale))))
    assert variance_spectral(m, n) == pytest.approx(
        variance_spectral(split, n), rel=1e-13)


# a power piece with exponent near -0.9 once raised NumericError at n = 17
# and 18, its estimate short of the tolerance when the bisection rounds ran
# out
@pytest.mark.parametrize("n", [16, 17, 18, 19, 1000])
def test_power_piece_with_exponent_near_minus_0_9(n):
    p = -0.8963724607988205
    m = SpectralMeasure(density=(PowerDensity(0.0, PI, 1.0, p),))
    want = power_fejer_reference(1.0, p, n)
    assert abs(variance_spectral(m, n) - want) <= 1e-14 * want


def test_density_rows_exact_across_the_series_cut():
    # a row's panels with n b <= 1 come from the Taylor series of 1 - cos
    # ny, the others from Filon-Clenshaw-Curtis: white noise (exactly n)
    # and the quadratic measure stay within 1e-15 on both sides of every
    # power of two, from n = 1 to 2**62, at every n up to 3000, and on
    # both sides of each dyadic panel's switch, n = floor(2**j/pi) and one
    # more, j <= 64
    ns = sorted({*range(1, 3001),
                 *(2 ** k + d for k in range(1, 63) for d in (-1, 0, 1)),
                 *(math.floor(Fraction(2 ** j) / Fraction(PI)) + d
                   for j in range(2, 65) for d in (0, 1))})
    white = _variance_rows(white_noise(), ns)
    quad = _variance_rows(quadratic(), ns)
    for n, w, q in zip(ns, white, quad):
        assert abs(w - n) <= 1e-15 * n, n
        want = quadratic_exact(n)
        assert abs(q - want) <= 1e-15 * want, n


@pytest.mark.parametrize("p", [-0.95, -0.92, -0.9, -0.85, -0.8])
def test_power_pieces_near_minus_0_9_across_the_series_cut(p):
    # y**p grows towards the origin, where the series panels lie; the
    # reference's singular first arc stays smooth for p <= -0.8
    m = SpectralMeasure(density=(PowerDensity(0.0, PI, 1.0, p),))
    ns = [1, 2, 3, 16, 17, 63, 64, 65, 1000, 1023, 1024, 1025, 4096]
    for n, v in zip(ns, _variance_rows(m, ns)):
        want = power_fejer_reference(1.0, p, n)
        assert abs(v - want) <= 1e-14 * want, n


@pytest.mark.parametrize("piece, n", [
    (PowerDensity(2.5, PI, 1.0, 0.3), 1), (PowerDensity(2.5, PI, 1.0, 0.3), 2),
    (TableDensity((0.5, PI), (0.5, PI)), 2 ** 62)],
    ids=["power-n1", "power-n2", "table-n2**62"])
def test_rows_with_no_panel_below_the_series_cut(piece, n):
    # every panel has n b > 1, so the series reads its sums at b_0 = _E0,
    # where they are 0 for a piece from lo > _E0.  Small n meets the
    # covariance route; at n = 2**62 the density y on [0.5, pi] gives
    # int g = [2 log sin(y/2) - y cot(y/2)] to within g(0.5)/n
    m = SpectralMeasure(density=(piece,))
    v = variance_spectral(m, n)
    if n < 2 ** 14:
        assert abs(variance_covariance(m, n) - v) <= 1e-12 * v
    else:
        want = 0.5 / math.tan(0.25) - 2.0 * math.log(math.sin(0.25))
        assert v == pytest.approx(want, rel=1e-14)


@st.composite
def density_pieces(draw):
    """A density piece of any kind, with its closed-form twin when it is an
    opaque piece: a table piece, a power piece with lo > 0, or an opaque
    piece wrapping a power piece (from lo = 0 when its density is finite
    there)."""
    kind = draw(st.sampled_from(["table", "power", "opaque"]))
    if kind == "table":
        y0 = draw(st.floats(0.0, 1.0))
        gaps = draw(st.lists(st.floats(0.01, 1.5), min_size=1, max_size=5))
        ys = [y0]
        for gap in gaps:
            if ys[-1] + gap < PI:
                ys.append(ys[-1] + gap)
        if len(ys) == 1:
            ys.append(PI)
        vals = draw(st.lists(st.floats(0.0, 3.0), min_size=len(ys),
                             max_size=len(ys)))
        return TableDensity(tuple(ys), tuple(vals)), None
    lo = draw(st.floats(0.01, 2.5))
    if kind == "opaque" and draw(st.booleans()):
        lo = 0.0
    hi = draw(st.floats(lo + 0.5, PI))
    expo = draw(st.floats(0.0 if lo == 0.0 else -0.9, 2.0))
    power = PowerDensity(lo, hi, draw(st.floats(0.1, 3.0)), expo)
    if kind == "power":
        return power, None
    return OpaqueDensity(lo, hi, power.formula), power


@settings(max_examples=40, deadline=None)
@given(density_pieces(), st.integers(1, 2 ** 62), st.integers(1, 2 ** 12))
def test_every_piece_kind_against_twin_and_covariance(piece_twin, big_n, n):
    # an opaque piece equals its closed-form twin at any n, and every kind
    # of piece meets the covariance route within C1's tolerance
    piece, twin = piece_twin
    m = SpectralMeasure(density=(piece,))
    if twin is not None:
        assert variance_spectral(m, big_n) == pytest.approx(
            variance_spectral(SpectralMeasure(density=(twin,)), big_n),
            rel=1e-13)
    v = variance_spectral(m, n)
    assert abs(variance_covariance(m, n) - v) <= 1e-6 * max(1.0, v)


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


def _power_and_table():
    """A power piece on (0, 0.5] and a table piece on (0.5, pi], the
    benchmark's table measure."""
    return SpectralMeasure(density=(
        PowerDensity(0.0, 0.5, 0.6, 0.5),
        TableDensity((0.5, 1.0, 1.7, 2.4, PI),
                     (0.4242640687119285, 0.55, 0.9, 0.3, 0.05))))


@pytest.mark.parametrize("n", [2, 64, 4096])
def test_covariance_routes_on_a_table_piece(n):
    # the covariance side takes the table's mass and cosine transforms, the
    # spectral side integrates the table against I_n
    m = _power_and_table()
    want = variance_spectral(m, n)
    assert variance_covariance(m, n) == pytest.approx(want, rel=1e-10)
    assert variance_profile(m, n)[-1] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m", [
    counterexample(), power_law(0.5),
    SpectralMeasure(atom_at_zero=0.25, atoms=((0.3, 0.2), (PI, 0.05)),
                    density=_power_and_table().density),
], ids=["atomic", "density", "mixed"])
def test_profile_of_one_row(m):
    # no lag enters Var(S_1): the profile's empty lag range gives r_0
    prof = variance_profile(m, 1)
    assert prof.shape == (1,)
    assert prof[0] == pytest.approx(variance_spectral(m, 1), rel=1e-13)


def _cumsum_reference(x):
    """The blocked cumulative sum over the whole lag array at once."""
    pad = np.zeros(-len(x) % fv._CUMSUM_BLOCK)
    rows = np.concatenate([x, pad]).reshape(-1, fv._CUMSUM_BLOCK)
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return rows.ravel()[:len(x)]


def _profile_reference(m, n_max):
    """``variance_profile`` from the cosine transforms of every lag at once,
    in allocating whole-array passes."""
    n = np.arange(1, n_max + 1, dtype=float)
    out = m.atom_at_zero * n ** 2 + sm.atom_fejer_sums(m, 1, n_max)
    k = np.arange(1, n_max)
    for piece in m.density:
        c = piece.cos_transform(k)
        s1 = np.concatenate([[0.0], _cumsum_reference(c)])
        s2c = np.concatenate([[0.0], _cumsum_reference(k * c)])
        out += n * piece.mass + 2.0 * (n * s1[:n_max] - s2c[:n_max])
    return out


def _batch_reference(m, n):
    """``autocovariance_batch`` from every lag at once."""
    k = np.arange(1, n)
    r = m.atom_at_zero + sm.atom_cos_sums(m, 1, n - 1)
    for piece in m.density:
        r += piece.cos_transform(k)
    return np.concatenate([[g_eval(m, PI)], r])


def _covariance_reference(m, n):
    """``variance_covariance`` with each piece's terms in one numpy sum."""
    total = m.atom_at_zero * float(n) ** 2 + sm.atom_covariance_sums(m, n)
    k = np.arange(1, n)
    for piece in m.density:
        total += n * piece.mass + 2.0 * float(
            ((n - k) * piece.cos_transform(k)).sum())
    return total


def _streamed_measures():
    return {
        "quadratic": quadratic(), "whitenoise": white_noise(),
        **{f"power{g}": power_law(g) for g in (0.25, 0.5, 1.5, 1.75)},
        "table": _power_and_table(),
        "power_lo": SpectralMeasure(density=(
            PowerDensity(0.3, 2.9, 1.3, -0.4),)),
        "opaque": SpectralMeasure(density=(OpaqueDensity(
            0.0, PI, lambda y: 1.0 + np.cos(y) ** 2),)),
        "nonergodic": nonergodic(),
        "nonergodic+origin": with_origin_atom(nonergodic(), 0.3),
    }


@pytest.mark.parametrize("block", [1024, 1536])
@pytest.mark.parametrize("name", sorted(_streamed_measures()))
def test_lag_blocks_equal_allocating_reference(monkeypatch, name, block):
    # the O(n) routes take their lags in blocks of _LAG_BLOCK: many blocks,
    # and a padded last one (1536 is three cumulative-sum blocks), give
    # the same floats as every lag at once, so each cosine transform is the
    # same float in a block as in the whole call; variance_covariance fills
    # one run of _COVARIANCE_RUN terms from the blocks, one numpy sum
    monkeypatch.setattr(sm, "_LAG_BLOCK", block)
    m = _streamed_measures()[name]
    for n in (1, 2, 3, 511, 512, 513, block - 1, block, block + 1,
              block + 2, 3 * block + 513):
        want = _profile_reference(m, n)
        assert np.array_equal(variance_profile(m, n).view(np.int64),
                              want.view(np.int64)), n
        want = _batch_reference(m, n)
        assert np.array_equal(autocovariance_batch(m, n).view(np.int64),
                              want.view(np.int64)), n
        assert variance_covariance(m, n) == _covariance_reference(m, n), n


@pytest.mark.parametrize("name", ["power0.5", "quadratic", "table",
                                  "power_lo"])
def test_covariance_route_does_not_depend_on_the_lag_block(monkeypatch,
                                                           name):
    # a density's covariance sum is one numpy sum per run of 2**16 lags,
    # whatever block its transforms come in, so n past one run, or past a
    # block that does not divide the run (1536), gives the same float
    m = _streamed_measures()[name]
    ns = (8193, 8194, 2 ** 16 + 1, 2 ** 16 + 2, 100003, 2 ** 18 + 7)
    got = {}
    for block in (1024, 1536, 2 ** 13, 2 ** 16):
        monkeypatch.setattr(sm, "_LAG_BLOCK", block)
        got[block] = np.array([variance_covariance(m, n) for n in ns])
    want = got.pop(2 ** 13).view(np.int64)
    for block, values in got.items():
        assert np.array_equal(values.view(np.int64), want), block


def _peak_and_result(f, *args):
    tracemalloc.start()
    try:
        result = f(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, n", [
    ("quadratic", 2 ** 21), ("power0.5", 2 ** 21), ("table", 2 ** 20),
    ("nonergodic", 2 ** 18)])
def test_o_n_routes_stream_their_lags(name, n):
    # a profile or a batch holds its output and one lag block's work, so it
    # stays within 3x its output (14-19x when every lag was taken at once);
    # nonergodic's rows cost their atom sums, about 2.5 us each
    m = _streamed_measures()[name]
    for f in (variance_profile, autocovariance_batch):
        f(m, 300)  # the measure's cached tables are not the call's cost
        peak, out = _peak_and_result(f, m, n)
        assert out.shape == (n,)
        assert peak <= 3 * out.nbytes, (f.__name__, peak)


@pytest.mark.parametrize("name, bound, covariance_mib", [
    ("quadratic", 2, 3), ("power0.5", 2, 3), ("table", 3, 4)])
def test_o_n_routes_hold_one_small_block(name, bound, covariance_mib):
    # at 2**18 one lag block of 2**16 lags outweighed the output (a profile
    # or a batch held 5-6.3x it, the covariance sum 9.1 MB); a block of
    # 2**13 lags leaves the output, one run of covariance terms and a few
    # hundred KB per piece
    m, n = _streamed_measures()[name], 2 ** 18
    for f in (variance_profile, autocovariance_batch):
        f(m, 300)  # the measure's cached tables are not the call's cost
        peak, out = _peak_and_result(f, m, n)
        assert out.shape == (n,)
        assert peak <= bound * out.nbytes, (f.__name__, peak)
    variance_covariance(m, 300)
    peak, _ = _peak_and_result(variance_covariance, m, n)
    assert peak <= covariance_mib * 2 ** 20, peak


def test_table_cos_transform_bounds_its_cells():
    # a table piece takes its lags a few at a time when it has many
    # segments: 1000 segments over 8192 lags held 563 MB in one block of
    # 8192 lags; each lag is the float of a call on that lag alone
    rng = np.random.default_rng(30)
    ys = np.sort(rng.uniform(0.0, PI, 1001))
    piece = TableDensity(tuple(ys), tuple(rng.uniform(0.0, 2.0, 1001)))
    k = np.arange(1.0, 8193.0)
    peak, out = _peak_and_result(piece.cos_transform, k)
    assert peak <= 8 * 2 ** 20, peak
    want = np.concatenate([piece.cos_transform(k[i:i + 1])
                           for i in range(len(k))])
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["power0.5", "quadratic", "power_lo"])
def test_power_cos_transform_streams_its_lags(name):
    # a power piece's transform takes its lags _LAG_BLOCK at a time: each
    # lag is the float of a call on its own block, and 2**20 lags hold
    # little more than their output (16x it when taken at once)
    piece = _streamed_measures()[name].density[0]
    k = np.arange(1.0, 2 ** 20 + 1.0)
    peak, out = _peak_and_result(piece.cos_transform, k)
    assert peak <= 3 * out.nbytes, peak
    block = sm._LAG_BLOCK
    want = np.concatenate([piece.cos_transform(k[a:a + block])
                           for a in range(0, len(k), block)])
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    # a lag is the same float whatever lags come with it
    cut = [0, 1000, block + 3, 3 * block - 7, len(k)]
    parts = [piece.cos_transform(k[a:b]) for a, b in zip(cut, cut[1:])]
    assert np.array_equal(np.concatenate(parts).view(np.int64),
                          out.view(np.int64))


@pytest.mark.parametrize("name", ["quadratic", "power0.5", "counterexample",
                                  "random1000"])
def test_covariance_route_memory_does_not_grow_with_n(name):
    # one float from 2**22 lags: a density's one lag block at a time, the
    # atoms' by doubling, on a value per atom
    m = (counterexample() if name == "counterexample" else
         _random_atomic(2026, size=1000) if name == "random1000" else
         _streamed_measures()[name])
    for n in (2 ** 18, 2 ** 22):
        peak, v = _peak_and_result(variance_covariance, m, n)
        assert peak <= 16 * 2 ** 20, (n, peak)
        if m.density:
            assert abs(v - variance_spectral(m, n)) <= 1e-6 * v
        else:
            assert v == variance_spectral(m, n), n


def _row_measures():
    """Every kind of density piece, a jump and a kink inside a dyadic panel
    (bisected in the panel set), a power piece with lo > 0, and atoms with
    density."""
    return {
        "power05": power_law(0.5), "power15": power_law(1.5),
        "quadratic": quadratic(), "whitenoise": white_noise(),
        "table": _power_and_table(),
        "opaque_smooth": SpectralMeasure(density=(OpaqueDensity(
            0.0, PI, lambda y: 1.0 + np.cos(y) ** 2),)),
        "opaque_kink": SpectralMeasure(density=(OpaqueDensity(
            0.0, PI, lambda y: np.abs(y - 1.0) + 0.5),)),
        "opaque_jump": SpectralMeasure(density=(OpaqueDensity(
            0.0, PI, lambda y: np.where(y < 1.0, 1.0, 2.0)),)),
        "power_lo": SpectralMeasure(density=(
            PowerDensity(0.3, 2.9, 1.3, -0.4),)),
        "atoms_and_density": SpectralMeasure(
            atom_at_zero=0.25, atoms=((0.3, 0.2), (PI, 0.05)),
            density=_power_and_table().density),
    }


# unsorted, with repeats, n from 1 to 2**62, and a run of n whose panels
# split differently between Clenshaw-Curtis (n b <= 1) and Filon-Clenshaw-
# Curtis
_ROW_GRID = [33, 3, 1, 31, 32, 2 ** 62, 97, 33, 4097, 2 ** 14 + 1, 3 ** 20,
             2 ** 53 + 1, 1000, 2 ** 40, 2, 3 ** 39, 2 ** 62 - 1, 100, 65,
             *range(34, 72)]


@pytest.mark.parametrize("name", sorted(_row_measures()))
def test_rows_equal_single_n_calls(name):
    # each row adds the same numbers in the same order as variance_spectral
    # at its n, so no row depends on the others in its grid
    m = _row_measures()[name]
    rows = _variance_rows(m, _ROW_GRID)
    assert rows == [variance_spectral(m, n) for n in _ROW_GRID]
    assert _variance_rows(m, _ROW_GRID[::-1]) == rows[::-1]
    assert _variance_rows(m, _ROW_GRID[5:9]) == rows[5:9]


@pytest.mark.parametrize("name", ["counterexample", "nonergodic", "origin"])
def test_atom_rows_from_runs_equal_single_n_calls(name):
    # one atom sum per run of consecutive n, equal to the sum at each n
    m = {"counterexample": counterexample(), "nonergodic": nonergodic(),
         "origin": with_origin_atom(nonergodic(), 0.3)}[name]
    ns = ([*range(1, 201), *range(2 ** 40, 2 ** 40 + 100), 7, 2 ** 62]
          + [2 ** r for r in range(9, 62, 4)])
    assert _variance_rows(m, ns) == [variance_spectral(m, n) for n in ns]


def test_rows_memory_bounded_on_a_long_grid():
    # 2**16 rows up to n = 2**62 go in batches of at most _BATCH_CELLS
    # (row, panel) cells, so the peak stays a few MB; the moments of all
    # 6 * 2**16 cells at once would take about 150 MB.
    m = SpectralMeasure(density=(_power_and_table().density[1],))
    ns = [int(n) for n in np.geomspace(2.0 ** 10, 2.0 ** 62, 2 ** 16)]
    tracemalloc.start()
    try:
        rows = _variance_rows(m, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    for i in (0, 1, 4099, 2 ** 15, 2 ** 16 - 1):
        assert rows[i] == variance_spectral(m, ns[i])


def test_variance_domain():
    with pytest.raises(DomainError):
        variance_spectral(white_noise(), 0)
    with pytest.raises(DomainError):
        variance_covariance(white_noise(), -3)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.9), st.integers(1, 300), st.floats(0.1, 10.0))
# once raised NumericError: a roundoff-level error estimate kept
# bisecting until the round cap
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
    # up to n = 2**62, where G is taken at 2**-62
    ns = [1, 2, 9, 64, 1024, 2 ** 14, 2 ** 62]
    for m in gallery_measures.values():
        for A in (1.0, 2.0, 8.0):
            for n in ns:
                if A > n:
                    continue
                rep = sandwich(m, n, A=A)
                assert all(map(math.isfinite,
                               (rep.lower, rep.variance, rep.upper)))
                slack = 1e-9 * max(1.0, rep.variance)
                assert rep.lower <= rep.variance + slack
                assert rep.variance <= rep.upper + slack
                g_small = g_eval(m, 1.0 / n)
                assert math.isfinite(g_small) and g_small <= g_eval(m, PI)


@settings(max_examples=400, deadline=None)
@given(st.one_of(measures(), density_pieces().map(
           lambda pt: SpectralMeasure(density=(pt[0],)))),
       st.integers(1, 2 ** 62), st.floats(0.05, 1.0))
def test_sandwich_brackets_random_measures(m, n, f):
    # atoms and power pieces from 0, or a single piece of any kind: a table
    # piece, a power piece with lo > 0 or an opaque twin of a power piece,
    # whose G must be accurate relative to itself at 1/n
    A = max(min(f * n, 4.0), 1e-3)
    rep = sandwich(m, n, A=A)
    v = variance_spectral(m, n)
    slack = 1e-9 * max(1.0, v)
    assert rep.lower <= v + slack
    assert v <= rep.upper + slack
    # the closed form integrates the tail int G y^-3 by parts; adaptive
    # quadrature of the same tail agrees to its tolerance
    assert rep.upper == pytest.approx(sandwich_upper_quadrature(m, n, A),
                                      rel=1e-9)


def _table_measure():
    # a power piece on (0, 0.5] joined to a table piece on (0.5, pi]
    return SpectralMeasure(density=(
        PowerDensity(0.0, 0.5, 0.6, 0.5),
        TableDensity((0.5, 1.0, 1.7, 2.4, PI),
                     (0.6 * math.sqrt(0.5), 0.55, 0.9, 0.3, 0.05))))


@pytest.mark.parametrize("n, A, exact", [
    # by mpmath at 40 digits, from the exact G of the float parameters
    (1, 1.0, 5.6092070519437714177),
    (2, 2.0, 8.4589618582113172163),
    (100, 1.0, 85.544602754424699403),
])
def test_sandwich_upper_exact_on_table_measure(n, A, exact):
    assert sandwich(_table_measure(), n, A=A).upper == pytest.approx(
        exact, rel=1e-14)


@pytest.mark.parametrize("spec, make", [
    ("gallery:power:gamma=0.5", lambda: power_law(0.5)),
    ("gallery:counterexample", counterexample),
    ("gallery:quadratic", quadratic),
], ids=["power", "counterexample", "quadratic"])
def test_sandwich_rejects_subnormal_a_over_n_squared(spec, make):
    # the upper bound divides by (A/n)**2, which must be a normal float
    m = make()
    for n, A in ((10, 1e-200), (1, 2.0 ** -512), (2 ** 62, 2.0 ** -450)):
        with pytest.raises(DomainError, match="2\\*\\*-511"):
            sandwich(m, n, A=A)
    rep = sandwich(m, 1, A=2.0 ** -511)
    assert math.isfinite(rep.upper) and rep.variance <= rep.upper
    rc, out, err = run_cli(["bounds", "--measure", spec, "--n", "10",
                            "--A", "1e-200"])
    assert rc == 1 and out == "" and "2**-511" in err


def test_power_piece_from_lo_has_no_mass_below_lo():
    # numpy's lo**q and Python's can differ by an ulp, which once gave
    # G(lo) = -6.7e-16 here: n**2 times it inverted the bracket at n = 2**40
    m = SpectralMeasure(density=(
        PowerDensity(1.890625, 3.0, 3.0, 6.103515625e-05),))
    assert g_eval(m, 0.5) == 0.0 and g_eval(m, 1.890625) == 0.0
    for n in (2 ** 10, 2 ** 40, 2 ** 62):
        rep = sandwich(m, n)
        assert 0.0 <= rep.lower <= rep.variance <= rep.upper, n


def test_sandwich_counterexample_large_n():
    rep = sandwich(white_noise(), 2 ** 10, A=1.0)
    assert rep.lower <= rep.variance <= rep.upper
    rep = sandwich(SpectralMeasure(atoms=((PI, 1.0),)), 2 ** 10, A=8.0)
    assert rep.lower <= rep.variance + 1e-12 <= rep.upper


def _sandwich_measures():
    """_row_measures (every piece kind, the benchmark's table measure, opaque
    pieces) and the atomic gallery measures."""
    return {**_row_measures(), "counterexample": counterexample(),
            "nonergodic": nonergodic()}


@pytest.mark.parametrize("name", sorted(_sandwich_measures()))
def test_sandwich_rows_equal_single_n_calls(name):
    # one variance grid and one G call per column, yet every field of every
    # row equals sandwich at its n
    m = _sandwich_measures()[name]
    for A, ns in ((1.0, _ROW_GRID), (0.5, _ROW_GRID),
                  (2.0, [n for n in _ROW_GRID if n >= 2])):
        assert _sandwich_rows(m, ns, A) == [sandwich(m, n, A=A) for n in ns]
    assert _sandwich_rows(m, [], 1.0) == []


@pytest.mark.parametrize("ns, A, bad", [
    ([4, 64, 2, 9], 3.0, 2),              # A > n
    ([4, 2, 8, 3], 2.0 ** -509, 8),       # A/n < 2**-511
], ids=["A-above-n", "A-over-n-subnormal-square"])
def test_sandwich_rows_check_every_row_before_computing_any(monkeypatch, ns,
                                                            A, bad):
    m = power_law(0.5)
    with pytest.raises(DomainError) as single:
        sandwich(m, bad, A=A)

    def computed(*args, **kwargs):
        raise AssertionError("a row was computed before the checks")

    for name in ("_variance_rows", "g_eval", "robinson_integral"):
        monkeypatch.setattr(fv, name, computed)
    with pytest.raises(DomainError) as grid:
        _sandwich_rows(m, ns, A)
    assert str(grid.value) == str(single.value)


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
