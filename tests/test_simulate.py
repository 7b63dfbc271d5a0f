import importlib
import math

import numpy as np
import pytest

from conftest import harmonic_table_reference
from specvar import (DomainError, NumericError, SpectralMeasure,
                     TableDensity, autocovariance, counterexample,
                     empirical_variance, nonergodic, power_law, quadratic,
                     simulate, variance_spectral, white_noise,
                     with_origin_atom)
from specvar.simulate import (_embedding_length, _harmonic_table,
                              _pair_generator, ndtri)

# the package's name simulate is the function; this is its module
simulate_module = importlib.import_module("specvar.simulate")

PI = math.pi
# flat density on (0, 0.3]: its circulant embedding is indefinite at every N
# used here (min eigenvalue -0.87 r0 at N = 512, -0.47 r0 at 8192)
FLAT = SpectralMeasure(density=(TableDensity((0.0, 0.3), (1.0, 1.0)),))
MIXED = with_origin_atom(
    SpectralMeasure(atoms=((1.0, 0.5), (PI, 0.25)),
                    density=quadratic().density), 0.3)


def test_bit_exact_reproducibility():
    m = quadratic()
    a = simulate(m, N=512, P=64, seed=20260101)
    b = simulate(m, N=512, P=64, seed=20260101)
    assert np.array_equal(a.paths, b.paths)
    assert a.method == b.method == "circulant"
    assert a.embedding_min_eigenvalue == b.embedding_min_eigenvalue


def test_different_seeds_differ():
    m = white_noise()
    a = simulate(m, N=128, P=8, seed=1)
    b = simulate(m, N=128, P=8, seed=2)
    assert not np.array_equal(a.paths, b.paths)


@pytest.mark.parametrize("m", [white_noise(), counterexample()],
                         ids=["density", "atomic"])
@pytest.mark.parametrize("seeds", [(0, 1), (2, 3), (6, 7)], ids=repr)
def test_pair_streams_differ_across_seeds(m, seeds):
    # a stream keyed by seed XOR q gave pair q under seed s the paths of
    # pair q ^ 1 under seed s ^ 1
    s, t = seeds
    a = simulate(m, N=64, P=4, seed=s).paths
    b = simulate(m, N=64, P=4, seed=t).paths
    for q in (0, 1):
        r = q ^ 1
        assert not np.array_equal(a[2 * q:2 * q + 2], b[2 * r:2 * r + 2])


def _assert_normal_tails(x):
    # share of |x| > a against 2 Phi(-a), within 5 binomial standard errors
    for a in (2.0, 3.0, 4.0):
        p = math.erfc(a / math.sqrt(2.0))
        share = float(np.mean(np.abs(x) > a))
        assert abs(share - p) <= 5.0 * math.sqrt(p * (1.0 - p) / x.size), a


def test_normal_tails_of_paths_and_raw_draws():
    # white-noise paths are i.i.d. N(0, 1); the raw block fill is checked
    # too, since each path value mixes all the normals of its FFT row
    _assert_normal_tails(simulate(white_noise(), N=4096, P=1000,
                                  seed=1618).paths)
    gens = [_pair_generator(1618, q) for q in range(60)]
    z = ndtri(np.full((64, 1 << 16), np.nan), gens)
    assert not z[60:].any()
    _assert_normal_tails(z[:60])


def test_whitenoise_lag1_small():
    batch = simulate(white_noise(), N=2048, P=500, seed=99)
    x = batch.paths
    lag1 = float((x[:, :-1] * x[:, 1:]).mean())
    assert abs(lag1) <= 4.0 / math.sqrt(x.size)


def test_single_atom_alternating_paths():
    m = SpectralMeasure(atoms=((PI, 1.0),))
    batch = simulate(m, N=256, P=400, seed=5)
    per_path = (batch.paths[:, :-1] * batch.paths[:, 1:]).mean(axis=1)
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    assert abs(per_path.mean() - (-1.0)) <= 4.0 * se


def test_sample_covariance_lags(gallery_measures):
    m = gallery_measures["whitenoise"]
    batch = simulate(m, N=512, P=1000, seed=31415)
    for lag in range(0, 9):
        x0 = batch.paths[:, : 512 - lag]
        xl = batch.paths[:, lag:]
        per_path = (x0 * xl).mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(batch.n_paths)
        assert abs(per_path.mean() - autocovariance(m, lag)) <= 5.0 * se


def test_empirical_matches_spectral_quadratic():
    m = quadratic()
    batch = simulate(m, N=512, P=800, seed=271828)
    est, se = empirical_variance(batch, 256)
    assert abs(est - variance_spectral(m, 256)) <= 4.0 * se


def test_counterexample_uses_harmonics():
    m = counterexample()
    batch = simulate(m, N=512, P=50, seed=17)
    assert batch.method == "harmonic"
    assert batch.embedding_min_eigenvalue is None
    assert batch.jitter == 0.0
    est, se = empirical_variance(batch, 64)
    assert abs(est - variance_spectral(m, 64)) <= 4.0 * se


def test_indefinite_density_uses_dense_fallback():
    batch = simulate(FLAT, N=512, P=50, seed=17)
    assert batch.method == "cholesky"
    assert batch.embedding_min_eigenvalue < 0.0
    # the density's Toeplitz matrix is singular to working precision, and
    # the diagonal jitter that lets it factor is reported
    assert 0.0 < batch.jitter <= 1e-8 * FLAT.total_mass
    est, se = empirical_variance(batch, 64)
    assert abs(est - variance_spectral(FLAT, 64)) <= 4.0 * se


def test_embedding_length_is_fast():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(1, 16)
                    for b in range(10) for c in range(7))
    for N in range(1, 5000):
        want = next(M for M in smooth if M >= max(2, 2 * (N - 1)))
        assert _embedding_length(N) == want
    assert _embedding_length(4096) == 8192


@pytest.mark.parametrize("N", [2, 3, 64, 1000, 4096, 4097])
def test_gallery_densities_stay_circulant(N):
    for m in (white_noise(), quadratic(), power_law(0.25), power_law(0.5),
              power_law(1.0), power_law(1.5), power_law(1.75)):
        batch = simulate(m, N=N, P=1, seed=1)
        assert batch.method == "circulant"
        assert batch.jitter == 0.0


@pytest.mark.parametrize("m", [counterexample(), quadratic(), MIXED],
                         ids=["atomic", "density", "mixed"])
def test_paths_do_not_depend_on_batch_size(m):
    full = simulate(m, N=300, P=8, seed=2718).paths
    for P in (1, 5):
        assert np.array_equal(simulate(m, N=300, P=P, seed=2718).paths,
                              full[:P])


@pytest.mark.parametrize("m", [counterexample(), quadratic(), MIXED],
                         ids=["atomic", "density", "mixed"])
def test_pair_paths_independent(m):
    # paths 2q and 2q+1 share a stream (and for densities one complex FFT
    # row); their sums must still be uncorrelated
    batch = simulate(m, N=64, P=4000, seed=4242)
    s = batch.paths.sum(axis=1)
    corr = np.corrcoef(s[0::2], s[1::2])[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(2000)


def test_nonergodic_long_paths_covariances():
    m = nonergodic()
    N = 8192
    batch = simulate(m, N=N, P=400, seed=8192)
    assert batch.method == "harmonic"
    for lag in range(0, 9):
        per_path = (batch.paths[:, : N - lag] * batch.paths[:, lag:]).mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(batch.n_paths)
        assert abs(per_path.mean() - autocovariance(m, lag)) <= 5.0 * se


def test_mixed_measure_variance():
    batch = simulate(MIXED, N=1024, P=2000, seed=5150)
    assert batch.method == "circulant"
    for n in (16, 1024):
        est, se = empirical_variance(batch, n)
        assert abs(est - variance_spectral(MIXED, n)) <= 4.0 * se


def test_origin_atom_random_level():
    m = with_origin_atom(white_noise(), 0.5)
    batch = simulate(m, N=64, P=3000, seed=777)
    n = 64
    est, se = empirical_variance(batch, n)
    assert abs(est - (0.5 * n ** 2 + n)) <= 4.0 * se
    # the level is constant within each path: per-path mean variance ~ 0.5
    level_est = batch.paths.mean(axis=1)
    assert abs(np.mean(level_est ** 2) - (0.5 + 1.0 / n)) <= 0.1


def test_single_path_standard_error_inf():
    batch = simulate(white_noise(), N=32, P=1, seed=4)
    est, se = empirical_variance(batch, 8)
    assert math.isfinite(est)
    assert se == math.inf


def test_empirical_variance_domain():
    batch = simulate(white_noise(), N=32, P=4, seed=4)
    with pytest.raises(DomainError):
        empirical_variance(batch, 33)
    with pytest.raises(DomainError):
        empirical_variance(batch, 0)


def test_simulate_domain():
    with pytest.raises(DomainError):
        simulate(white_noise(), N=0, P=1, seed=1)
    with pytest.raises(DomainError):
        simulate(white_noise(), N=2 ** 16 + 1, P=1, seed=1)
    with pytest.raises(DomainError):
        simulate(white_noise(), N=8, P=0, seed=1)


@pytest.mark.parametrize("seed", [1.5, -0.5, math.nan, math.inf, -math.inf,
                                  "7", None], ids=repr)
def test_simulate_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 once ran, and reported, seed 1; nan raised a bare ValueError and
    # inf an OverflowError
    with pytest.raises(DomainError, match="seed"):
        simulate(white_noise(), N=8, P=2, seed=seed)


@pytest.mark.parametrize("seed", [0, 5, -1, -2 ** 70, 2 ** 63, 2 ** 64 + 5],
                         ids=repr)
def test_every_integer_seed_keeps_its_stream(seed):
    # the streams are keyed by seed mod 2**64, whatever the integer's type
    m = with_origin_atom(nonergodic(), 0.5)
    batch = simulate(m, N=32, P=3, seed=seed)
    assert batch.seed == seed and type(batch.seed) is int
    want = simulate(m, N=32, P=3, seed=seed % 2 ** 64).paths
    assert (batch.paths == want).all()
    if -2 ** 63 <= seed < 2 ** 63:
        for same in (np.int64(seed), float(seed)):
            assert (simulate(m, N=32, P=3, seed=same).paths == want).all()


def test_indefinite_embedding_large_n_raises():
    # the flat density has an indefinite embedding at N = 8192 (min
    # eigenvalue -0.47 r0); beyond the dense fallback limit this must
    # surface as a numeric error telling the caller to reduce N
    with pytest.raises(NumericError):
        simulate(FLAT, N=8192, P=1, seed=1)


def test_path_length_one():
    m = white_noise()
    batch = simulate(m, N=1, P=200, seed=12)
    assert batch.paths.shape == (200, 1)
    assert abs(batch.paths.var() - 1.0) <= 0.3


_RNG = np.random.default_rng(300)
TABLE_MEASURES = {
    "counterexample": counterexample(),
    "nonergodic": nonergodic(),
    "counterexample(20)": counterexample(20),
    "300 random atoms": SpectralMeasure(atoms=tuple(
        (float(t), float(m)) for t, m in zip(
            np.sort(_RNG.uniform(1e-3, PI, 300)),
            _RNG.uniform(0.1, 1.0, 300)))),
    "atoms 1e-9 .. 1e-20": SpectralMeasure(atoms=tuple(
        (10.0 ** -k, 2.0 ** -k) for k in range(20, 8, -1))),
    "atom at pi": SpectralMeasure(atoms=((PI, 0.5),)),
}


@pytest.mark.parametrize("N", [1, 2, 37, 512, 1000, 4096, 4097])
@pytest.mark.parametrize("name", sorted(TABLE_MEASURES))
def test_harmonic_table_equals_the_doubling_chain(name, N):
    # the grid's powers are row times column products, the chain's products
    # of squares; each is rounded to a float only in the table, and there
    # every entry (its sign of zero too) is the chain's
    m = TABLE_MEASURES[name]
    _, masses = m.atom_arrays()
    table = _harmonic_table(m._cis, masses, N)
    want = harmonic_table_reference(m._cis, masses, N)
    assert table.flags.f_contiguous and table.shape == want.shape
    assert np.array_equal(table.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m", [white_noise(), quadratic(), power_law(1.5),
                               with_origin_atom(power_law(0.5), 0.3)],
                         ids=["whitenoise", "quadratic", "power1.5", "origin"])
def test_circulant_paths_do_not_depend_on_the_block_budget(m, monkeypatch):
    # an FFT row is one pair's, and every other step is elementwise, so
    # blocks of 1 (2**12 cells), 8 (2**17) and 64 pairs (2**20) agree; the
    # harmonic and dense parts' matrix products are left to the BLAS
    paths = {}
    for cells in (1 << 12, 1 << 17, 1 << 20):
        monkeypatch.setattr(simulate_module, "_PATH_CELLS", cells)
        batch = simulate(m, N=4000, P=67, seed=2 ** 70 + 3)
        assert batch.method == "circulant"
        paths[cells] = batch.paths.view(np.int64)
    assert np.array_equal(paths[1 << 12], paths[1 << 20])
    assert np.array_equal(paths[1 << 17], paths[1 << 20])
