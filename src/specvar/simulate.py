"""Exact stationary Gaussian sample paths for a spectral measure.

Covariances come from the measure's autocovariances; paths are drawn by
circulant embedding (size 2N-2) when the embedding spectrum is nonnegative,
with a dense Cholesky fallback for N <= 4096 otherwise.  Randomness is fully
reproducible: path p consumes its own Philox counter-based stream keyed by
``seed XOR p``, and normals are produced by the inverse-CDF transform
(scipy's ndtri, a rational approximation), so path content never depends on
consumption order or worker scheduling.

An atom at the origin is simulated exactly as a random level: one extra
normal of variance ``atom_at_zero`` per path, added to every coordinate.
That normal is the first draw of the path's stream (only when the atom is
present).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import toeplitz as _toeplitz
from scipy.special import ndtri

from .errors import DomainError, NumericError, check_int
from .spectral_measure import SpectralMeasure, autocovariance_batch

MAX_PATH_LENGTH = 2 ** 16
DENSE_FALLBACK_MAX_N = 4096
# embedding eigenvalues in [-1e-10 * r0, 0) are treated as rounding of zero
EMBEDDING_EIG_TOL = 1e-10


@dataclass(frozen=True)
class PathBatch:
    """P stationary Gaussian paths of length N plus generation metadata."""

    paths: np.ndarray
    seed: int
    method: str  # "circulant" or "cholesky"
    embedding_min_eigenvalue: Optional[float]

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def length(self) -> int:
        return self.paths.shape[1]


class EmpiricalVariance(NamedTuple):
    estimate: float
    standard_error: float


def _path_generator(seed: int, p: int) -> np.random.Generator:
    key = (int(seed) % 2 ** 64) ^ p
    return np.random.Generator(np.random.Philox(key=key))


def _draw_normals(seed: int, P: int, count: int, level_var: float):
    """Per-path standard normals (P x count) and per-path levels (P,)."""
    z = np.empty((P, count))
    levels = np.zeros(P)
    for p in range(P):
        gen = _path_generator(seed, p)
        if level_var > 0.0:
            levels[p] = math.sqrt(level_var) * float(ndtri(gen.random()))
        z[p] = ndtri(gen.random(count))
    return z, levels


def simulate(m: SpectralMeasure, N: int, P: int, seed: int,
             tol: float = 1e-10) -> PathBatch:
    """Draw P exact sample paths of length N; bit-reproducible in all inputs."""
    N = check_int(N, "N", 1)
    P = check_int(P, "P", 1)
    if N > MAX_PATH_LENGTH:
        raise DomainError(f"N must be <= {MAX_PATH_LENGTH}, got {N}")

    level_var = m.atom_at_zero
    base = SpectralMeasure(atom_at_zero=0.0, atoms=m.atoms, density=m.density)
    r = autocovariance_batch(base, max(N, 2), tol=min(tol, 1e-12))[:N]
    r0 = float(r[0])

    if N == 1:
        z, levels = _draw_normals(seed, P, 1, level_var)
        paths = math.sqrt(max(r0, 0.0)) * z + levels[:, None]
        return PathBatch(paths=paths, seed=int(seed), method="circulant",
                         embedding_min_eigenvalue=r0)

    emb = np.concatenate([r, r[-2:0:-1]])
    lam = np.fft.fft(emb).real
    min_eig = float(lam.min())

    if min_eig >= -EMBEDDING_EIG_TOL * max(r0, 1e-300):
        M = len(emb)
        sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
        z, levels = _draw_normals(seed, P, 2 * M, level_var)
        zc = z[:, :M] + 1j * z[:, M:]
        paths = math.sqrt(M) * np.fft.ifft(sqrt_lam[None, :] * zc, axis=1).real
        paths = np.ascontiguousarray(paths[:, :N])
        paths += levels[:, None]
        return PathBatch(paths=paths, seed=int(seed), method="circulant",
                         embedding_min_eigenvalue=min_eig)

    if N > DENSE_FALLBACK_MAX_N:
        raise NumericError(
            f"circulant embedding is indefinite (min eigenvalue {min_eig:.3e}) "
            f"and N={N} exceeds the dense fallback limit "
            f"{DENSE_FALLBACK_MAX_N}; reduce N")

    # dense route; atomic spectra give exactly singular Toeplitz matrices, so
    # escalate a diagonal jitter until the factorization succeeds (the added
    # white noise is negligible against any Monte Carlo standard error)
    K = _toeplitz(r)
    L = None
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            L = _cholesky(K + jitter * r0 * np.eye(N), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise NumericError("dense factorization failed even with jitter")
    z, levels = _draw_normals(seed, P, N, level_var)
    paths = z @ L.T + levels[:, None]
    return PathBatch(paths=paths, seed=int(seed), method="cholesky",
                     embedding_min_eigenvalue=None)


def empirical_variance(batch: PathBatch, n: int) -> EmpiricalVariance:
    """Monte Carlo estimate of Var(S_n) from a path batch.

    Returns the mean of S_n**2 across paths and its standard error; with a
    single path the standard error is reported as +inf.
    """
    n = check_int(n, "n", 1)
    if n > batch.length:
        raise DomainError(
            f"n must lie in [1, {batch.length}], got {n}")
    s = batch.paths[:, :n].sum(axis=1)
    sq = s ** 2
    estimate = float(sq.mean())
    if batch.n_paths < 2:
        return EmpiricalVariance(estimate, math.inf)
    se = float(sq.std(ddof=1) / math.sqrt(batch.n_paths))
    return EmpiricalVariance(estimate, se)
