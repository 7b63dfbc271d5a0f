"""Exact stationary Gaussian sample paths for a spectral measure.

Each part of the measure is drawn by its own exact method; the parts are
independent, so their sum has the measure's covariance.

* The origin atom is a random level: one normal of variance
  ``atom_at_zero`` per path, added to every coordinate.
* An atom of mass m at t in (0, pi] is the random harmonic
  ``sqrt(m) (A cos(t y) + B sin(t y))`` with A, B standard normal.  cos(t y)
  and sin(t y) are the parts of exp(i t)**y from ``ddouble.cpowers`` on the
  measure's cached phases, the powers the atomic autocovariances use, so no
  angle t*y is rounded.
* The density pieces are drawn by circulant embedding of length M, the
  smallest even M >= 2(N-1) with no prime factor above 5 (Wood & Chan 1994),
  when the embedding spectrum is nonnegative.  The real and imaginary parts
  of one complex row give two independent paths (Dietrich & Newsam 1997).
  An indefinite embedding falls back to a dense Cholesky factor for
  N <= 4096, with any diagonal jitter it needed reported as
  ``PathBatch.jitter``.

Randomness is fully reproducible.  Paths 2q and 2q+1 form pair q, whose
stream is an SFC64 generator seeded by ``SeedSequence(seed mod 2**64,
spawn_key=(q,))``, so distinct (seed, q) give unrelated streams.  It draws
the two levels, then the harmonic normals, then the density normals, each
by numpy's ziggurat sampler (``Generator.standard_normal``; Marsaglia &
Tsang 2000).  Pairs are processed in blocks of a fixed shape, padded with
zero normals, so a path's content never depends on P or on consumption
order: a batch of P paths is a prefix of the same batch with more paths.
Batches are bit-identical for a given numpy version; numpy does not promise
the same ``Generator`` streams across versions (NEP 19).

``simulate`` returns the whole P x N batch.  The blocks come from
``_path_blocks``, which reuses one set of block buffers for every block;
``specvar simulate`` consumes them as they come and holds one block of
pairs plus P floats per ``--check-n`` value, never the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import cholesky as _cholesky

from . import ddouble as dd
from .errors import DomainError, NumericError, check_int
from .spectral_measure import SpectralMeasure, autocovariance_batch

MAX_PATH_LENGTH = 2 ** 16
DENSE_FALLBACK_MAX_N = 4096
# embedding eigenvalues in [-1e-10 * r0, 0) are treated as rounding of zero
EMBEDDING_EIG_TOL = 1e-10
# float64 cells of one block's temporaries (normals, FFT rows, atom tables),
# and a cap on the pairs per block, which bounds the padding a small P pays
_BLOCK_CELLS = 1 << 20
_MAX_BLOCK_PAIRS = 64


@dataclass(frozen=True)
class PathBatch:
    """P stationary Gaussian paths of length N plus generation metadata.

    ``method`` names the density route, "circulant" or "cholesky", and is
    "harmonic" for a measure without density.  ``jitter`` is the variance
    the dense route added to the diagonal of the density covariance, 0.0
    unless the factorization needed it.
    """

    paths: np.ndarray
    seed: int
    method: str
    embedding_min_eigenvalue: Optional[float]
    jitter: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def length(self) -> int:
        return self.paths.shape[1]


class EmpiricalVariance(NamedTuple):
    estimate: float
    standard_error: float


# The block fill keeps the name ndtri because the benchmark's tracer looks
# it up by that name and counts its output cells as normals; the library
# trace of ROADMAP item 1 renames it.
def ndtri(out, gens):
    """Fill row i of ``out`` with standard normals from ``gens[i]``; the
    rows past the last generator are padding and are set to zero."""
    out[len(gens):] = 0.0
    for row, gen in zip(out, gens):
        gen.standard_normal(out=row)
    return out


def _pair_generator(seed: int, q: int) -> np.random.Generator:
    entropy = np.random.SeedSequence(seed % 2 ** 64, spawn_key=(q,))
    return np.random.Generator(np.random.SFC64(entropy))


def _toeplitz(r):
    """Symmetric Toeplitz matrix with first column r."""
    n = len(r)
    c = np.concatenate([r[:0:-1], r])  # c[n-1+d] = r[|d|]
    return np.lib.stride_tricks.sliding_window_view(c, n)[::-1].copy()


def _embedding_length(N: int) -> int:
    """Smallest even M >= 2(N-1), and >= 2, with no prime factor above 5."""
    M = max(2, 2 * (N - 1))
    while True:
        k = M
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return M
        M += 2


# A part of the measure is (width, add): each pair draws `width` normals for
# it, and add(z, out) adds the part's values for a block of pairs, z of shape
# (pairs, width), to out of shape (2 * pairs, N), whose rows 2i and 2i+1 are
# the two paths of pair i.

def _level(var: float):
    s = math.sqrt(var)

    def add(z, out):
        out += s * z.reshape(-1, 1)
    return 2, add


def _harmonic_table(cis, masses, N):
    """(2J, N) rows sqrt(m) cos(t y), then sqrt(m) sin(t y), y < N, from the
    atoms' phases exp(i t) (a complex stack) and masses.  The powers are
    taken a few atoms at a time, their four planes at most _BLOCK_CELLS / 4
    cells, so building a table churns little memory; every step is
    elementwise, so the rows do not depend on how the atoms are grouped.
    The table is Fortran-ordered, like the transposed powers it holds: the
    BLAS call, and with it the paths' rounding, depends on the order."""
    J = len(masses)
    table = np.empty((2 * J, N), order="F")
    step = max(1, _BLOCK_CELLS // (16 * N))
    for j in range(0, J, step):
        s = slice(j, min(J, j + step))
        p, _ = dd.cpowers(cis[:, s], N)
        amp = np.sqrt(masses[s])[:, None]
        table[s] = amp * (p[0] + p[1]).T
        table[J + s.start:J + s.stop] = amp * (p[2] + p[3]).T
    return table


def _harmonics(m: SpectralMeasure, N, P):
    """One part per block of atoms.  The tables are built once when they
    fit in one block or hold no more cells than the P paths; otherwise each
    is rebuilt for each block of pairs, so memory stays O(P N) for any atom
    count."""
    _, masses = m.atom_arrays()
    size = max(1, _BLOCK_CELLS // (4 * N))
    keep = len(masses) <= max(size, P // 2)

    def part(s):
        cis, mass = m._cis[:, s], masses[s]
        kept = _harmonic_table(cis, mass, N) if keep else None

        def add(z, out):
            table = kept if kept is not None else _harmonic_table(cis, mass, N)
            out += z.reshape(len(out), -1) @ table
        return 4 * len(mass), add
    return [part(slice(j, j + size)) for j in range(0, len(masses), size)]


def _circulant(lam, M: int, N: int):
    w = np.sqrt(np.clip(lam, 0.0, None) / M)

    def add(z, out):
        zc = z.view(np.complex128)
        zc *= w
        y = np.fft.fft(zc, axis=1, out=zc)
        pairs = out.reshape(len(y), 2, N)
        pairs[:, 0] += y.real[:, :N]
        pairs[:, 1] += y.imag[:, :N]
    return 2 * M, add


def _dense(L, N: int):
    def add(z, out):
        out += z.reshape(len(out), N) @ L.T
    return 2 * N, add


def _density(m: SpectralMeasure, N: int):
    """The density pieces' part, route name, embedding minimum eigenvalue
    and jitter."""
    M = _embedding_length(N)
    r = autocovariance_batch(SpectralMeasure(density=m.density), M // 2 + 1)
    r0 = float(r[0])
    lam = np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real
    min_eig = float(lam.min())
    if min_eig >= -EMBEDDING_EIG_TOL * max(r0, 1e-300):
        return _circulant(lam, M, N), "circulant", min_eig, 0.0
    if N > DENSE_FALLBACK_MAX_N:
        raise NumericError(
            f"circulant embedding is indefinite (min eigenvalue {min_eig:.3e}) "
            f"and N={N} exceeds the dense fallback limit "
            f"{DENSE_FALLBACK_MAX_N}; reduce N")
    # a density's Toeplitz matrix is positive definite but can be singular
    # to working precision, so escalate a diagonal jitter until the
    # factorization succeeds; the jitter is reported, not hidden
    K = _toeplitz(r[:N])
    for rel in (0.0, 1e-12, 1e-10, 1e-8):
        np.fill_diagonal(K, r0 + rel * r0)
        try:
            return _dense(_cholesky(K), N), "cholesky", min_eig, rel * r0
        except np.linalg.LinAlgError:
            continue
    raise NumericError("dense factorization failed even with jitter")


def _path_blocks(m: SpectralMeasure, N: int, P: int, seed: int):
    """``(method, min_eig, jitter, blocks)`` for P paths of length N.

    N, P and the seed (any integer) are checked and the measure's parts
    built at the call;
    ``blocks`` then yields ``(first path, rows)`` in path order, rows a
    (paths, N) view of one block buffer that the next block overwrites.
    The block buffers are allocated once per call and serve every block,
    so consuming the blocks holds one block of pairs, not the P x N batch.
    """
    N = check_int(N, "N", 1)
    P = check_int(P, "P", 1)
    seed = check_int(seed, "seed", None)
    if N > MAX_PATH_LENGTH:
        raise DomainError(f"N must be <= {MAX_PATH_LENGTH}, got {N}")

    parts = [_level(m.atom_at_zero)] if m.atom_at_zero > 0.0 else []
    parts += _harmonics(m, N, P)
    method, min_eig, jitter = "harmonic", None, 0.0
    if m.density:
        part, method, min_eig, jitter = _density(m, N)
        parts.append(part)

    # every block has the same shape whatever P is, so the BLAS and FFT
    # calls, and with them each path's rounding, do not depend on P
    block = max(1, min(_MAX_BLOCK_PAIRS, _BLOCK_CELLS // max(
        [2 * N] + [width for width, _ in parts])))

    def blocks():
        # freeing and remaking these buffers each block costs page faults
        # once nothing larger keeps the allocator's pages
        out = np.empty((2 * block, N))
        normals = [np.empty((block, width)) for width, _ in parts]
        pairs = (P + 1) // 2
        for q0 in range(0, pairs, block):
            gens = [_pair_generator(seed, q)
                    for q in range(q0, min(pairs, q0 + block))]
            out.fill(0.0)
            for (_, add), z in zip(parts, normals):
                add(ndtri(z, gens), out)
            yield 2 * q0, out[:min(P - 2 * q0, 2 * block)]
    return method, min_eig, jitter, blocks()


def simulate(m: SpectralMeasure, N: int, P: int, seed: int) -> PathBatch:
    """Draw P exact sample paths of length N; bit-reproducible in all inputs,
    and the first paths do not depend on P.  The density's autocovariances
    come from ``autocovariance_batch`` at its fixed accuracy."""
    method, min_eig, jitter, blocks = _path_blocks(m, N, P, seed)
    paths = np.empty((int(P), int(N)))  # all three checked by _path_blocks
    for p0, rows in blocks:
        paths[p0:p0 + len(rows)] = rows
    return PathBatch(paths=paths, seed=int(seed), method=method,
                     embedding_min_eigenvalue=min_eig, jitter=jitter)


def _check_n(n, N: int) -> int:
    """``n`` as an int in [1, N], the lengths a path batch can sum."""
    n = check_int(n, "n", 1)
    if n > N:
        raise DomainError(f"n must lie in [1, {N}], got {n}")
    return n


def _moments(s) -> EmpiricalVariance:
    """Mean of s**2 over the paths' partial sums s and its standard error,
    +inf for a single path."""
    sq = s ** 2
    estimate = float(sq.mean())
    if len(s) < 2:
        return EmpiricalVariance(estimate, math.inf)
    se = float(sq.std(ddof=1) / math.sqrt(len(s)))
    return EmpiricalVariance(estimate, se)


def empirical_variance(batch: PathBatch, n: int) -> EmpiricalVariance:
    """Monte Carlo estimate of Var(S_n) from a path batch.

    Returns the mean of S_n**2 across paths and its standard error; with a
    single path the standard error is reported as +inf.
    """
    n = _check_n(n, batch.length)
    return _moments(batch.paths[:, :n].sum(axis=1))
