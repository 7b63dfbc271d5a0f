"""Named example measures.

Every measure that the test suite and CLI exercise is constructed here from
a handful of parameters, so every experiment is reproducible from a name.
Atomic families with infinitely many atoms are truncated at ``k_max``; the
discarded tail mass (2**-k_max resp. 4**-k_max scale) is recorded in the
measure's ``meta`` so the truncation error is always on the record.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_float, check_int
from .spectral_measure import PI, PowerDensity, SpectralMeasure


def _k_max(value) -> int:
    """A truncation index k_max >= 8 (``check_int``); a string naming an
    integer, as the CLI passes it, counts as that integer."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass  # check_int names the string
    return check_int(value, "k_max", 8)


def counterexample(k_max: int = 60) -> SpectralMeasure:
    """Dyadic staircase measure: atoms of mass 2**-k at locations 2**-k.

    Its cumulative mass G doubles along dyadic scales, so G(x)/x has no limit
    at 0 and Var(S_n)/n has no limit either -- yet Var(S_{2^r})/2**r
    converges.  This is the canonical witness that convergence along the
    dyadic subsequence does not transfer to the full sequence.
    """
    k_max = _k_max(k_max)
    ks = np.arange(k_max, 0, -1)  # ascending locations
    locs = 2.0 ** (-ks.astype(float))
    atoms = tuple((float(l), float(l)) for l in locs)
    return SpectralMeasure(
        atoms=atoms,
        meta={"name": "counterexample", "k_max": k_max,
              "tail_mass_bound": 2.0 ** (-k_max)})


def power_law(gamma: float, scale: float = 1.0) -> SpectralMeasure:
    """Measure with exact power-law mass G(x) = scale * x**(2-gamma).

    Realized by the density ``scale (2-gamma) y**(1-gamma)`` on (0, pi], so
    Var(S_n)/n**gamma approaches scale / C(gamma).
    """
    gamma = check_float(gamma, "gamma", above=0.0, below=2.0)
    scale = check_float(scale, "scale", above=0.0)
    piece = PowerDensity(lo=0.0, hi=PI, coef=scale * (2.0 - gamma),
                         exponent=1.0 - gamma)
    return SpectralMeasure(
        density=(piece,),
        meta={"name": "power", "gamma": gamma, "scale": scale})


def white_noise() -> SpectralMeasure:
    """Flat spectrum of unit mass: G(x) = x/pi, Var(S_n) = n exactly."""
    m = power_law(1.0, 1.0 / PI)
    m.meta.update({"name": "whitenoise"})
    return m


def quadratic() -> SpectralMeasure:
    """Density 2y on (0, pi], i.e. G(x) = x**2; Var(S_n) = 4 ln n + O(1).

    The bounded-variance integral int y**-2 dG diverges logarithmically, so
    this sits exactly on the boundary between bounded and unbounded Var.
    """
    piece = PowerDensity(lo=0.0, hi=PI, coef=2.0, exponent=1.0)
    return SpectralMeasure(density=(piece,), meta={"name": "quadratic"})


def nonergodic(k_max: int = 40) -> SpectralMeasure:
    """Atoms of mass 4**-k at 2 pi 2**-k (k >= 2): dyadic variances stay
    bounded while the full-sequence supremum grows without bound.

    Every dyadic n annihilates all atoms above its scale (sin(n pi 2**-k)
    vanishes for k <= log2 n), which caps Var(S_{2^j}); generic n resonate
    with about log2(n) atoms at once.
    """
    k_max = _k_max(k_max)
    ks = np.arange(k_max, 1, -1)  # k = k_max .. 2, ascending locations
    locs = 2.0 * PI * 2.0 ** (-ks.astype(float))
    masses = 4.0 ** (-ks.astype(float))
    atoms = tuple((float(l), float(v)) for l, v in zip(locs, masses))
    return SpectralMeasure(
        atoms=atoms,
        meta={"name": "nonergodic", "k_max": k_max,
              "tail_mass_bound": 4.0 ** (-k_max)})


def with_origin_atom(base: SpectralMeasure, a: float) -> SpectralMeasure:
    """Copy of ``base`` with ``a`` added to the origin atom.

    An origin atom contributes a * n**2 to Var(S_n): the ergodic-mean
    degeneracy in its sharpest form.
    """
    a = check_float(a, "origin atom mass", above=0.0)
    meta = dict(base.meta)
    meta["origin_atom_added"] = meta.get("origin_atom_added", 0.0) + a
    return SpectralMeasure(atom_at_zero=base.atom_at_zero + a,
                           atoms=base.atoms, density=base.density, meta=meta)


GALLERY = {
    "counterexample": (counterexample,
                       "dyadic atoms 2^-k with mass 2^-k; Var(S_n)/n has no "
                       "limit but the dyadic column converges"),
    "power": (power_law,
              "G(x) = scale*x^(2-gamma) exactly; Var(S_n)/n^gamma -> "
              "scale/C(gamma); parameters gamma (required), scale"),
    "quadratic": (quadratic,
                  "G(x) = x^2; Var(S_n) = 4 ln n + O(1)"),
    "nonergodic": (nonergodic,
                   "atoms 4^-k at 2*pi*2^-k; bounded dyadic variances, "
                   "unbounded full-sequence supremum"),
    "whitenoise": (white_noise,
                   "flat unit-mass spectrum; Var(S_n) = n exactly"),
}


def build(name: str, **params) -> SpectralMeasure:
    """Construct a gallery measure by registry name; the parameters go to
    its constructor, which coerces strings, and a missing or unknown one
    raises DomainError."""
    if name not in GALLERY:
        known = ", ".join(sorted(GALLERY))
        raise DomainError(f"unknown gallery measure {name!r} (known: {known})")
    try:
        return GALLERY[name][0](**params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for gallery:{name}: {exc}") from None
