"""Regular-variation constants and finite-sample growth diagnostics.

For growth index gamma in (0, 2) the two constants

    C(gamma) = Gamma(1+gamma) sin(gamma pi/2) / (pi (2-gamma))
    D(gamma) = Gamma(gamma) 2**(2-gamma) sin(gamma pi/2) / pi

link the small-x behaviour of the cumulative spectral mass G to the growth
of Var(S_n):  G(x) ~ C(gamma) K0 x**(2-gamma) L(1/x) at 0 is equivalent to
Var(S_n) ~ K0 n**gamma L(n) at infinity, with L slowly varying.  They also
satisfy ``1/C(gamma) = 2**(2-gamma) (2-gamma) int_0^inf sin(y)**2 /
y**(1+gamma) dy`` and ``C = (gamma/(2-gamma)) 2**(gamma-2) D`` exactly.

Scans here never assert limits; they report finite-sample ratio columns and
flag convergence only in the weak sense that the last quartile of a column
sits within a caller tolerance of its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError, check_float, check_int
from .fejer_variance import _variance_rows, variance_profile
from .spectral_measure import SpectralMeasure, g_eval
from .specfun import sin_sq_moment


def c_gamma(gamma: float) -> float:
    """Tauberian constant C(gamma) for gamma in (0, 2)."""
    gamma = float(gamma)
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must lie in (0, 2), got {gamma}")
    return (math.gamma(1.0 + gamma) * math.sin(gamma * math.pi / 2.0)
            / (math.pi * (2.0 - gamma)))


def d_gamma(gamma: float) -> float:
    """Companion constant D(gamma) = Gamma(gamma) 2**(2-gamma) sin(gamma pi/2) / pi."""
    gamma = float(gamma)
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must lie in (0, 2), got {gamma}")
    return (math.gamma(gamma) * 2.0 ** (2.0 - gamma)
            * math.sin(gamma * math.pi / 2.0) / math.pi)


def c_identity_residual(gamma: float) -> float:
    """|1/C(gamma) - 2**(2-gamma) (2-gamma) * int_0^inf sin^2(y)/y^(1+gamma) dy|."""
    quad = 2.0 ** (2.0 - gamma) * (2.0 - gamma) * sin_sq_moment(gamma)
    return abs(1.0 / c_gamma(gamma) - quad)


@dataclass(frozen=True)
class SlowlyVarying:
    """Slowly varying factor: a constant or a power of the logarithm.

    ``constant`` evaluates to 1; ``log_power(a)`` to ``log(e + x)**a``.
    These two families cover every diagnostic in the package; exotic slowly
    varying functions (liminf 0 / limsup infinity) are out of scope.
    """

    kind: str = "constant"
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "log_power"):
            raise DomainError(f"unknown slowly varying kind {self.kind!r}")
        object.__setattr__(self, "exponent",
                           check_float(self.exponent, "exponent"))

    @classmethod
    def constant(cls) -> "SlowlyVarying":
        return cls("constant")

    @classmethod
    def log_power(cls, a: float) -> "SlowlyVarying":
        return cls("log_power", float(a))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.ones_like(x)
        else:
            out = np.log(math.e + x) ** self.exponent
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RegularVariationModel:
    """Growth model g(n) = K0 * n**gamma * L(n), gamma strictly inside (0, 2).

    The boundary indices 0 and 2 are served by dedicated diagnostics
    (robinson_integral, dichotomy_check), not by this type.
    """

    gamma: float
    K0: float
    L: SlowlyVarying = field(default_factory=SlowlyVarying.constant)

    def __post_init__(self):
        gamma = check_float(self.gamma, "gamma")
        if not 0.0 < gamma < 2.0:
            raise DomainError(f"gamma must lie strictly in (0, 2), got {self.gamma}")
        K0 = check_float(self.K0, "K0")
        if not K0 > 0.0:
            raise DomainError(f"K0 must be positive, got {self.K0}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "K0", K0)

    def g(self, n):
        return np.asarray(n, dtype=float) ** self.gamma * self.L(n)

    def predicted_g_small(self, x):
        """Matching small-x model C(gamma) K0 x**(2-gamma) L(1/x)."""
        x = np.asarray(x, dtype=float)
        return c_gamma(self.gamma) * self.K0 * x ** (2.0 - self.gamma) * self.L(1.0 / x)


@dataclass(frozen=True)
class ScanRow:
    n: int
    variance: float
    g_n: float | None = None
    var_ratio: float | None = None
    x: float | None = None
    G_x: float | None = None
    g_ratio: float | None = None


_SCAN_COLUMNS = ("n", "variance", "g_n", "var_ratio", "x", "G_x", "g_ratio")


def _lastq_converged(values: np.ndarray, tol: float) -> bool:
    # weak finite-sample diagnosis: last quartile within tol of its mean
    tail = values[-max(1, len(values) // 4):]
    return bool(np.all(np.abs(tail - tail.mean()) <= tol))


@dataclass(frozen=True)
class ScanReport:
    """Ratio table from a model scan plus sup/inf/convergence summary."""

    rows: tuple
    tolerance: float
    var_ratio_sup: float
    var_ratio_inf: float
    g_ratio_sup: float
    g_ratio_inf: float
    var_ratio_converged: bool
    g_ratio_converged: bool

    def to_csv(self) -> str:
        lines = [",".join(_SCAN_COLUMNS)]
        for row in self.rows:
            cells = [str(row.n)]
            for name in _SCAN_COLUMNS[1:]:
                v = getattr(row, name)
                cells.append("" if v is None else repr(float(v)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def rows_from_csv(cls, text: str) -> tuple:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split(",") != list(_SCAN_COLUMNS):
            raise ValidationError("not a scan CSV: bad header")
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(_SCAN_COLUMNS):
                raise ValidationError(f"bad scan CSV row: {ln!r}")
            vals = [None if c == "" else float(c) for c in cells[1:]]
            rows.append(ScanRow(int(cells[0]), *vals))
        return tuple(rows)


def theorem_check(m: SpectralMeasure, model: RegularVariationModel, n_grid,
                  tol: float = 0.05) -> ScanReport:
    """Scan both sides of the variance/spectral-mass equivalence.

    For each n the report carries Var(S_n), the model value K0 g(n) and their
    ratio, and at x = 1/n the measured G(x) against the matching small-x model
    C(gamma) K0 x**(2-gamma) L(1/x).  Both ratio columns approach 1 exactly
    when the measure follows the model.  The variances come from one
    ``_variance_rows`` call and G from one ``g_eval`` call on the grid.
    """
    n_grid = [check_int(n, "n_grid entry", 1) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be nonempty and strictly increasing")
    tol = check_float(tol, "tol", 0.0)
    xs = [1.0 / n for n in n_grid]
    rows = []
    for n, var, x, gx in zip(n_grid, _variance_rows(m, n_grid), xs,
                             g_eval(m, xs).tolist()):
        gn = float(model.g(n))
        rows.append(ScanRow(
            n=n, variance=var, g_n=gn,
            var_ratio=var / (model.K0 * gn),
            x=x, G_x=gx,
            g_ratio=gx / float(model.predicted_g_small(x))))
    var_ratios = np.array([r.var_ratio for r in rows])
    g_ratios = np.array([r.g_ratio for r in rows])
    return ScanReport(
        rows=tuple(rows), tolerance=tol,
        var_ratio_sup=float(var_ratios.max()),
        var_ratio_inf=float(var_ratios.min()),
        g_ratio_sup=float(g_ratios.max()),
        g_ratio_inf=float(g_ratios.min()),
        var_ratio_converged=_lastq_converged(var_ratios, tol),
        g_ratio_converged=_lastq_converged(g_ratios, tol))


@dataclass(frozen=True)
class GrowthBoundReport:
    """Sup/inf ratio diagnostics for bounded-growth equivalences.

    Three ratio families: Var/g along the subsequence, G(x)/(x**(2-gamma)
    L(1/x)) at x = 1/n_k, and Var/g along every integer between the first and
    last subsequence entry.  ``kappa`` is the largest consecutive-entry ratio;
    the equivalences assume it stays bounded.
    """

    kappa: float
    kappa_bounded: bool
    subseq_sup: float
    subseq_inf: float
    g_sup: float
    g_inf: float
    filled_sup: float
    filled_inf: float


def growth_bound_report(m: SpectralMeasure, gamma: float, L: SlowlyVarying,
                        subsequence, kappa_warn: float = 16.0,
                        fill_limit: int = 2 ** 20) -> GrowthBoundReport:
    """Finite-sample sup/inf ratios of Var and G against n**gamma L(n)."""
    ns = [check_int(n, "subsequence entry", 1) for n in subsequence]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("subsequence must be increasing positive integers")
    gamma = check_float(gamma, "gamma")
    kappa_warn = check_float(kappa_warn, "kappa_warn")
    fill_limit = check_int(fill_limit, "fill_limit", 1)
    if ns[-1] > fill_limit:
        raise DomainError(f"subsequence exceeds fill limit {fill_limit}")
    kappa = max(b / a for a, b in zip(ns, ns[1:]))

    profile = variance_profile(m, ns[-1])
    n_all = np.arange(ns[0], ns[-1] + 1)
    g_all = n_all ** gamma * L(n_all)
    fill_ratios = profile[ns[0] - 1:] / g_all

    idx = np.array(ns) - 1
    sub_ratios = profile[idx] / (np.array(ns, dtype=float) ** gamma * L(np.array(ns)))

    xs = 1.0 / np.array(ns, dtype=float)
    g_vals = g_eval(m, xs)
    g_ratios = g_vals / (xs ** (2.0 - gamma) * L(1.0 / xs))

    return GrowthBoundReport(
        kappa=float(kappa), kappa_bounded=bool(kappa <= kappa_warn),
        subseq_sup=float(sub_ratios.max()), subseq_inf=float(sub_ratios.min()),
        g_sup=float(g_ratios.max()), g_inf=float(g_ratios.min()),
        filled_sup=float(fill_ratios.max()), filled_inf=float(fill_ratios.min()))


@dataclass(frozen=True)
class DichotomyReport:
    """Var(S_n)/n**2 column; its tail identifies the origin atom mass."""

    n: tuple
    ratios: tuple
    limit_estimate: float
    atom_at_zero: float
    matches_origin_atom: bool


def dichotomy_check(m: SpectralMeasure, n_grid, tol: float = 1e-2) -> DichotomyReport:
    """Boundary diagnostic at growth index 2: Var/n**2 tends to the origin
    atom mass (zero exactly when there is no atom at the origin)."""
    n_grid = [check_int(n, "n_grid entry", 1) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be nonempty and strictly increasing")
    tol = check_float(tol, "tol", 0.0)
    ratios = [v / float(n) ** 2
              for n, v in zip(n_grid, _variance_rows(m, n_grid))]
    limit = ratios[-1]
    return DichotomyReport(
        n=tuple(n_grid), ratios=tuple(ratios), limit_estimate=limit,
        atom_at_zero=m.atom_at_zero,
        matches_origin_atom=bool(abs(limit - m.atom_at_zero) <= tol))


@dataclass(frozen=True)
class SubsequenceScanReport:
    """Dyadic column Var(S_{2^r})/2**(r gamma) against the filled-in column.

    ``octave_ratios[i]`` is the maximum of Var(S_n)/n**gamma over the octave
    [2^r, 2^(r+1)] divided by the dyadic value at 2^r; it stays near 1 when
    dyadic convergence transfers to the full sequence and grows when it does
    not.
    """

    gamma: float
    r_values: tuple
    dyadic_ratios: tuple
    octave_ratios: tuple
    n_full: np.ndarray
    full_ratios: np.ndarray


def subsequence_scan(m: SpectralMeasure, gamma: float, r0: int, r1: int,
                     ) -> SubsequenceScanReport:
    """Compare dyadic and full-sequence normalized variances.

    ``gamma`` may be any value in [0, 2]; 0 selects raw (unnormalized)
    variances, which is the natural scale for boundedness questions.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= 2.0:
        raise DomainError(f"gamma must lie in [0, 2], got {gamma}")
    r0, r1 = check_int(r0, "r0", 0), check_int(r1, "r1", 0)
    if not r0 < r1:
        raise DomainError("need 0 <= r0 < r1")
    n_max = 2 ** r1
    profile = variance_profile(m, n_max)
    n_lo = 2 ** r0
    n_full = np.arange(n_lo, n_max + 1)
    full_ratios = profile[n_lo - 1:] / n_full ** gamma

    rs = list(range(r0, r1 + 1))
    dyadic = [profile[2 ** r - 1] / (2 ** r) ** gamma for r in rs]
    octave = []
    for i, r in enumerate(rs[:-1]):
        lo, hi = 2 ** r, 2 ** (r + 1)
        window = full_ratios[lo - n_lo: hi - n_lo + 1]
        octave.append(float(window.max() / dyadic[i]))
    return SubsequenceScanReport(
        gamma=gamma, r_values=tuple(rs), dyadic_ratios=tuple(dyadic),
        octave_ratios=tuple(octave), n_full=n_full, full_ratios=full_ratios)


@dataclass(frozen=True)
class FitResult:
    gamma_hat: float
    K0_hat: float
    residual: float


def gamma_fit(points) -> FitResult:
    """Least squares of log Var against log n: growth index and scale.

    Needs at least three points with increasing integer n >= 1 and finite
    positive variances; returns the slope as gamma_hat, exp(intercept) as
    K0_hat and the RMS log residual.
    """
    pts = [(check_int(n, "gamma_fit n", 1), float(v)) for n, v in points]
    if len(pts) < 3:
        raise DomainError("gamma_fit needs at least 3 points")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise DomainError("gamma_fit points must have strictly increasing n")
    if not all(0.0 < v < math.inf for _, v in pts):  # also rejects NaN
        raise DomainError("gamma_fit variances must be finite and positive")
    lx = np.log([n for n, _ in pts])
    ly = np.log([v for _, v in pts])
    vx = lx - lx.mean()
    denom = float((vx ** 2).sum())
    if denom == 0.0:
        raise DomainError("degenerate design: all n equal")
    slope = float((vx * (ly - ly.mean())).sum()) / denom
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    return FitResult(gamma_hat=slope, K0_hat=math.exp(intercept),
                     residual=float(np.sqrt((resid ** 2).mean())))
