"""The three benchmark workloads: seeded inputs, the timed calls, their checks.

A workload builds its measures once (set-up), then turns the seed into a
fixed list of ops (one pass) and computes every reference for those ops
before anything is timed.  Seeds move inputs within fixed cost strata, so
runs with different seeds do about the same amount of work and their
timings can be compared.

* ``kernel_scan``: in-process ``specvar.cli.run`` jobs of ``variance``,
  ``bounds`` and ``scan`` on density measures; quadrature does the work.
* ``atomic_profile``: library calls on atomic measures up to n = 2**18; the
  extended-precision atom sums do the work and quadrature does none.
* ``monte_carlo``: in-process ``simulate --check-n`` jobs at N = 4096; the
  RNG, inverse CDF, FFT and dense factorization do the work.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import specvar as sv
from specvar import cli
from specvar.fejer_variance import KERNEL_QUAD_MAX_N

import refs

TABLE_MEASURE = Path(__file__).resolve().parent / "data" / "table_measure.json"

# An op fails when a value misses its reference, or the other variance
# route, by more than this many digits' worth of relative error.  It is a
# gross-error guard: precision is tracked by the ref_digits and route_digits
# metrics.  The covariance route keeps only about 6 digits on the
# nonergodic measure from n = 2**16 on (float64 cancellation in the
# triangular sum).
DIGITS_FLOOR = 5.0
# monte_carlo: |z| of an empirical Var(S_n) against the spectral value
Z_MAX = 6.0
# bounds: relative slack allowed in lower <= Var <= upper (gate C2)
BRACKET_SLACK = 1e-9


@dataclass
class Outcome:
    """What one op delivered and how its checks went."""

    failures: list = field(default_factory=list)
    ref_digits: list = field(default_factory=list)
    route_digits: list = field(default_factory=list)
    var_evals: int = 0
    profile_points: int = 0
    path_samples: int = 0
    counts: dict = field(default_factory=dict)

    def expect(self, ok: bool, why: str):
        if not ok:
            self.failures.append(why)

    def against_ref(self, value, ref, what):
        d = refs.digits(float(value), ref)
        self.ref_digits.append(d)
        self.expect(d >= DIGITS_FLOOR, f"{what}: {value!r} vs ref {ref!r}")

    def against_route(self, value, other, what):
        d = refs.digits(float(value), other)
        self.route_digits.append(d)
        self.expect(d >= DIGITS_FLOOR, f"{what}: {value!r} vs route {other!r}")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _stratified_n(rng, count, lo_exp, hi_exp):
    """``count`` increasing n, log-uniform over [2**lo_exp, 2**hi_exp], one
    per equal-width stratum of log2 n."""
    width = (hi_exp - lo_exp) / count
    out = []
    for i in range(count):
        n = int(2.0 ** (lo_exp + width * (i + rng.random())))
        out.append(max(n, out[-1] + 1) if out else n)
    return out


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(list(argv), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _finite(*values):
    return all(v is not None and math.isfinite(float(v)) for v in values)


# --- kernel_scan -------------------------------------------------------------

@dataclass
class _Density:
    spec: str
    measure: object
    exact: Callable[[int], float]
    # regular-variation model of the scan job; quadratic has no index in
    # (0, 2) (Var ~ 4 ln n), so its scan uses gamma = 0.5
    scan_gamma: float
    scan_K0: float


def _gauss_density(spec, measure, scan_gamma, scan_K0):
    """A density measure with no closed form; its reference is a Gauss-rule
    Fejer integral, computed on first use (so not during set-up)."""
    ref = refs.DensityReference(measure.density)
    return _Density(spec, measure, ref.variance, scan_gamma, scan_K0)


class KernelScan:
    """CLI jobs over density measures; n on both sides of the route switch."""

    name = "kernel_scan"
    # command -> (seeded n in [2**6, 2**10), fixed n, seeded n in (2**14, 2**15])
    # From 2**11 to 2**14 the kernel quadrature does most of the work and its
    # cost jumps by up to 3x between neighbouring n, and above 2**15 the
    # covariance route's cost grows with n; those n come from a fixed lattice
    # that every seed runs, so seeds move inputs but hardly the work.
    PLAN = {
        "variance": (4, (2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 16), 1),
        "bounds": (3, (2896, 5793, 11585), 1),
        "scan": (3, (2 ** 12, 2 ** 14, 2 ** 16), 1),
    }

    def build(self):
        table = sv.measure_from_json(TABLE_MEASURE.read_text())
        self.measures = {
            "power05": _gauss_density("gallery:power:gamma=0.5",
                                      sv.power_law(0.5), 0.5,
                                      1.0 / sv.c_gamma(0.5)),
            "power15": _gauss_density("gallery:power:gamma=1.5",
                                      sv.power_law(1.5), 1.5,
                                      1.0 / sv.c_gamma(1.5)),
            "quadratic": _Density("gallery:quadratic", sv.quadratic(),
                                  refs.quadratic, 0.5, 1.0),
            "whitenoise": _Density("gallery:whitenoise", sv.white_noise(),
                                   refs.whitenoise, 1.0, 1.0),
            "table": _gauss_density(f"file:{TABLE_MEASURE}", table, 1.0, 1.0),
        }
        for d in self.measures.values():  # warm-up: one small job per measure
            _run_cli(["variance", "--measure", d.spec, "--n", "5,17,40,64,100"])

    def _n_values(self, rng, cmd):
        low, fixed, high = self.PLAN[cmd]
        above = [max(n, KERNEL_QUAD_MAX_N + 1)
                 for n in _stratified_n(rng, high, 14, 15)]
        return sorted(_stratified_n(rng, low, 6, 10) + list(fixed) + above)

    def ops(self, seed):
        rng = random.Random(f"kernel_scan:{seed}")
        ops = []
        for key, d in self.measures.items():
            extra = {
                "variance": [],
                "bounds": ["--A", repr(round(0.5 + 3.5 * rng.random(), 3))],
                "scan": ["--gamma", repr(d.scan_gamma), "--K0", repr(d.scan_K0)],
            }
            for cmd in self.PLAN:
                ns = self._n_values(rng, cmd)
                n_arg = "--n-range" if cmd == "scan" else "--n"
                argv = [cmd, "--measure", d.spec, n_arg,
                        ",".join(map(str, ns))] + extra[cmd]
                ops.append(Op(f"{cmd} {key}", (lambda a=argv: _run_cli(a)),
                              self._checker(cmd, d, ns)))
        return ops

    def _checker(self, cmd, d, ns):
        exact = {n: d.exact(n) for n in ns}
        route = {n: sv.variance_covariance(d.measure, n) for n in ns}

        def check(result):
            out = Outcome()
            rc, text, err = result
            out.expect(rc == 0, f"exit {rc}: {err.strip()}")
            if rc != 0:
                return out
            header, rows = _csv_rows(text)
            out.expect([int(r[0]) for r in rows] == ns, "rows do not match n")
            if len(rows) != len(ns):
                return out
            col = header.index("variance")
            for row in rows:
                n, v = int(row[0]), float(row[col])
                out.expect(_finite(*row[1:]), f"non-finite row {row}")
                out.against_ref(v, exact[n], f"{cmd} n={n}")
                out.against_route(v, route[n], f"{cmd} n={n}")
                if cmd == "bounds":
                    lower, upper = float(row[1]), float(row[3])
                    scale = max(1.0, v)
                    out.expect(lower - v <= BRACKET_SLACK * scale
                               and v - upper <= BRACKET_SLACK * scale,
                               f"bracket violated at n={n}: {row}")
            out.var_evals = len(rows)
            out.counts["quadrature_route_n"] = sum(
                1 for n in ns if n <= KERNEL_QUAD_MAX_N)
            return out

        return check


# --- atomic_profile ----------------------------------------------------------

class AtomicProfile:
    """Library calls on atomic measures; the atom sums do the work."""

    name = "atomic_profile"
    # per measure: natural growth index and log2 of the n each op reaches
    # (None: op left out, so a pass has an odd number of ops and its median
    # op is not split between two op kinds).  variance_covariance of the
    # counterexample at 2**18 is a ROADMAP baseline case.  The seed takes n
    # just below 2**exp, by less than 2**(exp - 8), so the work per op
    # hardly moves with the seed.
    PLAN = {
        "counterexample": dict(gamma=1.0, scan=13, report=12, profile=14,
                               covariance=18, dichotomy=None),
        "nonergodic": dict(gamma=0.0, scan=13, report=12, profile=15,
                           covariance=16, dichotomy=18),
        "nonergodic+origin": dict(gamma=2.0, scan=13, report=12, profile=14,
                                  covariance=14, dichotomy=18),
    }
    QUADRATIC_PROFILE = 18
    SHIFT = 0     # added to every exponent (the self-test runs tiny sizes)
    SAMPLES = 16  # profile entries checked per profile-type op

    def build(self):
        self.base = {"counterexample": sv.counterexample(),
                     "nonergodic": sv.nonergodic()}
        self.quadratic = sv.quadratic()
        for m in self.base.values():  # warm-up at small n
            sv.variance_profile(m, 256)
            sv.variance_covariance(m, 256)
            sv.subsequence_scan(m, 1.0, 2, 8)

    def _below(self, rng, exp):
        exp += self.SHIFT
        return 2 ** exp - rng.randrange(2 ** max(exp - 8, 0))

    def ops(self, seed):
        rng = random.Random(f"atomic_profile:{seed}")
        origin = round(0.05 + 0.45 * rng.random(), 6)
        measures = dict(self.base)
        measures["nonergodic+origin"] = sv.with_origin_atom(
            self.base["nonergodic"], origin)
        ops = []
        for key, plan in self.PLAN.items():
            m = measures[key]
            ref = refs.AtomicReference(m.atom_at_zero, m.atoms)
            gamma = plan["gamma"]

            r1 = plan["scan"] + self.SHIFT
            r0 = rng.randint(2, min(6, r1 - 1))
            ops.append(Op(f"subsequence_scan {key}",
                          (lambda m=m, r0=r0, r1=r1, g=gamma:
                           sv.subsequence_scan(m, g, r0, r1)),
                          self._scan_check(ref, gamma, r0, r1, rng)))

            last = self._below(rng, plan["report"])
            subseq = [min(rng.randint(2, 16), last // 2)]
            while subseq[-1] * 4 < last:
                subseq.append(int(subseq[-1] * (1.5 + 2.5 * rng.random())))
            subseq.append(last)
            ops.append(Op(f"growth_bound_report {key}",
                          (lambda m=m, s=subseq, g=gamma:
                           sv.growth_bound_report(m, g, sv.SlowlyVarying.constant(), s)),
                          self._report_check(ref, gamma, subseq)))

            n = self._below(rng, plan["profile"])
            ops.append(Op(f"variance_profile {key}",
                          (lambda m=m, n=n: sv.variance_profile(m, n)),
                          self._profile_check(ref.variance, n, rng)))

            n = self._below(rng, plan["covariance"])
            ops.append(Op(f"variance_covariance {key}",
                          (lambda m=m, n=n: sv.variance_covariance(m, n)),
                          self._covariance_check(m, ref, n)))

            if plan["dichotomy"] is not None:
                grid = _stratified_n(rng, 12, 4, plan["dichotomy"] + self.SHIFT)
                ops.append(Op(f"dichotomy_check {key}",
                              (lambda m=m, g=grid: sv.dichotomy_check(m, g)),
                              self._dichotomy_check(ref, grid)))

        n = 2 ** (self.QUADRATIC_PROFILE + self.SHIFT)
        ops.append(Op("variance_profile quadratic",
                      (lambda: sv.variance_profile(self.quadratic, n)),
                      self._profile_check(refs.quadratic, n, rng)))
        return ops

    def _sample(self, rng, lo, hi):
        return sorted(set([lo, hi] + [rng.randint(lo, hi)
                                      for _ in range(self.SAMPLES)]))

    def _scan_check(self, ref, gamma, r0, r1, rng):
        dyadic = [ref.variance(2 ** r) / 2.0 ** (r * gamma)
                  for r in range(r0, r1 + 1)]
        picks = self._sample(rng, 2 ** r0, 2 ** r1)
        full = {n: ref.variance(n) / float(n) ** gamma for n in picks}

        def check(rep):
            out = Outcome()
            for r, v, want in zip(range(r0, r1 + 1), rep.dyadic_ratios, dyadic):
                out.against_ref(v, want, f"dyadic ratio r={r}")
            for n, want in full.items():
                out.against_ref(rep.full_ratios[n - 2 ** r0], want,
                                f"full ratio n={n}")
            out.expect(all(math.isfinite(o) and o >= 1.0 - 1e-12
                           for o in rep.octave_ratios), "octave ratio below 1")
            out.var_evals = out.profile_points = 2 ** r1
            return out

        return check

    def _report_check(self, ref, gamma, subseq):
        sub = [ref.variance(n) / float(n) ** gamma for n in subseq]
        gs = [ref.g(1.0 / n) / (1.0 / n) ** (2.0 - gamma) for n in subseq]
        kappa = max(b / a for a, b in zip(subseq, subseq[1:]))

        def check(rep):
            out = Outcome()
            out.against_ref(rep.subseq_sup, max(sub), "subseq_sup")
            out.against_ref(rep.subseq_inf, min(sub), "subseq_inf")
            out.against_ref(rep.g_sup, max(gs), "g_sup")
            out.against_ref(rep.g_inf, min(gs), "g_inf")
            out.expect(rep.kappa == kappa, f"kappa {rep.kappa} != {kappa}")
            out.expect(rep.filled_sup >= rep.subseq_sup * (1 - 1e-12)
                       and rep.filled_inf <= rep.subseq_inf * (1 + 1e-12),
                       "filled range does not contain the subsequence")
            out.var_evals = out.profile_points = subseq[-1]
            return out

        return check

    def _profile_check(self, exact, n, rng):
        picks = {k: exact(k) for k in self._sample(rng, 1, n)}

        def check(profile):
            out = Outcome()
            out.expect(len(profile) == n, f"profile length {len(profile)} != {n}")
            if len(profile) != n:
                return out
            out.expect(bool(np.isfinite(profile).all()), "non-finite profile")
            for k, want in picks.items():
                out.against_ref(profile[k - 1], want, f"profile n={k}")
            out.var_evals = out.profile_points = n
            return out

        return check

    def _covariance_check(self, m, ref, n):
        want = ref.variance(n)
        spectral = sv.variance_spectral(m, n)

        def check(value):
            out = Outcome()
            out.against_ref(value, want, f"variance_covariance n={n}")
            out.against_route(value, spectral, f"routes n={n}")
            out.var_evals = 1
            return out

        return check

    def _dichotomy_check(self, ref, grid):
        want = [ref.variance(n) / float(n) ** 2 for n in grid]

        def check(rep):
            out = Outcome()
            for n, v, w in zip(grid, rep.ratios, want):
                out.against_ref(v, w, f"Var/n^2 n={n}")
            out.expect(rep.matches_origin_atom,
                       f"limit {rep.limit_estimate} does not match the origin atom")
            out.var_evals = len(grid)
            return out

        return check


# --- monte_carlo -------------------------------------------------------------

class MonteCarlo:
    """``simulate --check-n`` jobs; circulant and Cholesky paths."""

    name = "monte_carlo"
    N = 4096
    PATHS = 1000
    # spec, exact reference kind; one simulate job each per pass
    JOBS = (("gallery:whitenoise", "whitenoise"),
            ("gallery:quadratic", "quadratic"),
            ("gallery:power:gamma=1.5", "density"),
            ("gallery:counterexample", "atomic"))

    def build(self):
        self.measures = {spec: cli.parse_measure(spec) for spec, _ in self.JOBS}
        for spec, _ in self.JOBS:  # warm-up: a short batch on each path
            _run_cli(["simulate", "--measure", spec, "--N", "64", "--paths",
                      "8", "--seed", "1", "--check-n", "4"])

    def ops(self, seed):
        rng = random.Random(f"monte_carlo:{seed}")
        top = min(8, self.N.bit_length() - 2)
        ops = []
        for spec, kind in self.JOBS:
            m = self.measures[spec]
            if kind == "whitenoise":
                exact = refs.whitenoise
            elif kind == "quadratic":
                exact = refs.quadratic
            elif kind == "atomic":
                exact = refs.AtomicReference(m.atom_at_zero, m.atoms).variance
            else:
                exact = refs.DensityReference(m.density).variance
            # two seeded n up to 2**8 and the full path length
            ns = _stratified_n(rng, 2, 1, top) + [self.N]
            argv = ["simulate", "--measure", spec, "--N", str(self.N),
                    "--paths", str(self.PATHS),
                    "--seed", str(rng.getrandbits(32)),
                    "--check-n", ",".join(map(str, ns))]
            ops.append(Op(f"simulate {spec.split(':', 1)[1]}",
                          (lambda a=argv: _run_cli(a)),
                          self._checker(m, exact, ns)))
        return ops

    def _checker(self, m, exact, ns):
        want = {n: exact(n) for n in ns}
        route = {n: sv.variance_covariance(m, n) for n in ns}

        def check(result):
            out = Outcome()
            rc, text, err = result
            out.expect(rc == 0, f"exit {rc}: {err.strip()}")
            if rc != 0:
                return out
            report = json.loads(text)
            checks = report["checks"]
            out.expect([c["n"] for c in checks] == ns, "checks do not match n")
            for c in checks:
                n, z = c["n"], c["z"]
                out.expect(z is not None and math.isfinite(z) and abs(z) <= Z_MAX,
                           f"n={n}: z={z} beyond {Z_MAX}")
                out.against_ref(c["spectral"], want[n], f"spectral n={n}")
                out.against_route(c["spectral"], route[n], f"routes n={n}")
            out.var_evals = len(checks)
            out.path_samples = report["N"] * report["paths"]
            out.counts[f"method.{report['method']}"] = 1
            return out

        return check


WORKLOADS = {w.name: w for w in (KernelScan, AtomicProfile, MonteCarlo)}
