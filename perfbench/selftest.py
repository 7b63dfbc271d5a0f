"""Harness self-test at tiny sizes: ``python3 perfbench/selftest.py``.

Runs every workload in-process at tiny sizes and checks that

* the result and report carry every metric named in BENCHMARK.json, with
  its unit, and the report carries all end-to-end metrics;
* the checks fire: wrong exact references, wrong covariance-route values and
  an impossible |z| bound each fail exactly the ops they should;
* the exact references agree with their literal definitions;
* a traced pass records nonzero layer counts exactly where the workload
  table predicts;
* run.py exits nonzero, printing no result, without the sources.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
import run as bench  # noqa: E402
import specvar as sv  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "kernel_scan": {"PLAN": {"variance": (2, (256,), 2),
                             "bounds": (1, (512,), 1),
                             "scan": (1, (), 1)}},
    "atomic_profile": {"SHIFT": -8, "SAMPLES": 4},
    "monte_carlo": {"N": 256, "PATHS": 200},
}

# ops that check against the other variance route, by workload; every op
# checks against an exact reference
ROUTE_OPS = {
    "kernel_scan": lambda name: True,
    "atomic_profile": lambda name: name.startswith("variance_covariance"),
    "monte_carlo": lambda name: True,
}

# traced layer counts: True = nonzero, False = zero, per workload
LAYER_TABLE = {
    "quadrature.integrate.calls": (True, False, True),
    "specfun.trig_power_moments.calls": (True, True, True),
    "specfun.trig_power_moments.small_x_points": (True, False, True),
    "spectral_measure.autocovariance_batch.calls": (False, True, True),
    "spectral_measure.autocovariance_batch.atom_lag_terms": (False, True, True),
    "spectral_measure.cos_transform.calls": (True, True, True),
    "spectral_measure.integrate_against.calls": (True, False, True),
    "spectral_measure.g_eval.calls": (True, True, True),
    "fejer_variance.variance_spectral.calls": (True, True, True),
    "fejer_variance.variance_spectral.cov_route_share": (True, False, False),
    "fejer_variance.variance_covariance.calls": (False, True, False),
    "fejer_variance.variance_profile.calls": (False, True, False),
    "fejer_variance.sandwich.calls": (True, False, False),
    "asymptotics.calls": (True, True, False),
    "cli.jobs": (True, False, True),
    "cli.worker_utilization": (True, False, True),
    "simulate.simulate.calls": (False, False, True),
    "simulate.ndtri.normals": (False, False, True),
    "simulate.fft.points": (False, False, True),
    "simulate.cholesky.calls": (False, False, True),
    "simulate.toeplitz.self_s": (False, False, True),
    "gallery.calls": (True, False, True),
}

FAILURES = []


def expect(ok, what):
    print(f"[selftest] {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny(name):
    cls = type(f"Tiny{name}", (workloads.WORKLOADS[name],), dict(TINY[name]))
    w = cls()
    w.build()
    return w


def failed_ops(w, seed=3):
    """Names of the ops that fail one pass (in process, untraced)."""
    ops = w.ops(seed)
    res = worker.measure(ops, 0.0)
    return {f["op"] for f in res["failures"]}, [op.name for op in ops]


def patched(*triples):
    """Replace attributes for a ``with`` block: ``patched((obj, "attr", value))``."""
    stack = contextlib.ExitStack()
    for obj, attr, value in triples:
        stack.enter_context(mock.patch.object(obj, attr, value))
    return stack


def off(fn):
    return lambda *a, **k: fn(*a, **k) * (1.0 + 1e-3)


def check_references():
    worst = max(abs(refs.quadratic(n) - refs.quadratic_fsum(n))
                / refs.quadratic(n) for n in (1, 2, 3, 10, 99, 1000, 4097))
    expect(worst < 1e-12, f"quadratic closed form matches fsum ({worst:.1e})")
    t, w, n = 0.7, 0.3, 123
    one = refs.AtomicReference(0.0, [(t, w)]).variance(n)
    closed = w * math.sin(n * t / 2) ** 2 / math.sin(t / 2) ** 2
    expect(abs(one - closed) <= 1e-13 * closed, "single-atom closed form")
    table = sv.measure_from_json(workloads.TABLE_MEASURE.read_text())
    worst = 0.0
    for m in (sv.power_law(0.5), sv.power_law(1.5), table, sv.quadratic()):
        ref = refs.DensityReference(m.density)
        for n in (1, 2, 7):
            want = _fejer_mpmath(m.density, n)
            worst = max(worst, abs(ref.variance(n) - want) / want)
    expect(worst < 1e-13, f"density references match mpmath quadrature ({worst:.1e})")


def _fejer_mpmath(density, n):
    """int f(y) I_n(y) dy by mpmath tanh-sinh, split at the kernel's half-arcs
    and the pieces' knots."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for piece in density:
            if hasattr(piece, "exponent"):
                f = (lambda y, c=piece.coef, p=piece.exponent: c * y ** p)
                knots = [piece.lo, piece.hi]
            else:
                f = (lambda y, ys=piece.ys, vs=piece.vals:
                     float(np.interp(float(y), ys, vs)))
                knots = list(piece.ys)
            lo, hi = knots[0], knots[-1]
            cuts = sorted(set(knots) | {k * math.pi / n for k in range(1, n)
                                        if lo < k * math.pi / n < hi})
            total += mpmath.quad(
                lambda y: f(y) * mpmath.sin(n * y / 2) ** 2 / mpmath.sin(y / 2) ** 2,
                cuts)
        return float(total)


def check_workload(index, name, benchmark):
    w = tiny(name)
    failed, names = failed_ops(w)
    expect(not failed, f"{name}: clean pass has no failures {sorted(failed)}")

    with patched((refs, "quadratic", off(refs.quadratic)),
                 (refs, "whitenoise", off(refs.whitenoise)),
                 (refs.AtomicReference, "variance",
                  off(refs.AtomicReference.variance)),
                 (refs.DensityReference, "variance",
                  off(refs.DensityReference.variance))):
        bad, _ = failed_ops(tiny(name))
    expect(bad == set(names), f"{name}: wrong exact references fail every op"
           + ("" if bad == set(names) else f", failed {sorted(bad)}"))

    with patched((sv, "variance_covariance", off(sv.variance_covariance))):
        bad, _ = failed_ops(w)
    want = {n for n in names if ROUTE_OPS[name](n)}
    expect(bad == want, f"{name}: wrong route values fail {sorted(want)}"
           + ("" if bad == want else f", failed {sorted(bad)}"))

    if name == "monte_carlo":
        with patched((workloads, "Z_MAX", 1e-9)):
            bad, _ = failed_ops(w)
        expect(bad == set(names), f"{name}: |z| bound fails every op"
               + ("" if bad == set(names) else f", failed {sorted(bad)}"))

    tracer = tracing.Tracer()
    ops = w.ops(5)
    run = worker.measure(ops, 0.0, tracer)
    layers = tracer.layer_metrics(len(run["pass_times"]), workers=2)
    wrong = [k for k, row in LAYER_TABLE.items()
             if (layers.get(k, 0.0) != 0.0) != row[index]]
    expect(not wrong, f"{name}: traced layer counts match the table {wrong}")

    run.update(import_s=0.1, build_s=0.1, env={},
               op_names=[op.name for op in ops])
    report, result = bench.render(name, 5, 0.0, [run], run)
    expect(set(report["end_to_end"]) == set(bench.E2E_UNITS),
           f"{name}: report carries all {len(bench.E2E_UNITS)} end-to-end metrics")
    metrics = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    expect({k: v["unit"] for k, v in result["metrics"].items()} == metrics,
           f"{name}: result carries the end_to_end metrics and units")
    traced = dict(run, layers=layers, spans=len(tracer.spans), spans_file="-")
    _, result = bench.render(name, 5, 0.0, [run], run, traced)
    layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    expect({k: v["unit"] for k, v in result["metrics"].items()} == layer_units,
           f"{name}: traced result carries the per_layer metrics and units")


def check_without_sources():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py without sources exits nonzero and prints no result")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_references()
    for index, name in enumerate(bench.WORKLOADS):
        check_workload(index, name, benchmark)
    check_without_sources()
    print(f"[selftest] {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
