"""One benchmark process, started fresh by run.py for each measurement.

Usage: worker.py --workload NAME --seed N [--seconds S] [--trace] [--setup-only]

Times ``import specvar`` (import_s) and the workload's measure construction
and warm-up (build_s).  With ``--setup-only`` it stops there.  Otherwise it
computes the references for the seeded ops (untimed), then runs whole passes
over the ops, one op in flight at a time, until ``--seconds`` have elapsed,
checking every result.  Before every op, and once after the last op of a
pass, it times a fixed reference loop that does not call specvar; a pass's
time divided by the mean reference-loop time in it is the pass cost in
reference loops, which moves far less than wall time with the speed of a
shared host.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def ref_loop():
    """Time a fixed mix of the three kinds of work specvar does: interpreted
    integer arithmetic, float64 numpy arithmetic and long double numpy
    arithmetic, about 2 ms on a 2-vCPU cloud host.  It touches no specvar
    code, so a change to the program cannot move it; it samples how fast
    the host runs at that moment."""
    import numpy as np

    x = np.linspace(0.1, 3.0, 4096)
    xl = x[:1024].astype(np.longdouble)
    t = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i
    for _ in range(4):
        y = np.sin(x * 7.3) / np.sin(x * 0.5)
        y = y * y
        float(y.sum())
    for _ in range(2):
        y = np.sin(xl * 7.3) / np.sin(xl * 0.5)
        float(y.sum())
    return time.perf_counter() - t


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ld = np.finfo(np.longdouble)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "longdouble": {"precision": int(ld.precision), "nmant": int(ld.nmant),
                       "eps": float(ld.eps)},
        "threads": {k: os.environ.get(k) for k in
                    ("SPECVAR_THREADS", "OPENBLAS_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(ops, seconds, tracer=None):
    """One untimed warm-up pass, then timed passes until ``seconds`` elapse.

    The warm-up pass lets first-touch costs (BLAS buffers, the first large
    allocations) land outside the timed passes.  Every timed op's result is
    checked; a raised error or a failed check counts the op as failed.
    """
    for op in ops:
        ref_loop()
        try:
            op.call()
        except Exception:  # the timed passes count and report it
            pass
    if tracer:
        tracer.install()
    try:
        return _closed_loop(ops, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()


def _closed_loop(ops, seconds, tracer):
    latencies, pass_times, pass_refs, ref_times, failures = [], [], [], [], []
    totals = {"var_evals": 0, "profile_points": 0, "path_samples": 0}
    counts = {}
    ref_digits, route_digits = [], []
    start = time.perf_counter()
    while True:
        pass_s, refs_s = 0.0, []
        for i, op in enumerate(ops):
            refs_s.append(ref_loop())
            handle = tracer.begin_op(i, op.name) if tracer else None
            t = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raised error is a failed op
                result, error = None, exc
            dt = time.perf_counter() - t
            if tracer:
                tracer.end_op(handle)
            latencies.append(dt)
            pass_s += dt
            if error is not None:
                failures.append({"op": op.name,
                                 "why": f"{type(error).__name__}: {error}"})
                continue
            try:
                outcome = op.check(result)
            except Exception as exc:  # an unreadable result fails its op
                failures.append({"op": op.name, "why": "check raised "
                                 f"{type(exc).__name__}: {exc}"})
                continue
            if outcome.failures:
                failures.append({"op": op.name,
                                 "why": "; ".join(outcome.failures[:3])})
            ref_digits.extend(outcome.ref_digits)
            route_digits.extend(outcome.route_digits)
            for key in totals:
                totals[key] += getattr(outcome, key)
            for key, value in outcome.counts.items():
                counts[key] = counts.get(key, 0) + value
        refs_s.append(ref_loop())
        ref_mean = sum(refs_s) / len(refs_s)
        pass_times.append(pass_s)
        ref_times.append(ref_mean)
        pass_refs.append(pass_s / ref_mean)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "pass_times": pass_times,
        "pass_refs": pass_refs,
        "ref_times": ref_times,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "ref_digits": min(ref_digits, default=None),
        "route_digits": min(route_digits, default=None),
        "totals": totals,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import specvar  # noqa: F401
    import specvar.cli  # noqa: F401
    import_s = time.perf_counter() - t

    import workloads  # the benchmark's own imports (mpmath) stay out of set-up

    workload = workloads.WORKLOADS[args.workload]()
    t = time.perf_counter()
    workload.build()
    build_s = time.perf_counter() - t
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0

    ops = workload.ops(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = measure(ops, args.seconds, tracer)
    result.update(import_s=import_s, build_s=build_s, env=_environment(),
                  op_names=[op.name for op in ops])
    if tracer:
        result["layers"] = tracer.layer_metrics(len(result["pass_times"]),
                                                specvar.cli._workers())
        result["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.dump(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
