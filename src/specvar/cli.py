"""Command-line front end.

All subcommands are reproducible batch jobs: fixed float formatting
(shortest round-trip repr), newline line endings, and deterministic row
order make identical invocations byte-identical.  Exit codes: 0 success,
1 usage or validation problem, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import gallery
from .asymptotics import (RegularVariationModel, SlowlyVarying,
                          c_gamma, c_identity_residual, d_gamma, gamma_fit,
                          theorem_check)
from .errors import NumericError, SpecvarError, ValidationError
from .fejer_variance import BoundsReport, _sandwich_rows, _variance_rows
from .simulate import _check_n, _moments, _path_blocks
from .spectral_measure import measure_from_dict


def _fmt(x) -> str:
    return repr(float(x))


def _workers() -> int:
    # rows run in order, one thread; perfbench/worker.py reads this in
    # traced runs
    return 1


# the most rows one --n or --n-range spec may ask for
MAX_ROWS = 2 ** 16


def _check_rows(count: int, text: str) -> None:
    if count > MAX_ROWS:
        raise ValidationError(
            f"{text!r} asks for {count} rows; at most {MAX_ROWS} are allowed")


def parse_n_values(text: str):
    """Parse ``1,2,4`` lists, ``a:b[:step]`` inclusive ranges and
    ``dyadic:r0:r1`` shorthand for 2**r0 .. 2**r1 (r1 <= 62), at most
    MAX_ROWS values; a range's row count is checked before any row is
    made."""
    text = text.strip()
    if text.startswith("dyadic:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad dyadic range {text!r} (use dyadic:r0:r1)")
        r0, r1 = int(parts[1]), int(parts[2])
        if r0 > r1 or r0 < 0:
            raise ValidationError(f"bad dyadic range {text!r}")
        _check_rows(r1 - r0 + 1, text)
        if r1 > 62:  # every n is below 2**63
            raise ValidationError(f"bad dyadic range {text!r}: r1 must be <= 62")
        return [2 ** r for r in range(r0, r1 + 1)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValidationError(f"bad range {text!r} (use a:b or a:b:step)")
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or b < a:
            raise ValidationError(f"bad range {text!r}")
        _check_rows((b - a) // step + 1, text)
        return list(range(a, b + 1, step))
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad n list {text!r}")
    if not values or any(v < 1 for v in values):
        raise ValidationError(f"n values must be positive integers, got {text!r}")
    _check_rows(len(values), text)
    return values


def parse_measure(spec: str):
    """``gallery:<name>[:k=v,...]`` or ``file:<path.json>``."""
    if spec.startswith("gallery:"):
        rest = spec[len("gallery:"):]
        if not rest:
            raise ValidationError("empty gallery measure name")
        name, _, params_text = rest.partition(":")
        params = {}
        if params_text:
            for item in params_text.split(","):
                if "=" not in item:
                    raise ValidationError(
                        f"bad gallery parameter {item!r} (use k=v)")
                key, _, value = item.partition("=")
                params[key.strip()] = value.strip()
        return gallery.build(name, **params)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON: {exc}")
        return measure_from_dict(data)
    raise ValidationError(
        f"bad measure spec {spec!r} (use gallery:<name>[:k=v,...] or file:<path>)")


def _parse_slowly_varying(text: str) -> SlowlyVarying:
    if text == "const":
        return SlowlyVarying.constant()
    if text.startswith("logpow:"):
        return SlowlyVarying.log_power(float(text.split(":", 1)[1]))
    raise ValidationError(f"bad slowly varying spec {text!r} "
                          "(use const or logpow:<a>)")


def _cmd_variance(args, out):
    m = parse_measure(args.measure)
    ns = parse_n_values(args.n)
    rows = _variance_rows(m, ns)
    out.write("n,variance\n")
    for n, v in zip(ns, rows):
        out.write(f"{n},{_fmt(v)}\n")
    return 0


def _cmd_bounds(args, out):
    m = parse_measure(args.measure)
    ns = parse_n_values(args.n)
    out.write(BoundsReport.rows_to_csv(_sandwich_rows(m, ns, args.A)))
    return 0


def _cmd_scan(args, out):
    m = parse_measure(args.measure)
    model = RegularVariationModel(gamma=args.gamma, K0=args.K0,
                                  L=_parse_slowly_varying(args.L))
    ns = parse_n_values(args.n_range)
    report = theorem_check(m, model, ns, tol=args.tol)
    out.write(report.to_csv())
    return 0


def _cmd_constants(args, out):
    gammas = [float(tok) for tok in args.gamma.split(",") if tok.strip()]
    if not gammas:
        raise ValidationError("no gamma values given")
    rows = [(c_gamma(g), d_gamma(g), c_identity_residual(g)) for g in gammas]
    out.write("gamma,C,D,quad_identity_residual\n")
    for g, (c, d, resid) in zip(gammas, rows):
        out.write(f"{_fmt(g)},{_fmt(c)},{_fmt(d)},{_fmt(resid)}\n")
    return 0


def _cmd_estimate(args, out):
    with open(args.input, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "n,variance":
        raise ValidationError(f"{args.input}: expected header 'n,variance'")
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise ValidationError(f"{args.input}: bad row {ln!r}")
        points.append((int(cells[0]), float(cells[1])))
    fit = gamma_fit(points)
    out.write(json.dumps({"K0_hat": fit.K0_hat, "gamma_hat": fit.gamma_hat,
                          "residual": fit.residual}, sort_keys=True) + "\n")
    return 0


def _cmd_simulate(args, out):
    # the paths come one block at a time: the job keeps each block's S_n
    # for every check n, P floats each, and never the P x N batch
    m = parse_measure(args.measure)
    method, min_eig, jitter, blocks = _path_blocks(m, args.N, args.paths,
                                                   args.seed)
    ns = parse_n_values(args.check_n) if args.check_n else []
    for n in ns:
        _check_n(n, args.N)
    sums = [[] for _ in ns]
    with contextlib.ExitStack() as stack:
        fh = None
        if args.csv_out:
            fh = stack.enter_context(
                open(args.csv_out, "w", encoding="utf-8", newline="\n"))
            fh.write("path,t,value\n")
        for p0, rows in blocks:
            for n, s in zip(ns, sums):
                s.append(rows[:, :n].sum(axis=1))
            if fh is not None:
                for p, row in enumerate(rows, p0):
                    fh.write("".join(f"{p},{t},{v!r}\n"
                                     for t, v in enumerate(row.tolist())))
    report = {
        "N": args.N,
        "paths": args.paths,
        "seed": args.seed,
        "method": method,
        "embedding_min_eigenvalue": min_eig,
        "jitter": jitter,
        "checks": [],
    }
    if ns:
        empirical = [_moments(np.concatenate(s)) for s in sums]
        for n, (est, se), spectral in zip(ns, empirical,
                                          _variance_rows(m, ns)):
            z = (est - spectral) / se if np.isfinite(se) and se > 0 else None
            report["checks"].append({
                "n": n, "empirical": est, "standard_error": se,
                "spectral": spectral, "z": z})
    out.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_gallery(args, out):
    if args.action != "list":
        raise ValidationError(f"unknown gallery action {args.action!r}")
    for name in sorted(gallery.GALLERY):
        out.write(f"{name}: {gallery.GALLERY[name][1]}\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it:
    ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="specvar",
        description="Spectral-measure computations for variances of partial "
                    "sums of stationary sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("variance", help="Var(S_n) over a list of n")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", required=True)
    p.set_defaults(fn=_cmd_variance)

    p = sub.add_parser("bounds", help="bracketing bounds for Var(S_n)")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--A", type=float, default=1.0)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("scan", help="regular-variation ratio scan")
    p.add_argument("--measure", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--K0", type=float, default=1.0)
    p.add_argument("--L", default="const")
    p.add_argument("--n-range", dest="n_range", required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("constants", help="C, D and the quadrature identity")
    p.add_argument("--gamma", required=True)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("estimate", help="fit growth index from n,variance CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="exact Gaussian path batch")
    p.add_argument("--measure", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check-n", dest="check_n", default="")
    p.add_argument("--csv-out", dest="csv_out", default="")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gallery", help="named example measures")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_gallery)

    return parser


def run(argv, out=None, err=None) -> int:
    """Run one CLI invocation; returns the exit code.

    out and err default to sys.stdout and sys.stderr at the call.  argparse's
    usage, error and help text go to them too: it writes to sys.stdout and
    sys.stderr, which are pointed at out and err while it parses.  The
    parser is built once per process (``build_parser``) and reused.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args, out)
    except NumericError as exc:
        print(f"specvar: numeric failure: {exc}", file=err)
        return 2
    except (SpecvarError, ValueError) as exc:
        print(f"specvar: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"specvar: i/o error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
