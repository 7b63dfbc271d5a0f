import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import run_cli
from specvar import (ScanReport, SpectralMeasure, TableDensity,
                     ValidationError, measure_to_json, quadratic)
from specvar.cli import MAX_ROWS, parse_n_values

PI = math.pi


def test_variance_whitenoise_rows():
    rc, out, err = run_cli(["variance", "--measure", "gallery:whitenoise",
                            "--n", "1,2,4"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,variance"
    for line, n in zip(lines[1:], (1, 2, 4)):
        tag, value = line.split(",")
        assert int(tag) == n
        assert float(value) == pytest.approx(n, rel=1e-12)


def test_variance_range_syntax():
    rc, out, _ = run_cli(["variance", "--measure", "gallery:whitenoise",
                          "--n", "2:10:4"])
    assert rc == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == ["2", "6", "10"]
    rc, out, _ = run_cli(["variance", "--measure", "gallery:whitenoise",
                          "--n", "dyadic:2:4"])
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == ["4", "8", "16"]


def test_constants_row():
    rc, out, _ = run_cli(["constants", "--gamma", "1"])
    assert rc == 0
    header, row = out.splitlines()
    assert header == "gamma,C,D,quad_identity_residual"
    cells = row.split(",")
    assert float(cells[1]) == pytest.approx(1.0 / PI, abs=1e-12)
    assert float(cells[2]) == pytest.approx(2.0 / PI, abs=1e-12)
    assert float(cells[3]) < 1e-10


def test_bounds_rows_bracket():
    rc, out, _ = run_cli(["bounds", "--measure", "gallery:quadratic",
                          "--n", "4,16,64", "--A", "2"])
    assert rc == 0
    for line in out.splitlines()[1:]:
        n, lower, var, upper = line.split(",")
        assert float(lower) <= float(var) <= float(upper)


def test_bounds_csv_roundtrip():
    from specvar import BoundsReport
    rc, out, _ = run_cli(["bounds", "--measure", "gallery:counterexample",
                          "--n", "8,64,512", "--A", "2"])
    rows = BoundsReport.rows_from_csv(out, A=2.0)
    assert BoundsReport.rows_to_csv(rows) == out
    assert [r.n for r in rows] == [8, 64, 512]


def test_scan_counterexample_dyadic():
    rc, out, _ = run_cli(["scan", "--measure", "gallery:counterexample",
                          "--gamma", "1", "--n-range", "dyadic:10:18"])
    assert rc == 0
    rows = ScanReport.rows_from_csv(out)
    ratios = [r.var_ratio for r in rows]
    tail = [abs(b - a) for a, b, row in zip(ratios, ratios[1:], rows)
            if row.n >= 2 ** 12]
    assert max(tail) < 1e-3


def test_scan_parses_back_losslessly():
    rc, out, _ = run_cli(["scan", "--measure", "gallery:power:gamma=0.5",
                          "--gamma", "0.5", "--K0", "7.519884823893",
                          "--n-range", "dyadic:4:10"])
    assert rc == 0
    rows = ScanReport.rows_from_csv(out)
    rebuilt = "n,variance,g_n,var_ratio,x,G_x,g_ratio\n" + "\n".join(
        ",".join([str(r.n)] + [repr(float(getattr(r, c)))
                               for c in ("variance", "g_n", "var_ratio", "x",
                                         "G_x", "g_ratio")])
        for r in rows) + "\n"
    assert rebuilt == out


def test_estimate_roundtrip(tmp_path):
    rc, out, _ = run_cli(["variance", "--measure", "gallery:whitenoise",
                          "--n", "dyadic:4:10"])
    csv_path = tmp_path / "scan.csv"
    csv_path.write_text(out)
    rc, out2, _ = run_cli(["estimate", "--input", str(csv_path)])
    assert rc == 0
    result = json.loads(out2)
    assert result["gamma_hat"] == pytest.approx(1.0, abs=1e-9)
    assert result["K0_hat"] == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_estimate_nonfinite_variance_exits_1(tmp_path, bad):
    # used to print {"K0_hat": NaN, ...}, which is not JSON, and exit 0
    csv_path = tmp_path / "scan.csv"
    csv_path.write_text(f"n,variance\n2,{bad}\n4,2.0\n8,4.0\n")
    rc, out, err = run_cli(["estimate", "--input", str(csv_path)])
    assert rc == 1 and out == ""
    assert "finite" in err


def test_measure_file_loading(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(measure_to_json(quadratic()))
    rc, out, _ = run_cli(["variance", "--measure", f"file:{path}", "--n", "2"])
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        2.0 * PI ** 2 - 8.0, rel=1e-10)


def test_gallery_list():
    rc, out, _ = run_cli(["gallery", "list"])
    assert rc == 0
    names = [ln.split(":")[0] for ln in out.splitlines()]
    assert names == sorted(["counterexample", "nonergodic", "power",
                            "quadratic", "whitenoise"])


def test_simulate_json_and_csv(tmp_path):
    csv_path = tmp_path / "paths.csv"
    rc, out, _ = run_cli(["simulate", "--measure", "gallery:whitenoise",
                          "--N", "64", "--paths", "5", "--seed", "42",
                          "--check-n", "16", "--csv-out", str(csv_path)])
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "circulant"
    assert report["jitter"] == 0.0
    assert report["paths"] == 5 and report["N"] == 64
    check = report["checks"][0]
    assert check["n"] == 16
    assert check["spectral"] == pytest.approx(16.0, rel=1e-12)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "path,t,value"
    assert len(lines) == 1 + 5 * 64


def test_exit_code_usage_error():
    rc, out, err = run_cli(["variance", "--measure", "gallery:whitenoise"])
    assert rc == 1
    rc, out, err = run_cli(["variance", "--measure", "nonsense:x", "--n", "1"])
    assert rc == 1 and "measure spec" in err


def test_exit_code_validation_error():
    rc, _, err = run_cli(["variance", "--measure", "gallery:power",
                          "--n", "1"])  # gamma missing
    assert rc == 1
    rc, _, err = run_cli(["bounds", "--measure", "gallery:whitenoise",
                          "--n", "4", "--A", "9"])  # A > n
    assert rc == 1


@pytest.mark.parametrize("spec", [
    "1:1000000000000", "1:1000000000000000000000000000000:3",
    "dyadic:0:1000000000000", f"1:{MAX_ROWS + 1}",
    f"1:{2 * MAX_ROWS + 1}:2",
])
def test_row_count_capped_before_any_row_is_made(spec):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="rows"):
            parse_n_values(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    rc, out, err = run_cli(["variance", "--measure", "gallery:whitenoise",
                            "--n", spec])
    assert rc == 1 and out == "" and "rows" in err


def test_row_count_cap_is_inclusive():
    assert len(parse_n_values(f"1:{MAX_ROWS}")) == MAX_ROWS
    assert len(parse_n_values(f"1:{2 * MAX_ROWS}:2")) == MAX_ROWS


@pytest.mark.parametrize("spec", ["dyadic:0:63", "dyadic:60:16383"])
def test_dyadic_exponent_capped_before_any_row_is_made(spec):
    # no n >= 2**63 is accepted downstream
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="r1 must be <= 62"):
            parse_n_values(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    rc, out, err = run_cli(["variance", "--measure", "gallery:whitenoise",
                            "--n", spec])
    assert rc == 1 and out == "" and "r1" in err
    assert parse_n_values("dyadic:61:62") == [2 ** 61, 2 ** 62]


def test_exit_code_io_error():
    rc, _, err = run_cli(["variance", "--measure", "file:/nope/missing.json",
                          "--n", "1"])
    assert rc == 3


def test_exit_code_numeric_error(tmp_path):
    # a flat density on (0, 0.3] has an indefinite circulant embedding, and
    # N = 8192 is beyond the dense fallback
    path = tmp_path / "flat.json"
    path.write_text(measure_to_json(SpectralMeasure(
        density=(TableDensity((0.0, 0.3), (1.0, 1.0)),))))
    rc, _, err = run_cli(["simulate", "--measure", f"file:{path}",
                          "--N", "8192", "--paths", "1", "--seed", "1"])
    assert rc == 2


def test_invalid_measure_json_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"atom_at_zero": -2}')
    rc, _, err = run_cli(["variance", "--measure", f"file:{path}", "--n", "1"])
    assert rc == 1


def test_byte_identical_repeat_runs():
    invocations = [
        ["variance", "--measure", "gallery:counterexample", "--n", "1,3,9,27"],
        ["bounds", "--measure", "gallery:power:gamma=1.5", "--n", "8,64", "--A", "1"],
        ["scan", "--measure", "gallery:whitenoise", "--gamma", "1",
         "--n-range", "dyadic:3:9"],
        ["constants", "--gamma", "0.25,0.5,1,1.5,1.75"],
        ["simulate", "--measure", "gallery:quadratic", "--N", "128",
         "--paths", "8", "--seed", "9", "--check-n", "16,64"],
        ["gallery", "list"],
    ]
    for argv in invocations:
        rc1, out1, _ = run_cli(argv)
        rc2, out2, _ = run_cli(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2, argv


def _variance_n(spec):
    return ["variance", "--measure", "gallery:whitenoise", "--n", spec]


def _scan_l(spec):
    return ["scan", "--measure", "gallery:whitenoise", "--gamma", "1",
            "--L", spec, "--n-range", "2:4"]


@pytest.mark.parametrize("argv", [
    _variance_n("dyadic:1"), _variance_n("dyadic:3:1"),
    _variance_n("dyadic:-1:2"), _variance_n("dyadic:a:4"),
    _variance_n("1:2:3:4"), _variance_n("5:1"), _variance_n("1:5:0"),
    _variance_n("x:5"), _variance_n("1,2.5"),
    ["variance", "--measure", "gallery:", "--n", "1"],
    ["variance", "--measure", "gallery:power:gamma", "--n", "1"],
    _scan_l("weird"), _scan_l("logpow:x"),
    ["constants", "--gamma", ","],
], ids=["dyadic-parts", "dyadic-order", "dyadic-negative", "dyadic-int",
        "range-parts", "range-order", "range-step", "range-int", "n-list",
        "gallery-empty", "gallery-param", "L-spec", "L-logpow",
        "gamma-empty"])
def test_bad_input_exits_1_with_empty_stdout(argv):
    rc, out, err = run_cli(argv)
    assert rc == 1 and out == "" and err.startswith("specvar: ")


@pytest.mark.parametrize("command, text", [
    ("variance", "{not json"),
    ("estimate", "n,var\n2,1.0\n"),
    ("estimate", "n,variance\n2,1.0,3.0\n"),
    ("estimate", "n,variance\nx,1.0\n"),
], ids=["measure-json", "estimate-header", "estimate-row-cells",
        "estimate-row-int"])
def test_bad_input_file_exits_1_with_empty_stdout(tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    argv = (["variance", "--measure", f"file:{path}", "--n", "1"]
            if command == "variance" else ["estimate", "--input", str(path)])
    rc, out, err = run_cli(argv)
    assert rc == 1 and out == "" and err.startswith("specvar: ")


_SCIPY_FREE_JOBS = [
    [job, "--measure", measure, *rest]
    for measure, gamma in (("gallery:power:gamma=1.5", "1.5"),
                           ("gallery:quadratic", "1"))
    for job, rest in (
        ("variance", ["--n", "1,64,100000"]),
        ("bounds", ["--n", "4,64,100000", "--A", "2"]),
        ("scan", ["--gamma", gamma, "--n-range", "dyadic:2:18"]))] + [
    ["simulate", "--measure", measure, "--N", "256", "--paths", "8",
     "--seed", "3", "--check-n", "1,16,256"]
    for measure in ("gallery:power:gamma=1.5", "gallery:counterexample")]

_SCIPY_PATH_SCRIPT = """
import io, sys
def scipy_loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
import specvar, specvar.cli
assert scipy_loaded() == [], scipy_loaded()
for argv in JOBS:
    rc = specvar.cli.run(argv, out=io.StringIO(), err=sys.stderr)
    assert rc == 0, argv
assert scipy_loaded() == [], scipy_loaded()
m = specvar.SpectralMeasure(density=(
    specvar.TableDensity((0.0, 1.0, 3.0), (2.0, 0.5, 1.0)),))
for n in (1, 64, 2 ** 20):
    specvar.variance_spectral(m, n)
assert scipy_loaded() == [], scipy_loaded()
specvar.simulate(specvar.power_law(1.5), 64, 2, 1)
assert scipy_loaded() == [], scipy_loaded()
"""

_SCIPY_BLOCKED_SCRIPT = """
import io, sys
sys.modules["scipy"] = None  # any import of scipy now fails
import specvar.cli
for argv in JOBS:
    rc = specvar.cli.run(argv, out=io.StringIO(), err=sys.stderr)
    assert rc == 0, argv
"""


@pytest.mark.parametrize("script", [_SCIPY_PATH_SCRIPT, _SCIPY_BLOCKED_SCRIPT],
                         ids=["scipy-unloaded", "scipy-blocked"])
def test_no_scipy_on_any_path(script):
    # a fresh interpreter, since this one has long imported scipy
    import specvar
    src = str(Path(specvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = f"JOBS = {_SCIPY_FREE_JOBS!r}\n{script}"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
