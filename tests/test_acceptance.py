"""Acceptance suite.

Each test checks one numbered criterion end to end at its stated tolerance
and prints one `[acceptance] ... PASS/FAIL` line (visible under `pytest -s`).

C6b tests the nonergodic measure's 10x separation between its full-sequence
and dyadic variance maxima at n <= 2**26, a horizon where that separation
is reached; at n <= 2**18 it provably cannot exceed ~9.9x.  The
full-sequence side is an alternating-bit witness, tied to the exact maximum
of the 2**18 profile and cross-checked against an independent atom sum.
See the test body for the numbers.
"""

import math
import time

import numpy as np

from conftest import atomic_variance_oracle, run_cli
from specvar import (c_gamma, c_identity_residual, counterexample, d_gamma,
                     empirical_variance, g_eval, nonergodic, power_law,
                     quadratic, robinson_integral, sandwich, simulate,
                     variance_covariance, variance_profile, variance_spectral,
                     white_noise, with_origin_atom)

PI = math.pi

ORACLE_GRID = list(range(1, 65)) + [2 ** r for r in range(7, 19)]

GALLERY = {
    "whitenoise": (white_noise(), "density"),
    "power05": (power_law(0.5), "density"),
    "quadratic": (quadratic(), "density"),
    "counterexample": (counterexample(), "atomic"),
    "nonergodic": (nonergodic(), "atomic"),
}

MC_SEEDS = (20260808, 987654321)


def _gate(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_c1_oracle_equivalence():
    """Spectral and covariance routes agree on every gallery measure."""
    t0 = time.time()
    worst = {"atomic": 0.0, "density": 0.0}
    for name, (m, kind) in GALLERY.items():
        for n in ORACLE_GRID:
            a = variance_spectral(m, n)
            b = variance_covariance(m, n)
            worst[kind] = max(worst[kind], abs(a - b) / max(1.0, abs(a)))
    elapsed = time.time() - t0
    ok = (worst["atomic"] <= 1e-9 and worst["density"] <= 1e-6
          and elapsed <= 120.0)
    _gate("C1 oracle equivalence", ok,
          f"atomic {worst['atomic']:.2e} <= 1e-9, "
          f"density {worst['density']:.2e} <= 1e-6, {elapsed:.1f}s <= 120s")


def test_c2_sandwich_bracketing():
    """lower <= Var <= upper for A in {1, 2, 8} across the gallery."""
    worst_slack = 0.0
    for name, (m, _) in GALLERY.items():
        for A in (1.0, 2.0, 8.0):
            for n in ORACLE_GRID:
                if A > n:
                    continue
                rep = sandwich(m, n, A=A)
                scale = max(1.0, rep.variance)
                worst_slack = max(worst_slack,
                                  (rep.lower - rep.variance) / scale,
                                  (rep.variance - rep.upper) / scale)
    _gate("C2 sandwich bracketing", worst_slack <= 1e-9,
          f"worst relative bracket violation {worst_slack:.2e} <= 1e-9")


def test_c3_power_law_growth():
    """Var(S_n)/n^gamma approaches scale/C(gamma); white noise is exact."""
    ok = True
    details = []
    for gamma in (0.5, 1.0, 1.5):
        m = power_law(gamma)
        target = 1.0 / c_gamma(gamma)
        devs = []
        for r in (10, 12, 14, 16):
            v = variance_spectral(m, 2 ** r)
            devs.append(abs(v / 2 ** (r * gamma) / target - 1.0))
        # deviations at the float floor count as zero for the trend check
        clipped = [0.0 if d < 1e-12 else d for d in devs]
        monotone = all(b <= a for a, b in zip(clipped, clipped[1:]))
        ok = ok and devs[-1] <= 0.05 and monotone
        details.append(f"g={gamma}: dev(2^16)={devs[-1]:.2e}, "
                       f"non-increasing={monotone}")
    wn = white_noise()
    wn_worst = max(abs(variance_spectral(wn, n) / n - 1.0)
                   for n in ORACLE_GRID)
    ok = ok and wn_worst <= 1e-12
    details.append(f"whitenoise worst |Var/n - 1| = {wn_worst:.2e} <= 1e-12")
    _gate("C3 regular-variation growth", ok, "; ".join(details))


def test_c4_constant_identities():
    """Quadrature identity, C-D identity and the exact value C(1) = 1/pi."""
    worst_quad = max(c_identity_residual(g) for g in (0.25, 0.5, 1.0, 1.5, 1.75))
    rng = np.random.default_rng(20260808)
    worst_cd = max(
        abs(c_gamma(g) - (g / (2.0 - g)) * 2.0 ** (g - 2.0) * d_gamma(g))
        for g in rng.uniform(0.01, 1.99, size=50))
    c1_err = abs(c_gamma(1.0) - 1.0 / PI)
    ok = worst_quad <= 1e-8 and worst_cd <= 1e-12 and c1_err <= 1e-12
    _gate("C4 constant identities", ok,
          f"quad {worst_quad:.2e} <= 1e-8, C-D {worst_cd:.2e} <= 1e-12, "
          f"|C(1)-1/pi| {c1_err:.2e} <= 1e-12")


def test_c5_dyadic_vs_full_sequence():
    """Dyadic column settles while Var(S_n)/n keeps oscillating."""
    t0 = time.time()
    m = counterexample()
    v18 = variance_spectral(m, 2 ** 18) / 2 ** 18
    v24 = variance_spectral(m, 2 ** 24) / 2 ** 24
    dyadic_gap = abs(v18 - v24)

    profile = variance_profile(m, 2 ** 13)
    window = np.arange(2 ** 12, 2 ** 13 + 1)
    ratios = profile[2 ** 12 - 1:] / window
    spread = float(ratios.max() - ratios.min())
    elapsed = time.time() - t0
    ok = dyadic_gap < 1e-3 and spread >= 0.01 and elapsed <= 60.0
    _gate("C5 dyadic convergence vs full-sequence oscillation", ok,
          f"|v(18)-v(24)|={dyadic_gap:.2e} < 1e-3, window spread "
          f"{spread:.3f} >= 0.01, {elapsed:.1f}s <= 60s")


def test_c6a_quadratic_log_band():
    """Var(S_n) - 4 ln n stays in a narrow band with no terminal trend."""
    profile = variance_profile(quadratic(), 2 ** 14)
    n = np.arange(2, 2 ** 14 + 1)
    dev = profile[1:] - 4.0 * np.log(n)
    width = float(dev.max() - dev.min())
    tail = dev[n >= 2 ** 12]
    diffs = np.diff(tail)
    trendless = bool((diffs > 0).any() and (diffs < 0).any())
    ok = width <= 2.0 and trendless
    _gate("C6a quadratic: Var - 4 ln n band", ok,
          f"band width {width:.4f} <= 2, no monotone trend "
          f"in last two octaves: {trendless}")


def test_c6b_nonergodic_growth_witness():
    """Bounded dyadic maxima against full-sequence growth (target 10x).

    Why not n <= 2**18: for n <= 2**18 only atoms with k <= 19 can resonate,
    so Var(S_n) <= sum_{k=2}^{19} 4^-k/sin^2(pi 2^-k) + 1/12 < 1.94, while
    10x the dyadic maximum is 1.9855.  The 2**18 maximum is 1.4364, at the
    alternating-bit n = 174762 (binary 1010...10), a 7.23x separation.

    So the 10x is checked at n <= 2**26, where the maximum grows like
    0.076 log2(n).  A full profile to 2**26 is too slow, and the
    alternating-bit witnesses n_r = int(("10" * r)[:r], 2) < 2**r give the
    lower bound on the supremum instead:
      1. the 2**18 profile peaks exactly at the 18-bit witness;
      2. Var(S_{n_r}) rises strictly for r = 18, 20, ..., 26
         (1.4364, 1.5884, 1.7404, 1.8924, 2.0444), each value matching an
         independent atom sum;
      3. max_{j<=26} Var(S_{2^j}) = max_{j<=18} Var(S_{2^j}) = 0.198546;
      4. Var(S_{44739242}) / dyadic max = 10.30 >= 10 (the 25-bit witness
         gives only 9.74, so the gate can still fail).
    """
    m = nonergodic()
    dyadic = [variance_spectral(m, 2 ** j) for j in range(0, 27)]
    dyadic_max = max(dyadic[:19])
    dyadic_bounded = max(dyadic[19:]) <= dyadic_max

    profile = variance_profile(m, 2 ** 18)
    witnesses = {r: int(("10" * r)[:r], 2) for r in range(18, 27, 2)}
    wvar = {r: variance_spectral(m, n) for r, n in witnesses.items()}
    peak_is_witness = (int(profile.argmax()) + 1 == witnesses[18]
                       and math.isclose(float(profile.max()), wvar[18],
                                        rel_tol=1e-12))
    rising = all(wvar[r] < wvar[r + 2] for r in range(18, 26, 2))
    oracle_err = max(
        abs(wvar[r] - atomic_variance_oracle(m, n)) / wvar[r]
        for r, n in witnesses.items())

    ratio = wvar[26] / dyadic_max
    ok = (peak_is_witness and rising and dyadic_bounded
          and oracle_err <= 1e-12 and ratio >= 10.0)
    _gate("C6b nonergodic growth witness", ok,
          f"Var(S_{witnesses[26]}) = {wvar[26]:.4f}, dyadic max = "
          f"{dyadic_max:.4f}, ratio {ratio:.2f} (target >= 10); 2^18 peak at "
          f"witness: {peak_is_witness}; witnesses rising: {rising}; dyadic "
          f"max to 2^26 bounded: {dyadic_bounded}; oracle {oracle_err:.1e} "
          f"<= 1e-12")


def test_c6c_robinson_against_boundedness():
    """Finite criterion integral <-> bounded variances, where decidable."""
    from specvar import SpectralMeasure
    single = SpectralMeasure(atoms=((PI, 1.0),))
    rob_single = robinson_integral(single)
    bound = rob_single * PI ** 2 + g_eval(single, PI)
    sup_single = max(variance_spectral(single, n) for n in ORACLE_GRID)

    quad_m = quadratic()
    rob_quad = robinson_integral(quad_m)
    growth = variance_spectral(quad_m, 2 ** 14) - variance_spectral(quad_m, 2 ** 7)

    ok = (math.isfinite(rob_single) and sup_single <= bound
          and rob_quad == math.inf and growth > 15.0)
    _gate("C6c boundedness criterion", ok,
          f"single atom: integral {rob_single:.4f} finite, sup Var "
          f"{sup_single:.3f} <= {bound:.3f}; quadratic: integral inf, "
          f"Var(2^14)-Var(2^7) = {growth:.2f} (log growth)")


def test_c7_origin_atom_dichotomy():
    """Var/n^2 - 0.7 equals 1/n exactly for the 0.7-atom measure."""
    m = with_origin_atom(white_noise(), 0.7)
    worst = 0.0
    for n in [2 ** r for r in range(0, 13)]:
        ratio = variance_spectral(m, n) / n ** 2
        worst = max(worst, abs(ratio - 0.7 - 1.0 / n))
    _gate("C7 origin-atom dichotomy", worst <= 1e-12,
          f"worst |Var/n^2 - 0.7 - 1/n| = {worst:.2e} <= 1e-12")


def test_c8_monte_carlo_cross_validation():
    """Empirical Var(S_n) within 4 standard errors for one of two seeds."""
    t0 = time.time()
    ok = True
    details = []
    for name in ("whitenoise", "quadratic", "counterexample"):
        m = GALLERY[name][0]
        batches = {seed: simulate(m, N=4096, P=2000, seed=seed)
                   for seed in MC_SEEDS}
        for n in (16, 256):
            zs = []
            for seed in MC_SEEDS:
                est, se = empirical_variance(batches[seed], n)
                zs.append(abs(est - variance_spectral(m, n)) / se)
            ok = ok and min(zs) <= 4.0
            details.append(f"{name} n={n}: |z| = "
                           + "/".join(f"{z:.2f}" for z in zs))
    elapsed = time.time() - t0
    ok = ok and elapsed <= 180.0
    _gate("C8 Monte Carlo cross-validation", ok,
          "; ".join(details) + f"; {elapsed:.0f}s <= 180s")


def test_c9_cli_reproducibility(tmp_path):
    """Every CLI invocation is byte-identical across two runs."""
    measure_file = tmp_path / "m.json"
    from specvar import measure_to_json
    measure_file.write_text(measure_to_json(quadratic()))
    csv_file = tmp_path / "v.csv"
    rc, out, _ = run_cli(["variance", "--measure", "gallery:whitenoise",
                          "--n", "dyadic:4:9"])
    csv_file.write_text(out)
    invocations = [
        ["variance", "--measure", "gallery:whitenoise", "--n", "1,2,4"],
        ["variance", "--measure", f"file:{measure_file}", "--n", "3:9:3"],
        ["bounds", "--measure", "gallery:counterexample", "--n",
         "16,256,4096", "--A", "8"],
        ["scan", "--measure", "gallery:counterexample", "--gamma", "1",
         "--n-range", "dyadic:10:16"],
        ["scan", "--measure", "gallery:power:gamma=1.5,scale=2", "--gamma",
         "1.5", "--K0", "2", "--n-range", "dyadic:4:12"],
        ["constants", "--gamma", "0.25,0.5,1,1.5,1.75"],
        ["estimate", "--input", str(csv_file)],
        ["simulate", "--measure", "gallery:nonergodic", "--N", "256",
         "--paths", "16", "--seed", "11", "--check-n", "16,64"],
        ["gallery", "list"],
    ]
    ok = True
    for argv in invocations:
        rc1, out1, _ = run_cli(argv)
        rc2, out2, _ = run_cli(argv)
        ok = ok and rc1 == rc2 == 0 and out1 == out2 and len(out1) > 0
    _gate("C9 CLI byte-identical reruns", ok,
          f"{len(invocations)} invocations x 2 runs")
