"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 10 is expected to fail on one of its twelve cases: the sample
points 500/1000/2000 straddle residue classes modulo 3, and the (1,3)
distinct-parts ratio approaches its limit from class-dependent sides (the
same class reversal the mod-3 dissection proposition describes).  See
the decisions ledger; the criterion is asserted as stated, not weakened.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qbias import (
    BiasSpec,
    PROFILE_DISTINCT,
    PROFILE_OVERPARTITIONS,
    PROFILE_PARTITIONS,
    bias_constant,
    bias_series_dp,
    bias_series_gf,
    boundary_check,
    compare_bias,
    conjecture_scan,
    distinct_dominance_sweep,
    dominance_sweep,
    doubling_orbit_witness,
    nonneg_suite,
    oracle_bias,
    conjecture_scan as _scan,
    random_nonneg_params,
    rational,
    symmetric_distinct_pair,
    tauberian_predict_log,
    total_weighted_series,
    verify_identity,
)
from qbias.asymptotics import convergence_report


def _report(num, passed, detail=""):
    stamp = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {stamp} {detail}")
    return passed


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    weights = [(1, 0), (0, 1), (1, 1), (2, 1)]
    bad = []
    for m in range(1, 6):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a == b:
                    continue
                for (x, y) in weights:
                    spec = BiasSpec(a, b, m, x, y)
                    gf = bias_series_gf(spec, 25)
                    dp = bias_series_dp(spec, 25)
                    if gf != dp:
                        bad.append((spec.label(), "gf!=dp"))
                        continue
                    for n in range(26):
                        if rational(gf.coeffs[n]) != rational(oracle_bias(spec, n)):
                            bad.append((spec.label(), f"oracle mismatch at {n}"))
                            break
    ok = _report(1, not bad, f"three-way oracle equivalence ({time.time()-t0:.1f}s)")
    assert ok, bad


def test_criterion_02_dominance_sweep():
    t0 = time.time()
    rep = dominance_sweep(
        10, [1, rational(3, 2), 2, 3], [0, rational(1, 2), 1, 2], 300)
    ok = _report(2, rep.passed,
                 f"{rep.comparisons} weighted comparisons, m<=10, N=300 "
                 f"({time.time()-t0:.1f}s)")
    assert ok, rep.violations


def test_criterion_03_parity_landmarks():
    rep = compare_bias(BiasSpec(1, 2, 2, 1, 0), 300)
    part_ok = rep.violations == [] and rep.zero_indices == [0, 2]
    repd = compare_bias(BiasSpec(1, 2, 2, 0, 1), 1000)
    early = [n for n in repd.violations if n <= 19]
    strict_after = all(s > 0 for s in repd.signs[20:])
    dist_ok = bool(early) and strict_after and max(repd.violations) <= 19
    ok = _report(3, part_ok and dist_ok,
                 f"equality set {rep.zero_indices}; distinct-part failures at {early}")
    assert ok


def test_criterion_04_witnessed_dominance_sweep():
    t0 = time.time()
    rep = distinct_dominance_sweep(12, [0, rational(1, 2), 1, 2], 300)
    witness_ok = (doubling_orbit_witness(1, 3, 4) == 2
                  and doubling_orbit_witness(3, 6, 9) == 1)
    ok = _report(4, rep.passed and witness_ok,
                 f"{rep.comparisons} comparisons over {len(rep.witnesses)} witnessed "
                 f"triples, N=300 ({time.time()-t0:.1f}s)")
    assert ok, rep.violations


def test_criterion_05_conjecture_thresholds():
    t0 = time.time()
    expected = {(2, 3, 5): 45, (2, 4, 6): 5, (3, 4, 7): 8, (4, 5, 9): 9}
    bad = []
    for (a, b, m), want in expected.items():
        rep = conjecture_scan(a, b, m, 500)
        if rep.threshold != want or rep.inconclusive:
            bad.append(((a, b, m), rep.threshold))
    for m in range(3, 10):
        for a in range(1, (m + 1) // 2):
            if 2 * a >= m:
                continue
            triple = (a, m - a, m)
            if triple in expected or triple == (1, 2, 3):
                continue
            rep = conjecture_scan(*triple, 500)
            if rep.threshold != 0 or rep.inconclusive:
                bad.append((triple, rep.threshold))
    ok = _report(5, not bad, f"thresholds 45/5/8/9 plus symmetric zeros "
                             f"({time.time()-t0:.1f}s)")
    assert ok, bad


def test_criterion_06_mod3_dissection_pattern():
    fwd, rev = symmetric_distinct_pair(1, 3, 600)
    bad = []
    for n in range(601):
        d12, d21 = fwd.coeffs[n], rev.coeffs[n]
        if n % 3 == 2:
            if not d12 <= d21:
                bad.append(n)
        else:
            if not d12 >= d21:
                bad.append(n)
    ok = _report(6, not bad, "class-2 reversed, classes 0 and 1 forward, n<=600")
    assert ok, bad


def test_criterion_07_nonnegativity_suites():
    import random

    t0 = time.time()
    bad = []
    for kind in ("f_series", "maino", "chern_corollary", "andrews"):
        rng = random.Random(20240611)
        for _ in range(50):
            params = random_nonneg_params(kind, rng)
            rep = nonneg_suite(kind, params, 150)
            if not rep.passed:
                bad.append((kind, params, rep.first_negative))
    ok = _report(7, not bad, f"4 x 50 in-hypothesis draws at N=150 "
                             f"({time.time()-t0:.1f}s)")
    assert ok, bad


def test_criterion_08_identity_suite():
    bad = []
    for (c, s) in ((1, 1), (1, 2), (-1, 2), (2, 3), (-3, 1)):
        rep = verify_identity("jacobi", {"c": c, "s": s}, N=300)
        if not rep.passed:
            bad.append(("jacobi", c, s))
    fine_subs = [
        {"alpha": (1, 2), "gamma": (1, 3), "z": (1, 1)},
        {"alpha": (2, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (1, 1), "gamma": (rational(1, 2), 2), "z": (1, 2)},
    ]
    heine_subs = [
        {"alpha": (1, 1), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (1, 2), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (2, 1), "beta": (1, 1), "gamma": (1, 3), "z": (1, 2)},
    ]
    for name, subs in (("fine", fine_subs), ("heine", heine_subs)):
        for sub in subs:
            rep = verify_identity(name, sub, N=100)
            if not rep.passed:
                bad.append((name, sub))
    points = [(0.2, 0.5), (0.15, 0.4), (0.1, 0.3)]
    for name in ("theta_reciprocal", "kronecker"):
        rep = verify_identity(name, {"points": points})
        if not rep.passed:
            bad.append((name, rep.max_discrepancy))
    ok = _report(8, not bad,
                 "jacobi x5 N=300 exact, fine/heine x3 N=100 exact, "
                 "numeric residuals < 1e-10")
    assert ok, bad


def test_criterion_09_tauberian_main_terms():
    closed = [
        (PROFILE_PARTITIONS,
         lambda n: 2 * math.pi * math.sqrt(n / 6) - math.log(4 * math.sqrt(3) * n)),
        (PROFILE_DISTINCT,
         lambda n: math.pi * math.sqrt(n / 3) - math.log(4 * 3**0.25 * n**0.75)),
        (PROFILE_OVERPARTITIONS,
         lambda n: math.pi * math.sqrt(n) - math.log(8 * n)),
    ]
    worst = 0.0
    for profile, ln_closed in closed:
        for n in (10**3, 10**4, 10**6):
            ratio = math.exp(tauberian_predict_log(profile, n) - ln_closed(n))
            worst = max(worst, abs(ratio - 1.0))
    ok = _report(9, worst <= 1e-12, f"worst relative deviation {worst:.3g}")
    assert ok


def test_criterion_10_convergence_trends():
    t0 = time.time()
    failures = []
    for m in (3, 4, 5):
        for a in range(1, (m + 1) // 2):
            if 2 * a >= m:
                continue
            for flavor in ("01", "10", "11"):
                rep = convergence_report(a, m, flavor, [500, 1000, 2000])
                errs = [e for (_, _, e) in rep.rows]
                line = "strictly decreasing" if rep.trend_ok else f"errors {errs}"
                print(f"  criterion 10 case ({a},{m}) flavor {flavor}: "
                      f"{'ok' if rep.trend_ok else 'NOT MONOTONE'} ({line})")
                if not rep.trend_ok:
                    failures.append(((a, m), flavor, errs))
    ok = _report(10, not failures,
                 f"|R_n - c| strict decrease across 500/1000/2000 "
                 f"({time.time()-t0:.1f}s)")
    assert ok, (
        "known spec defect: the samples 500/1000/2000 lie in residue classes "
        "2/1/2 mod 3, and the (1,3) distinct-parts ratio approaches 1/2 from "
        "class-dependent sides (see decisions ledger); failing cases: "
        f"{failures}")


# thresholds frozen from the first verified run
BOUNDARY_RATIOS_H0 = {
    "01": {0.5: 0.815320, 0.4: 0.834812, 0.3: 0.856856},
    "10": {0.5: 0.930074, 0.4: 0.944968, 0.3: 0.959341},
    "11": {0.5: 0.949444, 0.4: 0.959667, 0.3: 0.969834},
}
BOUNDARY_TWISTED_Z03 = {"01": 0.313536, "10": 0.038544, "11": 0.036584}


def test_criterion_11_boundary_behaviour():
    t0 = time.time()
    bad = []
    for flavor in ("01", "10", "11"):
        rep = boundary_check(1, 3, flavor, [0.5, 0.4, 0.3], h=0)
        ratios = {z: r for (z, _, _, r) in rep.rows}
        if abs(ratios[0.3] - 1.0) > 0.25:
            bad.append((flavor, "outside 25% at z=0.3", ratios[0.3]))
        if not (abs(ratios[0.5] - 1.0) >= abs(ratios[0.4] - 1.0)
                >= abs(ratios[0.3] - 1.0)):
            bad.append((flavor, "no improvement as z shrinks", ratios))
        for z, frozen in BOUNDARY_RATIOS_H0[flavor].items():
            if abs(ratios[z] - frozen) > 1e-4:
                bad.append((flavor, f"regression vs frozen ratio at z={z}", ratios[z]))
        for h in (1, 2):
            reph = boundary_check(1, 3, flavor, [0.3], h=h)
            ratio = reph.rows[0][3]
            if ratio >= 0.5:
                bad.append((flavor, f"twisted ratio at h={h} not below 1/2", ratio))
            if abs(ratio - BOUNDARY_TWISTED_Z03[flavor]) > 1e-4:
                bad.append((flavor, f"regression vs frozen twisted ratio h={h}", ratio))
    ok = _report(11, not bad, f"main-term ratios and twisted decay at (1,3) "
                              f"({time.time()-t0:.1f}s)")
    assert ok, bad


CLI_ACCEPTANCE_RUNS = [
    ["oracle", "--a", "1", "--b", "2", "--m", "2", "--x", "1", "--y", "0", "--n", "0"],
    ["compute-bias", "--a", "1", "--b", "2", "--m", "2", "--x", "1", "--y", "0",
     "--N", "60", "--method", "gf"],
    ["compute-bias", "--a", "1", "--b", "2", "--m", "3", "--x", "1", "--y", "1",
     "--N", "40", "--method", "dp", "--format", "csv"],
    ["verify", "thm1", "--m-max", "4", "--N", "80", "--x-grid", "1,2",
     "--y-grid", "0,1", "--jobs", "2"],
    ["verify", "thm2", "--m-max", "6", "--N", "80", "--x-grid", "0,1", "--jobs", "2"],
    ["verify", "lemma2-1", "--a", "2", "--b", "3", "--m", "5", "--x", "1",
     "--y", "1", "--N", "120"],
    ["verify", "nonneg", "--draws", "6", "--N", "80", "--seed", "3"],
    ["verify", "identities", "--N", "120"],
    ["scan-conjecture", "--a", "2", "--b", "3", "--m", "5", "--N", "500"],
    ["asymptotics", "constants", "--a", "1", "--m", "3"],
    ["asymptotics", "predict", "--profile", "partitions",
     "--n-values", "1000,10000"],
    ["asymptotics", "convergence", "--a", "1", "--m", "4", "--flavor", "10",
     "--samples", "100,200,400", "--format", "csv"],
    ["asymptotics", "boundary", "--a", "1", "--m", "3", "--flavor", "01",
     "--z", "0.5,0.4", "--h", "0", "--N", "1200"],
    ["cross-check", "--m-max", "2", "--n-max", "12"],
]


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.time()
    bad = []
    for i, args in enumerate(CLI_ACCEPTANCE_RUNS):
        outputs = []
        codes = []
        for rep in ("a", "b"):
            path = tmp_path / f"run{i}{rep}"
            res = subprocess.run(
                [sys.executable, "-m", "qbias.cli"] + args + ["--out", str(path)],
                capture_output=True, text=True)
            codes.append(res.returncode)
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1] or codes[0] != codes[1]:
            bad.append((args, codes))
        if codes[0] not in (0, 3):
            bad.append((args, "unexpected exit", codes[0]))
    ok = _report(12, not bad,
                 f"{len(CLI_ACCEPTANCE_RUNS)} CLI runs, byte-identical twice "
                 f"({time.time()-t0:.1f}s)")
    assert ok, bad
