"""Digamma constants, Tauberian main terms, convergence and boundary reports."""

import math

import pytest

from qbias import (
    AsymptoticProfile,
    InvalidParameterError,
    PROFILE_DISTINCT,
    PROFILE_OVERPARTITIONS,
    PROFILE_PARTITIONS,
    bias_constant,
    boundary_check,
    boundary_main_term,
    convergence_report,
    digamma_diff,
    tauberian_predict_log,
    total_weighted_series,
)
from qbias.asymptotics import suggest_boundary_order
from reference import digamma_reference

# frozen regression value for the (1,3) flavor-10 constant:
# (psi(2/3) - psi(1/6)) * sin(pi/3) / (2*pi), first verified run
C13_FLAVOR10 = 0.6910760347114223


def test_digamma_reflection_point():
    # a/m = 1/2 gives psi(3/4) - psi(1/4) = pi
    assert abs(digamma_diff(1, 2) - math.pi) < 1e-13


def test_digamma_dual_method_grid():
    for m in range(2, 13):
        for a in range(1, m):
            v1 = digamma_diff(a, m)
            v2 = digamma_reference((m + a) / (2 * m)) - digamma_reference(a / (2 * m))
            assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_digamma_positive():
    assert all(digamma_diff(a, m) > 0 for m in range(2, 10) for a in range(1, m))


def test_digamma_validation():
    with pytest.raises(InvalidParameterError):
        digamma_diff(3, 3)
    with pytest.raises(InvalidParameterError):
        digamma_reference(-1.0)


def test_bias_constants():
    assert bias_constant(1, 3, "01").value == 0.5
    assert abs(bias_constant(1, 3, "10").value - C13_FLAVOR10) < 1e-14
    assert bias_constant(1, 3, "11").value == bias_constant(1, 3, "10").value
    for m in range(3, 13):
        for a in range(1, m):
            if 2 * a >= m:
                continue
            for flavor in ("01", "10", "11"):
                assert bias_constant(a, m, flavor).value > 0


def test_bias_constant_validation():
    with pytest.raises(InvalidParameterError):
        bias_constant(2, 4, "10")
    with pytest.raises(InvalidParameterError):
        bias_constant(1, 3, "xy")


def test_profile_validation():
    with pytest.raises(InvalidParameterError):
        AsymptoticProfile(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        AsymptoticProfile(alpha=0.0, beta=1.0, gamma=0.0, rho=1.0)
    with pytest.raises(InvalidParameterError):
        AsymptoticProfile(1.0, 1.0, 0.0, 0.0)


def test_tauberian_reproduces_closed_main_terms():
    closed = {
        "p": (PROFILE_PARTITIONS,
              lambda n: 2 * math.pi * math.sqrt(n / 6) - math.log(4 * math.sqrt(3) * n)),
        "q": (PROFILE_DISTINCT,
              lambda n: math.pi * math.sqrt(n / 3) - math.log(4 * 3**0.25 * n**0.75)),
        "pbar": (PROFILE_OVERPARTITIONS,
                 lambda n: math.pi * math.sqrt(n) - math.log(8 * n)),
    }
    for profile, ln_closed in closed.values():
        for n in (10**3, 10**4, 10**6):
            ratio = math.exp(tauberian_predict_log(profile, n) - ln_closed(n))
            assert abs(ratio - 1.0) <= 1e-12


def test_tauberian_predict_small_n():
    # p(100) = 190569292; the main term sits within a few percent
    approx = math.exp(tauberian_predict_log(PROFILE_PARTITIONS, 100))
    assert abs(approx / 190569292 - 1) < 0.05


def test_convergence_report_shapes():
    rep = convergence_report(1, 4, "10", [60, 120, 240])
    assert len(rep.rows) == 3
    assert rep.rows[0][0] == 60
    assert rep.trend_ok in (True, False)
    single = convergence_report(1, 4, "01", [100])
    assert single.trend_ok is None  # not applicable
    with pytest.raises(InvalidParameterError):
        convergence_report(1, 4, "01", [3000])


def test_convergence_matches_direct_ratio():
    rep = convergence_report(1, 4, "11", [80])
    from qbias import bias_series_symmetric
    from fractions import Fraction

    num = bias_series_symmetric(1, 4, "11", 80)
    den = total_weighted_series(1, 1, 80)
    expect = float(Fraction(int(num.coeffs[80]), int(den.coeffs[80])))
    assert rep.rows[0][1] == expect


def test_boundary_main_term_roundtrip():
    # h divisible by m reproduces the h = 0 evaluation exactly
    r0 = boundary_check(1, 3, "01", [0.5], h=0, N=600)
    r3 = boundary_check(1, 3, "01", [0.5], h=3, N=600)
    assert r0.kind == "main-term" and r3.kind == "main-term"
    assert r0.rows[0][1] == r3.rows[0][1]


def test_boundary_tail_guard():
    with pytest.raises(InvalidParameterError, match="N >="):
        boundary_check(1, 3, "01", [0.2], h=0, N=80)


def test_boundary_rejects_unknown_flavor_and_underflow():
    with pytest.raises(InvalidParameterError, match="flavor"):
        boundary_check(1, 3, "xx", [0.5])
    for h in (0, 1):
        with pytest.raises(InvalidParameterError, match="z=10000"):
            boundary_check(1, 3, "01", [10000], h=h)


def test_boundary_helpers_reject_classes_without_a_closed_form():
    # an unknown flavor and m = 0 used to raise KeyError and ZeroDivisionError;
    # (5, 3) and (1, 0) used to return a main term for a class pair with no closed form
    for call in (lambda: suggest_boundary_order("xx", 3, 0.5),
                 lambda: suggest_boundary_order("01", 0, 0.5),
                 lambda: boundary_main_term(5, 3, "01", 1.0),
                 lambda: boundary_main_term(1, 0, "01", 1.0)):
        with pytest.raises(InvalidParameterError):
            call()


def test_boundary_order_refuses_a_modulus_beyond_float_range():
    # m / float used to raise OverflowError: "int too large to convert to float"
    with pytest.raises(InvalidParameterError, match="float range"):
        suggest_boundary_order("01", 10**400, 0.5)


def test_boundary_main_term_refuses_a_z_that_overflows_it():
    # exp(pi^2 m / (12 z)) used to raise OverflowError: "math range error"
    with pytest.raises(InvalidParameterError, match="z=1e-05"):
        boundary_main_term(1, 3, "01", 1e-5)
    for z in (0.0, -1.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(InvalidParameterError):
            boundary_main_term(1, 3, "11", z)


def test_boundary_ratio_sane_at_moderate_z():
    rep = boundary_check(1, 3, "01", [0.5], h=0)
    (z, v, ref, ratio) = rep.rows[0]
    assert 0.5 < ratio < 1.5
    assert ref == boundary_main_term(1, 3, "01", 0.5)


def test_boundary_twisted_decay():
    rep = boundary_check(1, 3, "10", [0.4], h=1)
    assert rep.kind == "decay"
    assert rep.rows[0][3] < 0.6
    # a 400-digit h twists by h % m
    assert boundary_check(1, 3, "10", [0.4], h=3 * 10**399 + 1).rows == rep.rows


def test_overpartition_prediction_against_exact():
    exact = total_weighted_series(1, 1, 2000)
    ratios = []
    for n in (500, 1000, 2000):
        lp = tauberian_predict_log(PROFILE_OVERPARTITIONS, n)
        la = math.log(int(exact.coeffs[n]))
        ratios.append(math.exp(lp - la))
    assert 0.5 < ratios[-1] < 2.0
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
