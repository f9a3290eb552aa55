"""Witness search, non-negativity suite, threshold scanner, sweeps."""

import random

import pytest

from qbias import (
    InvalidParameterError,
    conjecture_scan,
    cross_check_matrix,
    distinct_dominance_sweep,
    dominance_sweep,
    doubling_orbit_witness,
    nonneg_expand,
    nonneg_suite,
    random_nonneg_params,
    rational,
    TruncatedSeries,
)


def test_witness_examples():
    assert doubling_orbit_witness(1, 3, 4) == 2
    assert doubling_orbit_witness(3, 6, 9) == 1
    assert doubling_orbit_witness(1, 2, 2) is None


def test_witness_even_modulus_odd_classes():
    # even m with both classes odd always admits a witness (k = 2 works)
    for m in (4, 6, 8, 10, 12):
        for a in range(1, m, 2):
            for b in range(a + 2, m + 1, 2):
                k = doubling_orbit_witness(a, b, m)
                assert k is not None and k <= 2


def test_witness_orbit_avoidance_property():
    # returned k's doubling orbit truly avoids both classes
    for (a, b, m) in [(1, 3, 4), (3, 6, 9), (1, 5, 8), (2, 6, 8)]:
        k = doubling_orbit_witness(a, b, m)
        if k is None:
            continue
        state = k % m
        for _ in range(4 * m):
            assert state != a % m and state != b % m
            state = (2 * state) % m


def test_witness_validation():
    with pytest.raises(InvalidParameterError):
        doubling_orbit_witness(2, 1, 3)


# -- non-negativity ---------------------------------------------------------------


def test_maino_example_and_degenerate():
    rep = nonneg_suite("maino", {"x": 1, "y": 0, "a": 1, "b": 2, "m": 4, "s": 3}, 200)
    assert rep.passed
    rep = nonneg_suite("maino", {"x": 2, "y": 1, "a": 3, "b": 1, "m": 5, "s": 2}, 120)
    assert rep.passed  # b = 1 collapses both branches to the same sum
    series = nonneg_expand("maino", {"x": 2, "y": 1, "a": 3, "b": 1, "m": 5, "s": 2}, 120)
    assert all(c == 0 for c in series.coeffs)


def test_maino_matches_series_products():
    # each branch sum_k prod_{j<k}(x + y q^{s+jm}) q^{c(k+1)} / (q^s;q^m)_{k+1},
    # c = a and c = ab, from series multiply and invert
    N = 60

    def binomial(c0, e, ce):
        co = [rational(0)] * (N + 1)
        co[0] = rational(c0)
        co[e] += rational(ce)
        return TruncatedSeries(co)

    for a, b, m, s, x, y in ((1, 2, 4, 3, 1, 0), (2, 3, 3, 1, rational(3, 2), rational(1, 3)),
                             (1, 4, 2, 2, 2, 1), (3, 2, 5, 4, 1, rational(5, 2))):
        branches = []
        for c in (a, a * b):
            total = TruncatedSeries.zero(N)
            term = TruncatedSeries.one(N)
            k = 0
            while c * (k + 1) <= N:
                if s + k * m <= N:
                    term = term * binomial(1, s + k * m, -1).invert()
                total = total + term.shift(c * (k + 1))
                term = term * (binomial(x, s + k * m, y) if s + k * m <= N else binomial(x, 0, 0))
                k += 1
            branches.append(total.coeffs)
        got = nonneg_expand("maino", {"a": a, "b": b, "m": m, "s": s, "x": x, "y": y}, N)
        assert got.coeffs == [u - v for u, v in zip(*branches)]


def test_andrews_example():
    params = {"a_seq": [1, 3, 5, 7, 9, 11], "b_seq": [2, 4, 6, 8, 10, 12],
              "h": 1, "x": 1, "y": 0}
    assert nonneg_suite("andrews", params, 150).passed


def test_f_series_example():
    assert nonneg_suite("f_series", {"a": 2, "b": 3, "m": 5, "x": 1, "y": 1}, 200).passed


def test_chern_example():
    assert nonneg_suite("chern_corollary", {"m": 4, "s": 3}, 200).passed
    assert nonneg_suite("chern_corollary", {"m": 1, "s": 1}, 150).passed


def test_hypothesis_gate_names_failure():
    with pytest.raises(InvalidParameterError, match="x >= 1"):
        nonneg_suite("f_series", {"a": 2, "b": 3, "m": 5, "x": rational(1, 2), "y": 1}, 50)
    with pytest.raises(InvalidParameterError, match="1, 2"):
        nonneg_suite("f_series", {"a": 1, "b": 2, "m": 5, "x": 1, "y": 1}, 50)
    with pytest.raises(InvalidParameterError, match="b_0"):
        nonneg_suite("andrews", {"a_seq": [2, 3], "b_seq": [3, 5], "h": 0,
                                 "x": 1, "y": 0}, 50)
    with pytest.raises(InvalidParameterError, match="increase"):
        nonneg_suite("andrews", {"a_seq": [2, 2], "b_seq": [4, 6], "h": 0,
                                 "x": 1, "y": 0}, 50)
    with pytest.raises(InvalidParameterError):
        nonneg_suite("unknown_kind", {}, 50)


@pytest.mark.parametrize("kind", ["f_series", "maino", "chern_corollary", "andrews"])
def test_random_draws_pass(kind):
    rng = random.Random(12345)
    for _ in range(12):
        params = random_nonneg_params(kind, rng)
        rep = nonneg_suite(kind, params, 80)
        assert rep.passed, f"{kind} failed on {params} at {rep.first_negative}"


# -- conjecture scan ------------------------------------------------------------------


def test_scan_thresholds_small():
    rep = conjecture_scan(2, 3, 5, 220)
    assert rep.threshold == 45 and not rep.inconclusive
    assert max(rep.violations) == 44
    rep = conjecture_scan(2, 4, 6, 150)
    assert rep.threshold == 5
    rep = conjecture_scan(1, 3, 4, 150)
    assert rep.threshold == 0 and rep.violations == []


def test_scan_excluded_case_oscillates():
    rep = conjecture_scan(1, 2, 3, 200)
    assert rep.inconclusive
    assert all(n % 3 == 2 for n in rep.violations)


def test_scan_validation():
    with pytest.raises(InvalidParameterError):
        conjecture_scan(2, 1, 3, 50)
    with pytest.raises(InvalidParameterError):
        conjecture_scan(1, 2, 2, 50)


# -- sweeps ----------------------------------------------------------------------------


def test_dominance_sweep_small():
    rep = dominance_sweep(4, [1, 2], [0, 1], 60, jobs=1)
    assert rep.passed
    assert rep.comparisons == 10 * 4


def test_dominance_sweep_rejects_small_x():
    for xs in ([rational(1, 2)], ["1/2"]):
        with pytest.raises(InvalidParameterError):
            dominance_sweep(3, xs, [0], 40)


def test_sweeps_reject_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(InvalidParameterError):
            dominance_sweep(3, [1], [0], 20, jobs=jobs)
        with pytest.raises(InvalidParameterError):
            distinct_dominance_sweep(4, [1], 20, jobs=jobs)


def test_distinct_dominance_sweep_small():
    rep = distinct_dominance_sweep(6, [0, 1], 60, jobs=1)
    assert rep.passed
    assert "(1,3,4)" in rep.witnesses and rep.witnesses["(1,3,4)"] == 2


def test_cross_check_matrix_small():
    rows, ok = cross_check_matrix(2, 10)
    assert ok
    assert len(rows) == 2 * 4  # (1,2),(2,1) for m=2, four weight pairs
