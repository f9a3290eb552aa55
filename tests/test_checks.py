"""Witness search, non-negativity suite, threshold scanner, sweeps."""

import concurrent.futures
import os
import random

import pytest
from hypothesis import example, given, strategies as st

from qbias import (
    BiasSpec,
    InvalidParameterError,
    compare_bias,
    conjecture_scan,
    cross_check_matrix,
    distinct_dominance_sweep,
    dominance_sweep,
    doubling_orbit_witness,
    monotonicity_check,
    nonneg_expand,
    nonneg_suite,
    random_nonneg_params,
    rational,
    SweepReport,
    TruncatedSeries,
)
import qbias.checks as checks
from qbias.checks import _monotone_graded, _run_sweep, _sweep_group
from qbias.kernel import ungrade
from reference import add, shift


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
            total = TruncatedSeries([0] * (N + 1))
            term = TruncatedSeries([1] + [0] * N)
            k = 0
            while c * (k + 1) <= N:
                if s + k * m <= N:
                    term = term * binomial(1, s + k * m, -1).invert()
                total = add(total, shift(term, c * (k + 1)))
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


def test_scan_report_json_keys():
    # the seven fields, in constructor order, as the report's JSON object
    rep = conjecture_scan(2, 4, 6, 150)
    obj = rep.to_json_obj()
    assert list(obj) == ["a", "b", "m", "horizon", "violations", "threshold", "inconclusive"]
    assert obj == {"a": 2, "b": 4, "m": 6, "horizon": 150, "violations": rep.violations,
                   "threshold": 5, "inconclusive": False}


def test_scan_validation():
    with pytest.raises(InvalidParameterError):
        conjecture_scan(2, 1, 3, 50)
    with pytest.raises(InvalidParameterError):
        conjecture_scan(1, 2, 2, 50)


# -- sweeps ----------------------------------------------------------------------------


def test_sweep_reports_do_not_share_their_defaults():
    first, second = SweepReport("thm1", 10, 0), SweepReport("thm1", 10, 0)
    first.violations.append(("(1,2,3;1/1,0/1)", [4]))
    first.witnesses[1] = 2
    assert second.violations == [] and second.witnesses == {}
    assert second.passed and not first.passed


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


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def test_sweeps_reject_jobs_that_are_not_ints(monkeypatch):
    # refused as an invalid configuration before any process starts, not
    # as a TypeError from the pool or from the comparison with 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    for jobs in (1.5, "2", 2.0, [2]):
        with pytest.raises(InvalidParameterError):
            dominance_sweep(3, [1, 2], [0], 20, jobs=jobs)
        with pytest.raises(InvalidParameterError):
            distinct_dominance_sweep(4, [0, 1], 20, jobs=jobs)


@pytest.mark.parametrize("affinity, cores", [({0}, 2), (None, 1), (None, None)])
def test_default_jobs_counts_the_cpus_the_process_may_use(monkeypatch, affinity, cores):
    # with one usable CPU (an affinity of {0} on a host of two cores, or no
    # affinity call and one core or an unknown count) every group runs in
    # this process, where a spy sees each task, and no pool starts
    want = dominance_sweep(4, [1, 2], [0, 1], 30, jobs=1).to_json_obj()
    seen = []

    def spy(task):
        seen.append(task[:3])
        return _sweep_group(task)

    monkeypatch.setattr(checks, "_sweep_group", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert dominance_sweep(4, [1, 2], [0, 1], 30).to_json_obj() == want
    assert sorted(seen) == sorted((m, x, y) for m in (2, 3, 4) for x in (1, 2) for y in (0, 1))


def test_sweeps_reject_orders_below_one():
    # a sweep calls no entry point that checks N, and N < 1 compares nothing
    for N in (0, -3):
        with pytest.raises(InvalidParameterError):
            dominance_sweep(3, [1], [0], N, jobs=1)
        with pytest.raises(InvalidParameterError):
            distinct_dominance_sweep(4, [1], N, jobs=1)


def test_sweeps_reject_orders_below_their_largest_modulus():
    # with N < m a group's step-m monotonicity has no pair c_n, c_{n+m}
    with pytest.raises(InvalidParameterError):
        dominance_sweep(6, [1], [0], 3, jobs=1)
    with pytest.raises(InvalidParameterError):
        distinct_dominance_sweep(8, [0], 5)
    assert dominance_sweep(4, [1], [0], 4, jobs=1).passed  # N = m compares c_0, c_4


def test_distinct_dominance_sweep_small():
    rep = distinct_dominance_sweep(6, [0, 1], 60, jobs=1)
    assert rep.passed
    assert "(1,3,4)" in rep.witnesses and rep.witnesses["(1,3,4)"] == 2


def reference_sweep(name, specs, N, witnesses=None):
    """The per-pair sweep report: one compare_bias and two
    monotonicity_check calls on ungraded values for every spec."""
    report = SweepReport(name, N, len(specs), witnesses=witnesses or {})
    for spec in specs:
        rep = compare_bias(spec, N)
        if rep.violations:
            report.violations.append((spec.label(), rep.violations))
        if not (monotonicity_check(rep.values, spec.m)[0]
                and monotonicity_check(rep.swapped_values, spec.m)[0]):
            report.violations.append((spec.label(), ["monotonicity"]))
    return report.to_json_obj()


def test_grouped_thm1_sweep_matches_the_per_pair_reference():
    # x = 1 twice; the m = 6 groups put 20 lanes on each class factor, at
    # narrow weights (1, 0) too.  The reference runs every pair alone: (1, 0)
    # by the packed prefactor product, (3/2, y) and (1, 1/2) on one lane of
    # their own
    xs, ys = [1, rational(3, 2), 1], [0, rational(1, 2)]
    specs = [BiasSpec(a, b, m, x, y) for m in range(1, 7) for b in range(2, m + 1)
             for a in range(1, b) for x in xs for y in ys]
    want = reference_sweep("thm1", specs, 40)
    for jobs in (1, 2):
        assert dominance_sweep(6, xs, ys, 40, jobs=jobs).to_json_obj() == want


def test_grouped_thm2_sweep_matches_the_per_pair_reference():
    xs = [0, rational(1, 2), 2]
    specs, witnesses = [], {}
    for m in range(1, 9):
        for b in range(2, m + 1):
            for a in range(1, b):
                k = doubling_orbit_witness(a, b, m)
                if k is not None:
                    witnesses[f"({a},{b},{m})"] = k
                    specs += [BiasSpec(a, b, m, x, 1) for x in xs]
    want = reference_sweep("thm2", specs, 40, witnesses)
    for jobs in (1, 2):
        assert distinct_dominance_sweep(8, xs, 40, jobs=jobs).to_json_obj() == want


# groups with real violations: (1,2,4; 1/2,1/2) at n = 2, 6; (1,2,3; 0,1)
# at n = 2, 5, 8, ...; (2,3,3; 0,1) at n = 4; (2,4,4; 0,1) at n = 4
VIOLATING = [BiasSpec(a, b, m, x, y) for m, x, y in ((4, rational(1, 2), rational(1, 2)),
                                                     (3, 0, 1), (4, 0, 1))
             for a in range(1, m) for b in range(a + 1, m + 1)]


def test_grouped_sweep_reassembles_violations_in_spec_order():
    # groups interleaved, out of class order, with a repeated spec
    specs = VIOLATING[::-1] + VIOLATING[::2] + [BiasSpec(1, 2, 5, rational(1, 2), 1)]
    want = reference_sweep("mixed", specs, 40)
    assert want["violations"] and not want["passed"]
    for jobs in (1, 2):
        assert _run_sweep("mixed", specs, 40, jobs).to_json_obj() == want


def test_sweep_group_matches_compare_bias_pair_by_pair():
    for m, x, y in ((4, rational(1, 2), rational(1, 2)), (3, 0, 1)):
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        got = _sweep_group((m, x, y, pairs, 40))
        assert sorted(got) == sorted(pairs)
        for (a, b), (violations, mono) in got.items():
            rep = compare_bias(BiasSpec(a, b, m, x, y), 40)
            assert violations == rep.violations
            assert mono == (monotonicity_check(rep.values, m)[0]
                            and monotonicity_check(rep.swapped_values, m)[0])


@st.composite
def graded_lists(draw):
    """A D^n-graded list of small values c_n, each entry nudged by at most
    one so that it sits on, just above or just below a monotonicity bound."""
    D = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(-3, 3), max_size=12))
    nudges = draw(st.lists(st.integers(-1, 1), min_size=len(values), max_size=len(values)))
    return D, [c * D**n + e for n, (c, e) in enumerate(zip(values, nudges))]


@given(graded_lists(), st.integers(1, 5))
@example((2, [1, 3]), 1)  # c_1 = 3/2 >= c_0 = 1
@example((2, [2, 3]), 1)  # c_1 = 3/2 < c_0 = 2, though 3 >= 2^0 * 2
@example((3, [1, 2, 8]), 2)  # c_2 = 8/9 < c_0 = 1, though 8 >= 3^1 * 1
def test_graded_monotonicity_matches_the_ungraded_check(graded, m):
    D, g = graded
    if len(g) <= m:  # no pair c_n, c_{n+m} to compare
        with pytest.raises(InvalidParameterError):
            monotonicity_check(ungrade(g, D), m)
    else:
        assert _monotone_graded(g, m, D) == monotonicity_check(ungrade(g, D), m)[0]


def test_cross_check_matrix_small():
    rows, ok = cross_check_matrix(2, 10)
    assert ok
    assert len(rows) == 2 * 4  # (1,2),(2,1) for m=2, four weight pairs
