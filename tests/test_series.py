"""Ring laws, inversion, product builders, numeric evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from qbias import (
    InvalidParameterError,
    SingularSeriesError,
    TruncatedSeries,
    bias_series_symmetric,
    evaluate_numeric,
    pochhammer_product,
    rational,
)
from qbias.engine import _symmetric_sum
from qbias.kernel import progression, rung
from reference import add, distinct_partitions, partitions

N = 24

int_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=N + 1, max_size=N + 1
).map(TruncatedSeries)


def geometric(order):
    return TruncatedSeries([1] * (order + 1))


def one(order):
    return TruncatedSeries([1] + [0] * order)


# -- construction and structure -------------------------------------------------


def test_order_validation():
    with pytest.raises(InvalidParameterError):
        TruncatedSeries([0])
    with pytest.raises(InvalidParameterError):
        TruncatedSeries([])
    with pytest.raises(InvalidParameterError):
        TruncatedSeries([1])
    assert TruncatedSeries([1, 2, 3]).order == 2


def test_domain_and_order_mismatch_rejected():
    a = one(5)
    c = one(6)
    with pytest.raises(InvalidParameterError):
        a * c


def test_integer_domain_rejects_fractions():
    # series take exact rationals only, never floats or strings
    with pytest.raises(InvalidParameterError):
        TruncatedSeries([0.5, 0, 1])
    with pytest.raises(InvalidParameterError):
        TruncatedSeries([0, "1/2", 0, 0])
    for c, sign in ((0.5, 1), ("1/2", 1), ("1/2", -1)):
        with pytest.raises(InvalidParameterError):
            pochhammer_product(c, sign, 1, 1, 5)


# -- ring laws -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(int_series, int_series, int_series)
def test_ring_laws(s1, s2, s3):
    assert add(s1, s2).coeffs == add(s2, s1).coeffs
    assert add(add(s1, s2), s3).coeffs == add(s1, add(s2, s3)).coeffs
    assert (s1 * s2).coeffs == (s2 * s1).coeffs
    assert ((s1 * s2) * s3).coeffs == (s1 * (s2 * s3)).coeffs
    assert (s1 * add(s2, s3)).coeffs == add(s1 * s2, s1 * s3).coeffs


def test_simple_products():
    one_plus = TruncatedSeries([1, 1, 0, 0])
    one_minus = TruncatedSeries([1, -1, 0, 0])
    assert (one_plus * one_minus).coeffs == [1, 0, -1, 0]
    geo = geometric(50)
    fac = TruncatedSeries([1, -1] + [0] * 49)
    assert (geo * fac).coeffs == [1] + [0] * 50


# -- inversion ----------------------------------------------------------------------


def test_invert_geometric():
    inv = TruncatedSeries([1, -1] + [0] * 11).invert()
    assert inv.coeffs == [1] * 13


@settings(max_examples=25, deadline=None)
@given(int_series)
def test_invert_involution_and_two_sided(s):
    cs = list(s.coeffs)
    cs[0] = 1
    s = TruncatedSeries(cs)
    inv = s.invert()
    assert (s * inv).coeffs == one(N).coeffs
    assert (inv * s).coeffs == one(N).coeffs
    assert inv.invert().coeffs == s.coeffs


def test_invert_preconditions():
    with pytest.raises(SingularSeriesError):
        TruncatedSeries([2, 0, 0, 0, 0]).invert()
    with pytest.raises(SingularSeriesError):
        TruncatedSeries([0] * 5).invert()
    half = TruncatedSeries([rational(1, 2), 1, 0, 0, 0])
    assert (half * half.invert()).coeffs == one(4).coeffs


def test_partition_numbers_from_euler_product():
    inv = pochhammer_product(1, -1, 1, 1, 30).invert()
    for n in range(31):
        assert inv.coeffs[n] == sum(1 for _ in partitions(n))
    assert inv.coeffs[10] == 42


# -- product builders ------------------------------------------------------------------


def test_pochhammer_distinct_counts():
    s = pochhammer_product(1, 1, 1, 1, 20)
    for n in range(15):
        assert s.coeffs[n] == sum(1 for _ in distinct_partitions(n))
    assert s.coeffs[6] == 4


def test_pochhammer_trivial_cases():
    assert pochhammer_product(0, 1, 1, 1, 8).coeffs == [1] + [0] * 8
    assert pochhammer_product(1, -1, 1, 1, 8).coeffs[1] == -1


def test_pochhammer_offset_validation():
    with pytest.raises(InvalidParameterError):
        pochhammer_product(1, 1, 0, 1, 10)
    with pytest.raises(InvalidParameterError):
        pochhammer_product(1, 2, 1, 1, 10)


def test_pochhammer_split_range():
    # product over a split index range equals the product over the full range
    full = pochhammer_product(1, -1, 2, 3, 40)
    head = one(40)
    for j in range(4):
        factor = TruncatedSeries([0] * (2 + 3 * j) + [-1] + [0] * (40 - 2 - 3 * j))
        factor.coeffs[0] = 1
        head = head * factor
    tail = pochhammer_product(1, -1, 2 + 12, 3, 40)
    assert (head * tail).coeffs == full.coeffs


def test_pochhammer_self_inverse():
    s = pochhammer_product(1, -1, 1, 2, 25)
    assert (s * s.invert()).coeffs == one(25).coeffs


@pytest.mark.parametrize("D", [1, 2, 3])
def test_qprod_matches_series_products(D):
    # (1 + (3/D) q^e)^2 over odd e times (1 - (5/D) q^e)^-2 over e = 2 mod 3,
    # D^n-graded, against the same product from series multiply and invert
    N = 20
    odd, two_mod_3 = range(1, N + 1, 2), range(2, N + 1, 3)
    table = [(3, odd, 1), (3, odd, 1), (-5, two_mod_3, -1), (-5, two_mod_3, -1)]
    graded = [1] + [0] * N
    for u, exponents, power in table:
        graded = progression(graded, u, exponents.start, exponents.step, power, D, N)
    ref = one(N)
    for u, exponents, power in table:
        for e in exponents:
            f = one(N)
            f.coeffs[e] = rational(u, D)
            ref = ref * (f if power > 0 else f.invert())
    assert [rational(c, D**n) for n, c in enumerate(graded)] == ref.coeffs
    # one weight-ladder rung q^c (x + y q^e) / (1 - q^f) with x = P/D,
    # y = Q/D keeps the grading: index n still carries D^n, in integers;
    # the step returns its coefficients from q^c on
    for c in (1, 2):
        for P, Q in ((3, 5), (0, 5), (3, 0)):
            for e, f in ((2, 3), (0, 4)):
                step = rung(graded, P, Q, D, c, e, f, N)
                num = TruncatedSeries([0] * (N + 1))
                num.coeffs[c + e] = rational(Q, D)
                num.coeffs[c] += rational(P, D)
                den = one(N)
                den.coeffs[f] = -1
                want = ref * num * den.invert()
                assert all(type(v) is int for v in step)
                assert [rational(v, D**n) for n, v in enumerate(step, c)] == want.coeffs[c:]
                assert not any(want.coeffs[:c])


def test_theta_partial_values():
    # the flavor-01 sum of the symmetric closed forms is a partial theta sum
    t = _symmetric_sum(1, 2, "01", 30)
    assert [n for n, c in enumerate(t) if c] == [1, 4, 9, 16, 25]
    t = _symmetric_sum(1, 3, "01", 25)
    assert [n for n, c in enumerate(t) if c] == [1, 5, 12, 22]
    assert _symmetric_sum(3, 5, "01", 20)[3] == 1  # lowest term is q^a
    with pytest.raises(InvalidParameterError):
        bias_series_symmetric(0, 2, "01", 10)


# -- truncation consistency ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(int_series, int_series)
def test_truncation_consistency(s1, s2):
    def cut(s, order):
        return TruncatedSeries(s.coeffs[: order + 1])

    for op in (add, lambda a, b: a * b):
        full = cut(op(s1, s2), 10)
        small = op(cut(s1, 10), cut(s2, 10))
        assert full.coeffs == small.coeffs
    cs = list(s1.coeffs)
    cs[0] = 1
    u = TruncatedSeries(cs)
    assert cut(u.invert(), 9).coeffs == cut(u, 9).invert().coeffs


# -- numeric evaluation -----------------------------------------------------------------


def test_evaluate_constant():
    r = evaluate_numeric(one(5), 0.3)
    assert r.value == 1.0 and not r.tail_alarm


def test_evaluate_geometric():
    r = evaluate_numeric(geometric(60), 0.5)
    assert abs(r.value - 2.0) < 1e-12
    assert not r.tail_alarm


def test_evaluate_euler_inverse_against_direct_product():
    s = pochhammer_product(1, -1, 1, 1, 50).invert()
    r = evaluate_numeric(s, 0.1)
    direct = 1.0
    for j in range(1, 200):
        direct *= 1.0 - 0.1**j
    assert abs(r.value - 1.0 / direct) < 1e-12
    assert not r.tail_alarm


def test_evaluate_preconditions_and_alarm():
    s = geometric(5)
    with pytest.raises(InvalidParameterError):
        evaluate_numeric(s, 1.0)
    assert evaluate_numeric(s, 0.9).tail_alarm  # N far too small at q0 = 0.9
