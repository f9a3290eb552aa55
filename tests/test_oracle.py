"""Ground-truth enumeration tests: everything here is checked against
values derivable by hand or by independent recounts."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qbias import (
    BiasSpec,
    InvalidParameterError,
    oracle_bias,
    oracle_total,
    rational,
    total_weighted_series,
)
from reference import distinct_partitions, partitions, residue_count

# first values of the classical counting sequences
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
DISTINCT_COUNTS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22]


def count(parts):
    return sum(1 for _ in parts)


def test_empty_partition():
    parts = list(partitions(0))
    assert parts == [()]
    assert sum(parts[0]) == 0
    assert len(parts[0]) == 0


def test_partition_counts():
    assert [count(partitions(n)) for n in range(15)] == PARTITION_COUNTS


def test_distinct_counts():
    assert [count(distinct_partitions(n)) for n in range(15)] == DISTINCT_COUNTS


def test_enumeration_shapes():
    for p in partitions(8):
        assert sum(p) == 8
        assert all(x >= y for x, y in zip(p, p[1:]))
    for p in distinct_partitions(9):
        assert sum(p) == 9
        assert all(x > y for x, y in zip(p, p[1:]))


def test_distinct_6_listing():
    got = sorted(distinct_partitions(6))
    assert got == [(3, 2, 1), (4, 2), (5, 1), (6,)]


def test_enumeration_cap():
    with pytest.raises(InvalidParameterError):
        oracle_total(1, 0, 37)


def test_residue_counts_sum_to_length():
    for n in range(12):
        for p in partitions(n):
            for m in (1, 2, 3, 5):
                assert sum(residue_count(p, a, m) for a in range(1, m + 1)) == len(p)


def test_residue_class_convention():
    # parts divisible by m count toward class m
    p = (6, 3, 2)
    assert residue_count(p, 3, 3) == 2  # 6 and 3
    assert residue_count(p, 2, 3) == 1


def test_oracle_total_specialisations():
    assert oracle_total(1, 0, 5) == 7
    assert oracle_total(0, 1, 6) == 4
    assert oracle_total(1, 1, 1) == 2
    assert oracle_total(0, 0, 0) == 1  # only the empty pair
    for n in range(10):
        assert oracle_total(1, 0, n) == PARTITION_COUNTS[n]
        assert oracle_total(0, 1, n) == DISTINCT_COUNTS[n]
    x, y = rational(3, 2), rational(1, 2)
    assert [oracle_total(x, y, n) for n in range(21)] == total_weighted_series(x, y, 20).coeffs


def test_bias_landmarks():
    s = BiasSpec(1, 2, 2, 1, 0)
    # at n = 0 only the empty pair exists, with excess 0: a rational 0
    for spec in (s, BiasSpec(1, 2, 3, rational(2, 3), rational(5, 7))):
        zero = oracle_bias(spec, 0)
        assert zero == 0 and type(zero) is type(rational(0))
    assert oracle_bias(s, 2) == 1
    assert oracle_bias(s.swapped(), 2) == 1  # equality at n = 2
    assert oracle_bias(s, 3) == 2
    s11 = BiasSpec(1, 2, 2, 1, 1)
    assert oracle_bias(s11, 1) == 2


def test_bias_swap_exchanges_roles():
    for (a, b, m) in [(1, 2, 3), (2, 3, 5), (1, 3, 4)]:
        s = BiasSpec(a, b, m, 1, 1)
        for n in range(8):
            direct = oracle_bias(BiasSpec(b, a, m, 1, 1), n)
            assert oracle_bias(s.swapped(), n) == direct


def test_bias_pair_bound():
    # both strict orders together never exceed the weighted total
    # (tie pairs are counted by neither side)
    for (a, b, m) in [(1, 2, 3), (2, 3, 4)]:
        for (x, y) in [(1, 0), (0, 1), (1, 1)]:
            s = BiasSpec(a, b, m, x, y)
            for n in range(10):
                both = oracle_bias(s, n) + oracle_bias(s.swapped(), n)
                assert both <= oracle_total(x, y, n)
    s = BiasSpec(1, 2, 2, 1, 1)
    for n in range(26):
        both = oracle_bias(s, n) + oracle_bias(s.swapped(), n)
        assert both <= oracle_total(1, 1, n)


def _direct_bias(a, b, m, x, y, n):
    """The defining pair sum, one pair (lam, mu) at a time."""
    total = 0
    for j in range(n + 1):
        for lam in partitions(j):
            for mu in distinct_partitions(n - j):
                excess = (residue_count(lam, a, m) + residue_count(mu, a, m)
                          - residue_count(lam, b, m) - residue_count(mu, b, m))
                if excess > 0:
                    total += x ** len(lam) * y ** len(mu)
    return total


_classes = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.tuples(st.integers(1, m), st.integers(1, m), st.just(m)).filter(
        lambda t: t[0] != t[1]))
# weights of different denominators exercise the oracle's common denominator
_weight = st.sampled_from([0, 1, 2, rational(1, 2), rational(3, 2), rational(2, 3),
                           rational(5, 7)])
_case = st.tuples(_classes, _weight, _weight, st.integers(min_value=0, max_value=10)).filter(
    lambda c: c[1] or c[2])


@settings(max_examples=60, deadline=None)
@given(st.lists(_case, min_size=1, max_size=4))
@example([((3, 1, 3), rational(3, 2), 0, 10), ((1, 3, 3), 0, rational(3, 2), 10),
          ((3, 1, 3), 1, 1, 9)])
@example([((1, 2, 3), rational(2, 3), rational(5, 7), 10),
          ((2, 1, 4), rational(5, 7), rational(3, 2), 9)])
def test_oracle_matches_direct_pair_sum(cases):
    # several specs per draw, so later calls read histograms and pair
    # terms memoised by earlier ones (in this draw or an earlier draw)
    for (a, b, m), x, y, n in cases:
        want = _direct_bias(a, b, m, rational(x), rational(y), n)
        assert oracle_bias(BiasSpec(a, b, m, x, y), n) == want


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        BiasSpec(1, 1, 3, 1, 0)
    with pytest.raises(InvalidParameterError):
        BiasSpec(0, 2, 3, 1, 0)
    with pytest.raises(InvalidParameterError):
        BiasSpec(1, 2, 3, -1, 0)
    with pytest.raises(InvalidParameterError):
        BiasSpec(1, 2, 3, 0, 0)
    # non-integer classes, which the engines would otherwise never match
    for a, b in ((1.5, 2), (1, 2.0)):
        with pytest.raises(InvalidParameterError):
            BiasSpec(a, b, 3, 1, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=14))
def test_counts_consistent_with_totals(n):
    assert oracle_total(1, 0, n) == count(partitions(n))
    assert oracle_total(0, 1, n) == count(distinct_partitions(n))
