"""The truncated list multiply and powered q-product rows against naive loops."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qbias.kernel as kernel
from qbias import TruncatedSeries, rational
from qbias.kernel import mul_trunc, qprod


def naive(a, b, N):
    out = [0] * (N + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= N:
                out[i + j] += x * y
    return out


def kronecker(a, b, N):
    # the Kronecker path with a slot wide enough for any product entry
    width = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
             + len(a).bit_length())
    return kernel._kronecker(a[:N + 1], b[:N + 1], N, width // 8 + 1)


@st.composite
def operands(draw):
    bits = draw(st.sampled_from((1, 3, 64, 300, 1000)))
    entry = st.integers(-(1 << bits), 1 << bits)
    a = draw(st.lists(entry, max_size=70))
    b = draw(st.lists(entry, max_size=70))
    sparse = draw(st.sampled_from(("a", "b", None)))
    if sparse == "a":
        a = [v if i % 9 == 0 else 0 for i, v in enumerate(a)]
    elif sparse == "b":
        b = [v if i % 9 == 0 else 0 for i, v in enumerate(b)]
    # N below, at and above the full product's degree len(a) + len(b) - 2
    N = max(0, len(a) + len(b) - 2 + draw(st.sampled_from((-9, -1, 0, 1, 9))))
    return a, b, N


@settings(max_examples=150, deadline=None)
@given(operands())
def test_mul_trunc_matches_naive_on_both_paths(ops):
    a, b, N = ops
    want = naive(a, b, N)
    assert mul_trunc(a, b, N) == want
    assert mul_trunc(b, a, N) == want
    if any(a) and any(b):
        assert kronecker(a, b, N) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), max_size=40),
       st.lists(st.fractions(max_denominator=50), max_size=40),
       st.integers(0, 90))
def test_mul_trunc_fraction_lists(a, b, N):
    assert mul_trunc(a, b, N) == naive(a, b, N)


def test_mul_trunc_dispatch(monkeypatch):
    calls = []
    real = kernel._kronecker

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernel, "_kronecker", spy)
    N = 300
    dense = [(-1) ** n * (n % 13 + 1) for n in range(N + 1)]
    # long dense small ints: Kronecker
    assert mul_trunc(dense, dense[::-1], N) == naive(dense, dense[::-1], N)
    # equal extreme entries: product coefficients reach the slot's bound
    top = [127] * 64
    assert mul_trunc(top, [-v for v in top], 126) == naive(top, [-v for v in top], 126)
    assert calls == [N, 126]
    # fewer than 16 nonzeros in either position, zero and empty lists,
    # short lists and wide entries: schoolbook
    sparse = [v if n % 25 == 0 else 0 for n, v in enumerate(dense)]
    wide = [v << 4000 for v in dense[:40]]
    for a, b, n in ((sparse, dense, N), (dense, sparse, N), ([0] * (N + 1), dense, N),
                    ([], dense, N), (dense[:20], dense[:20], 40), (wide, wide, 80)):
        assert mul_trunc(a, b, n) == naive(a, b, n)
    assert calls == [N, 126]


def test_mul_trunc_never_packs_fractions():
    # a dense Fraction list long enough for Kronecker must stay schoolbook
    # (Fraction has no bit_length), also when int zeros are mixed in
    N = 120
    a = [Fraction(n + 1, 2 + n % 3) for n in range(N + 1)]
    b = [0 if n % 2 else Fraction(-3, n + 1) for n in range(N + 1)]
    assert mul_trunc(a, b, N) == naive(a, b, N)
    assert mul_trunc(b, a, N) == naive(a, b, N)
    s = TruncatedSeries("rational", N, a) * TruncatedSeries("rational", N, b)
    assert s.coeffs == [rational(v) for v in naive(a, b, N)]


@pytest.mark.parametrize("power", [2, -2, 4, -4])
@pytest.mark.parametrize("D, N", [(1, 300), (2, 80)])
def test_qprod_powered_rows_match_repeated_rows(D, N, power):
    start = qprod([(3, range(1, N + 1, 2), 1)], N, D)
    sign = 1 if power > 0 else -1
    for u, exponents in ((-1, range(1, N + 1)), (5, range(3, N + 1, 4))):
        want = list(start)
        for _ in range(abs(power)):
            want = qprod([(u, exponents, sign)], N, D, want)
        co = list(start)
        assert qprod([(u, exponents, power)], N, D, co) is co
        assert co == want
