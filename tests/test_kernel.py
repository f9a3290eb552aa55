"""The truncated list multiply against naive loops; the ladder step's
offset convention, on lists and on packed slots; the bit-lane packing
under a linear factor; the progression products and the sparse Euler,
Jacobi and division passes against dense q-product tables; the fast paths
of the sparse division and the unit steps against their plain loops, type
by type; Gauss's identity for phi(-q^m)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qbias.engine as engine
import qbias.kernel as kernel
import reference
from qbias import TruncatedSeries, rational
from qbias.kernel import div_sparse, euler, jacobi, mul_trunc, progression, quotient, rung


def dense(table, N, D=1, co=None):
    # prod (1 + u D^(e-1) q^e)^power over a table of (u, exponents, power)
    # rows, one mul1 or div1 pass per factor
    if co is None:
        co = [1] + [0] * N
    for u, exponents, power in table:
        for e in exponents:
            if e <= N:
                if power > 0:
                    kernel.mul1(co, e, u * D ** (e - 1), N)
                else:
                    kernel.div1(co, e, -u * D ** (e - 1), N)
    return co


def naive(a, b, N):
    out = [0] * (N + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= N:
                out[i + j] += x * y
    return out


def typed(co):
    # entries with their types: 2 == Fraction(2), but not as typed entries
    return [(type(v), v) for v in co]


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
    s = TruncatedSeries(a) * TruncatedSeries(b)
    assert s.coeffs == [rational(v) for v in naive(a, b, N)]
    # a rational 1 is no int 1: it makes the int entries it meets rational
    assert typed(mul_trunc([Fraction(1), 0, 3], [2, 5, 7], 2)) == typed(
        [Fraction(2), Fraction(5), Fraction(13)])


# -- the ladder step returns its result from q^c on ---------------------------


def dense_rung(co, P, Q, D, c, e, f, N):
    # co * q^c (P/D + (Q/D) q^e) / (1 - q^f) on a full D^n-graded list
    out = [0] * (N + 1)
    for i, g in enumerate(co):
        if i + c <= N:
            out[i + c] += P * D ** (c - 1) * g
        if i + c + e <= N:
            out[i + c + e] += Q * D ** (c + e - 1) * g
    kernel.div1(out, f, D**f, N)
    return out


@pytest.mark.parametrize("D", [1, 2, 3])
def test_rung_steps_a_tail_like_the_full_list(D):
    # a list that starts at q^o, stepped with N - o, is the full-list step
    # from index o + c on
    N = 30
    for o in (0, 1, 4, 11):
        tail = [(-1) ** j * (3 * j + 1) for j in range(N - o + 1)]
        full = [0] * o + tail
        for P, Q in ((3, 5), (0, 5), (3, 0), (-2, 7)):
            for c, e, f in ((1, 0, 1), (2, 3, 4), (5, 0, 2), (3, 9, 31)):
                want = dense_rung(full, P, Q, D, c, e, f, N)
                got = rung(tail, P, Q, D, c, e, f, N - o)
                assert len(got) == max(0, N - o - c + 1)
                assert got == rung(full, P, Q, D, c, e, f, N)[o:] == want[o + c:]
                assert want[:o + c] == [0] * min(o + c, N + 1)


def test_rung_edges():
    co = [2, -1, 4, 0, 3]
    # empty once c passes N, whatever the weights
    for c in (5, 6, 100):
        assert rung(co, 3, 5, 2, c, 0, 1, 4) == []
    assert rung(co, 3, 5, 2, 4, 0, 1, 4) == [2 * (3 * 2**3 + 5 * 2**3)]
    # P = 0: the first e entries stay zero, the y term starts at index e
    for e in (0, 1, 3):
        got = rung(co, 0, 5, 3, 1, e, 7, 9)
        assert got[:e] == [0] * e and got[e] == 5 * 3**e * co[0]
        assert got == dense_rung(co, 0, 5, 3, 1, e, 7, 9)[1:]
    # a short input is read as zero past its end
    assert rung([1], 1, 0, 1, 1, 0, 2, 6) == [1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("D", [1, 2, 3])
def test_slots_rung_matches_the_list_step(D):
    # the packed step against rung on the non-negative cases above, at the
    # byte-rounded width of the widest entry read or made: tails from q^o,
    # c > N (empty, the int 0), x = 0 with the y term at e >= 1, f > N - c
    # (no geometric factor to cut the slots above q^(N-c)) and an input
    # shorter than the N - c + 1 entries read
    N = 30
    cases = []
    for o in (0, 1, 4, 11):
        tail = [3 * j + 1 for j in range(N - o + 1)]
        for P, Q in ((3, 5), (0, 5), (3, 0)):
            for c, e, f in ((1, 0, 1), (2, 3, 4), (5, 0, 2), (3, 9, 31), (N - o + 1, 0, 1)):
                cases.append((tail, P, Q, c, e, f, N - o))
    co = [2, 1, 4, 0, 3]
    cases += [(co, 3, 5, c, 0, 1, 4) for c in (4, 5, 6, 100)]
    cases += [(co, 0, 5, 1, e, 7, 9) for e in (0, 1, 3)]
    cases += [([1], 1, 0, 1, 0, 2, 6), ([1], 1, 1, 1, 2, 3, 8)]
    for co, P, Q, c, e, f, n in cases:
        want = rung(co, P, Q, D, c, e, f, n)
        slots = kernel.Slots(-(-max(co + want).bit_length() // 8))
        got = slots.rung(slots.pack(co), P, Q, D, c, e, f, n)
        assert slots.unpack(got, len(want)) == want, (co, P, Q, c, e, f, n)


@pytest.mark.parametrize("K", [1, 3, 8, 64])
def test_packed_lanes_take_a_linear_factor_exactly(K):
    # lanes h_i in [0, 2^K), the top value included, enter as (1 - q) h_i,
    # whose entries are negative too, each entry's column packed in byte
    # slots; one div1 by (1 - q) on the packed list must give every h_i
    # back.  A mask then selects some lanes, which take q = q (1 - q) /
    # (1 - q) through negative entries again, and added back to the rest
    # they leave the others untouched.  A lone lane packs as it is
    N = 9
    top = (1 << K) - 1
    slots = kernel.Slots(-(-K // 8))
    lanes = [[top] * (N + 1), [0] * (N + 1), [(j * 7919) & top for j in range(N + 1)],
             [top * (j & 1) for j in range(N + 1)], [top] + [0] * N]
    for k in (1, 2, len(lanes)):
        entering = [[h - p for h, p in zip(lane, [0] + lane)] for lane in lanes[:k]]
        packed = [slots.pack(column) for column in zip(*entering)]
        if k == 1:
            assert packed == entering[0]
        kernel.div1(packed, 1, 1, N)
        assert [list(lane) for lane in zip(*(slots.unpack(v, k) for v in packed))] == lanes[:k], k
        chosen = range(0, k, 2)
        mask = sum(((1 << slots.W) - 1) << slots.W * i for i in chosen)
        sel = [v & mask for v in packed]
        step = list(sel)
        kernel.mul1(step, 1, -1, N)
        out = [0] * (N + 1)
        kernel.add_shifted(out, 1, step)
        kernel.div1(out, 1, 1, N)
        packed = [v - s + t for v, s, t in zip(packed, sel, out)]
        want = [[0] + lane[:N] if i in chosen else lane for i, lane in enumerate(lanes[:k])]
        assert [list(lane) for lane in zip(*(slots.unpack(v, k) for v in packed))] == want, k


@pytest.mark.parametrize("power", [2, -2, 0, 3])
def test_qprod_rows_take_power_one_only(power):
    with pytest.raises(ValueError):
        progression([1] + [0] * 10, 1, 1, 1, power, 1, 10)


@pytest.mark.parametrize("N", [1, 2, 7, 200])
def test_progression_matches_dense_factors(N):
    # graded seeds with large entries; s and m up to 8, and s > N
    f = [(-1) ** n * pow(5, n, 10007) for n in range(N + 1)]
    for D in (1, 2, 3, 6):
        for power in (1, -1):
            for s in (1, 2, 5, 8, N + 1):
                for m in (1, 3, 8):
                    for u in (-3, -1, 0, 1, 2, 5):
                        want = dense([(u, range(s, N + 1, m), power)], N, D, list(f))
                        got = progression(f, u, s, m, power, D, N)
                        assert got == want, (D, power, s, m, u)
    # Fraction lists and weights at D = 1 stay Fraction
    g = [Fraction(n + 1, 1 + n % 4) for n in range(N + 1)]
    for power in (1, -1):
        for u in (Fraction(-3, 2), Fraction(2, 3)):
            got = progression(g, u, 2, 3, power, 1, N)
            assert got == dense([(u, range(2, N + 1, 3), power)], N, 1, list(g))
            assert {type(c) for c in got} == {Fraction}


@pytest.mark.parametrize("D", [1, 2])
def test_progression_steps_a_tail_like_the_full_list(D):
    # a list that holds a series from q^o on, taken with N - o as its order,
    # gives the full-list product from index o on
    N = 40
    for o in (0, 1, 6, 23, N):
        tail = [(-1) ** j * (3 * j + 1) for j in range(N - o + 1)]
        full = [0] * o + tail
        for power in (1, -1):
            for u, s, m in ((3, 1, 1), (-2, 2, 3), (5, 7, 4), (-1, N - o + 1, 2)):
                got = progression(tail, u, s, m, power, D, N - o)
                assert got == progression(full, u, s, m, power, D, N)[o:], (o, power, u, s, m)


# -- sparse Euler and Jacobi series against dense q-product tables ------------

ORDERS = [1, 7, 200, 1500]
PAIRS = [(1, 3), (2, 5), (2, 7), (3, 8)]


def dense_euler(s, N):
    return dense([(-1, range(s, N + 1, s), 1)], N)


def dense_jacobi(a, m, sign, N):
    # (-sign q^a, -sign q^{m-a}, q^m; q^m)_inf
    return dense([(sign, range(a, N + 1, m), 1), (sign, range(m - a, N + 1, m), 1),
                  (-1, range(m, N + 1, m), 1)], N)


@pytest.mark.parametrize("N", ORDERS)
def test_euler_and_jacobi_match_dense_products(N):
    for s in (1, 2, 3, 7):
        assert euler(s, N) == dense_euler(s, N), s
    for a, m in PAIRS:
        for sign in (1, -1):
            assert jacobi(a, m, sign, N) == dense_jacobi(a, m, sign, N), (a, m, sign)


@pytest.mark.parametrize("N", ORDERS)
def test_div_sparse_matches_repeated_div1(N):
    # divisors prod (1 - q^e) with repeated e (coefficients beyond +-1) and
    # (q;q)_inf, applied to a dense list with large entries
    f = [(-1) ** n * pow(7, n, 1000003) << (n % 50) for n in range(N + 1)]
    for exponents in ((2, 3, 3, 5), (1, 1, 4), range(1, N + 1)):
        s = dense([(-1, exponents, 1)], N)
        want = list(f)
        for e in exponents:
            if e <= N:
                kernel.div1(want, e, 1, N)
        co = list(f)
        assert div_sparse(co, s, N) is co
        assert co == want, exponents


@pytest.mark.parametrize("N", ORDERS)
def test_gauss_phi_times_e2m_is_em_squared(N):
    # Gauss: phi(-q^m) = sum_{n in Z} (-1)^n q^{m n^2} = E_m^2 / E_{2m}, the
    # triple product jacobi(m, 2m, -1), with E_s = (q^s;q^s)_inf
    for m in range(1, 13):
        phi = jacobi(m, 2 * m, -1, N)
        want = [0] * (N + 1)
        for n in range(-N, N + 1):
            if m * n * n <= N:
                want[m * n * n] += (-1) ** n
        assert phi == want, m
        assert mul_trunc(phi, euler(2 * m, N), N) == mul_trunc(euler(m, N), euler(m, N), N), m


@pytest.mark.parametrize("N", ORDERS)
def test_quotient_with_no_numerator_divides_only(N):
    parts = range(1, N + 1)
    assert quotient([], [], N) == [1] + [0] * N
    assert quotient([], [euler(1, N)], N) == dense([(-1, parts, -1)], N)
    # the overpartition total (-q;q)_inf / (q;q)_inf, as E_2 / E_1^2 and as 1/phi(-q)
    want = dense([(1, parts, 1), (-1, parts, -1)], N)
    assert quotient([], [jacobi(1, 2, -1, N)], N) == want
    assert quotient([euler(2, N)], [euler(1, N), euler(1, N)], N) == want


def dense_prefactor(a, m, flavor, N):
    # the symmetric prefactors as (1 +- q^e) tables, one row per factor power
    parts, evens = range(1, N + 1), range(2, N + 1, 2)
    mults, mults2 = range(m, N + 1, m), range(2 * m, N + 1, 2 * m)
    classes = [range(e0, N + 1, m) for e0 in (a, m - a)]
    if flavor == "01":
        table = ([(-1, evens, 1)] + [(1, c, -1) for c in classes]
                 + [(-1, mults, -1), (-1, parts, -1)])
    elif flavor == "10":
        table = [(-1, c, 1) for c in classes] + [(-1, parts, -1)] + [(-1, mults, -1)] * 2
    else:
        table = ([(-1, evens, 1)] + [(-1, mults2, 1)] * 2 + [(-1, c, 1) for c in classes]
                 + [(-1, parts, -1)] * 2 + [(-1, mults, -1)] * 4
                 + [(1, c, -1) for c in classes])
    return dense(table, N)


@pytest.mark.parametrize("N", ORDERS)
def test_symmetric_prefactors_and_unit_totals_match_dense_tables(N):
    for a, m in PAIRS:
        for flavor in ("01", "10", "11"):
            got = engine._symmetric_prefactor(a, m, flavor, N)
            assert got == dense_prefactor(a, m, flavor, N), (a, m, flavor)
    parts = range(1, N + 1)
    for (x, y), table in (((1, 0), [(-1, parts, -1)]),
                          ((0, 1), [(1, parts, 1)]),
                          ((1, 1), [(1, parts, 1), (-1, parts, -1)])):
        assert engine._total_graded(x, y, 1, N) == tuple(dense(table, N)), (x, y)


# -- the fast paths of the sparse division and unit steps, type by type ------


FAST_N = 12
FAST_LISTS = [
    [(-1) ** n * (3 * n + 1) for n in range(FAST_N + 1)],
    [Fraction((-1) ** n * (3 * n + 1), 1 + n % 4) for n in range(FAST_N + 1)],
    [Fraction(0) if n % 5 == 2 else (-1) ** n * (3 * n + 1) for n in range(FAST_N + 1)],
]
FAST_DIVISORS = [
    [1, -1, 1, 0, -1, 1, 0, 0, 1],  # int +-1 only
    [1, 2, 0, -2, 0, 0, 2],
    [1, Fraction(1), 0, Fraction(-1)],
    [1, 0, 0, Fraction(1, 2)],  # no term below q^3: c_1, c_2 keep their types
    [1, 0, 2, 0, Fraction(2)],  # equal values of two types
    [1, -1, 2, Fraction(1), 1, Fraction(2), Fraction(-1), Fraction(1, 2), -2, 0, 1, 2, -1],
    [1],
]


def test_div_sparse_matches_the_plain_loop_type_by_type():
    for co in FAST_LISTS:
        for s in FAST_DIVISORS:
            for N in (0, 1, 2, 5, FAST_N):
                want = reference.div_sparse(list(co), s, N)
                got = list(co)
                assert div_sparse(got, s, N) is got
                assert typed(got) == typed(want), (co, s, N)


def test_div1_matches_the_plain_loop_type_by_type():
    for co in FAST_LISTS:
        for u in (1, Fraction(1), -1, 2, Fraction(1, 2)):
            for e in (1, 2, 5):
                for N in (0, 4, FAST_N):
                    want, got = list(co), list(co)
                    reference.div1(want, e, u, N)
                    kernel.div1(got, e, u, N)
                    assert typed(got) == typed(want), (co, u, e, N)


def test_rung_matches_the_plain_loop_type_by_type():
    # the multipliers 1 and Fraction(1) on both weights, graded and not; an
    # empty tuple (the gf's zero accumulator) comes back as a list
    for co in FAST_LISTS + [(), [1]]:
        for P in (0, 1, Fraction(1), 2):
            for Q in (0, 1, Fraction(1), 3):
                for D in (1, 2):
                    for c, e, f in ((1, 0, 1), (2, 3, 4), (3, 0, 20)):
                        want = reference.rung(co, P, Q, D, c, e, f, FAST_N)
                        got = rung(co, P, Q, D, c, e, f, FAST_N)
                        assert type(got) is list
                        assert typed(got) == typed(want), (co, P, Q, D, c, e, f)
