"""Cross-method agreement and landmark values for the bias engines."""

import inspect
import math
import pickle
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qbias import (
    BiasSpec,
    InvalidParameterError,
    bias_series_dp,
    bias_series_gf,
    bias_series_symmetric,
    compare_bias,
    monotonicity_check,
    nonneg_expand,
    oracle_bias,
    rational,
    symmetric_distinct_pair,
    total_weighted_series,
    TruncatedSeries,
)
import qbias.kernel
import qbias.oracle
import qbias.engine as engine
from qbias.engine import _gf_graded, _gf_ladder, _prefactor_graded, _total_graded
from qbias.kernel import (Lists, Slots, add_shifted, div1, mul_trunc, progression, scaled_weights,
                          ungrade)
from reference import add, shift

WEIGHT_GRID = [(1, 0), (0, 1), (1, 1), (2, 1), (rational(3, 2), rational(1, 2))]


def naive_double_sum(spec, N):
    """Direct sum over index pairs n1 > n with full series products.

    Slow reference built only from TruncatedSeries products and the dense
    helpers of tests/reference.py; exercises none of the engine's
    incremental machinery.
    """
    x, y = spec.x, spec.y
    a, b, m = spec.a, spec.b, spec.m
    one = TruncatedSeries([1] + [0] * N)

    def ladder(k):
        acc = one
        for j in range(k):
            e = j * m
            co = [rational(0)] * (N + 1)
            co[0] = x
            if e <= N:
                co[e] += y
            acc = acc * TruncatedSeries(co)
        for j in range(1, k + 1):
            if j * m <= N:
                fac = [rational(0)] * (N + 1)
                fac[0] = rational(1)
                fac[j * m] = rational(-1)
                acc = acc * TruncatedSeries(fac).invert()
        return acc

    total = TruncatedSeries([0] * (N + 1))
    n1 = 1
    while a * n1 <= N:
        un1 = shift(ladder(n1), a * n1)
        n = 0
        while n < n1 and a * n1 + b * n <= N:
            total = add(total, un1 * shift(ladder(n), b * n))
            n += 1
        n1 += 1

    pref = one
    for e in range(1, N + 1):
        co = [rational(0)] * (N + 1)
        co[0] = rational(1)
        co[e] = y
        pref = pref * TruncatedSeries(co)
    for e in range(1, N + 1):
        co = [rational(0)] * (N + 1)
        co[0] = rational(1)
        co[e] = -x
        pref = pref * TruncatedSeries(co).invert()
    for e0 in (a, b):
        for e in range(e0, N + 1, m):
            co = [rational(0)] * (N + 1)
            co[0] = rational(1)
            co[e] = -x
            pref = pref * TruncatedSeries(co)
            co2 = [rational(0)] * (N + 1)
            co2[0] = rational(1)
            co2[e] = y
            pref = pref * TruncatedSeries(co2).invert()
    return pref * total


@pytest.mark.parametrize("abm", [(1, 2, 2), (2, 1, 2), (1, 2, 3), (2, 3, 4), (1, 4, 5)])
@pytest.mark.parametrize("xy", WEIGHT_GRID)
def test_gf_dp_oracle_agree(abm, xy):
    a, b, m = abm
    spec = BiasSpec(a, b, m, *xy)
    gf = bias_series_gf(spec, 16)
    dp = bias_series_dp(spec, 16)
    assert gf == dp
    for n in range(17):
        assert rational(gf.coeffs[n]) == rational(oracle_bias(spec, n))


def test_gf_matches_naive_reference():
    # x = 0 rows vanish past their quadratic order; D = 3; y = 0 with a > b
    for spec in (BiasSpec(1, 2, 2, 1, 1), BiasSpec(2, 3, 4, rational(3, 2), rational(1, 2)),
                 BiasSpec(1, 3, 3, 0, 1), BiasSpec(3, 1, 4, 2, 0),
                 BiasSpec(1, 3, 4, 0, 2), BiasSpec(2, 1, 5, rational(1, 3), rational(2, 3)),
                 BiasSpec(5, 2, 6, rational(1, 2), 0)):
        fast = bias_series_gf(spec, 30)
        slow = naive_double_sum(spec, 30)
        assert [rational(c) for c in fast.coeffs] == slow.coeffs


def dense_rung(co, P, Q, D, c, e, f, N):
    # co * q^c (x + y q^e) / (1 - q^f) with x = P/D, y = Q/D as a full
    # D^n-graded list from q^0, zeros below q^c included
    out = [0] * (N + 1)
    if P and c <= N:
        add_shifted(out, c, co, P * D ** (c - 1))
    if Q and c + e <= N:
        add_shifted(out, c + e, co, Q * D ** (c + e - 1))
    if f <= N:
        div1(out, f, D**f, N)
    return out


def dense_double_sum(spec, N):
    """The gf double sum with every row, the suffix and the Horner
    accumulator kept as full N+1 lists."""
    a, b, m = spec.a, spec.b, spec.m
    P, Q, D = scaled_weights(spec.x, spec.y)
    rows = [[1] + [0] * N]
    while any(rows[-1]):
        k = len(rows)
        rows.append(dense_rung(rows[-1], P, Q, D, a, (k - 1) * m, k * m, N))
    rows.pop()
    graded = [0] * (N + 1)
    if len(rows) > 1:
        suffix = [0] * (N + 1)
        acc = [0] * (N + 1)
        for n in range(len(rows) - 2, -1, -1):
            add_shifted(suffix, 0, rows[n + 1])
            acc = dense_rung(acc, P, Q, D, b, n * m, (n + 1) * m, N)
            add_shifted(acc, 0, suffix)
        prefactor = _prefactor_graded(min(a, b), max(a, b), m, P, Q, D, N)
        graded = mul_trunc(prefactor, acc, N)
    return TruncatedSeries(ungrade(graded, D))


def in_both_forms(orders):
    """Each order N with the gf's crossover ``_SLOT_BITS`` unbounded, id N,
    and at 0, id N-lists.  Every order here sits below the crossover, so
    unbounded is the form the gf picks (kernel.Slots) and 0 keeps the plain
    lists covered."""
    return pytest.mark.parametrize("N, slot_bits", [
        pytest.param(N, bits, id=f"{N}{tag}")
        for bits, tag in ((math.inf, ""), (0, "-lists")) for N in orders])


def forbid_mul_trunc(monkeypatch):
    # the gf takes its prefactor class factor by class factor on masked
    # lanes, a lone pair too, never through mul_trunc, in either form;
    # dense_double_sum applies it with mul_trunc itself
    def fail(*args):
        raise AssertionError("the gf called mul_trunc")

    monkeypatch.setattr(engine, "mul_trunc", fail)


def spy_forms(monkeypatch):
    # the form of each ladder the gf builds, in the order of the calls
    forms = []
    real = engine._gf_ladder
    monkeypatch.setattr(engine, "_gf_ladder", lambda *args: forms.append(args[-1]) or real(*args))
    return forms


@in_both_forms([1, 2, 13, 60])
def test_gf_matches_dense_double_sum(N, slot_bits, monkeypatch):
    monkeypatch.setattr(engine, "_SLOT_BITS", slot_bits)
    forbid_mul_trunc(monkeypatch)
    # every a != b with m <= 6, plus classes and moduli beyond N; x = 0,
    # y = 0, denominators 2 and 3, and weights on both sides of the gf's
    # final-multiply split
    specs = [(a, b, m) for m in range(2, 7) for a in range(1, m + 1)
             for b in range(1, m + 1) if a != b]
    specs += [(N + 1, 1, N + 2), (1, N + 2, N + 3), (2, 1, N + 4)]
    weights = [(1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (0, rational(3, 2)), (rational(5, 2), 0),
               (rational(1, 3), rational(2, 3))]
    for abm in specs:
        for xy in weights:
            spec = BiasSpec(*abm, *xy)
            got, want = bias_series_gf(spec, N), dense_double_sum(spec, N)
            assert got.coeffs == want.coeffs, spec
            assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), spec


@lru_cache(maxsize=None)
def dense_graded(spec, N):
    # dense_double_sum is the slow side of the group tests, and both forms
    # compare with the same one
    return dense_double_sum(spec, N).coeffs


@in_both_forms([1, 2, 13, 60])
def test_gf_graded_partners_match_single_runs_and_dense_sum(N, slot_bits, monkeypatch):
    monkeypatch.setattr(engine, "_SLOT_BITS", slot_bits)
    forbid_mul_trunc(monkeypatch)
    # one call over every ordered pair of a group, given out of order: the
    # smallest class builds the one ladder, every other class moves its rows
    # up, each partner's Horner pass stops at its own
    # cut N - cum_n, and at every weight each class factor acts once on the
    # masked lanes of the pairs that avoid it.  m = 2 (no class factor), m > N,
    # partners b > N/2 and b > N, x = 0 (the quadratic cut), y = 0 and
    # D = 1, 2, 3
    weights = [(1, 1), (0, 1), (0, 2), (rational(1, 3), rational(2, 3)), (rational(1, 2), 1),
               (rational(3, 2), 0), (rational(5, 2), rational(1, 2)), (2, 1), (3, 0),
               (0, rational(3, 2))]
    near = {1, 2, 3, N // 2 + 1, N, N + 1, N + 2, N + 3}
    groups = [(m, range(1, m + 1)) for m in (2, 3, 5, 7, 8)] + [(N + 3, sorted(near))]
    for m, classes in groups:
        pairs = [(a, b) for a in classes for b in classes if a != b]
        pairs = pairs[1::2] + pairs[::2][::-1]  # out of order
        for xy in weights:
            P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
            together = _gf_graded(pairs, m, P, Q, D, N)
            assert sorted(together) == sorted(pairs), (m, xy)
            for (a, b), graded in together.items():
                assert graded == _gf_graded([(a, b)], m, P, Q, D, N)[a, b], (a, b, m, xy)
                assert ungrade(graded, D) == dense_graded(BiasSpec(a, b, m, *xy), N), (a, b, m, xy)


@in_both_forms([13, 14, 60])
def test_gf_graded_lanes_fill_their_width(N, slot_bits, monkeypatch):
    # class 1 against partners beyond N, where p_n(1,b) nearly equals the
    # total p_n(x,y), and below it: with x = 5/2 (D = 2) or an integer
    # x >= 2 every lane's result needs all K bits of the bound.  Lanes and
    # slots take W, K rounded up to whole bytes; K = 16, 32 and 64 (N = 13,
    # 60) fill W, and K = 17 (N = 14) needs the byte that one bit fewer
    # would leave out
    monkeypatch.setattr(engine, "_SLOT_BITS", slot_bits)
    forms = spy_forms(monkeypatch)
    m = N + 3
    pairs = [(1, b) for b in (N + 1, 2, N + 2, 3, N // 2)]
    for xy in [(rational(5, 2), rational(1, 2)), (rational(5, 2), 0), (2, 1), (3, 0)]:
        P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
        K = max(_total_graded(P, Q, D, N)).bit_length()
        forms.clear()
        together = _gf_graded(pairs, m, P, Q, D, N)
        [form] = forms
        assert form.W == 8 * -(-K // 8) if slot_bits else isinstance(form, Lists), xy
        assert [max(together[pair]).bit_length() for pair in pairs] == [K] * len(pairs), xy
        for (a, b), graded in together.items():
            assert graded == _gf_graded([(a, b)], m, P, Q, D, N)[a, b], (b, xy)
            dense = dense_double_sum(BiasSpec(a, b, m, *xy), N)
            assert ungrade(graded, D) == dense.coeffs, (b, xy)


def spy_lane_passes(monkeypatch):
    # (slots, args, result) of each class-loop pass: slots is the
    # kernel.Slots of a packed pass, None for one on a list of lane ints
    # (kernel.Lists); the total and the prefactor call the module's
    # progression, which this leaves alone
    passes = []
    packed, lists = Slots.progression, Lists.progression

    def in_slots(self, *args):
        out = packed(self, *args)
        passes.append((self, args, out))
        return out

    def in_lists(*args):
        out = lists(*args)
        passes.append((None, args, out))
        return out

    monkeypatch.setattr(Slots, "progression", in_slots)
    monkeypatch.setattr(Lists, "progression", staticmethod(in_lists))
    return passes


def lanes_of(co, k, wb, N):
    # the k lanes of wb bytes in each of the N + 1 entries of a class-loop
    # list, packed in one int or one int an entry
    S = k * wb
    if isinstance(co, int):
        assert 0 <= co < 1 << 8 * S * (N + 1)
        buf = co.to_bytes(S * (N + 1), "little")
    else:
        assert len(co) == N + 1
        buf = b"".join(v.to_bytes(S, "little") for v in co)
    return [[int.from_bytes(buf[n * S + i * wb:n * S + (i + 1) * wb], "little") for n in range(N + 1)]
            for i in range(k)]


def test_group_lanes_rise_to_their_final_values(monkeypatch):
    # each class factor g_r = (-yq^r;q^m)_inf / (xq^r;q^m)_inf has
    # non-negative coefficients and constant term 1, so after each one a
    # pair's lane lies between its previous value and its final value, the
    # graded p_n(a,b,m;x,y) < 2^W: the lanes split exactly between classes.
    # Lane i holds the i-th pair of the result; the lanes of the pairs that
    # hold r are masked out of g_r's passes and left as they were.  Narrow
    # weights, x in {0, 1} with integer y, take the same loop; the narrow
    # groups of m = 3 run it packed, the rest on a list of lane ints
    passes = spy_lane_passes(monkeypatch)
    N = 60
    seen = set()
    for m in (3, 5, 7):
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        for xy in [(rational(3, 2), rational(1, 2)), (2, 1), (3, 0), (rational(5, 2), 0), (1, 1),
                   (0, 1)]:
            P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
            wb = -(-max(_total_graded(P, Q, D, N)).bit_length() // 8)
            top = 1 << 8 * wb
            passes.clear()
            result = _gf_graded(pairs, m, P, Q, D, N)
            keys, k = list(result), len(result)
            chains = {}  # each pair's lane before its first class and after each
            for (slots, first, _), (_, second, after) in zip(passes[::2], passes[1::2]):
                seen.add(slots is not None)
                r = first[2]
                assert first[3:] == (m, 1, D, N) and second[2:] == (r, m, -1, D, N), (m, xy)
                before, after = lanes_of(first[0], k, wb, N), lanes_of(after, k, wb, N)
                for key, u, w in zip(keys, before, after):
                    if r in key:
                        assert not any(u) and not any(w), (key, r, m, xy)
                    else:
                        chain = chains.setdefault(key, [u])
                        assert chain[-1] == u, (key, r, m, xy)
                        chain.append(w)
            for (a, b), final in result.items():
                chain = chains[a, b]
                assert chain[-1] == final and len(chain) == m - 1, (a, b, m, xy)
                for before, after in zip(chain, chain[1:]):
                    assert all(0 <= u <= v <= w < top for u, v, w in zip(before, after, final)), \
                        (a, b, m, xy)
    assert seen == {True, False}


@pytest.mark.parametrize("slot_bits", [math.inf, 0], ids=["slots", "lists"])
def test_class_rows_are_the_smallest_class_rows_moved_up(slot_bits):
    # A_k = q^{ak} L_k and L_k does not depend on a, so class a's row k is
    # class lo's moved up (a - lo) k places: lo's tail cut at q^N and graded
    # by D^((a - lo) k), the rows class a would build itself, in either
    # form.  D = 1, 2, 3, x = 0 (rows spaced quadratically), y = 0, m > N
    # and classes whose rows pass q^N sooner, or at once
    N = 40
    weights = [(1, 1), (2, 1), (0, 1), (0, rational(3, 2)), (rational(3, 2), rational(1, 2)),
               (rational(1, 3), rational(2, 3)), (rational(5, 2), 0)]
    for xy in weights:
        P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
        wb = -(-max(_total_graded(P, Q, D, N)).bit_length() // 8)
        form = Slots(wb) if 8 * wb <= slot_bits else Lists(wb)
        for m in (2, 3, 7, N + 2):
            for lo in (1, 2, 5):
                rows = _gf_ladder(lo, m, P, Q, D, N, form)
                for a in (lo + 1, lo + 2, lo + 7, N, N + 1):
                    moved = [engine._class_row(row, k, a - lo, D, N, form)
                             for k, row in enumerate(rows, 1)]
                    want = _gf_ladder(a, m, P, Q, D, N, form)
                    assert moved == want + [None] * (len(rows) - len(want)), (xy, m, lo, a)


def test_prefactor_is_bounded_by_the_total():
    # the gf's width W, read from the total, rests on the prefactor (the
    # product of the class factors g_r outside {a, b}) having non-negative
    # coefficients and constant term 1: then T_0 <= p(a,b,m;x,y) <= total,
    # and every lane of the class loop rises to its final value below 2^W.
    # A sub-product of the total, its coefficients lie in [0, total]
    N = 200
    for P, Q in [(x, y) for x in (0, 1) for y in range(4) if x or y]:
        total = _total_graded(P, Q, 1, N)
        for m in range(2, 8):
            for lo in range(1, m):
                for hi in range(lo + 1, m + 1):
                    prefactor = _prefactor_graded(lo, hi, m, P, Q, 1, N)
                    assert all(0 <= c <= t for c, t in zip(prefactor, total)), (lo, hi, m, P, Q)
                    assert len(prefactor) == len(total) == N + 1


@in_both_forms([600])
def test_symmetric_closed_forms_match_the_gf_at_depth(N, slot_bits, monkeypatch):
    # coefficients here are 54-99 bits wide, past one machine word, which
    # the forced-form tests above never reach
    monkeypatch.setattr(engine, "_SLOT_BITS", slot_bits)
    widest = 0
    for a, m in [(1, 3), (2, 5)]:
        for flavor, xy in engine.FLAVOR_XY.items():
            sym = bias_series_symmetric(a, m, flavor, N).coeffs
            assert sym == bias_series_gf(BiasSpec(a, m - a, m, *xy), N).coeffs, (a, m, flavor)
            widest = max(widest, max(sym).bit_length())
    assert widest > 64


def test_factor_path_pass_count(monkeypatch):
    # every pair of a group takes 2 passes per class r <= min(m, N) outside
    # it that some pair of its group avoids, on its lanes, packed or not:
    # none at m = 2, 2 (N - 2) for one pair (and its swap) with m > N, and
    # 2 m for a whole group.  A pair with a > N has T_0 = 0 and takes none.
    # A lone pair is a group of one lane and takes the same passes, at every
    # weight
    passes = spy_lane_passes(monkeypatch)
    N = 40
    every = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b]
    cases = [(7, [(2, 5)], 2 * 5), (7, [(7, 1)], 2 * 5), (2, [(1, 2)], 0),
             (N + 9, [(1, 2)], 2 * (N - 2)), (N + 20, [(50, 1)], 0),
             (N + 20, [(50, 1), (1, 50)], 2 * (N - 1)), (7, [(2, 5), (5, 2)], 2 * 5),
             (7, [(2, 1), (2, 5)], 2 * 6), (7, every, 2 * 7), (2, [(1, 2), (2, 1)], 0),
             (N + 9, [(1, 2), (2, 1)], 2 * (N - 2))]
    for x, y in [(rational(3, 2), rational(1, 2)), (2, 1), (3, 0), (1, 1), (0, 1)]:
        P, Q, D = scaled_weights(rational(x), rational(y))
        for m, pairs, count in cases:
            passes.clear()
            _gf_graded(pairs, m, P, Q, D, N)
            assert len(passes) == count, (x, y, m, pairs)


def test_class_loop_form_follows_lane_width(monkeypatch):
    # the class loop packs its K lanes of W bits into one int when K W is at
    # most _SLOT_BITS, with K W-bit slots an entry, and keeps a list of lane
    # ints otherwise: packed for a compare's two lanes at the narrow deep
    # orders, a list for x = 2 at N = 800 and for a whole m = 6 sweep group
    passes = spy_lane_passes(monkeypatch)
    six = [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b]
    cases = [((0, 1), [(1, 3), (3, 1)], 6, 2000, True), ((1, 1), [(2, 5), (5, 2)], 6, 800, True),
             ((2, 1), [(2, 5), (5, 2)], 6, 800, False), ((1, 1), six, 6, 150, False),
             ((rational(3, 2), 1), six, 6, 150, False)]
    for xy, pairs, m, N, packed in cases:
        P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
        wb = -(-max(_total_graded(P, Q, D, N)).bit_length() // 8)
        assert (8 * len(pairs) * wb <= engine._SLOT_BITS) == packed, (xy, N)
        passes.clear()
        _gf_graded(pairs, m, P, Q, D, N)
        assert passes, (xy, N)
        for slots, _, _ in passes:
            assert (slots.W == 8 * len(pairs) * wb) if packed else slots is None, (xy, N)


@pytest.mark.parametrize("N", [0, 1, 13, 300])
def test_prefactor_factors_match_dense_multiply(N):
    # the gf's factor-path prefactor, g_r = (-yq^r;q^m)_inf / (xq^r;q^m)_inf
    # for each class r <= min(m, N) outside {a, b} as two progression
    # passes, on a list that holds a series from q^o on, against the cached
    # total-based prefactor times the list; m = 2 (and classes beyond N)
    # give the empty product.  D = 1, 2, 3, x = 0 and y = 0, weights on
    # both sides of the gf's split
    weights = [(1, 1), (0, 1), (1, 0), (2, 1), (0, 3), (3, 0), (rational(3, 2), rational(1, 2)),
               (0, rational(5, 2)), (rational(4, 3), 0)]
    classes = [(1, 2, 3), (5, 2, 7), (2, 1, 2)] + ([(2, 1, N + 2)] if N < 300 else [])
    for a, b, m in classes:
        for xy in weights:
            P, Q, D = scaled_weights(rational(xy[0]), rational(xy[1]))
            prefactor = _prefactor_graded(min(a, b), max(a, b), m, P, Q, D, N)
            for o in sorted({0, min(N, 1), N // 3, N}):
                co = [0] * o + [(-1) ** j * (7 * j + 1) * D ** (o + j) for j in range(N - o + 1)]
                got = co
                for r in range(1, min(m, N) + 1):
                    if r not in (a, b):
                        got = progression(progression(got, Q, r, m, 1, D, N), -P, r, m, -1, D, N)
                assert got == mul_trunc(prefactor, co, N), (a, b, m, xy, o)


def test_bias_starts_at_q_a():
    spec = BiasSpec(3, 5, 6, 1, 1)
    series = bias_series_gf(spec, 20)
    assert all(c == 0 for c in series.coeffs[:3])
    assert series.coeffs[3] == 2  # single part 3, as lambda or as mu


def test_parity_landmark_partitions():
    rep = compare_bias(BiasSpec(1, 2, 2, 1, 0), 100)
    assert rep.violations == []
    assert rep.zero_indices == [0, 2]


def test_parity_landmark_distinct():
    rep = compare_bias(BiasSpec(1, 2, 2, 0, 1), 200)
    early = [n for n in rep.violations if n <= 19]
    late = [n for n in rep.violations if n > 19]
    assert early, "strict inequality must fail somewhere below 20"
    assert late == []
    # strictness after 19: no ties either
    assert all(s > 0 for s in rep.signs[20:])


def test_symmetric_flavors_match_dp():
    for (a, m) in [(1, 3), (1, 4), (2, 5)]:
        for flavor, xy in (("01", (0, 1)), ("10", (1, 0)), ("11", (1, 1))):
            sym = bias_series_symmetric(a, m, flavor, 120)
            dp = bias_series_dp(BiasSpec(a, m - a, m, *xy), 120)
            assert sym.coeffs == dp.coeffs


def test_symmetric_example_values():
    s = bias_series_symmetric(1, 3, "01", 60)
    assert s.coeffs[1] == 1
    d = bias_series_dp(BiasSpec(1, 2, 3, 0, 1), 60)
    assert s.coeffs == d.coeffs


def test_symmetric_product_identity():
    # the distinct-part symmetric series equals the doubled-parts product
    # form (-q;q)_inf / ((-q^a, -q^{m-a}, q^m;q^m)_inf) * theta partial sum
    from qbias import pochhammer_product

    for (a, m) in [(1, 3), (2, 5), (1, 4)]:
        N = 150
        pref = pochhammer_product(1, 1, 1, 1, N)
        pref = pref * pochhammer_product(1, 1, a, m, N).invert()
        pref = pref * pochhammer_product(1, 1, m - a, m, N).invert()
        pref = pref * pochhammer_product(1, -1, m, m, N).invert()
        theta = [0] * (N + 1)  # sum_{n>=1} q^{m n(n-1)/2 + a n}
        for n in range(1, N + 1):
            if m * n * (n - 1) // 2 + a * n <= N:
                theta[m * n * (n - 1) // 2 + a * n] = 1
        lhs = pref * TruncatedSeries(theta)
        assert lhs.coeffs == bias_series_symmetric(a, m, "01", N).coeffs


def test_symmetric_rejects_bad_classes():
    with pytest.raises(InvalidParameterError):
        bias_series_symmetric(2, 4, "01", 20)  # a = m/2
    with pytest.raises(InvalidParameterError):
        bias_series_symmetric(3, 5, "01", 20)  # a > m/2
    with pytest.raises(InvalidParameterError):
        bias_series_symmetric(1, 3, "xx", 20)


def test_gf_modulus_beyond_order(monkeypatch):
    # with m > N only the parts a and b themselves fall in the classes, so
    # any such m gives the same series; graded powers D^m must not be built
    x = rational(3, 2)
    want = bias_series_gf(BiasSpec(1, 2, 21, x, 1), 20).coeffs
    assert bias_series_gf(BiasSpec(1, 2, 10**8, x, 1), 20).coeffs == want
    # nor in packed slots and group lanes, which several pairs take; no class
    # factor above q^N is applied
    P, Q, D = scaled_weights(x, rational(1))
    forms = spy_forms(monkeypatch)
    pairs = [(1, 2), (1, 3)]
    assert _gf_graded(pairs, 10**8, P, Q, D, 20) == _gf_graded(pairs, 21, P, Q, D, 20)
    assert len(forms) == 2 and all(isinstance(form, Slots) for form in forms)


def test_symmetric_distinct_pair_swap():
    fwd, rev = symmetric_distinct_pair(2, 5, 100)
    assert fwd.coeffs == bias_series_gf(BiasSpec(2, 3, 5, 0, 1), 100).coeffs
    assert rev.coeffs == bias_series_gf(BiasSpec(3, 2, 5, 0, 1), 100).coeffs


def test_dp_and_oracle_do_not_use_the_kernel():
    # gf, dp and the oracle cross-check each other only while dp and the
    # oracle build nothing with the generating-function product kernel
    kernel_names = {"kernel", "progression", "mul1", "div1", "mul_trunc",
                    "rung", "add_shifted",
                    "euler", "jacobi", "div_sparse", "quotient",
                    "_kronecker", "_pack"}
    assert not kernel_names & set(vars(qbias.oracle))
    assert not any(v is qbias.kernel or getattr(v, "__module__", None) == "qbias.kernel"
                   for v in vars(qbias.oracle).values())
    pattern = re.compile(r"\b(" + "|".join(sorted(kernel_names)) + r")\b")
    for obj in (qbias.oracle, bias_series_dp):
        assert not pattern.search(inspect.getsource(obj)), obj


def unfactored_dp(spec, N):
    """The excess-marker product with every part size in the marker dicts.

    Reference for ``bias_series_dp``, which folds the sizes outside classes
    a and b into a plain list: polys[n] maps each power of the excess
    marker t to its weighted pair count at q^n, and every size d multiplies
    in (1 + y w q^d)/(1 - x w q^d) with w = t, 1/t or 1.
    """
    a, b, m, x, y = spec.a, spec.b, spec.m, spec.x, spec.y
    if x.denominator == 1 and y.denominator == 1:
        x, y, zero = int(x), int(y), 0
    else:
        zero = rational(0)
    polys = [dict() for _ in range(N + 1)]
    polys[0][0] = 1
    am, bm = a % m, b % m
    for d in range(1, N + 1):
        r = d % m
        e = 1 if r == am else (-1 if r == bm else 0)
        for w, rows in ((x, range(d, N + 1)), (y, range(N, d - 1, -1))):
            if not w:
                continue
            for n in rows:
                src = polys[n - d]
                if src:
                    tgt = polys[n]
                    for te, c in src.items():
                        k = te + e
                        v = w * c
                        if k in tgt:
                            tgt[k] += v
                        else:
                            tgt[k] = v
    return [sum((c for te, c in poly.items() if te > 0), zero) for poly in polys]


@pytest.mark.parametrize("xy", [(1, 0), (0, 1), (1, 1), (2, 1), (0, rational(3, 2)),
                                (rational(3, 2), rational(1, 2)),
                                (rational(2, 3), rational(5, 7))])
def test_dp_matches_unfactored_reference(xy):
    # every a != b with m <= 7; for m = 2 every size is marked, for m >= 3
    # the free sizes meet the marked ones in the final convolution
    N = 40
    for m in range(2, 8):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a != b:
                    spec = BiasSpec(a, b, m, *xy)
                    want = unfactored_dp(spec, N)
                    got = bias_series_dp(spec, N).coeffs
                    assert got == want, spec
                    assert [type(v) for v in got] == [type(v) for v in want], spec


def test_total_weighted_series_values():
    assert total_weighted_series(1, 0, 10).coeffs == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert total_weighted_series(0, 1, 8).coeffs == [1, 1, 1, 2, 2, 3, 4, 5, 6]
    assert total_weighted_series(1, 1, 6).coeffs == [1, 2, 4, 8, 14, 24, 40]
    assert total_weighted_series(0, 0, 5).coeffs == [1, 0, 0, 0, 0, 0]


def test_coefficient_types_follow_the_weights():
    # integral weights give ints only; weights of denominator 2 give
    # rationals only, dp's empty sums included
    N = 40
    rat = type(rational(1, 2))
    for want, weights in ((int, [(1, 1), (2, 0), (0, 1)]),
                          (rat, [(rational(3, 2), rational(1, 2)), (0, rational(1, 2)),
                                 (1, rational(1, 2))])):
        for x, y in weights:
            spec = BiasSpec(1, 2, 3, x, y)
            got = [bias_series_gf(spec, N), bias_series_dp(spec, N),
                   total_weighted_series(x, y, N)]
            if x >= 1:
                got += [nonneg_expand("f_series", {"a": 2, "b": 3, "m": 5, "x": x, "y": y}, N),
                        nonneg_expand("maino", {"a": 1, "b": 2, "m": 4, "s": 3,
                                                "x": x, "y": y}, N),
                        nonneg_expand("andrews", {"a_seq": [1, 3, 5], "b_seq": [2, 4, 6],
                                                  "h": 1, "x": x, "y": y}, N)]
            for series in got:
                assert {type(v) for v in series.coeffs} == {want}, (x, y, series)
    got = [nonneg_expand("chern_corollary", {"m": 3, "s": 1}, N)]
    got += [bias_series_symmetric(1, 3, flavor, N) for flavor in ("01", "10", "11")]
    for series in got:
        assert {type(v) for v in series.coeffs} == {int}


def test_monotonicity_mod_m():
    for spec in (BiasSpec(1, 2, 2, 1, 0), BiasSpec(2, 3, 5, 1, 1), BiasSpec(1, 3, 4, 0, 1)):
        series = bias_series_gf(spec, 120)
        ok, bad = monotonicity_check(series.coeffs, spec.m)
        assert ok, f"monotonicity failed at {bad}"
    assert monotonicity_check([5, 5, 5, 5], 2) == (True, None)
    assert monotonicity_check([0, 1, 0, 2], 2)[0] is True
    assert monotonicity_check([3, 1, 2, 1], 2) == (False, 0)
    # at most m terms hold no pair c_n, c_{n+m} to compare
    for short in ([], [1], [2, 1]):
        with pytest.raises(InvalidParameterError):
            monotonicity_check(short, 2)


def test_compare_bias_report_shape():
    rep = compare_bias(BiasSpec(1, 2, 3, 1, 0), 30)
    assert rep.signs[0] == 0
    assert len(rep.values) == 31
    assert rep.violations == []


def test_orders_refuse_bools():
    # True is an int to isinstance; as an order it would give the series
    # [1, 2] of order 1
    spec = BiasSpec(1, 2, 3, 1, 1)
    for N in (True, False):
        for call in (lambda: total_weighted_series(1, 1, N), lambda: bias_series_gf(spec, N),
                     lambda: bias_series_dp(spec, N), lambda: compare_bias(spec, N)):
            with pytest.raises(InvalidParameterError):
                call()


def test_weights_refuse_bools_and_floats():
    # True would count as the weight 1 and 0.5 as one half, but 0.1 is the
    # binary fraction 3602879701896397/2^55, which made D = 2^55; ints,
    # rationals and "p/q" strings stay exact
    for x, y in [(0.5, 1), (1, True), (False, 1), (0.1, 1), (1, 2.0)]:
        for call in (lambda: BiasSpec(1, 2, 3, x, y), lambda: total_weighted_series(x, y, 3),
                     lambda: qbias.oracle.oracle_total(x, y, 3)):
            with pytest.raises(InvalidParameterError):
                call()
    spec = BiasSpec(1, 2, 3, "3/2", rational(1, 2))
    assert (spec.x, spec.y) == (rational(3, 2), rational(1, 2))
    assert total_weighted_series(2, "1/2", 3).coeffs == total_weighted_series(2, rational(1, 2), 3).coeffs


def test_compare_bias_matches_lone_runs():
    # with the gf, a pair and its swap are one group of two lanes; each
    # order must equal its own lone run, values and entry types, at m = 2
    # (no class factor), m > N, a > N (T_0 = 0), x = 0, x >= 2 and D = 2.
    # The dp runs each order on its own
    N = 30
    triples = [(1, 2, 2), (2, 1, 2), (1, 2, 3), (2, 5, 7), (3, 1, 4), (1, 2, N + 5),
               (N + 2, 1, N + 4)]
    weights = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (0, rational(3, 2)),
               (rational(3, 2), rational(1, 2))]
    for abm in triples:
        for xy in weights:
            spec = BiasSpec(*abm, *xy)
            for method, fn, n in (("gf", bias_series_gf, N), ("dp", bias_series_dp, 12)):
                rep = compare_bias(spec, n, method)
                for got, want in ((rep.values, fn(spec, n).coeffs),
                                  (rep.swapped_values, fn(spec.swapped(), n).coeffs)):
                    assert got == want, (spec, method)
                    assert list(map(type, got)) == list(map(type, want)), (spec, method)


def test_bias_spec_is_an_immutable_value():
    spec = BiasSpec(1, 2, 3, 1, 1)
    assert spec == BiasSpec(1, 2, 3, rational(1), rational(1))
    assert hash(spec) == hash(BiasSpec(1, 2, 3, rational(1), rational(1)))
    assert BiasSpec(a=1, b=2, m=3, x=1, y=1) == spec
    assert spec.swapped().swapped() == spec
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec) == "BiasSpec(a=1, b=2, m=3, x=Fraction(1, 1), y=Fraction(1, 1))"
    with pytest.raises(AttributeError):
        spec.a = 2
    with pytest.raises(InvalidParameterError):
        BiasSpec(1, 2, 3, 0, 0)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(min_value=1, max_value=m),
            st.integers(min_value=1, max_value=m),
        )
    ),
    st.sampled_from(WEIGHT_GRID),
)
def test_gf_dp_agree_random(abm, xy):
    m, a, b = abm
    if a == b:
        return
    spec = BiasSpec(a, b, m, *xy)
    assert bias_series_gf(spec, 25) == bias_series_dp(spec, 25)
