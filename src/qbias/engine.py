"""Residue-class bias sequences by three independent exact methods.

The three routes to p_n(a,b,m;x,y):

  * ``bias_series_gf``        -- restricted double sum attached to the
    weighted generating function, with the weight factor rewritten as the
    polynomial prod_{j<k} (x + y q^{jm}) so x = 0 needs no limit argument;
  * ``bias_series_dp``        -- a product over part sizes carrying an
    excess marker t (class-a parts contribute t, class-b parts 1/t),
    followed by summing the positive t-powers;
  * ``bias_series_symmetric`` -- single-sum closed forms available when
    the classes are symmetric (b = m - a), cheap even at large order.

All methods are exact.  The double-sum engine works internally on plain
integers: a series with weight denominators D carries coefficient c_n
scaled by D^n (the weight degree at q^n never exceeds n, so the scaled
coefficients are integers).  Integer weights take the same path with no
scaling at all.
"""

from __future__ import annotations

from functools import lru_cache

from .biasspec import BiasSpec
from .kernel import (Lists, Slots, euler, jacobi, mul_trunc, progression, quotient, scaled_weights,
                     ungrade)
from .scalars import InvalidParameterError, nonneg_weight, positive_order, rational
from .series import TruncatedSeries

__all__ = [
    "BiasSpec",
    "BiasReport",
    "total_weighted_series",
    "bias_series_gf",
    "bias_series_dp",
    "bias_series_symmetric",
    "symmetric_distinct_pair",
    "compare_bias",
    "monotonicity_check",
]


# -- total weighted series ------------------------------------------------------


@lru_cache(maxsize=64)
def _total_graded(P, Q, D, N):
    """Graded coefficients of (-yq;q)_inf / (xq;q)_inf."""
    if D == 1 and P in (0, 1) and Q in (0, 1):
        # kept: faster than two progression sums at N = 2000, best of 7:
        # 2.1x for (1, 0), 1.7x for (0, 1), 4.8-5.9x for (1, 1) (0.0044 vs 0.023 s)
        # (-q;q)_inf^Q / (q;q)_inf^P = E_2^Q / E_1^(P+Q), E_s = (q^s;q^s)_inf,
        # and E_2 / E_1^2 = 1 / phi(-q), phi(-q) = jacobi(1, 2, -1) (Gauss)
        if P and Q:
            return tuple(quotient([], [jacobi(1, 2, -1, N)], N))
        return tuple(quotient([euler(2, N)] * Q, [euler(1, N)] * (P + Q), N))
    return tuple(progression(progression([1] + [0] * N, Q, 1, 1, 1, D, N), -P, 1, 1, -1, D, N))


def total_weighted_series(x, y, N: int) -> TruncatedSeries:
    """Coefficient of q^n is p_n(x,y), the total weighted pair count.

    (1,0) gives the partition numbers, (0,1) the distinct-partition
    numbers, (1,1) the overpartition numbers; (0,0) is the constant 1.
    """
    P, Q, D = scaled_weights(nonneg_weight(x), nonneg_weight(y))
    positive_order(N)
    return TruncatedSeries(ungrade(_total_graded(P, Q, D, N), D))


# -- the double-sum generating-function engine ---------------------------------


def _prefactor_graded(lo, hi, m, P, Q, D, N):
    """Graded coefficients of the double sum's product prefactor, as a new
    list.

    (-yq;q)_inf (xq^a, xq^b; q^m)_inf / ((xq;q)_inf (-yq^a, -yq^b; q^m)_inf):
    the total times each class side (xq^s;q^m)_inf / (-yq^s;q^m)_inf;
    symmetric under a <-> b, so callers pass the classes as lo <= hi.
    """
    co = _total_graded(P, Q, D, N)
    for s in (lo, hi):
        co = progression(progression(co, -P, s, m, 1, D, N), Q, s, m, -1, D, N)
    return co


# Widest slot, in bits, at which the gf's ladder and Horner lists are packed
# (kernel.Slots); wider entries stay in lists.  Ladder and Horner passes with
# the prefactor stage, packed CPU time over list time, CPython 3.11 on a
# 2-core x86-64 host.  One (2,5,6) run: 0.54-0.65 at W = 120-272 (x = y = 1,
# N = 800-4000); 0.78-0.87 at W = 112-224 (x = 0, N = 2000-8000); with
# x = 2, y = 1 (graded entries grow geometrically) 0.78 at W = 160, 0.91 at
# 304, 0.96 at 336, 1.00 at 360 and 1.08 at 408; with x = 3/2, y = 1/2 0.84
# at W = 248, 0.95 at 328, 1.02 at 344 and 1.10 at 408.  Every class of an
# m = 6 sweep group, 5 partners each: 0.81-0.93 at W = 248-312, 0.83-0.95 at
# 352 and 0.98 at 344 (x = 2, y = 1).
_SLOT_BITS = 352


def _form(wb):
    """The form of the gf's lists whose entries take wb bytes each."""
    return Slots(wb) if 8 * wb <= _SLOT_BITS else Lists(wb)


def _gf_ladder(a, m, P, Q, D, N, form):
    """The upward half of :func:`bias_series_gf` for class a: the rows
    A_k for k >= 1 as (offset, tail) pairs, each tail in ``form``, the same
    for every partner class b."""
    rows = [(0, form.pack([1]))]  # (offset, tail): A_k from its lowest term on
    while True:
        off, tail = rows[-1]
        k = len(rows)
        z = 0 if P else (k - 1) * m  # with x = 0, A_k starts y q^{(k-1)m} higher
        tail = form.rung(tail, P, Q, D, a + z, (k - 1) * m - z, k * m, N - off)
        # the first row that vanishes; a row's first entry is its lowest
        # term, nonzero while the row is (weights are not both 0)
        if not tail:
            break
        rows.append((off + a + z, tail))
    del rows[0]  # the sum starts at n1 = 1
    return rows


def _class_row(row, k, shift, D, N, form):
    """Row k of class lo + shift from row k of class lo, ``row`` = (offset,
    tail), or None once it starts above q^N.  A_k = q^{ak} L_k, so class
    a's row is lo's moved up (a - lo) k places: its tail is lo's cut to
    the N - offset + 1 entries left, times D^((a - lo) k) for the grading."""
    off, tail = row
    off += shift * k
    if off > N:
        return None
    return off, form.scale(form.head(tail, N - off + 1), D ** (shift * k))


def _gf_graded(pairs, m, P, Q, D, N):
    """p_n(a,b,m;x,y) D^n for n <= N, as {(a, b): list}, for the ordered
    pairs (a, b) of one group, by :func:`bias_series_gf`.  Only the
    group's smallest class lo builds a ladder (:func:`_gf_ladder`); every
    other class a reads its row k off lo's (:func:`_class_row`).  One
    Horner pass per pair goes down the rows, and all classes go down
    together, level by level, highest class first: each reads lo's row
    n + 1, turns it into its suffix sum S_{n+1} and takes its partners'
    steps, and lo, the last reader, drops the row.  So the group holds one
    ladder, which shrinks as the suffix sums grow.

    The width W of :func:`bias_series_gf` is read once, at the top, from
    the cached total, and serves two uses: the form of the ladder and
    Horner lists and that of the class loop's lanes.

    T_n reaches T_0 only through the steps j < n, whose multipliers start
    at q^{b + z_j}, so each partner keeps T_n only up to q^{N - cum_n} with
    cum_n = n b, or n b + m n(n-1)/2 when x = 0; the coefficients above
    that cut never reach q^N, as in :func:`progression`'s own Horner sums.
    A partner whose cut falls below T_n's lowest power skips that level.
    The suffix sums stay full, since S_1 enters T_0 up to q^N.

    Each T_0 leaves its pass as N + 1 slots of W/8 little-endian bytes.
    The group's lanes are interleaved into one buffer, lane i of entry n
    in the i-th W-bit slot of the entry's K W/8 bytes, K the number of
    lanes, and the class loop of :func:`bias_series_gf` runs on it: one
    packed int of N + 1 such entries (:class:`kernel.Slots`) when K W is
    at most ``_SLOT_BITS``, else one int an entry in a list.  Each class
    r <= min(m, N) that some pair avoids (above N, g_r is 1 mod q^{N+1})
    takes two progression passes over those pairs' lanes, unmasked when
    every pair avoids it.  That is at most 2m passes a group, two per class
    r <= min(m, N) outside {a, b} for a lone pair, so 2(N - 2) for (1, 2)
    with m > N, and none at m = 2, which interleaves nothing.  A pair with
    a > N has T_0 = 0 and takes none.  The lanes are split back into bytes
    and each result list is read once, at the end."""
    wb = -(-max(_total_graded(P, Q, D, N)).bit_length() // 8)  # W in whole bytes
    form = _form(wb)
    partners = {}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
    lo = min(partners)
    rows = _gf_ladder(lo, m, P, Q, D, N, form)
    # each class, lo last: [offset of its lowest row yet, S_{n+1}, T_{n+1} of each partner]
    state = [(a, bs, [N + 1, form.zero, [form.zero] * len(bs)])
             for a, bs in sorted(partners.items(), reverse=True)]
    for n in range(len(rows) - 1, -1, -1):
        z = 0 if P else n * m
        shared = rows.pop()  # lo's row n + 1, read by every class
        for a, bs, st in state:
            row = shared if a == lo else _class_row(shared, n + 1, a - lo, D, N, form)
            if row is None:  # class a's row n + 1 starts above q^N
                continue
            top, suffix, accs = st
            off, tail = row
            suffix = form.add(tail, top - off, suffix)  # row n + 1 becomes S_{n+1}
            for i, b in enumerate(bs):
                cut = N - n * b - (0 if P else m * n * (n - 1) // 2)
                # T_n starts above its cut and adds nothing; the cut rises and
                # off falls as n falls, so only top levels skip, where accs[i]
                # is zero
                if cut < off:
                    continue
                step = form.rung(accs[i], P, Q, D, b + z, n * m - z, (n + 1) * m, cut - top)
                accs[i] = form.add(form.head(suffix, cut - off + 1), top - off + b + z, step)
            st[:2] = off, suffix
    lanes = {}  # T_0 as bytes, for the pairs with a <= N
    for a, bs, (off, _, accs) in state:
        if off <= N:
            lanes.update(((a, b), bytes(wb * off) + form.tobytes(acc, N + 1 - off))
                         for b, acc in zip(bs, accs))
    keys = [key for key in pairs if key in lanes]  # lane i holds keys[i]
    classes = [(r, chosen) for r in range(1, min(m, N) + 1)  # the lanes avoiding r
               if (chosen := [i for i, key in enumerate(keys) if r not in key])]
    if classes:
        K = len(keys)
        S = K * wb
        buf = bytearray(S * (N + 1))
        for i, key in enumerate(keys):
            for j in range(wb):
                buf[i * wb + j::S] = lanes[key][j::wb]
        lane = _form(S)
        co = lane.frombytes(buf)
        for r, chosen in classes:
            pattern = b"".join(b"\xff" * wb if i in chosen else bytes(wb) for i in range(K))
            sel = co if len(chosen) == K else lane.keep(co, pattern, N + 1)
            out = lane.progression(lane.progression(sel, Q, r, m, 1, D, N), -P, r, m, -1, D, N)
            co = out if sel is co else lane.replace(co, sel, out)
        buf = lane.tobytes(co, N + 1)
        for i, key in enumerate(keys):
            t = lanes[key] = bytearray(wb * (N + 1))
            for j in range(wb):
                t[j::wb] = buf[i * wb + j::S]
    read = Lists(wb).frombytes
    return {key: read(lanes[key]) if key in lanes else [0] * (N + 1) for key in pairs}


def bias_series_gf(spec: BiasSpec, N: int) -> TruncatedSeries:
    """p_n(a,b,m;x,y) for n <= N via the restricted double-sum form.

    The sum over index pairs n1 > n >= 0 of q^{a*n1 + b*n} L_{n1} L_n, with
    the weight ladder L_k = prod_{j<k}(x + y q^{jm}) / (q^m;q^m)_k, is taken
    in two passes of one :func:`rung` step each.  Upward,
    :func:`_gf_ladder` builds the rows A_k = q^{ak} L_k until the first row
    that vanishes mod q^{N+1}; a row's lowest term is x^k q^{ak}, or
    y^k q^{ak + m k(k-1)/2} when x = 0, so every later row vanishes too.
    Downward, :func:`_gf_graded` applies Horner's rule
    T_n = S_{n+1} + q^b (x + y q^{nm}) / (1 - q^{(n+1)m}) T_{n+1}, with the
    suffix S_{n+1} = sum_{k>n} A_k, which gives the sum as T_0.  Each list
    is kept as an (offset, tail) pair from its lowest term on: A_k from
    that power, S_{n+1} and T_n from the lowest power of A_{n+1}, so a step
    touches the support only.  T_n enters T_0 only through the steps
    j < n, whose multipliers start at q^{b + z_j} (z_j = 0, or jm when
    x = 0), so a pass keeps T_n only up to q^{N - cum_n} with
    cum_n = sum_{j<n} (b + z_j); the suffix sums stay full, since S_1 is
    T_0's own term.  The rows do not depend on b, and L_k depends on
    neither class, so class a's rows are q^{(a - lo)k} times those of any
    class lo < a: a group builds the rows of its smallest class lo only.
    Class a's row k is lo's tail moved up (a - lo) k places, that is cut
    to the N - off_k(a) + 1 entries left below q^{N+1} and, graded,
    multiplied by D^((a - lo) k) (no multiply when D = 1); it is derived
    when a's pass reaches it.  The downward passes of every partner of
    every class go down together, level by level, the classes highest
    first, so that lo, whose own row turns into its suffix sum in place,
    reads each row last.  Row n+1 turns into S_{n+1} only when the passes
    reach it, and is then dropped: A_k is nonzero only at q^{ak + jm},
    while the suffix sums fill every residue, so holding them all would
    take about m times the ints of the rows.

    One width bounds every graded entry the gf holds.  With x, y >= 0
    every row, suffix sum, partial sum T_n and partial geometric sum inside
    a step is a non-negative sub-sum of the bias series:
    T_n[j] <= T_0[j + cum_n], since each step's lowest coefficient is a
    graded x or y, at least 1, and T_0 <= p(a,b,m;x,y), since the
    prefactor has non-negative coefficients and constant term 1.  And
    0 <= p_n(a,b,m;x,y) <= p_n(x,y).  So every entry is below 2^W, with W
    the bit length of the largest graded p_n(x,y), n <= N, rounded up to
    whole bytes, read from the cached total.  W serves two uses.  Both
    halves run on one packed int per list (:class:`kernel.Slots`: entry j
    in the W-bit slot at bit W j), where a step is a few big-int operations
    in place of one Python operation an entry, when W is at most
    ``_SLOT_BITS`` = 352 bits (the measured ratios are there), and on plain
    lists otherwise; no slot carries.  Narrow weights (x in {0, 1}, integer
    y) pack at every bench order, while graded and x >= 2 entries pass that
    width near N = 200-350.  The other use is the class loop's lanes, below.

    T_0 is then multiplied by the product prefactor, the product over the
    m - 2 other classes r of g_r = (-yq^r;q^m)_inf / (xq^r;q^m)_inf, which
    acts on T_0 as progression factors, not as a dense product, in one
    class loop for every group.  Each T_0 leaves its pass as N + 1 slots
    of W/8 little-endian bytes, and the group's K lanes are interleaved
    byte by byte into the K W/8-byte entries of one buffer, lane i for
    pair i.  When K W is at most ``_SLOT_BITS`` the loop runs on one int
    of those entries (:class:`kernel.Slots`: packed Horner steps, and a
    doubling step for Cauchy's 1/(1 - v q^e)), else on a list of one int
    an entry.  Each g_r is
    applied once, as two passes, to the lanes of the pairs avoiding r,
    selected by one mask and added back to the rest; at the end the lanes
    are split back into bytes and each result list is read once.  So the
    lanes hold partial products T_0 prod_{r in S} g_r.  Each g_r has
    non-negative coefficients and constant term 1, so such a product lies
    coefficientwise between T_0 and the final graded p_n(a,b,m;x,y) < 2^W:
    every lane lies in [0, 2^W) at every class boundary.  The masks are
    then exact: a Z-linear map keeps a zero lane zero, whatever the signs
    on the way, and lanes that do not overlap add without carry.  The
    packed passes are exact for the reason the ladder is: with x, y >= 0
    every Horner partial inside a pass, T_{k-1} = co + (term k / term k-1)
    T_k, is a non-negative sub-sum of that pass's output, since each
    step's lowest coefficient is a graded x or y, at least 1, and every
    doubling partial of 1/(1 - v q^e) or 1/(1 - D^f q^f) is a sub-sum of
    the full geometric sum; the output is below 2^W in every lane, so no
    slot carries.  A lone pair is a group of one lane, which every class
    outside {a, b} takes whole, with no mask; :func:`compare_bias` runs a
    pair and its swap as a group of two.
    """
    positive_order(N)
    P, Q, D = scaled_weights(spec.x, spec.y)
    graded = _gf_graded([(spec.a, spec.b)], spec.m, P, Q, D, N)[spec.a, spec.b]
    return TruncatedSeries(ungrade(graded, D))


# -- the excess-marker dynamic programme ---------------------------------------


def bias_series_dp(spec: BiasSpec, N: int) -> TruncatedSeries:
    """p_n(a,b,m;x,y) via the excess-marker product; independent of the
    double-sum engine.

    The excess marker t tracks (parts in class a) - (parts in class b).
    Every part size d contributes the factor (1 + y w q^d)/(1 - x w q^d)
    with w = t, 1/t or 1 according to the residue class of d.  A size
    outside classes a and b has w = 1 and moves no excess, so those sizes
    fold into the plain coefficient list ``free``.  Only the marked sizes
    d = a, b (mod m) update polys[n], which maps each power of t to its
    weighted pair count at q^n.  The bias is ``free`` times the sums of the
    positive t-powers, a convolution over the nonzero entries of ``free``;
    for m = 2 every size is marked and ``free`` is 1.
    """
    positive_order(N)
    a, b, m, x, y = spec.a, spec.b, spec.m, spec.x, spec.y
    if x.denominator == 1 and y.denominator == 1:
        x, y, zero = int(x), int(y), 0
    else:
        zero = rational(0)  # so that an empty sum below is a rational too
    free = [1] + [0] * N
    polys = [dict() for _ in range(N + 1)]
    polys[0][0] = 1
    am, bm = a % m, b % m
    for d in range(1, N + 1):
        r = d % m
        e = 1 if r == am else (-1 if r == bm else 0)
        # x-parts repeat, so ascending n reads rows this size already
        # updated; y-parts are distinct, so descending n reads only old rows
        for w, rows in ((x, range(d, N + 1)), (y, range(N, d - 1, -1))):
            if not w:
                continue
            if not e:
                for n in rows:
                    free[n] += w * free[n - d]
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
    pos = [sum((c for te, c in poly.items() if te > 0), zero) for poly in polys]
    out = [zero] * (N + 1)
    for k, f in enumerate(free):
        if f:
            for n in range(k, N + 1):
                out[n] += f * pos[n - k]
    return TruncatedSeries(out)


# -- symmetric closed forms -----------------------------------------------------

# (x, y) of each symmetric flavor
FLAVOR_XY = {"01": (0, 1), "10": (1, 0), "11": (1, 1)}


def check_symmetric_args(a, m, flavor):
    """Reject a flavor or classes (a, m - a) with no symmetric closed form."""
    if flavor not in FLAVOR_XY:
        raise InvalidParameterError("flavor must be one of '01', '10', '11'")
    if not (isinstance(a, int) and isinstance(m, int)):
        raise InvalidParameterError("a and m must be integers")
    if not (1 <= a and 2 * a < m):
        raise InvalidParameterError(
            "symmetric classes need 1 <= a < m/2 (so that m-a differs from a)")


def _symmetric_prefactor(a, m, flavor, N):
    """Product prefactor of the flavor's single-sum closed form.

    With E_s = (q^s;q^s)_inf and the triple products
    T+ = (-q^a, -q^{m-a}, q^m; q^m)_inf, T- = (q^a, q^{m-a}, q^m; q^m)_inf:
    01 -> E_2 / (E_1 T+), 10 -> T- / (E_1 E_m^3) and
    11 -> E_2 E_{2m}^2 T- / (E_1^2 E_m^4 T+).  Flavor 11 is taken through
    Gauss's identity E_s^2 / E_{2s} = phi(-q^s) = sum_{n in Z} (-1)^n q^{s n^2}
    (G. E. Andrews, *The Theory of Partitions*, ch. 2), the triple product
    jacobi(s, 2s, -1): it is T- / (phi(-q) phi(-q^m)^2 T+), one numerator
    and four sparse divisions in place of four and seven.
    """
    if flavor == "01":
        return quotient([euler(2, N)], [euler(1, N), jacobi(a, m, 1, N)], N)
    if flavor == "10":
        em = euler(m, N)
        return quotient([jacobi(a, m, -1, N)], [euler(1, N), em, em, em], N)
    phi_m = jacobi(m, 2 * m, -1, N)
    return quotient([jacobi(a, m, -1, N)],
                    [jacobi(1, 2, -1, N), phi_m, phi_m, jacobi(a, m, 1, N)], N)


def _symmetric_sum(c, m, flavor, N):
    """The sparse single sum of the flavor's closed form at theta argument c,
    each geometric factor expanded, mod q^{N+1}:
    01 -> sum_{n>=1} q^{m n(n-1)/2 + cn},
    10 -> sum_{n>=0} (-1)^n q^{m n(n+3)/2 + c} / (1 - q^{mn+c}) and
    11 -> 2 sum_{n>=1} q^{cn} / (1 + q^{mn}), the factor 2 in the entries.
    """
    co = [0] * (N + 1)
    n = 0 if flavor == "10" else 1
    while True:
        # the n-th term is v q^e / (1 - r q^f); flavor 01 has no such factor
        if flavor == "01":
            e, v, r, f = m * n * (n - 1) // 2 + c * n, 1, 1, N + 1
        elif flavor == "10":
            e, v, r, f = m * n * (n + 3) // 2 + c, (-1) ** n, 1, m * n + c
        else:
            e, v, r, f = c * n, 2, -1, m * n
        if e > N:
            return co
        for k in range(e, N + 1, f):
            co[k] += v
            v *= r
        n += 1


def bias_series_symmetric(a: int, m: int, flavor: str, N: int) -> TruncatedSeries:
    """p_n(a, m-a, m; x, y) via the single-sum closed forms, flavors
    01 -> (x,y)=(0,1), 10 -> (1,0), 11 -> (1,1)."""
    check_symmetric_args(a, m, flavor)
    positive_order(N)
    co = _symmetric_prefactor(a, m, flavor, N)
    return TruncatedSeries(mul_trunc(co, _symmetric_sum(a, m, flavor, N), N))


def symmetric_distinct_pair(a: int, m: int, N: int):
    """Both orders of the symmetric distinct-partition bias, cheaply.

    Returns (d_n(a, m-a; m), d_n(m-a, a; m)) as integer series: collecting
    the negative marker powers swaps the theta argument a -> m-a under the
    same product prefactor.
    """
    check_symmetric_args(a, m, "01")
    positive_order(N)
    co = _symmetric_prefactor(a, m, "01", N)
    return tuple(TruncatedSeries(mul_trunc(co, _symmetric_sum(c, m, "01", N), N))
                 for c in (a, m - a))


# -- comparisons ------------------------------------------------------------------

_METHODS = {
    "gf": bias_series_gf,
    "dp": bias_series_dp,
}


class BiasReport:
    """Tabulated bias sequence with its swapped-class counterpart; the
    signs of p_ab - p_ba and the indices where p_ba leads are derived."""

    def __init__(self, spec: BiasSpec, method: str, order: int, values: list,
                 swapped_values: list):
        self.spec, self.method, self.order = spec, method, order
        self.values, self.swapped_values = values, swapped_values
        self.signs = [(p > q) - (p < q) for p, q in zip(self.values, self.swapped_values)]
        self.violations = [n for n, s in enumerate(self.signs) if s < 0]

    @property
    def zero_indices(self):
        return [n for n, s in enumerate(self.signs) if s == 0]


def compare_bias(spec: BiasSpec, N: int, method: str = "gf") -> BiasReport:
    """Tabulate p_n(a,b,m;x,y) against p_n(b,a,m;x,y) for n <= N.

    The swapped sequence always comes from its own run on the swapped
    classes, never from algebraic manipulation of the first run's values.
    With the gf the pair and its swap are one group of two
    :func:`_gf_graded` lanes, as in a sweep: the swap comes from its own
    Horner pass over its own class's rows, and only the weight ladder L_k
    (which depends on neither class; the larger class's rows are the
    smaller's moved up) and the class loop's passes are shared.  The dp
    runs once per order.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"unknown method {method!r}")
    if method == "gf":
        positive_order(N)
        P, Q, D = scaled_weights(spec.x, spec.y)
        fwd, rev = (spec.a, spec.b), (spec.b, spec.a)
        graded = _gf_graded([fwd, rev], spec.m, P, Q, D, N)
        values, swapped = ungrade(graded[fwd], D), ungrade(graded[rev], D)
    else:
        fn = _METHODS[method]
        values, swapped = fn(spec, N).coeffs, fn(spec.swapped(), N).coeffs
    return BiasReport(spec, method, N, list(values), list(swapped))


def monotonicity_check(values, m: int):
    """Check c_{n+m} >= c_n along a sequence; returns (ok, first bad index).
    A sequence of at most m terms has no such pair to compare and is refused."""
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError("modulus must be a positive integer")
    if len(values) <= m:
        raise InvalidParameterError("monotonicity compares c_n with c_{n+m}: need more than m terms")
    for n in range(len(values) - m):
        if values[n + m] < values[n]:
            return False, n
    return True, None
