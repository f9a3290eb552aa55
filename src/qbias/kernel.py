"""Truncated q-products on plain coefficient lists.

An infinite product is built one of two ways.  :func:`progression`
multiplies a list c_0..c_N by a product of (1 + u q^e)^(+-1) over an
arithmetic progression of exponents e >= 1, summed by Horner's rule.
:func:`quotient` builds eta and theta quotients from sparse series: Jacobi
triple products (:func:`jacobi`, Gauss's phi(-q^s) = E_s^2 / E_{2s} among
them) and Euler's pentagonal series E_s = (q^s;q^s)_inf (:func:`euler`),
multiplied in with :func:`mul_trunc` and divided out with one
:func:`div_sparse` pass over their nonzero terms each, which adds the
terms of an int -1 and subtracts those of an int +1, and multiplies once
per n for each other value.  :func:`div1` and the list :func:`rung` add
rather than multiply by the int 1 as well; a rational 1 is multiplied, so
every entry keeps the type the plain loop gives it.
This module is the only place that multiplies such factors in, singly too
(:func:`mul1`, :func:`div1`), that takes a step q^c (x + y q^e) / (1 - q^f)
of a weight ladder (:func:`rung`), that shifts or multiplies lists, and
that packs lists into integers, one way: the little-endian byte slots of
one int (``_pack``, ``_unpack``), for Kronecker products
(:func:`mul_trunc`) and for a non-negative list that the ladder step, the
progression passes (:meth:`Slots.progression`, for non-negative terms),
shifted adds and cuts act on directly (:class:`Slots`, with
:class:`Lists` the same steps on lists; both write and read their lists
as such bytes).  The gf's one entry, ``engine._gf_graded``, reads one
width W per group: its ladder and Horner lists take W-bit slots, and its
class loop K lanes side by side in each K W-bit entry, each lane moving
in and out as bytes.

Lists may be *graded*: a series whose weights have common denominator D
carries c_n * D^n at index n, so weighted products stay in integers.  A
weight u/D at q^e then acts with the integer u * D^(e-1); :func:`rung`
and :func:`progression` apply that convention, and :func:`ungrade` turns
graded lists back into exact values.  A factor acts the same wherever a
list starts, so a list that holds a series from q^o on takes N - o as N.
"""

from __future__ import annotations

from math import gcd

from .scalars import rational


def mul1(co, e, u, N):
    """In place: co *= (1 + u*q^e)."""
    for n in range(N, e - 1, -1):
        p = co[n - e]
        if p:
            co[n] += u * p


def div1(co, e, u, N):
    """In place: co /= (1 - u*q^e), i.e. co *= sum_k u^k q^{ek}.  The int
    u = 1 adds each term as it is, which keeps its type as 1 * p does."""
    if u == 1 and type(u) is int:
        for n in range(e, N + 1):
            p = co[n - e]
            if p:
                co[n] += p
        return
    for n in range(e, N + 1):
        p = co[n - e]
        if p:
            co[n] += u * p


def _horner_terms(u, s, m, power, N):
    """(k, n, c, e) for each Horner term k of :func:`progression`, the top
    one first: T_{k-1} = co + (term k / term k-1) T_k is used mod q^{n+1},
    the step from T_k starts at q^c, and for power -1 it also takes
    Cauchy's factor 1/(1 + u D^(e-1) q^e)."""
    if power not in (1, -1):
        raise ValueError(f"progression products take power +1 or -1, not {power!r}")
    h = m if power > 0 else 2 * m  # the n-th term sits at q^{sn + h n(n-1)/2}
    terms = 0
    while u and s * (terms + 1) + h * terms * (terms + 1) // 2 <= N:
        terms += 1
    return [(k, N - s * (k - 1) - h * (k - 1) * (k - 2) // 2, s + h * (k - 1), s + m * (k - 1))
            for k in range(terms, 0, -1)]


def progression(co, u, s, m, power, D, N):
    """co * prod_{k>=0} (1 + u D^(e-1) q^e)^power over e = s + km mod q^{N+1},
    as a new list, for s, m >= 1 and power +1 or -1.  With z = power * u / D
    that is Euler's sum of z^n q^{sn + m n(n-1)/2} / (q^m;q^m)_n for power +1
    and Cauchy's of z^n q^{sn + m n(n-1)} / ((q^m;q^m)_n (z q^s;q^m)_n) for -1
    (G. E. Andrews, *The Theory of Partitions*, ch. 2), taken by Horner's
    rule seeded with co, one :func:`rung` a term.
    """
    out = list(co)
    for k, n, c, e in _horner_terms(u, s, m, power, N):
        step = rung(out, power * u, 0, D, c, 0, m * k, n)  # from q^c on
        if power < 0:
            div1(step, e, -u * D ** (e - 1), n - c)
        out = list(co[:n + 1])  # co may be a cached tuple
        add_shifted(out, c, step)
    return out


def jacobi(a, m, sign, N):
    """(-sign q^a, -sign q^{m-a}, q^m; q^m)_inf mod q^{N+1} for 0 < a < m
    and sign +1 or -1, by the Jacobi triple product: the sum over n in Z of
    sign^n q^{m n(n-1)/2 + a n}.

    The exponent grows along n = 0, 1, 2, ... and along n = -1, -2, ...
    """
    co = [0] * (N + 1)
    for n, step in ((0, 1), (-1, -1)):
        while m * n * (n - 1) // 2 + a * n <= N:
            co[m * n * (n - 1) // 2 + a * n] += sign ** (n & 1)
            n += step
    return co


def euler(s, N):
    """(q^s;q^s)_inf = (q^s, q^{2s}, q^{3s}; q^{3s})_inf mod q^{N+1}: Euler's
    pentagonal series, the sum over k in Z of (-1)^k q^{s k(3k-1)/2}."""
    return jacobi(s, 3 * s, -1, N)


def div_sparse(co, s, N):
    """In place: co /= s for a list s with s[0] = 1, mod q^{N+1}.

    One pass c_n = f_n - sum_{k>=1} s_k c_{n-k} over the nonzero s_k only,
    so a sparse divisor such as :func:`euler` or :func:`jacobi` costs
    O(N * nnz) in place of one :func:`div1` pass per factor.  The terms
    are grouped by value: an int s_k = -1 adds c_{n-k} and an int +1
    subtracts it, with no multiply, and every other value v (the 2 of
    :func:`jacobi`'s theta series, rationals) takes one multiply a group,
    c_n -= v * sum c_{n-k}.  Each entry keeps the type the plain sum
    gives it: a rational ±1 is a value of its own, not an int ±1, and a
    group with no k <= n yet leaves c_n alone.
    """
    adds, subs, groups = [], [], {}
    for k, v in enumerate(s[1:N + 1], 1):
        if type(v) is int and v in (1, -1):
            (subs if v == 1 else adds).append(k)
        elif v:  # keyed by type too: Fraction(2) == 2, but 2 * c keeps an int c an int
            groups.setdefault((type(v), v), (v, []))[1].append(k)
    groups = list(groups.values())
    for n in range(1, N + 1):
        c = co[n]
        for k in adds:
            if k > n:
                break
            c += co[n - k]
        for k in subs:
            if k > n:
                break
            c -= co[n - k]
        for v, ks in groups:
            if ks[0] <= n:
                t = 0
                for k in ks:
                    if k > n:
                        break
                    t += co[n - k]
                c -= v * t
        co[n] = c
    return co


def quotient(num, den, N):
    """prod(num) / prod(den) mod q^{N+1} for lists with constant term 1:
    numerators multiplied in with :func:`mul_trunc`, then one
    :func:`div_sparse` pass per denominator."""
    co = [0] * (N + 1)
    co[0] = 1
    for s in num:
        co = mul_trunc(co, s, N)
    for s in den:
        div_sparse(co, s, N)
    return co


def rung(co, P, Q, D, c, e, f, N):
    """One weight-ladder step on a graded list, as a new list from q^c on:
    co * q^c (x + y q^e) / (1 - q^f) with x = P/D, y = Q/D and c >= 1.
    ``out[j]`` is the coefficient at q^(c+j) for j <= N - c, so the list is
    empty when c > N; a co that starts at q^o takes N - o as N.

    The weights grade as in the module docstring: x q^c acts with
    P * D^(c-1), y q^(c+e) with Q * D^(c+e-1), and 1/(1 - q^f) as
    1/(1 - D^f q^f).  Weights whose exponent passes N are never formed:
    D^f has f * log2(D) bits, so a modulus near 10^8 would otherwise stall.
    """
    n = N - c
    if n < 0:
        return []
    if P:
        w = P * D ** (c - 1)
        # the int 1 copies; a tuple co (an empty accumulator) becomes a list
        out = list(co[:n + 1]) if w == 1 and type(w) is int else [w * g for g in co[:n + 1]]
        out += [0] * (n + 1 - len(out))  # co may end before q^n
    else:
        out = [0] * (n + 1)
    if Q and e <= n:
        add_shifted(out, e, co, Q * D ** (c + e - 1))
    if f <= n:
        div1(out, f, D**f, n)
    return out


def add_shifted(out, off, seg, c=1):
    """In place: out[off + j] += c * seg[j] wherever off + j < len(out)."""
    end = min(len(out), off + len(seg))
    if end <= off:
        return
    tgt = out[off:end]
    if c == 1 and type(c) is int:  # a rational 1 still turns int entries rational
        out[off:end] = [t + g for t, g in zip(tgt, seg)]
    else:
        out[off:end] = [t + c * g for t, g in zip(tgt, seg)]


def mul_trunc(a, b, N):
    """Product of coefficient lists, truncated at N, as a new list.

    The algorithm follows the inputs.  Schoolbook loops over the nonzero
    entries of the sparser operand and adds shifted copies of the other.
    Long lists of Python ints whose sparser operand has at least 16
    nonzero entries take Kronecker substitution when the term products
    outnumber the packed bits: each list becomes one integer, the two are
    multiplied once, and the product's slots are the coefficients.  The
    slot width follows the widest entry, so lists whose entry sizes spread
    widely (graded rational weights) stay schoolbook.
    """
    a, b = a[:N + 1], b[:N + 1]
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if nb < na:
        a, b, na = b, a, nb
    if na >= 16 and {*map(type, a), *map(type, b)} == {int}:
        w = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + na.bit_length()
        # schoolbook term products against packed bits (slot w + 1 plus 12
        # bits of per-slot overhead); the weights were measured on CPython
        if 30 * na * len(b) >= 24 * (len(a) + len(b)) * (w + 13):
            return _kronecker(a, b, N, w // 8 + 1)
    out = [0] * (N + 1)
    for i, ai in enumerate(a):
        if ai:
            add_shifted(out, i, b, ai)
    return out


def _pack(co, wb):
    """sum co[i] * 2^(8*wb*i) for int entries with |co[i]| < 2^(8*wb)."""
    zero = bytes(wb)
    pos = b"".join([v.to_bytes(wb, "little") if v > 0 else zero for v in co])
    packed = int.from_bytes(pos, "little")
    if min(co) < 0:
        neg = b"".join([(-v).to_bytes(wb, "little") if v < 0 else zero for v in co])
        packed -= int.from_bytes(neg, "little")
    return packed


def _unpack(buf, wb):
    """The little-endian slots of wb bytes of buf as ints, lowest first."""
    return [int.from_bytes(buf[i:i + wb], "little") for i in range(0, len(buf), wb)]


def _kronecker(a, b, N, wb):
    """a * b truncated at N through one integer multiply, wb bytes a slot.

    Every product coefficient must satisfy |c| < 2^(8*wb - 1).  Adding
    2^(8*wb - 1) to each slot makes all slots non-negative, so they unpack
    as plain bytes.
    """
    n = N + 1
    half = 1 << (8 * wb - 1)
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")
    prod = (_pack(a, wb) * _pack(b, wb) + bias) & ((1 << (8 * wb * n)) - 1)
    return [v - half for v in _unpack(prod.to_bytes(wb * n, "little"), wb)]


class Lists:
    """The gf's ladder, Horner and lane lists as plain lists: entry j of a
    list from q^o on is the graded coefficient at q^(o+j), and a list of n
    entries moves as n slots of wb little-endian bytes.  :class:`Slots` has
    the same members on one packed int, so one loop serves both."""

    zero = ()

    def __init__(self, wb):
        self.wb = wb

    @staticmethod
    def pack(co):
        return co

    rung = staticmethod(rung)
    progression = staticmethod(progression)

    @staticmethod
    def add(out, off, seg):
        add_shifted(out, off, seg)
        return out

    @staticmethod
    def head(co, n):
        return co[:n]

    @staticmethod
    def scale(co, w):
        return co if w == 1 else [w * g for g in co]

    @staticmethod
    def keep(co, pattern, n):
        """Each entry masked by the little-endian bytes of ``pattern``."""
        mask = int.from_bytes(pattern, "little")
        return [v & mask for v in co]

    @staticmethod
    def replace(co, sel, out):
        """co with its part sel, taken by :meth:`keep`, replaced by out."""
        return [v - s + t for v, s, t in zip(co, sel, out)]

    def tobytes(self, co, n):
        """The n entries of co, each in wb bytes."""
        return b"".join([v.to_bytes(self.wb, "little") for v in co])

    def frombytes(self, buf):
        return _unpack(buf, self.wb)


class Slots:
    """The gf's ladder, Horner and lane lists packed as one non-negative
    int, entry j in the W-bit slot at bit W*j, W = 8*wb (Kronecker
    substitution; D. Harvey, J. Symbolic Comput. 44 (2009)).  A step is
    then a few big-int operations in place of one Python operation an
    entry.  An entry may itself hold lanes, narrower slots side by side:
    every operation below is Z-linear with scalar multipliers, so it acts
    on each lane alone.

    Exact only while every entry on the way lies in [0, 2^W) (in every
    lane): a slot that overflows carries into the next.  That holds for
    non-negative weights and inputs when W bounds the result, since every
    partial sum taken below is a sub-sum of it.  A list of n entries is an
    int below 2^(W*n); :meth:`add` and the steps keep to the length they
    are given.
    """

    zero = 0

    def __init__(self, wb):
        self.wb, self.W = wb, 8 * wb

    def pack(self, co):
        return _pack(co, self.wb)

    def rung(self, co, P, Q, D, c, e, f, N):
        """:func:`rung` on packed slots: the x and y terms are a small-int
        multiply and a shifted add, and 1/(1 - D^f q^f) is :meth:`div1`,
        cut at the N - c + 1 slots of the result."""
        n = N - c
        if n < 0:
            return 0
        W, mask = self.W, (1 << self.W * (n + 1)) - 1
        co &= mask
        w = P * D ** (c - 1)
        out = co if w == 1 else co * w  # a multiply by 1 still copies
        if Q and e <= n:
            w = Q * D ** (c + e - 1)
            out = (out + ((co if w == 1 else co * w) << W * e)) & mask
        if f <= n:  # D^f is formed only here, as in rung
            out = self.div1(out, f, D**f, n)
        return out

    def div1(self, co, e, v, N):
        """co / (1 - v q^e) mod q^(N+1) for v >= 0, as the doubling product
        of (1 + v^(2^i) q^(e 2^i)) over e 2^i <= N, each factor cut at the
        N + 1 slots of the result, of which every partial product is a
        sub-sum."""
        mask = (1 << self.W * (N + 1)) - 1
        while e <= N:
            co = (co + ((co if v == 1 else co * v) << self.W * e)) & mask
            e, v = 2 * e, v * v
        return co

    def progression(self, co, u, s, m, power, D, N):
        """:func:`progression` on packed slots, for u * power >= 0: each
        Horner term is a :meth:`rung` and, for power -1, a :meth:`div1`,
        so every partial is a sub-sum of the result, as in the ladder."""
        if u * power < 0:
            raise ValueError(f"packed progression products take u * power >= 0, "
                             f"not u = {u!r}, power = {power!r}")
        out = co
        for k, n, c, e in _horner_terms(u, s, m, power, N):
            step = self.rung(out, power * u, 0, D, c, 0, m * k, n)  # from q^c on
            if power < 0:
                step = self.div1(step, e, -u * D ** (e - 1), n - c)
            out = self.head(co, n + 1) + (step << self.W * c)
        return out

    def add(self, out, off, seg):
        """out + seg shifted up off slots; the sum must fit out's length."""
        return out + (seg << self.W * off)

    def head(self, co, n):
        return co & ((1 << self.W * n) - 1)

    @staticmethod
    def scale(co, w):
        return co if w == 1 else co * w

    def keep(self, co, pattern, n):
        """The n slots of co masked by the little-endian bytes of ``pattern``."""
        return co & int.from_bytes(pattern * n, "little")

    @staticmethod
    def replace(co, sel, out):
        """co with its part sel, taken by :meth:`keep`, replaced by out."""
        return co - sel + out

    def tobytes(self, co, n):
        return co.to_bytes(self.wb * n, "little")

    @staticmethod
    def frombytes(buf):
        return int.from_bytes(buf, "little")


def scaled_weights(x, y):
    """Write x = P/D, y = Q/D over the least common denominator D."""
    dx, dy = int(x.denominator), int(y.denominator)
    D = dx * dy // gcd(dx, dy)
    return int(x.numerator) * (D // dx), int(y.numerator) * (D // dy), D


def ungrade(co, D):
    """The exact values of a D^n-graded list: ints when D = 1, else rationals."""
    if D == 1:
        return list(co)
    pw = 1
    vals = []
    for c in co:
        vals.append(rational(c, pw))
        pw *= D
    return vals
