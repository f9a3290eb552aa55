"""Truncated q-products on plain coefficient lists.

A product is built one of two ways.  :func:`qprod` applies a table of
factors (1 + u q^e)^(+-1) over sets of exponents e >= 1 to a dense
coefficient list c_0..c_N, one pass per factor.  :func:`quotient` builds
eta and theta quotients from sparse series: Jacobi triple products
(:func:`jacobi`) and Euler's pentagonal series for (q^s;q^s)_inf
(:func:`euler`, a triple product too), multiplied in with
:func:`mul_trunc` and divided out with one :func:`div_sparse` pass over
their nonzero terms each.  This module is the only place that multiplies
such factors in, that takes a step q^c (x + y q^e) / (1 - q^f) of a weight
ladder (:func:`rung`), and that shifts or multiplies whole coefficient
lists.

Lists may be *graded*: a series whose weights have common denominator D
carries c_n * D^n at index n, so weighted products stay in integers.  A
weight u/D at q^e then acts with the integer u * D^(e-1); :func:`qprod`
and :func:`rung` apply that convention, and :func:`ungrade` turns graded
lists back into exact values.
"""

from __future__ import annotations

from math import gcd

from .scalars import INTEGER, RATIONAL, rational


def mul1(co, e, u, N):
    """In place: co *= (1 + u*q^e)."""
    for n in range(N, e - 1, -1):
        p = co[n - e]
        if p:
            co[n] += u * p


def div1(co, e, u, N):
    """In place: co /= (1 - u*q^e), i.e. co *= sum_k u^k q^{ek}."""
    for n in range(e, N + 1):
        p = co[n - e]
        if p:
            co[n] += u * p


def qprod(factors, N, D=1, co=None):
    """Multiply prod_e (1 + u * D^(e-1) * q^e)^power into co, mod q^{N+1}.

    ``factors`` is a table of (u, exponents, power) rows with exponents
    >= 1 and power +1 or -1.  ``co`` (default: the series 1) is changed in
    place and returned.  With D = 1 the factors are ungraded.
    """
    if co is None:
        co = [0] * (N + 1)
        co[0] = 1
    for u, exponents, power in factors:
        if power not in (1, -1):
            raise ValueError(f"q-product rows take power +1 or -1, not {power!r}")
        if not u:
            continue
        for e in exponents:
            if e > N:
                continue
            w = u if D == 1 else u * D ** (e - 1)
            if power > 0:
                mul1(co, e, w, N)
            else:
                div1(co, e, -w, N)
    return co


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
    O(N * nnz) in place of one :func:`div1` pass per factor.
    """
    terms = [(k, v) for k, v in enumerate(s[1:N + 1], 1) if v]
    for n in range(1, N + 1):
        c = co[n]
        for k, v in terms:
            if k > n:
                break
            c -= v * co[n - k]
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
    """One weight-ladder step on a graded list, as a new list:
    co * q^c (x + y q^e) / (1 - q^f) with x = P/D, y = Q/D and c >= 1.

    The weights grade as in :func:`qprod`: x q^c acts with P * D^(c-1),
    y q^(c+e) with Q * D^(c+e-1), and 1/(1 - q^f) as 1/(1 - D^f q^f).
    """
    out = [0] * (N + 1)
    if P:
        add_shifted(out, c, co, P * D ** (c - 1))
    if Q:
        add_shifted(out, c + e, co, Q * D ** (c + e - 1))
    div1(out, f, D**f, N)
    return out


def add_shifted(out, off, seg, c=1):
    """In place: out[off + j] += c * seg[j] wherever off + j < len(out)."""
    end = min(len(out), off + len(seg))
    if end <= off:
        return
    tgt = out[off:end]
    if c == 1:
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
    buf = prod.to_bytes(wb * n, "little")
    return [int.from_bytes(buf[i:i + wb], "little") - half for i in range(0, wb * n, wb)]


def scaled_weights(x, y):
    """Write x = P/D, y = Q/D over the least common denominator D."""
    dx, dy = int(x.denominator), int(y.denominator)
    D = dx * dy // gcd(dx, dy)
    return int(x.numerator) * (D // dx), int(y.numerator) * (D // dy), D


def ungrade(co, D):
    """(domain, exact values) of a D^n-graded list: integers when D = 1."""
    if D == 1:
        return INTEGER, list(co)
    pw = 1
    vals = []
    for c in co:
        vals.append(rational(c, pw))
        pw *= D
    return RATIONAL, vals
