"""Truncated q-products on plain coefficient lists.

Every product in the package is a table of factors (1 + u q^e)^power over
sets of exponents e >= 1, applied to a dense coefficient list c_0..c_N.
This module is the only place that multiplies such factors in, that takes
a step (P + Q q^e) / (1 - q^f) of a weight ladder, and that shifts or
multiplies whole coefficient lists.

Lists may be *graded*: a series whose weights have common denominator D
carries c_n * D^n at index n, so weighted products stay in integers.  A
weight u/D at q^e then acts with the integer u * D^(e-1); :func:`qprod`
applies that convention, :func:`graded_shift` regrades a shifted list, and
:func:`ungrade` turns graded lists back into exact values.
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
    >= 1 and power a nonzero integer.  ``co`` (default: the series 1) is
    changed in place and returned.  With D = 1 the factors are ungraded.
    """
    if co is None:
        co = [0] * (N + 1)
        co[0] = 1
    for u, exponents, power in factors:
        if not u or not power:
            continue
        if power not in (1, -1):
            # build the row once, then raise it: one set of passes in place
            # of |power|
            row = qprod([(u, exponents, 1 if power > 0 else -1)], N, D)
            co[:] = mul_trunc(co, _pow_trunc(row, abs(power), N), N)
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


def _pow_trunc(co, k, N):
    """co^k truncated at N, k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = co if out is None else mul_trunc(out, co, N)
        k >>= 1
        if not k:
            return out
        co = mul_trunc(co, co, N)


def rung(co, P, Q, e, f, N):
    """One weight-ladder step: co * (P + Q*q^e) / (1 - q^f) as a new list.

    With the scaled weights P = x*D, Q = y*D a list carrying D^deg comes out
    carrying D^(deg+1); :func:`graded_shift` later grades it by index.
    """
    out = [P * v for v in co]
    if Q:
        for n in range(e, N + 1):
            p = co[n - e]
            if p:
                out[n] += Q * p
    div1(out, f, 1, N)
    return out


def graded_shift(co, off, deg, D, N):
    """co * q^off truncated at N, as the list s with s[j] at index off + j.

    ``co`` carries D^deg; the entry landing at index off + j is multiplied
    by D^(j + off - deg), so that it carries D^(off + j).
    """
    lim = N + 1 - off
    if lim <= 0:
        return []
    if D == 1:
        return co[:lim]
    pw = D ** (off - deg)
    out = []
    for v in co[:lim]:
        out.append(v * pw)
        pw *= D
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
