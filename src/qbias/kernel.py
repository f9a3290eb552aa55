"""Truncated q-products on plain coefficient lists.

Every product in the package is a table of factors (1 + u q^e)^power over
sets of exponents e >= 1, applied to a dense coefficient list c_0..c_N.
This module is the only place that multiplies such factors in.

Lists may be *graded*: a series whose weights have common denominator D
carries c_n * D^n at index n, so weighted products stay in integers.  A
weight u/D at q^e then acts with the integer u * D^(e-1); :func:`qprod`
applies that convention, and :func:`ungrade` turns graded lists back into
exact values.
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
        if not u:
            continue
        for e in exponents:
            if e > N:
                continue
            w = u if D == 1 else u * D ** (e - 1)
            for _ in range(power):
                mul1(co, e, w, N)
            for _ in range(-power):
                div1(co, e, -w, N)
    return co


def mul_trunc(a, b, N):
    """Schoolbook product of coefficient lists, truncated at N."""
    out = [0] * (N + 1)
    for i, ai in enumerate(a):
        if ai:
            lim = N - i + 1
            seg = b[:lim]
            tgt = out[i : i + len(seg)]
            out[i : i + len(seg)] = [t + ai * bj for t, bj in zip(tgt, seg)]
    return out


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
