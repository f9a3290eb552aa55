"""Independent references the tests check the package against.

Nothing here imports ``qbias.oracle`` or the series engines' helpers:
partitions are enumerated from their definitions as plain tuples, the
digamma function comes from its recurrence and asymptotic expansion, and
the dense reference sums get their q-shift and sum from two list helpers.
The kernel's sparse division and unit steps are kept here in their plain
form, one multiply a term, to check the values and types of their fast
paths against.
"""

import math

from qbias import InvalidParameterError, TruncatedSeries


def partitions(n, maxpart=None):
    """Every partition of n once, as a nonincreasing tuple of parts."""
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def distinct_partitions(n, maxpart=None):
    """Every partition of n into distinct parts once, as a decreasing tuple."""
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in distinct_partitions(n - first, first - 1):
            yield (first,) + rest


def residue_count(parts, a, m):
    """Number of parts congruent to a modulo m; class m holds the multiples of m."""
    return sum(1 for p in parts if (p - a) % m == 0)


def digamma_reference(u: float) -> float:
    """Digamma by recurrence plus the large-argument expansion."""
    if u <= 0:
        raise InvalidParameterError("positive argument required")
    acc = 0.0
    while u < 12.0:
        acc -= 1.0 / u
        u += 1.0
    # asymptotic tail: ln u - 1/(2u) - sum B_{2n} / (2n u^{2n})
    inv2 = 1.0 / (u * u)
    tail = (
        inv2 * (1.0 / 12.0
                - inv2 * (1.0 / 120.0
                          - inv2 * (1.0 / 252.0
                                    - inv2 * (1.0 / 240.0
                                              - inv2 * (1.0 / 132.0)))))
    )
    return acc + math.log(u) - 0.5 / u - tail


def shift(s, e):
    """s times q^e (e >= 0), dropping what passes the order."""
    n = len(s.coeffs)
    return TruncatedSeries([0] * min(e, n) + s.coeffs[:max(n - e, 0)])


def add(s, t):
    """The coefficientwise sum of two series of one order."""
    return TruncatedSeries([u + v for u, v in zip(s.coeffs, t.coeffs, strict=True)])


# -- the kernel's sparse division and unit steps, one multiply a term ----------


def div1(co, e, u, N):
    """In place: co /= (1 - u q^e), multiplying every nonzero term by u."""
    for n in range(e, N + 1):
        p = co[n - e]
        if p:
            co[n] += u * p


def div_sparse(co, s, N):
    """In place: co /= s for s[0] = 1, one multiply per nonzero s_k and n."""
    terms = [(k, v) for k, v in enumerate(s[1:N + 1], 1) if v]
    for n in range(1, N + 1):
        c = co[n]
        for k, v in terms:
            if k > n:
                break
            c -= v * co[n - k]
        co[n] = c
    return co


def rung(co, P, Q, D, c, e, f, N):
    """co q^c (x + y q^e) / (1 - q^f) with x = P/D, y = Q/D on a graded
    list, from q^c on, with both weights multiplied into every entry."""
    n = N - c
    if n < 0:
        return []
    if P:
        w = P * D ** (c - 1)
        out = [w * g for g in co[:n + 1]]
        out += [0] * (n + 1 - len(out))
    else:
        out = [0] * (n + 1)
    if Q and e <= n:
        w = Q * D ** (c + e - 1)
        for j, g in enumerate(co[:n + 1 - e]):
            out[e + j] += w * g
    if f <= n:
        div1(out, f, D**f, n)
    return out
