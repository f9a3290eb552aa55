"""Direct weighted-bias evaluation by brute-force partition enumeration.

Everything here works straight from the combinatorial definitions, with no
generating functions anywhere: this module is the ground truth the series
engines are tested against.  Its enumerators are private; the tests check
the oracle against a separate enumerator in ``tests/reference.py``.

Each pair sum is built from weight-free histograms of P(j) and D(j) by
(excess, number of parts); these and the resulting terms, counts of pairs
by their two part numbers, are memoised per residue classes, so a spec only
weighs cached terms by its x and y.  It weighs them over one common
denominator, a power of each weight's denominator, so the sum is taken in
Python ints and one rational is formed at the end.  Everything is still
pure enumeration, for correctness at desk scale, not speed.
"""

from __future__ import annotations

from functools import lru_cache

from .biasspec import BiasSpec
from .scalars import InvalidParameterError, nonneg_weight, rational

PAIR_CAP = 36      # cap for sums over pairs (lam, mu) with |lam|+|mu| = n


def _iter_partitions(n: int, maxpart: int):
    """Yield nonincreasing part tuples of n with parts <= maxpart."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _iter_partitions(n - first, first):
            yield (first,) + rest


def _iter_distinct(n: int, maxpart: int):
    """Yield strictly decreasing part tuples of n with parts <= maxpart."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _iter_distinct(n - first, first - 1):
            yield (first,) + rest


def check_cap(n: int, cap: int):
    """Reject a size n the enumeration cannot reach: not an integer in 0..cap."""
    if not isinstance(n, int) or n < 0:
        raise InvalidParameterError("n must be a non-negative integer")
    if n > cap:
        raise InvalidParameterError(
            f"n={n} exceeds the enumeration cap {cap}; "
            "use the series engine for larger sizes")


@lru_cache(maxsize=4096)
def _histogram(j: int, distinct: bool, classes):
    """Items ((excess, number of parts), count) over P(j) or D(j).

    ``classes`` is (a mod m, b mod m, m) and the excess is the number of
    class-a parts minus the number of class-b parts; with ``classes`` None
    every excess is 0.  This is the direct definitional count, merely
    grouped by the two statistics.
    """
    hist: dict = {}
    iterator = _iter_distinct(j, j if j else 1) if distinct else _iter_partitions(j, j if j else 1)
    for parts in iterator:
        d = 0
        if classes:
            ra, rb, m = classes
            for p in parts:
                r = p % m
                if r == ra:
                    d += 1
                elif r == rb:
                    d -= 1
        key = (d, len(parts))
        hist[key] = hist.get(key, 0) + 1
    return tuple(hist.items())


@lru_cache(maxsize=1024)
def _pair_terms(n: int, classes):
    """Items ((l(lam), l(mu)), count) over pairs (lam, mu) in P x D with
    |lam| + |mu| = n and positive joint excess (every pair if ``classes``
    is None): the weight-free form of the pair sum.
    """
    terms: dict = {}
    for j in range(n + 1):
        hd = _histogram(n - j, True, classes)
        for (dp, lp), cp in _histogram(j, False, classes):
            for (dd, ld), cd in hd:
                if classes is None or dp + dd > 0:
                    key = (lp, ld)
                    terms[key] = terms.get(key, 0) + cp * cd
    return tuple(terms.items())


def _evaluate(terms, x, y):
    """Exact sum of count * x^i * y^j over the terms; a rational even when empty.

    With x = xn/xd and y = yn/yd, every term is weighed over the common
    denominator xd^I * yd^J, I and J the largest part counts among the
    terms, so the numerator is a sum of Python ints and one rational is
    formed at the end.
    """
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    I = max((i for (i, _), _ in terms), default=0)
    J = max((j for (_, j), _ in terms), default=0)
    xs = [xn**i * xd**(I - i) for i in range(I + 1)]
    ys = [yn**j * yd**(J - j) for j in range(J + 1)]
    return rational(sum(c * xs[i] * ys[j] for (i, j), c in terms), xd**I * yd**J)


def oracle_bias(spec: BiasSpec, n: int):
    """p_n(a,b,m;x,y) straight from the definition.

    Sums x^{l(lam)} y^{l(mu)} over pairs (lam, mu) in P x D with
    |lam| + |mu| = n and more parts in class a than in class b (classes
    counted jointly over the pair).
    """
    check_cap(n, PAIR_CAP)
    m = spec.m
    return _evaluate(_pair_terms(n, (spec.a % m, spec.b % m, m)), spec.x, spec.y)


def oracle_total(x, y, n: int):
    """p_n(x,y): summed weights over all pairs (lam, mu) with |lam|+|mu| = n.

    Specialisations: (1,0) counts partitions, (0,1) distinct partitions,
    (1,1) overpartitions.
    """
    check_cap(n, PAIR_CAP)
    return _evaluate(_pair_terms(n, None), nonneg_weight(x), nonneg_weight(y))

