"""A fixed pure-Python yardstick for the speed of the machine right now.

The benchmark's host shares its cores: the same pass can take 1.5x longer
for minutes at a time.  Each pass times this kernel just before and just
after its timed region, and run.py scales every time by
``REFERENCE_S / kernel time``, reporting seconds at a fixed reference speed.
The kernel does the kinds of work qbias does (big-int multiply-add in list
comprehensions, Fraction arithmetic, partition enumeration by generators
into small dicts) and never calls qbias, so a change to qbias cannot move
it.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

REFERENCE_S = 0.05  # kernel time that counts as reference speed
REPEATS = 5


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def kernel():
    n = 500
    a = [3 ** (i % 150) + i for i in range(n)]
    out = [0] * n
    for i, ai in enumerate(a):
        seg = a[: n - i]
        out[i:i + len(seg)] = [t + ai * s for t, s in zip(out[i:i + len(seg)], seg)]
    acc = Fraction(0)
    for k in range(1, 600):
        acc += Fraction(k % 7 + 1, k)
    hist = {}
    for parts in itertools.combinations(range(1, 30), 3):
        key = (sum(parts) % 5, len(parts))
        hist[key] = hist.get(key, 0) + 1
    for parts in _partitions(28, 28):
        key = (sum(1 for v in parts if v % 3 == 1) - sum(1 for v in parts if v % 3 == 2), len(parts))
        hist[key] = hist.get(key, 0) + 1
    return out[-1], acc, hist


def samples() -> list:
    """Wall times of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times

