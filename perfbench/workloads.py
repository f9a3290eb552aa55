"""The benchmark's workloads: seeded draws of exact inputs from fixed pools.

A workload is a list of slots; each slot is a pool of operations, and a
seed picks one operation per slot.  Every operation any seed can draw is
therefore known in advance, which is what lets ``reference.json`` hold a
digest for each of them.  Pools are kept cost-homogeneous (same class sums
a + b, same weight denominators, same flavors) so that the seed changes
the inputs but hardly the amount of work.

An operation is a tuple whose first item names its kind; weights are
exact rationals written as strings ("3/2") and turned into ``Fraction``
values before they reach qbias.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from fractions import Fraction


def _grids(ints, n_int, fracs, n_frac):
    """Every weight grid with n_int values from ints and n_frac from fracs."""
    return [i + f for i in itertools.combinations(ints, n_int)
            for f in itertools.combinations(fracs, n_frac)]


# compare_bias runs gf on (a, b, m) and on (b, a, m), so both orders cost the
# same; the class pair stays {2, 5}, because the ladder gf keeps in memory
# has about N/min(a, b) rows and sets the pass's peak RSS.
_TRIPLES = [(a, b, m) for m in (6, 7) for a, b in ((2, 5), (5, 2))]
# Weight denominators stay 2, so graded coefficient sizes match across draws.
_RATIONAL_WEIGHTS = [("3/2", "1/2"), ("2", "1/2"), ("3/2", "1")]


def _sweep():
    # The integer weights stay fixed: a larger integer x or y costs more per
    # comparison, while 3/2 and 5/2 (or 1/2 and 3/2) cost about the same.
    thm1 = [("thm1", 6, xs, ys, 150)
            for xs in _grids(("1",), 1, ("3/2", "5/2"), 1)
            for ys in _grids(("0", "1"), 2, ("1/2", "3/2"), 1)]
    thm2 = [("thm2", 8, xs, 150)
            for xs in _grids(("0", "1"), 2, ("1/2", "3/2", "5/2"), 2)]
    return [thm1, thm2]


def _deep_int():
    return [
        [("compare", a, b, m, "1", "1", 800) for a, b, m in _TRIPLES],
        [("compare", a, b, m, "2", "1", 800) for a, b, m in _TRIPLES],
        # asymmetric triples take the gf route with (x, y) = (0, 1)
        [("scan", a, b, m, 2000) for a, b, m in ((1, 3, 6), (1, 2, 7), (1, 3, 7))],
        # symmetric triples (b = m - a) take the closed-form pair
        [("scan", a, m - a, m, 2000) for a, m in ((1, 5), (2, 5), (1, 6), (2, 6))],
        [("symmetric", a, m, "11", 1500) for a, m in ((1, 3), (1, 4), (1, 5), (2, 5), (1, 6))],
    ]


def _deep_rat():
    compares = [("compare", a, b, m, x, y, 600)
                for a, b, m in _TRIPLES for x, y in _RATIONAL_WEIGHTS]
    return [compares, compares, compares,
            [("total", x, y, 1200) for x, y in (("1/2", "1/2"), ("3/2", "1/2"), ("1/2", "3/2"))]]


def _battery():
    def cli(*argv):
        return ("cli",) + argv

    return [
        [cli("cross-check", "--m-max", "3", "--n-max", "18")],
        [cli("verify", "nonneg", "--draws", "12", "--N", "120", "--seed", str(s))
         for s in range(32)],
        [cli("verify", "identities", "--N", "90")],
        [cli("asymptotics", "convergence", "--a", str(a), "--m", str(m), "--flavor", f,
             "--samples", "300,600,1200")
         for a, m in ((1, 6), (1, 7), (2, 7), (3, 7)) for f in ("01", "10")],
        [cli("asymptotics", "boundary", "--a", "1", "--m", "3", "--flavor", f,
             "--z", "0.5,0.4", "--h", str(h), "--N", "1200")
         for f in ("01", "10") for h in (0, 1, 2)],
        [cli("compute-bias", "--a", str(a), "--b", str(b), "--m", str(m), "--x", "1", "--y", "1",
             "--N", "150", "--method", "dp", "--format", fmt)
         for a, b, m in ((1, 3, 4), (3, 1, 4), (2, 3, 5), (3, 2, 5))
         for fmt in ("json", "csv", "human")],
    ]


WORKLOADS = {
    "sweep": _sweep(),
    "deep-int": _deep_int(),
    "deep-rat": _deep_rat(),
    "battery": _battery(),
}


def draw(workload: str, seed: int) -> list:
    """The operations of one pass of a workload, as the seed picks them."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.choice(pool) for pool in WORKLOADS[workload]]


def all_ops(workload: str) -> list:
    """Every operation any seed can draw for a workload, in a fixed order."""
    seen = {}
    for pool in WORKLOADS[workload]:
        for op in pool:
            seen.setdefault(op, None)
    return list(seen)


def op_key(op) -> str:
    return " ".join(str(part) if not isinstance(part, tuple) else ",".join(part)
                    for part in op)


def run_op(op, jobs: int, out_path: str):
    """Run one operation and return its raw result.

    qbias functions are looked up on their modules at call time, so a
    tracer that rebinds those names sees these calls.
    """
    import qbias.checks as checks
    import qbias.cli as cli
    import qbias.engine as engine
    from qbias.biasspec import BiasSpec

    kind = op[0]
    if kind == "compare":
        _, a, b, m, x, y, n = op
        return engine.compare_bias(BiasSpec(a, b, m, Fraction(x), Fraction(y)), n)
    if kind == "scan":
        _, a, b, m, n = op
        return checks.conjecture_scan(a, b, m, n)
    if kind == "symmetric":
        _, a, m, flavor, n = op
        return engine.bias_series_symmetric(a, m, flavor, n)
    if kind == "total":
        _, x, y, n = op
        return engine.total_weighted_series(Fraction(x), Fraction(y), n)
    if kind == "thm1":
        _, m_max, xs, ys, n = op
        return checks.dominance_sweep(m_max, [Fraction(v) for v in xs],
                                      [Fraction(v) for v in ys], n, jobs=jobs)
    if kind == "thm2":
        _, m_max, xs, n = op
        return checks.distinct_dominance_sweep(m_max, [Fraction(v) for v in xs], n, jobs=jobs)
    if kind == "cli":
        return cli.main(list(op[1:]) + ["--out", out_path])
    raise ValueError(f"unknown operation kind {kind!r}")


def _coeffs(values) -> str:
    return ",".join(str(v) for v in values)


def output_bytes(op, result, out_path: str) -> bytes:
    """The exact output of an operation, as the bytes its digest covers.

    Series give their coefficient strings; CLI runs give the exit code and
    the report bytes.
    """
    kind = op[0]
    if kind == "compare":
        text = f"{_coeffs(result.values)}\n{_coeffs(result.swapped_values)}"
    elif kind == "scan":
        text = f"{result.violations} {result.threshold} {result.inconclusive}"
    elif kind in ("symmetric", "total"):
        text = _coeffs(result.coeffs)
    elif kind in ("thm1", "thm2"):
        text = (f"{result.comparisons} {result.violations} "
                f"{sorted(result.witnesses.items())} {result.passed}")
    else:
        report = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                report = fh.read()
        return f"exit {result}\n".encode() + report
    return text.encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
