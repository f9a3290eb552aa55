"""Inequality, non-negativity and threshold verifications.

Implements the verification side of the bias engine: the dominance sweeps
over weight grids, the divisor-witness criterion for the distinct-parts
dominance family, the four non-negativity expansions, and the finite-horizon
threshold scanner for the distinct-partition bias conjecture.
"""

from __future__ import annotations

import os
import random

from .biasspec import BiasSpec
from .engine import (
    _gf_graded,
    _prefactor_graded,
    bias_series_dp,
    bias_series_gf,
    compare_bias,
    symmetric_distinct_pair,
)
from .kernel import add_shifted, div1, mul1, rung, scaled_weights, ungrade
from .scalars import InvalidParameterError, nonneg_weight, positive_order, rational
from .series import TruncatedSeries

__all__ = [
    "doubling_orbit_witness",
    "nonneg_suite",
    "nonneg_expand",
    "random_nonneg_params",
    "NonnegReport",
    "conjecture_scan",
    "ScanReport",
    "dominance_sweep",
    "distinct_dominance_sweep",
    "SweepReport",
    "cross_check_matrix",
]


# -- divisor witness for the distinct-parts dominance family -------------------


def _check_ordered_classes(a, b, m):
    if not (1 <= a < b <= m):
        raise InvalidParameterError("need 1 <= a < b <= m")


def doubling_orbit_witness(a: int, b: int, m: int):
    """Smallest k | (b-a) whose doubling orbit {2^h k mod m : h >= 0}
    avoids both residue classes a and b; None when no divisor qualifies.

    The orbit is walked until a state repeats, so it is collected whole.
    """
    _check_ordered_classes(a, b, m)
    diff = b - a
    for k in range(1, diff + 1):
        if diff % k:
            continue
        orbit, state = set(), k % m
        while state not in orbit:
            orbit.add(state)
            state = 2 * state % m
        if a % m not in orbit and b % m not in orbit:
            return k
    return None


# -- non-negativity suite -------------------------------------------------------


class NonnegReport:
    def __init__(self, kind: str, params: dict, order: int, passed: bool,
                 first_negative: int | None):
        self.kind, self.params, self.order = kind, params, order
        self.passed, self.first_negative = passed, first_negative

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "params": {k: str(v) for k, v in self.params.items()},
            "N": self.order,
            "passed": self.passed,
            "first_negative": self.first_negative,
        }


def _require(cond, message):
    if not cond:
        raise InvalidParameterError(f"hypothesis violated: {message}")


def _ladder_sum(P, Q, D, s, m, c, N):
    """Graded sum over k >= 0 of prod_{j<k}(x+y q^{s+jm}) q^{c*(k+1)}
    divided by (q^s;q^m)_{k+1}.

    Shared shape of both branches of the paired-sum difference check.
    """
    acc = [0] * (N + 1)
    term = rung([1] + [0] * N, D, 0, D, c, 0, s, N)  # the k = 0 term, q^c / (1 - q^s)
    k, off = 0, c  # term k starts at q^{c(k+1)}
    while any(term):
        add_shifted(acc, off, term)
        term = rung(term, P, Q, D, c, s + k * m, s + (k + 1) * m, N - off)
        k, off = k + 1, off + c
    return acc


def _expand_f_series(params, N):
    a, b, m = params["a"], params["b"], params["m"]
    x, y = nonneg_weight(params["x"]), nonneg_weight(params["y"])
    _check_ordered_classes(a, b, m)
    _require(x >= 1, "need x >= 1")
    _require((a, b) != (1, 2), "the claim excludes (a, b) = (1, 2)")
    P, Q, D = scaled_weights(x, y)
    co = _prefactor_graded(a, b, m, P, Q, D, N)
    if b - a <= N:
        mul1(co, b - a, -D ** (b - a), N)  # * (1 - q^{b-a}), graded
    return TruncatedSeries(ungrade(co, D))


def _expand_maino(params, N):
    a, b, m, s = params["a"], params["b"], params["m"], params["s"]
    x, y = nonneg_weight(params["x"]), nonneg_weight(params["y"])
    _require(isinstance(a, int) and a >= 1, "a must be a positive integer")
    _require(isinstance(b, int) and b >= 1, "b must be a positive integer")
    _require(isinstance(m, int) and m >= 1, "m must be a positive integer")
    _require(isinstance(s, int) and s >= 1, "s must be a positive integer")
    _require(x >= 1, "need x >= 1")
    P, Q, D = scaled_weights(x, y)
    first = _ladder_sum(P, Q, D, s, m, a, N)
    second = _ladder_sum(P, Q, D, s, m, a * b, N)
    co = [u - v for u, v in zip(first, second)]
    return TruncatedSeries(ungrade(co, D))


def _expand_chern_corollary(params, N):
    m, s = params["m"], params["s"]
    _require(isinstance(m, int) and m >= 1, "m must be a positive integer")
    _require(isinstance(s, int) and s >= 1, "s must be a positive integer")
    acc = [0] * (N + 1)
    denom = [0] * (N + 1)
    denom[0] = 1  # 1/(q^s;q^m)_k, advanced per k
    for k in range(1, N + 1):
        div1(denom, s + (k - 1) * m, 1, N)
        # add q^k (1 - q^k) * denom
        add_shifted(acc, k, denom)
        add_shifted(acc, 2 * k, denom, -1)
    return TruncatedSeries(acc)


def _expand_andrews(params, N):
    a_seq, b_seq = list(params["a_seq"]), list(params["b_seq"])
    h = params["h"]
    x, y = nonneg_weight(params["x"]), nonneg_weight(params["y"])
    _require(len(a_seq) == len(b_seq) and a_seq, "sequences must share a positive length")
    _require(all(isinstance(v, int) and v >= 1 for v in a_seq + b_seq),
             "sequence entries must be positive integers")
    _require(all(u < v for u, v in zip(a_seq, a_seq[1:])), "first sequence must increase")
    _require(all(u < v for u, v in zip(b_seq, b_seq[1:])), "second sequence must increase")
    a0, b0 = a_seq[0], b_seq[0]
    _require(b0 > a0, "need b_0 > a_0")
    _require(b0 % a0 == 0, "need b_0 divisible by a_0")
    for j in range(1, len(a_seq)):
        _require((b_seq[j] - a_seq[j]) % a0 == 0,
                 "need b_j - a_j divisible by a_0 for every j >= 1")
    _require(isinstance(h, int) and h >= 0, "h must be a non-negative integer")
    _require(x >= 1, "need x >= 1")
    P, Q, D = scaled_weights(x, y)

    def branch(seq, lead):
        co = [0] * (N + 1)
        off = lead * h
        if off > N:
            return co
        co[off] = P**h * D ** (off - h)  # graded (x q^lead)^h
        for e in (e for e in seq if e <= N):  # * (1 + y q^e) / (1 - x q^e), graded
            mul1(co, e, Q * D ** (e - 1), N)
            div1(co, e, P * D ** (e - 1), N)
        return co

    co = [u - v for u, v in zip(branch(a_seq, a0), branch(b_seq, b0))]
    return TruncatedSeries(ungrade(co, D))


NONNEG_KINDS = {
    "f_series": _expand_f_series,
    "maino": _expand_maino,
    "chern_corollary": _expand_chern_corollary,
    "andrews": _expand_andrews,
}


def nonneg_expand(kind: str, params: dict, N: int) -> TruncatedSeries:
    """Exact expansion of one of the four non-negativity expressions.

    Hypotheses are checked up front and named on failure; the suite never
    silently evaluates outside a claim's scope.
    """
    if kind not in NONNEG_KINDS:
        raise InvalidParameterError(f"unknown non-negativity kind {kind!r}")
    positive_order(N)
    return NONNEG_KINDS[kind](params, N)


def nonneg_suite(kind: str, params: dict, N: int) -> NonnegReport:
    series = nonneg_expand(kind, params, N)
    first_neg = None
    for n, c in enumerate(series.coeffs):
        if c < 0:
            first_neg = n
            break
    return NonnegReport(kind, params, N, first_neg is None, first_neg)


def random_nonneg_params(kind: str, rng: random.Random) -> dict:
    """Draw parameters satisfying the hypotheses of the given kind."""
    def weight_ge1():
        return rational(rng.randint(1, 3) * 2 + rng.randint(0, 3), 2)

    def weight_ge0():
        return rational(rng.randint(0, 5), rng.choice((1, 2)))

    if kind == "f_series":
        while True:
            m = rng.randint(2, 8)
            a = rng.randint(1, m - 1)
            b = rng.randint(a + 1, m)
            if (a, b) != (1, 2):
                break
        return {"a": a, "b": b, "m": m, "x": weight_ge1(), "y": weight_ge0()}
    if kind == "maino":
        return {
            "a": rng.randint(1, 4),
            "b": rng.randint(1, 4),
            "m": rng.randint(1, 6),
            "s": rng.randint(1, 6),
            "x": weight_ge1(),
            "y": weight_ge0(),
        }
    if kind == "chern_corollary":
        return {"m": rng.randint(1, 10), "s": rng.randint(1, 10)}
    if kind == "andrews":
        a0 = rng.randint(1, 3)
        length = rng.randint(1, 5)
        a_seq = [a0]
        for _ in range(length - 1):
            a_seq.append(a_seq[-1] + rng.randint(1, 4))
        b0 = a0 * rng.randint(2, 4)
        b_seq = [b0]
        for j in range(1, length):
            lo = b_seq[-1] + 1
            # choose b_j = a_j + a0*k >= lo
            k = max(1, -(-(lo - a_seq[j]) // a0))
            b_seq.append(a_seq[j] + a0 * (k + rng.randint(0, 2)))
        return {
            "a_seq": a_seq,
            "b_seq": b_seq,
            "h": rng.randint(0, 3),
            "x": weight_ge1(),
            "y": weight_ge0(),
        }
    raise InvalidParameterError(f"unknown non-negativity kind {kind!r}")


# -- conjecture threshold scanner ------------------------------------------------


class ScanReport:
    def __init__(self, a: int, b: int, m: int, horizon: int, violations: list,
                 threshold: int, inconclusive: bool):
        self.a, self.b, self.m, self.horizon = a, b, m, horizon
        self.violations, self.threshold, self.inconclusive = violations, threshold, inconclusive

    def to_json_obj(self):
        return {"a": self.a, "b": self.b, "m": self.m, "horizon": self.horizon,
                "violations": self.violations, "threshold": self.threshold,
                "inconclusive": self.inconclusive}


# share of the scan horizon, counted from its top, whose violations make a
# scan inconclusive
_GUARD_FRACTION = 0.1


def conjecture_scan(a: int, b: int, m: int, N: int) -> ScanReport:
    """Scan the distinct-partition bias d_n(a,b;m) vs d_n(b,a;m) up to n = N.

    Reports every violating n, the minimal dominance threshold *within the
    horizon* (last violation + 1, or 0), and an inconclusive flag when
    violations occur in the top tenth of the horizon.  No claim is made
    beyond the horizon.
    """
    _check_ordered_classes(a, b, m)
    if m < 3:
        raise InvalidParameterError("the scan needs m >= 3")
    if b == m - a and 2 * a < m:
        fwd, rev = symmetric_distinct_pair(a, m, N)
        violations = [n for n, (p, q) in enumerate(zip(fwd.coeffs, rev.coeffs)) if p < q]
    else:
        violations = compare_bias(BiasSpec(a, b, m, 0, 1), N).violations
    threshold = violations[-1] + 1 if violations else 0
    cut = N - int(_GUARD_FRACTION * N)
    inconclusive = any(n >= cut for n in violations)
    return ScanReport(a, b, m, N, violations, threshold, inconclusive)


# -- grid sweeps ------------------------------------------------------------------


class SweepReport:
    def __init__(self, name: str, order: int, comparisons: int, violations: list | None = None,
                 witnesses: dict | None = None):
        self.name, self.order, self.comparisons = name, order, comparisons
        self.violations = [] if violations is None else violations  # (spec label, [n ...])
        self.witnesses = {} if witnesses is None else witnesses

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self):
        return {
            "check": self.name,
            "N": self.order,
            "comparisons": self.comparisons,
            "violations": [
                {"spec": label, "indices": idx} for label, idx in self.violations
            ],
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
            "passed": self.passed,
        }


def _monotone_graded(g, m, D):
    """c_{n+m} >= c_n for every n, read on the D^n-graded list g of the c_n."""
    step = D**m
    return all(u >= step * v for u, v in zip(g[m:], g))


def _sweep_group(task):
    """Violations and step-m monotonicity of every ordered pair (a, b) of
    one (m, x, y) group, as {(a, b): (indices where p_ab < p_ba, both
    sequences monotone)}.

    Both orders of every pair come from one :func:`_gf_graded` call, which
    builds each class's ladder once for all its partners and, at every
    weight, applies each prefactor class factor once to the masked lanes of
    every pair that avoids it.  A pair and its swap come from Horner passes
    over two different ladders, so every comparison still rests on two
    independent runs.  The sequences stay D^n-graded ints, which compare
    at each n as their values do.
    """
    m, x, y, pairs, N = task
    P, Q, D = scaled_weights(x, y)
    graded = _gf_graded(dict.fromkeys(pair for a, b in pairs for pair in ((a, b), (b, a))),
                        m, P, Q, D, N)
    out = {}
    for a, b in pairs:
        fwd, rev = graded[a, b], graded[b, a]
        out[a, b] = ([n for n, (p, q) in enumerate(zip(fwd, rev)) if p < q],
                     _monotone_graded(fwd, m, D) and _monotone_graded(rev, m, D))
    return out


def _run_sweep(name, specs, N, jobs, witnesses=None) -> SweepReport:
    """Compare every spec with its swap and collect the violations into a
    report, in the order of ``specs``.

    The specs run in groups that share (m, x, y), one :func:`_sweep_group`
    each, so that a class's ladder is built once per group; a pool gets
    the groups largest first, one at a time.  A sweep with no spec, an
    order below 1, or an order below its largest modulus m, whose step-m
    monotonicity then has no pair c_n, c_{n+m} (:func:`monotonicity_check`
    refuses that too), would pass without comparing anything, so it is
    rejected as an invalid configuration instead; :func:`_sweep_group`
    calls no entry point that checks the order itself.  ``jobs`` defaults
    to the CPUs this process may run on (its affinity set, where the OS
    keeps one); any other value must be a positive int, checked before a
    pool starts.
    """
    positive_order(N)
    if not specs:
        raise InvalidParameterError(f"the {name} sweep has no comparison to run")
    m_top = max(spec.m for spec in specs)
    if N < m_top:
        raise InvalidParameterError(
            f"the {name} sweep compares c_n with c_{{n+m}}: N = {N} is below m = {m_top}")
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif not isinstance(jobs, int) or jobs < 1:
        raise InvalidParameterError(f"jobs must be a positive integer, not {jobs!r}")
    groups = {}
    for spec in specs:  # a repeated grid value repeats a spec, run once
        groups.setdefault((spec.m, spec.x, spec.y), {})[spec.a, spec.b] = None
    tasks = sorted((key + (list(pairs), N) for key, pairs in groups.items()),
                   key=lambda task: len(task[3]), reverse=True)
    if jobs > 1 and len(tasks) > 1:
        # imported here: multiprocessing costs every CLI start 20-25 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_group, tasks, chunksize=1))
    else:
        results = map(_sweep_group, tasks)
    verdicts = {}
    for (m, x, y, _, _), result in zip(tasks, results):
        for (a, b), verdict in result.items():
            verdicts[a, b, m, x, y] = verdict
    report = SweepReport(name, N, len(specs), witnesses=witnesses or {})
    for spec in specs:
        violations, mono = verdicts[spec.a, spec.b, spec.m, spec.x, spec.y]
        if violations:
            report.violations.append((spec.label(), violations))
        if not mono:
            report.violations.append((spec.label(), ["monotonicity"]))
    return report


def dominance_sweep(m_max: int, xs, ys, N: int, jobs: int | None = None) -> SweepReport:
    """Residue dominance over every ordered pair a < b <= m <= m_max and
    the given weight grids; weights x must satisfy x >= 1."""
    specs = [BiasSpec(a, b, m, x, y) for m in range(1, m_max + 1)
             for b in range(2, m + 1) for a in range(1, b) for x in xs for y in ys]
    if any(spec.x < 1 for spec in specs):
        raise InvalidParameterError("dominance grid needs x >= 1")
    return _run_sweep("thm1", specs, N, jobs)


def distinct_dominance_sweep(m_max: int, xs, N: int, jobs: int | None = None) -> SweepReport:
    """Witnessed dominance with y = 1: every triple (a, b, m) admitting a
    doubling-orbit witness is checked over the x grid."""
    specs = []
    witnesses = {}
    for m in range(1, m_max + 1):
        for b in range(2, m + 1):
            for a in range(1, b):
                k = doubling_orbit_witness(a, b, m)
                if k is None:
                    continue
                witnesses[f"({a},{b},{m})"] = k
                specs += [BiasSpec(a, b, m, x, 1) for x in xs]
    return _run_sweep("thm2", specs, N, jobs, witnesses)


# -- cross-method agreement --------------------------------------------------------


_CROSS_CHECK_WEIGHTS = ((1, 0), (0, 1), (1, 1), (2, 1))


def cross_check_matrix(m_max: int, n_max: int):
    """Method-agreement matrix: gf vs dp vs brute-force oracle.

    Returns (rows, all_ok); each row records one spec and whether the three
    routes produced identical values for every n <= n_max.
    """
    from .oracle import PAIR_CAP, check_cap, oracle_bias

    check_cap(n_max, PAIR_CAP)
    rows = []
    all_ok = True
    for m in range(1, m_max + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a == b:
                    continue
                for (x, y) in _CROSS_CHECK_WEIGHTS:
                    spec = BiasSpec(a, b, m, x, y)
                    gf = bias_series_gf(spec, n_max)
                    dp = bias_series_dp(spec, n_max)
                    orc = [oracle_bias(spec, n) for n in range(n_max + 1)]
                    gf_dp = gf.coeffs == dp.coeffs
                    gf_orc = gf.coeffs == orc
                    ok = gf_dp and gf_orc
                    all_ok = all_ok and ok
                    rows.append({
                        "spec": spec.label(),
                        "gf_eq_dp": gf_dp,
                        "gf_eq_oracle": gf_orc,
                    })
    if not rows:
        raise InvalidParameterError("the cross-check has no spec to compare")
    return rows, all_ok
