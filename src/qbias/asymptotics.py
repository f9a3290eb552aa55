"""Asymptotic constants, coefficient predictions, and boundary-behaviour checks.

The limiting ratio of a symmetric bias sequence to its total sequence is a
digamma-difference constant; the coefficient growth itself follows from a
boundary profile f(e^{-z}) ~ alpha z^gamma exp(beta z^{-rho}/rho) through a
residue-class Tauberian argument.  This module evaluates those constants and
closed forms numerically and compares them with the exact sequences from the
series engines.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction

from .engine import (FLAVOR_XY, bias_series_symmetric, check_symmetric_args,
                     total_weighted_series)
from .scalars import InvalidParameterError, TailBoundError
from .series import evaluate_numeric

__all__ = [
    "AsymptoticProfile",
    "PROFILE_PARTITIONS",
    "PROFILE_DISTINCT",
    "PROFILE_OVERPARTITIONS",
    "BiasConstant",
    "digamma_diff",
    "bias_constant",
    "tauberian_predict_log",
    "convergence_report",
    "ConvergenceReport",
    "boundary_check",
    "BoundaryReport",
    "boundary_main_term",
    "suggest_boundary_order",
    "FLAVOR_XY",
]


class AsymptoticProfile(namedtuple("AsymptoticProfile", "alpha beta gamma rho")):
    """Boundary growth parameters: f(e^-z) ~ alpha * z^gamma * exp(beta * z^-rho / rho)."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, gamma: float, rho: float):
        if not (alpha > 0 and beta > 0 and rho > 0):
            raise InvalidParameterError("alpha, beta and rho must be positive")
        return super().__new__(cls, alpha, beta, gamma, rho)


# Profiles of the three classical totals, from the product asymptotics of
# their generating functions on the real boundary ray:
#   1/(q;q)_inf   ->  (2*pi)^{-1/2} z^{1/2} exp(pi^2/(6z))
#   (-q;q)_inf    ->  2^{-1/2} exp(pi^2/(12z))
#   (-q;q)/(q;q)  ->  (2*sqrt(pi))^{-1} z^{1/2} exp(pi^2/(4z))
PROFILE_PARTITIONS = AsymptoticProfile(1 / math.sqrt(2 * math.pi), math.pi**2 / 6, 0.5, 1.0)
PROFILE_DISTINCT = AsymptoticProfile(1 / math.sqrt(2), math.pi**2 / 12, 0.0, 1.0)
PROFILE_OVERPARTITIONS = AsymptoticProfile(1 / (2 * math.sqrt(math.pi)), math.pi**2 / 4, 0.5, 1.0)

PROFILES = {
    "partitions": PROFILE_PARTITIONS,
    "distinct": PROFILE_DISTINCT,
    "overpartitions": PROFILE_OVERPARTITIONS,
}


# -- digamma difference ----------------------------------------------------------


def _alternating_sum(term, terms: int = 48) -> float:
    """Accelerated sum of sum_{k>=0} (-1)^k term(k) for totally monotone terms.

    Chebyshev-style acceleration: each extra term gains a factor ~5.83, so
    48 terms exhaust double precision.
    """
    d = (3.0 + math.sqrt(8.0)) ** terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(terms):
        c = b - c
        s += c * term(k)
        b = (k + terms) * (k - terms) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def _require_float_classes(a, m):
    """Reject a modulus below 1, or a or m outside float range, before any
    float arithmetic divides by m (a/m would underflow to 0.0)."""
    if not (isinstance(a, int) and isinstance(m, int) and m >= 1):
        raise InvalidParameterError("need integers a and m >= 1")
    if max(abs(a), m) > sys.float_info.max:
        raise InvalidParameterError("a and m must be within float range")


def _positive_z(z) -> float:
    """z as a float, which must be positive and finite."""
    with suppress(OverflowError):  # an int beyond float range stays one, and is refused
        z = float(z)
    if not 0 < z <= sys.float_info.max:
        raise InvalidParameterError("z must be positive and finite")
    return z


def digamma_diff(a: int, m: int) -> float:
    """psi((m+a)/(2m)) - psi(a/(2m)), via 2 * sum_{k>=0} (-1)^k / (k + a/m).

    Relative accuracy is far below 1e-12; an independent digamma
    implementation cross-checks this route in the tests.
    """
    _require_float_classes(a, m)
    if not 1 <= a < m:
        raise InvalidParameterError("need integers 1 <= a < m")
    r = a / m
    return 2.0 * _alternating_sum(lambda k: 1.0 / (k + r))


class BiasConstant(namedtuple("BiasConstant", "a m flavor value")):
    __slots__ = ()


def bias_constant(a: int, m: int, flavor: str) -> BiasConstant:
    """Limiting ratio of the symmetric bias count to the total count.

    Flavor 01 is exactly 1/2; flavors 10 and 11 share the value
    digamma_diff(a, m) * sin(a*pi/m) / (2*pi).
    """
    check_symmetric_args(a, m, flavor)
    if flavor == "01":
        return BiasConstant(a, m, flavor, 0.5)
    value = digamma_diff(a, m) * math.sin(a * math.pi / m) / (2.0 * math.pi)
    return BiasConstant(a, m, flavor, value)


# -- Tauberian main term ------------------------------------------------------------


def tauberian_predict_log(profile: AsymptoticProfile, n) -> float:
    """Natural log of the coefficient main term implied by a boundary profile.

    The main term is
        alpha * beta^{(1+2g)/(2(1+r))} / sqrt(2 pi (1+r))
        * n^{-(1+2g)/(2(1+r)) - 1/2}
        * exp((1 + 1/r) * beta^{1/(1+r)} * n^{r/(1+r)});
    working in log space keeps huge n representable.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    try:
        n = float(n)
    except OverflowError:
        raise InvalidParameterError("n is too large for a float") from None
    al, be, ga, ro = profile.alpha, profile.beta, profile.gamma, profile.rho
    expo = (1.0 + 2.0 * ga) / (2.0 * (1.0 + ro))
    ln_front = math.log(al) + expo * math.log(be) - 0.5 * math.log(2.0 * math.pi * (1.0 + ro))
    power = -expo - 0.5
    growth = (1.0 + 1.0 / ro) * be ** (1.0 / (1.0 + ro)) * n ** (ro / (1.0 + ro))
    return ln_front + power * math.log(n) + growth


# -- convergence of exact ratios -----------------------------------------------------


class ConvergenceReport:
    def __init__(self, a: int, m: int, flavor: str, constant: float, rows: list,
                 trend_ok: bool | None):
        self.a, self.m, self.flavor, self.constant = a, m, flavor, constant
        self.rows = rows  # (n, ratio, abs_error)
        self.trend_ok = trend_ok  # None when fewer than 2 samples

    def to_json_obj(self):
        return {
            "a": self.a,
            "m": self.m,
            "flavor": self.flavor,
            "constant": self.constant,
            "rows": [
                {"n": n, "ratio": r, "abs_error": e} for (n, r, e) in self.rows
            ],
            "trend_ok": self.trend_ok,
        }

    def to_csv_rows(self):
        out = [("n", "ratio", "reference", "abs_error")]
        for n, r, e in self.rows:
            out.append((n, r, self.constant, e))
        return out


def convergence_report(a: int, m: int, flavor: str, samples) -> ConvergenceReport:
    """Exact ratios R_n = bias_n / total_n at the sample indices, against
    the limiting constant; trend passes when |R_n - c| strictly decreases.

    Coefficient n of an exact series does not depend on the truncation
    order, so both series stop at the largest sample.
    """
    samples = sorted(set(int(s) for s in samples))
    if not samples or samples[0] < 1:
        raise InvalidParameterError("need positive sample indices")
    order = samples[-1]
    if order > 2500:
        raise InvalidParameterError("exact-series guideline is N <= 2500")
    const = bias_constant(a, m, flavor).value
    num = bias_series_symmetric(a, m, flavor, order)
    x, y = FLAVOR_XY[flavor]
    den = total_weighted_series(x, y, order)
    rows = []
    for n in samples:
        ratio = float(Fraction(int(num.coeffs[n]), int(den.coeffs[n])))
        rows.append((n, ratio, abs(ratio - const)))
    trend = None
    if len(rows) >= 2:
        errs = [e for (_, _, e) in rows]
        trend = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return ConvergenceReport(a, m, flavor, const, rows, trend)


# -- boundary behaviour ----------------------------------------------------------------


def boundary_main_term(a: int, m: int, flavor: str, z: float) -> float:
    """Leading closed form of the symmetric bias series at q = e^{-z/m}.

    01:  (1/2) * 2^{-1/2} * exp(pi^2 m / (12 z))
    10:  c * (z/(2 pi m))^{1/2} * exp(pi^2 m / (6 z))
    11:  c * (z/(4 pi m))^{1/2} * exp(pi^2 m / (4 z))
    with c the flavor's bias constant.
    """
    check_symmetric_args(a, m, flavor)
    _require_float_classes(a, m)
    z = _positive_z(z)
    growth = math.pi**2 * m / ({"01": 12.0, "10": 6.0, "11": 4.0}[flavor] * z)
    if growth > math.log(sys.float_info.max):
        raise InvalidParameterError(f"the main term exceeds float range at z={z}")
    if flavor == "01":
        return 0.5 / math.sqrt(2.0) * math.exp(growth)
    c = bias_constant(a, m, flavor).value
    if flavor == "10":
        return c * math.sqrt(z / (2.0 * math.pi * m)) * math.exp(growth)
    return c * math.sqrt(z / (4.0 * math.pi * m)) * math.exp(growth)


_GROWTH = {"01": math.pi / math.sqrt(3.0),
           "10": math.pi * math.sqrt(2.0 / 3.0),
           "11": math.pi}


# Largest order a boundary check builds: the flavor-11 series at (1, 3) took
# 1.8 s at N = 8,192, 7.5 s at 16,384 and 33 s at 32,768 (CPython 3.11, 2-core
# x86-64 host), and at 2^16 its coefficients outgrow a float.
_MAX_BOUNDARY_ORDER = 1 << 15
# tail size a suggested boundary order reaches
_BOUNDARY_TAIL = 1e-9


def suggest_boundary_order(flavor: str, m: int, z: float) -> int:
    """Smallest power-of-two order (at least 64) with coefficient tail
    exp(C sqrt(n) - z n / m) below _BOUNDARY_TAIL, up to 2^15."""
    check_symmetric_args(1, m, flavor)  # a = 1 is a class of every m that has one
    _require_float_classes(1, m)
    z = _positive_z(z)
    c = _GROWTH[flavor]
    n = 64
    while c * math.sqrt(n) - z * n / m + math.log(n + 1.0) > math.log(_BOUNDARY_TAIL):
        n *= 2
        if n > _MAX_BOUNDARY_ORDER:
            raise InvalidParameterError(f"no order up to {_MAX_BOUNDARY_ORDER} reaches z={z}")
    return n


class BoundaryReport:
    def __init__(self, a: int, m: int, flavor: str, h: int, rows: list, kind: str):
        self.a, self.m, self.flavor, self.h = a, m, flavor, h
        self.rows = rows  # (z, measured, reference, ratio)
        self.kind = kind  # "main-term" for m | h, "decay" otherwise

    def to_json_obj(self):
        return {
            "a": self.a,
            "m": self.m,
            "flavor": self.flavor,
            "h": self.h,
            "kind": self.kind,
            "rows": [
                {"z": z, "value": v, "reference": r, "ratio": t}
                for (z, v, r, t) in self.rows
            ],
        }

    def to_csv_rows(self):
        out = [("z", "value", "reference", "ratio")]
        for z, v, r, t in self.rows:
            out.append((z, v, r, t))
        return out


def boundary_check(a: int, m: int, flavor: str, z_samples, h: int = 0,
                   N: int | None = None) -> BoundaryReport:
    """Evaluate the exact symmetric bias series near the unit circle.

    With m | h the report gives the ratio of the numerically evaluated
    series at q = e^{-z/m} to the closed-form main term (expected to drift
    toward 1 as z shrinks).  Otherwise it gives |series at the twisted
    point e^{-z/m} e^{2 pi i h/m}| / |series at the real point| (expected
    to decay).  A failing tail bound rejects the call and names a feasible
    order; an order above 2^15, given or needed, is an invalid parameter.
    """
    check_symmetric_args(a, m, flavor)
    _require_float_classes(a, m)
    z_samples = sorted(_positive_z(z) for z in z_samples)
    if not z_samples:
        raise InvalidParameterError("need at least one z sample")
    if not isinstance(h, int) or h < 0:
        raise InvalidParameterError("h must be a non-negative integer")
    zmin = z_samples[0]
    if N is None:
        N = suggest_boundary_order(flavor, m, zmin)
    elif N > _MAX_BOUNDARY_ORDER:
        raise InvalidParameterError(f"boundary orders stop at N = {_MAX_BOUNDARY_ORDER}")
    series = bias_series_symmetric(a, m, flavor, N)
    twisted = h % m != 0
    angle = 2 * math.pi * (h % m) / m
    rows = []
    for z in sorted(z_samples, reverse=True):
        q0 = math.exp(-z / m)
        real_val = evaluate_numeric(series, q0)
        if real_val.tail_alarm:
            need = suggest_boundary_order(flavor, m, z)
            raise TailBoundError(
                f"truncation tail too large at z={z}; rerun with N >= {need}")
        if real_val.value == 0.0:
            raise InvalidParameterError(f"the series underflows to 0.0 at z={z}; take a smaller z")
        if not twisted:
            ref = boundary_main_term(a, m, flavor, z)
            rows.append((z, real_val.value, ref, real_val.value / ref))
        else:
            point = q0 * complex(math.cos(angle), math.sin(angle))
            tw_val = evaluate_numeric(series, point)
            ratio = abs(tw_val.value) / abs(real_val.value)
            rows.append((z, abs(tw_val.value), abs(real_val.value), ratio))
    return BoundaryReport(a, m, flavor, h, rows, "decay" if twisted else "main-term")
