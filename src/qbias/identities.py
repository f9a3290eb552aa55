"""Classical q-series identity checks, exact where possible.

Three identities verify formally under monomial substitutions (both sides
become genuine truncated series and must match coefficient by coefficient);
two involve q/zeta factors of non-positive q-order under any monomial
substitution and are checked numerically at real sample points instead,
against one fixed absolute tolerance, ``NUMERIC_TOLERANCE``.
"""

from __future__ import annotations

from itertools import count

from .kernel import div1, mul1, progression
from .scalars import InvalidParameterError, positive_order, rational
from .series import pochhammer_product  # uncalled; perfbench's tracer rebinds it (ROADMAP 4)

__all__ = ["verify_identity", "IdentityReport", "FORMAL_IDENTITIES", "NUMERIC_IDENTITIES",
           "pochhammer_product"]

NUMERIC_TOLERANCE = 1e-10  # worst absolute residual a numeric check may leave


class IdentityReport:
    def __init__(self, name: str, mode: str, params: dict, order: int | None, passed: bool,
                 max_discrepancy: str, detail: str = ""):
        self.name, self.mode = name, mode  # "formal" | "numeric"
        self.params, self.order = params, order
        self.passed, self.max_discrepancy, self.detail = passed, max_discrepancy, detail

    def to_json_obj(self):
        return {
            "identity": self.name,
            "mode": self.mode,
            "params": {k: str(v) for k, v in self.params.items()},
            "N": self.order,
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "detail": self.detail,
        }


def _exact(v):
    """v as an int when it is one; divide via rational(), as / on ints gives a float."""
    return int(v) if v.denominator == 1 else v


def _monomial(value) -> tuple:
    """Normalise a (coefficient, exponent) monomial parameter c*q^s."""
    c, s = value if isinstance(value, tuple) else (value, 1)
    c = _exact(rational(c))
    if not isinstance(s, int):
        raise InvalidParameterError("monomial exponent must be an integer")
    if c == 0:
        raise InvalidParameterError("monomial coefficient must be nonzero")
    return c, s


def _require_formal(cond, what):
    if not cond:
        raise InvalidParameterError(
            f"substitution leaves the formal validity region: {what}")


def _monomials(params, *names):
    """The named monomial parameters, each of positive q-order."""
    out = [_monomial(params[who]) for who in names]
    for (_, s), who in zip(out, names):
        _require_formal(s >= 1, f"{who} must have positive q-order")
    return out


def _phi(num, den, z, N):
    """sum_n prod_i (a_i;q)_n / prod_j (b_j;q)_n z^n mod q^{N+1}, as a list.

    Every parameter is a monomial (c, s) = c q^s; z and each b_j need s >= 1.
    The term of z^n starts at q^{n s_z}, so the sum stops at n = N // s_z.
    """
    cz, sz = z
    term = [1] + [0] * N
    out = term[:]
    for n in range(N // sz):
        for c, s in num:
            mul1(term, s + n, -c, N)
        for c, s in den:
            div1(term, s + n, c, N)
        term = [0] * sz + term[: N + 1 - sz]
        if cz != 1:
            term = [cz * v for v in term]
        out = [u + v for u, v in zip(out, term)]
    return out


def _check_jacobi(params, N):
    """(-zeta, -q/zeta, q; q)_inf = sum_n q^{n(n-1)/2} zeta^n with zeta = c q^s.

    For s >= 2 both sides are Laurent with lowest exponent -s(s-1)/2; the
    common shift q^{s(s-1)/2} turns them into genuine power series.
    """
    c, s = _monomial((params.get("c", 1), params.get("s", 1)))
    _require_formal(s >= 1, "zeta must have positive q-order")

    # The factors of (-q/zeta;q)_inf of order <= 0, times q^{s(s-1)/2}, are
    # c^{-s} prod_{j<s} (1 + c q^j); mul1 at exponent 0 scales by 1 + c.
    lhs = [_exact(rational(c) ** -s)] + [0] * N
    for j in range(s):
        mul1(lhs, j, c, N)
    for u, e in ((_exact(rational(1, c)), 1), (c, s), (-1, 1)):  # (-q/c, -c q^s, q; q)_inf
        lhs = progression(lhs, u, e, 1, 1, 1, N)

    # After the shift the term of zeta^n sits at q^{k(k-1)/2} with k = n + s,
    # which grows along k = 0, 1, ... and along k = -1, -2, ...
    rhs = [0] * (N + 1)
    for k, step in ((0, 1), (-1, -1)):
        while k * (k - 1) // 2 <= N:
            rhs[k * (k - 1) // 2] += _exact(rational(c) ** (k - s))
            k += step
    return lhs, rhs


def _check_fine(params, N):
    """sum (alpha;q)_n z^n / (gamma;q)_{n+1} = sum (alpha z/gamma;q)_n gamma^n / (z;q)_{n+1}."""
    (ca, sa), (cg, sg), (cz, sz) = _monomials(params, "alpha", "gamma", "z")
    su = sa + sz - sg
    cu = _exact(rational(ca * cz, cg))
    _require_formal(su >= 0, "alpha*z/gamma must have non-negative q-order")

    # (x;q)_{n+1} = (1 - x) (xq;q)_n
    lhs = _phi([(ca, sa)], [(cg, sg + 1)], (cz, sz), N)
    div1(lhs, sg, cg, N)
    rhs = _phi([(cu, su)], [(cz, sz + 1)], (cg, sg), N)
    div1(rhs, sz, cz, N)
    return lhs, rhs


def _check_heine(params, N):
    """Heine's transformation under monomial substitutions.

    sum (alpha,beta;q)_n z^n / ((gamma,q;q)_n)
      = (gamma/beta, beta z;q)_inf / ((gamma, z;q)_inf)
        * sum (alpha beta z/gamma, beta;q)_n (gamma/beta)^n / ((beta z, q;q)_n).
    """
    (ca, sa), (cb, sb), (cg, sg), (cz, sz) = _monomials(params, "alpha", "beta", "gamma", "z")
    sv = sg - sb
    cv = _exact(rational(cg, cb))
    _require_formal(sv >= 1, "gamma/beta must have positive q-order")
    sw = sa + sb + sz - sg
    cw = _exact(rational(ca * cb * cz, cg))
    _require_formal(sw >= 0, "alpha*beta*z/gamma must have non-negative q-order")

    lhs = _phi([(ca, sa), (cb, sb)], [(cg, sg), (1, 1)], (cz, sz), N)
    rhs = _phi([(cw, sw), (cb, sb)], [(cb * cz, sb + sz), (1, 1)], (cv, sv), N)
    for c, s, power in ((cv, sv, 1), (cb * cz, sb + sz, 1), (cg, sg, -1), (cz, sz, -1)):
        rhs = progression(rhs, -c, s, 1, power, 1, N)
    return lhs, rhs


def _poch_inf_numeric(a, q0):
    """(a;q0)_inf for |q0| < 1, up to the first factor within 1e-30 of 1
    (at most 100,000 factors)."""
    acc = 1.0
    for _ in range(100000):
        f = 1.0 - a
        acc *= f
        if abs(f - 1.0) < 1e-30:
            break
        a *= q0
    return acc


def _check_theta_reciprocal_point(q0, z0):
    euler = _poch_inf_numeric(q0, q0)
    lhs = euler * euler / (_poch_inf_numeric(z0, q0) * _poch_inf_numeric(q0 / z0, q0))
    rhs = 0.0
    for n in count():
        t = (-1.0) ** n * q0 ** (n * (n + 1) // 2) / (1.0 - z0 * q0**n)
        rhs += t
        if n > 2 and abs(t) < 1e-30:
            break
    for k in count(1):
        # n = -k rewritten stably: (-1)^k q^{k(k+1)/2} / (q^k - z)
        t = (-1.0) ** k * q0 ** (k * (k + 1) // 2) / (q0**k - z0)
        rhs += t
        if k > 2 and abs(t) < 1e-30:
            break
    return lhs, rhs


def _check_kronecker_point(q0, z0):
    w = q0 / z0
    lhs = (_poch_inf_numeric(-w, q0) * _poch_inf_numeric(-z0, q0)) / (
        _poch_inf_numeric(w, q0) * _poch_inf_numeric(z0, q0))
    ratio = _poch_inf_numeric(-q0 * 1.0, q0) / _poch_inf_numeric(q0, q0)
    s = 0.0
    for n in count(1):
        t = (z0**n + w**n) / (1.0 + q0**n)
        s += t
        if abs(t) < 1e-30:
            break
    rhs = ratio * ratio * (1.0 + 2.0 * s)
    return lhs, rhs


_FORMAL = {"jacobi": _check_jacobi, "fine": _check_fine, "heine": _check_heine}
_NUMERIC = {
    "theta_reciprocal": _check_theta_reciprocal_point,
    "kronecker": _check_kronecker_point,
}
FORMAL_IDENTITIES = tuple(_FORMAL)
NUMERIC_IDENTITIES = tuple(_NUMERIC)


def verify_identity(name: str, params: dict, N: int | None = None) -> IdentityReport:
    """Check one identity and report the worst discrepancy.

    Formal identities take monomial parameters (c, s) meaning c*q^s and a
    truncation order N; they pass only on exact coefficient agreement.
    Numeric identities take params={"points": [(q, zeta), ...]} and pass
    when every absolute residual stays below ``NUMERIC_TOLERANCE``.
    """
    if name in _FORMAL:
        positive_order(N)
        lhs, rhs = _FORMAL[name](params, N)
        worst = max(abs(u - v) for u, v in zip(lhs, rhs))
        return IdentityReport(
            name, "formal", params, N, worst == 0, str(worst),
            detail="exact coefficient comparison mod q^(N+1)")
    if name in _NUMERIC:
        points = params.get("points")
        if not points:
            raise InvalidParameterError("numeric checks need sample points")
        worst = 0.0
        for q0, z0 in points:
            if not 0.0 < float(q0) < float(z0) < 1.0:
                raise InvalidParameterError("need real samples 0 < q < zeta < 1")
            lhs, rhs = _NUMERIC[name](float(q0), float(z0))
            worst = max(worst, abs(lhs - rhs))
        return IdentityReport(
            name, "numeric", params, None, worst < NUMERIC_TOLERANCE, repr(worst),
            detail=f"max absolute residual over {len(points)} points, tol {NUMERIC_TOLERANCE:g}")
    raise InvalidParameterError(f"unknown identity {name!r}")
