"""Exact truncated formal power series over pluggable coefficient domains.

A series is a dense coefficient vector c_0..c_N; every operation is exact
modulo q^{N+1}.  No floating point enters series arithmetic anywhere; the
only numeric escape hatch is :func:`evaluate_numeric`.
"""

from __future__ import annotations

from .kernel import div_sparse, mul_trunc, progression
from .scalars import (
    INTEGER,
    RATIONAL,
    DOMAINS,
    DomainMismatchError,
    InvalidParameterError,
    SingularSeriesError,
    is_rational_value,
    positive_order,
    rational,
)


def _zero(domain):
    return rational(0) if domain == RATIONAL else 0


def _one(domain):
    return rational(1) if domain == RATIONAL else 1


def _coerce(domain, value):
    """Bring a scalar into the domain; rejects lossy coercions."""
    if domain == RATIONAL:
        if not is_rational_value(value):
            raise DomainMismatchError(f"non-rational scalar {value!r} in rational series")
        return rational(value) if isinstance(value, int) else value
    if isinstance(value, int):
        return value
    raise DomainMismatchError(f"non-integer scalar {value!r} in integer series")


class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series, exact mod q^{N+1}."""

    __slots__ = ("domain", "order", "coeffs")

    def __init__(self, domain, order, coeffs=None):
        if domain not in DOMAINS:
            raise InvalidParameterError(f"unknown domain {domain!r}")
        self.domain = domain
        self.order = positive_order(order)
        if coeffs is None:
            self.coeffs = [_zero(domain)] * (order + 1)
        else:
            if len(coeffs) != order + 1:
                raise InvalidParameterError(
                    f"need {order + 1} coefficients, got {len(coeffs)}")
            self.coeffs = [_coerce(domain, c) for c in coeffs]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(domain, order) -> "TruncatedSeries":
        return TruncatedSeries(domain, order)

    @staticmethod
    def one(domain, order) -> "TruncatedSeries":
        s = TruncatedSeries(domain, order)
        s.coeffs[0] = _one(domain)
        return s

    @staticmethod
    def monomial(domain, order, exponent, coeff=1) -> "TruncatedSeries":
        s = TruncatedSeries(domain, order)
        if not 0 <= exponent <= order:
            raise InvalidParameterError("monomial exponent outside 0..N")
        s.coeffs[exponent] = _coerce(domain, coeff)
        return s

    @staticmethod
    def from_coeffs(domain, coeffs) -> "TruncatedSeries":
        return TruncatedSeries(domain, len(coeffs) - 1, coeffs)

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self.order + 1

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.domain == other.domain
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries({self.domain}, N={self.order}, [{head}{tail}])"

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise DomainMismatchError("operand is not a TruncatedSeries")
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}")
        if self.order != other.order:
            raise DomainMismatchError(
                f"truncation order mismatch: {self.order} vs {other.order}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.domain, s.order = self.domain, self.order
        s.coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return s

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Full schoolbook convolution, exact mod q^{N+1}."""
        self._check_compatible(other)
        return TruncatedSeries(self.domain, self.order,
                               mul_trunc(self.coeffs, other.coeffs, self.order))

    def shift(self, e: int) -> "TruncatedSeries":
        """Multiply by q^e (e >= 0), discarding overflow past the order."""
        if e < 0:
            raise InvalidParameterError("negative shift")
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.domain, s.order = self.domain, self.order
        s.coeffs = [_zero(self.domain)] * min(e, self.order + 1) + self.coeffs[
            : max(self.order + 1 - e, 0)
        ]
        return s

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod q^{N+1}.

        The constant term must be invertible in the domain: +-1 for
        integer series, nonzero for rational series.
        """
        c0 = self.coeffs[0]
        domain = self.domain
        if domain == INTEGER:
            if c0 not in (1, -1):
                raise SingularSeriesError(
                    f"integer series with constant term {c0} is not invertible")
            inv0 = c0
        else:
            if not c0:
                raise SingularSeriesError("zero constant term")
            inv0 = rational(1) / c0
        N = self.order
        out = [inv0] + [_zero(domain)] * N
        div_sparse(out, [inv0 * v for v in self.coeffs], N)
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.domain, s.order, s.coeffs = domain, N, out
        return s


# -- q-product builders ------------------------------------------------------


def pochhammer_product(c, sign, offset, step, order, domain=None):
    """Truncation of the infinite product prod_{j>=0} (1 + sign*c*q^{offset+j*step}).

    Only factors with exponent <= order contribute; offset >= 1 so the
    product stabilises mod q^{N+1}.
    """
    if sign not in (1, -1):
        raise InvalidParameterError("sign must be +1 or -1")
    if not isinstance(offset, int) or offset < 1:
        raise InvalidParameterError(
            "offset must be >= 1 (the infinite product needs positive q-order)")
    if not isinstance(step, int) or step < 1:
        raise InvalidParameterError("step must be a positive integer")
    if domain is None:
        domain = INTEGER if isinstance(c, int) else RATIONAL
    out = TruncatedSeries.one(domain, order)
    u = sign * _coerce(domain, c)
    out.coeffs = progression(out.coeffs, u, offset, step, 1, 1, order)
    return out


def theta_partial(m, a, order):
    """Partial theta sum: q^{m*n*(n-1)/2 + a*n} summed over n >= 1, exponent <= N."""
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError("m must be a positive integer")
    if not isinstance(a, int) or a < 1:
        raise InvalidParameterError("a must be >= 1")
    out = TruncatedSeries.zero(INTEGER, order)
    n = 1
    while True:
        e = m * n * (n - 1) // 2 + a * n
        if e > order:
            break
        out.coeffs[e] += 1
        n += 1
    return out


# -- numeric evaluation -------------------------------------------------------


class NumericValue:
    """Float value of a truncated series plus a crude tail alarm."""

    __slots__ = ("value", "tail_alarm")

    def __init__(self, value, tail_alarm):
        self.value = value
        self.tail_alarm = tail_alarm

    def __repr__(self):
        return f"NumericValue({self.value!r}, tail_alarm={self.tail_alarm})"


def evaluate_numeric(series: TruncatedSeries, q0) -> NumericValue:
    """Sum c_n q0^n in floating point for |q0| < 1.

    The tail alarm raises when |c_N q0^N| * N exceeds 1e-6 of the partial
    sum magnitude, signalling that the truncation order was too small for
    this evaluation point.
    """
    if abs(q0) >= 1:
        raise InvalidParameterError("evaluation point must satisfy |q0| < 1")
    q0 = complex(q0) if isinstance(q0, complex) else float(q0)
    # Horner from the top coefficient: numerically stable for |q0| < 1.
    acc = 0.0
    for c in reversed(series.coeffs):
        acc = acc * q0 + float(c)
    cn = float(series.coeffs[-1])
    tail = abs(cn * q0**series.order) * series.order
    alarm = tail > 1e-6 * abs(acc) if acc else tail > 0.0
    return NumericValue(acc, alarm)
