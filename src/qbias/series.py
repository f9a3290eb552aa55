"""Exact truncated formal power series with int or rational coefficients.

A series is a dense coefficient list c_0..c_N; every operation is exact
modulo q^{N+1}.  No floating point enters series arithmetic anywhere; the
only numeric escape hatch is :func:`evaluate_numeric`.
"""

from __future__ import annotations

from .kernel import div_sparse, mul_trunc, progression
from .scalars import (
    InvalidParameterError,
    SingularSeriesError,
    is_rational_value,
    positive_order,
    rational,
)


class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series, exact mod q^{N+1}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not all(map(is_rational_value, coeffs)):
            raise InvalidParameterError("series coefficients must be ints or exact rationals")
        positive_order(len(coeffs) - 1)
        self.coeffs = coeffs

    # -- basic protocol ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise InvalidParameterError("operand is not a TruncatedSeries")
        if self.order != other.order:
            raise InvalidParameterError(
                f"truncation order mismatch: {self.order} vs {other.order}")

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Full schoolbook convolution, exact mod q^{N+1}."""
        self._check_compatible(other)
        return TruncatedSeries(mul_trunc(self.coeffs, other.coeffs, self.order))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod q^{N+1}.

        The constant term must be invertible: +-1 when it is an int,
        nonzero when it is a rational.
        """
        c0 = self.coeffs[0]
        if isinstance(c0, int):
            if c0 not in (1, -1):
                raise SingularSeriesError(
                    f"integer constant term {c0} is not invertible")
            inv0 = c0
        else:
            if not c0:
                raise SingularSeriesError("zero constant term")
            inv0 = rational(1) / c0
        N = self.order
        out = [inv0] + [0 * inv0] * N
        return TruncatedSeries(div_sparse(out, [inv0 * v for v in self.coeffs], N))


# -- q-product builders ------------------------------------------------------


def pochhammer_product(c, sign, offset, step, order):
    """Truncation of the infinite product prod_{j>=0} (1 + sign*c*q^{offset+j*step}).

    Only factors with exponent <= order contribute; offset >= 1 so the
    product stabilises mod q^{N+1}.  The coefficients take c's type.
    """
    if sign not in (1, -1):
        raise InvalidParameterError("sign must be +1 or -1")
    if not isinstance(offset, int) or offset < 1:
        raise InvalidParameterError(
            "offset must be >= 1 (the infinite product needs positive q-order)")
    if not isinstance(step, int) or step < 1:
        raise InvalidParameterError("step must be a positive integer")
    if not is_rational_value(c):
        raise InvalidParameterError(f"non-rational scalar {c!r}")
    zero = 0 * c
    co = [zero + 1] + [zero] * positive_order(order)
    return TruncatedSeries(progression(co, sign * c, offset, step, 1, 1, order))


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
