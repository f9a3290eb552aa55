"""Exact scalar arithmetic: arbitrary-precision integers and rationals.

Series coefficients are Python ints (arbitrary precision) or
``fractions.Fraction`` rationals (normalised, positive denominator); their
type follows the weights that built them.
"""

from __future__ import annotations

from fractions import Fraction


def rational(p, q=1):
    """Exact rational p/q, normalised with positive denominator; a lone p
    may also be a "p/q" string."""
    return Fraction(p) if q == 1 else Fraction(p, q)


class QbiasError(Exception):
    """Base for all package errors."""


class InvalidParameterError(QbiasError, ValueError):
    """Rejected input: parameter outside an operation's precondition."""


class SingularSeriesError(QbiasError, ZeroDivisionError):
    """Constant term not invertible: an int other than +-1, or zero."""


class TailBoundError(InvalidParameterError):
    """Truncation tail too large for the requested numeric evaluation."""


def is_rational_value(v) -> bool:
    return isinstance(v, (int, Fraction))


def parse_rational(text: str):
    """Parse "p/q" or "p" into an exact rational.

    Floating-point notation is rejected; exact inputs only.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError:
            raise InvalidParameterError(f"not an exact rational: {text!r}")
        if q == 0:
            raise InvalidParameterError(f"zero denominator: {text!r}")
        return rational(p, q)
    try:
        return rational(int(s))
    except ValueError:
        raise InvalidParameterError(f"not an exact rational: {text!r}")


def positive_order(N) -> int:
    """The truncation order N, which must be a positive integer."""
    if not isinstance(N, int) or N < 1:
        raise InvalidParameterError("order must be a positive integer")
    return N


def nonneg_weight(v):
    """The weight v as an exact rational, which must be non-negative."""
    v = rational(v)
    if v < 0:
        raise InvalidParameterError("weights must be non-negative")
    return v


def format_rational(v) -> str:
    """Canonical "p/q" form (denominator always present, positive)."""
    return f"{v.numerator}/{v.denominator}"
