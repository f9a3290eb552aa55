"""The (a, b, m, x, y) tuple parameterising a residue-class bias count;
an immutable, hashable value."""

from __future__ import annotations

from collections import namedtuple

from .scalars import InvalidParameterError, format_rational, nonneg_weight


class BiasSpec(namedtuple("BiasSpec", "a b m x y")):
    """Integer classes a != b in 1..m modulo m, with exact non-negative
    rational weights x, y, not both zero."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, m: int, x=1, y=0):
        if not all(isinstance(v, int) for v in (a, b, m)):
            raise InvalidParameterError("classes a, b and modulus m must be integers")
        if m < 1:
            raise InvalidParameterError("modulus m must be a positive integer")
        if not (1 <= a <= m and 1 <= b <= m):
            raise InvalidParameterError("residue classes must lie in 1..m")
        if a == b:
            raise InvalidParameterError("residue classes must differ")
        x, y = nonneg_weight(x), nonneg_weight(y)
        if x == 0 and y == 0:
            raise InvalidParameterError("weights must not both vanish")
        return super().__new__(cls, a, b, m, x, y)

    def swapped(self) -> "BiasSpec":
        """Same weights with the two residue classes exchanged."""
        return BiasSpec(self.b, self.a, self.m, self.x, self.y)

    def label(self) -> str:
        return (f"({self.a},{self.b},{self.m};"
                f"{format_rational(self.x)},{format_rational(self.y)})")

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "m": self.m,
            "x": format_rational(self.x),
            "y": format_rational(self.y),
        }
