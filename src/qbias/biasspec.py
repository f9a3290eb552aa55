"""The (a, b, m, x, y) tuple parameterising a residue-class bias count."""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import InvalidParameterError, format_rational, nonneg_weight


@dataclass(frozen=True)
class BiasSpec:
    """Integer classes a != b in 1..m modulo m, with exact non-negative
    rational weights x, y, not both zero."""

    a: int
    b: int
    m: int
    x: object = 1
    y: object = 0

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.a, self.b, self.m)):
            raise InvalidParameterError("classes a, b and modulus m must be integers")
        if self.m < 1:
            raise InvalidParameterError("modulus m must be a positive integer")
        if not (1 <= self.a <= self.m and 1 <= self.b <= self.m):
            raise InvalidParameterError("residue classes must lie in 1..m")
        if self.a == self.b:
            raise InvalidParameterError("residue classes must differ")
        x, y = nonneg_weight(self.x), nonneg_weight(self.y)
        if x == 0 and y == 0:
            raise InvalidParameterError("weights must not both vanish")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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
