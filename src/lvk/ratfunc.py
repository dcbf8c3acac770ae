"""Normalized rational functions: quotients of MultiPoly in lowest terms.

Normalization: gcd(num, den) is a unit and the denominator's graded-lex
leading coefficient is 1, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, ZeroDivisionInField
from .multipoly import MultiPoly, exact_div, gcd_multivar


class RatFunc:
    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.arity)
        if num.arity != den.arity:
            raise ArityMismatch(f"arity {num.arity} vs {den.arity}")
        if den.is_zero():
            raise ZeroDivisionInField("zero denominator")
        if num.is_zero():
            den = MultiPoly.one(num.arity)
        else:
            g = gcd_multivar(num, den)
            if not g.is_constant():
                num = exact_div(num, g)
                den = exact_div(den, g)
            lc = den.leading_coefficient()
            if lc != 1:
                num = num.scale(Fraction(1) / lc)
                den = den.scale(Fraction(1) / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "RatFunc":
        return RatFunc(MultiPoly.zero(arity))

    @staticmethod
    def one(arity: int) -> "RatFunc":
        return RatFunc(MultiPoly.one(arity))

    @staticmethod
    def constant(arity: int, value) -> "RatFunc":
        return RatFunc(MultiPoly.constant(arity, value))

    @staticmethod
    def of_poly(p: MultiPoly) -> "RatFunc":
        return RatFunc(p)

    # -- queries ----------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.num.arity

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num.scale(Fraction(1) / self.den.constant_value())

    def involves(self, var: int) -> bool:
        return self.num.involves(var) or self.den.involves(var)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "RatFunc"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionInField("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionInField("inverse of zero")
        return RatFunc(self.den, self.num)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self, var: int) -> "RatFunc":
        # (n/d)' = (n'd - nd')/d^2
        return RatFunc(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def extend_arity(self, new_arity: int) -> "RatFunc":
        return RatFunc(self.num.extend_arity(new_arity), self.den.extend_arity(new_arity))

    # -- equality / printing -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def render(self, names: list[str] | None = None) -> str:
        if self.den == MultiPoly.one(self.arity):
            return self.num.render(names)
        num = self.num.render(names)
        den = self.den.render(names)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.render()})"
