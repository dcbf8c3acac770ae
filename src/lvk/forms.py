"""Rational 1-forms and the exactness (closedness) check.

Each symmetry identity is a ``ratfunc.fraction_sum`` zero test, so only a
failing pair's residual is normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch
from .ratfunc import RatFunc, fraction_sum


@dataclass(frozen=True)
class ClosednessWitness:
    closed: bool
    pair: tuple[int, int] | None = None  # first failing (i, j), 0-based
    residual: RatFunc | None = None


class OneForm:
    """w = U_1 dx_1 + ... + U_n dx_n with rational function components."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ArityMismatch("a 1-form needs at least one component")
        arity = components[0].arity
        for c in components:
            if c.arity != arity:
                raise ArityMismatch("1-form components disagree on arity")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("OneForm is immutable")

    @property
    def arity(self) -> int:
        return self.components[0].arity

    def __getitem__(self, i: int) -> RatFunc:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, OneForm) and self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self, names: list[str] | None = None) -> str:
        return ", ".join(c.render(names) for c in self.components)

    def __repr__(self):
        return f"OneForm({self.render()})"


def is_closed(w: OneForm) -> ClosednessWitness:
    """Check d w = 0 exactly: all partial-derivative symmetry identities.

    For the pair (j, i), with a = w_j and b = w_i, d a/dx_i - d b/dx_j is
    A/den(a)^2 - B/den(b)^2, where A = num(a)' den(a) - num(a) den(a)' in
    x_i and B likewise in x_j.  ``fraction_sum`` decides it: a zero test
    without a gcd, and the first failing pair's residual in lowest terms.
    """
    n = len(w)
    for j in range(n):
        for i in range(j + 1, n):
            a, b = w[j], w[i]
            A = a.num.derivative(i) * a.den - a.num * a.den.derivative(i)
            B = b.num.derivative(j) * b.den - b.num * b.den.derivative(j)
            residual = fraction_sum(w.arity, [(A, a.den), (-B, b.den)], 2)
            if not residual.is_zero():
                return ClosednessWitness(closed=False, pair=(j, i), residual=residual)
    return ClosednessWitness(closed=True)
