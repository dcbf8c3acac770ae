"""Rational 1-forms and the exactness (closedness) check."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, DegreeCapExceeded
from .multipoly import gcd_cofactors
from .ratfunc import RatFunc


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

    def __hash__(self):
        return hash(self.components)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(a - b for a, b in zip(self.components, other.components))

    def __neg__(self) -> "OneForm":
        return OneForm(-a for a in self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self, names: list[str] | None = None) -> str:
        return ", ".join(c.render(names) for c in self.components)

    def __repr__(self):
        return f"OneForm({self.render()})"


def is_closed(w: OneForm) -> ClosednessWitness:
    """Check d w = 0 exactly: all partial-derivative symmetry identities.

    Each pair is first decided by a zero test without a gcd on a numerator;
    only the first failing pair computes its residual in lowest terms.
    """
    n = len(w)
    for j in range(n):
        for i in range(j + 1, n):
            if _derivatives_agree(w[j], i, w[i], j):
                continue
            residual = w[j].derivative(i) - w[i].derivative(j)
            if not residual.is_zero():
                return ClosednessWitness(closed=False, pair=(j, i), residual=residual)
    return ClosednessWitness(closed=True)


def _derivatives_agree(a: RatFunc, i: int, b: RatFunc, j: int) -> bool:
    """Whether d a/dx_i = d b/dx_j, by cross-multiplication.

    With A = a_n' a_d - a_n a_d' (in x_i) and B likewise (in x_j), the
    derivatives are A/a_d^2 and B/b_d^2.  Equal denominators compare A = B;
    otherwise, with g = gcd(a_d, b_d) = a_d/c_a = b_d/c_b, they compare
    A c_b^2 = B c_a^2.  False also when a product passes LVK_MAX_DEGREE: the
    caller then decides with the normalized residual.
    """
    try:
        A = a.num.derivative(i) * a.den - a.num * a.den.derivative(i)
        B = b.num.derivative(j) * b.den - b.num * b.den.derivative(j)
        if a.den == b.den:
            return A == B
        _, ca, cb = gcd_cofactors(a.den, b.den)
        return A * (cb * cb) == B * (ca * ca)
    except DegreeCapExceeded:
        return False
