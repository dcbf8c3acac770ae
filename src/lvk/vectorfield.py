"""Polynomial vector fields: parsing, degree, divergence, Lie derivative."""

from __future__ import annotations

from .errors import ParseError
from .multipoly import MultiPoly
from .parsing import parse_equations
from .ratfunc import RatFunc, fraction_sum


class PolyVectorField:
    """The system x' = P(x) with named, ordered variables."""

    __slots__ = ("var_names", "components")

    def __init__(self, var_names: list[str], components: list[MultiPoly]):
        var_names = list(var_names)
        components = list(components)
        if len(var_names) != len(components):
            raise ParseError(
                f"{len(var_names)} variables but {len(components)} equations"
            )
        if len(set(var_names)) != len(var_names):
            raise ParseError("duplicate variable name")
        for c in components:
            if c.arity != len(var_names):
                raise ParseError("component arity does not match variable count")
        object.__setattr__(self, "var_names", tuple(var_names))
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def degree(self) -> int:
        degs = [c.total_degree() for c in self.components if not c.is_zero()]
        return max(degs) if degs else 0

    def divergence(self) -> MultiPoly:
        total = MultiPoly.zero(self.arity)
        for i, c in enumerate(self.components):
            total = total + c.derivative(i)
        return total

    def lie_derivative(self, f: MultiPoly) -> MultiPoly:
        if f.arity != self.arity:
            raise ParseError(f"arity mismatch: field {self.arity}, function {f.arity}")
        total = MultiPoly.zero(self.arity)
        for i, c in enumerate(self.components):
            total = total + c * f.derivative(i)
        return total

    def lie_derivative_ratfunc(self, f: RatFunc) -> RatFunc:
        """X(n/d) = (d*X(n) - n*X(d)) / d^2, from two polynomial Lie derivatives.

        The same value as sum_i P_i d_i(n/d), with one normalization instead
        of a rational derivative, product and sum per variable.
        """
        if f.arity != self.arity:
            raise ParseError("arity mismatch")
        n, d = f.num, f.den
        num = d * self.lie_derivative(n) - n * self.lie_derivative(d)
        return fraction_sum(self.arity, [(num, d)], 2)

    def render(self) -> str:
        lines = ["vars " + ", ".join(self.var_names)]
        for name, c in zip(self.var_names, self.components):
            lines.append(f"d{name} = {c.render(list(self.var_names))}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"PolyVectorField({', '.join(self.var_names)})"


def parse_system(text: str) -> PolyVectorField:
    """Parse the system grammar: a `vars` line then one `d<var> = expr` line each."""
    return PolyVectorField(*parse_equations(text))
