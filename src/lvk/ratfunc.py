"""Normalized rational functions: quotients of MultiPoly in lowest terms.

Normalization: gcd(num, den) is a unit and the denominator's graded-lex
leading coefficient is 1, so equality is structural.

The public constructor normalizes with a full gcd.  Arithmetic builds its
results with the trusted ``_raw`` and runs only the gcds that can find a
common factor.  Negation, nonzero scaling, powers and arity extension keep
lowest terms as they are; ``inverse`` only divides by lc(num).  Sums and
products use Henrici's formulas (Knuth, *TAOCP* vol. 2, 4.5.1): a sum
takes g = gcd(d1, d2), and only gcd(n1*(d2/g) + n2*(d1/g), g) can cancel;
a product cancels the cross gcds gcd(n1, d2) and gcd(n2, d1).  The
derivative takes G = gcd(d, d') (Bronstein, *Symbolic Integration I*,
2.3): (n/d)' = (n'*(d/G) - n*(d'/G)) / (d*(d/G)), where a factor p of d
of multiplicity k that involves the variable leaves d/G with p^1 and does
not divide the new numerator, and a factor free of the variable sits
wholly in G, so only gcd(numerator, G) can cancel.  Every gcd comes from
``gcd_cofactors``, which returns the two quotients with it, so no
cancellation divides twice.  Denominators stay monic because the gcd is
monic and the graded-lex leading coefficient is multiplicative.

``log_derivative`` computes f'/f = n'/n - d'/d without the generic
quotient: with (n1, n1') the cofactors of gcd(n, n') and (d1, d1') those of
gcd(d, d'), (n1'*d1 - d1'*n1) / (n1*d1) is in lowest terms, because
gcd(n, d) = 1 and each pair is coprime, so it is only made monic.

``fraction_sum`` decides the certificate identities of ``forms.is_closed``,
the Darboux residuals, theorem 2 and the command line: sum n_k / d_k^p
over the lcm of the denominators, a zero test before any normalization,
and lowest terms only for a nonzero sum.  It is the one place below the command line that
catches ``DegreeCapExceeded``: past the cap it sums term by term.

A constant denominator is exactly 1, so polynomial operands take no gcd at
all: the sum or product of two polynomials, the derivative of a
polynomial, and division by a nonzero constant (a scale) are in lowest
terms as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ArityMismatch, DegreeCapExceeded, ZeroDivisionInField
from .multipoly import MultiPoly, exact_div, gcd_cofactors


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
            num, den = _cancel(num, den)
            lc = den.leading_coefficient()
            if lc != 1:
                num = num.scale(Fraction(1) / lc)
                den = den.scale(Fraction(1) / lc)
        _set_num(self, num)
        _set_den(self, den)
        _set_hash(self, None)

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Adopt a pair already in lowest terms with a monic denominator (1 if num is 0)."""
        f = _new(cls)
        _set_num(f, num)
        _set_den(f, den)
        _set_hash(f, None)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "RatFunc":
        return RatFunc.of_poly(MultiPoly.zero(arity))

    @staticmethod
    def one(arity: int) -> "RatFunc":
        return RatFunc.of_poly(MultiPoly.one(arity))

    @staticmethod
    def constant(arity: int, value) -> "RatFunc":
        return RatFunc.of_poly(MultiPoly.constant(arity, value))

    @staticmethod
    def of_poly(p: MultiPoly) -> "RatFunc":
        return RatFunc._raw(p, MultiPoly.one(p.arity))

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
        (n1, d1), (n2, d2) = (self.num, self.den), (other.num, other.den)
        if d1.is_constant() and d2.is_constant():
            # d1 is 1, also when the sum is 0
            return RatFunc._raw(n1 + n2, d1)
        g, e1, e2 = gcd_cofactors(d1, d2)
        return _reduced(n1 * e2 + n2 * e1, d1 * e2, g)

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.arity)
        if self.den.is_constant() and other.den.is_constant():
            return RatFunc._raw(self.num * other.num, self.den)
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RatFunc._raw(n1 * n2, d1 * d2)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionInField("division by zero rational function")
        if other.is_constant():
            return self.scale(1 / other.num.constant_value())
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionInField("inverse of zero")
        c = Fraction(1) / self.num.leading_coefficient()
        return RatFunc._raw(self.den.scale(c), self.num.scale(c))

    def scale(self, c) -> "RatFunc":
        if c == 0:
            return RatFunc.zero(self.arity)
        return RatFunc._raw(self.num.scale(c), self.den)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._raw(self.num**n, self.den**n)

    def derivative(self, var: int) -> "RatFunc":
        n, d = self.num, self.den
        if d.is_constant():
            return RatFunc._raw(n.derivative(var), d)
        dd = d.derivative(var)
        # (n/d)' = (n'(d/G) - n(d'/G)) / (d(d/G)) with G = gcd(d, d')
        g, e, de = gcd_cofactors(d, dd)
        return _reduced(n.derivative(var) * e - n * de, d * e, g)

    def log_derivative(self, var: int) -> "RatFunc":
        """The logarithmic derivative f'/f = n'/n - d'/d in var, in lowest terms."""
        n, d = self.num, self.den
        if n.is_zero():
            raise ZeroDivisionInField("division by zero rational function")
        # n'/n = n1'/n1 and d'/d = d1'/d1 in lowest terms; gcd(n1, d1) = 1, so
        # (n1'*d1 - d1'*n1) / (n1*d1) is in lowest terms too
        _, n1, dn1 = gcd_cofactors(n, n.derivative(var))
        _, d1, dd1 = gcd_cofactors(d, d.derivative(var))
        num = dn1 * d1 - dd1 * n1
        if num.is_zero():
            return RatFunc.zero(self.arity)
        den = n1 * d1
        lc = den.leading_coefficient()
        if lc != 1:
            num, den = num.scale(1 / lc), den.scale(1 / lc)
        return RatFunc._raw(num, den)

    def extend_arity(self, new_arity: int) -> "RatFunc":
        return RatFunc._raw(self.num.extend_arity(new_arity), self.den.extend_arity(new_arity))

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
            _set_hash(self, h)
        return h

    def render(self, names: list[str] | None = None) -> str:
        if self.den == MultiPoly.one(self.arity):
            return self.num.render(names)
        num = self.num.render(names)
        den = self.den.render(names)
        if len(self.num.nums) > 1:
            num = f"({num})"
        if len(self.den.nums) > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.render()})"


# Slot descriptors past the __setattr__ guard, as in multipoly.
_new = object.__new__
_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__
_set_hash = RatFunc._hash.__set__


def _cancel(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num and den divided by their (monic) gcd."""
    return gcd_cofactors(num, den)[1:]


def _reduced(num: MultiPoly, den: MultiPoly, common: MultiPoly) -> RatFunc:
    """num/den in lowest terms, given den monic and gcd(num, den) | common."""
    if num.is_zero():
        return RatFunc.zero(den.arity)
    if not common.is_constant():
        h, num_h, _ = gcd_cofactors(num, common)
        if not h.is_constant():
            num, den = num_h, exact_div(den, h)
    return RatFunc._raw(num, den)


def _polys_over_lcm(arity: int, fs: Sequence[RatFunc]) -> tuple[list[MultiPoly], MultiPoly]:
    """(numerators, L): each f as numerator / L, L the monic lcm of the denominators.

    L grows by the cofactor den / gcd(L, den) of each denominator, and the
    scales taken so far grow with it, so nothing divides.  No irreducible
    factor p of L divides every numerator: p reaches its full multiplicity
    in some f.den, so, f being in lowest terms, it divides neither f.num nor
    L / f.den.  The arity is that of L when ``fs`` is empty.
    """
    lcm = MultiPoly.one(arity)
    scales: list[MultiPoly] = []
    for f in fs:
        _, scale, grow = gcd_cofactors(lcm, f.den)
        if not grow.is_constant():
            lcm = lcm * grow
            scales = [s * grow for s in scales]
        scales.append(scale)
    return [f.num * s for f, s in zip(fs, scales)], lcm


def fraction_sum(
    arity: int, terms: Sequence[tuple[MultiPoly, MultiPoly]], power: int = 1
) -> RatFunc:
    """sum n / d^power over the (n, d) pairs, in lowest terms.

    A certificate identity holds when this sum is zero, so the zero test
    comes before any normalization: a zero sum is ``RatFunc.zero`` without
    a gcd on it and without forming a power of a denominator.  When a
    product passes LVK_MAX_DEGREE, the sum is taken term by term in lowest
    terms instead, which cancels before it multiplies.
    """
    try:
        return _over_lcm(arity, terms, power)
    except DegreeCapExceeded:
        return sum((RatFunc(n, d**power) for n, d in terms), RatFunc.zero(arity))


def _over_lcm(arity: int, terms: Sequence[tuple[MultiPoly, MultiPoly]], power: int) -> RatFunc:
    """``fraction_sum`` over the lcm L of the denominators: total / L^power.

    Numerators over equal denominators are added first, with no gcd.  L
    then starts as the first denominator and grows by each cofactor
    d / gcd(L, d); with L = g*c and d = g*e, t/L^p + n/d^p =
    (t*e^p + n*c^p) / (L*e)^p.
    """
    groups: dict[MultiPoly, MultiPoly] = {}
    for n, d in terms:
        if not n.is_zero():
            groups[d] = groups[d] + n if d in groups else n
    pairs = iter(groups.items())
    lcm, total = next(pairs, (None, MultiPoly.zero(arity)))  # no nonzero term: the sum is 0
    for d, n in pairs:
        _, c, e = gcd_cofactors(lcm, d)
        total = total * e**power + n * c**power
        lcm = lcm * e
    if total.is_zero():
        return RatFunc.zero(arity)
    return RatFunc(total, lcm**power)
