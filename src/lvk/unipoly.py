"""Univariate polynomial algorithms over the fraction field of the other variables.

A UniPoly is a dense polynomial in one distinguished variable whose
coefficients are RatFunc values free of that variable.  This is the machinery
behind Hermite reduction and the Rothstein-Trager logarithmic part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch, LvkError, ZeroDivisionInField
from .multipoly import (
    MultiPoly,
    _coeffs_in_var,
    _from_coeffs_in_var,
    exact_div,
    gcd_cofactors,
    resultant_in_var,
)
from .ratfunc import RatFunc


class UniPoly:
    """coeffs[i] is the coefficient of mainVar**i; the top one is nonzero."""

    __slots__ = ("main_var", "arity", "coeffs")

    def __init__(self, main_var: int, arity: int, coeffs: list[RatFunc]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for c in coeffs:
            if c.arity != arity:
                raise ArityMismatch("coefficient arity mismatch")
            if c.involves(main_var):
                raise ArityMismatch("coefficient involves the main variable")
        self.main_var = main_var
        self.arity = arity
        self.coeffs = coeffs

    @classmethod
    def _raw(cls, main_var: int, arity: int, coeffs: list[RatFunc]) -> "UniPoly":
        """Adopt coefficients already of this arity and free of main_var; trims zero tops."""
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        p = object.__new__(cls)
        p.main_var = main_var
        p.arity = arity
        p.coeffs = coeffs
        return p

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(main_var: int, arity: int) -> "UniPoly":
        return UniPoly(main_var, arity, [])

    @staticmethod
    def const(main_var: int, arity: int, c: RatFunc) -> "UniPoly":
        return UniPoly(main_var, arity, [c])

    @staticmethod
    def of_poly(p: MultiPoly, main_var: int) -> "UniPoly":
        by_deg = _coeffs_in_var(p, main_var)
        zero = MultiPoly.zero(p.arity)
        coeffs = [RatFunc(by_deg.get(i, zero)) for i in range(max(by_deg, default=-1) + 1)]
        return UniPoly(main_var, p.arity, coeffs)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> RatFunc:
        if self.is_zero():
            raise ZeroDivisionInField("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc.zero(self.arity)

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == RatFunc.one(self.arity)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "UniPoly"):
        if self.main_var != other.main_var or self.arity != other.arity:
            raise ArityMismatch("UniPoly main variable or arity mismatch")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly._raw(
            self.main_var,
            self.arity,
            [self.coeff(i) + other.coeff(i) for i in range(n)],
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw(self.main_var, self.arity, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.main_var, self.arity)
        out = [RatFunc.zero(self.arity)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly._raw(self.main_var, self.arity, out)

    def scale(self, c: RatFunc) -> "UniPoly":
        """Multiply by c, which must be free of the main variable."""
        return UniPoly._raw(self.main_var, self.arity, [x * c for x in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.lc().inverse())

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionInField("division by zero UniPoly")
        q, r = dense_divmod(self.coeffs, other.coeffs, RatFunc.zero(self.arity))
        mv, ar = self.main_var, self.arity
        return UniPoly._raw(mv, ar, q), UniPoly._raw(mv, ar, r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly._raw(
            self.main_var,
            self.arity,
            [
                self.coeffs[i].scale(i)
                for i in range(1, len(self.coeffs))
            ],
        )

    def integrate(self) -> "UniPoly":
        """Antiderivative in the main variable with constant 0."""
        out = [RatFunc.zero(self.arity)]
        for i, c in enumerate(self.coeffs):
            out.append(c.scale(Fraction(1, i + 1)))
        return UniPoly._raw(self.main_var, self.arity, out)

    def to_ratfunc(self) -> RatFunc:
        x = RatFunc(MultiPoly.variable(self.arity, self.main_var))
        acc = RatFunc.zero(self.arity)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.main_var == other.main_var
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"UniPoly(var={self.main_var}, {[c.render() for c in self.coeffs]})"


def dense_divmod(a: list, b: list, zero) -> tuple[list, list]:
    """Long division of dense ascending coefficient lists over a field.

    Returns (q, r) with a = q*b + r and len(r) < len(b).  The coefficients
    are Fraction or RatFunc values and ``zero`` is that field's zero; b must
    have a nonzero top coefficient.  r is trimmed, and q is when a is.
    """
    r = list(a)
    n = len(b) - 1
    lower = [(i, c) for i, c in enumerate(b[:n]) if c != zero]
    q = [zero] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        # the top coefficient cancels exactly, so it is dropped, not computed
        c = r.pop()
        if c == zero:
            continue
        c = c / b[n]
        q[k] = c
        for i, bi in lower:
            r[k + i] = r[k + i] - c * bi
    while r and r[-1] == zero:
        r.pop()
    return q, r


def ratfunc_as_unipair(f: RatFunc, main_var: int) -> tuple[UniPoly, UniPoly]:
    """Split a rational function into (numerator, denominator) UniPolys."""
    return UniPoly.of_poly(f.num, main_var), UniPoly.of_poly(f.den, main_var)


def gcd_uni(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionInField("gcd(0, 0) undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def extended_gcd_uni(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(g, s, t) with s*a + t*b = g, g monic."""
    mv, ar = a.main_var, a.arity
    one = UniPoly.const(mv, ar, RatFunc.one(ar))
    zero = UniPoly.zero(mv, ar)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        raise ZeroDivisionInField("extended gcd of two zero polynomials")
    inv = r0.lc().inverse()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


@dataclass
class SquarefreeDecomposition:
    """input = unit * prod(factor ** multiplicity), factors monic squarefree."""

    parts: list[tuple[UniPoly, int]]
    unit: RatFunc

    def multiply_back(self) -> UniPoly:
        sample = None
        for f, _ in self.parts:
            sample = f
            break
        if sample is None:
            raise ValueError("empty decomposition has no intrinsic variable")
        acc = UniPoly.const(sample.main_var, sample.arity, self.unit)
        for f, m in self.parts:
            for _ in range(m):
                acc = acc * f
        return acc


def squarefree_yun(p: UniPoly) -> SquarefreeDecomposition:
    """Yun's squarefree decomposition in characteristic zero."""
    if p.is_zero():
        raise ZeroDivisionInField("squarefree decomposition of zero")
    unit = p.lc()
    p = p.monic()
    if p.degree() == 0:
        return SquarefreeDecomposition(parts=[], unit=unit)
    dp = p.derivative()
    g = gcd_uni(p, dp)
    parts: list[tuple[UniPoly, int]] = []
    if g.degree() == 0:
        return SquarefreeDecomposition(parts=[(p, 1)], unit=unit)
    w = p.divmod(g)[0]
    y = dp.divmod(g)[0]
    z = y - w.derivative()
    i = 1
    while not w.is_zero() and w.degree() > 0:
        f = gcd_uni(w, z)
        if f.degree() > 0:
            parts.append((f, i))
        w = w.divmod(f)[0]
        z = z.divmod(f)[0] - w.derivative()
        i += 1
    return SquarefreeDecomposition(parts=parts, unit=unit)


def _clear_denominators(p: UniPoly) -> tuple[MultiPoly, MultiPoly]:
    """(L, L*p as a MultiPoly), L the lcm of p's coefficient denominators."""
    lcm = MultiPoly.one(p.arity)
    for c in p.coeffs:
        lcm = lcm * gcd_cofactors(lcm, c.den)[2]
    by_deg = {i: c.num * exact_div(lcm, c.den) for i, c in enumerate(p.coeffs)}
    return lcm, _from_coeffs_in_var(by_deg, p.main_var, p.arity)


def resultant(p: UniPoly, q: UniPoly) -> RatFunc:
    """Resultant of p and q in the main variable.

    Sign convention frozen: the determinant of the matrix whose first deg(q)
    rows carry p's coefficients (highest first) and whose last deg(p) rows
    carry q's, i.e. lc(p)^deg(q) times the product of q over p's roots.  Both
    operands are cleared of coefficient denominators (lcm L) and the
    fraction-free subresultant PRS of multipoly does the elimination:
    Res(p, q) = Res(Lp*p, Lq*q) / (Lp^deg q * Lq^deg p).
    """
    if p.is_zero() or q.is_zero():
        raise ZeroDivisionInField("resultant of zero polynomial")
    p._check(q)
    lp, pp = _clear_denominators(p)
    lq, qq = _clear_denominators(q)
    res = resultant_in_var(pp, qq, p.main_var)
    return RatFunc(res, lp ** q.degree() * lq ** p.degree())


class HermiteError(LvkError):
    pass


def hermite_reduce(num: UniPoly, den: UniPoly) -> tuple[RatFunc, UniPoly, UniPoly]:
    """Write num/den = d/dx(ratPart) + reducedNum/reducedDen.

    reducedDen is monic and squarefree and the remainder fraction is proper
    and in lowest terms.  Requires gcd(num, den) a unit and the input
    fraction proper (callers split off the polynomial part first).

    Mack's linear version of Hermite reduction (Bronstein, *Symbolic
    Integration I*, 2.2), with no squarefree factorization and no partial
    fractions.  With D- = gcd(D, D') and D* = D/D-, the fraction is
    A/(D* D-).  Each pass takes D-2 = gcd(D-, D-') and D-* = D-/D-2, solves
    B (-D* D-'/D-) + C D-* = A with deg B < deg D-*, and rewrites
    A/(D* D-) = (B/D-)' + (C - B' D*/D-*)/(D* D-2).  It stops when D- is
    constant, leaving A/D*.
    """
    if den.is_zero():
        raise ZeroDivisionInField("zero denominator")
    mv, ar = den.main_var, den.arity
    if num.is_zero():
        return RatFunc.zero(ar), UniPoly.zero(mv, ar), UniPoly.const(mv, ar, RatFunc.one(ar))
    a = num.scale(den.lc().inverse())
    den = den.monic()
    d_minus = gcd_uni(den, den.derivative())
    if d_minus.degree() == 0:
        # squarefree, and gcd(num, den) = 1 is required: nothing to reduce
        return RatFunc.zero(ar), a, den
    d_star = den.divmod(d_minus)[0]
    rat_part = RatFunc.zero(ar)
    while d_minus.degree() > 0:
        dd_minus = d_minus.derivative()
        d_minus2 = gcd_uni(d_minus, dd_minus)
        d_minus_star = d_minus.divmod(d_minus2)[0]
        e = d_star.divmod(d_minus_star)[0]
        u = -(e * dd_minus.divmod(d_minus2)[0])
        g, s, t = extended_gcd_uni(u, d_minus_star)
        if g.degree() != 0:
            raise HermiteError("gcd(-D* D-'/D-, D-*) is not constant")
        # s*u + t*d_minus_star = 1, so a = b*u + (t*a + q*u)*d_minus_star
        q, b = (s * a).divmod(d_minus_star)
        a = t * a + q * u - b.derivative() * e
        if not b.is_zero():
            rat_part = rat_part + b.to_ratfunc() / d_minus.to_ratfunc()
        d_minus = d_minus2
    g = gcd_uni(a, d_star)
    return rat_part, a.divmod(g)[0], d_star.divmod(g)[0]
