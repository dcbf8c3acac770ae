"""Univariate polynomial algorithms over the field Q or over K = Q(other variables).

A UniPoly is a dense polynomial in one distinguished variable, the main
variable.  Its coefficients lie in one of two fields, and the ``zero`` slot
holds that field's zero:

- Q: ``Fraction`` coefficients, when the polynomial involves no variable but
  the main one;
- K: ``RatFunc`` coefficients free of the main variable, otherwise.

The field is chosen once, where a polynomial enters: ``UniPoly.of_poly``
takes Q exactly when its input involves only the main variable, and
``ratfunc_as_unipair`` takes Q when numerator and denominator both do.
Results go back to ``RatFunc`` once, through ``to_ratfunc``.  Every
algorithm here, and the log part in ``residues``, is one implementation
over either field: coefficients need only +, -, *, / and ==, and the two
steps that differ, an inverse and a rational multiple, are
``coeff_inverse`` and ``_times``.  An operation that meets both fields
lifts the Q operand into K (``lift``), so Q-levels cost ``Fraction``
arithmetic and K-levels cost what they did.

This is the machinery behind Hermite reduction and the Rothstein-Trager
logarithmic part.  Euclid runs in ``gcd_uni``, and with the first operand's
cofactor in ``extended_gcd_uni``, the half-extended Euclid of each Hermite
pass.  Yun's squarefree decomposition has no loop here: ``squarefree_yun``
runs ``multipoly.squarefree_in_var`` on the cleared numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch, LvkError, ZeroDivisionInField
from .multipoly import (
    MultiPoly,
    _check_cap,
    _coeffs_in_var,
    _from_coeffs_in_var,
    _ints_over_lcm,
    resultant_in_var,
    squarefree_in_var,
)
from .ratfunc import RatFunc, _polys_over_lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def coeff_inverse(c):
    """1/c in the coefficient field of c."""
    return _ONE / c if type(c) is Fraction else c.inverse()


def _times(c, k):
    """c times the rational number k, in the coefficient field of c."""
    return c * k if type(c) is Fraction else c.scale(k)


class UniPoly:
    """coeffs[i] is the coefficient of mainVar**i; the top one is nonzero.

    zero is the coefficient field's zero: Fraction(0) over Q,
    RatFunc.zero(arity) over K.
    """

    __slots__ = ("main_var", "arity", "coeffs", "zero")

    def __init__(self, main_var: int, arity: int, coeffs: list):
        """Coefficients all rational (over Q) or all RatFunc (over K); no coefficients is over K."""
        coeffs = list(coeffs)
        if coeffs and not isinstance(coeffs[0], RatFunc):
            zero = _ZERO
            coeffs = [Fraction(c) for c in coeffs]
        else:
            zero = RatFunc.zero(arity)
            for c in coeffs:
                if not isinstance(c, RatFunc) or c.arity != arity:
                    raise ArityMismatch("coefficient arity mismatch")
                if c.involves(main_var):
                    raise ArityMismatch("coefficient involves the main variable")
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        self.main_var = main_var
        self.arity = arity
        self.coeffs = coeffs
        self.zero = zero

    @classmethod
    def _raw(cls, main_var: int, arity: int, coeffs: list, zero) -> "UniPoly":
        """Adopt coefficients of the field of zero, free of main_var; trims zero tops."""
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        p = object.__new__(cls)
        p.main_var = main_var
        p.arity = arity
        p.coeffs = coeffs
        p.zero = zero
        return p

    def _new(self, coeffs: list) -> "UniPoly":
        """A polynomial in the same variable over the same field."""
        return UniPoly._raw(self.main_var, self.arity, coeffs, self.zero)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def of_poly(p: MultiPoly, main_var: int) -> "UniPoly":
        """p in main_var: over Q when p involves no other variable, else over K."""
        nums, den = p.nums, p.den
        if all(sum(e) == e[main_var] for e in nums):
            coeffs = [_ZERO] * (max((e[main_var] for e in nums), default=-1) + 1)
            for e, c in nums.items():
                coeffs[e[main_var]] = Fraction(c, den)
            return UniPoly._raw(main_var, p.arity, coeffs, _ZERO)
        by_deg = _coeffs_in_var(p, main_var)
        zero = MultiPoly.zero(p.arity)
        coeffs = [RatFunc.of_poly(by_deg.get(i, zero)) for i in range(max(by_deg) + 1)]
        return UniPoly._raw(main_var, p.arity, coeffs, RatFunc.zero(p.arity))

    def lift(self) -> "UniPoly":
        """This polynomial over K: Q lifts as constant RatFuncs."""
        if not self.over_q:
            return self
        ar = self.arity
        coeffs = [RatFunc.constant(ar, c) for c in self.coeffs]
        return UniPoly._raw(self.main_var, ar, coeffs, RatFunc.zero(ar))

    # -- queries -----------------------------------------------------------

    @property
    def over_q(self) -> bool:
        return type(self.zero) is Fraction

    def one(self):
        """The coefficient field's one."""
        return _ONE if self.over_q else RatFunc.one(self.arity)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ZeroDivisionInField("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.zero

    # -- arithmetic ----------------------------------------------------------

    def common(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """self and other over one field: Q if both are, else K."""
        if self.main_var != other.main_var or self.arity != other.arity:
            raise ArityMismatch("UniPoly main variable or arity mismatch")
        if type(self.zero) is type(other.zero):
            return self, other
        return self.lift(), other.lift()

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.common(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return a._new([a.coeff(i) + b.coeff(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.common(other)
        if a.is_zero() or b.is_zero():
            return a._new([])
        zero = a.zero
        out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == zero:
                continue
            for j, y in enumerate(b.coeffs):
                out[i + j] = out[i + j] + x * y
        return a._new(out)

    def scale(self, c) -> "UniPoly":
        """Multiply by c: a rational number, or a RatFunc free of the main variable (over K)."""
        if isinstance(c, RatFunc):
            p = self.lift()
            return p._new([x * c for x in p.coeffs])
        return self._new([_times(x, c) for x in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(coeff_inverse(self.lc()))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        a, b = self.common(other)
        if b.is_zero():
            raise ZeroDivisionInField("division by zero UniPoly")
        q, r = dense_divmod(a.coeffs, b.coeffs, a.zero)
        return a._new(q), a._new(r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return self._new([_times(self.coeffs[i], i) for i in range(1, len(self.coeffs))])

    def integrate(self) -> "UniPoly":
        """Antiderivative in the main variable with constant 0."""
        return self._new(
            [self.zero] + [_times(c, Fraction(1, i + 1)) for i, c in enumerate(self.coeffs)]
        )

    def to_ratfunc(self) -> RatFunc:
        """The polynomial as a RatFunc, in lowest terms by construction.

        Over Q the coefficients go over the lcm of their denominators
        (``_ints_over_lcm``).  Over K they go over L, the monic lcm of
        theirs (``_polys_over_lcm``), and the numerator is the sum of the
        cleared coefficients times x^i, x the main variable.  No irreducible
        factor of L divides every cleared coefficient, and each is free of
        x, so none divides the numerator.
        """
        mv, ar = self.main_var, self.arity
        if self.over_q:
            ints, den = _ints_over_lcm(self.coeffs)
            nums = {}
            for i, n in enumerate(ints):
                if n:
                    e = [0] * ar
                    e[mv] = i
                    nums[tuple(e)] = n
            _check_cap(len(ints) - 1)
            return RatFunc._raw(MultiPoly._raw(ar, nums, den), MultiPoly.one(ar))
        nums, lcm = _polys_over_lcm(ar, self.coeffs)
        return RatFunc._raw(_from_coeffs_in_var(dict(enumerate(nums)), mv, ar), lcm)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return False
        if self.main_var != other.main_var or self.arity != other.arity:
            return False
        a, b = self.common(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        coeffs = [c.render() if isinstance(c, RatFunc) else str(c) for c in self.coeffs]
        return f"UniPoly(var={self.main_var}, {coeffs})"


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
    """Split a rational function into (numerator, denominator) UniPolys over one field."""
    return UniPoly.of_poly(f.num, main_var).common(UniPoly.of_poly(f.den, main_var))


def gcd_uni(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionInField("gcd(0, 0) undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def extended_gcd_uni(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(g, s) with s*a = g mod b, g monic: the half-extended Euclidean algorithm.

    Only a's cofactor is carried (Bronstein, *Symbolic Integration I*, 1.3);
    b's, when wanted, is (g - s*a)/b exactly.
    """
    a, b = a.common(b)
    r0, r1 = a, b
    s0, s1 = a._new([a.one()]), a._new([])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.is_zero():
        raise ZeroDivisionInField("extended gcd of two zero polynomials")
    inv = coeff_inverse(r0.lc())
    return r0.scale(inv), s0.scale(inv)


@dataclass
class SquarefreeDecomposition:
    """input = unit * prod(factor ** multiplicity), factors monic squarefree."""

    parts: list[tuple[UniPoly, int]]
    unit: Fraction | RatFunc


def squarefree_yun(p: UniPoly) -> SquarefreeDecomposition:
    """Yun's squarefree decomposition in characteristic zero.

    p is cleared of coefficient denominators and split by
    ``multipoly.squarefree_in_var`` in the main variable; the content it
    splits off is free of that variable, a unit of the coefficient field,
    and folds into ``unit = lc(p)``.  Each part is made monic in p's field.
    """
    if p.is_zero():
        raise ZeroDivisionInField("squarefree decomposition of zero")
    v = p.main_var
    _, split = squarefree_in_var(p.to_ratfunc().num, v)
    parts = [(UniPoly.of_poly(a, v).common(p)[0].monic(), e) for a, e in split]
    return SquarefreeDecomposition(parts=parts, unit=p.lc())


def resultant(p: UniPoly, q: UniPoly) -> RatFunc:
    """Resultant of p and q in the main variable.

    Sign convention frozen: the determinant of the matrix whose first deg(q)
    rows carry p's coefficients (highest first) and whose last deg(p) rows
    carry q's, i.e. lc(p)^deg(q) times the product of q over p's roots.  Both
    operands are cleared of coefficient denominators, as ``to_ratfunc``
    writes them (Lp*p)/Lp, and the fraction-free subresultant PRS of
    multipoly does the elimination:
    Res(p, q) = Res(Lp*p, Lq*q) / (Lp^deg q * Lq^deg p).

    No lvk code calls it: ``rothstein_trager`` reads R(t) off its own
    subresultant chain.  It stays a public export, and ``bench/spans.py``
    traces it by name.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroDivisionInField("resultant of zero polynomial")
    p.common(q)  # one main variable and arity
    fp, fq = p.to_ratfunc(), q.to_ratfunc()
    res = resultant_in_var(fp.num, fq.num, p.main_var)
    return RatFunc(res, fp.den ** q.degree() * fq.den ** p.degree())


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
    A/(D* D-).  Each pass takes D-2 = gcd(D-, D-') and D-* = D-/D-2, and
    solves B U + C D-* = A with U = -D* D-'/D- and deg B < deg D-* by one
    half-extended Euclid: S U = 1 mod D-*, B = S A mod D-*, and
    C = (A - B U)/D-* exactly.  It rewrites
    A/(D* D-) = (B/D-)' + (C - B' D*/D-*)/(D* D-2), and stops when D- is
    constant, leaving A/D*.
    """
    if den.is_zero():
        raise ZeroDivisionInField("zero denominator")
    num, den = num.common(den)
    ar = den.arity
    if num.is_zero():
        return RatFunc.zero(ar), den._new([]), den._new([den.one()])
    a = num.scale(coeff_inverse(den.lc()))
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
        g, s = extended_gcd_uni(u, d_minus_star)
        if g.degree() != 0:
            raise HermiteError("gcd(-D* D-'/D-, D-*) is not constant")
        # s*u = 1 mod d_minus_star, so b = s*a mod d_minus_star gives b*u = a
        # mod d_minus_star, and (a - b*u)/d_minus_star is exact
        b = (s * a) % d_minus_star
        a = (a - b * u).divmod(d_minus_star)[0] - b.derivative() * e
        if not b.is_zero():
            rat_part = rat_part + b.to_ratfunc() / d_minus.to_ratfunc()
        d_minus = d_minus2
    g = gcd_uni(a, d_star)
    return rat_part, a.divmod(g)[0], d_star.divmod(g)[0]
