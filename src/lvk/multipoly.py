"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one common denominator:
p = (1/den) * sum of nums[e] * x^e, with ``nums`` a map from exponent tuples
to nonzero ints and ``den`` a positive int.  The invariant is gcd(den, every
numerator) = 1, and zero is ``{}`` over 1.  The form is canonical, so
equality and hashing are structural.  The kernel (ring operations, scaling,
derivatives, evaluation, the univariate views, the subresultant PRS and the
gcd ladder) runs on Python ints and restores the invariant with one
``math.gcd`` over the denominator and the numerators.  ``terms`` is a
read-only view of the coefficients as ``Fraction``s, built on demand for
callers outside the kernel.

``try_exact_div`` divides the numerators of a by the primitive part of the
numerators of b with integer ``divmod``.  By Gauss's lemma a quotient of an
integer polynomial by a primitive one has integer coefficients when it
exists, so a nonzero remainder at a leading coefficient certifies that b
does not divide a.

The monomial order used everywhere (normalization, leading terms,
printing) is graded lexicographic with the declared variable order.

The gcd is one ladder with one output, ``gcd_cofactors(a, b)`` =
(g, a/g, b/g) with g monic; ``gcd_multivar`` and the contents take g.  The
rung that finds g also knows the cofactors, so only the last, the
subresultant PRS, divides a and b by g.  Before it, the heuristic gcd
GCDHEU (``_heuristic_gcd``) reads g off the integer gcd of the arguments'
values at a large integer point, one variable at a time, and keeps it
only if both trial divisions succeed; its images are bounded by
``HEURISTIC_IMAGE_BITS``, not by ``LVK_MAX_DEGREE``.
``_subresultant_prs(a, b)`` seeds its own chain, higher degree first, and
returns it with the sign that resultants need.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .errors import (
    ArityMismatch,
    DegreeCapExceeded,
    NotDivisibleError,
    ParseError,
    ZeroDivisionInField,
)

#: Degree of the zero polynomial: strictly less than every integer.
MINUS_INFINITY = float("-inf")


def degree_cap() -> int:
    """Safety rail on intermediate total degrees (env LVK_MAX_DEGREE, default 64).

    A value that is not a string of ASCII decimal digits is a ParseError, not a
    silent default.
    """
    text = os.environ.get("LVK_MAX_DEGREE", "64")
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"LVK_MAX_DEGREE={text!r} is not a non-negative integer")
    return int(text)


def _check_constant_power(c: Fraction, n: int) -> None:
    """Refuse c^n for a rational c other than 0 and +-1 when |n| exceeds the cap.

    A constant never raises a total degree, but its digits grow with n, so
    without this rail ``2^99999999999`` runs without bound.
    """
    if c not in (0, 1, -1):
        cap = degree_cap()
        if abs(n) > cap:
            raise DegreeCapExceeded(f"power {n} of the constant {c} exceeds LVK_MAX_DEGREE={cap}")


#: GCDHEU gives up, and the PRS runs, once an integer image would pass this bit length.
HEURISTIC_IMAGE_BITS = 1 << 17

#: Evaluation points GCDHEU tries before it gives up.
HEURISTIC_TRIES = 6


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _check_cap(degree) -> None:
    cap = degree_cap()
    if degree > cap:
        raise DegreeCapExceeded(f"term of total degree {degree} exceeds LVK_MAX_DEGREE={cap}")


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables.

    Stored as integer numerators ``nums`` over a positive integer ``den``
    with gcd(den, numerators) = 1 (zero is ``{}`` over 1); ``terms`` is a
    read-only view of the coefficients as ``Fraction``s.  The public
    constructor takes ``int`` and ``Fraction`` coefficients and validates
    them (exponent vectors, arity, ``LVK_MAX_DEGREE``).  Arithmetic builds
    results with the trusted ``_raw``; only ``__mul__`` and
    ``_from_coeffs_in_var`` can raise the total degree, and they check the
    cap once per result.
    """

    __slots__ = ("arity", "nums", "den", "_hash")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        cap = degree_cap()
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {arity}"
                    )
                if any(type(k) is not int or k < 0 for k in exps):
                    raise ParseError(f"exponent vector {exps} is not of non-negative ints")
                if not isinstance(coeff, (int, Fraction)) or isinstance(coeff, bool):
                    raise ParseError(f"coefficient {coeff!r} is not an int or a Fraction")
                if not coeff:
                    continue
                if sum(exps) > cap:
                    raise DegreeCapExceeded(
                        f"term of total degree {sum(exps)} exceeds LVK_MAX_DEGREE={cap}"
                    )
                clean[exps] = coeff
        ints, den = _ints_over_lcm(clean.values())
        _set_arity(self, arity)
        _set_nums(self, dict(zip(clean, ints)))
        _set_den(self, den)
        _set_hash(self, None)

    @staticmethod
    def _raw(arity: int, nums: dict[tuple[int, ...], int], den: int) -> "MultiPoly":
        """Adopt nums over den as they are: the invariant holds and degrees are within the cap."""
        p = _new(MultiPoly)
        _set_arity(p, arity)
        _set_nums(p, nums)
        _set_den(p, den)
        _set_hash(p, None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """The coefficients as Fractions: a read-only view built on each access."""
        den = self.den
        return MappingProxyType({e: Fraction(n, den) for e, n in self.nums.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "MultiPoly":
        return _raw(arity, {}, 1)

    @staticmethod
    def constant(arity: int, value) -> "MultiPoly":
        if type(value) is not Fraction:
            value = Fraction(value)
        if not value:
            return _raw(arity, {}, 1)
        return _raw(arity, {(0,) * arity: value.numerator}, value.denominator)

    @staticmethod
    def one(arity: int) -> "MultiPoly":
        return _raw(arity, {(0,) * arity: 1}, 1)

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return MultiPoly(arity, {tuple(exps): 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and (0,) * self.arity in nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.nums.get((0,) * self.arity, 0), self.den)

    def total_degree(self):
        if not self.nums:
            return MINUS_INFINITY
        return max(map(sum, self.nums))

    def degree_in(self, var: int):
        if not self.nums:
            return MINUS_INFINITY
        return max(e[var] for e in self.nums)

    def involves(self, var: int) -> bool:
        return any(e[var] > 0 for e in self.nums)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.nums:
            raise ZeroDivisionInField("zero polynomial has no leading monomial")
        return max(self.nums, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self.nums[self.leading_monomial()], self.den)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return _sum(self, other, 1)

    def __neg__(self) -> "MultiPoly":
        return _raw(self.arity, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return _sum(self, other, -1)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        p, q = self.nums, other.nums
        if not p or not q:
            return _raw(self.arity, {}, 1)
        origin = (0,) * self.arity
        if len(q) == 1 and origin in q:
            return self._scale(q[origin], other.den)
        if len(p) == 1 and origin in p:
            return other._scale(p[origin], self.den)
        # over a field the leading terms multiply: the degrees add exactly
        _check_cap(self.total_degree() + other.total_degree())
        nums: dict[tuple[int, ...], int] = {}
        get = nums.get
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(map(add, e1, e2))
                s = get(e)
                if s is None:
                    nums[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        nums[e] = s
                    else:
                        del nums[e]
        return _reduced(self.arity, nums, self.den * other.den)

    def scale(self, c) -> "MultiPoly":
        if type(c) is int:
            n, d = c, 1
        else:
            if type(c) is not Fraction:
                c = Fraction(c)
            n, d = c.numerator, c.denominator
        if not n:
            return _raw(self.arity, {}, 1)
        return self._scale(n, d)

    def _scale(self, n: int, d: int) -> "MultiPoly":
        """self * n/d for coprime ints n != 0 and d > 0.

        With gcd(den, numerators) = 1 and gcd(n, d) = 1, the only common
        factors of the new numerators and d*den are gcd(n, den) and the gcd
        of d with the numerators.
        """
        if n == d or not self.nums:
            return self
        nums, den = self.nums, self.den
        g = gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        if d != 1:
            g = gcd(d, *nums.values())
            if g != 1:
                d //= g
                nums = {e: c // g for e, c in nums.items()}
        if n != 1:
            nums = {e: c * n for e, c in nums.items()}
        return _raw(self.arity, nums, den * d)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        nums = self.nums
        # 0 and +-1 are read off the ints; only another constant builds its Fraction
        if self.is_constant() and nums and (self.den != 1 or abs(nums[(0,) * self.arity]) != 1):
            _check_constant_power(self.constant_value(), n)
        if n == 0:
            return MultiPoly.one(self.arity)
        base, result = self, None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.arity:
            raise ArityMismatch(f"variable index {var} out of range")
        nums: dict[tuple[int, ...], int] = {}
        for e, c in self.nums.items():
            k = e[var]
            if k:
                new = list(e)
                new[var] = k - 1
                nums[tuple(new)] = c * k
        return _reduced(self.arity, nums, self.den)

    def eval_partial(self, assignments: Mapping[int, Fraction]) -> "MultiPoly":
        """Substitute rational values for some variables (others untouched).

        Each value p/q of a variable of degree D is taken as p^k * q^(D-k)
        over q^D, from one table per variable, so every term stays an
        integer over one denominator.
        """
        if not self.nums or not assignments:
            return self
        den = self.den
        tables = []
        for var, val in assignments.items():
            val = Fraction(val)
            p, q = val.numerator, val.denominator
            top = max(e[var] for e in self.nums)
            tables.append((var, [p**k * q ** (top - k) for k in range(top + 1)]))
            den *= q**top
        nums: dict[tuple[int, ...], int] = {}
        for e, c in self.nums.items():
            new = list(e)
            for var, table in tables:
                c *= table[e[var]]
                new[var] = 0
            if not c:
                continue
            key = tuple(new)
            s = nums.get(key, 0) + c
            if s:
                nums[key] = s
            else:
                del nums[key]
        return _reduced(self.arity, nums, den)

    def extend_arity(self, new_arity: int) -> "MultiPoly":
        """Reinterpret in a larger variable set (new variables appended)."""
        if new_arity < self.arity:
            raise ArityMismatch("cannot shrink arity")
        pad = (0,) * (new_arity - self.arity)
        return _raw(new_arity, {e + pad: c for e, c in self.nums.items()}, self.den)

    # -- equality / hashing / printing ---------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.arity, self.den, frozenset(self.nums.items())))
            _set_hash(self, h)
        return h

    def sorted_terms(self):
        """Terms in descending graded-lex order, coefficients as Fractions."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def render(self, names: list[str] | None = None) -> str:
        """The terms in descending graded-lex order; names default to x1, ..., xn."""
        if not self.nums:
            return "0"
        names = names or [f"x{i+1}" for i in range(self.arity)]
        terms = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p > 0
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            terms.append((body, c < 0))
        return _signed_sum(terms)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


# The slot descriptors write past the immutability guard of __setattr__; bound
# once, they cost about half of what object.__setattr__ does per slot.
_new = object.__new__
_set_arity = MultiPoly.arity.__set__
_set_nums = MultiPoly.nums.__set__
_set_den = MultiPoly.den.__set__
_set_hash = MultiPoly._hash.__set__
_raw = MultiPoly._raw


def _signed_sum(terms: Iterable[tuple[str, bool]]) -> str:
    """Join (body, negative) terms as ``-a + b - c``; "0" when there are none."""
    pieces = []
    for body, negative in terms:
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces) or "0"


def _ints_over_lcm(values: Collection[int | Fraction]) -> tuple[list[int], int]:
    """(numerators, den): the ints or Fractions over den, the lcm of their denominators.

    Every prime power p^k of that lcm divides the denominator of some
    reduced value in full, and p divides neither that value's numerator nor
    den over its denominator.  So gcd(den, numerators) = 1 without a gcd.
    """
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _reduced(arity: int, nums: dict[tuple[int, ...], int], den: int) -> MultiPoly:
    """The polynomial nums/den (den > 0, no zero numerators) with their common factor removed."""
    if not nums:
        return _raw(arity, nums, 1)
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    return _raw(arity, nums, den)


def _sum(a: MultiPoly, b: MultiPoly, sign: int) -> MultiPoly:
    """a + sign*b for sign = 1 or -1, over lcm(a.den, b.den).

    A prime that divides only one of the two denominators cannot cancel, so
    the result needs a gcd only when gcd(a.den, b.den) != 1.
    """
    a._check(b)
    q = b.nums
    if not q:
        return a
    if not a.nums:
        return b if sign == 1 else -b
    da, db = a.den, b.den
    if da == db:
        g = da
        nums = dict(a.nums)
        m = sign
    else:
        g = gcd(da, db)
        ma = db // g
        m = da // g * sign
        da *= ma
        nums = {e: c * ma for e, c in a.nums.items()}
    get = nums.get
    for e, c in q.items():
        s = get(e)
        if s is None:
            nums[e] = c * m
        else:
            s += c * m
            if s:
                nums[e] = s
            else:
                del nums[e]
    if g == 1 or not nums:
        return _raw(a.arity, nums, da if nums else 1)
    return _reduced(a.arity, nums, da)


# -- division and gcd ------------------------------------------------------


def try_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Quotient a/b when b divides a exactly, else None.

    A constant b scales a by 1/b (a itself when b is 1).  Otherwise greedy
    leading-term division in graded-lex order of the numerators of a by the
    primitive part B of the numerators of b, over the integers.  When B
    divides the numerators A of a over Q, Gauss's lemma makes the quotient
    integral, so every partial remainder is an integer multiple of B: its
    leading monomial is divisible by that of B and its leading coefficient
    by lc(B).  A monomial that does not divide or a nonzero ``divmod``
    remainder therefore certifies non-divisibility.  Then a/b = (A/B) *
    den(b) / (den(a) * content(b)).
    """
    a._check(b)
    bn = b.nums
    if not bn:
        raise ZeroDivisionInField("division by zero polynomial")
    if not a.nums:
        return _raw(a.arity, {}, 1)
    origin = (0,) * a.arity
    if len(bn) == 1 and origin in bn:
        c = bn[origin]
        return a._scale(-b.den, -c) if c < 0 else a._scale(b.den, c)
    content = gcd(*bn.values())
    if content != 1:
        bn = {e: c // content for e, c in bn.items()}
    lm_b = max(bn, key=_grlex_key)
    lc_b = bn[lm_b]
    quotient: dict[tuple[int, ...], int] = {}
    rem = dict(a.nums)
    while rem:
        lm_r = max(rem, key=_grlex_key)
        exps = tuple(map(sub, lm_r, lm_b))
        if min(exps) < 0:
            return None
        c, r = divmod(rem[lm_r], lc_b)
        if r:
            return None
        quotient[exps] = c
        # rem -= c * x^exps * B; its terms stay at or below lm_r
        for e, v in bn.items():
            key = tuple(map(add, exps, e))
            s = rem.get(key, 0) - c * v
            if s:
                rem[key] = s
            else:
                del rem[key]
    if b.den != 1:
        n = b.den
        quotient = {e: c * n for e, c in quotient.items()}
    return _reduced(a.arity, quotient, a.den * content)


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    q = try_exact_div(a, b)
    if q is None:
        raise NotDivisibleError(f"{b.render()} does not divide {a.render()}")
    return q


def monic_grlex(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1.

    p/lc(p) is the numerators over their leading one, so it is the
    numerators divided by their content, over the leading one, signed.
    """
    nums = p.nums
    if not nums:
        return p
    lc = nums[max(nums, key=_grlex_key)]
    if lc == 1 and p.den == 1:
        return p
    g = gcd(*nums.values())
    if lc < 0:
        g = -g
    if g != 1:
        nums = {e: c // g for e, c in nums.items()}
    return _raw(p.arity, nums, lc // g)


def _coeffs_in_var(p: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View p as univariate in var with MultiPoly coefficients."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.nums.items():
        d = e[var]
        rest = list(e)
        rest[var] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    den = p.den
    return {d: _reduced(p.arity, t, den) for d, t in out.items()}


def _from_coeffs_in_var(coeffs: dict[int, MultiPoly], var: int, arity: int) -> MultiPoly:
    """Inverse of _coeffs_in_var; the coefficients must be free of var.

    The coefficients go over the lcm of their denominators.  Their terms do
    not overlap, so, as in ``_ints_over_lcm``, no gcd is needed.
    """
    den = lcm(*(poly.den for poly in coeffs.values()))
    nums: dict[tuple[int, ...], int] = {}
    for d, poly in coeffs.items():
        m = den // poly.den
        for e, c in poly.nums.items():
            new = list(e)
            new[var] += d
            nums[tuple(new)] = c * m
    if nums:
        _check_cap(max(map(sum, nums)))
    return _raw(arity, nums, den)


class _UniView:
    """Dense univariate view of a MultiPoly in one variable, coefficients MultiPoly."""

    def __init__(self, coeffs: list[MultiPoly], var: int, arity: int):
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs
        self.var = var
        self.arity = arity

    @staticmethod
    def of(p: MultiPoly, var: int) -> "_UniView":
        by_deg = _coeffs_in_var(p, var)
        deg = max(by_deg) if by_deg else -1
        coeffs = [by_deg.get(i, MultiPoly.zero(p.arity)) for i in range(deg + 1)]
        return _UniView(coeffs, var, p.arity)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> MultiPoly:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_poly(self) -> MultiPoly:
        return _from_coeffs_in_var(dict(enumerate(self.coeffs)), self.var, self.arity)

    def mul_coeff(self, c: MultiPoly) -> "_UniView":
        return _UniView([x * c for x in self.coeffs], self.var, self.arity)

    def div_coeff(self, c: MultiPoly) -> "_UniView":
        return _UniView([exact_div(x, c) for x in self.coeffs], self.var, self.arity)

    def sub(self, other: "_UniView") -> "_UniView":
        n = max(len(self.coeffs), len(other.coeffs))
        z = MultiPoly.zero(self.arity)
        coeffs = [
            (self.coeffs[i] if i < len(self.coeffs) else z)
            - (other.coeffs[i] if i < len(other.coeffs) else z)
            for i in range(n)
        ]
        return _UniView(coeffs, self.var, self.arity)

    def shift(self, k: int) -> "_UniView":
        z = MultiPoly.zero(self.arity)
        return _UniView([z] * k + list(self.coeffs), self.var, self.arity)


def _pseudo_rem(a: _UniView, b: _UniView) -> _UniView:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    d = a.degree() - b.degree()
    lc_b = b.lc()
    rem = a
    while not rem.is_zero() and rem.degree() >= b.degree():
        k = rem.degree() - b.degree()
        lead = rem.lc()
        rem = rem.mul_coeff(lc_b).sub(b.mul_coeff(lead).shift(k))
        # each step multiplies by lc_b once; pad remaining factor at the end
        d -= 1
    for _ in range(d + 1):
        rem = rem.mul_coeff(lc_b)
    return rem


def _content(coeffs: Iterable[MultiPoly]) -> MultiPoly:
    g = None
    for c in coeffs:
        if c.is_zero():
            continue
        g = c if g is None else gcd_cofactors(g, c)[0]
        if g.is_constant():
            break
    if g is None:
        raise ZeroDivisionInField("content of zero polynomial")
    return monic_grlex(g)


def gcd_multivar(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized with graded-lex leading coefficient 1.

    The first element of ``gcd_cofactors(a, b)``.
    """
    return gcd_cofactors(a, b)[0]


def squarefree_in_var(p: MultiPoly, var: int) -> tuple[MultiPoly, list[tuple[MultiPoly, int]]]:
    """(c, [(a_e, e), ...]) with p = c * prod a_e^e up to a constant factor.

    c is the content of p in var, and a_e, for each multiplicity e that
    occurs, is the product of the factors of p that involve var and divide
    it exactly e times.  The a_e are squarefree and pairwise coprime.  This
    is Yun's algorithm on the primitive part (Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, 8.2) with every gcd taken with its
    cofactors, so no step divides twice.
    """
    if not p.involves(var):
        return p, []
    content = _content(_UniView.of(p, var).coeffs)
    if not content.is_constant():
        p = exact_div(p, content)
    _, w, z = gcd_cofactors(p, p.derivative(var))
    parts = []
    e = 1
    while w.involves(var):
        a, w, z = gcd_cofactors(w, z - w.derivative(var))
        if a.involves(var):
            parts.append((a, e))
        e += 1
    return content, parts


def gcd_cofactors(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) with g the gcd of a and b, graded-lex monic.

    A ladder of exact rungs; the last is recursive content/primitive-part
    reduction with a subresultant polynomial remainder sequence in the
    first occurring variable.  Three exact shortcuts come first, and each
    knows the cofactors without dividing (Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, ch. 7):

    - a single-term argument c*x^e: every divisor of a monomial is a
      monomial, so the gcd is x^f with f the componentwise minimum of e and
      of every exponent of the other argument, and the cofactors shift
      exponents down by f;
    - one argument dividing the other: if s, the one of lower total degree,
      has no higher degree in any variable and divides the other exactly,
      the gcd is s itself, with cofactors lc(s) and the trial quotient
      times lc(s).  A failed trial division stops at the first leading
      monomial that does not divide;
    - s of total degree 1 that does not divide the other: a degree-1
      polynomial is irreducible, so the gcd is 1.

    Then GCDHEU on the integer numerators (``_heuristic_gcd``): g is the
    candidate that both trial divisions certify, with ξ at or above the
    theorem's bound 2 * min(|a|, |b|) + 2 at every level, and the two
    quotients are the cofactors.  When it gives up (six points, or an
    image past ``HEURISTIC_IMAGE_BITS``), the gcd is the gcd of the
    contents times the primitive part of the subresultant chain's last
    element, unless that element is constant; only this branch divides a
    and b by g for the cofactors.
    """
    a._check(b)
    arity = a.arity
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionInField("gcd(0, 0) undefined")
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        g, lc = monic_grlex(p), MultiPoly.constant(arity, p.leading_coefficient())
        return (g, lc, b) if b.is_zero() else (g, a, lc)
    if a.is_constant() or b.is_constant():
        return MultiPoly.one(arity), a, b
    if len(a.nums) == 1 or len(b.nums) == 1:
        mono, other = (a, b) if len(a.nums) == 1 else (b, a)
        f = next(iter(mono.nums))
        for e in other.nums:
            f = tuple(map(min, f, e))
        return _raw(arity, {f: 1}, 1), _shift_down(a, f), _shift_down(b, f)
    a_low = a.total_degree() <= b.total_degree()
    s, t = (a, b) if a_low else (b, a)
    if all(s.degree_in(v) <= t.degree_in(v) for v in range(arity)):
        q = try_exact_div(t, s)
        if q is not None:
            g, lc = monic_grlex(s), s.leading_coefficient()
            cs, ct = MultiPoly.constant(arity, lc), q.scale(lc)
            return (g, cs, ct) if a_low else (g, ct, cs)
    if s.total_degree() == 1:
        return MultiPoly.one(arity), a, b
    heuristic = _heuristic_gcd(_raw(arity, a.nums, 1), _raw(arity, b.nums, 1))
    if heuristic is not None:
        h, qa, qb = heuristic
        if h.is_constant():
            return MultiPoly.one(arity), a, b
        lc = h.leading_coefficient()
        return monic_grlex(h), qa.scale(lc / a.den), qb.scale(lc / b.den)
    var = next(v for v in range(arity) if a.involves(v) or b.involves(v))
    ua, ub = _UniView.of(a, var), _UniView.of(b, var)
    cont_a, cont_b = _content(ua.coeffs), _content(ub.coeffs)
    cg = gcd_cofactors(cont_a, cont_b)[0]
    chain, _ = _subresultant_prs(ua.div_coeff(cont_a), ub.div_coeff(cont_b))
    last = chain[-1]
    if last.degree() == 0:
        g = cg
    else:
        g = monic_grlex(cg * last.div_coeff(_content(last.coeffs)).to_poly())
    if g.is_constant():
        return g, a, b
    return g, exact_div(a, g), exact_div(b, g)


def _heuristic_gcd(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly] | None:
    """(h, a/h, b/h) with h the gcd over Z of nonzero integer polynomials a and b, or None.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989; Geddes, Czapor &
    Labahn, *Algorithms for Computer Algebra*, 7.7).  With the integer
    contents split off, the first occurring variable x goes to an integer
    xi >= 2 * min(|a|, |b|) + 2 (max norms of the primitive parts); the gcd
    gamma of the two images comes from the same rung one variable down, an
    integer gcd at the bottom; h is the primitive part of the symmetric
    xi-adic expansion H of gamma in x.

    The theorem: if h divides a and b, it is their gcd.  The gcd is h*k,
    and k(xi) divides the content of H, an integer of absolute value at
    most xi/2.  Say |a| <= |b|.  A polynomial in x alone that divides a
    coefficient of a (in the other variables) has its roots within 1 + |a|
    <= xi/2 of 0 (Cauchy), so it does not vanish at xi, and there it
    exceeds xi/2 in absolute value unless it is constant.  As k(xi) is
    free of the other variables, every coefficient of k in them but the
    constant one vanishes at xi; the leading one divides a coefficient of
    a, so k is free of them.  Then k itself divides every coefficient of
    a, so it is a constant, +-1 as the gcd is primitive.

    The two trial divisions that certify h give the cofactors.  When they
    fail xi grows, ``HEURISTIC_TRIES`` times in all; an image whose
    estimated bit length, bits(|p|) + deg_x(p) * bits(xi), would pass
    ``HEURISTIC_IMAGE_BITS`` (2^17) gives up at once, since an image grows
    like prod (deg + 1) * bits(xi) over the levels.  None sends the caller
    to the subresultant PRS.
    """
    arity = a.arity
    ca, cb = gcd(*a.nums.values()), gcd(*b.nums.values())
    c = gcd(ca, cb)
    if a.is_constant() or b.is_constant():
        return _raw(arity, {(0,) * arity: c}, 1), a._scale(1, c), b._scale(1, c)
    a, b = a._scale(1, ca), b._scale(1, cb)
    tops_a, tops_b = list(map(max, zip(*a.nums))), list(map(max, zip(*b.nums)))
    var = next(v for v in range(arity) if tops_a[v] or tops_b[v])
    norm_a, norm_b = max(map(abs, a.nums.values())), max(map(abs, b.nums.values()))
    xi = 2 * min(norm_a, norm_b) + 29
    for _ in range(HEURISTIC_TRIES):
        bits = xi.bit_length()
        if max(
            norm_a.bit_length() + tops_a[var] * bits,
            norm_b.bit_length() + tops_b[var] * bits,
        ) > HEURISTIC_IMAGE_BITS:
            return None
        ia, ib = a.eval_partial({var: xi}), b.eval_partial({var: xi})
        if ia.nums and ib.nums:
            images = _heuristic_gcd(ia, ib)
            if images is None:
                return None
            h = _xi_adic(images[0], var, xi)
            h = h._scale(1, gcd(*h.nums.values()))
            qa = try_exact_div(a, h)
            if qa is not None:
                qb = try_exact_div(b, h)
                if qb is not None:
                    return h._scale(c, 1), qa._scale(ca // c, 1), qb._scale(cb // c, 1)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _xi_adic(gamma: MultiPoly, var: int, xi: int) -> MultiPoly:
    """H with H(xi) = gamma for gamma free of var: each coefficient as its symmetric base-xi digits.

    Digit k of a coefficient, in (-xi/2, xi/2], goes to var^k.
    """
    half = xi // 2
    nums: dict[tuple[int, ...], int] = {}
    for e, c in gamma.nums.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                new = list(e)
                new[var] = k
                nums[tuple(new)] = d
            c = (c - d) // xi
            k += 1
    return _raw(gamma.arity, nums, 1)


def _shift_down(p: MultiPoly, f: tuple[int, ...]) -> MultiPoly:
    """p / x^f for a monomial x^f that divides every term of p."""
    return _raw(p.arity, {tuple(map(sub, e, f)): c for e, c in p.nums.items()}, p.den)


def _next_scale(g: MultiPoly, h: MultiPoly, delta: int) -> MultiPoly:
    """The subresultant scale g^delta / h^(delta - 1)."""
    if delta == 0:
        return h
    if delta == 1:
        return g
    return exact_div(g**delta, h ** (delta - 1))


def _subresultant_prs(a: _UniView, b: _UniView) -> tuple[list[_UniView], int]:
    """Subresultant PRS of a, b (Brown and Collins): (chain, sign).

    The chain starts with a and b, the one of higher degree first, and goes
    on with each nonzero remainder as the regular subresultant of its
    degree, up to sign: a remainder s whose degree is gap > 1 below the
    previous element's becomes Lazard's s * lc(s)^(gap-1) / h^(gap-1), h
    the scale of that element (Ducos 2000); the loop goes on with s.  It
    stops once the last element is constant or the next remainder is zero,
    so the chain ends in a constant exactly when a and b have no common
    factor of positive degree in their variable.  sign is the product of
    (-1)^(deg a * deg b) over the first-place swap and every step, the sign
    that resultants need.
    """
    sign = 1
    if a.degree() < b.degree():
        a, b = b, a
        if a.degree() % 2 and b.degree() % 2:
            sign = -1
    chain = [a, b]
    g = h = MultiPoly.one(a.arity)
    while b.degree() > 0:
        delta = a.degree() - b.degree()
        if a.degree() % 2 and b.degree() % 2:
            sign = -sign
        rem = _pseudo_rem(a, b)
        if rem.is_zero():
            break
        a, b = b, rem.div_coeff(g * h**delta)
        g = a.lc()
        h = _next_scale(g, h, delta)
        gap = a.degree() - b.degree()
        chain.append(b if gap <= 1 else b.mul_coeff(b.lc() ** (gap - 1)).div_coeff(h ** (gap - 1)))
    return chain, sign


def resultant_in_var(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Resultant of a and b in var: lc(a)^deg(b) times the product of b over a's roots.

    Read fraction-free off the subresultant PRS that gcd_multivar runs
    (Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.7):
    the signed last element when it is constant, else 0.
    """
    a._check(b)
    if a.is_zero() or b.is_zero():
        raise ZeroDivisionInField("resultant of zero polynomial")
    ua, ub = _UniView.of(a, var), _UniView.of(b, var)
    da, db = ua.degree(), ub.degree()
    if db == 0:
        return ub.lc() ** da
    if da == 0:
        return ua.lc() ** db
    chain, sign = _subresultant_prs(ua, ub)
    if chain[-1].degree() > 0:
        return MultiPoly.zero(a.arity)
    return chain[-1].lc().scale(sign)
