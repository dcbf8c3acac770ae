"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a map from exponent tuples to nonzero ``Fraction``
coefficients.  The monomial order used everywhere (normalization, leading
terms, printing) is graded lexicographic with the declared variable order.

``gcd_multivar`` returns the monic gcd; ``gcd_cofactors`` returns it with
both cofactors, (g, a/g, b/g), for callers that divide by the gcd.  Both run
one shortcut ladder (``_gcd``), and the shortcut that finds g also knows the
cofactors, so only the subresultant branch pays two exact divisions.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    ArityMismatch,
    DegreeCapExceeded,
    NotDivisibleError,
    ParseError,
    ZeroDivisionInField,
)

#: Degree of the zero polynomial: strictly less than every integer.
MINUS_INFINITY = float("-inf")

_ONE = Fraction(1)


def degree_cap() -> int:
    """Safety rail on intermediate total degrees (env LVK_MAX_DEGREE, default 64).

    A value that is not a non-negative integer is a ParseError, not a silent default.
    """
    text = os.environ.get("LVK_MAX_DEGREE", "64")
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ParseError(f"LVK_MAX_DEGREE={text!r} is not a non-negative integer")
    return cap


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _check_cap(degree) -> None:
    cap = degree_cap()
    if degree > cap:
        raise DegreeCapExceeded(f"term of total degree {degree} exceeds LVK_MAX_DEGREE={cap}")


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables.

    The public constructor validates its terms (arity, zero coefficients,
    ``LVK_MAX_DEGREE``).  Arithmetic builds results with the trusted
    ``_raw``; only ``__mul__`` and ``_from_coeffs_in_var`` can raise the
    total degree, and they check the cap once per result.
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        cap = degree_cap()
        if terms:
            for exps, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c == 0:
                    continue
                if len(exps) != arity:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {arity}"
                    )
                if sum(exps) > cap:
                    raise DegreeCapExceeded(
                        f"term of total degree {sum(exps)} exceeds LVK_MAX_DEGREE={cap}"
                    )
                clean[tuple(exps)] = c
        _set_arity(self, arity)
        _set_terms(self, clean)
        _set_hash(self, None)

    @classmethod
    def _raw(cls, arity: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Adopt terms as they are: tuples of length arity, nonzero Fractions, within the cap."""
        p = _new(cls)
        _set_arity(p, arity)
        _set_terms(p, terms)
        _set_hash(p, None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "MultiPoly":
        return MultiPoly._raw(arity, {})

    @staticmethod
    def constant(arity: int, value) -> "MultiPoly":
        if type(value) is not Fraction:
            value = Fraction(value)
        return MultiPoly._raw(arity, {(0,) * arity: value} if value else {})

    @staticmethod
    def one(arity: int) -> "MultiPoly":
        return MultiPoly._raw(arity, {(0,) * arity: _ONE})

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return MultiPoly(arity, {tuple(exps): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.arity in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.arity, Fraction(0))

    def total_degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int):
        if not self.terms:
            return MINUS_INFINITY
        return max(e[var] for e in self.terms)

    def involves(self, var: int) -> bool:
        return any(e[var] > 0 for e in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ZeroDivisionInField("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s += c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return MultiPoly._raw(self.arity, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPoly._raw(self.arity, {})
        origin = (0,) * self.arity
        if len(other.terms) == 1 and origin in other.terms:
            return self.scale(other.terms[origin])
        if len(self.terms) == 1 and origin in self.terms:
            return other.scale(self.terms[origin])
        # over a field the leading terms multiply: the degrees add exactly
        _check_cap(self.total_degree() + other.total_degree())
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                if s is None:
                    terms[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return MultiPoly._raw(self.arity, terms)

    def scale(self, c) -> "MultiPoly":
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 1:
            return self
        if c == 0:
            return MultiPoly.zero(self.arity)
        return MultiPoly._raw(self.arity, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def derivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.arity:
            raise ArityMismatch(f"variable index {var} out of range")
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            new = list(e)
            new[var] -= 1
            terms[tuple(new)] = c * e[var]
        return MultiPoly._raw(self.arity, terms)

    def eval_partial(self, assignments: Mapping[int, Fraction]) -> "MultiPoly":
        """Substitute rational values for some variables (others untouched)."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            value = c
            new = list(e)
            for var, val in assignments.items():
                value *= Fraction(val) ** e[var]
                new[var] = 0
            if value == 0:
                continue
            key = tuple(new)
            s = terms.get(key, Fraction(0)) + value
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly._raw(self.arity, terms)

    def extend_arity(self, new_arity: int) -> "MultiPoly":
        """Reinterpret in a larger variable set (new variables appended)."""
        if new_arity < self.arity:
            raise ArityMismatch("cannot shrink arity")
        pad = (0,) * (new_arity - self.arity)
        return MultiPoly._raw(new_arity, {e + pad: c for e, c in self.terms.items()})

    # -- equality / hashing / printing ---------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.arity, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def render(self, names: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{i+1}" for i in range(self.arity)]
        pieces = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p > 0
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


# The slot descriptors write past the immutability guard of __setattr__; bound
# once, they cost about half of what object.__setattr__ does per slot.
_new = object.__new__
_set_arity = MultiPoly.arity.__set__
_set_terms = MultiPoly.terms.__set__
_set_hash = MultiPoly._hash.__set__


# -- division and gcd ------------------------------------------------------


def try_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Quotient a/b when b divides a exactly, else None.

    A constant b scales a by 1/b (a itself when b is 1).  Otherwise greedy
    leading-term division in graded-lex order: when b | a the leading term of
    every partial remainder is divisible by the leading term of b, so a
    failed monomial division certifies non-divisibility.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionInField("division by zero polynomial")
    if a.is_zero():
        return MultiPoly.zero(a.arity)
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    lm_b = b.leading_monomial()
    lc_b = b.terms[lm_b]
    quotient: dict[tuple[int, ...], Fraction] = {}
    rem = dict(a.terms)
    while rem:
        lm_r = max(rem, key=_grlex_key)
        exps = tuple(r - s for r, s in zip(lm_r, lm_b))
        if any(e < 0 for e in exps):
            return None
        c = rem[lm_r] / lc_b
        quotient[exps] = c
        # rem -= c * x^exps * b; its terms stay at or below lm_r
        for e, v in b.terms.items():
            key = tuple(x + y for x, y in zip(exps, e))
            s = rem.get(key, 0) - c * v
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MultiPoly._raw(a.arity, quotient)


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    q = try_exact_div(a, b)
    if q is None:
        raise NotDivisibleError(f"{b.render()} does not divide {a.render()}")
    return q


def monic_grlex(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    return p.scale(1 / p.leading_coefficient())


def _coeffs_in_var(p: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View p as univariate in var with MultiPoly coefficients."""
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for e, c in p.terms.items():
        d = e[var]
        rest = list(e)
        rest[var] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: MultiPoly._raw(p.arity, t) for d, t in out.items()}


def _from_coeffs_in_var(coeffs: dict[int, MultiPoly], var: int, arity: int) -> MultiPoly:
    """Inverse of _coeffs_in_var; the coefficients must be free of var."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            new = list(e)
            new[var] += d
            terms[tuple(new)] = c
    if terms:
        _check_cap(max(map(sum, terms)))
    return MultiPoly._raw(arity, terms)


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
        g = c if g is None else _gcd(g, c, False)
        if g.is_constant():
            break
    if g is None:
        raise ZeroDivisionInField("content of zero polynomial")
    return monic_grlex(g)


def gcd_multivar(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized with graded-lex leading coefficient 1.

    Recursive content/primitive-part reduction with a subresultant polynomial
    remainder sequence in the top occurring variable.  Three exact shortcuts
    come first (Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*,
    ch. 7):

    - a single-term argument c*x^e: every divisor of a monomial is a
      monomial, so the gcd is x^f with f the componentwise minimum of e and
      of every exponent of the other argument;
    - one argument dividing the other: if s, the one of lower total degree,
      has no higher degree in any variable and divides the other exactly,
      the gcd is s itself.  A failed trial division stops at the first
      leading monomial that does not divide;
    - s of total degree 1 that does not divide the other: a degree-1
      polynomial is irreducible, so the gcd is s or 1, and it is 1.
    """
    return _gcd(a, b, False)


def gcd_cofactors(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, a/g, b/g) with g = gcd_multivar(a, b).

    The shortcuts of gcd_multivar already know the cofactors: 1 gives (a, b),
    a == b gives lc(a) twice, a monomial gcd x^f shifts exponents, and a
    divisor s of t gives lc(s) and the trial quotient t/s times lc(s).  Only
    the subresultant branch divides.
    """
    return _gcd(a, b, True)


def _gcd(a: MultiPoly, b: MultiPoly, cofactors: bool):
    """The one shortcut ladder behind gcd_multivar and gcd_cofactors."""
    a._check(b)
    arity = a.arity
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionInField("gcd(0, 0) undefined")
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        g = monic_grlex(p)
        if not cofactors:
            return g
        lc = MultiPoly.constant(arity, p.leading_coefficient())
        return (g, lc, b) if b.is_zero() else (g, a, lc)
    if a.is_constant() or b.is_constant():
        return (MultiPoly.one(arity), a, b) if cofactors else MultiPoly.one(arity)
    if a == b:
        g = monic_grlex(a)
        if not cofactors:
            return g
        lc = MultiPoly.constant(arity, a.leading_coefficient())
        return g, lc, lc
    if len(a.terms) == 1 or len(b.terms) == 1:
        mono, other = (a, b) if len(a.terms) == 1 else (b, a)
        f = next(iter(mono.terms))
        for e in other.terms:
            f = tuple(map(min, f, e))
        g = MultiPoly._raw(arity, {f: _ONE})
        return (g, _shift_down(a, f), _shift_down(b, f)) if cofactors else g
    a_low = a.total_degree() <= b.total_degree()
    s, t = (a, b) if a_low else (b, a)
    if all(s.degree_in(v) <= t.degree_in(v) for v in range(arity)):
        q = try_exact_div(t, s)
        if q is not None:
            lc = s.leading_coefficient()
            g = s.scale(1 / lc)
            if not cofactors:
                return g
            cs, ct = MultiPoly.constant(arity, lc), q.scale(lc)
            return (g, cs, ct) if a_low else (g, ct, cs)
    if s.total_degree() == 1:
        return (MultiPoly.one(arity), a, b) if cofactors else MultiPoly.one(arity)
    var = next(
        v for v in range(arity) if a.involves(v) or b.involves(v)
    )
    if not (a.involves(var) and b.involves(var)):
        # one of them is free of the chosen top variable: gcd divides the
        # content of the other in that variable
        free, bound = (a, b) if not a.involves(var) else (b, a)
        cont = _content(_UniView.of(bound, var).coeffs)
        g = _gcd(free, cont, False)
    else:
        ua, ub = _UniView.of(a, var), _UniView.of(b, var)
        cont_a, cont_b = _content(ua.coeffs), _content(ub.coeffs)
        pa = ua.div_coeff(cont_a)
        pb = ub.div_coeff(cont_b)
        cg = _gcd(cont_a, cont_b, False)
        if pa.degree() < pb.degree():
            pa, pb = pb, pa
        last, rem, *_ = _subresultant_prs(pa, pb)
        if not rem.is_zero():
            g = cg
        else:
            g = monic_grlex(cg * last.div_coeff(_content(last.coeffs)).to_poly())
    if not cofactors:
        return g
    if g.is_constant():
        return g, a, b
    return g, exact_div(a, g), exact_div(b, g)


def _shift_down(p: MultiPoly, f: tuple[int, ...]) -> MultiPoly:
    """p / x^f for a monomial x^f that divides every term of p."""
    return MultiPoly._raw(
        p.arity, {tuple(x - y for x, y in zip(e, f)): c for e, c in p.terms.items()}
    )


def _next_scale(g: MultiPoly, h: MultiPoly, delta: int) -> MultiPoly:
    """The subresultant scale g^delta / h^(delta - 1)."""
    if delta == 0:
        return h
    if delta == 1:
        return g
    return exact_div(g**delta, h ** (delta - 1))


def _subresultant_prs(a: _UniView, b: _UniView):
    """Subresultant PRS of a, b (Brown and Collins) up to its last pseudo-remainder.

    Requires deg a >= deg b >= 1.  Stops at the first rem = prem(a, b) of
    degree <= 0 and returns (b, rem, g, h, delta, sign) of that step: b is
    the last element of positive degree, rem is zero or a nonzero constant,
    g and h are the current scales, delta = deg a - deg b, and sign is the
    product of (-1)^(deg a * deg b) over all steps, which resultants need.
    """
    g = h = MultiPoly.one(a.arity)
    sign = 1
    while True:
        delta = a.degree() - b.degree()
        if a.degree() % 2 and b.degree() % 2:
            sign = -sign
        rem = _pseudo_rem(a, b)
        if rem.degree() <= 0:
            return b, rem, g, h, delta, sign
        a, b = b, rem.div_coeff(g * h**delta)
        g = a.lc()
        h = _next_scale(g, h, delta)


def resultant_in_var(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Resultant of a and b in var: lc(a)^deg(b) times the product of b over a's roots.

    Computed fraction-free from the subresultant PRS that gcd_multivar runs
    (Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.7).
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
    if da < db:
        return resultant_in_var(b, a, var).scale((-1) ** (da * db))
    last, rem, g, h, delta, sign = _subresultant_prs(ua, ub)
    if rem.is_zero():
        return MultiPoly.zero(a.arity)
    # close the sequence: its constant element and the scale that goes with it
    d = last.degree()
    final = exact_div(rem.lc(), g * h**delta)
    h = _next_scale(last.lc(), h, delta)
    return exact_div(final**d, h ** (d - 1)).scale(sign)

