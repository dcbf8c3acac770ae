"""The integer-numerator MultiPoly kernel against sympy's Poly over QQ.

Every operation is compared with sympy on seeded inputs whose numerators and
denominators reach 2^64, and every result is checked for the stored form:
integer numerators over a positive den with gcd(den, numerators) = 1, and
zero as {} over 1.  Constructor validation and the edge cases of exact
division by the primitive part of the divisor are tested here too.
"""

import math
import random
from fractions import Fraction

import pytest

from lvk.errors import ArityMismatch, NotDivisibleError, ParseError
from lvk.multipoly import (
    MultiPoly,
    exact_div,
    gcd_cofactors,
    gcd_multivar,
    monic_grlex,
    resultant_in_var,
    try_exact_div,
)

sympy = pytest.importorskip("sympy")

BIG = 2**64


def gens(arity):
    return sympy.symbols(f"x1:{arity + 1}")


def to_sympy(p: MultiPoly, symbols=None):
    symbols = symbols or gens(p.arity)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * p.arity: 0}, *symbols, domain="QQ")


def assert_canonical(p: MultiPoly) -> None:
    assert type(p.den) is int and p.den > 0, p.den
    assert all(type(c) is int and c != 0 for c in p.nums.values()), p.nums
    assert all(len(e) == p.arity for e in p.nums), p.nums
    if p.nums:
        assert math.gcd(p.den, *p.nums.values()) == 1, (p.nums, p.den)
    else:
        assert p.den == 1
    same = MultiPoly(p.arity, dict(p.terms))
    assert same == p and hash(same) == hash(p)


def same(ours: MultiPoly, theirs) -> None:
    assert_canonical(ours)
    assert to_sympy(ours, theirs.gens) == theirs, (ours, theirs)


def coefficient(rng, big: bool) -> Fraction:
    if big:
        return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def draw(rng, arity, max_deg=2, max_terms=4, nonzero=False, big=None):
    """A random polynomial; big coefficients reach 2^64 over 2^64."""
    big = rng.random() < 0.5 if big is None else big
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        e = [0] * arity
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(arity)] += 1
        terms[tuple(e)] = coefficient(rng, big)
    p = MultiPoly(arity, terms)
    if nonzero and p.is_zero():
        return MultiPoly.constant(arity, coefficient(rng, big) or 1)
    return p


def grlex_monic(poly):
    return poly * (1 / poly.LC(order="grlex"))


# -- construction ------------------------------------------------------------------


def test_constructor_rejects_a_negative_exponent():
    with pytest.raises(ParseError):
        MultiPoly(2, {(-1, 0): 1, (1, 1): 2})


def test_constructor_rejects_a_non_int_exponent():
    with pytest.raises(ParseError):
        MultiPoly(2, {(1.5, 0): 1})


def test_constructor_checks_the_length_of_a_zero_term():
    with pytest.raises(ArityMismatch):
        MultiPoly(2, {(1, 0, 0): 0, (1, 1): 2})


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1", True])
def test_constructor_rejects_coefficients_that_are_not_int_or_fraction(coeff):
    with pytest.raises(ParseError):
        MultiPoly(2, {(1, 0): coeff})


def test_constructor_stores_numerators_over_the_lcm_of_denominators():
    p = MultiPoly(2, {(1, 0): Fraction(3, 4), (0, 1): Fraction(-5, 6), (0, 0): 2})
    assert p.den == 12 and p.nums == {(1, 0): 9, (0, 1): -10, (0, 0): 24}
    assert dict(p.terms) == {(1, 0): Fraction(3, 4), (0, 1): Fraction(-5, 6), (0, 0): 2}
    assert p.leading_coefficient() == Fraction(3, 4)
    assert MultiPoly.zero(2).nums == {} and MultiPoly.zero(2).den == 1
    assert MultiPoly(2, {(1, 0): Fraction(0)}) == MultiPoly.zero(2)


def test_terms_is_a_read_only_view():
    p = MultiPoly(1, {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        p.terms[(0,)] = Fraction(1)
    assert p.terms == {(1,): Fraction(1, 2)}


# -- every operation against sympy ---------------------------------------------------


def test_ring_operations_match_sympy():
    rng = random.Random(120)
    for _ in range(60):
        arity = rng.randint(1, 3)
        a, b = draw(rng, arity), draw(rng, arity)
        if rng.random() < 0.2:
            b = a.scale(coefficient(rng, False) or 1) + draw(rng, arity, max_terms=1)
        sa, sb = to_sympy(a), to_sympy(b)
        same(a, sa)
        same(a + b, sa + sb)
        same(a - b, sa - sb)
        same(-a, -sa)
        same(a * b, sa * sb)
        same(a**3, sa**3)
        c = coefficient(rng, rng.random() < 0.5)
        same(a.scale(c), sa * sympy.Rational(c.numerator, c.denominator))
        same(a.scale(int(c.numerator)), sa * int(c.numerator))
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a - b) + b == a and hash((a - b) + b) == hash(a)
        assert_canonical(a - a)
        assert a - a == MultiPoly.zero(arity)


def test_calculus_and_views_match_sympy():
    rng = random.Random(121)
    for _ in range(40):
        arity = rng.randint(1, 3)
        a = draw(rng, arity, max_deg=3)
        sa = to_sympy(a)
        for var in range(arity):
            same(a.derivative(var), sa.diff(sa.gens[var]))
        var = rng.randrange(arity)
        val = coefficient(rng, rng.random() < 0.5)
        expr = sa.as_expr().subs(sa.gens[var], sympy.Rational(val.numerator, val.denominator))
        same(a.eval_partial({var: val}), sympy.Poly(expr, *sa.gens, domain="QQ"))
        wider = gens(arity + 2)
        same(a.extend_arity(arity + 2), sympy.Poly(sa.as_expr(), *wider, domain="QQ"))
        if not a.is_zero():
            same(monic_grlex(a), grlex_monic(sa))
            assert a.leading_coefficient() == Fraction(str(sa.LC(order="grlex")))
        if a.is_constant():
            assert a.constant_value() == Fraction(str(sa.as_expr()))


def test_exact_division_matches_sympy():
    rng = random.Random(122)
    for _ in range(60):
        arity = rng.randint(1, 3)
        b = draw(rng, arity, nonzero=True)
        a = draw(rng, arity) * b if rng.random() < 0.6 else draw(rng, arity, max_deg=3)
        check_division(a, b)


def check_division(a: MultiPoly, b: MultiPoly) -> None:
    """try_exact_div and exact_div give sympy's quotient, or None when its remainder is nonzero."""
    q, r = to_sympy(a).div(to_sympy(b))
    ours = try_exact_div(a, b)
    if r.is_zero:
        same(ours, q)
        same(exact_div(a, b), q)
    else:
        assert ours is None, (a, b, ours)
        with pytest.raises(NotDivisibleError):
            exact_div(a, b)


def test_gcds_match_sympy():
    rng = random.Random(123)
    for _ in range(30):
        arity = rng.randint(1, 3)
        g = draw(rng, arity, nonzero=True)
        a = draw(rng, arity, nonzero=True) * g
        b = draw(rng, arity) * g
        sa, sb = to_sympy(a), to_sympy(b)
        theirs = grlex_monic(sa.gcd(sb))
        same(gcd_multivar(a, b), theirs)
        h, ca, cb = gcd_cofactors(a, b)
        same(h, theirs)
        same(ca, sa.exquo(theirs))
        same(cb, sb.exquo(theirs))


def sylvester_resultant(a: MultiPoly, b: MultiPoly, var: int):
    """The determinant of sympy's Sylvester matrix of a and b in variable var.

    The oracle for resultants: sympy's own ``resultant`` gives -(y^3 + y)
    for res_x(x^3 + x, x^5 + y), whose roots 0, i, -i make it
    y*(i + y)*(-i + y).
    """
    from sympy.polys.subresultants_qq_zz import sylvester

    x = gens(a.arity)[var]
    return sylvester(to_sympy(a).as_expr(), to_sympy(b).as_expr(), x, 1).det()


def test_resultants_match_sympy():
    rng = random.Random(124)
    for _ in range(30):
        arity = rng.randint(1, 3)
        a = draw(rng, arity, nonzero=True)
        b = draw(rng, arity, nonzero=True)
        var = rng.randrange(arity)
        if not (a.involves(var) or b.involves(var)):
            continue
        ours = resultant_in_var(a, b, var)
        assert_canonical(ours)
        assert sympy.expand(to_sympy(ours).as_expr() - sylvester_resultant(a, b, var)) == 0, (a, b, var)

    # remainder degrees that drop by 2 or more, also at the last, constant
    # step, where the resultant is read off Lazard's rescaled element
    names = ("x", "y", "z")
    pairs = [
        ("x^3 + y", "x^2"),
        ("x^5 + y", "x^3 + x"),
        ("x^6 + y", "x^3 + z"),
        ("y*x^4 + x + 1", "x^2 - y"),
        ("x^5 + y*x + 1", "(y + 1)*x^2 + z"),
    ]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        a, b = P(a, names), P(b, names)
        ours = resultant_in_var(a, b, 0)
        assert_canonical(ours)
        assert sympy.expand(to_sympy(ours).as_expr() - sylvester_resultant(a, b, 0)) == 0, (a, b)
    assert P("y^3 + y", names) == resultant_in_var(P("x^3 + x", names), P("x^5 + y", names), 0)


# -- exact division by the primitive part of the divisor ---------------------------------


def P(expr, names=("x", "y")):
    from lvk.parsing import parse_poly

    return parse_poly(expr, list(names))


def test_division_by_a_divisor_with_integer_content_and_rational_coefficients():
    b = P("6/5*x + 4/5*y")  # numerators 6, 4 over 5: content 2
    assert b.den == 5 and math.gcd(*b.nums.values()) == 2
    a = b * P("x - y/3")
    check_division(a, b)
    assert try_exact_div(a, b) == P("x - y/3")


def test_division_with_a_non_integral_quotient():
    a = P("(x + y)*(x/2 + 1/3)")
    check_division(a, P("x + y"))
    assert try_exact_div(a, P("x + y")) == P("x/2 + 1/3")


def test_non_divisibility_caught_at_a_leading_coefficient():
    check_division(P("x^2 + 1"), P("2*x + 1"))  # 1/2 at the first step
    check_division(P("2*x^2 + 2*x + 1"), P("2*x + 1"))  # 1 at the first step, then 1/2
    assert try_exact_div(P("x^2 + 1"), P("2*x + 1")) is None


def test_non_divisibility_caught_at_an_exponent():
    check_division(P("x^2 + y"), P("x + y^2"))
    assert try_exact_div(P("x^2 + y"), P("x + y^2")) is None


def test_division_by_a_constant():
    a = P("3*x^2 - x*y/7 + 5")
    for c in ("3/7", "-2", "1", "-1/9"):
        check_division(a, P(c))
    assert try_exact_div(a, P("1")) is a


def test_division_of_zero():
    z = MultiPoly.zero(2)
    check_division(z, P("x + 2*y"))
    assert try_exact_div(z, P("x + 2*y")) == z


def test_seeded_products_divide_back():
    rng = random.Random(125)
    for _ in range(40):
        arity = rng.randint(1, 3)
        a = draw(rng, arity, max_deg=3)
        b = draw(rng, arity, nonzero=True)
        assert try_exact_div(a * b, b) == a
        check_division(a * b, b)
