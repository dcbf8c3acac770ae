import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvk.errors import ZeroDivisionInField
from lvk.multipoly import MultiPoly, gcd_multivar
from lvk.parsing import parse_poly, parse_ratfunc
from lvk.ratfunc import RatFunc, fraction_sum

from conftest import random_poly, random_ratfunc

NAMES = ["x", "y"]


def R(expr, names=NAMES):
    return parse_ratfunc(expr, list(names))


# -- normalization --------------------------------------------------------------


def test_gcd_cancelled_on_construction():
    f = RatFunc(parse_poly("x^2 - y^2", NAMES), parse_poly("x - y", NAMES))
    assert f == R("x + y")
    assert f.den == MultiPoly.one(2)


def test_denominator_normalized_monic():
    f = RatFunc(parse_poly("x", NAMES), parse_poly("2*y", NAMES))
    assert f.den == parse_poly("y", NAMES)
    assert f.num == parse_poly("x", NAMES).scale(Fraction(1, 2))


def test_structural_equality_after_arithmetic():
    a = R("1/x") + R("1/y")
    b = R("(x + y)/(x*y)")
    assert a == b
    assert hash(a) == hash(b)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionInField):
        RatFunc(MultiPoly.one(2), MultiPoly.zero(2))
    with pytest.raises(ZeroDivisionInField):
        R("1/x").scale(0).inverse()


# -- field laws ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_field_identities(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    a = random_ratfunc(rng, arity)
    b = random_ratfunc(rng, arity)
    c = random_ratfunc(rng, arity)
    assert (a + b) * c == a * c + b * c
    assert a - a == RatFunc.zero(arity)
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == RatFunc.one(arity)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derivative_quotient_rule(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    f = random_ratfunc(rng, arity)
    g = random_ratfunc(rng, arity)
    if g.is_zero():
        g = RatFunc.one(arity)
    q = f / g
    for v in range(arity):
        lhs = q.derivative(v)
        rhs = (f.derivative(v) * g - f * g.derivative(v)) / (g * g)
        assert lhs == rhs


def test_pow_negative():
    f = R("x/y")
    assert f ** (-2) == R("y^2/x^2")


def test_is_polynomial_and_as_poly():
    assert R("x^2 + 1").is_polynomial()
    p = R("(x^2 - y^2)/(x - y)")
    assert p.is_polynomial()
    assert p.as_poly() == parse_poly("x + y", NAMES)
    assert not R("1/x").is_polynomial()


def test_render_parenthesizes_ambiguous_denominators():
    f = R("x / (y^2 * x)")  # reduces to 1/y^2
    assert f.render(NAMES) == "1/y^2"
    g = R("x", ["x", "y", "z"]) / (
        R("y^2", ["x", "y", "z"]) * R("z", ["x", "y", "z"])
    )
    assert g.render(["x", "y", "z"]) == "x/(y^2*z)"
    assert R("(x + 1)/(y + 1)").render(NAMES) == "(x + 1)/(y + 1)"


# -- fast paths against the normalizing constructor ------------------------------


def assert_normalized(f: RatFunc):
    assert f.den.leading_coefficient() == 1
    if f.num.is_zero():
        assert f.den == MultiPoly.one(f.arity)
    else:
        assert gcd_multivar(f.num, f.den).is_constant()


def operand_pair(rng: random.Random, arity: int, kind: str):
    """Two rational functions whose denominators relate as kind says."""
    def poly(nonzero=False):
        return random_poly(rng, arity, max_deg=2, max_terms=3, nonzero=nonzero)

    a = RatFunc(poly(), poly(nonzero=True))
    if kind == "overlap":
        shared = poly(nonzero=True)
        a = RatFunc(poly(), poly(nonzero=True) * shared)
        b = RatFunc(poly(), poly(nonzero=True) * shared)
    elif kind == "equal":
        b = RatFunc(poly(), a.den)
    elif kind == "polynomial":
        a, b = RatFunc(poly()), RatFunc(poly())
    elif kind == "constant":
        v = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        a = RatFunc.constant(arity, rng.choice([0, v, v]))
        w = rng.choice([0, v, -a.constant_value(), Fraction(rng.randint(-2, 2))])
        b = RatFunc.constant(arity, w)
    elif kind == "polynomial-rational":
        b = RatFunc(poly(), poly(nonzero=True))
        while b.is_polynomial():
            b = RatFunc(poly(nonzero=True), poly(nonzero=True))
        a = RatFunc(poly())
        if rng.random() < 0.5:
            a, b = b, a
    elif kind == "opposite":
        b = -a
    elif kind == "cancelling":
        # b = c - a, so that a + b = c cancels what a and b share
        c = RatFunc(poly(), poly(nonzero=True))
        b = RatFunc(c.num * a.den - a.num * c.den, a.den * c.den)
    elif kind == "var-free content":
        # a = p/q^2 + 1/content with content free of x1, as in 1/(y*(x+1)^2):
        # the content sits in gcd(d, d/dx1 d) and cancels from d/dx1 a
        content = MultiPoly.constant(arity, rng.randint(0, 2))
        if arity > 1:
            content = content + MultiPoly.variable(arity, arity - 1)
        if content.is_zero():
            content = MultiPoly.one(arity)
        q2 = poly(nonzero=True) ** 2
        a = RatFunc(poly() * content + q2, q2 * content)
        b = RatFunc(poly(), content * poly(nonzero=True))
    else:
        b = RatFunc(poly(), poly(nonzero=True))
    return a, b


KINDS = (
    "random",
    "overlap",
    "equal",
    "polynomial",
    "opposite",
    "cancelling",
    "var-free content",
    "constant",
    "polynomial-rational",
)


def textbook(a: RatFunc, b: RatFunc, c: Fraction, k: int) -> dict:
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    out = {
        "add": (a + b, RatFunc(n1 * d2 + n2 * d1, d1 * d2)),
        "sub": (a - b, RatFunc(n1 * d2 - n2 * d1, d1 * d2)),
        "neg": (-a, RatFunc(-n1, d1)),
        "mul": (a * b, RatFunc(n1 * n2, d1 * d2)),
        "scale": (a.scale(c), RatFunc(n1.scale(c), d1)),
        "pow": (a**k, RatFunc(n1**k, d1**k)),
        "extend": (a.extend_arity(a.arity + 1), RatFunc(n1.extend_arity(a.arity + 1), d1.extend_arity(a.arity + 1))),
    }
    if not b.is_zero():
        out["div"] = (a / b, RatFunc(n1 * d2, d1 * n2))
    if not a.is_zero():
        out["inverse"] = (a.inverse(), RatFunc(d1, n1))
        out["pow-neg"] = (a ** (-k), RatFunc(d1**k, n1**k))
    for v in range(a.arity):
        out[f"d{v}"] = (
            a.derivative(v),
            RatFunc(n1.derivative(v) * d1 - n1 * d1.derivative(v), d1 * d1),
        )
    return out


def test_fast_paths_match_normalizing_constructor():
    rng = random.Random(31337)
    for i in range(15 * len(KINDS)):
        arity = rng.randint(1, 3)
        kind = KINDS[i % len(KINDS)]
        a, b = operand_pair(rng, arity, kind)
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        for op, (fast, slow) in textbook(a, b, c, rng.randint(0, 3)).items():
            assert fast == slow, (kind, op, a, b)
            assert_normalized(fast)
        if kind == "opposite":
            assert (a + b).is_zero() and (a + b).den == MultiPoly.one(arity)
    # the cancellations the fast paths must find did happen
    assert R("(y + 1)/(x + 1)") + R("(x - y)/(x + 1)") == R("1")
    assert R("x/(x^2 - 1)") - R("1/(x^2 - 1)") == R("1/(x + 1)")


def test_derivative_with_var_free_denominator_content():
    # the content y sits wholly in gcd(d, d'), and may cancel against the numerator
    f = R("(x*y + 1)/y")
    assert f.derivative(0) == R("1")
    assert f.derivative(1) == R("-1/y^2")
    g = R("1/(y*(x + 1)^2)")
    assert g.derivative(0) == R("-2/(y*(x + 1)^3)")
    assert g.derivative(1) == R("-1/(y^2*(x + 1)^2)")
    k = R("x/(x + 1) + 1/y")  # (x*y + x + 1)/(y*(x + 1))
    assert k.derivative(0) == R("1/(x + 1)^2")
    for h in (f, g, k):
        for v in range(2):
            assert_normalized(h.derivative(v))
    # the derivative of a squared denominator cancels one copy only
    q = R("x/(x + y)^2")
    assert q.derivative(0) == R("(y - x)/(x + y)^3")
    assert_normalized(q.derivative(0))


def test_log_derivative_matches_the_quotient():
    rng = random.Random(9191)
    for i in range(90):
        arity = rng.randint(1, 3)
        f = random_ratfunc(rng, arity)
        if i % 2:
            # repeated factors in the numerator and the denominator
            p = random_poly(rng, arity, max_deg=2, nonzero=True)
            q = random_poly(rng, arity, max_deg=2, nonzero=True)
            f = f * RatFunc(p ** rng.randint(2, 3), q ** rng.randint(2, 3))
        if f.is_zero():
            continue
        for v in range(arity):
            g = f.log_derivative(v)
            assert g == f.derivative(v) / f, (f, v)
            assert_normalized(g)
    assert R("(x + 1)^3/(y*(x - y)^2)").log_derivative(0) == R("3/(x + 1) - 2/(x - y)")
    assert R("5*y^2").log_derivative(0) == RatFunc.zero(2)
    with pytest.raises(ZeroDivisionInField):
        RatFunc.zero(2).log_derivative(0)


def test_raw_results_are_immutable_and_hash_like_constructed_ones():
    for a, b in ((R("x^2 - y"), R("3*x*y + 1")), (R("x/(y + 1)"), R("(x - 1)/(x*y + 2)"))):
        for f in (a + b, a * b, a.derivative(0)):
            for name in ("num", "den", "_hash", "extra"):
                with pytest.raises(AttributeError):
                    setattr(f, name, None)
            same = RatFunc(f.num, f.den)
            assert f == same and hash(f) == hash(same)


def test_scale_by_zero_and_trivial_powers():
    f = R("(x + 1)/(y - 2)")
    assert f.scale(0) == RatFunc.zero(2)
    assert f.scale(0).den == MultiPoly.one(2)
    assert f**0 == RatFunc.one(2)
    assert RatFunc.zero(2) ** 0 == RatFunc.one(2)
    assert f**1 == f


# -- fraction_sum against the term-by-term normalized sum --------------------------


def _normalized_sum(arity, terms, power):
    total = RatFunc.zero(arity)
    for n, d in terms:
        total = total + RatFunc(n, d**power)
    return total


def test_fraction_sum_matches_the_normalized_sum():
    rng = random.Random(2718)
    nonzero = 0
    for trial in range(60):
        arity, power = rng.randint(1, 3), 1 + trial % 3
        dens = [random_poly(rng, arity, 2, nonzero=True) for _ in range(rng.randint(1, 3))]
        # denominators repeat, so equal ones are grouped
        terms = [(random_poly(rng, arity), rng.choice(dens)) for _ in range(rng.randint(1, 4))]
        total = fraction_sum(arity, terms, power)
        assert total == _normalized_sum(arity, terms, power)
        nonzero += not total.is_zero()
        # minus the same sum, regrouped and rescaled, cancels to zero
        c = rng.choice(dens)
        cancel = terms + [(-(n * c**power), d * c) for n, d in reversed(terms)]
        assert fraction_sum(arity, cancel, power) == RatFunc.zero(arity)
    assert nonzero >= 40
    assert fraction_sum(2, [], 3) == RatFunc.zero(2)
    x, y = parse_poly("x", NAMES), parse_poly("y", NAMES)
    # a non-monic denominator and a common factor: 1/(2x)^2 - 1/(4x*y)^2
    terms = [(MultiPoly.one(2), x.scale(2)), (-MultiPoly.one(2), (x * y).scale(4))]
    assert fraction_sum(2, terms, 2) == R("1/(4*x^2) - 1/(16*x^2*y^2)")
