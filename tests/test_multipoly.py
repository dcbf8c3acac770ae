import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvk.errors import ArityMismatch, DegreeCapExceeded, NotDivisibleError
from lvk.multipoly import (
    MINUS_INFINITY,
    MultiPoly,
    exact_div,
    gcd_multivar,
    monic_grlex,
    try_exact_div,
)

from conftest import random_poly


def P(expr, names=("x", "y")):
    from lvk.parsing import parse_poly

    return parse_poly(expr, list(names))


# -- construction and queries -------------------------------------------------


def test_zero_terms_dropped():
    p = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_arity_mismatch_in_terms():
    with pytest.raises(ArityMismatch):
        MultiPoly(2, {(1, 0, 0): Fraction(1)})


def test_degree_of_zero_below_everything():
    z = MultiPoly.zero(3)
    assert z.total_degree() == MINUS_INFINITY
    assert z.total_degree() < -(10**9)


def test_total_degree_and_degree_in():
    p = P("x^2*y + y^3 + 1")
    assert p.total_degree() == 3
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 3


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("LVK_MAX_DEGREE", "4")
    with pytest.raises(DegreeCapExceeded):
        MultiPoly(1, {(5,): Fraction(1)})
    MultiPoly(1, {(4,): Fraction(1)})  # at the cap is fine


def test_immutability():
    p = MultiPoly.one(2)
    with pytest.raises(AttributeError):
        p.arity = 3


# -- arithmetic ----------------------------------------------------------------


def test_ring_identities():
    p = P("x^2 - y")
    q = P("x + 3*y")
    z = MultiPoly.zero(2)
    assert p + z == p
    assert p - p == z
    assert p * MultiPoly.one(2) == p
    assert p * q == q * p
    assert (p + q) * q == p * q + q * q


def test_pow_matches_repeated_mul():
    p = P("x + y + 1")
    assert p**3 == p * p * p
    assert p**0 == MultiPoly.one(2)


def test_eval_partial():
    p = P("x^2*y + 2*x")
    fixed = p.eval_partial({0: Fraction(3)})
    assert fixed == P("9*y + 6")


def test_render_canonical_graded_order():
    p = P("1 + x + y^2 + x*y")
    assert p.render(["x", "y"]) == "x*y + y^2 + x + 1"
    assert P("-x + 2").render(["x", "y"]) == "-x + 2"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derivative_leibniz(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    p = random_poly(rng, arity)
    q = random_poly(rng, arity)
    for v in range(arity):
        lhs = (p * q).derivative(v)
        rhs = p.derivative(v) * q + p * q.derivative(v)
        assert lhs == rhs


def test_derivative_kills_constants():
    assert MultiPoly.constant(2, Fraction(7, 3)).derivative(1).is_zero()


# -- division and gcd ----------------------------------------------------------


def test_exact_div_basic():
    p = P("x^2 - y^2")
    q = P("x - y")
    assert exact_div(p, q) == P("x + y")
    assert try_exact_div(P("x^2 + 1"), P("x + 1")) is None
    with pytest.raises(NotDivisibleError):
        exact_div(P("x^2 + 1"), P("x + 1"))


def test_gcd_known_values():
    a = P("x^2 - y^2") * P("x + 2*y")
    b = P("x^2 + 3*x*y + 2*y^2")  # (x+y)(x+2y)
    g = gcd_multivar(a, b)
    assert g == monic_grlex(P("x^2 + 3*x*y + 2*y^2"))


def test_gcd_coprime_is_one():
    assert gcd_multivar(P("x"), P("y")) == MultiPoly.one(2)


def test_gcd_with_contents():
    a = P("2*x*y + 2*y^2")  # 2y(x+y)
    b = P("3*x^2 + 3*x*y")  # 3x(x+y)
    assert gcd_multivar(a, b) == P("x + y")


def test_gcd_times_exact_div_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        arity = rng.randint(1, 3)
        g = random_poly(rng, arity, max_deg=2, nonzero=True)
        a = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        b = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        d = gcd_multivar(a, b)
        # the computed gcd divides both inputs and is divisible by g
        assert try_exact_div(a, d) is not None
        assert try_exact_div(b, d) is not None
        assert try_exact_div(d, g) is not None
        assert exact_div(a, d) * d == a


def test_gcd_matches_sympy_up_to_a_constant():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x y z")

    def to_sympy(p: MultiPoly):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
                for e, c in p.terms.items()
            ),
            sympy.Integer(0),
        )

    rng = random.Random(4242)
    for _ in range(40):
        arity = rng.randint(1, 3)
        g = random_poly(rng, arity, max_deg=2, nonzero=True)
        a = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        b = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        ours = to_sympy(gcd_multivar(a, b))
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0, (a, b, ours, theirs)


# -- the degree cap on results that can grow ------------------------------------


def test_degree_cap_on_products(monkeypatch):
    p = P("x^2 + y")
    q = P("x*y^2 + 1")
    monkeypatch.setenv("LVK_MAX_DEGREE", "4")
    with pytest.raises(DegreeCapExceeded):
        p * q  # total degree 5
    with pytest.raises(DegreeCapExceeded):
        p**3
    assert (p * p).total_degree() == 4  # at the cap is fine


def test_degree_cap_on_reassembly(monkeypatch):
    from lvk.multipoly import _coeffs_in_var, _from_coeffs_in_var

    p = P("x^3*y + x*y^2 + 1")
    parts = _coeffs_in_var(p, 0)
    assert _from_coeffs_in_var(parts, 0, 2) == p
    shifted = {d + 1: c for d, c in parts.items()}  # x * p, total degree 5
    monkeypatch.setenv("LVK_MAX_DEGREE", "4")
    with pytest.raises(DegreeCapExceeded):
        _from_coeffs_in_var(shifted, 0, 2)
    assert _from_coeffs_in_var(parts, 0, 2) == p
