import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvk import multipoly
from lvk.errors import ArityMismatch, DegreeCapExceeded, NotDivisibleError, ZeroDivisionInField
from lvk.multipoly import (
    MINUS_INFINITY,
    MultiPoly,
    exact_div,
    gcd_cofactors,
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


def test_raw_results_are_immutable_and_hash_like_constructed_ones():
    p, q = P("x^2 - 3*x*y + 1"), P("x*y + y/2")
    for r in (p + q, p * q):
        for name in ("arity", "terms", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        same = MultiPoly(r.arity, dict(r.terms))
        assert r == same and hash(r) == hash(same)


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


def test_exact_div_by_a_constant_is_a_scale():
    a = P("x^2/3 - 2*x*y + 5")
    for c in (Fraction(2), Fraction(-3, 7), Fraction(1, 4)):
        q = try_exact_div(a, MultiPoly.constant(2, c))
        assert q == a.scale(1 / c)
        assert q * MultiPoly.constant(2, c) == a
    assert try_exact_div(a, MultiPoly.one(2)) is a
    assert exact_div(MultiPoly.zero(2), MultiPoly.constant(2, 5)) == MultiPoly.zero(2)
    with pytest.raises(ZeroDivisionInField):
        try_exact_div(a, MultiPoly.zero(2))


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


def to_sympy(sympy, p: MultiPoly):
    symbols = sympy.symbols(f"x1:{p.arity + 1}")
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def test_gcd_matches_sympy_up_to_a_constant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    for _ in range(40):
        arity = rng.randint(1, 3)
        g = random_poly(rng, arity, max_deg=2, nonzero=True)
        a = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        b = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        ours = to_sympy(sympy, gcd_multivar(a, b))
        theirs = sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.is_number and ratio != 0, (a, b, ours, theirs)


# -- the monomial and divisor shortcuts of gcd_multivar -------------------------


def checked_gcd(sympy, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd_multivar(a, b), after checking it against both inputs and sympy."""
    g = gcd_multivar(a, b)
    assert try_exact_div(a, g) is not None and try_exact_div(b, g) is not None, (a, b, g)
    assert g.leading_coefficient() == 1, g
    theirs = sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b))
    ratio = sympy.cancel(to_sympy(sympy, g) / theirs)
    assert ratio.is_number and ratio != 0, (a, b, g, theirs)
    return g


def random_monomial(rng, arity) -> MultiPoly:
    e = tuple(rng.randint(0, 3) for _ in range(arity))
    return MultiPoly(arity, {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))})


@pytest.fixture
def prs_calls(monkeypatch):
    """Count the subresultant PRS runs gcd_multivar makes."""
    calls = []
    prs = multipoly._subresultant_prs

    def counted(a, b):
        chain, sign = prs(a, b)
        calls.append((chain[0].degree(), chain[1].degree()))
        return chain, sign

    monkeypatch.setattr(multipoly, "_subresultant_prs", counted)
    return calls


def on_both_routes(monkeypatch, prs_calls, check):
    """Run check() as is, then again with the heuristic gcd giving up.

    The heuristic answers the first run with no PRS; in the second the PRS
    runs and check() returns the same (g, a/g, b/g) triples.
    """
    first = check()
    assert prs_calls == []
    monkeypatch.setattr(multipoly, "_heuristic_gcd", lambda a, b: None)
    assert check() == first
    assert prs_calls


def test_gcd_single_term_arguments(prs_calls):
    sympy = pytest.importorskip("sympy")
    assert checked_gcd(sympy, P("6*x^2*y"), P("4*x*y^3")) == P("x*y")
    assert checked_gcd(sympy, P("x^2*y"), P("x^3*y + x*y^2")) == P("x*y")
    assert checked_gcd(sympy, P("-2*x^3"), P("x^2 + y")) == MultiPoly.one(2)
    rng = random.Random(5150)
    for _ in range(60):
        arity = rng.randint(1, 3)
        m = random_monomial(rng, arity)
        other = [
            random_monomial(rng, arity),
            random_poly(rng, arity, max_deg=3, nonzero=True),
            random_poly(rng, arity, max_deg=2, nonzero=True) * random_monomial(rng, arity),
        ][rng.randrange(3)]
        g = checked_gcd(sympy, m, other)
        assert len(g.terms) == 1
        assert checked_gcd(sympy, other, m) == g
    assert prs_calls == []


def test_gcd_divisor_arguments(prs_calls):
    sympy = pytest.importorskip("sympy")
    # the divisor has more terms than the multiple: only total degree can pick it
    assert checked_gcd(sympy, P("x^3 + 1"), P("x^2 - x + 1")) == P("x^2 - x + 1")
    assert checked_gcd(sympy, P("x^2 - x + 1"), P("x^3 + 1")) == P("x^2 - x + 1")
    assert checked_gcd(sympy, P("x + 1"), P("x^3 + 1")) == P("x + 1")
    rng = random.Random(6161)
    for _ in range(60):
        arity = rng.randint(1, 3)
        d = random_poly(rng, arity, max_deg=2, nonzero=True)
        q = random_poly(rng, arity, max_deg=2, nonzero=True)
        for a, b in ((d, d * q), (d * q, d)):
            assert checked_gcd(sympy, a, b) == monic_grlex(d)
        # associates c*d and d
        c = Fraction(rng.choice([-5, -2, 3, 7]), rng.randint(1, 4))
        assert checked_gcd(sympy, d.scale(c), d) == monic_grlex(d)
        assert checked_gcd(sympy, d, d.scale(c)) == monic_grlex(d)
    assert prs_calls == []


def test_gcd_when_the_trial_division_fails_late(prs_calls, monkeypatch):
    sympy = pytest.importorskip("sympy")
    # lm(s) divides lm(t) and no degree of s exceeds t's, yet s does not divide t
    cases = [
        (P("(x + y)*(x - 1)"), P("(x + y)*(x^2 + 2)"), P("x + y")),
        (P("x^2 + y"), P("x^3 + x^2*y + 2"), MultiPoly.one(2)),
        (P("(x*y + 1)*(x + y)"), P("(x*y + 1)*(x^2*y + x - 3)"), P("x*y + 1")),
    ]

    def check():
        for s, t, expected in cases:
            assert s.total_degree() < t.total_degree()
            assert all(s.degree_in(v) <= t.degree_in(v) for v in range(2))
            assert all(i <= j for i, j in zip(s.leading_monomial(), t.leading_monomial()))
            assert try_exact_div(t, s) is None
            assert checked_gcd(sympy, s, t) == expected
            assert checked_gcd(sympy, t, s) == expected
        return [gcd_cofactors(x, y) for s, t, _ in cases for x, y in ((s, t), (t, s))]

    on_both_routes(monkeypatch, prs_calls, check)


def test_gcd_proper_common_factor_reaches_the_prs(prs_calls, monkeypatch):
    sympy = pytest.importorskip("sympy")
    # neither argument is a monomial and neither divides the other
    a = P("(x + y)*(x - 1)")
    b = P("(x + y)*(x + 2*y)")

    def check():
        assert checked_gcd(sympy, a, b) == P("x + y")
        return [gcd_cofactors(a, b)]

    on_both_routes(monkeypatch, prs_calls, check)


def test_gcd_with_a_degree_one_argument_that_does_not_divide(prs_calls):
    sympy = pytest.importorskip("sympy")
    # a degree-1 polynomial is irreducible: a failed trial division means gcd 1
    rng = random.Random(8383)
    big = MultiPoly.zero(5)
    while len(big.terms) < 38:
        big = big + random_poly(rng, 5, max_deg=8, max_terms=1, nonzero=True)
    assert big.total_degree() == 8
    linear = P("x3 + 8*x4", ["x1", "x2", "x3", "x4", "x5"])
    assert try_exact_div(big, linear) is None
    assert checked_gcd(sympy, big, linear) == MultiPoly.one(5)
    assert checked_gcd(sympy, linear, big) == MultiPoly.one(5)
    for _ in range(60):
        arity = rng.randint(1, 4)
        s = random_poly(rng, arity, max_deg=1, nonzero=True)
        if s.total_degree() < 1 or len(s.terms) < 2:
            continue
        t = random_poly(rng, arity, max_deg=3, nonzero=True) * s + random_poly(
            rng, arity, max_deg=2, nonzero=True
        )
        g = checked_gcd(sympy, s, t)
        assert g == MultiPoly.one(arity) or g == monic_grlex(s)
        # s free of a variable of t, and t free of a variable of s
        u = random_poly(rng, arity + 1, max_deg=3, nonzero=True)
        s1 = s.extend_arity(arity + 1)
        assert checked_gcd(sympy, u, s1) == checked_gcd(sympy, s1, u)
        x = MultiPoly.variable(arity + 1, arity)
        assert checked_gcd(sympy, s1 + x, t.extend_arity(arity + 1)) == MultiPoly.one(arity + 1)
    assert prs_calls == []


# -- gcd_cofactors --------------------------------------------------------------


def check_cofactors(a: MultiPoly, b: MultiPoly, result) -> None:
    """result = (g, a/g, b/g) with g = gcd_multivar(a, b) and coprime cofactors."""
    g, ca, cb = result
    assert g == gcd_multivar(a, b), (a, b, g)
    assert g * ca == a and g * cb == b, (a, b, result)
    assert gcd_multivar(ca, cb).is_constant(), (a, b, result)


def test_gcd_cofactors_on_seeded_pairs():
    rng = random.Random(7070)
    for _ in range(150):
        arity = rng.randint(1, 3)
        g = random_poly(rng, arity, max_deg=2, nonzero=True)
        a = random_poly(rng, arity, max_deg=2) * g
        b = random_poly(rng, arity, max_deg=2, nonzero=True) * g
        if rng.random() < 0.3:
            a = b * random_poly(rng, arity, max_deg=1, nonzero=True)
        for x, y in ((a, b), (b, a)):
            check_cofactors(x, y, gcd_cofactors(x, y))


def test_gcd_cofactors_shortcuts_run_no_prs(prs_calls):
    cases = [
        ("constant", P("3"), P("x^2 + y")),
        ("constant", P("x*y + 1"), P("-2/3")),
        ("zero", P("0"), P("2*x + 4*y")),
        ("zero", P("2*x*y - 1"), P("0")),
        ("equal", P("2*x^2 - y"), P("2*x^2 - y")),
        ("monomial", P("6*x^2*y"), P("4*x*y^3 + 2*x^3*y")),
        ("monomial", P("x^3*y - x*y^2"), P("-5*x^2*y^3")),
        ("divisor", P("3*x^2 - 3*y^2"), P("(x^2 - y^2)*(x*y + 3)")),
        ("divisor", P("(x^2 - y^2)*(x*y + 3)"), P("3*x^2 - 3*y^2")),
        ("degree 1", P("x + 2*y"), P("x^2 + y^3")),
        ("degree 1", P("x^3*y + 1"), P("y - 3")),
    ]
    results = [gcd_cofactors(a, b) for _, a, b in cases]
    assert prs_calls == []
    for (kind, a, b), result in zip(cases, results):
        check_cofactors(a, b, result)
    g, ca, cb = results[4]
    assert ca == cb == MultiPoly.constant(2, 2)
    g, ca, cb = results[8]
    assert g == P("x^2 - y^2") and cb == MultiPoly.constant(2, 3)
    assert results[9] == (MultiPoly.one(2), cases[9][1], cases[9][2])


def test_gcd_cofactors_through_the_prs(prs_calls, monkeypatch):
    # a common factor that neither argument equals: the heuristic rung, and
    # the content and PRS branches once it gives up
    cases = [
        (P("(x + y)*(x - 1)"), P("(x + y)*(x + 2*y)")),
        (P("(y + 1)*(y - 2)"), P("(y + 1)*(x^2 + y)")),
    ]

    def check():
        results = [gcd_cofactors(a, b) for a, b in cases]
        for (a, b), result in zip(cases, results):
            check_cofactors(a, b, result)
        return results

    on_both_routes(monkeypatch, prs_calls, check)


# -- the heuristic gcd (GCDHEU) ---------------------------------------------------


def big_poly(rng, arity, max_deg, max_terms=3) -> MultiPoly:
    """A nonzero polynomial with integer or rational coefficients up to about 2^64."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * arity
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(arity)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-(2**64), 2**64), rng.choice([1, 1, 3, 2**20]))
    p = MultiPoly(arity, terms)
    return p if not p.is_zero() else MultiPoly.one(arity)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_heuristic_gcd_matches_sympy_and_the_prs_on_seeded_pairs(arity, prs_calls, monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2400 + arity)
    pairs = []
    for _ in range(12):
        g = big_poly(rng, arity, max_deg=2)
        pairs.append((big_poly(rng, arity, max_deg=2) * g, big_poly(rng, arity, max_deg=2) * g))

    def check():
        results = [gcd_cofactors(a, b) for a, b in pairs]
        for (a, b), (g, ca, cb) in zip(pairs, results):
            # the exact cofactor identity, and sympy's gcd up to a constant
            assert g * ca == a and g * cb == b
            assert g.leading_coefficient() == 1
            theirs = sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b))
            ratio = sympy.cancel(to_sympy(sympy, g) / theirs)
            assert ratio.is_number and ratio != 0, (a, b, g, theirs)
        return results

    on_both_routes(monkeypatch, prs_calls, check)


def test_heuristic_gcd_takes_a_second_point_when_an_image_vanishes(prs_calls, monkeypatch):
    # min(|a|, |b|) = 1 puts the first point at 2*1 + 29 = 31, a root of a in x
    a, b = P("(x - 31)*(x + y)"), P("(x + y)*(x + 1)")
    assert a.eval_partial({0: 31}).is_zero()
    points = []
    evaluate = MultiPoly.eval_partial

    def recording(p, assignments):
        points.extend(xi for var, xi in assignments.items() if var == 0)
        return evaluate(p, assignments)

    monkeypatch.setattr(MultiPoly, "eval_partial", recording)
    g, ca, cb = gcd_cofactors(a, b)
    assert (g, ca, cb) == (P("x + y"), P("x - 31"), P("x + 1"))
    # a and b at 31, then at the next point 73794 * 31 * floor(31^(1/4)) // 27011
    assert points == [31, 31, 169, 169]
    assert prs_calls == []


def test_heuristic_gcd_gives_up_over_the_image_limit(prs_calls, monkeypatch):
    # |a| = 2^k puts x at about 2^(k+1): a degree-3 image has about 4k bits
    x, one = MultiPoly.variable(1, 0), MultiPoly.one(1)

    def pair(k):
        m = MultiPoly.constant(1, 2**k)
        return (x + one) * (x * x + m), (x + one) * (x * x + m + one)

    limit = multipoly.HEURISTIC_IMAGE_BITS
    below, over = pair(limit // 5), pair(limit // 3)
    assert multipoly._heuristic_gcd(*below) is not None
    assert multipoly._heuristic_gcd(*over) is None
    answers = [gcd_cofactors(*below)]
    assert prs_calls == []
    answers.append(gcd_cofactors(*over))
    assert prs_calls
    for (a, b), result in zip((below, over), answers):
        assert result[0] == x + one
        check_cofactors(a, b, result)


# -- the subresultant chain -------------------------------------------------------


def _sylvester_subresultant(sympy, a, b, da, db, j):
    """The j-th subresultant of a, b (formal degrees da, db in x1) by its determinant."""
    x = sympy.Symbol("x1")
    rows = [sympy.Poly(a * x**i, x) for i in range(db - j)]
    rows += [sympy.Poly(b * x**i, x) for i in range(da - j)]
    size = da + db - 2 * j
    powers = [da + db - j - 1 - col for col in range(size - 1)]

    def minor(k):
        return sympy.Matrix([[row.coeff_monomial(x**e) for e in [*powers, k]] for row in rows])

    return sum(minor(k).det() * x**k for k in range(j + 1))


def test_subresultant_chain_holds_the_regular_subresultants():
    # B = u^2*x^3 + u*x^2 + b1*x + b0, u = x2 + x3, with b1 chosen so that
    # prem(A, B) has degree 1: a defective step whose leading coefficient is
    # not a multiple of lc(B), followed by further nonzero elements
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    names = ["x", "y", "t"]
    x, y, t = (MultiPoly.variable(3, i) for i in range(3))
    u, one = t + y, MultiPoly.one(3)

    def linear():
        return P(f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*y + {rng.randint(-3, 3)}*t", names)

    for _ in range(2):
        a3, a2, a1, a0, b0 = (linear() for _ in range(5))
        big_a = x**4 + a3 * x**3 + a2 * x**2 + a1 * x + a0
        big_b = u * u * x**3 + u * x**2 + (u * u * a2 - u * a3 + one) * x + b0
        f = x + t + one
        pairs = [(big_a, big_b, [1, 0]), (f * big_a, f * big_b, [2, 1])]
        pairs.append((x * x * big_a + big_b, big_a, [3, 1, 0]))
        for a, b, degrees in pairs:
            ua, ub = multipoly._UniView.of(a, 0), multipoly._UniView.of(b, 0)
            chain, _ = multipoly._subresultant_prs(ua, ub)
            assert [s.degree() for s in chain[2:]] == degrees
            degrees_ab = (ua.degree(), ub.degree())
            # subresultants commute with evaluation of the coefficients' variables
            for point in ({1: 2, 2: 5}, {1: -3, 2: 7}):
                sa, sb = (to_sympy(sympy, p.eval_partial(point)) for p in (a, b))
                for s in chain[2:]:
                    got = to_sympy(sympy, s.to_poly().eval_partial(point))
                    want = _sylvester_subresultant(sympy, sa, sb, *degrees_ab, s.degree())
                    assert sympy.expand(got - want) == 0 or sympy.expand(got + want) == 0


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


def test_degree_cap_on_constant_powers(monkeypatch):
    """Only a constant whose digits grow with the power is capped: not 0, not +-1."""
    from lvk.parsing import parse_darboux

    monkeypatch.setenv("LVK_MAX_DEGREE", "4")
    with pytest.raises(DegreeCapExceeded):
        P("1/2") ** 5
    with pytest.raises(DegreeCapExceeded):
        parse_darboux("(2*exp(x))^(-5)", ["x"])
    assert P("2") ** 4 == P("16")  # at the cap is fine
    assert P("-1") ** 99999999999 == P("-1")
    assert P("0") ** 99999999999 == P("0")
    assert parse_darboux("exp(x)^99999999999", ["x"]).exp_arg.num == P("99999999999*x", ["x"])


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
