import random
from fractions import Fraction

import pytest

from lvk.linalg import determinant
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_poly, parse_ratfunc
from lvk.ratfunc import RatFunc
import lvk.residues
from lvk.residues import rothstein_trager
from lvk.unipoly import (
    UniPoly,
    extended_gcd_uni,
    gcd_uni,
    hermite_reduce,
    ratfunc_as_unipair,
    resultant,
    squarefree_yun,
)

from conftest import random_poly, random_ratfunc

F = Fraction


def U(expr, names=("x", "y"), main_var=0):
    return UniPoly.of_poly(parse_poly(expr, list(names)), main_var)


def test_coefficients_must_avoid_main_var():
    with pytest.raises(Exception):
        UniPoly(0, 2, [parse_ratfunc("x", ["x", "y"])])


def test_divmod_inverts_multiplication():
    rng = random.Random(2718)
    pairs = [
        (U("x^3 + y*x + 1"), U("x + y")),
        (U("x^4 + 1"), U("y*x^2 + 1")),  # non-constant lc, zero quotient terms
        (U("x + y"), U("x^2 - y")),  # dividend of lower degree
    ]
    pairs += [
        (random_unipoly(rng, rng.randint(0, 5)), random_unipoly(rng, rng.randint(0, 3)))
        for _ in range(30)
    ]
    for a, b in pairs:
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    def q_poly(degree):
        p = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]
        return p[:-1] + [p[-1] or F(1)]

    # Fraction coefficients: 1 + x^4 by 1 + 3x^2, a lower-degree dividend, random pairs
    # whose divisor carries a zero top coefficient for the constructor to trim
    q_pairs = [
        ([F(1), F(0), F(0), F(0), F(1)], [F(1), F(0), F(3)]),
        ([F(2), F(1)], [F(1), F(0), F(1)]),
    ]
    q_pairs += [(q_poly(rng.randint(0, 6)), q_poly(rng.randint(0, 3)) + [F(0)]) for _ in range(30)]
    for a, b in q_pairs:
        a, b = UniPoly(0, 1, a), UniPoly(0, 1, b)
        assert a.over_q and b.over_q and b.coeffs[-1] != 0
        q, r = a.divmod(b)
        assert q.over_q and r.over_q
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_gcd_uni_monic():
    a = U("x^2 - 1") * U("x + 2")
    b = U("x^2 + 3*x + 2")  # (x+1)(x+2)
    g = gcd_uni(a, b)
    assert g == U("x^2 + 3*x + 2")
    assert g.lc() == g.one()


def test_extended_gcd_bezout():
    a = U("x^2 + y")
    b = U("x + 1")
    g, s, t = extended_gcd_uni(a, b)
    assert s * a + t * b == g
    assert g.lc() == g.one()


def _multiply_back(d, like):
    """unit * prod f^m over the parts of a squarefree decomposition."""
    acc = UniPoly(like.main_var, like.arity, [d.unit])
    for f, m in d.parts:
        for _ in range(m):
            acc = acc * f
    return acc


def test_squarefree_yun():
    p = U("x + 1") * U("x + 1") * U("x - y")
    d = squarefree_yun(p)
    assert _multiply_back(d, p) == p
    mults = sorted(m for _, m in d.parts)
    assert mults == [1, 2]
    for f, _ in d.parts:
        assert gcd_uni(f, f.derivative()).degree() == 0


def test_squarefree_yun_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(f: RatFunc):
        num, den = (
            sum(
                (
                    sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
                    for e, c in p.terms.items()
                ),
                sympy.Integer(0),
            )
            for p in (f.num, f.den)
        )
        return num / den

    rng = random.Random(3141)
    for _ in range(20):
        # p = prod f_i^i in x, each f_i polynomial in x and y or absent
        p = U("1")
        for i in range(1, 4):
            if rng.random() < 0.25:
                continue
            f = random_poly(rng, 2, max_deg=2, max_terms=3, nonzero=True)
            if f.involves(0):
                for _ in range(i):
                    p = p * UniPoly.of_poly(f, 0)
        if p.degree() < 1:
            continue
        d = squarefree_yun(p)
        assert _multiply_back(d, p) == p
        for k, (f, _) in enumerate(d.parts):
            assert f.degree() > 0 and f.lc() == f.one()
            assert gcd_uni(f, f.derivative()).degree() == 0
            for g, _ in d.parts[k + 1 :]:
                assert gcd_uni(f, g).degree() == 0
        _, theirs = sympy.sqf_list(to_sympy(p.to_ratfunc()), x)
        theirs = {m: q for q, m in theirs if sympy.degree(q, x) > 0}
        assert sorted(theirs) == sorted(m for _, m in d.parts)
        for f, m in d.parts:
            # the same factor up to a unit of Q(y)
            unit = sympy.cancel(to_sympy(f.to_ratfunc()) / theirs[m])
            assert not unit.has(x), (p, m, f, theirs[m])


def UR(expr, names=("x", "y")):
    """UniPoly in x of a rational function whose denominator is free of x."""
    f = parse_ratfunc(expr, list(names))
    return UniPoly.of_poly(f.num, 0).scale(RatFunc(f.den).inverse())


def sylvester_resultant(p: UniPoly, q: UniPoly) -> RatFunc:
    """Reference: the Sylvester determinant, deg(q) rows of p's coefficients on top."""
    dp, dq = p.degree(), q.degree()
    n = dp + dq
    if n == 0:
        return RatFunc.one(p.arity)
    zero = RatFunc.zero(p.arity)
    pc = [p.coeff(dp - i) for i in range(dp + 1)]
    qc = [q.coeff(dq - i) for i in range(dq + 1)]
    rows = [[zero] * i + pc + [zero] * (n - dp - 1 - i) for i in range(dq)]
    rows += [[zero] * i + qc + [zero] * (n - dq - 1 - i) for i in range(dp)]
    return determinant(rows)


def random_unipoly(rng, degree):
    """A UniPoly in x whose coefficients are random rational functions of y."""

    def in_y(p):
        return MultiPoly(2, {(0,) + e: c for e, c in p.terms.items()})

    coeffs = []
    for _ in range(degree + 1):
        f = random_ratfunc(rng, 1)
        coeffs.append(RatFunc(in_y(f.num), in_y(f.den)))
    if coeffs[-1].is_zero():
        coeffs[-1] = RatFunc.one(2)
    return UniPoly(0, 2, coeffs)


def test_resultant_sign_convention():
    names = ["x"]
    x2 = UniPoly.of_poly(parse_poly("x^2 - 2", names), 0)
    lin = UniPoly.of_poly(parse_poly("x - 3", names), 0)
    # res(p, q) with p's coefficients in the top rows: res(x^2-2, x-3) = 7
    assert resultant(x2, lin) == RatFunc.constant(1, 7)
    a = UniPoly.of_poly(parse_poly("x - 1", names), 0)
    b = UniPoly.of_poly(parse_poly("x - 4", names), 0)
    # res(x - a, x - b) = a - b under the frozen convention
    assert resultant(a, b) == RatFunc.constant(1, -3)


def test_resultant_detects_common_root():
    common = U("x - y")
    assert resultant(common * U("x + 1"), common * U("x + 2")).is_zero()
    # and with coefficient denominators cleared first
    p, q = UR("(x - y)*(x + 1)/(y + 3)"), UR("(x - y)*(x^2 + 2*y)")
    assert resultant(p, q).is_zero()
    assert sylvester_resultant(p, q).is_zero()


def test_resultant_matches_sylvester_on_random_pairs():
    rng = random.Random(1311)
    for _ in range(40):
        p = random_unipoly(rng, rng.randint(0, 3))
        q = random_unipoly(rng, rng.randint(0, 3))
        assert resultant(p, q) == sylvester_resultant(p, q)


@pytest.mark.parametrize(
    "p, q",
    [
        ("x^2/3 + y*x - 1/2", "(y + 1)/(y - 2)"),  # degree-0 operand, denominators
        ("y/(y^2 + 1)", "x^3 - y*x + 2"),  # degree-0 operand first
        ("2", "3"),  # both of degree 0
        ("x - y", "x^3 + 2*x/y - 5"),  # odd x odd, deg p < deg q: sign flips
        ("x^3/y + x - 1", "x^5 - y"),  # odd x odd, both above 1
    ],
)
def test_resultant_edge_cases_match_sylvester(p, q):
    assert resultant(UR(p), UR(q)) == sylvester_resultant(UR(p), UR(q))


def test_resultant_in_rothstein_trager_shape():
    # Res_x(D, N - t*D') with t appended as an extra variable: the R(t) whose
    # chain rothstein_trager builds
    names = ["x", "y"]
    den = U("x^3 + y*x + 1").monic()
    num = U("x^2 - y").scale(parse_ratfunc("1/(y + 2)", names))
    ext = 3
    t = RatFunc(MultiPoly.variable(ext, 2))

    def lift(u):
        return UniPoly(0, ext, [c.extend_arity(ext) for c in u.coeffs])

    q = lift(num) - lift(den.derivative()).scale(t)
    res = resultant(lift(den), q)
    assert res == sylvester_resultant(lift(den), q)
    assert res.num.degree_in(2) == 3


def test_resultant_matches_sympy_on_integer_pairs():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p: MultiPoly, symbols):
        return sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in p.terms.items()
        )

    rng = random.Random(7255)
    x, y = sympy.symbols("x y")
    for _ in range(30):
        a, b = (
            MultiPoly(2, {e: F(c.numerator) for e, c in random_poly(rng, 2, 4, 5, True).terms.items()})
            for _ in range(2)
        )
        if not (a.involves(0) or b.involves(0)):
            continue
        if a.degree_in(0) < b.degree_in(0):
            # sympy's sign is off in this order: resultant(x - 1, x**3, x) is -1,
            # the determinant is 1; that order is checked against the determinant
            a, b = b, a
        ours = resultant(UniPoly.of_poly(a, 0), UniPoly.of_poly(b, 0))
        theirs = sympy.resultant(to_sympy(a, (x, y)), to_sympy(b, (x, y)), x)
        assert sympy.expand(to_sympy(ours.as_poly(), (x, y)) - theirs) == 0


def test_hermite_worked_example():
    # (x^2 + 1)/x^3 = d/dx(-1/(2 x^2)) + 1/x
    names = ["x"]
    num = UniPoly.of_poly(parse_poly("x^2 + 1", names), 0)
    den = UniPoly.of_poly(parse_poly("x^3", names), 0)
    rat, rnum, rden = hermite_reduce(num, den)
    assert rat == parse_ratfunc("-1/(2*x^2)", names)
    assert rnum.to_ratfunc() / rden.to_ratfunc() == parse_ratfunc("1/x", names)
    sf = squarefree_yun(rden)
    assert all(m == 1 for _, m in sf.parts)


def test_hermite_roundtrip_random():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        arity = 2
        # one factor up to degree 2, or up to three linear ones, each to a power 1..3
        count = rng.randint(1, 3)
        den_poly = MultiPoly.one(arity)
        for _ in range(count):
            factor = random_poly(rng, arity, max_deg=2 if count == 1 else 1, nonzero=True)
            den_poly = den_poly * factor ** rng.randint(1, 3)
        if not den_poly.involves(0):
            continue
        num_poly = random_poly(rng, arity, max_deg=2)
        num = UniPoly.of_poly(num_poly, 0)
        den = UniPoly.of_poly(den_poly, 0)
        if num.is_zero() or num.degree() >= den.degree():
            continue
        g = gcd_uni(num, den)
        if g.degree() > 0:
            continue
        rat, rnum, rden = hermite_reduce(num, den)
        # d/dx(rat) + rnum/rden == num/den exactly
        back = rat.derivative(0) + rnum.to_ratfunc() / rden.to_ratfunc()
        want = RatFunc(num_poly, den_poly)
        assert back == want
        assert gcd_uni(rden, rden.derivative()).degree() == 0
        assert gcd_uni(rnum, rden).degree() == 0
        assert rnum.degree() < rden.degree()
        checked += 1


def test_ratfunc_as_unipair():
    f = parse_ratfunc("(x + y)/(x*y)", ["x", "y"])
    num, den = ratfunc_as_unipair(f, 0)
    assert num.to_ratfunc() / den.to_ratfunc() == f


def test_of_poly_picks_q_exactly_when_only_the_main_variable_occurs():
    assert U("x^2 - 3*x + 1/2").over_q
    assert U("0").over_q and U("7").over_q
    assert not U("x^2 + y").over_q
    assert not U("y").over_q
    num, den = ratfunc_as_unipair(parse_ratfunc("1/(x + y)", ["x", "y"]), 0)
    assert not num.over_q and not den.over_q  # one field for the pair
    num, den = ratfunc_as_unipair(parse_ratfunc("(x + 1)/(x^2 - 2)", ["x", "y"]), 0)
    assert num.over_q and den.over_q
    # arithmetic that meets both fields lifts into K and keeps the value
    mixed = U("x + 1") * U("x - y")
    assert not mixed.over_q and mixed == U("x^2 + x - y*x - y")
    assert U("x + 1").lift() == U("x + 1")


def horner(p: UniPoly) -> RatFunc:
    """Reference: Horner's rule over RatFunc, each step normalized."""
    x = RatFunc(MultiPoly.variable(p.arity, p.main_var))
    acc = RatFunc.zero(p.arity)
    for c in reversed(p.coeffs):
        acc = acc * x + (c if isinstance(c, RatFunc) else RatFunc.constant(p.arity, c))
    return acc


def test_to_ratfunc_matches_horner():
    rng = random.Random(4242)
    polys = [random_unipoly(rng, rng.randint(0, 4)) for _ in range(25)]
    # denominators from a few shared factors in y and z, to powers 1..3, so the
    # lcm is no plain product and numerators may share factors with it
    names = ["x", "y", "z"]
    pool = [parse_poly(e, names) for e in ("y", "y + 1", "y*z - 2", "z^2 + y")]
    for _ in range(25):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            den = MultiPoly.one(3)
            for f in rng.sample(pool, rng.randint(0, 3)):
                den = den * f ** rng.randint(1, 3)
            in_yz = random_poly(rng, 2, max_deg=3).terms.items()
            num = MultiPoly(3, {(0,) + e: c for e, c in in_yz})
            coeffs.append(RatFunc(num * rng.choice(pool + [MultiPoly.one(3)]), den))
        polys.append(UniPoly(0, 3, coeffs))
    # over Q, in a main variable that is not the first
    for _ in range(10):
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        polys.append(UniPoly(1, 2, coeffs))
    for p in polys:
        # both sides are normalized, so a result not in lowest terms would differ
        assert p.to_ratfunc() == horner(p), p


# -- one implementation over Q and over K ----------------------------------------------

QK_PLACES = [(1, 0), (2, 1)]  # (arity, main variable)


def _q_poly(rng, degree):
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or F(1)
    return coeffs


def _qk(coeffs, arity, main_var):
    """One polynomial twice: Fraction coefficients, and the same as constant RatFuncs."""
    q = UniPoly(main_var, arity, coeffs)
    k = UniPoly(main_var, arity, [RatFunc.constant(arity, c) for c in coeffs])
    assert q.over_q and not k.over_q
    return q, k


def _same(q: UniPoly, k: UniPoly):
    """q over Q and k over K with constant coefficients of the same values."""
    assert q.over_q and not k.over_q
    assert all(c.is_constant() for c in k.coeffs)
    assert q.coeffs == [c.constant_value() for c in k.coeffs]


def _product(factors, arity, main_var):
    p = UniPoly(main_var, arity, [F(1)])
    for f, m in factors:
        for _ in range(m):
            p = p * UniPoly(main_var, arity, f)
    return p.coeffs


@pytest.mark.parametrize("arity, main_var", QK_PLACES)
def test_gcds_and_yun_agree_over_q_and_k(arity, main_var):
    rng = random.Random(50 + arity)
    for _ in range(15):
        common = _q_poly(rng, rng.randint(1, 2))
        a = _product([(common, 1), (_q_poly(rng, rng.randint(0, 3)), 1)], arity, main_var)
        b = _product([(common, 1), (_q_poly(rng, rng.randint(0, 3)), 1)], arity, main_var)
        (qa, ka), (qb, kb) = _qk(a, arity, main_var), _qk(b, arity, main_var)
        _same(gcd_uni(qa, qb), gcd_uni(ka, kb))
        for q, k in zip(extended_gcd_uni(qa, qb), extended_gcd_uni(ka, kb)):
            _same(q, k)
        # repeated factors: f1 * f2^2 * f3^3 with some absent, degree 1..5
        parts = [(_q_poly(rng, 1), m) for m in (1, 2, 3) if rng.random() < 0.6]
        p = _product(parts or [(_q_poly(rng, 2), 2)], arity, main_var)
        dq, dk = (squarefree_yun(u) for u in _qk(p, arity, main_var))
        assert dk.unit == RatFunc.constant(arity, dq.unit)
        assert [m for _, m in dq.parts] == [m for _, m in dk.parts]
        for (fq, _), (fk, _) in zip(dq.parts, dk.parts):
            _same(fq, fk)


@pytest.mark.parametrize("arity, main_var", QK_PLACES)
def test_hermite_agrees_over_q_and_k(arity, main_var):
    rng = random.Random(70 + arity)
    checked = 0
    while checked < 15:
        factors = [(_q_poly(rng, 1), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        den = _product(factors, arity, main_var)
        if not 1 <= len(den) - 1 <= 5:
            continue
        num = _q_poly(rng, rng.randint(0, len(den) - 2))
        (qn, kn), (qd, kd) = _qk(num, arity, main_var), _qk(den, arity, main_var)
        if gcd_uni(qn, qd).degree() > 0:
            continue
        rat_q, rnum_q, rden_q = hermite_reduce(qn, qd)
        rat_k, rnum_k, rden_k = hermite_reduce(kn, kd)
        assert rat_q == rat_k
        _same(rnum_q, rnum_k)
        _same(rden_q, rden_k)
        checked += 1


def _log_parts(rng):
    """(name, num, den) pairs with a squarefree den of degree 1..5 over Q, dense ascending."""
    a, b = rng.sample(range(-4, 5), 2)
    c1, c2 = F(rng.choice([1, -2, 3]), rng.choice([1, 2])), F(rng.choice([2, -1, 5]), 3)
    k = rng.choice([2, 3, 5, -1])  # x^2 - k has no rational root
    lin_a, lin_b, quad = [F(-a), F(1)], [F(-b), F(1)], [F(-k), F(0), F(1)]
    out = []
    while True:  # c * den'/den with den squarefree
        den = _q_poly(rng, rng.randint(1, 5))
        q = UniPoly(0, 1, den)
        if gcd_uni(q, q.derivative()).degree() == 0:
            out.append(("single", q.derivative().scale(c1).coeffs, den))
            break
    # c1/(x - a) + c2/(x - b): R(t) = (t - c1)(t - c2) up to a constant
    two = UniPoly(0, 1, lin_b).scale(c1) + UniPoly(0, 1, lin_a).scale(c2)
    out.append(("two-rational", two.coeffs, _product([(lin_a, 1), (lin_b, 1)], 1, 0)))
    # c1/(x - a) + 1/(x^2 - k): a rational residue and a conjugate pair
    mixed = UniPoly(0, 1, quad).scale(c1) + UniPoly(0, 1, lin_a)
    out.append(("rational-and-quadratic", mixed.coeffs, _product([(lin_a, 1), (quad, 1)], 1, 0)))
    return out


@pytest.mark.parametrize("arity, main_var", QK_PLACES)
@pytest.mark.parametrize("seed", range(3))
def test_rothstein_trager_agrees_over_q_and_k(monkeypatch, arity, main_var, seed):
    rng = random.Random(90 + seed)
    calls = []
    chain = lvk.residues._chain
    monkeypatch.setattr(lvk.residues, "_chain", lambda a, b, x: calls.append(1) or chain(a, b, x))
    for name, num, den in _log_parts(rng):
        (qn, kn), (qd, kd) = _qk(num, arity, main_var), _qk(den, arity, main_var)
        del calls[:]
        groups = rothstein_trager(qn, qd)
        q_calls = len(calls)
        assert groups == rothstein_trager(kn, kd), name
        # the shortcut builds no chain; every other level builds one, over Q or K
        assert q_calls == len(calls) - q_calls == (0 if name == "single" else 1), name
        total = RatFunc.zero(arity)
        for g in groups:
            total = total + g.log_derivative(main_var)
        assert total == qn.to_ratfunc() / qd.to_ratfunc(), name
        degrees = sorted(g.degree for g in groups)
        assert degrees == {"single": [1], "two-rational": [1, 1]}.get(name, [1, 2]), name
