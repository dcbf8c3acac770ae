import random
from fractions import Fraction
from pathlib import Path

import pytest

import lvk.multipoly
import lvk.residues
from conftest import random_poly
from lvk.darboux import DarbouxFunction
from lvk.errors import NonConstantResidue, ZeroDivisionInField
from lvk.integrator import IntegrationResult, differentiate, integrate_closed
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_poly, parse_ratfunc
from lvk.ratfunc import RatFunc
from lvk.residues import (
    ResidueGroup,
    _divisors,
    bound_name,
    power_sums,
    qpoly_render,
    rothstein_trager,
)
from lvk.unipoly import UniPoly, gcd_uni, ratfunc_as_unipair, squarefree_yun

F = Fraction
GOLDENS = Path(__file__).resolve().parent / "goldens"


def _unipair(expr_num, expr_den, names, main_var=0):
    num = UniPoly.of_poly(parse_poly(expr_num, names), main_var)
    den = UniPoly.of_poly(parse_poly(expr_den, names), main_var)
    return num, den


# -- rational helpers ------------------------------------------------------------


def test_qpoly_render_clears_denominators():
    assert qpoly_render([F(-1, 8), F(0), F(1)], "t") == "8*t^2 - 1"
    assert qpoly_render([F(-1), F(1)], "s") == "s - 1"
    assert qpoly_render([], "t") == "0"


def test_power_sums_of_known_roots():
    # roots 1 and 2: m = (t-1)(t-2) = t^2 - 3t + 2
    sums = power_sums([F(2), F(-3), F(1)], 4)
    assert sums == [F(2), F(3), F(5), F(9)]


def test_rational_squarefree_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(1618)
    for _ in range(40):
        # c * prod f_k^k with each f_k absent or of degree 1-3, k = 1..3
        m = sympy.Rational(rng.randint(1, 9), rng.randint(1, 4))
        for k in range(1, 4):
            if rng.random() < 0.25:
                continue
            coeffs = [sympy.Rational(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
            coeffs[-1] = coeffs[-1] or sympy.Integer(1)
            m *= sum(c * t**i for i, c in enumerate(coeffs)) ** k
        poly = sympy.Poly(m, t, domain="QQ")
        ascending = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        _, parts = poly.sqf_list()
        expected = [
            ([F(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())], k)
            for f, k in sorted(parts, key=lambda part: part[1])
        ]
        # R(t) enters squarefree_yun over Q, as rothstein_trager passes it
        d = squarefree_yun(UniPoly(0, 1, ascending))
        assert all(f.over_q for f, _ in d.parts), m
        assert [(f.coeffs, k) for f, k in d.parts] == expected, m
    with pytest.raises(ZeroDivisionInField):
        squarefree_yun(UniPoly(0, 1, [F(0)]))


# -- residue groups ---------------------------------------------------------------


def test_degree_one_group_is_scaled_log():
    names = ["x", "y"]
    # 3*log(x*y): minpoly t - 3, argument x*y
    g = ResidueGroup(minpoly=(F(-3), F(1)), arg=(parse_ratfunc("x*y", names),))
    assert g.residue_value() == 3
    assert g.log_derivative(0) == parse_ratfunc("3/x", names)
    assert g.log_derivative(1) == parse_ratfunc("3/y", names)
    assert g.render(names) == "3*log(x*y)"


def test_algebraic_group_trace_derivative():
    names = ["x"]
    # sum over t^2 = 1/8 of t*log(x - 4t); derivative must be 1/(x^2 - 2)
    g = ResidueGroup(
        minpoly=(F(-1, 8), F(0), F(1)),
        arg=(parse_ratfunc("x", names), RatFunc.constant(1, -4)),
    )
    assert g.log_derivative(0) == parse_ratfunc("1/(x^2 - 2)", names)


def test_group_log_derivative_subtracts_the_denominator_term():
    # arg = (x + t)/(y + 1), and the roots of t^2 - t - 1 sum to p_1 = 1, so
    # the t-free denominator contributes -p_1 * d log(y + 1)
    sympy = pytest.importorskip("sympy")
    names = ["x", "y"]
    g = ResidueGroup(
        minpoly=(F(-1), F(-1), F(1)),
        arg=(parse_ratfunc("x/(y+1)", names), parse_ratfunc("1/(y+1)", names)),
    )
    got = [g.log_derivative(v) for v in range(2)]
    assert [r.render(names) for r in got] == ["(x - 2)/(x^2 + x - 1)", "-1/(y + 1)"]
    x, y = sympy.symbols("x y")
    roots = [(1 + sympy.sqrt(5)) / 2, (1 - sympy.sqrt(5)) / 2]
    for var, r in zip((x, y), got):
        want = sum(t * sympy.diff(sympy.log((x + t) / (y + 1)), var) for t in roots)
        printed = sympy.sympify(r.render(names).replace("^", "**"), locals={"x": x, "y": y})
        assert sympy.simplify(want - printed) == 0


@pytest.mark.parametrize("arg", [(), ("x", "1", "0")], ids=["empty", "past-the-degree"])
def test_group_argument_is_reduced_modulo_the_minimal_polynomial(arg):
    # a quadratic group takes the coefficients of 1 and t, and at least one
    with pytest.raises(ValueError, match="^a group of degree 2 takes 1 to that many arg coefficients$"):
        ResidueGroup(minpoly=(F(-2), F(0), F(1)), arg=tuple(parse_ratfunc(a, ["x"]) for a in arg))


def test_group_argument_is_one_ratfunc_in_x_and_t():
    names = ["x", "y"]
    g = ResidueGroup(
        minpoly=(F(-2), F(0), F(1)),
        arg=(parse_ratfunc("x/(y + 1)", names), parse_ratfunc("1/(y^2 - 1)", names)),
    )
    assert g.argument() == parse_ratfunc("(x*y - x + t)/(y^2 - 1)", [*names, "t"])
    assert g.render(names) == "sum[t: t^2 - 2 = 0] t*log((x*y - x + t)/(y^2 - 1))"


def test_bound_name_avoids_the_variable_names():
    assert bound_name(["x", "y"]) == "t"
    assert bound_name(["x", "t"]) == "t1"
    assert bound_name(["t1", "t", "t2"]) == "t3"


def _quadratic_group(names):
    """sum over t^2 = 2 of t*log(x + t*y)."""
    return ResidueGroup(
        minpoly=(F(-2), F(0), F(1)), arg=tuple(parse_ratfunc(a, names) for a in ("x", "y"))
    )


def test_negative_group_weight_is_a_signed_term():
    names = ["x", "y"]
    group = _quadratic_group(names)
    log_x = ResidueGroup(minpoly=(F(-1), F(1)), arg=(parse_ratfunc("x", names),))
    psi = IntegrationResult(
        log_groups=((log_x, F(1)), (group, F(-2))), rat_part=RatFunc.zero(2)
    )
    assert psi.render(names) == "log(x) - 2*(sum[t: t^2 - 2 = 0] t*log(y*t + x))"
    psi = IntegrationResult(log_groups=((group, F(-1)),), rat_part=parse_ratfunc("y", names))
    assert psi.render(names) == "-sum[t: t^2 - 2 = 0] t*log(y*t + x) + y"


def test_darboux_group_power_is_a_signed_exponent():
    names = ["x", "y"]
    D = DarbouxFunction(RatFunc.zero(2), groups=[(_quadratic_group(names), F(1))])
    assert D.render(names) == "exp(sum[t: t^2 - 2 = 0] t*log(y*t + x))"
    assert (D**2).render(names) == "exp(2*(sum[t: t^2 - 2 = 0] t*log(y*t + x)))"
    assert D.inverse().render(names) == "exp(-sum[t: t^2 - 2 = 0] t*log(y*t + x))"
    assert (D ** F(-1, 2)).render(names) == "exp(-1/2*(sum[t: t^2 - 2 = 0] t*log(y*t + x)))"


def test_group_argument_vanishing_at_a_root_is_a_zero_division():
    # x*(t - 1) vanishes at the root t = 1 of t^2 - 1: the group is invalid
    x = parse_ratfunc("x", ["x"])
    g = ResidueGroup(minpoly=(F(-1), F(0), F(1)), arg=(-x, x))
    with pytest.raises(ZeroDivisionInField):
        g.log_derivative(0)


# -- Rothstein-Trager ---------------------------------------------------------------


def _count_chains(monkeypatch):
    """One entry per subresultant chain of D and N - t*D' that rothstein_trager builds."""
    calls = []
    chain = lvk.residues._chain
    monkeypatch.setattr(lvk.residues, "_chain", lambda a, b, x: calls.append(1) or chain(a, b, x))
    return calls


def test_rt_simple_log():
    num, den = _unipair("1", "x", ["x"])
    groups = rothstein_trager(num, den)
    assert len(groups) == 1
    g = groups[0]
    assert g.degree == 1 and g.residue_value() == 1
    assert g.arg[0] == parse_ratfunc("x", ["x"])


def test_rt_two_rational_residues(monkeypatch):
    # (3x - 1)/(x^2 - x) = 1/x + 2/(x - 1): num is no multiple of den', so the
    # chain that ends at R(t) is built
    num, den = _unipair("3*x - 1", "x^2 - x", ["x"])
    calls = _count_chains(monkeypatch)
    groups = rothstein_trager(num, den)
    assert calls == [1]
    got = sorted(
        (g.residue_value(), g.arg[0].render(["x"]))
        for g in groups
    )
    assert got == [(F(1), "x"), (F(2), "x - 1")]


def test_rt_algebraic_residues_golden():
    num, den = _unipair("1", "x^2 - 2", ["x"])
    groups = rothstein_trager(num, den)
    assert len(groups) == 1
    g = groups[0]
    assert qpoly_render(g.minpoly, "t") == "8*t^2 - 1"
    assert [c.render(["x"]) for c in g.arg] == ["x", "-4"]
    # the trace-sum derivative reproduces the input exactly
    assert g.log_derivative(0) == parse_ratfunc("1/(x^2 - 2)", ["x"])


def test_rt_parameterized_coefficients():
    # 1/(x + y) in x: single log with residue 1 and argument x + y
    num, den = _unipair("1", "x + y", ["x", "y"])
    groups = rothstein_trager(num, den)
    assert len(groups) == 1
    g = groups[0]
    assert g.residue_value() == 1
    assert g.arg[0] == parse_ratfunc("x + y", ["x", "y"])


def test_rt_rejects_non_constant_residue():
    # y/x has residue y: not a constant, must abort rather than guess
    num, den = _unipair("y", "x", ["x", "y"])
    message = "^residue polynomial coefficient -x2 is not constant$"
    with pytest.raises(NonConstantResidue, match=message):
        rothstein_trager(num, den)


@pytest.mark.parametrize("expr_num, expr_den", [("1", "x^2"), ("x", "x^3 - x^2")])
def test_rt_rejects_a_degenerate_resultant(expr_num, expr_den):
    # den not squarefree: R(t) = res(x^2, 1 - 2*t*x) = 1 is free of t, and
    # x/(x^3 - x^2) shares the root 0 with its den, so R(t) is 0 and the
    # chain stops at an element of positive degree in x
    num, den = _unipair(expr_num, expr_den, ["x"])
    message = "^resultant degenerates; preconditions violated$"
    with pytest.raises(NonConstantResidue, match=message):
        rothstein_trager(num, den)


def _count_eliminations(monkeypatch):
    """One entry per PRS run that eliminates x between D and N - t*D'.

    Such a run starts from the degrees (deg D, deg D - 1); the resultants
    the adjugate takes in its own variable are not recorded.
    """
    runs, adjugating = [], []
    prs, adjugate = lvk.multipoly._subresultant_prs, lvk.residues._adjugate

    def recording_prs(a, b):
        chain, sign = prs(a, b)
        if not adjugating:
            runs.append((chain[0].degree(), chain[1].degree()))
        return chain, sign

    def quiet_adjugate(*args):
        adjugating.append(1)
        try:
            return adjugate(*args)
        finally:
            adjugating.pop()

    for module in (lvk.multipoly, lvk.residues):
        monkeypatch.setattr(module, "_subresultant_prs", recording_prs)
    monkeypatch.setattr(lvk.residues, "_adjugate", quiet_adjugate)
    return runs


@pytest.mark.parametrize(
    "expr_num, expr_den, eliminations",
    [
        ("1", "x^2 - 2", 1),
        ("1", "(x + y)^3 - 2", 1),
        ("3*(x + y)^2", "(x + y)^3 - 2", 0),
    ],
    ids=["quadratic-over-Q", "cubic-over-K", "shortcut"],
)
def test_rt_runs_one_elimination_per_level(monkeypatch, expr_num, expr_den, eliminations):
    # R(t) and the regular gcd of an irrational factor read one chain; the
    # c*D'/D shortcut eliminates nothing
    num, den = _unipair(expr_num, expr_den, ["x", "y"])
    runs = _count_eliminations(monkeypatch)
    groups = rothstein_trager(num, den)
    assert runs.count((den.degree(), den.degree() - 1)) == eliminations
    assert max(g.degree for g in groups) == (1 if eliminations == 0 else den.degree())
    total = RatFunc.zero(2)
    for g in groups:
        total = total + g.log_derivative(0)
    assert total == num.to_ratfunc() / den.to_ratfunc()


def _x_polynomial(rng, arity, degree):
    """A polynomial of degree exactly `degree` in x1 whose leading coefficient
    may involve the other variables."""
    while True:
        lead = random_poly(rng, arity, max_deg=1, max_terms=2, nonzero=True)
        if lead.involves(0):
            continue
        p = lead * MultiPoly.variable(arity, 0) ** degree + random_poly(rng, arity, max_deg=degree)
        if UniPoly.of_poly(p, 0).degree() == degree:
            return p


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rt_single_residue_is_read_off_without_a_resultant(monkeypatch, seed, arity, degree):
    # c * D'/D has the one residue c and the log argument D, made monic in x1
    rng = random.Random(100 * degree + 10 * arity + seed)
    while True:
        d = _x_polynomial(rng, arity, degree)
        den = UniPoly.of_poly(d, 0)
        if gcd_uni(den, den.derivative()).degree() == 0:
            break
    c = F(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3]))
    num = den.derivative().scale(RatFunc.constant(arity, c))
    calls = _count_chains(monkeypatch)
    groups = rothstein_trager(num, den)
    assert groups == [ResidueGroup(minpoly=(-c, F(1)), arg=(den.monic().to_ratfunc(),))]
    assert calls == []
    assert groups[0].log_derivative(0) == RatFunc(d.derivative(0), d).scale(c)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("degree", [2, 3])
def test_single_log_forms_round_trip(seed, degree):
    # d(c * log A) with A quadratic or cubic in x1, over two and three variables
    rng = random.Random(1000 + 10 * degree + seed)
    for arity in (2, 3):
        a = RatFunc(_x_polynomial(rng, arity, degree))
        c = F(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        psi = IntegrationResult(
            log_groups=((ResidueGroup(minpoly=(-c, F(1)), arg=(a,)), F(1)),),
            rat_part=RatFunc.zero(arity),
        )
        w = differentiate(psi)
        assert differentiate(integrate_closed(w)) == w


def test_divisors_are_listed_once():
    assert _divisors(1) == [1]
    assert sorted(_divisors(36)) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert sorted(_divisors(-12)) == [1, 2, 3, 4, 6, 12]


def test_rt_mixed_rational_and_algebraic():
    # 1/x + 1/(x^2 - 2) forces one split residue 1 and one conjugate pair
    names = ["x"]
    f = parse_ratfunc("1/x", names) + parse_ratfunc("1/(x^2 - 2)", names)
    num = UniPoly.of_poly(f.num, 0)
    den = UniPoly.of_poly(f.den, 0)
    groups = rothstein_trager(num, den)
    total = RatFunc.zero(1)
    for g in groups:
        total = total + g.log_derivative(0)
    assert total == f
    degrees = sorted(g.degree for g in groups)
    assert degrees == [1, 2]


def _planted_log_part(rng, residues, quadratic):
    """num/den = sum of c * d/dx log(x + p_c(y)), plus d/dx of the group
    sum over 8t^2 = 1 of t*log(x + q(y) - 4t), which is 1/((x + q)^2 - 2)."""
    names = ["x", "y"]
    shift = parse_ratfunc(f"{rng.randint(-3, 3)}*y^2 + {rng.randint(1, 4)}*y", names)
    total = RatFunc.zero(2)
    planted = {}
    for k, c in enumerate(residues):
        # distinct shifts keep the arguments coprime
        arg = parse_ratfunc(f"x + {k}", names) + shift.scale(F(k + 1))
        planted[c] = arg
        total = total + (arg.derivative(0) / arg).scale(c)
    if quadratic:
        q = parse_ratfunc(f"x + {len(residues)}", names) + shift.scale(F(-1))
        total = total + (q * q - RatFunc.constant(2, 2)).inverse()
    return total, planted


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("quadratic", [False, True], ids=["two-rational", "rational-and-quadratic"])
def test_rt_rational_roots_take_one_gcd_each(monkeypatch, seed, quadratic):
    # one squarefree factor of R(t): (t - c1)(t - c2), or (t - c)(8t^2 - 1)
    rng = random.Random(seed)
    residues = [F(1), F(rng.choice([2, -3, 5, F(1, 2)]))] if not quadratic else [F(3)]
    f, planted = _planted_log_part(rng, residues, quadratic)
    num, den = UniPoly.of_poly(f.num, 0), UniPoly.of_poly(f.den, 0)
    d5_calls = []
    d5_gcd = lvk.residues.d5_gcd
    monkeypatch.setattr(
        lvk.residues, "d5_gcd", lambda *a: d5_calls.append(a[1].coeffs) or d5_gcd(*a)
    )
    groups = rothstein_trager(num, den)
    rational = [g for g in groups if g.degree == 1]
    assert sorted(g.residue_value() for g in rational) == sorted(residues)
    for g in rational:
        c = g.residue_value()
        v = gcd_uni(den, num - den.derivative().scale(RatFunc.constant(2, c)))
        assert g.arg == (v.to_ratfunc(),) == (planted[c],)
    assert sorted(g.degree for g in groups if g.degree > 1) == ([2] if quadratic else [])
    total = RatFunc.zero(2)
    for g in groups:
        total = total + g.log_derivative(0)
    assert total == f
    assert d5_calls == ([[F(-1, 8), F(0), F(1)]] if quadratic else [])


def test_irrational_level_over_q_reaches_d5_over_q(monkeypatch):
    # 1/(x^2 - 2) is a level over Q: D5's chain involves only x and t, and its
    # gcd comes back as polynomials in t over Q, in the residue symbol's slot
    # (variable 1 of 2), with no RatFunc
    num, den = _unipair("1", "x^2 - 2", ["x"])
    calls = []
    d5_gcd = lvk.residues.d5_gcd
    monkeypatch.setattr(lvk.residues, "d5_gcd", lambda *a: calls.append((a, d5_gcd(*a))) or calls[-1][1])
    (g,) = rothstein_trager(num, den)
    assert g.render(["x"]) == "sum[t: 8*t^2 - 1 = 0] t*log(x - 4*t)"
    (((chain, m), branches),) = calls
    assert all(c.arity == 2 and not c.involves(0) for s in chain for c in s.coeffs)
    ((m_branch, v),) = branches
    assert m_branch.coeffs == m.coeffs == [F(-1, 8), F(0), F(1)]
    for e in [*v, m]:
        assert isinstance(e, UniPoly) and e.over_q
        assert (e.main_var, e.arity) == (1, 2)


@pytest.mark.parametrize("arity", [1, 2], ids=["over-Q", "over-K"])
def test_d5_splits_the_modulus_at_a_zero_divisor(arity):
    # mod m = (t^2 - 2)(t^2 - 3), a = (t^2 - 2)*x + c and b = x + c leave the
    # remainder c*(3 - t^2), a zero divisor: m splits, and the gcd is x + c
    # where t^2 = 3 and 1 where t^2 = 2; over K, c is the other variable
    ext = arity + 1
    k = F if arity == 1 else (lambda v: RatFunc.constant(ext, v))
    x, t = MultiPoly.variable(ext, 0), MultiPoly.variable(ext, arity)
    c = MultiPoly.one(ext) if arity == 1 else MultiPoly.variable(ext, 1)

    def T(*coeffs):
        return UniPoly(arity, ext, list(coeffs))

    m = T(*map(F, (6, 0, -5, 0, 1)))
    a = (t * t - MultiPoly.constant(ext, 2)) * x + c
    branches = lvk.residues.d5_gcd(lvk.residues._chain(a, x + c, 0), m)
    c_in_f = k(1) if arity == 1 else RatFunc(c)
    assert [(mb.coeffs, v) for mb, v in branches] == [
        ([F(-3), F(0), F(1)], [T(c_in_f), T(k(1))]),
        ([F(-2), F(0), F(1)], [T(k(1))]),
    ]


# irreducible over Q: no group of these splits off a rational residue
QUADRATIC_MINPOLYS = [(F(-2), F(0), F(1)), (F(1), F(0), F(1))]
CUBIC_MINPOLYS = [(F(-2), F(0), F(0), F(1)), (F(-1), F(-1), F(0), F(1))]


def _planted_group(rng, m, arity, xdeg):
    """sum over m(t) = 0 of t*log(A) with A monic of degree xdeg in x1; over K
    (arity 2) the coefficients of A are linear in x2."""
    x = MultiPoly.variable(arity, 0)
    arg = []
    for k in range(len(m) - 1):
        c = x**xdeg if k == 0 else MultiPoly.zero(arity)
        for i in range(xdeg if k == 0 else xdeg - 1):
            coeff = MultiPoly.constant(arity, rng.randint(-2, 2))
            if arity == 2:
                coeff = coeff + MultiPoly.variable(2, 1).scale(rng.randint(-1, 1))
            c = c + coeff * x**i
        arg.append(RatFunc(c))
    return ResidueGroup(minpoly=m, arg=tuple(arg))


@pytest.mark.parametrize("arity", [1, 2], ids=["over-Q", "over-K"])
@pytest.mark.parametrize("xdeg", [2, 3])
def test_planted_irrational_groups_sum_back(monkeypatch, arity, xdeg):
    # an argument of x-degree d makes m a factor of multiplicity d in R(t)
    multiplicities = []
    yun = lvk.residues.squarefree_yun

    def recording_yun(p):
        d = yun(p)
        multiplicities.extend(k for _, k in d.parts)
        return d

    monkeypatch.setattr(lvk.residues, "squarefree_yun", recording_yun)
    rng = random.Random(100 * arity + xdeg)
    # each minimal polynomial in turn; a cubic over K at x-degree 3 takes
    # seconds a draw, almost all of it in its one subresultant chain
    minpolys = QUADRATIC_MINPOLYS + (CUBIC_MINPOLYS if arity == 1 or xdeg == 2 else [])
    done = 0
    while done < max(3, len(minpolys)):
        f = _planted_group(rng, minpolys[done % len(minpolys)], arity, xdeg).log_derivative(0)
        num, den = ratfunc_as_unipair(f, 0)
        # a zero f comes from an argument free of t and a root sum of 0
        if num.is_zero() or den.over_q != (arity == 1):
            continue
        if gcd_uni(den, den.derivative()).degree() > 0:
            continue
        multiplicities.clear()
        groups = rothstein_trager(num, den)
        assert max(multiplicities) == xdeg
        assert all(g.degree >= 2 for g in groups)
        total = RatFunc.zero(arity)
        for g in groups:
            total = total + g.log_derivative(0)
        assert total == f
        done += 1


def test_quartic_group_round_trips():
    # d(sum over t^4 = 2 of t*log(x + t*y + t^2*z + t^3) + x/(y+1)) in x, y, z
    names = ["x", "y", "z"]
    group = ResidueGroup(
        minpoly=(F(-2), F(0), F(0), F(0), F(1)),
        arg=tuple(parse_ratfunc(a, names) for a in ("x", "y", "z", "1")),
    )
    psi = IntegrationResult(log_groups=((group, F(1)),), rat_part=parse_ratfunc("x/(y+1)", names))
    w = differentiate(psi)
    assert differentiate(integrate_closed(w)) == w


def test_quartic_group_log_derivative_at_the_default_cap(monkeypatch):
    # its final RatFunc(trace, norm) is one gcd whose answer is 1 (67 and 96
    # terms); the subresultant PRS passes degree 64 on it, the heuristic gcd
    # does not.  The golden is the PRS route's render at LVK_MAX_DEGREE=4096.
    monkeypatch.delenv("LVK_MAX_DEGREE", raising=False)
    names = ["x1", "x2", "x3"]
    args = (
        "-3*x2^2 + 1/3*x2*x3 - x1 - 4/3*x3",
        "-4/3*x2^2 + 1",
        "2*x1^2",
        "-4/3*x1*x2 + 2*x1 - 3/2",
    )
    group = ResidueGroup(
        minpoly=(F(-2), F(0), F(0), F(0), F(1)),
        arg=tuple(parse_ratfunc(a, names) for a in args),
    )
    expected = (GOLDENS / "t4-2-group-log-derivative.txt").read_text().rstrip("\n")
    assert group.log_derivative(0).render(names) == expected


# -- independent oracle for d5_gcd: sympy's gcd over Q(alpha) -------------------------


def _check_d5_against_sympy(sympy, a, b, m, arity, roots):
    """d5_gcd(a, b, m) is sympy's gcd over Q(alpha), made monic in x1, at each
    of the given roots alpha of m; each root lies on exactly one branch."""
    symbols = sympy.symbols("x y")[:arity]
    t = sympy.Symbol("t")
    at = {s: _sympy_poly(sympy, p, [*symbols, t]) for s, p in (("a", a), ("b", b))}
    branches = lvk.residues.d5_gcd(lvk.residues._chain(a, b, 0), m)
    covered = []
    for m_branch, v in branches:
        assert v[-1] == UniPoly(arity, arity + 1, [F(1)])
        for alpha in roots:
            if sympy.expand(sum(c * alpha**k for k, c in enumerate(m_branch.coeffs))) != 0:
                continue
            covered.append(alpha)
            a_at, b_at = (at[s].subs(t, alpha) for s in "ab")
            expected = sympy.gcd(a_at, b_at, *symbols, extension=alpha)
            got = sum(
                _sympy_ratfunc(sympy, c.to_ratfunc(), [*symbols, t]) * symbols[0] ** i
                for i, c in enumerate(v)
            )
            num, den = sympy.fraction(sympy.together(got.subs(t, alpha)))
            difference = num * sympy.LC(expected, symbols[0]) - den * expected
            assert sympy.Poly(difference, *symbols, extension=alpha).is_zero, (alpha, v)
    assert sorted(covered, key=str) == sorted(roots, key=str)
    return branches


D5_MODULI = [
    pytest.param((F(-2), F(0), F(1)), 1, id="t2-2-over-Q"),
    pytest.param((F(-2), F(0), F(0), F(1)), 1, id="t3-2-over-Q"),
    pytest.param((F(-2), F(0), F(1)), 2, id="t2-2-over-K"),
    pytest.param((F(-2), F(0), F(0), F(1)), 2, id="t3-2-over-K"),
]


@pytest.mark.parametrize("minpoly, arity", D5_MODULI)
def test_d5_gcd_matches_sympy_on_defective_chains(monkeypatch, minpoly, arity):
    # a = f*(x^4 + d*x + e) and b = f*(x^3 + c), f = x + t + k: the chain of
    # a and b drops from degree 4 to 2 or less, through Lazard's step
    sympy = pytest.importorskip("sympy")
    chains = []
    prs = lvk.residues._subresultant_prs

    def recording_prs(a, b):
        chain, sign = prs(a, b)
        chains.append([s.degree() for s in chain])
        return chain, sign

    monkeypatch.setattr(lvk.residues, "_subresultant_prs", recording_prs)
    ext = arity + 1
    x, t = MultiPoly.variable(ext, 0), MultiPoly.variable(ext, arity)
    # t^3 - 2 is irreducible and a, b lie in Q(x2)[t][x1], so conjugation
    # carries the gcd at its real root to the two complex ones
    roots = [sympy.sqrt(2), -sympy.sqrt(2)] if len(minpoly) == 3 else [sympy.cbrt(2)]
    rng = random.Random(len(minpoly) * 10 + arity)
    m = UniPoly(arity, ext, list(minpoly))

    def linear_in_t():
        c0, c1 = (MultiPoly.constant(ext, rng.randint(-3, 3)) for _ in range(2))
        if arity == 2:
            c0 = c0 + MultiPoly.variable(ext, 1).scale(rng.randint(-2, 2))
        return c0 + c1 * t

    for _ in range(3):
        f = x + t + MultiPoly.constant(ext, rng.randint(-2, 2))
        c, d, e = linear_in_t(), linear_in_t(), linear_in_t()
        a = f * (x**4 + d * x + e)
        b = f * (x**3 + c)
        _check_d5_against_sympy(sympy, a, b, m, arity, roots)
    assert any(p - q > 1 for degrees in chains for p, q in zip(degrees[1:], degrees[2:]))
    # lc(b) = u^2 with u = t + x2 (t + 1 over Q), and b's x-coefficient set
    # so that the remainder of a by b drops two degrees: Lazard's step, whose
    # leading coefficient is not a multiple of u^2, then one more element
    u = t + (MultiPoly.variable(ext, 1) if arity == 2 else MultiPoly.one(ext))
    a3, a2, a1, a0, b0 = (linear_in_t() for _ in range(5))
    f = x + t + MultiPoly.constant(ext, rng.randint(-2, 2))
    a = f * (x**4 + a3 * x**3 + a2 * x**2 + a1 * x + a0)
    b = f * (u * u * x**3 + u * x**2 + (u * u * a2 - u * a3 + MultiPoly.one(ext)) * x + b0)
    branches = _check_d5_against_sympy(sympy, a, b, m, arity, roots)
    assert chains[-1] == [5, 4, 2, 1]
    assert [len(v) - 1 for _, v in branches] == [1]


@pytest.mark.parametrize("arity", [1, 2], ids=["over-Q", "over-K"])
def test_d5_gcd_reads_the_lazard_element_where_the_scale_vanishes(arity):
    # b = x^3 + b1*x + b0, and a chosen so that, with L = t^2 - 2 = m,
    # prem(a, b) = L^2*x^2 + L*v*x + b1*L^2 + v^2: the chain runs 4, 3, 2, 0
    # with a gap of 2 whose scale h = L^2 vanishes at both roots, where
    # prem(a, b) is the constant v^2.
    # The gcd there is 1, read off the rescaled element of degree 0; the
    # defective remainder vanishes, and without the rescale the gcd would be b
    sympy = pytest.importorskip("sympy")
    ext = arity + 1
    x, t = MultiPoly.variable(ext, 0), MultiPoly.variable(ext, arity)
    y = MultiPoly.variable(ext, 1) if arity == 2 else MultiPoly.one(ext)
    one = MultiPoly.one(ext)
    big_l, b1, b0, a3, v = t * t - one.scale(2), t + y, t.scale(2) - one, t, t + one.scale(3)
    b = x**3 + b1 * x + b0
    a = x**4 + a3 * x**3 + (b1 + big_l * big_l) * x**2 + (big_l * v + b0 + a3 * b1) * x
    a = a + b1 * big_l * big_l + v * v + a3 * b0
    m = UniPoly(arity, ext, [F(-2), F(0), F(1)])
    branches = _check_d5_against_sympy(sympy, a, b, m, arity, [sympy.sqrt(2), -sympy.sqrt(2)])
    assert [len(v) - 1 for _, v in branches] == [0]


@pytest.mark.parametrize("arity", [1, 2], ids=["over-Q", "over-K"])
def test_d5_gcd_splits_where_a_leading_coefficient_vanishes_at_some_roots(arity):
    # mod (t^2 - 2)(t^2 - 3), with d = c + t^2 - 3 and e = (t^2 - 3)*y:
    # x^3 + c divides x^4 + d*x + e where t^2 = 3, so the gcd there is all of
    # b, and f where t^2 = 2; the chain's leading coefficients of degree 1 and
    # 2 vanish at the roots of t^2 - 3 only
    sympy = pytest.importorskip("sympy")
    ext = arity + 1
    x, t = MultiPoly.variable(ext, 0), MultiPoly.variable(ext, arity)
    y = MultiPoly.variable(ext, 1) if arity == 2 else MultiPoly.one(ext)
    c, f, q = t + y, x + t + y, t * t - MultiPoly.constant(ext, 3)
    a = f * (x**4 + (c + q) * x + q * y)
    b = f * (x**3 + c)
    m = UniPoly(arity, ext, [F(6), F(0), F(-5), F(0), F(1)])
    roots = [sympy.sqrt(2), -sympy.sqrt(2), sympy.sqrt(3), -sympy.sqrt(3)]
    branches = _check_d5_against_sympy(sympy, a, b, m, arity, roots)
    degrees = [(mb.coeffs, len(v) - 1) for mb, v in branches]
    assert degrees == [([F(-3), F(0), F(1)], 4), ([F(-2), F(0), F(1)], 1)]


# -- independent oracle: sympy's RootSum ---------------------------------------------

QUADRATIC = (F(-2), F(0), F(1))  # t^2 - 2
CUBIC = (F(-1), F(-1), F(0), F(1))  # t^3 - t - 1
TWO_QUADRATICS = (F(6), F(0), F(-5), F(0), F(1))  # (t^2 - 2)(t^2 - 3)

# (minimal polynomial, arity, argument seed); every case runs well under a second
ORACLE_GROUPS = [
    *(pytest.param(QUADRATIC, n, s, id=f"quadratic-n{n}-s{s}") for n in (2, 3) for s in (1, 3, 5, 6)),
    *(pytest.param(CUBIC, n, s, id=f"cubic-n{n}-s{s}") for n in (2, 3) for s in (1, 3, 5, 6)),
    *(pytest.param(TWO_QUADRATICS, 2, s, id=f"two-quadratics-n2-s{s}") for s in (1, 5, 7)),
    *(pytest.param(TWO_QUADRATICS, 3, s, id=f"two-quadratics-n3-s{s}") for s in (1, 3, 7)),
]


def _seeded_group(minpoly, arity, seed):
    """A group whose argument has a linear coefficient at every power of t."""
    rng = random.Random(seed)
    arg = [RatFunc(random_poly(rng, arity, max_deg=1, max_terms=2)) for _ in minpoly[1:]]
    arg[0] = arg[0] + RatFunc(MultiPoly.variable(arity, rng.randrange(arity)))
    return ResidueGroup(minpoly=minpoly, arg=tuple(arg))


def _sympy_poly(sympy, p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in p.terms.items()
        )
    )


def _sympy_ratfunc(sympy, f, symbols):
    return _sympy_poly(sympy, f.num, symbols) / _sympy_poly(sympy, f.den, symbols)


@pytest.mark.parametrize("minpoly, arity, seed", ORACLE_GROUPS)
def test_log_derivative_matches_sympy_rootsum(minpoly, arity, seed):
    sympy = pytest.importorskip("sympy")
    group = _seeded_group(minpoly, arity, seed)
    symbols = sympy.symbols("x y z")[:arity]
    t = sympy.Symbol("t")
    m = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(minpoly)), t
    )
    arg = sum(_sympy_ratfunc(sympy, c, symbols) * t**k for k, c in enumerate(group.arg))
    for v, s in enumerate(symbols):
        expected = sympy.RootSum(m, sympy.Lambda(t, t * sympy.diff(arg, s) / arg)).doit()
        got = _sympy_ratfunc(sympy, group.log_derivative(v), symbols)
        assert sympy.cancel(got - expected) == 0, (group.render(), s)
