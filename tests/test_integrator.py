import random
from fractions import Fraction

import pytest

import lvk.integrator
from lvk.errors import NotClosed
from lvk.forms import ClosednessWitness, OneForm, is_closed
from lvk.integrator import (
    IntegrationResult,
    differentiate,
    integrate_closed,
    to_darboux,
)
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_ratfunc
from lvk.ratfunc import RatFunc
from lvk.residues import ResidueGroup

from conftest import random_poly, random_ratfunc

F = Fraction


def W(*exprs, names=None):
    names = names or ["x", "y"][: len(exprs)]
    if len(exprs) == 3:
        names = ["x", "y", "z"]
    return OneForm([parse_ratfunc(e, names) for e in exprs]), names


def test_pure_log_potential():
    w, names = W("1/x", "1/y")
    r = integrate_closed(w)
    assert r.render(names) == "log(x) + log(y)"
    assert r.rat_part.is_zero()
    assert differentiate(r) == w
    assert to_darboux(r).render(names) == "x * y"


def test_mixed_signs_three_variables():
    w, names = W("1/x", "-2/y", "-2/z")
    r = integrate_closed(w)
    assert r.render(names) == "log(x) - 2*log(y) - 2*log(z)"
    assert differentiate(r) == w
    d = to_darboux(r)
    assert d.render(names) == "x * y^-2 * z^-2"
    assert d.is_rational()


def test_rational_part_only():
    # d(y/x) = (-y/x^2, 1/x)
    w, names = W("-y/x^2", "1/x")
    r = integrate_closed(w)
    assert r.log_groups == ()
    assert r.rat_part == parse_ratfunc("y/x", names)
    assert differentiate(r) == w


def test_polynomial_part():
    w, names = W("y + 2*x", "x + 3*y^2")
    r = integrate_closed(w)
    assert r.rat_part == parse_ratfunc("x*y + x^2 + y^3", names)
    assert differentiate(r) == w


def test_algebraic_group_golden():
    names = ["x"]
    w = OneForm([parse_ratfunc("1/(x^2 - 2)", names)])
    r = integrate_closed(w)
    assert len(r.log_groups) == 1
    g, s = r.log_groups[0]
    assert s == 1
    assert g.degree == 2
    assert differentiate(r) == w


def test_not_closed_raises_with_witness():
    w, names = W("y", "0")
    with pytest.raises(NotClosed) as e:
        integrate_closed(w)
    assert e.value.pair == (0, 1)
    assert e.value.residual == RatFunc.one(2)


def test_variable_order_override_same_differential():
    w, names = W("y/x", "0")  # not closed -> must raise in any order
    with pytest.raises(NotClosed):
        integrate_closed(w)
    closed, names = W("1/x + y", "x")
    for order in ([0, 1], [1, 0]):
        r = integrate_closed(closed, order=order)
        assert differentiate(r) == closed


def test_constant_of_integration_zero():
    # integrating the zero form gives the zero potential, not an arbitrary constant
    z = OneForm([RatFunc.zero(2), RatFunc.zero(2)])
    r = integrate_closed(z)
    assert r.rat_part.is_zero() and r.log_groups == ()
    assert r.render(["x", "y"]) == "0"


def _random_potential(rng, arity):
    """A potential with rational part plus up to 3 rational-residue log terms."""
    groups = []
    for _ in range(rng.randint(0, 3)):
        base = random_poly(rng, arity, max_deg=2, max_terms=3, nonzero=True)
        if base.is_constant():
            continue
        c = F(rng.choice([1, -1, 2, -2, 3])) / rng.choice([1, 2])
        groups.append(
            (ResidueGroup(minpoly=(-c, F(1)), arg=(RatFunc(base),)), F(1))
        )
    num = random_poly(rng, arity, max_deg=3, max_terms=3)
    den = random_poly(rng, arity, max_deg=2, max_terms=2, nonzero=True)
    return IntegrationResult(log_groups=tuple(groups), rat_part=RatFunc(num, den))


def test_roundtrip_random_closed_forms():
    rng = random.Random(99)
    done = 0
    while done < 60:
        arity = rng.randint(1, 3)
        psi = _random_potential(rng, arity)
        w = differentiate(psi)
        if w.is_zero():
            continue
        assert is_closed(w).closed
        back = differentiate(integrate_closed(w))
        assert back == w
        done += 1


def normalized_witness(w: OneForm):
    """The first pair (j, i) with a nonzero normalized d_i w_j - d_j w_i, and that residual."""
    n = len(w)
    for j in range(n):
        for i in range(j + 1, n):
            residual = w[j].derivative(i) - w[i].derivative(j)
            if not residual.is_zero():
                return (j, i), residual
    return None, None


def test_closedness_zero_test_matches_the_normalized_residual():
    rng = random.Random(4711)
    failing = 0
    for _ in range(50):
        arity = rng.randint(2, 3)
        w = differentiate(_random_potential(rng, arity))
        assert is_closed(w) == ClosednessWitness(closed=True)
        comps = list(w.components)
        k = rng.randrange(arity)
        comps[k] = comps[k] + random_ratfunc(rng, arity)
        perturbed = OneForm(comps)
        pair, residual = normalized_witness(perturbed)
        assert is_closed(perturbed) == ClosednessWitness(pair is None, pair, residual)
        failing += pair is not None
    assert failing >= 30
    # equal denominators compare the numerators of the derivatives directly
    w, names = W("x/(x + y)^2", "y/(x + y)^2")
    assert is_closed(w) == ClosednessWitness(False, (0, 1), w[0].derivative(1) - w[1].derivative(0))
    w, names = W("1/(x + y)^2", "1/(x + y)^2")
    assert is_closed(w).closed


def test_closedness_zero_test_past_the_degree_cap(monkeypatch):
    # the zero test forms x^5 * y^10, past a cap of 12 that the normalized
    # residual (y^5 - x^5)/(x^5*y^5) stays within: the residual decides
    w, names = W("y/x^5", "x/y^5")
    monkeypatch.setenv("LVK_MAX_DEGREE", "12")
    expected = parse_ratfunc("1/x^5 - 1/y^5", names)
    assert is_closed(w) == ClosednessWitness(False, (0, 1), expected)


def test_to_darboux_rational_when_residues_integral():
    w, names = W("2/x", "-1/y")
    d = to_darboux(integrate_closed(w))
    assert d.is_rational()
    assert d.to_ratfunc() == parse_ratfunc("x^2/y", names)


# -- independent oracle: sympy differentiates the potential ------------------------------


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


def _lvk_poly(sympy, expr, symbols):
    poly = sympy.Poly(expr, *symbols, domain="QQ")
    terms = {}
    for exps, c in poly.terms():
        c = sympy.Rational(c)
        terms[exps] = F(int(c.p), int(c.q))
    return terms


def _lvk_ratfunc(sympy, expr, symbols):
    num, den = sympy.fraction(sympy.cancel(expr))
    n = len(symbols)
    return RatFunc(
        MultiPoly(n, _lvk_poly(sympy, num, symbols)),
        MultiPoly(n, _lvk_poly(sympy, den, symbols)),
    )


def test_potential_derivative_matches_sympy():
    # the form is sympy's gradient of a planted potential with rational residues,
    # and sympy differentiates the potential integrate_closed returns
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    logs = 0
    for _ in range(12):
        arity = rng.randint(1, 3)
        symbols = sympy.symbols("x y z")[:arity]
        psi = _sympy_ratfunc(
            sympy,
            RatFunc(
                random_poly(rng, arity, max_deg=2, max_terms=3),
                random_poly(rng, arity, max_deg=2, max_terms=2, nonzero=True),
            ),
            symbols,
        )
        for _ in range(rng.randint(1, 2)):
            arg = random_poly(rng, arity, max_deg=2, max_terms=3, nonzero=True)
            if not arg.is_constant():
                c = sympy.Rational(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                psi += c * sympy.log(_sympy_poly(sympy, arg, symbols))
        form = [sympy.cancel(sympy.diff(psi, s)) for s in symbols]
        if all(c == 0 for c in form):
            continue
        result = integrate_closed(OneForm([_lvk_ratfunc(sympy, c, symbols) for c in form]))
        potential = _sympy_ratfunc(sympy, result.rat_part, symbols)
        for group, s in result.log_groups:
            t = group.residue_value()
            assert t is not None, "rational residues only"
            logs += 1
            arg = group.arg[0]
            potential += sympy.Rational(t * s) * sympy.log(_sympy_ratfunc(sympy, arg, symbols))
        for s, component in zip(symbols, form):
            assert sympy.cancel(sympy.diff(potential, s) - component) == 0
    assert logs >= 8


def _split_potential(rng):
    """A potential A(x) + B(y, z): its x-level is over Q, its y- and z-levels over K.

    A has rational residues, a conjugate pair over 8t^2 = 1 and a rational
    part with a repeated factor; B has logs and a rational part in y and z.
    """
    names = ["x", "y", "z"]
    a, b = rng.sample(range(-3, 4), 2)
    groups = [
        (ResidueGroup(minpoly=(F(-2), F(1)), arg=(parse_ratfunc(f"x - {a}", names),)), F(1)),
        (ResidueGroup(minpoly=(F(-1, 8), F(0), F(1)), arg=(
            parse_ratfunc(f"x - {b}", names), RatFunc.constant(3, -4))), F(1)),
    ]
    for arg in (f"y*z + {rng.randint(1, 3)}", f"y^2 + {rng.randint(-2, 2)}*z"):
        c = F(rng.choice([1, -1, 3]), rng.choice([1, 2]))
        groups.append((ResidueGroup(minpoly=(-c, F(1)), arg=(parse_ratfunc(arg, names),)), F(1)))
    rat = parse_ratfunc(f"{rng.randint(1, 3)}/(x - {b})^2 + y/(z + {rng.randint(1, 3)})", names)
    return IntegrationResult(log_groups=tuple(groups), rat_part=rat)


@pytest.mark.parametrize("seed", range(3))
def test_levels_over_q_and_k_in_either_order(monkeypatch, seed):
    fields = []
    hermite = lvk.integrator.hermite_reduce
    monkeypatch.setattr(
        lvk.integrator, "hermite_reduce", lambda n, d: fields.append(d.over_q) or hermite(n, d)
    )
    w = differentiate(_split_potential(random.Random(seed)))
    # the last level's remainder is a log of one variable: log(y*z + c) integrates
    # in y to log(y + c/z), leaving -d log(z); in z to log(z + c/y), leaving -d log(y)
    for order, levels in (([0, 1, 2], [True, False, True]), ([2, 1, 0], [False, True, True])):
        del fields[:]
        r = integrate_closed(w, order=order)
        assert fields == levels, order
        assert differentiate(r) == w, order
