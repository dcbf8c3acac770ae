import random
from fractions import Fraction

import pytest

from lvk.errors import NotClosed
from lvk.forms import OneForm, is_closed
from lvk.integrator import (
    IntegrationResult,
    differentiate,
    integrate_closed,
    to_darboux,
)
from lvk.parsing import parse_ratfunc
from lvk.ratfunc import RatFunc
from lvk.residues import ResidueGroup

from conftest import random_poly

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


def test_to_darboux_rational_when_residues_integral():
    w, names = W("2/x", "-1/y")
    d = to_darboux(integrate_closed(w))
    assert d.is_rational()
    assert d.to_ratfunc() == parse_ratfunc("x^2/y", names)
