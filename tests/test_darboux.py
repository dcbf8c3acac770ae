import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lvk import ratfunc
from lvk.darboux import (
    DarbouxFunction,
    Reject,
    cofactor_of,
    first_integral_residual,
    is_first_integral,
    is_jacobian_multiplier,
    multiplier_residual,
    synthesize,
    verify_exponential_factor,
)
from lvk.errors import DegreeCapExceeded, VerificationError
from lvk.forms import OneForm, is_closed
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_darboux, parse_poly, parse_ratfunc
from lvk.ratfunc import RatFunc
from lvk.residues import ResidueGroup
from lvk.vectorfield import PolyVectorField, parse_system

from conftest import lie_derivative_log, random_poly, random_ratfunc

NAMES = ["x", "y"]
LOTKA = parse_system("vars x, y\ndx = x - x*y\ndy = x*y - y\n")
LINEAR = parse_system("vars x, y\ndx = x\ndy = y\n")
SCALE = parse_system("vars x, y\ndx = x\ndy = 2*y\n")


# -- cofactors and exponential factors ---------------------------------------------


def test_cofactor_of_invariant_lines():
    kx = cofactor_of(LOTKA, parse_poly("x", NAMES))
    ky = cofactor_of(LOTKA, parse_poly("y", NAMES))
    assert kx.poly == parse_poly("1 - y", NAMES)
    assert ky.poly == parse_poly("x - 1", NAMES)


def test_cofactor_of_non_invariant():
    # X(x + 1) = x - x*y is no multiple of x + 1: the Reject carries X(f)/f
    r = cofactor_of(LOTKA, parse_poly("x + 1", NAMES))
    assert isinstance(r, Reject)
    assert r.residual == parse_ratfunc("(x - x*y)/(x + 1)", NAMES)


def test_synthesize_names_a_candidate_that_is_not_darboux():
    with pytest.raises(VerificationError, match="^x \\+ 1 is not a Darboux polynomial$"):
        synthesize(LOTKA, [parse_poly("x", NAMES), parse_poly("x + 1", NAMES)], [], "multiplier")


def test_cofactor_rejects_constants():
    with pytest.raises(VerificationError):
        cofactor_of(LOTKA, parse_poly("3", NAMES))


OPTIMIZED_CHECK = """
import sys
from lvk.darboux import cofactor_of
from lvk.errors import VerificationError
from lvk.multipoly import MultiPoly


class LinearField:
    # claims degree 1, so every cofactor must be constant, yet X(f) = f^2
    degree = 1

    def lie_derivative(self, f):
        return f * f


try:
    cofactor_of(LinearField(), MultiPoly.variable(1, 0))
except VerificationError as exc:
    print(sys.flags.optimize, exc)
"""


def test_certificate_checks_survive_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 cofactor degree 1 exceeds m-1 = 0\n"


def test_exponential_factor_accept_and_reject():
    # X = (x, 2y): X(y/x^2) = 2y/x^2 - 2y/x^2 = 0, a degree-0 cofactor
    ok = verify_exponential_factor(
        SCALE, parse_poly("y", NAMES), parse_poly("x^2", NAMES)
    )
    assert not isinstance(ok, Reject)
    assert ok.cofactor.poly.is_zero()
    bad = verify_exponential_factor(
        LOTKA, parse_poly("x", NAMES), parse_poly("y", NAMES)
    )
    assert isinstance(bad, Reject)


# -- DarbouxFunction calculus --------------------------------------------------------


def test_constant_factors_fold_into_scale():
    d = parse_darboux("2 * x * (3*y)", NAMES)
    assert d.scale == Fraction(6)
    assert d.to_ratfunc() == parse_ratfunc("6*x*y", NAMES)


def test_log_derivative_of_product_is_sum():
    rng = random.Random(5)
    for _ in range(20):
        a_poly = random_poly(rng, 2, max_deg=2, nonzero=True)
        b_poly = random_poly(rng, 2, max_deg=2, nonzero=True)
        if a_poly.is_constant() or b_poly.is_constant():
            continue
        a = DarbouxFunction(RatFunc.zero(2), factors=[(a_poly, Fraction(1, 2))])
        b = DarbouxFunction(RatFunc.zero(2), factors=[(b_poly, Fraction(-2))])
        lhs = (a * b).log_derivative()
        rhs_parts = [a.log_derivative(), b.log_derivative()]
        for i in range(2):
            assert lhs[i] == rhs_parts[0][i] + rhs_parts[1][i]


def test_log_derivative_always_closed():
    rng = random.Random(17)
    for _ in range(30):
        exp_arg = random_ratfunc(rng, 2, max_deg=2)
        f = random_poly(rng, 2, max_deg=2, nonzero=True)
        if f.is_constant():
            f = parse_poly("x + 1", NAMES)
        d = DarbouxFunction(
            exp_arg, factors=[(f, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))]
        )
        assert is_closed(d.log_derivative()).closed


def test_inverse_and_power():
    d = parse_darboux("x^2 * y^-1", NAMES)
    assert (d * d.inverse()).to_ratfunc() == RatFunc.one(2)
    assert (d**2).to_ratfunc() == parse_ratfunc("x^4/y^2", NAMES)


def test_render_sorted_and_stable():
    d = DarbouxFunction(
        RatFunc.zero(2),
        factors=[
            (parse_poly("y", NAMES), Fraction(-1)),
            (parse_poly("x", NAMES), Fraction(-1)),
        ],
    )
    assert d.render(NAMES) == "x^-1 * y^-1"
    # expressions multiplied in the rational algebra stay one reduced factor
    assert parse_darboux("y^-1 * x^-1", NAMES).render(NAMES) == "(x*y)^-1"


def _parses_back(f, names):
    g = parse_darboux(f.render(names), names)
    assert g.scale == f.scale, f.render(names)
    assert g.log_derivative() == f.log_derivative(), f.render(names)


def test_render_of_a_power_base_with_an_exponent_parses_back():
    # x^-2 is stored as the factor (x^2, -1); x^2^-1 would not parse
    assert parse_darboux("x^-2", NAMES).render(NAMES) == "(x^2)^-1"
    for text in ["x^-2", "x^(-2)", "x^-2*y^3", "3*x^2*y^(-1/3)", "(x^2)^(1/2)", "x^2*y^-4"]:
        _parses_back(parse_darboux(text, NAMES), NAMES)


CATALOG = Path(__file__).resolve().parent.parent / "catalog"


def test_catalog_darboux_renders_parse_back():
    # every group-free Darboux function a catalog golden prints reads back,
    # and so does its render once read (parsing merges factors: x * y^-2 *
    # z^-2 reads as x * (y^2*z^2)^-1)
    import json

    seen = 0
    for golden in sorted(CATALOG.glob("*.golden.json")):
        result = json.loads(golden.read_text())["result"]
        renders = [result.get(k) for k in ("object", "multiplier", "representative", "darboux")]
        renders = [r for r in renders + result.get("solutions", []) if r and "sum[" not in r]
        source = next(CATALOG.glob(golden.name.replace(".golden.json", ".*[mf]")))
        header = next(line for line in source.read_text().splitlines() if line.startswith("vars"))
        names = [v.strip() for v in header[4:].split(",")]
        for text in renders:
            _parses_back(parse_darboux(text, names), names)
            seen += 1
    assert seen >= 10


@pytest.mark.parametrize(
    "value",
    [
        parse_darboux("x^(1/2) * exp(y)", NAMES),
        OneForm([parse_ratfunc("y", NAMES), parse_ratfunc("x", NAMES)]),
        LOTKA,
    ],
    ids=["DarbouxFunction", "OneForm", "PolyVectorField"],
)
def test_value_types_are_immutable(value):
    for name in ("components", "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)


# -- verification -------------------------------------------------------------------


def test_is_jacobian_multiplier_golden():
    V = parse_darboux("1/(x*y)", NAMES)
    assert is_jacobian_multiplier(LOTKA, V).ok
    assert not is_jacobian_multiplier(LOTKA, parse_darboux("x", NAMES)).ok
    one = parse_darboux("1", NAMES)
    res = is_jacobian_multiplier(LINEAR, one).residual
    assert res == RatFunc.constant(2, 2)  # misses div P = 2


def test_is_first_integral_golden():
    H = parse_darboux("x^2 * y^-1", NAMES)
    assert is_first_integral(SCALE, H).ok
    assert not is_first_integral(LINEAR, H).ok


def _quadratic_group(arity, arg0):
    """sum over t^2 = 2 of t*log(arg0 + t*x_n); arg0 + t*x_n vanishes at no root."""
    return ResidueGroup(
        minpoly=(Fraction(-2), Fraction(0), Fraction(1)),
        arg=(arg0, RatFunc(MultiPoly.variable(arity, arity - 1))),
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [2, 3])
def test_first_integral_residual_matches_the_one_form_oracle(seed, arity):
    # exp(g) * prod f_k^e_k * (quadratic group)^s, against sum_i w_i P_i with w = d log D
    rng = random.Random(10 * arity + seed)
    names = ["x", "y", "z"][:arity]
    X = PolyVectorField(names, [random_poly(rng, arity, max_deg=2) for _ in names])
    factors = []
    while len(factors) < 2:
        f = random_poly(rng, arity, max_deg=2, nonzero=True)
        if not f.is_constant():
            factors.append((f, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 3]))))
    group = _quadratic_group(arity, RatFunc(random_poly(rng, arity, max_deg=1)))
    D = DarbouxFunction(
        random_ratfunc(rng, arity, max_deg=2),
        factors=factors,
        groups=[(group, Fraction(rng.choice([1, -1, 2]), 2))],
    )
    oracle = lie_derivative_log(X, D.log_derivative())
    residual = first_integral_residual(X, D)
    assert not residual.is_zero()  # D is no first integral: the residuals must agree as values
    assert residual == oracle
    assert residual.render(names) == oracle.render(names)
    multiplier = multiplier_residual(X, D)
    assert multiplier == oracle + RatFunc(X.divergence())
    assert multiplier.render(names) == (oracle + RatFunc(X.divergence())).render(names)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [2, 3])
def test_residuals_past_the_degree_cap_match_the_one_form_oracle(monkeypatch, seed, arity):
    # with fraction_sum's sum over the lcm forced past the degree cap, both
    # residuals are the term-by-term normalized sum, with the oracle's value
    forced = []

    def capped(*args):
        forced.append(args)
        raise DegreeCapExceeded("forced")

    monkeypatch.setattr(ratfunc, "_over_lcm", capped)
    test_first_integral_residual_matches_the_one_form_oracle(seed, arity)
    assert forced


def test_first_integral_residual_vanishes_on_functions_of_a_hamiltonian():
    # X = (H_y, -H_x) kills every function of H, so exp(H/(H + 1)) * H^(3/2) is a
    # first integral; times the group sum over t^2 = 2 of t*log(H + t*y) it is not
    H = parse_poly("x^2 + x*y - y^2 + 1", NAMES)
    X = PolyVectorField(NAMES, [H.derivative(1), -H.derivative(0)])
    h = RatFunc(H)
    D = DarbouxFunction(h / (h + RatFunc.one(2)), factors=[(H, Fraction(3, 2))])
    assert first_integral_residual(X, D).is_zero()
    assert lie_derivative_log(X, D.log_derivative()).is_zero()
    group = _quadratic_group(2, h)
    with_group = D * DarbouxFunction(RatFunc.zero(2), groups=[(group, Fraction(1))])
    residual = first_integral_residual(X, with_group)
    assert not residual.is_zero()
    assert residual == lie_derivative_log(X, with_group.log_derivative())


# -- synthesis ----------------------------------------------------------------------


def test_synthesize_multiplier_lotka():
    sols = synthesize(
        LOTKA,
        [parse_poly("x", NAMES), parse_poly("y", NAMES)],
        [],
        target="multiplier",
    )
    assert [s.render(NAMES) for s in sols] == ["x^-1 * y^-1"]


def test_synthesize_first_integral_scale():
    sols = synthesize(
        SCALE,
        [parse_poly("x", NAMES), parse_poly("y", NAMES)],
        [],
        target="first-integral",
    )
    assert [s.render(NAMES) for s in sols] == ["x^2 * y^-1"]


def test_synthesize_no_solution():
    sols = synthesize(LINEAR, [parse_poly("x", NAMES)], [], target="first-integral")
    assert sols == []


def test_synthesize_with_exponential_factor():
    # X = (x, 2y): factors x (cofactor 1), y (cofactor 2), exp(y/x^2) (cofactor 0)
    sols = synthesize(
        SCALE,
        [parse_poly("x", NAMES), parse_poly("y", NAMES)],
        [(parse_poly("y", NAMES), parse_poly("x^2", NAMES))],
        target="first-integral",
    )
    assert sols, "expected at least the rational integral"
    for s in sols:
        assert is_first_integral(SCALE, s).ok


def test_synthesize_rejects_non_darboux_input():
    with pytest.raises(VerificationError):
        synthesize(LOTKA, [parse_poly("x + 1", NAMES)], [], target="multiplier")
