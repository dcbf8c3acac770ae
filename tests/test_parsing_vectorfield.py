import random
from fractions import Fraction

import pytest

from lvk.errors import ParseError
from lvk.forms import OneForm
from lvk.parsing import (
    parse_components,
    parse_darboux,
    parse_form,
    parse_poly,
    parse_ratfunc,
    parse_variables,
)
from lvk.ratfunc import RatFunc
from lvk.vectorfield import PolyVectorField, parse_system

from conftest import lie_derivative_log, random_poly, random_ratfunc

NAMES = ["x", "y"]


# -- expression grammar ----------------------------------------------------------


def test_poly_precedence_and_powers():
    assert parse_poly("2*x + 3*y^2 - 1", NAMES).render(NAMES) == "3*y^2 + 2*x - 1"
    assert parse_poly("-x^2", NAMES) == -parse_poly("x^2", NAMES)
    assert parse_poly("(x + y)^2", NAMES) == parse_poly("x^2 + 2*x*y + y^2", NAMES)


def test_bare_exponent_binds_tighter_than_division():
    # x^2/y is (x^2)/y, not x^(2/y)
    f = parse_ratfunc("x^2/y", NAMES)
    assert f == parse_ratfunc("(x^2)/y", NAMES)


def test_rational_exponent_needs_parentheses():
    d = parse_darboux("x^(1/2)", NAMES)
    assert d.factors[0][1] == Fraction(1, 2)
    assert not d.is_rational()


def test_decimal_literals_become_exact():
    assert parse_poly("0.5*x", NAMES) == parse_poly("x/2", NAMES)


def test_poly_rejects_nonconstant_division():
    with pytest.raises(ParseError):
        parse_poly("x/y", NAMES)
    with pytest.raises(ParseError):
        parse_poly("x/0", NAMES)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as e:
        parse_poly("x + q", NAMES)
    assert "q" in str(e.value)


def test_darboux_exp_and_products():
    d = parse_darboux("exp(y/x) * x^2", NAMES)
    assert not d.is_rational()
    assert d.exp_arg == parse_ratfunc("y/x", NAMES)
    r = parse_darboux("x^2 * y^-1", NAMES)
    assert r.is_rational()
    assert r.to_ratfunc() == parse_ratfunc("x^2/y", NAMES)


def test_darboux_rejects_sums_of_transcendentals():
    with pytest.raises(ParseError):
        parse_darboux("exp(x) + y", NAMES)


@pytest.mark.parametrize(
    "text,column",
    [
        ("2^(1/2)", 2),  # fractional power of the constant 2
        ("(2*x)^(1/2)", 6),  # of the constant factor 2 of 2*x
        ("exp(x)/0", 7),
        ("x^(1/0)", 6),  # an exponent over 0 fails at its denominator
        ("x^(0/0)", 6),
        ("exp(x)^(-1/0)", 12),
        ("0^(1/2)", 2),
        ("0", 1),  # zero is not a Darboux function
        ("0^-1", 2),
        ("x*²", 3),  # a digit that is not a decimal digit
    ],
)
def test_darboux_input_errors_are_parse_errors_at_their_position(text, column):
    with pytest.raises(ParseError) as e:
        parse_darboux(text, NAMES)
    assert (e.value.line, e.value.column) == (1, column)


@pytest.mark.parametrize("opener", ["(", "exp(", "-"])
def test_nesting_stops_at_the_token_that_opens_level_101(opener):
    closer = ")" if opener.endswith("(") else ""
    with pytest.raises(ParseError, match="nested too deeply") as e:
        parse_darboux("x*" + opener * 101 + "x" + closer * 101, NAMES)
    assert (e.value.line, e.value.column) == (1, 3 + 100 * len(opener))


def test_nesting_at_the_limit_parses():
    assert parse_ratfunc("(" * 100 + "x" + ")" * 100, NAMES) == parse_ratfunc("x", NAMES)
    # the leading sign of a sum is not a level: 101 signs nest 100 deep
    assert parse_ratfunc("-" * 101 + "x", NAMES) == parse_ratfunc("-x", NAMES)


def test_negative_power_of_zero_is_a_division_by_zero():
    with pytest.raises(ParseError, match="division by zero"):
        parse_ratfunc("x + 0^-2", NAMES)


# -- vector fields ------------------------------------------------------------------


SYS = """# comment line
vars x, y
dx = x - x*y
dy = x*y - y
"""


def test_parse_system_roundtrip():
    X = parse_system(SYS)
    assert X.var_names == ("x", "y")
    assert X.degree == 2
    again = parse_system(X.render())
    assert again.components == X.components


def test_system_errors():
    with pytest.raises(ParseError):
        parse_system("dx = x\n")  # no vars line
    with pytest.raises(ParseError):
        parse_system("vars x, x\ndx = x\n")  # duplicate name
    with pytest.raises(ParseError):
        parse_system("vars x, y\ndx = x\n")  # missing equation
    with pytest.raises(ParseError):
        parse_system("vars x, y\ndx = x\ndy = y\ndy = x\n")  # duplicate equation
    with pytest.raises(ParseError):
        parse_system("vars x, y\ndx = x\ndz = y\n")  # unknown variable


def test_divergence_and_lie_derivative():
    X = parse_system(SYS)
    # div = (1 - y) + (x - 1) = x - y
    assert X.divergence() == parse_poly("x - y", NAMES)
    # lie derivative of an invariant polynomial is a multiple of it
    f = parse_poly("x", NAMES)
    assert X.lie_derivative(f) == parse_poly("x - x*y", NAMES)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_lie_derivative_ratfunc_matches_the_one_form_oracle(seed, arity):
    # X(n/d) from X(n) and X(d) against sum_i d_i(n/d) * P_i
    rng = random.Random(10 * arity + seed)
    names = ["x", "y", "z"][:arity]
    X = PolyVectorField(names, [random_poly(rng, arity, max_deg=2) for _ in names])
    cases = [random_ratfunc(rng, arity) for _ in range(4)]
    cases += [RatFunc(random_poly(rng, arity)), RatFunc.zero(arity), RatFunc.constant(arity, 3)]
    for f in cases:
        oracle = lie_derivative_log(X, OneForm(f.derivative(i) for i in range(arity)))
        got = X.lie_derivative_ratfunc(f)
        assert got == oracle
        assert got.render(names) == oracle.render(names)


# -- input formats --------------------------------------------------------------------


def test_system_error_reports_its_position_in_the_file():
    with pytest.raises(ParseError) as e:
        parse_system("vars x, y\ndx = x\ndy = x +  * y\n")
    assert (e.value.line, e.value.column) == (3, 11)
    assert str(e.value).endswith("(line 3, column 11)")
    with pytest.raises(ParseError) as e:
        parse_system("vars x, y\ndx = x -\ndy = y\n")  # the expression ends at its line end
    assert (e.value.line, e.value.column) == (2, 9)


def test_form_error_reports_its_position_in_the_file():
    with pytest.raises(ParseError) as e:
        parse_form("vars x, y  # the header\n1/x + y,\nx + * y\n")
    assert (e.value.line, e.value.column) == (3, 5)


def test_inline_component_error_reports_its_position_in_the_argument():
    with pytest.raises(ParseError) as e:
        parse_components("y, (x + y) * /x", NAMES)
    assert (e.value.line, e.value.column) == (1, 14)


def test_form_components_split_at_top_level_commas_and_line_ends():
    names, comps = parse_form("# comment\nvars x, y\n\n1/(x*y), # first\n(x + y)^2\n")
    assert names == ["x", "y"]
    assert comps == [parse_ratfunc("1/(x*y)", NAMES), parse_ratfunc("(x + y)^2", NAMES)]
    assert parse_components("1/(x*y), (x + y)^2", NAMES) == comps
    with pytest.raises(ParseError):
        parse_form("vars x, y\nx^2/(x,\ny)\n")  # a line end closes the component


def test_variable_lists():
    assert parse_variables(" x , y_1,z2 ") == ["x", "y_1", "z2"]
    assert parse_form("vars x, y\n1, 1\n")[0] == ["x", "y"]


@pytest.mark.parametrize(
    "parse",
    [
        lambda v: parse_system(f"{v}\ndx = x\ndy = y\n"),
        lambda v: parse_form(f"{v}\nx, y\n"),
    ],
    ids=["system", "form"],
)
@pytest.mark.parametrize("header", ["varsx, y", "vars x y", "vars x, x", "vars x,", "vars"])
def test_vars_line_rejections(parse, header):
    with pytest.raises(ParseError):
        parse(header)


@pytest.mark.parametrize("text", ["x,,y", "x,1y", "x y", "x, y,", ",x", "", "x, x"])
def test_variable_list_rejections(text):
    with pytest.raises(ParseError):
        parse_variables(text)
