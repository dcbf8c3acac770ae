"""Every rational function a report prints parses back to the value it prints.

The goldens' strings must re-render identically, and the values the
theorem-2 pipeline and the integrator print for the benchmark's seed-5 inputs
must parse back equal.  A printed residue group's minimal polynomial and
argument parse back to the ones the group holds.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from lvk.forms import OneForm
from lvk.integrator import integrate_closed
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_equations, parse_form, parse_poly, parse_ratfunc
from lvk.pipeline import theorem2_pipeline
from lvk.residues import bound_name

from conftest import CATALOG, bench_cases, catalog_entries
from test_residue_goldens import GOLDENS, residue_groups

RATIONAL_FIELDS = ("gamma", "gammas", "h", "aForm", "ratPart")


def strings(value):
    if isinstance(value, str):
        yield value
    else:
        for v in value.values() if isinstance(value, dict) else value:
            yield from strings(v)


def input_names(argv) -> list[str]:
    if "--system" in argv:
        return parse_equations(Path(argv[argv.index("--system") + 1]).read_text())[0]
    return parse_form(Path(argv[argv.index("--form") + 1]).read_text())[0]


def test_golden_rational_functions_re_render_identically():
    seen = 0
    for name, argv in catalog_entries():
        names = input_names(argv)
        result = json.loads((CATALOG / f"{name}.golden.json").read_text())["result"]
        for field in RATIONAL_FIELDS:
            for text in strings(result.get(field, ())):
                assert parse_ratfunc(text, names).render(names) == text, (name, field)
                seen += 1
    assert seen > 50


def assert_parse_back(values, names):
    for value in values:
        assert parse_ratfunc(value.render(names), names) == value, value.render(names)


def test_theorem2_values_parse_back():
    for case in bench_cases("planted"):
        X, integrals = case.data
        d = theorem2_pipeline(X, integrals).derivation
        assert_parse_back([d.gamma, *d.gammas, d.h, *d.a_form.components], list(X.var_names))


def test_integration_values_parse_back():
    for case in bench_cases("roundtrip"):
        (w,) = case.data
        result = integrate_closed(w, check=False)
        args = [g.arg[0] for g, _ in result.log_groups if g.degree == 1]
        assert_parse_back([result.rat_part, *args], [f"x{i + 1}" for i in range(w.arity)])


GROUP = re.compile(r"sum\[(\w+): (.+) = 0\] \1\*log\((.+)\)")
LOG = re.compile(r"(-?)(?:(.+)\*)?log\((.+)\)")


def assert_group_parses_back(group, names):
    text = group.render(names)
    if group.degree == 1:
        sign, c, arg = LOG.fullmatch(text).groups()
        assert Fraction(sign + (c or "1")) == group.residue_value(), text
        assert parse_ratfunc(arg, names) == group.arg[0], text
        return
    t, m, arg = GROUP.fullmatch(text).groups()
    assert t == bound_name(names), text
    lcm = math.lcm(*(c.denominator for c in group.minpoly))
    cleared = MultiPoly(1, {(k,): c * lcm for k, c in enumerate(group.minpoly)})
    assert parse_poly(m, [t]) == cleared, text
    assert parse_ratfunc(arg, [*names, t]) == group.argument(), text


def test_residue_golden_groups_parse_back():
    seen = 0
    for groups, names in residue_groups().values():
        for group in groups:
            assert_group_parses_back(group, names)
            seen += group.degree > 1
    assert seen == 33


def test_algebraic_form_groups_parse_back():
    names, comps = parse_form((GOLDENS / "algebraic-t2-2.form").read_text())
    result = integrate_closed(OneForm(comps))
    potential = json.loads((GOLDENS / "algebraic-t2-2.golden.json").read_text())["result"]["potential"]
    assert [g.degree for g, _ in result.log_groups] == [2]
    for group, _ in result.log_groups:
        assert_group_parses_back(group, names)
        assert group.render(names) in potential
