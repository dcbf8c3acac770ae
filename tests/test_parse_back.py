"""Every rational function a report prints parses back to the value it prints.

The goldens' strings must re-render identically, and the values the
theorem-2 pipeline and the integrator print for the benchmark's seed-5 inputs
must parse back equal.
"""

import json
from pathlib import Path

from lvk.integrator import integrate_closed
from lvk.parsing import parse_equations, parse_form, parse_ratfunc
from lvk.pipeline import theorem2_pipeline

from conftest import CATALOG, bench_cases, catalog_entries

RATIONAL_FIELDS = ("gamma", "gammas", "h", "aForm", "uForm", "ratioForms", "ratPart")


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
        args = [g.arg_at_rational(g.residue_value()) for g, _ in result.log_groups if g.degree == 1]
        assert_parse_back([result.rat_part, *args], [f"x{i + 1}" for i in range(w.arity)])
