"""The benchmark's tracer wraps lvk functions by name; each name must resolve.

A deletion or rename in lvk then fails here instead of in a traced benchmark run,
and an output that the benchmark's own check refuses fails here instead of as
``outputs_incorrect`` in every benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import pytest

from conftest import BENCH, bench_cases, bench_workloads

SPANS_PY = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for modname, attr, _, _ in spans.SPANS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for path, method, _ in spans.COUNTED:
        modname, cls_name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(modname), cls_name)
        assert method in vars(cls), (path, method)


def lvk_chains(tree: ast.AST):
    """(dotted name, call node or None) for each outermost attribute chain on the name ``lvk``."""
    inner, calls = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
        if isinstance(node, ast.Call):
            calls[id(node.func)] = node
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id == "lvk":
            yield ".".join(reversed(parts)), calls.get(id(node))


def test_every_lvk_name_the_benchmark_uses_resolves():
    """Each lvk.… chain in the benchmark scripts resolves, and each call binds its keywords.

    The benchmark reaches past the traced names too (the planted check calls
    ``lvk.pipeline._strip_common_factor``, the roundtrip calls
    ``integrate_closed(w, check=False)``), so a rename there would otherwise
    pass the tests and fail every benchmark run.
    """
    import lvk
    import lvk.cli  # the package does not import its front end; bench/run.py does

    seen = set()
    for name in ("workloads.py", "run.py", "smoke.py"):
        for chain, call in lvk_chains(ast.parse((BENCH / name).read_text())):
            target = lvk
            for attr in chain.split("."):
                assert hasattr(target, attr), (name, f"lvk.{chain}")
                target = getattr(target, attr)
            seen.add(chain)
            if call is None or any(isinstance(a, ast.Starred) for a in call.args):
                continue
            keywords = {k.arg: None for k in call.keywords if k.arg is not None}
            inspect.signature(target).bind(*[None] * len(call.args), **keywords)
    assert {"pipeline._strip_common_factor", "integrator.integrate_closed"} <= seen
    assert "check" in inspect.signature(lvk.integrator.integrate_closed).parameters


@pytest.mark.parametrize("workload", ["catalog", "roundtrip", "planted"])
def test_every_seed_5_output_passes_the_benchmark_check(workload):
    import lvk

    _, operate, check = bench_workloads().WORKLOADS[workload]
    cases = bench_cases(workload)
    assert cases
    assert [c.label for c in cases if not check(lvk, c, operate(lvk, c))] == []


def test_tracer_reads_coefficient_size_from_polynomials():
    """_coeff_bits and the gcd growth hook read bits, terms and degree through p.terms."""
    from fractions import Fraction

    from lvk.multipoly import MultiPoly

    spans = load_spans()
    a = MultiPoly(2, {(2, 0): Fraction(3, 1024)})  # 1024 = 2^10 has bit length 11
    b = MultiPoly(2, {(1, 0): Fraction(5, 3), (0, 3): 1000, (0, 0): -1})
    assert spans._coeff_bits(a) == 11
    assert spans._coeff_bits(b) == 10  # 1000 < 2^10
    assert spans._coeff_bits(MultiPoly(2, {(1, 1): Fraction(-(2**70), 7)})) == 71
    assert spans._coeff_bits(MultiPoly.zero(2)) == 0
    tracer = spans.Tracer()
    hook = tracer._hook("gcd", "lvk.multipoly")
    hook((a, b), MultiPoly.one(2))
    assert tracer.growth["multipoly.gcd_multivar.deg_max"] == 3
    assert tracer.growth["multipoly.gcd_multivar.terms_max"] == 3
    assert tracer.growth["multipoly.gcd_multivar.coeff_bits_max"] == 11
