"""The benchmark's tracer wraps lvk functions by name; each name must resolve.

A deletion or rename in lvk then fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
