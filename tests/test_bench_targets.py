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
