import functools
import importlib.util
import os
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

# Intermediate polynomials inside subresultant gcd sequences can legitimately
# outgrow the CLI-facing safety rail on randomized stress inputs.
os.environ.setdefault("LVK_MAX_DEGREE", "4096")

import pytest

from lvk.multipoly import MultiPoly
from lvk.ratfunc import RatFunc

CATALOG = Path(__file__).resolve().parent.parent / "catalog"
BENCH = CATALOG.parent / "bench"


def random_poly(rng: random.Random, arity, max_deg=3, max_terms=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        e = [0] * arity
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            e[rng.randrange(arity)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    p = MultiPoly(arity, terms)
    if nonzero and p.is_zero():
        return MultiPoly.constant(arity, Fraction(rng.randint(1, 4)))
    return p


def random_ratfunc(rng: random.Random, arity, max_deg=2):
    num = random_poly(rng, arity, max_deg)
    den = random_poly(rng, arity, max_deg, nonzero=True)
    return RatFunc(num, den)


def catalog_entries():
    """(name, argv) for every bundled example, with paths made absolute."""
    out = []
    for cmd in sorted(CATALOG.glob("*.cmd")):
        argv = shlex.split(cmd.read_text().replace("{dir}", str(CATALOG)))
        out.append((cmd.stem, argv))
    return out


def lie_derivative_log(X, w) -> RatFunc:
    """X(log F) = sum w_i P_i for w = d(log F), each product and sum normalized.

    The oracle for the one-``fraction_sum`` residuals of ``lvk.darboux`` and
    for ``PolyVectorField.lie_derivative_ratfunc``.
    """
    assert w.arity == X.arity
    total = RatFunc.zero(X.arity)
    for wi, Pi in zip(w.components, X.components):
        total = total + wi * RatFunc(Pi)
    return total


@functools.cache
def bench_workloads():
    """``bench/workloads.py``, loaded by path.

    It is registered in ``sys.modules`` before it runs: its dataclasses look
    their module up there.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def bench_cases(workload: str, seed: int = 5) -> list:
    """The cases of one benchmark workload, drawn as the benchmark draws them."""
    import lvk
    import lvk.cli  # the catalog workload runs the front end

    return bench_workloads().WORKLOADS[workload][0](lvk, seed).cases


@pytest.fixture
def rng():
    return random.Random(20260823)
