"""The three benchmark workloads: inputs drawn from a seed, one operation, its check.

Each workload builds a list of ``Case`` objects in set-up.  The timed loop
calls ``operate(lvk, case)`` and then ``check(lvk, case, output)`` outside
the timed interval.  Operations call lvk through module attributes
(``lvk.integrator.integrate_closed``) so that the traced run sees the
wrappers that ``spans.Tracer`` binds there.

Random inputs are drawn with two generators.  A fixed *shape* generator
decides the structure of every case: arity, number of log terms, the
monomial supports.  The ``--seed`` generator draws the coefficients and
residues.  Per-case cost follows the structure far more than the
coefficients (one 4-variable planted shape took 35 to 42 s at four seeds),
so every seed measures the same mix of sizes and runs with different seeds
stay comparable.  Drawing the structure from the seed as well, 150
roundtrip forms took from 4.9 s to 7.4 s in total over four seeds (2-core
Xeon VM, CPython 3.11).
"""

from __future__ import annotations

import io
import random
import shlex
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "catalog"

#: Seeds of the shape generators.  Changing one changes the workload.
ROUNDTRIP_SHAPE_SEED = 20260823
PLANTED_SHAPE_SEED = 7

#: Roundtrip size class: forms drawn with the generator of the acceptance
#: test ``test_criterion_3_integrator_roundtrip_200``, kept only when the
#: log arguments and the rational denominator of the potential have total
#: degrees summing to at most this.  Without the cap 8 of 180 forms ran past
#: 3 s at three seeds, and the count moved with the seed, so operations would
#: hit their budget and runs at different seeds would not compare.
ROUNDTRIP_DEGREE_CAP = 3
ROUNDTRIP_DRAWN = 150

#: Planted systems per pass, and their size class: the drawn field has total
#: degree at most this (quadratic systems).  Cost follows the field's degree:
#: over 152 drawn systems at two seeds the slowest took 0.04, 0.11, 0.35,
#: 2.8 and 24 s for degrees 0 to 4, the same systems at both seeds, so with
#: cubic and quartic fields a few operations would set every time metric.
PLANTED_DRAWN = {3: 60, 4: 15}
PLANTED_DEGREE_CAP = 2
#: Drawn systems left out of the timed loop, with the reason.  Each system
#: has its own shape generator, so a label names the same shape at every seed.
PLANTED_EXCLUDED = {
    "drawn3-35": "X = (q(x2), 0, 0): theorem2_pipeline ran past the 2 s probe budget at "
    "all 12 seeds tried and took 38 s at seed 11, nearly all of it in "
    "integrate_closed -> rothstein_trager -> resultant -> Sylvester determinant",
}

#: The ROADMAP baseline form, without its third log term.
FIXED_FORM = ("x^2+y^2+1", 1), ("x*y+1", -2)
FIXED_FORM_RATIONAL = "x/(y+1)"
#: The full ROADMAP form: d(log(x^2+y^2+1) - 2 log(xy+1) + 3 log(x+y^3) + x/(y+1)).
#: integrate_closed did not finish on it in 15 minutes, so it is left out of
#: the timed loop and serves the smoke test as the operation over budget.
STRESS_FORM = FIXED_FORM + (("x+y^3", 3),)

#: Fixed theorem-2 families of 5 and 6 variables.
FIXED_FAMILIES = ("linear", "scale")
FIXED_ARITIES = (5, 6)


@dataclass
class Case:
    label: str
    data: tuple


@dataclass
class Workload:
    name: str
    why: str
    cases: list
    counts: dict
    fixed: list


# -- random polynomials --------------------------------------------------------


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def random_poly(lvk, shape, coef, arity, max_deg=3, max_terms=4, nonzero=False):
    """``tests/conftest.random_poly`` with structure and coefficients split.

    ``shape`` draws the number of terms and their exponents, ``coef`` the
    nonzero coefficients; repeated exponents are merged before the
    coefficients are drawn, so the support never depends on ``coef``.
    """
    exps = {}
    for _ in range(shape.randint(1 if nonzero else 0, max_terms)):
        e = [0] * arity
        for _ in range(shape.randint(0, max_deg)):
            e[shape.randrange(arity)] += 1
        exps[tuple(e)] = None
    return lvk.MultiPoly(arity, {e: _coefficient(coef) for e in exps})


def _log_term(lvk, arg, residue):
    group = lvk.ResidueGroup(minpoly=(-Fraction(residue), Fraction(1)), arg=(arg,))
    return group, Fraction(1)


# -- catalog ---------------------------------------------------------------------


def catalog_cases(lvk, seed: int) -> Workload:
    cases = []
    for cmd in sorted(CATALOG.glob("*.cmd")):
        argv = shlex.split(cmd.read_text().replace("{dir}", str(CATALOG)))
        golden = (CATALOG / f"{cmd.stem}.golden.json").read_text()
        cases.append(Case(cmd.stem, (argv, golden)))
    random.Random(seed).shuffle(cases)
    return Workload(
        "catalog",
        "the 13 shipped catalog invocations through lvk.cli.main; the only "
        "workload that runs the front end and darboux verify/synthesize",
        cases,
        {"entries": len(cases)},
        [c.label for c in cases],
    )


def catalog_operate(lvk, case):
    argv, _ = case.data
    out = io.StringIO()
    with redirect_stdout(out):
        code = lvk.cli.main(list(argv))
    return code, out.getvalue()


def catalog_check(lvk, case, output) -> bool:
    code, text = output
    return code == 0 and text == case.data[1]


# -- roundtrip ---------------------------------------------------------------------


def _draw_potential(lvk, shape, coef):
    """One potential from the criterion-3 generator, and its size.

    The size is the summed total degree of the log arguments and of the
    rational denominator.
    """
    arity = shape.randint(1, 3)
    groups = []
    size = 0
    for _ in range(shape.randint(0, 3)):
        base = random_poly(lvk, shape, coef, arity, max_deg=2, max_terms=3, nonzero=True)
        if base.is_constant():
            continue
        size += base.total_degree()
        residue = Fraction(coef.choice([1, -1, 2, -2, 3, -3]), coef.choice([1, 2]))
        groups.append(_log_term(lvk, lvk.RatFunc(base), residue))
    num = random_poly(lvk, shape, coef, arity, max_deg=3, max_terms=3)
    den = random_poly(lvk, shape, coef, arity, max_deg=2, max_terms=2, nonzero=True)
    size += den.total_degree()
    psi = lvk.IntegrationResult(log_groups=tuple(groups), rat_part=lvk.RatFunc(num, den))
    return psi, size


def fixed_potential(lvk, terms):
    """Sum of c*log(arg) over ``terms`` plus ``FIXED_FORM_RATIONAL``, in x and y."""
    names = ["x", "y"]
    parse = lvk.parsing.parse_ratfunc
    groups = tuple(_log_term(lvk, parse(arg, names), c) for arg, c in terms)
    return lvk.IntegrationResult(log_groups=groups, rat_part=parse(FIXED_FORM_RATIONAL, names))


def roundtrip_cases(lvk, seed: int) -> Workload:
    shape = random.Random(ROUNDTRIP_SHAPE_SEED)
    coef = random.Random(seed)
    cases = []
    while len(cases) < ROUNDTRIP_DRAWN:
        psi, size = _draw_potential(lvk, shape, coef)
        if size > ROUNDTRIP_DEGREE_CAP:
            continue
        w = lvk.differentiate(psi)
        if not w.is_zero():
            cases.append(Case(f"drawn{len(cases)}", (w,)))
    fixed = fixed_potential(lvk, FIXED_FORM)
    cases.append(Case("roadmap-2log", (lvk.differentiate(fixed),)))
    return Workload(
        "roundtrip",
        "seeded closed 1-forms integrated and differentiated back; hermite_reduce, "
        "rothstein_trager and the Sylvester-determinant resultant do the work",
        cases,
        {"drawn": ROUNDTRIP_DRAWN, "fixed": 1, "degree_cap": ROUNDTRIP_DEGREE_CAP},
        ["d(log(x^2+y^2+1) - 2 log(xy+1) + x/(y+1))"],
    )


def roundtrip_operate(lvk, case):
    """What ``integrate-form`` does: closedness, integration, differential."""
    (w,) = case.data
    witness = lvk.forms.is_closed(w)
    if not witness.closed:
        raise lvk.errors.NotClosed(f"form is not closed at pair {witness.pair}")
    result = lvk.integrator.integrate_closed(w, check=False)
    return lvk.integrator.differentiate(result)


def roundtrip_check(lvk, case, output) -> bool:
    return output == case.data[0]


# -- planted -----------------------------------------------------------------------


def _poly_det(rows):
    """Determinant of a small square matrix of polynomials, by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]
    for c, head in enumerate(rows[0]):
        if not head.is_zero():
            term = head * _poly_det([r[:c] + r[c + 1:] for r in rows[1:]])
            total = total - term if c % 2 else total + term
    return total


def _field_from_integrals(lvk, integrals, n):
    """Component j is (-1)^j times the gradient minor without column j, cleared.

    Row k of the gradient of H_k = N_k/D_k is (D_k dN_k - N_k dD_k)/D_k^2, so
    every minor is a polynomial minor over the common denominator prod D_k^2;
    clearing it leaves the polynomial minors divided by their gcd with it.
    """
    rows, den = [], lvk.MultiPoly.one(n)
    for h in integrals:
        rows.append([h.den * h.num.derivative(i) - h.num * h.den.derivative(i) for i in range(n)])
        den = den * h.den * h.den
    minors = [_poly_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
    if all(m.is_zero() for m in minors):
        return None
    common = den
    for m in minors:
        if not m.is_zero() and not common.is_constant():
            common = lvk.gcd_multivar(common, m)
    comps = [lvk.exact_div(m if j % 2 == 0 else -m, common) for j, m in enumerate(minors)]
    return lvk.PolyVectorField([f"x{i + 1}" for i in range(n)], comps)


def _planted_system(lvk, shape, coef, n):
    while True:
        integrals = [
            lvk.RatFunc(
                random_poly(lvk, shape, coef, n, max_deg=2, max_terms=3),
                random_poly(lvk, shape, coef, n, max_deg=1, max_terms=2, nonzero=True),
            )
            for _ in range(n - 1)
        ]
        X = _field_from_integrals(lvk, integrals, n)
        if X is not None and max(c.total_degree() for c in X.components) <= PLANTED_DEGREE_CAP:
            return X, integrals


def fixed_family(lvk, family: str, n: int):
    """``linear``: dx_i = x_i, H = x/x_i; ``scale``: dx_i = i*x_i, H = x^i/x_i."""
    names = [f"x{i + 1}" for i in range(n)]
    rate = (lambda i: 1) if family == "linear" else (lambda i: i + 1)
    X = lvk.PolyVectorField(
        names,
        [lvk.MultiPoly.variable(n, i).scale(rate(i)) for i in range(n)],
    )
    x = lvk.RatFunc(lvk.MultiPoly.variable(n, 0))
    H = [x ** rate(i) / lvk.RatFunc(lvk.MultiPoly.variable(n, i)) for i in range(1, n)]
    return X, H


def planted_cases(lvk, seed: int) -> Workload:
    coef = random.Random(seed)
    cases = []
    for n, count in PLANTED_DRAWN.items():
        for k in range(count):
            label = f"drawn{n}-{k}"
            if label in PLANTED_EXCLUDED:
                continue
            # one shape generator per system, so a redraw that depends on the
            # coefficients cannot shift the shapes of the systems after it
            shape = random.Random(f"{PLANTED_SHAPE_SEED}:{n}:{k}")
            cases.append(Case(label, _planted_system(lvk, shape, coef, n)))
    fixed = []
    for family in FIXED_FAMILIES:
        for n in FIXED_ARITIES:
            fixed.append(f"{family}{n}")
            cases.append(Case(f"{family}{n}", fixed_family(lvk, family, n)))
    return Workload(
        "planted",
        "seeded theorem-2 systems with planted rational first integrals; Gamma "
        "determinants and gcd-heavy RatFunc normalization do the work",
        cases,
        {**{f"n{n}": c for n, c in PLANTED_DRAWN.items()}, "fixed": len(fixed),
         "degree_cap": PLANTED_DEGREE_CAP, "excluded": sorted(PLANTED_EXCLUDED)},
        fixed,
    )


def planted_operate(lvk, case):
    X, integrals = case.data
    return lvk.pipeline.theorem2_pipeline(X, integrals)


def planted_check(lvk, case, output) -> bool:
    X, integrals = case.data
    reduced, _ = lvk.pipeline._strip_common_factor(X)
    if not lvk.darboux.multiplier_residual(reduced, output.multiplier).is_zero():
        return False
    return all(X.lie_derivative_ratfunc(H).is_zero() for H in integrals)


WORKLOADS = {
    "catalog": (catalog_cases, catalog_operate, catalog_check),
    "roundtrip": (roundtrip_cases, roundtrip_operate, roundtrip_check),
    "planted": (planted_cases, planted_operate, planted_check),
}
