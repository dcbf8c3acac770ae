"""End-to-end acceptance checks: exact identities, golden values, properties.

Each test prints one PASS line on success; any failure is an exact algebraic
mismatch, never a tolerance issue.
"""

import random
import shlex
import time
from fractions import Fraction

from lvk.darboux import (
    DarbouxFunction,
    is_jacobian_multiplier,
    multiplier_residual,
    synthesize,
)
from lvk.forms import is_closed
from lvk.integrator import IntegrationResult, differentiate, integrate_closed
from lvk.parsing import parse_poly, parse_ratfunc
from lvk.pipeline import (
    _strip_common_factor,
    first_integral_2d,
    multiplier_from_rational_integrals,
    ratio_first_integrals,
)
from lvk.ratfunc import RatFunc
from lvk.residues import ResidueGroup, qpoly_render, rothstein_trager
from lvk.unipoly import UniPoly
from lvk.vectorfield import parse_system

from conftest import CATALOG, random_poly

F = Fraction


def _catalog_runs():
    """(name, flags) per catalog entry, flags collected from the .cmd files."""
    out = []
    for cmd in sorted(CATALOG.glob("*.cmd")):
        argv = shlex.split(cmd.read_text().replace("{dir}", str(CATALOG)))
        flags: dict = {"command": argv[0]}
        i = 1
        while i < len(argv):
            key = argv[i]
            if key == "--json":
                i += 1
                continue
            val = argv[i + 1]
            flags.setdefault(key, []).append(val)
            i += 2
        out.append((cmd.stem, flags))
    return out


def test_criterion_1_multiplier_construction_pipeline():
    start = time.perf_counter()
    names = ["x", "y", "z"]
    X = parse_system("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
    H = [parse_ratfunc("x/y", names), parse_ratfunc("x/z", names)]
    d = multiplier_from_rational_integrals(X, H)
    assert d.gamma == parse_ratfunc("x/(y^2*z)", names)
    assert [c.render(names) for c in d.a_form.components] == ["-1/x", "2/y", "2/z"]
    pairing = RatFunc.zero(3)
    for a, P in zip(d.a_form.components, X.components):
        pairing = pairing + a * RatFunc(P)
    assert pairing == RatFunc.constant(3, 3)
    assert RatFunc(X.divergence()) == RatFunc.constant(3, 3)
    J = d.result
    assert J.is_rational() and J.to_ratfunc() == parse_ratfunc("x/(y^2*z^2)", names)
    # div(J P) = 0 as an exact zero of the log-level identity J * (w.P + div P)
    assert multiplier_residual(X, J).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"CRITERION 1: PASS (multiplier pipeline exact, {elapsed:.3f}s)")


def test_criterion_2_integrating_factor_first_integral():
    start = time.perf_counter()
    names = ["x", "y"]
    X = parse_system("vars x, y\ndx = x\ndy = y\n")
    sols = synthesize(
        X, [parse_poly("x", names), parse_poly("y", names)], [], target="multiplier"
    )
    assert sols and sols[0].render(names) == "x^-1 * y^-1"
    r = first_integral_2d(X, sols[0])
    assert r.render(names) == "log(x) - log(y)"
    grad = differentiate(r)
    total = RatFunc.zero(2)
    for g, P in zip(grad.components, X.components):
        total = total + g * RatFunc(P)
    assert total.is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"CRITERION 2: PASS (2D first integral exact, {elapsed:.3f}s)")


def test_criterion_3_integrator_roundtrip_200():
    start = time.perf_counter()
    rng = random.Random(20260823)
    done = 0
    while done < 200:
        arity = rng.randint(1, 3)
        groups = []
        for _ in range(rng.randint(0, 3)):
            base = random_poly(rng, arity, max_deg=2, max_terms=3, nonzero=True)
            if base.is_constant():
                continue
            c = F(rng.choice([1, -1, 2, -2, 3, -3])) / rng.choice([1, 2])
            groups.append(
                (ResidueGroup(minpoly=(-c, F(1)), arg=(RatFunc(base),)), F(1))
            )
        num = random_poly(rng, arity, max_deg=3, max_terms=3)
        den = random_poly(rng, arity, max_deg=2, max_terms=2, nonzero=True)
        psi = IntegrationResult(
            log_groups=tuple(groups), rat_part=RatFunc(num, den)
        )
        w = differentiate(psi)
        if w.is_zero():
            continue
        back = differentiate(integrate_closed(w))
        assert back == w, f"roundtrip failed for {psi.render()}"
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 3: PASS (200 exact roundtrips, {elapsed:.1f}s)")


def test_criterion_4_log_derivatives_are_closed():
    rng = random.Random(4)
    for _ in range(100):
        arity = rng.randint(2, 3)
        factors = []
        for _ in range(rng.randint(0, 2)):
            f = random_poly(rng, arity, max_deg=2, max_terms=3, nonzero=True)
            if f.is_constant():
                continue
            factors.append((f, F(rng.randint(-3, 3), rng.randint(1, 3))))
        num = random_poly(rng, arity, max_deg=2, max_terms=2)
        den = random_poly(rng, arity, max_deg=1, max_terms=2, nonzero=True)
        d = DarbouxFunction(RatFunc(num, den), factors=factors)
        assert is_closed(d.log_derivative()).closed
    print("CRITERION 4: PASS (100 log-derivatives exactly closed)")


def test_criterion_5_catalog_multipliers_satisfy_identity():
    checked = 0
    for name, flags in _catalog_runs():
        if flags["command"] == "pipeline" and flags.get("--mode") == ["theorem2"]:
            X = parse_system(open(flags["--system"][0]).read())
            names = list(X.var_names)
            H = [parse_ratfunc(e, names) for e in flags["--integral"]]
            d = multiplier_from_rational_integrals(X, H)
            reduced, _ = _strip_common_factor(X)
            assert multiplier_residual(reduced, d.result).is_zero(), name
            checked += 1
        elif flags["command"] == "synthesize" and flags.get("--target") == [
            "multiplier"
        ]:
            X = parse_system(open(flags["--system"][0]).read())
            names = list(X.var_names)
            polys = [parse_poly(e, names) for e in flags.get("--poly", [])]
            for J in synthesize(X, polys, [], target="multiplier"):
                assert multiplier_residual(X, J).is_zero(), name
                checked += 1
    assert checked >= 8
    print(f"CRITERION 5: PASS ({checked} catalog multipliers, identity exact)")


def test_criterion_6_determinant_cancellation_over_catalog():
    checked = 0
    for name, flags in _catalog_runs():
        if flags["command"] != "pipeline" or flags.get("--mode") != ["theorem2"]:
            continue
        X = parse_system(open(flags["--system"][0]).read())
        names = list(X.var_names)
        H = [parse_ratfunc(e, names) for e in flags["--integral"]]
        d = multiplier_from_rational_integrals(X, H)
        residual = d.gamma.derivative(d.last_var)
        for i, gamma_i in zip(d.columns, d.gammas):
            residual = residual - gamma_i.derivative(i)
        assert residual.is_zero(), name
        checked += 1
    assert checked >= 6
    print(f"CRITERION 6: PASS ({checked} determinant cancellations exact)")


def test_criterion_7_algebraic_residue_group():
    names = ["x"]
    num = UniPoly.of_poly(parse_poly("1", names), 0)
    den = UniPoly.of_poly(parse_poly("x^2 - 2", names), 0)
    groups = rothstein_trager(num, den)
    assert len(groups) == 1
    g = groups[0]
    assert qpoly_render(g.minpoly, "t") == "8*t^2 - 1"
    assert [c.render(names) for c in g.arg] == ["x", "-4"]
    assert g.log_derivative(0) == parse_ratfunc("1/(x^2 - 2)", names)
    print("CRITERION 7: PASS (residue group (8*t^2 - 1, x - 4*t), derivative exact)")


def test_criterion_8_rank_invariance():
    rng = random.Random(8)
    X = parse_system("vars x, y, z, w\ndx = x\ndy = y\ndz = z\ndw = w\n")
    names = ["x", "y", "z", "w"]
    variables = [parse_poly(n, names) for n in names]

    def random_multiplier():
        # monomial multipliers: exponents summing to -div P = -4
        exps = [rng.randint(-3, 2) for _ in range(3)]
        exps.append(-4 - sum(exps))
        return DarbouxFunction(
            RatFunc.zero(4),
            factors=[(v, F(e)) for v, e in zip(variables, exps) if e],
        )

    for _ in range(50):
        Js = [random_multiplier() for _ in range(3)]
        for J in Js:
            assert is_jacobian_multiplier(X, J).ok
        base = ratio_first_integrals(X, Js).certificate.rank
        scales = [F(rng.randint(1, 5)) for _ in range(3)]
        scaled = [
            J * DarbouxFunction(RatFunc.zero(4), scale=c)
            for J, c in zip(Js, scales)
        ]
        perm = list(range(3))
        rng.shuffle(perm)
        shuffled = [scaled[i] for i in perm]
        assert ratio_first_integrals(X, shuffled).certificate.rank == base
    print("CRITERION 8: PASS (50 rank-invariance trials)")
