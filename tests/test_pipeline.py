import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from lvk import forms, linalg, pipeline, ratfunc
from lvk.cli import main
from lvk.darboux import DarbouxFunction, is_first_integral, multiplier_residual
from lvk.errors import DegreeCapExceeded, ParseError, VerificationError
from lvk.forms import OneForm, is_closed
from lvk.integrator import differentiate
from lvk.multipoly import MultiPoly, exact_div, gcd_multivar
from lvk.parsing import parse_darboux, parse_ratfunc
from lvk.pipeline import (
    ClosedFormUnavailable,
    _inverse_by_levels,
    _strip_common_factor,
    first_integral_2d,
    gamma_determinants,
    multiplier_from_rational_integrals,
    ratio_first_integrals,
    theorem2_pipeline,
)
from lvk.ratfunc import RatFunc, fraction_sum
from lvk.vectorfield import PolyVectorField, parse_system

from conftest import CATALOG, bench_cases, catalog_entries, lie_derivative_log, random_poly

N3 = ["x", "y", "z"]
LINEAR3 = parse_system("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
LINEAR2 = parse_system("vars x, y\ndx = x\ndy = y\n")


def R3(e):
    return parse_ratfunc(e, N3)


# -- gamma determinants ---------------------------------------------------------


def test_gamma_golden_three_variables():
    gamma, gammas, cols, lv = gamma_determinants(LINEAR3, [R3("x/y"), R3("x/z")])
    assert lv == 2 and cols == [0, 1]
    assert gamma == R3("x/(y^2*z)")
    assert gammas[0] == R3("-x^2/(y^2*z^2)")
    assert gammas[1] == R3("-x/(y*z^2)")


def test_gamma_two_variables():
    names = ["x", "y"]
    gamma, gammas, cols, lv = gamma_determinants(
        LINEAR2, [parse_ratfunc("x/y", names)]
    )
    assert gamma == parse_ratfunc("1/y", names)
    assert gammas[0] == parse_ratfunc("-x/y^2", names)


def test_gamma_rejects_constant_integral():
    with pytest.raises(VerificationError):
        gamma_determinants(LINEAR3, [R3("1"), R3("x/z")])


def test_gamma_rejects_a_one_variable_system():
    with pytest.raises(VerificationError):
        gamma_determinants(parse_system("vars x\ndx = x\n"), [])


def test_gamma_rejects_non_integral():
    with pytest.raises(VerificationError):
        gamma_determinants(LINEAR3, [R3("x"), R3("x/z")])


@pytest.mark.parametrize(
    "integral, residual", [("x + y", "x + y"), ("(x + 1)/z", "-1/z")]
)
def test_non_integral_keeps_its_message_and_residual(integral, residual):
    # X(H) = 0 is decided on the cleared gradient row; the message still
    # carries X(H) in lowest terms, as lie_derivative_ratfunc gives it
    X = parse_system((CATALOG / "linear3.system").read_text())
    H = R3(integral)
    assert X.lie_derivative_ratfunc(H).render(N3) == residual
    with pytest.raises(VerificationError) as err:
        gamma_determinants(X, [R3("x/y"), H])
    assert str(err.value) == f"{integral} is not a first integral (residual {residual})"


def test_gamma_rejects_an_integral_of_another_arity():
    with pytest.raises(ParseError, match="arity mismatch"):
        gamma_determinants(LINEAR3, [R3("x/y"), parse_ratfunc("x/y", ["x", "y"])])


def test_gamma_falls_back_to_other_last_variable():
    # integrals independent of z force the z-column determinant to vanish;
    # the construction must pick another distinguished variable
    X = parse_system("vars x, y, z\ndx = x\ndy = y\ndz = 0\n")
    H = [R3("x/y"), R3("z")]
    gamma, gammas, cols, lv = gamma_determinants(X, H)
    assert lv != 2
    assert not gamma.is_zero()


# -- planted systems: n-1 rational integrals and the field they are integrals of -----


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


def _cleared_gradients(integrals, n):
    """Polynomial rows and their common denominator: the gradient matrix is rows / den.

    Row k of the gradient of H_k = N_k/D_k is (D_k dN_k - N_k dD_k)/D_k^2, so
    every minor is a polynomial minor over the common denominator prod D_k^2.
    """
    rows, den = [], MultiPoly.one(n)
    for h in integrals:
        rows.append([h.den * h.num.derivative(i) - h.num * h.den.derivative(i) for i in range(n)])
        den = den * h.den * h.den
    return rows, den


def _field_from_integrals(integrals, n):
    """Component j is (-1)^j times the gradient minor without column j, cleared.

    Clearing the minors over prod D_k^2 leaves the polynomial minors divided
    by their gcd with it.
    """
    rows, den = _cleared_gradients(integrals, n)
    minors = [_poly_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
    if all(m.is_zero() for m in minors):
        return None
    common = den
    for m in minors:
        if not m.is_zero() and not common.is_constant():
            common = gcd_multivar(common, m)
    comps = [exact_div(m if j % 2 == 0 else -m, common) for j, m in enumerate(minors)]
    return PolyVectorField([f"x{i + 1}" for i in range(n)], comps)


def _without_first_variable(p):
    terms = {e: c for e, c in p.terms.items() if e[0] == 0}
    return MultiPoly(p.arity, terms) if terms or p.is_zero() else MultiPoly.one(p.arity)


def _planted_system(rng, n, variant="generic", degree_cap=None):
    """n-1 random rational integrals and a polynomial field they are first integrals of.

    ``no-x1``: no integral involves x1, so the field is (P_1, 0, ..., 0).
    ``last``: the first integral is x_n, so the field's last component is 0.
    """
    while True:
        integrals = []
        for _ in range(n - 1):
            num = random_poly(rng, n, max_deg=2, max_terms=3)
            den = random_poly(rng, n, max_deg=1, max_terms=2, nonzero=True)
            if variant == "no-x1":
                num, den = _without_first_variable(num), _without_first_variable(den)
            integrals.append(RatFunc(num, den))
        if variant == "last":
            integrals[0] = RatFunc(MultiPoly.variable(n, n - 1))
        X = _field_from_integrals(integrals, n)
        if X is None:
            continue
        if degree_cap is None or max(c.total_degree() for c in X.components) <= degree_cap:
            return X, integrals


def _minor(integrals, cols):
    """The gradient minor on cols, by cofactor expansion of the cleared rows."""
    rows, den = _cleared_gradients(integrals, integrals[0].arity)
    return RatFunc(_poly_det([[row[c] for c in cols] for row in rows]), den)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gamma_one_elimination_matches_every_minor(n):
    rng = random.Random(600 + n)
    last_zero = 0
    for k in range(6 if n < 5 else 4):
        variant = ("generic", "no-x1", "last")[k % 3]
        X, H = _planted_system(rng, n, variant, degree_cap=4)
        last_zero += X.components[-1].is_zero()
        complementary = [_minor(H, [c for c in range(n) if c != v]) for v in range(n)]
        admissible = [v for v in range(n) if not complementary[v].is_zero()]
        gamma, gammas, cols, lv = gamma_determinants(X, H)
        assert lv == max(admissible)
        assert cols == [c for c in range(n) if c != lv]
        assert gamma == complementary[lv]
        for pos in range(n - 1):
            replaced = list(cols)
            replaced[pos] = lv
            assert gammas[pos] == _minor(H, replaced)
        for v in range(n):
            if v in admissible:
                g, gs, cs, chosen = gamma_determinants(X, H, last_var=v)
                assert chosen == v and g == complementary[v]
                assert cs == [c for c in range(n) if c != v]
            else:
                with pytest.raises(VerificationError):
                    gamma_determinants(X, H, last_var=v)
    assert last_zero >= 2


@pytest.mark.parametrize("n", [3, 4])
def test_theorem2_pipeline_on_planted_systems(n):
    rng = random.Random(700 + n)
    last_zero = 0
    for k in range(8):
        variant = ("generic", "generic", "no-x1", "last")[k % 4]
        X, H = _planted_system(rng, n, variant, degree_cap=2)
        last_zero += X.components[-1].is_zero()
        report = theorem2_pipeline(X, H)
        for name, residual in report.derivation.identities:
            assert residual.is_zero(), name
        reduced, _ = _strip_common_factor(X)
        assert multiplier_residual(reduced, report.multiplier).is_zero()
        # what is printed reads back as the same function
        names = list(X.var_names)
        back = parse_darboux(report.multiplier.render(names), names)
        assert back.scale == report.multiplier.scale
        assert back.log_derivative() == report.multiplier.log_derivative()
    assert last_zero >= 2


@pytest.mark.parametrize(
    "seed, n, draw, variants, render",
    [
        (
            904,
            4,
            16,
            ("generic",),
            "(x3 + 8)^-2 * (x1^2 - 8/3*x1*x2 - 2*x1 + 16/3*x2)^-2 * (x1^2*x3^2 "
            "+ 1/3*x1*x3^3 + 32/3*x1^2*x3 + 4/3*x1*x3^2 - 2/3*x3^3 - 2/9*x1^2 "
            "- 64/3*x1*x3 - 21/4*x3^2 + 8/9*x1 + 1/18)",
        ),
        (905, 5, 28, ("generic",), None),
        (605, 5, 4, ("generic", "no-x1", "last"), "(x2 - 2*x4)^-2 * (x3 + 8*x4)^-2 * x4^-1"),
    ],
    ids=["904", "905", "605"],
)
def test_theorem2_pipeline_on_former_outliers(seed, n, draw, variants, render):
    # uncapped draws whose multiplier took seconds (904) or minutes (905)
    # when it was built by integrating -d log h, and whose Gamma, by
    # elimination over RatFunc, took 0.29 s (605, drawn with the variants of
    # test_gamma_one_elimination_matches_every_minor); each render is the one
    # that integration made
    rng = random.Random(seed)
    for k in range(draw):
        X, H = _planted_system(rng, n, variants[k % len(variants)])
    report = theorem2_pipeline(X, H)
    for name, residual in report.derivation.identities:
        assert residual.is_zero(), name
    reduced, _ = _strip_common_factor(X)
    assert multiplier_residual(reduced, report.multiplier).is_zero()
    if render is not None:
        assert report.multiplier.render(list(X.var_names)) == render


def test_multiplier_runs_one_fraction_free_elimination(monkeypatch):
    # Gamma and the Gamma_i come from one elimination of the cleared gradient
    # rows, and the construction runs no other (no solve, no rank)
    calls = []
    original = linalg._fraction_free

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    # at every lvk module that binds it, so an import by name is counted too
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "lvk"]:
        if getattr(module, "_fraction_free", None) is original:
            monkeypatch.setattr(module, "_fraction_free", counted)
    d = multiplier_from_rational_integrals(LINEAR3, [R3("x/y"), R3("x/z")])
    assert d.result.render(N3) == "x * y^-2 * z^-2"
    assert all(r.is_zero() for _, r in d.identities)
    assert calls == [2]
    rng = random.Random(703)
    X, H = _planted_system(rng, 3, degree_cap=2)
    d = multiplier_from_rational_integrals(X, H)
    assert d.result.render(list(X.var_names)) == "x2"
    assert all(r.is_zero() for _, r in d.identities)
    assert calls == [2, 2]


# -- the pairing <A, P> = div P as a zero test -----------------------------------
#
# The construction certifies no pairing of its own: for J = c/h, div(J P) =
# J (div P - <A, P>), so multiplier-residual covers it.  These tests use the
# pairing as a fraction_sum case over the derived A-forms.


def _planted_pairings():
    """(reduced field, A-form) of every seed-5 planted system."""
    out = []
    for case in bench_cases("planted"):
        X, H = case.data
        out.append((_strip_common_factor(X)[0], theorem2_pipeline(X, H).derivation.a_form))
    return out


def _normalized_pairing(X, a_form):
    """div P - sum a_i P_i, one normalized RatFunc product and sum per variable."""
    pairing = RatFunc(X.divergence())
    for a, c in zip(a_form.components, X.components):
        pairing = pairing - a * RatFunc(c)
    return pairing


def _pairing_terms(target, w, P):
    """target - sum_i w_i P_i as fraction_sum's terms: numerators over the w_i's denominators."""
    return [(target, MultiPoly.one(target.arity))] + [(-(wi.num * Pi), wi.den) for wi, Pi in zip(w, P)]


def _pairing(target, w, P):
    return fraction_sum(target.arity, _pairing_terms(target, w, P))


def test_pairing_zero_test_on_planted_a_forms():
    scaled_any = 0
    for X, a_form in _planted_pairings():
        assert _pairing(X.divergence(), a_form.components, X.components).is_zero()
        assert _normalized_pairing(X, a_form).is_zero()
        # scaling a_k by 2 adds a_k P_k, nonzero when both factors are
        pairs = zip(a_form.components, X.components)
        k = next((i for i, (a, c) in enumerate(pairs) if not (a.is_zero() or c.is_zero())), None)
        if k is None:
            continue
        comps = list(a_form.components)
        comps[k] = comps[k].scale(2)
        scaled = OneForm(comps)
        # the reported residual equals the per-variable normalized loop's
        residual = _pairing(X.divergence(), scaled.components, X.components)
        assert not residual.is_zero()
        assert residual == _normalized_pairing(X, scaled)
        assert residual == RatFunc(X.divergence()) - lie_derivative_log(X, scaled)
        scaled_any += 1
    assert scaled_any >= 20


def _over_lcm_capped(*args):
    raise DegreeCapExceeded("forced")


def test_pairing_fallback_reports_the_same_identities(monkeypatch):
    # with fraction_sum's sum over the lcm forced past the degree cap, the
    # term-by-term normalized sum decides every theorem-2 certificate, and
    # each reads as it does through the zero test
    cases = bench_cases("planted")[:5]
    expected = [theorem2_pipeline(*case.data).derivation.identities for case in cases]
    monkeypatch.setattr(ratfunc, "_over_lcm", _over_lcm_capped)
    for case, identities in zip(cases, expected):
        assert theorem2_pipeline(*case.data).derivation.identities == identities


def test_pairing_past_the_degree_cap_is_the_normalized_sum(monkeypatch):
    # at a cap of the terms' largest degree the sum over the lcm passes the
    # cap unless the denominators divide one another; fraction_sum then sums
    # term by term instead of raising, and both the zero pairing and a
    # failing one read as the normalized loop's residual
    cases = []
    for X, a_form in _planted_pairings():
        comps = list(a_form.components)
        pairs = zip(comps, X.components)
        k = next((i for i, (a, c) in enumerate(pairs) if not (a.is_zero() or c.is_zero())), None)
        if k is None:
            continue
        comps[k] = comps[k].scale(2)
        scaled = OneForm(comps)
        for form, value in ((a_form, RatFunc.zero(X.arity)), (scaled, _normalized_pairing(X, scaled))):
            cases.append((_pairing_terms(X.divergence(), form.components, X.components), value))
    past = 0
    for terms, value in cases:
        arity = value.arity
        monkeypatch.setenv("LVK_MAX_DEGREE", str(max(q.total_degree() for t in terms for q in t)))
        try:
            ratfunc._over_lcm(arity, terms, 1)
        except DegreeCapExceeded:
            past += 1
        assert fraction_sum(arity, terms) == value
    assert past >= 15


def test_fraction_sum_decides_log_derivative_sums():
    # X(log F) = sum w_i P_i for w = d log F on the linear field: 0 for x/y
    # and x*y/(x + z)^2, 2 for x*y, 1 for x*y/(x + z)
    def d_log(text):
        F = R3(text)
        return [F.log_derivative(i) for i in range(3)]

    zero, two = MultiPoly.zero(3), MultiPoly.constant(3, 2)
    assert _pairing(zero, d_log("x/y"), LINEAR3.components).is_zero()
    assert _pairing(zero, d_log("x*y"), LINEAR3.components) == R3("-2")
    assert _pairing(two, d_log("x*y"), LINEAR3.components).is_zero()
    assert _pairing(two, d_log("x*y/(x + z)"), LINEAR3.components) == R3("1")
    assert _pairing(zero, d_log("x*y/(x + z)^2"), LINEAR3.components).is_zero()


# -- multiplier construction ------------------------------------------------------


def _assert_squarefree_split_of_inverse(J, h):
    """J h is a nonzero constant; J's bases are nonconstant and pairwise coprime."""
    product = J.to_ratfunc() * h
    assert product.is_constant() and not product.is_zero()
    bases = [b for b, _ in J.factors]
    assert not any(b.is_constant() for b in bases)
    for i, a in enumerate(bases):
        for b in bases[i + 1 :]:
            assert gcd_multivar(a, b).is_constant()


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("n", [3, 4])
def test_inverse_by_levels_on_planted_systems(seed, n):
    rng = random.Random(10 * seed + n)
    for _ in range(12):
        X, H = _planted_system(rng, n)
        d = multiplier_from_rational_integrals(X, H)
        _assert_squarefree_split_of_inverse(d.result, d.h)


@pytest.mark.parametrize(
    "multiplier, render",
    [
        # x + 1 and x + y share the exponent -1 at the x level: one part
        ("1/((x + 1)*(x + y)*(x - z)^2)", "(x - z)^-2 * (x^2 + x*y + x + y)^-1"),
        # x*y + 1 is primitive in x; its cofactor y + 1 is the content that
        # the y level splits
        ("1/((x*y + 1)*(y + 1))", "(y + 1)^-1 * (x*y + 1)^-1"),
        (
            "(x*y + 1)^2*(y*z - 1)/(3*(x*z + y)*(z + 2))",
            "(z + 2)^-1 * (x*y + 1)^2 * (x*z + y)^-1 * (y*z - 1)",
        ),
        # constant leading coefficients set no scale: J is 1/h up to a constant
        ("(y + 2*z^2)/(3*x*y + z^2)", "(x*y + 1/3*z^2)^-1 * (z^2 + 1/2*y)"),
        # a constant h: no factor at all
        ("5", "1"),
    ],
)
def test_inverse_by_levels_by_hand(multiplier, render):
    h = R3(multiplier).inverse()
    got = _inverse_by_levels(h)
    assert got.render(N3) == render
    _assert_squarefree_split_of_inverse(got, h)




def test_multiplier_derivation_golden():
    d = multiplier_from_rational_integrals(LINEAR3, [R3("x/y"), R3("x/z")])
    assert d.h == R3("y^2*z^2/x")
    assert [c.render(N3) for c in d.a_form.components] == ["-1/x", "2/y", "2/z"]
    assert d.result.render(N3) == "x * y^-2 * z^-2"
    assert all(r.is_zero() for _, r in d.identities)
    names = [n for n, _ in d.identities]
    assert names == ["cramer[x]", "cramer[y]", "multiplier-residual"]


def test_multiplier_two_variables():
    names = ["x", "y"]
    d = multiplier_from_rational_integrals(LINEAR2, [parse_ratfunc("x/y", names)])
    # h = P2/Gamma = y^2, A = (0, 2/y), J = 1/y^2
    assert d.h == parse_ratfunc("y^2", names)
    assert d.result.render(names) == "y^-2"


def test_divergence_free_gives_constant_multiplier():
    X = parse_system(
        "vars x, y, z\n"
        "dx = x*y - x*z\n"
        "dy = y*z - x*y\n"
        "dz = x*z - y*z\n"
    )
    d = multiplier_from_rational_integrals(X, [R3("x + y + z"), R3("x*y*z")])
    assert d.result.is_rational()
    assert d.result.to_ratfunc() == RatFunc.one(3)


def test_common_factor_stripped_with_warning():
    X = parse_system("vars x, y, z\ndx = x*z\ndy = y*z\ndz = z^2\n")
    d = multiplier_from_rational_integrals(X, [R3("x/y"), R3("x/z")])
    assert d.warnings and "z" in d.warnings[0]
    assert d.result.render(N3) == "x * y^-2 * z^-2"


def test_theorem2_report():
    rep = theorem2_pipeline(LINEAR3, [R3("x/y"), R3("x/z")])
    assert rep.multiplier is rep.derivation.result


def test_theorem2_certifies_the_multiplier_through_is_jacobian_multiplier(monkeypatch):
    # the multiplier identity has one implementation, the check verify runs
    import lvk.pipeline

    calls = []
    check = lvk.pipeline.is_jacobian_multiplier

    def counted(X, D):
        calls.append(check(X, D))
        return calls[-1]

    monkeypatch.setattr(lvk.pipeline, "is_jacobian_multiplier", counted)
    for case in bench_cases("planted")[:5]:
        calls.clear()
        identities = dict(theorem2_pipeline(*case.data).derivation.identities)
        assert len(calls) == 1
        assert calls[0].ok and identities["multiplier-residual"] == calls[0].residual


def test_multiplier_identity_catches_a_wrong_split_of_the_inverse(monkeypatch, capsys):
    # A wrong split of 1/h: every exponent doubled, so J = 1/h^2.  Then
    # div(J P) = J (div P - 2 <d log h, P>) = -J div P, since <d log h, P> =
    # div P for the true h.  So it fails wherever the reduced field's
    # divergence is nonzero; the multiplier identity on the printed J alone
    # catches it.
    planted = next(
        case
        for case in bench_cases("planted")
        if not multiplier_from_rational_integrals(*case.data).h.is_constant()
        and not _strip_common_factor(case.data[0])[0].divergence().is_zero()
    )

    def squared(h):
        J = _inverse_by_levels(h)
        return DarbouxFunction(J.exp_arg, factors=[(b, 2 * e) for b, e in J.factors])

    monkeypatch.setattr(pipeline, "_inverse_by_levels", squared)
    for X, integrals in ((LINEAR3, [R3("x/y"), R3("x/z")]), planted.data):
        with pytest.raises(VerificationError, match="^constructed function failed the multiplier identity$"):
            multiplier_from_rational_integrals(X, integrals)
    argv = dict(catalog_entries())["linear3"]
    assert main(argv) == 3
    assert "constructed function failed the multiplier identity" in capsys.readouterr().err


def _theorem2_inputs():
    """(X, integrals) of every catalog theorem-2 invocation and seed-5 planted case."""
    out = []
    for _, argv in catalog_entries():
        if "theorem2" in argv:
            X = parse_system(Path(argv[argv.index("--system") + 1]).read_text())
            names = list(X.var_names)
            out.append((X, [parse_ratfunc(e, names) for a, e in zip(argv, argv[1:]) if a == "--integral"]))
    assert len(out) == 7
    return out + [case.data for case in bench_cases("planted")]


def test_theorem2_normalizes_only_h(monkeypatch):
    # the certificates run on the minors over L^2, so h = P_last L^2 / g is
    # the one RatFunc the construction reduces to lowest terms
    built, init = [], RatFunc.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    inputs = _theorem2_inputs()
    monkeypatch.setattr(RatFunc, "__init__", counted)
    for X, integrals in inputs:
        built.clear()
        d = multiplier_from_rational_integrals(X, integrals)
        assert len(built) == 1 and built[0] is d.h


def test_reported_gammas_are_the_gamma_determinants():
    # Gamma depends on the integrals alone, so stripping a common factor of
    # the components does not change it
    for X, integrals in _theorem2_inputs():
        d = multiplier_from_rational_integrals(X, integrals)
        gamma, gammas, cols, lv = gamma_determinants(X, integrals)
        assert (d.gamma, d.gammas, d.columns, d.last_var) == (gamma, gammas, cols, lv)
        # the minors are stored over L^2 itself, L the product of the
        # integrals' denominators, formed once for every reader
        den = MultiPoly.one(X.arity)
        for H in integrals:
            den = den * H.den
        assert d.minors[2] == den * den
        # the divergence identity, which the multiplier residual covers
        # once the Cramer identities hold, on the reported minors
        divergence = gamma.derivative(lv)
        for i, gamma_i in zip(cols, gammas):
            divergence = divergence - gamma_i.derivative(i)
        assert divergence.is_zero()


def test_theorem2_builds_no_a_form(monkeypatch):
    # d log h and its closedness are not certified: the multiplier identity
    # on J = 1/h covers the pairing, and d(d log h) = 0 is calculus
    cases = bench_cases("planted")
    calls = Counter()
    closed, log_derivative = forms.is_closed, RatFunc.log_derivative

    def counted_closed(w):
        calls["is_closed"] += 1
        return closed(w)

    def counted_log_derivative(self, i):
        calls["log_derivative"] += 1
        return log_derivative(self, i)

    for module in [m for name, m in sys.modules.items() if name.startswith("lvk")]:
        if getattr(module, "is_closed", None) is closed:
            monkeypatch.setattr(module, "is_closed", counted_closed)
    monkeypatch.setattr(RatFunc, "log_derivative", counted_log_derivative)
    for case in cases:
        theorem2_pipeline(*case.data)
    assert calls == Counter()


# -- multiplier ratios and the 2D integral ------------------------------------------


def test_ratio_first_integrals_golden():
    J1 = parse_darboux("1/(x*y*z)", N3) * parse_darboux("x/y", N3)
    J2 = parse_darboux("1/(x*y*z)", N3)
    res = ratio_first_integrals(LINEAR3, [J1, J2])
    # the ratio J1/J2 in lowest terms, certified by the one Darboux check
    (ratio,) = res.forms
    assert ratio.render(N3) == "x * y^-1"
    assert ratio.to_ratfunc() == R3("x/y")
    assert [r.is_zero() for r in res.residuals] == [True]
    assert is_first_integral(LINEAR3, ratio)
    assert not res.dependent
    assert res.certificate.rank == 1
    # the rank row d log(J1/J2) is d log J1 - d log J2: closed and annihilates P
    row = ratio.log_derivative()
    w1, w2 = J1.log_derivative(), J2.log_derivative()
    assert list(row.components) == [a - b for a, b in zip(w1.components, w2.components)]
    assert is_closed(row).closed
    assert lie_derivative_log(LINEAR3, row).is_zero()


def test_ratio_of_non_rational_multipliers_stays_a_darboux_function():
    # x^a y^b z^c is a multiplier of LINEAR3 when a + b + c = -3
    J1 = parse_darboux("x^(-1/2) * y^(-3/2) * z^-1", N3)
    J2 = parse_darboux("x^(-1/3) * y^(-5/3) * z^-1", N3)
    (ratio,) = ratio_first_integrals(LINEAR3, [J1, J2]).forms
    assert not ratio.is_rational()
    text = ratio.render(N3)
    assert text == "x^(-1/6) * y^(1/6)"
    assert parse_darboux(text, N3).render(N3) == text


def test_ratio_needs_a_system_of_at_least_two_variables():
    X = parse_system("vars x\ndx = x\n")
    message = "^multiplier ratios need a system of at least two variables$"
    with pytest.raises(VerificationError, match=message):
        ratio_first_integrals(X, [])


def test_ratio_duplicated_multipliers_dependent():
    J = parse_darboux("1/(x*y*z)", N3)
    res = ratio_first_integrals(LINEAR3, [J, J])
    assert res.dependent
    assert res.certificate.rank == 0


def test_ratio_rejects_bad_multiplier():
    with pytest.raises(VerificationError):
        ratio_first_integrals(LINEAR3, [parse_darboux("x", N3), parse_darboux("x", N3)])


def test_ratio_needs_one_multiplier_fewer_than_the_dimension():
    J = parse_darboux("1/(x*y*z)", N3)
    with pytest.raises(VerificationError, match="^need 2 multipliers for a 3-dimensional system$"):
        ratio_first_integrals(LINEAR3, [J])


def test_first_integral_2d_golden():
    names = ["x", "y"]
    V = parse_darboux("1/(x*y)", names)
    r = first_integral_2d(LINEAR2, V)
    assert r.render(names) == "log(x) - log(y)"
    grad = differentiate(r)
    assert lie_derivative_log(LINEAR2, grad).is_zero()


def test_first_integral_2d_certifies_exp_of_its_integral(monkeypatch):
    # X(I) is decided as X(log exp I) by is_first_integral, so a wrong exp(I) fails
    names = ["x", "y"]
    exp_of = pipeline.to_darboux
    monkeypatch.setattr(pipeline, "to_darboux", lambda r: exp_of(r) * parse_darboux("x", names))
    with pytest.raises(VerificationError, match="^2D first integral failed verification$"):
        first_integral_2d(LINEAR2, parse_darboux("1/(x*y)", names))


def test_first_integral_2d_hamiltonian():
    X = parse_system("vars x, y\ndx = y\ndy = -x\n")
    r = first_integral_2d(X, parse_darboux("1", ["x", "y"]))
    assert r.rat_part == parse_ratfunc("-(x^2 + y^2)/2", ["x", "y"])


def test_first_integral_2d_nonrational_multiplier_unavailable():
    # X = (x, 2y) has the non-rational integrating factor exp(-2*y/x^2)/y... use
    # a genuinely non-rational verified multiplier: V = x^(-1/2) * y^(-5/4) for
    # dx = x, dy = 2y: sum w_i P_i = -1/2 - 5/2 = -3 = -div P
    X = parse_system("vars x, y\ndx = x\ndy = 2*y\n")
    V = parse_darboux("x^(-1/2) * y^(-5/4)", ["x", "y"])
    out = first_integral_2d(X, V)
    assert isinstance(out, ClosedFormUnavailable)
    assert out.reason.startswith("integrating factor is not rational")


def test_first_integral_2d_prints_the_residual_over_the_system_names():
    X = parse_system("vars x, y\ndx = x - x*y\ndy = x*y - y\n")
    message = r"^V is not an integrating factor \(residual -x\*y \+ 2\*x - y\)$"
    with pytest.raises(VerificationError, match=message):
        first_integral_2d(X, parse_darboux("exp(x)", ["x", "y"]))


def test_first_integral_2d_rejects_non_multiplier():
    with pytest.raises(VerificationError):
        first_integral_2d(LINEAR2, parse_darboux("x", ["x", "y"]))
