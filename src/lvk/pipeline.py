"""End-to-end constructions behind the two main theorems.

Theorem-1 direction: ratios of Jacobian multipliers are first integrals, with
rank certification of their independence, and the 2D integrating-factor first
integral.  Theorem-2 direction: from rational first integrals through the
Gamma determinants, all read off one elimination of the integrals' gradient
matrix, and h = P_last / Gamma to the Darboux Jacobian multiplier 1/h.  Its
factors are split by multiplicity variable by variable, as integrating
-d log h would split them, but with squarefree decompositions and no
integration; the multiplier identity certifies the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul

from .darboux import DarbouxFunction, is_jacobian_multiplier
from .errors import VerificationError
from .forms import OneForm, is_closed
from .integrator import IntegrationResult, differentiate, integrate_closed
from .linalg import _back_pass, _eliminate, rank_with_witness
from .multipoly import MultiPoly, _coeffs_in_var, exact_div, gcd_multivar, squarefree_in_var
from .ratfunc import RatFunc
from .vectorfield import PolyVectorField


@dataclass(frozen=True)
class IndependenceCertificate:
    gradient_rows: tuple  # tuple of tuples of RatFunc
    rank: int
    witness_rows: tuple[int, ...]
    witness_cols: tuple[int, ...]


@dataclass(frozen=True)
class RatioResult:
    forms: tuple[OneForm, ...]
    certificate: IndependenceCertificate
    dependent: bool


@dataclass
class MultiplierDerivation:
    gamma: RatFunc
    gammas: list[RatFunc]  # indexed parallel to gradient columns
    columns: list[int]  # variable indices playing x_1..x_{n-1}
    last_var: int  # variable index playing x_n
    h: RatFunc
    a_form: OneForm
    u_form: OneForm
    result: DarbouxFunction
    identities: list[tuple[str, RatFunc]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ClosedFormUnavailable:
    """2D first integral exists but is not an elementary closed form here."""

    reason: str
    closedness_residual: RatFunc


def ratio_first_integrals(X: PolyVectorField, multipliers) -> RatioResult:
    """Log-derivative difference forms of multiplier ratios, plus a rank witness."""
    n = X.arity
    multipliers = list(multipliers)
    if len(multipliers) != n - 1:
        raise VerificationError(
            f"need {n - 1} multipliers for an {n}-dimensional system"
        )
    log_rows = []
    for J in multipliers:
        check = is_jacobian_multiplier(X, J)
        if not check.ok:
            raise VerificationError(
                f"not a Jacobian multiplier (residual {check.residual.render()})"
            )
        log_rows.append(J.log_derivative())
    reference = log_rows[-1]
    forms = []
    for w in log_rows[:-1]:
        diff = w - reference
        residual = X.lie_derivative_log(diff)
        if not residual.is_zero():
            raise VerificationError(
                "multiplier ratio failed the first-integral identity "
                f"(residual {residual.render()})"
            )
        forms.append(diff)
    rows = [tuple(f.components) for f in forms]
    if rows:
        rank, wrows, wcols = rank_with_witness(rows)
    else:
        rank, wrows, wcols = 0, [], []
    cert = IndependenceCertificate(
        gradient_rows=tuple(rows),
        rank=rank,
        witness_rows=tuple(wrows),
        witness_cols=tuple(wcols),
    )
    return RatioResult(
        forms=tuple(forms), certificate=cert, dependent=rank < len(forms)
    )


def gamma_determinants(
    X: PolyVectorField, integrals, last_var: int | None = None
) -> tuple[RatFunc, list[RatFunc], list[int], int]:
    """(Gamma, Gamma_i list, column variables, last variable index).

    M is the (n-1) x n gradient matrix of the integrals, each first checked
    to satisfy X(H) = 0 through the polynomial Lie derivatives of its
    numerator and denominator (``lie_derivative_ratfunc``).  Gamma is the
    minor of M without the last variable lv's column; Gamma_i replaces
    column i in it by lv's.

    One forward elimination of M gives all of them.  Its columns are in
    natural order, or with last_var's column moved last; lv's column is the
    one without a pivot, so without last_var lv is the largest v whose
    complementary minor is nonzero.  Gamma is the signed product of the
    pivots.  By Cramer's rule Gamma_i = Gamma * y_i, where M_cols y = M_lv;
    the back pass reads y off the same echelon form.
    """
    n = X.arity
    names = list(X.var_names)
    integrals = list(integrals)
    if n < 2:
        raise VerificationError("Gamma needs a system of at least two variables")
    if len(integrals) != n - 1:
        raise VerificationError(f"need {n - 1} first integrals, got {len(integrals)}")
    grads = []
    for H in integrals:
        residual = X.lie_derivative_ratfunc(H)
        if not residual.is_zero():
            raise VerificationError(
                f"{H.render(names)} is not a first integral "
                f"(residual {residual.render(names)})"
            )
        grads.append([H.derivative(i) for i in range(n)])
    order = list(range(n))
    if last_var is not None:
        order.remove(last_var)
        order.append(last_var)
    m, pivots, _, sign = _eliminate([[g[c] for c in order] for g in grads])
    if len(pivots) < n - 1:
        raise VerificationError(
            "Gamma vanishes identically for every choice of the last variable; "
            "the first integrals are functionally dependent"
        )
    free = next(k for k in range(n) if k not in pivots)
    lv = order[free]
    if last_var is not None and lv != last_var:
        raise VerificationError(
            f"Gamma vanishes identically with {names[last_var]} as the last variable"
        )
    gamma = reduce(mul, (m[r][c] for r, c in enumerate(pivots)))
    if sign < 0:
        gamma = -gamma
    _back_pass(m, pivots)
    gammas = [gamma * m[r][free] for r in range(n - 1)]
    return gamma, gammas, [i for i in range(n) if i != lv], lv


def _strip_common_factor(X: PolyVectorField):
    """Divide out a common polynomial factor of the components, with a warning."""
    nonzero = [c for c in X.components if not c.is_zero()]
    if len(nonzero) < 1:
        raise VerificationError("zero vector field")
    g = nonzero[0]
    for c in nonzero[1:]:
        g = gcd_multivar(g, c)
    if g.is_constant():
        return X, None
    comps = [
        MultiPoly.zero(X.arity) if c.is_zero() else exact_div(c, g)
        for c in X.components
    ]
    reduced = PolyVectorField(list(X.var_names), comps)
    warning = (
        f"components share the factor {g.render(list(X.var_names))}; "
        "divided out before the construction"
    )
    return reduced, warning


def _inverse_by_levels(h: RatFunc) -> DarbouxFunction:
    """1/h as a Darboux function, factored as integrating -d log h factors it.

    At each variable v in natural order, integrate_closed groups the factors
    of G (first 1/h) that involve v by their residue, the signed
    multiplicity e, into one argument a_e/lc_v(a_e), monic in v, and carries
    G divided by the arguments' powers to the later variables.  Here a_e
    comes from squarefree_in_var on num(G) and den(G), so no integration
    runs.  The pairs (a_e, e) and (lc_v(a_e), -e) make the same Darboux
    function as the argument's numerator and denominator, since a_e is
    primitive in v and so coprime to lc_v(a_e).
    """
    n = h.arity
    num, den = h.den, h.num
    factors = []
    for v in range(n):
        carried = []
        for p, sign in ((num, 1), (den, -1)):
            content, parts = squarefree_in_var(p, v)
            for a, e in parts:
                lc = _coeffs_in_var(a, v)[a.degree_in(v)]
                factors += [(a, sign * e), (lc, -sign * e)]
                content = content * lc**e
            carried.append(content)
        g = RatFunc(*carried)
        num, den = g.num, g.den
    return DarbouxFunction(RatFunc.zero(n), factors=factors)


def multiplier_from_rational_integrals(
    X: PolyVectorField, integrals, last_var: int | None = None
) -> MultiplierDerivation:
    """Lemma-style construction: Gamma, h = P_last/Gamma, A = d log h, J = 1/h.

    A and u = -A are reported with the closedness and pairing identities of
    A, but u is not integrated: J = exp(int u) is 1/h, built by
    ``_inverse_by_levels`` and certified by ``multiplier-residual``.
    """
    names = list(X.var_names)
    X, warning = _strip_common_factor(X)
    warnings = [warning] if warning else []
    n = X.arity
    # No zero-component check on P[lv] is needed: M P = 0 and Gamma != 0 give
    # P = 0 whenever P[lv] = 0, and _strip_common_factor already rejects P = 0.
    gamma, gammas, cols, lv = gamma_determinants(X, integrals, last_var=last_var)
    identities = []
    P = [RatFunc(c) for c in X.components]
    # Cramer identities: Gamma * P_i = -Gamma_i * P_last
    for pos, i in enumerate(cols):
        residual = gamma * P[i] + gammas[pos] * P[lv]
        identities.append((f"cramer[{names[i]}]", residual))
        if not residual.is_zero():
            raise VerificationError(
                f"Cramer identity failed for {names[i]}: the integrals are not "
                "functionally independent or the variable order is degenerate"
            )
    # determinant cancellation: d_last Gamma - sum_i d_i Gamma_i = 0
    det_identity = gamma.derivative(lv)
    for pos, i in enumerate(cols):
        det_identity = det_identity - gammas[pos].derivative(i)
    identities.append(("determinant-cancellation", det_identity))
    if not det_identity.is_zero():
        raise VerificationError("determinant cancellation identity failed")
    h = P[lv] / gamma
    a_form = OneForm([h.log_derivative(i) for i in range(n)])
    closed = is_closed(a_form)
    identities.append(
        (
            "A-closedness",
            closed.residual if closed.residual is not None else RatFunc.zero(n),
        )
    )
    if not closed.closed:
        raise VerificationError("A = d log h failed the closedness identity")
    pairing = RatFunc(X.divergence())
    for i in range(n):
        pairing = pairing - a_form[i] * P[i]
    identities.append(("A-pairing-divergence", pairing))
    if not pairing.is_zero():
        raise VerificationError("<A, P> = div P failed")
    u_form = -a_form
    result = _inverse_by_levels(h)
    final = is_jacobian_multiplier(X, result)
    identities.append(("multiplier-residual", final.residual))
    if not final.ok:
        raise VerificationError("constructed function failed the multiplier identity")
    return MultiplierDerivation(
        gamma=gamma,
        gammas=gammas,
        columns=cols,
        last_var=lv,
        h=h,
        a_form=a_form,
        u_form=u_form,
        result=result,
        identities=identities,
        warnings=warnings,
    )


def first_integral_2d(
    X: PolyVectorField, V: DarbouxFunction
) -> IntegrationResult | ClosedFormUnavailable:
    """First integral of a 2D system from an integrating factor V."""
    if X.arity != 2:
        raise VerificationError("first_integral_2d needs a 2-variable system")
    check = is_jacobian_multiplier(X, V)
    if not check.ok:
        raise VerificationError(
            f"V is not an integrating factor (residual {check.residual.render()})"
        )
    if not V.is_rational():
        # closedness certificate of (V P_2, -V P_1) through log-derivatives:
        # d(V P_2)/dx_2 + d(V P_1)/dx_1 = V * (multiplier residual) = 0
        return ClosedFormUnavailable(
            reason="integrating factor is not rational; the potential is not "
            "an elementary expression in this representation",
            closedness_residual=check.residual,
        )
    v_rat = V.to_ratfunc()
    omega = OneForm([v_rat * RatFunc(X.components[1]), -(v_rat * RatFunc(X.components[0]))])
    result = integrate_closed(omega)
    # verify: sum d_i(I) P_i = 0
    grad = differentiate(result)
    residual = X.lie_derivative_log(grad)
    if not residual.is_zero():
        raise VerificationError("2D first integral failed verification")
    return result


@dataclass
class Theorem2Report:
    derivation: MultiplierDerivation
    multiplier: DarbouxFunction


def theorem2_pipeline(X: PolyVectorField, integrals) -> Theorem2Report:
    """Rational first integrals -> Darboux Jacobian multiplier, fully certified."""
    derivation = multiplier_from_rational_integrals(X, integrals)
    return Theorem2Report(derivation=derivation, multiplier=derivation.result)
