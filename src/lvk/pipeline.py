"""End-to-end constructions behind the two main theorems.

Theorem-1 direction: ratios of Jacobian multipliers are first integrals, with
rank certification of their independence, and the 2D integrating-factor first
integral.  Theorem-2 direction: from rational first integrals through the
Gamma determinants, all read off one fraction-free elimination of the
integrals' gradient matrix with its rows cleared to polynomials, and
h = P_last / Gamma to the Darboux Jacobian multiplier 1/h.  Gamma and the
Gamma_i stay polynomial minors g, g_i over L^2, L the product of the
integrals' denominators, and are reduced to lowest terms only when a report
reads them; h = P_last L^2 / g is the construction's one normalization.  The
multiplier is 1/h split into squarefree parts variable by variable, in
declared order, up to a constant factor; the multiplier identity certifies
the result.

Theorem 2's certificates are sums of polynomials over powers of
denominators, and ``ratfunc.fraction_sum`` decides each: a zero test, and a
residual reduced to lowest terms only when it is nonzero.  X(H) = 0 for each
integral is its cleared gradient row against P over the squared
denominator; the Cramer and determinant-cancellation identities are the
minors' numerators over their shared denominator squared and cubed, and the
multiplier identity is ``darboux.is_jacobian_multiplier``, the check
``verify`` runs.  For J = c/h it reads div(J P) = J (div P - <d log h, P>),
so it also certifies the pairing <d log h, P> = div P; d log h is closed by
calculus and is derived only for the report.  Theorem 1's identities go
through the same ``darboux`` checks: each multiplier through
``is_jacobian_multiplier``, and each ratio J_k / J_{n-1}, like the 2D
integral I as exp(I), through ``is_first_integral``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .darboux import DarbouxFunction, is_first_integral, is_jacobian_multiplier
from .errors import ParseError, VerificationError
from .forms import OneForm
from .integrator import IntegrationResult, integrate_closed, to_darboux
from .linalg import _fraction_free, rank_with_witness
from .multipoly import MultiPoly, exact_div, gcd_multivar, squarefree_in_var
from .ratfunc import RatFunc, fraction_sum
from .vectorfield import PolyVectorField


@dataclass(frozen=True)
class IndependenceCertificate:
    rank: int
    witness_rows: tuple[int, ...]
    witness_cols: tuple[int, ...]


@dataclass(frozen=True)
class RatioResult:
    forms: tuple[DarbouxFunction, ...]  # J_k / J_{n-1}, k < n-1
    residuals: tuple[RatFunc, ...]  # X(log form), parallel to forms
    certificate: IndependenceCertificate
    dependent: bool


@dataclass
class MultiplierDerivation:
    minors: tuple[MultiPoly, list[MultiPoly], MultiPoly]  # (g, [g_i], L) of _gamma_minors
    columns: list[int]  # variable indices playing x_1..x_{n-1}
    last_var: int  # variable index playing x_n
    h: RatFunc
    result: DarbouxFunction
    identities: list[tuple[str, RatFunc]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def gamma(self) -> RatFunc:
        """Gamma = g/L^2 in lowest terms, for the report; the construction never builds it."""
        g, _, den = self.minors
        return RatFunc(g, den * den)

    @property
    def gammas(self) -> list[RatFunc]:
        """The Gamma_i = g_i/L^2 in lowest terms, parallel to columns, for the report."""
        _, gs, den = self.minors
        return [RatFunc(gi, den * den) for gi in gs]

    @property
    def a_form(self) -> OneForm:
        """A = d log h, for the report; the construction never builds it."""
        return OneForm([self.h.log_derivative(i) for i in range(self.h.arity)])


@dataclass(frozen=True)
class ClosedFormUnavailable:
    """2D first integral exists but is not an elementary closed form here."""

    reason: str


def ratio_first_integrals(X: PolyVectorField, multipliers) -> RatioResult:
    """The multiplier ratios J_k / J_{n-1} as first integrals, plus a rank witness.

    Each ratio is certified by ``darboux.is_first_integral``; a rational one
    is written in lowest terms, the form ``verify`` echoes.  The rank and
    witness are read off the ratios' log derivatives.
    """
    n = X.arity
    if n < 2:
        raise VerificationError("multiplier ratios need a system of at least two variables")
    multipliers = list(multipliers)
    if len(multipliers) != n - 1:
        raise VerificationError(
            f"need {n - 1} multipliers for a {n}-dimensional system"
        )
    for J in multipliers:
        check = is_jacobian_multiplier(X, J)
        if not check.ok:
            raise VerificationError(
                f"not a Jacobian multiplier (residual {check.residual.render(X.var_names)})"
            )
    reference = multipliers[-1].inverse()
    ratios, residuals = [], []
    for J in multipliers[:-1]:
        ratio = J * reference
        if ratio.is_rational():
            ratio = DarbouxFunction.of_ratfunc(ratio.to_ratfunc())
        check = is_first_integral(X, ratio)
        if not check.ok:
            raise VerificationError(
                "multiplier ratio failed the first-integral identity "
                f"(residual {check.residual.render(X.var_names)})"
            )
        ratios.append(ratio)
        residuals.append(check.residual)
    rows = [tuple(ratio.log_derivative().components) for ratio in ratios]
    if rows:
        rank, wrows, wcols = rank_with_witness(rows)
    else:
        rank, wrows, wcols = 0, [], []
    cert = IndependenceCertificate(
        rank=rank,
        witness_rows=tuple(wrows),
        witness_cols=tuple(wcols),
    )
    return RatioResult(
        forms=tuple(ratios),
        residuals=tuple(residuals),
        certificate=cert,
        dependent=rank < len(ratios),
    )


def _gamma_minors(X: PolyVectorField, integrals, last_var: int | None):
    """(g, [g_i], L, column variables, last variable index): Gamma = g/L^2, Gamma_i = g_i/L^2.

    M is the (n-1) x n gradient matrix of the integrals.  Gamma is the minor
    of M without the last variable lv's column; Gamma_i replaces column i in
    it by lv's.

    Row k of M, for H_k = N_k/D_k, is cleared to D_k dN_k - N_k dD_k, so
    every minor of M is a minor of the cleared rows over L^2, L = prod D_k.
    One fraction-free elimination (``_fraction_free``) of the cleared rows
    gives all of them.  Its columns are in natural order, or with
    last_var's column moved last; lv's column is the one without a pivot, so
    without last_var lv is the largest v whose complementary minor is
    nonzero.  g is the last pivot, and g_i is pivot row i's entry in lv's
    column, both signed by the row permutation.

    The cleared row also certifies H_k first: X(H_k) = sum_i P_i row_k[i] /
    D_k^2, so X(H_k) = 0 is a zero test on that sum, and the residual is
    reduced to lowest terms only for the error message.
    """
    n = X.arity
    names = list(X.var_names)
    integrals = list(integrals)
    if n < 2:
        raise VerificationError("Gamma needs a system of at least two variables")
    if len(integrals) != n - 1:
        raise VerificationError(f"need {n - 1} first integrals, got {len(integrals)}")
    rows, den = [], MultiPoly.one(n)
    for H in integrals:
        if H.arity != n:
            raise ParseError("arity mismatch")
        N, D = H.num, H.den
        row = [D * N.derivative(i) - N * D.derivative(i) for i in range(n)]
        lie = MultiPoly.zero(n)
        for c, r in zip(X.components, row):
            lie = lie + c * r
        residual = fraction_sum(n, [(lie, D)], 2)
        if not residual.is_zero():
            raise VerificationError(
                f"{H.render(names)} is not a first integral "
                f"(residual {residual.render(names)})"
            )
        rows.append(row)
        den = den * D
    order = list(range(n))
    if last_var is not None:
        order.remove(last_var)
        order.append(last_var)
    m, pivots, _, sign = _fraction_free([[row[c] for c in order] for row in rows])
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
    minors = [m[-1][pivots[-1]]] + [row[free] for row in m]
    if sign < 0:
        minors = [-g for g in minors]
    return minors[0], minors[1:], den, [i for i in range(n) if i != lv], lv


def gamma_determinants(
    X: PolyVectorField, integrals, last_var: int | None = None
) -> tuple[RatFunc, list[RatFunc], list[int], int]:
    """(Gamma, Gamma_i list, column variables, last variable index).

    The minors come from ``_gamma_minors``: Gamma is the gradient minor
    without the last variable's column, Gamma_i replaces column i in it by
    the last variable's, and without last_var the last variable is the
    largest v whose complementary minor is nonzero.
    """
    g, gs, den, cols, lv = _gamma_minors(X, integrals, last_var)
    q = den * den
    return RatFunc(g, q), [RatFunc(gi, q) for gi in gs], cols, lv


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
    """1/h split into squarefree parts variable by variable, up to a constant.

    For num(1/h) and den(1/h) in turn, squarefree_in_var splits p at each
    variable v in declared order into its content in v and the squarefree
    parts a_e, pairwise coprime, that involve v; the content goes on to the
    later variables (Geddes, Czapor & Labahn, *Algorithms for Computer
    Algebra*, 8.2).  The constant left at the end is dropped.
    """
    n = h.arity
    factors = []
    for p, sign in ((h.den, 1), (h.num, -1)):
        for v in range(n):
            p, parts = squarefree_in_var(p, v)
            factors += [(a, sign * e) for a, e in parts]
    return DarbouxFunction(RatFunc.zero(n), factors=factors)


def multiplier_from_rational_integrals(
    X: PolyVectorField, integrals, last_var: int | None = None
) -> MultiplierDerivation:
    """Lemma-style construction: Gamma, h = P_last/Gamma, J = 1/h.

    The certificates run on the minors g, g_i over L^2, and h = P_last L^2 / g
    is the one rational function normalized on the way; Gamma and the
    Gamma_i are normalized from the stored minors only when a report reads
    them.  J is built by ``_inverse_by_levels`` and certified by
    ``multiplier-residual``.  With A = d log h and J = c/h, div(J P) =
    J (div P - <A, P>), so that one certificate also covers the pairing
    <A, P> = div P; A itself is derived from h only when a report prints it.
    """
    names = list(X.var_names)
    X, warning = _strip_common_factor(X)
    warnings = [warning] if warning else []
    n = X.arity
    # No zero-component check on P[lv] is needed: M P = 0 and Gamma != 0 give
    # P = 0 whenever P[lv] = 0, and _strip_common_factor already rejects P = 0.
    g, gs, den, cols, lv = _gamma_minors(X, integrals, last_var)
    identities = []
    comps = X.components
    # Cramer identities: Gamma * P_i = -Gamma_i * P_last, i.e. over den^2
    # g * P_i + g_i * P_last = 0
    for pos, i in enumerate(cols):
        residual = fraction_sum(n, [(g * comps[i] + gs[pos] * comps[lv], den)], 2)
        identities.append((f"cramer[{names[i]}]", residual))
        if not residual.is_zero():
            raise VerificationError(
                f"Cramer identity failed for {names[i]}: the integrals are not "
                "functionally independent or the variable order is degenerate"
            )
    # determinant cancellation: d_last Gamma - sum_i d_i Gamma_i = 0; with
    # Gamma = g/L^2, d(g/L^2) = (L dg - 2 g dL) / L^3, so over L^3 it reads
    # L (d_last g - sum_i d_i g_i) - 2 (g d_last L - sum_i g_i d_i L) = 0
    dg, gdl = g.derivative(lv), g * den.derivative(lv)
    for pos, i in enumerate(cols):
        dg = dg - gs[pos].derivative(i)
        gdl = gdl - gs[pos] * den.derivative(i)
    det_identity = fraction_sum(n, [(den * dg - gdl.scale(2), den)], 3)
    identities.append(("determinant-cancellation", det_identity))
    if not det_identity.is_zero():
        raise VerificationError("determinant cancellation identity failed")
    # h = P_last / Gamma = P_last L^2 / g, the construction's one normalization
    h = RatFunc(comps[lv] * den * den, g)
    result = _inverse_by_levels(h)
    check = is_jacobian_multiplier(X, result)
    identities.append(("multiplier-residual", check.residual))
    if not check.ok:
        raise VerificationError("constructed function failed the multiplier identity")
    return MultiplierDerivation(
        minors=(g, gs, den),
        columns=cols,
        last_var=lv,
        h=h,
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
            f"V is not an integrating factor (residual {check.residual.render(X.var_names)})"
        )
    if not V.is_rational():
        return ClosedFormUnavailable(
            reason="integrating factor is not rational; the potential is not "
            "an elementary expression in this representation",
        )
    v_rat = V.to_ratfunc()
    omega = OneForm([v_rat * RatFunc(X.components[1]), -(v_rat * RatFunc(X.components[0]))])
    # the multiplier check is omega's closedness certificate:
    # d(V P_2)/dx_2 + d(V P_1)/dx_1 = V * (multiplier residual) = 0
    result = integrate_closed(omega, check=False)
    # X(I) = X(log exp I)
    if not is_first_integral(X, to_darboux(result)).ok:
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
