"""Darboux polynomials, exponential factors, Darboux functions, and synthesis.

A Darboux function is exp(g/h) * prod f_i^{l_i}; here exponents are exact
rationals, with conjugate algebraic exponents represented through residue
groups.  All calculus happens on logarithmic derivatives, so functions are
tracked up to a nonzero constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

from .errors import VerificationError, ZeroDivisionInField
from .forms import OneForm
from .linalg import solve_linear
from .multipoly import (
    MINUS_INFINITY,
    MultiPoly,
    _check_constant_power,
    _ints_over_lcm,
    try_exact_div,
)
from .ratfunc import RatFunc, fraction_sum


@dataclass(frozen=True)
class Cofactor:
    poly: MultiPoly

    def render(self, names=None) -> str:
        return self.poly.render(names)


@dataclass(frozen=True)
class ExponentialFactor:
    g: MultiPoly
    h: MultiPoly
    cofactor: Cofactor


@dataclass(frozen=True)
class Reject:
    reason: str
    residual: RatFunc


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    residual: RatFunc

    def __bool__(self):
        return self.ok


class DarbouxFunction:
    """exp(exp_arg) * prod base^exponent * prod group-products, up to a constant."""

    __slots__ = ("exp_arg", "factors", "groups", "scale")

    def __init__(self, exp_arg: RatFunc, factors=(), groups=(), scale=Fraction(1)):
        scale = Fraction(scale)
        if scale == 0:
            raise ZeroDivisionInField("zero is not a Darboux function")
        if exp_arg.is_constant() and not exp_arg.is_zero():
            exp_arg = RatFunc.zero(exp_arg.arity)
        merged: dict[MultiPoly, Fraction] = {}
        for base, exponent in factors:
            exponent = Fraction(exponent)
            if exponent == 0 or base.is_zero():
                continue
            if base.is_constant():
                c = base.constant_value()
                if exponent.denominator == 1:
                    scale *= c ** int(exponent)
                continue
            if exponent.denominator == 1:
                lc = base.leading_coefficient()
                if lc != 1:
                    base = base.scale(1 / lc)
                    scale *= lc ** int(exponent)
            merged[base] = merged.get(base, Fraction(0)) + exponent
        clean = tuple(
            sorted(
                ((b, e) for b, e in merged.items() if e != 0),
                key=lambda be: (be[0].total_degree(), be[0].render()),
            )
        )
        object.__setattr__(self, "exp_arg", exp_arg)
        object.__setattr__(self, "factors", clean)
        object.__setattr__(
            self, "groups", tuple((g, Fraction(s)) for g, s in groups if s != 0)
        )
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("DarbouxFunction is immutable")

    @staticmethod
    def of_ratfunc(f: RatFunc) -> "DarbouxFunction":
        if f.is_zero():
            raise ZeroDivisionInField("zero is not a Darboux function")
        return DarbouxFunction(
            RatFunc.zero(f.arity),
            factors=[(f.num, Fraction(1)), (f.den, Fraction(-1))],
        )

    @property
    def arity(self) -> int:
        return self.exp_arg.arity

    def __mul__(self, other: "DarbouxFunction") -> "DarbouxFunction":
        return DarbouxFunction(
            self.exp_arg + other.exp_arg,
            factors=list(self.factors) + list(other.factors),
            groups=list(self.groups) + list(other.groups),
            scale=self.scale * other.scale,
        )

    def __pow__(self, e) -> "DarbouxFunction":
        e = Fraction(e)
        if e.denominator == 1:
            _check_constant_power(self.scale, int(e))
            scale = self.scale ** int(e)
        elif self.scale == 1:
            scale = Fraction(1)
        else:
            raise ValueError("fractional power of a non-unit constant factor")
        return DarbouxFunction(
            self.exp_arg.scale(e),
            factors=[(b, l * e) for b, l in self.factors],
            groups=[(g, s * e) for g, s in self.groups],
            scale=scale,
        )

    def inverse(self) -> "DarbouxFunction":
        return self ** Fraction(-1)

    def is_rational(self) -> bool:
        return (
            self.exp_arg.is_zero()
            and not self.groups
            and all(l.denominator == 1 for _, l in self.factors)
        )

    def to_ratfunc(self) -> RatFunc:
        if not self.is_rational():
            raise ValueError("Darboux function is not rational")
        acc = RatFunc.constant(self.arity, self.scale)
        for base, exponent in self.factors:
            acc = acc * (RatFunc(base) ** int(exponent))
        return acc

    def log_derivative(self) -> OneForm:
        """d(log F) as an exact rational 1-form."""
        comps = []
        for i in range(self.arity):
            w = self.exp_arg.derivative(i)
            for base, exponent in self.factors:
                w = w + RatFunc.of_poly(base).log_derivative(i).scale(exponent)
            for group, s in self.groups:
                w = w + group.log_derivative(i).scale(s)
            comps.append(w)
        return OneForm(comps)

    def render(self, names: list[str] | None = None) -> str:
        pieces = []
        if self.scale != 1:
            pieces.append(str(self.scale))
        if not self.exp_arg.is_zero():
            pieces.append(f"exp({self.exp_arg.render(names)})")
        for base, exponent in self.factors:
            b = base.render(names)
            if len(base.nums) > 1 or (exponent != 1 and ("*" in b or "^" in b)):
                b = f"({b})"
            if exponent == 1:
                pieces.append(b)
            elif exponent.denominator == 1:
                pieces.append(f"{b}^{exponent}")
            else:
                pieces.append(f"{b}^({exponent})")
        for group, s in self.groups:
            pieces.append(f"exp({group.render(names, s)})")
        return " * ".join(pieces) if pieces else "1"

    def __repr__(self):
        return f"DarbouxFunction({self.render()})"


# -- verification ------------------------------------------------------------


def cofactor_of(X, f: MultiPoly) -> Cofactor | Reject:
    """Cofactor k with X(f) = k*f, or Reject with residual X(f)/f when f is not
    a Darboux polynomial."""
    if f.is_zero() or f.is_constant():
        raise VerificationError("Darboux polynomial candidates must be nonconstant")
    lie = X.lie_derivative(f)
    q = try_exact_div(lie, f)
    if q is None:
        return Reject("f does not divide X(f)", residual=fraction_sum(f.arity, [(lie, f)]))
    deg = q.total_degree()
    if deg is not MINUS_INFINITY and deg > X.degree - 1:
        raise VerificationError(f"cofactor degree {deg} exceeds m-1 = {X.degree - 1}")
    return Cofactor(q)


def verify_exponential_factor(X, g: MultiPoly, h: MultiPoly):
    """ExponentialFactor when X(g/h) is polynomial of degree <= m-1, else Reject."""
    if h.is_zero():
        raise VerificationError("exponential factor denominator h must be nonzero")
    arg = RatFunc(g, h)
    lie = X.lie_derivative_ratfunc(arg)
    if not lie.is_polynomial():
        return Reject("X(g/h) is not a polynomial", residual=lie)
    poly = lie.as_poly()
    deg = poly.total_degree()
    if deg is not MINUS_INFINITY and deg > X.degree - 1:
        return Reject(
            f"cofactor degree {deg} exceeds bound {X.degree - 1}",
            residual=lie,
        )
    return ExponentialFactor(g=arg.num, h=arg.den, cofactor=Cofactor(poly))


def _log_lie_terms(X, D: DarbouxFunction) -> list[tuple[MultiPoly, MultiPoly]]:
    """(n, d) pairs whose sum is X(log D) = sum w_i P_i with w = d log D.

    For D = exp(g) * prod f_k^e_k * prod groups^s that is X(g), each
    e_k * X(f_k) over f_k, and s * num(w_i) * P_i over den(w_i) for each
    group's log derivative w_i.
    """
    lie = X.lie_derivative_ratfunc(D.exp_arg)
    terms = [(lie.num, lie.den)] + [(X.lie_derivative(f).scale(e), f) for f, e in D.factors]
    for group, s in D.groups:
        ws = map(group.log_derivative, range(D.arity))
        terms += [((w.num * c).scale(s), w.den) for w, c in zip(ws, X.components)]
    return terms


def multiplier_residual(X, D: DarbouxFunction) -> RatFunc:
    """The exact value of sum w_i P_i + div P with w = d log D.

    The terms of ``first_integral_residual`` and div P over 1, in the same
    one ``fraction_sum``.
    """
    return fraction_sum(D.arity, _log_lie_terms(X, D) + [(X.divergence(), MultiPoly.one(D.arity))])


def first_integral_residual(X, D: DarbouxFunction) -> RatFunc:
    """The exact value of sum w_i P_i = X(log D) with w = d log D.

    X(log D) = X(g) + sum_k e_k * X(f_k)/f_k for D = exp(g) * prod f_k^e_k,
    so each factor costs one polynomial Lie derivative and no gcd of its
    own; only the residue groups go through their log derivatives.  All
    terms go into one ``fraction_sum``: a zero test over the lcm of the
    denominators, and lowest terms only for a nonzero residual.
    """
    return fraction_sum(D.arity, _log_lie_terms(X, D))


def is_jacobian_multiplier(X, D: DarbouxFunction) -> CheckResult:
    r = multiplier_residual(X, D)
    return CheckResult(ok=r.is_zero(), residual=r)


def is_first_integral(X, D: DarbouxFunction) -> CheckResult:
    r = first_integral_residual(X, D)
    return CheckResult(ok=r.is_zero(), residual=r)


# -- synthesis -----------------------------------------------------------------


def _vector_metric(vec) -> int:
    return sum(abs(c.numerator) + c.denominator - 1 for c in vec)


def _normalize_basis_vector(v):
    """Primitive integer direction with positive first nonzero entry."""
    ints, _ = _ints_over_lcm(v)
    g = gcd(*ints) or 1
    if next((c for c in ints if c), 0) < 0:
        g = -g
    return tuple(Fraction(c // g) for c in ints)


def _best_particular(particular, basis):
    if not basis:
        return particular
    if len(basis) > 4:
        return particular
    best = None
    for combo in iproduct((-1, 0, 1), repeat=len(basis)):
        cand = list(particular)
        for c, v in zip(combo, basis):
            if c:
                cand = [a + c * b for a, b in zip(cand, v)]
        key = (_vector_metric(cand), tuple(-x for x in cand))
        if best is None or key < best[0]:
            best = (key, tuple(cand))
    return best[1]


def synthesize(X, darboux_polys, exp_factors, target: str) -> list[DarbouxFunction]:
    """Solve the cofactor equation and return Darboux functions.

    target 'first-integral': sum lambda_i k_i + sum mu_j L_j = 0;
    target 'multiplier':     ... = -div P.
    Returns the empty list when the system is inconsistent or only admits the
    trivial solution.
    """
    if target not in ("first-integral", "multiplier"):
        raise ValueError(f"unknown synthesis target {target!r}")
    arity = X.arity
    cofactors = []
    for f in darboux_polys:
        k = cofactor_of(X, f)
        if isinstance(k, Reject):
            raise VerificationError(f"{f.render(X.var_names)} is not a Darboux polynomial")
        cofactors.append(k.poly)
    verified_exp = []
    for g, h in exp_factors:
        r = verify_exponential_factor(X, g, h)
        if isinstance(r, Reject):
            raise VerificationError(f"exponential factor rejected: {r.reason}")
        verified_exp.append(r)
        cofactors.append(r.cofactor.poly)
    if not cofactors:
        return []
    rhs_poly = (
        -X.divergence() if target == "multiplier" else MultiPoly.zero(arity)
    )
    tables = [k.terms for k in cofactors]
    rhs_terms = rhs_poly.terms
    # one row per monomial that occurs; every other row is 0 = 0.  The constant
    # row keeps a column per unknown when every cofactor is zero.
    monos = sorted({(0,) * arity}.union(*tables, rhs_terms), key=lambda e: (sum(e), e))
    rows = []
    rhs = []
    for e in monos:
        rows.append([t.get(e, Fraction(0)) for t in tables])
        rhs.append(rhs_terms.get(e, Fraction(0)))
    sol = solve_linear(rows, rhs)
    if sol is None:
        return []
    basis = [_normalize_basis_vector(v) for v in sol.nullspace]
    basis.sort(key=lambda v: (_vector_metric(v), tuple(-x for x in v)))

    def build(coeffs) -> DarbouxFunction:
        n_poly = len(darboux_polys)
        exp_arg = RatFunc.zero(arity)
        factors = []
        for lam, f in zip(coeffs[:n_poly], darboux_polys):
            if lam != 0:
                factors.append((f, lam))
        for mu, ef in zip(coeffs[n_poly:], verified_exp):
            if mu != 0:
                exp_arg = exp_arg + RatFunc(ef.g, ef.h).scale(mu)
        return DarbouxFunction(exp_arg, factors=factors)

    results = []
    if target == "multiplier":
        particular = _best_particular(sol.particular, basis)
        results.append(build(particular))
        for v in basis:
            combined = tuple(a + b for a, b in zip(particular, v))
            results.append(build(combined))
    else:
        for v in basis:
            if any(c != 0 for c in v):
                results.append(build(v))
    # closed-loop verification of the whole catalog of outputs
    certify = is_jacobian_multiplier if target == "multiplier" else is_first_integral
    for d in results:
        if not certify(X, d).ok:
            raise VerificationError(
                f"synthesized function failed verification: {d.render(X.var_names)}"
            )
    return results
