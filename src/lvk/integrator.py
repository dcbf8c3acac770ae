"""Exact integration of closed rational 1-forms.

integrate_closed builds the potential  Psi = sum c_i log R_i + R(x)  by
Hermite reduction plus the Rothstein-Trager logarithmic part in the first
variable, then recurses on the remainder form in the later variables.
Residues of a closed form are constants; a non-constant residue aborts with
NonConstantResidue rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .darboux import DarbouxFunction
from .errors import NotClosed
from .forms import OneForm, is_closed
from .multipoly import _signed_sum
from .ratfunc import RatFunc
from .residues import ResidueGroup, rothstein_trager
from .unipoly import hermite_reduce, ratfunc_as_unipair


@dataclass(frozen=True)
class IntegrationResult:
    """Psi = rat_part + sum over (group, s) of s * (group trace of t log arg)."""

    log_groups: tuple[tuple[ResidueGroup, Fraction], ...]
    rat_part: RatFunc

    @property
    def arity(self) -> int:
        return self.rat_part.arity

    def render(self, names: list[str] | None = None) -> str:
        terms = [group.term(names, s) for group, s in self.log_groups]
        if not self.rat_part.is_zero():
            body = self.rat_part.render(names)
            terms.append((body[1:], True) if body.startswith("-") else (body, False))
        return _signed_sum(terms)


def differentiate(result: IntegrationResult) -> OneForm:
    """The exact differential of an integration result; oracle inverse."""
    comps = []
    for i in range(result.arity):
        total = result.rat_part.derivative(i)
        for group, s in result.log_groups:
            total = total + group.log_derivative(i).scale(s)
        comps.append(total)
    return OneForm(comps)


def integrate_closed(
    w: OneForm, order: list[int] | None = None, check: bool = True
) -> IntegrationResult:
    """Potential of a closed rational 1-form, exact in every component."""
    if check:
        witness = is_closed(w)
        if not witness.closed:
            raise NotClosed(
                f"form is not closed at pair {witness.pair}",
                pair=witness.pair,
                residual=witness.residual,
            )
    n = w.arity
    order = list(order) if order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError(f"{order} is not a permutation of the variables")
    current = list(w.components)
    groups: list[tuple[ResidueGroup, Fraction]] = []
    rat = RatFunc.zero(n)
    for pos, v in enumerate(order):
        U = current[v]
        if U.is_zero():
            continue
        num, den = ratfunc_as_unipair(U, v)
        quotient, proper_num = num.divmod(den)
        h_rat, res_num, res_den = hermite_reduce(proper_num, den)
        level_rat = quotient.integrate().to_ratfunc() + h_rat
        level_groups = rothstein_trager(res_num, res_den) if not res_num.is_zero() else []
        rat = rat + level_rat
        groups.extend((g, Fraction(1)) for g in level_groups)
        for v2 in order[pos + 1 :]:
            dphi = level_rat.derivative(v2)
            for g in level_groups:
                dphi = dphi + g.log_derivative(v2)
            current[v2] = current[v2] - dphi
        for v2 in order[pos + 1 :]:
            if current[v2].involves(v):
                raise NotClosed(
                    "remainder form still involves an eliminated variable; "
                    "input 1-form was not closed",
                    pair=(v, v2),
                    residual=current[v2],
                )
    return IntegrationResult(log_groups=tuple(groups), rat_part=rat)


def to_darboux(result: IntegrationResult) -> DarbouxFunction:
    """exp(Psi) as a Darboux function: exp(rational part) * product of powers."""
    factors = []
    group_factors = []
    for group, s in result.log_groups:
        if group.degree == 1:
            c = group.residue_value() * s
            val = group.arg[0]
            factors.append((val.num, c))
            factors.append((val.den, -c))
        else:
            group_factors.append((group, s))
    return DarbouxFunction(
        result.rat_part, factors=factors, groups=group_factors
    )
