"""Conjugate residue groups and the Rothstein-Trager logarithmic part.

A ResidueGroup encodes  sum over roots t of m(t)  of  t * log(arg(t, x))
without ever materializing the algebraic numbers t.  The minimal polynomial m
always has rational coefficients (constancy of residues is the computational
shadow of closedness); arguments may involve the x variables and powers of t.
A group prints as one signed term, ``sum[t: m = 0] t*log(A/L)``: m with its
denominators cleared, and A/L the argument as one RatFunc in the x variables
and t, both in graded-lex order.  t is named by ``bound_name``, the first of
t, t1, t2, ... that no variable is named.  A group of degree 1 prints as
c*log(arg).

A single residue needs no elimination: when num = c*den' for a constant c,
the logarithmic part is c*log(den).  Otherwise one subresultant chain of den
and num - t*den' in x, over Q[level variables, t], ends at R(t), the
resultant up to a factor free of t.  A rational root c of R gets its argument
from one monic gcd at t = c, over the level's coefficient field: Q when the
level involves only its main variable, else the field K of the other
variables.  Only a factor m of R without rational roots goes to ``d5_gcd``,
which reads the gcd at each root of m off the same chain and splits m where
that differs between roots.  Arithmetic modulo m is one adjugate:
a * adj(a) = Norm(a) mod m with the norm free of t, so the monic gcd and the
trace of t * d(arg)/arg over the roots of m (Newton power sums) each divide
once, by a norm.

Every polynomial in t is a ``UniPoly`` in variable ``arity`` of ``arity + 1``,
the slot the chain gives t: the factors of R(t) over Q, and the elements of
F[t]/(m) over the level's field F, with K's elements as RatFuncs of
``arity + 1`` that do not involve t.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonConstantResidue, ZeroDivisionInField
from .multipoly import (
    MultiPoly,
    _coeffs_in_var,
    _ints_over_lcm,
    _signed_sum,
    _subresultant_prs,
    _UniView,
    gcd_multivar,
    resultant_in_var,
)
from .ratfunc import RatFunc, _polys_over_lcm
from .unipoly import UniPoly, coeff_inverse, gcd_uni, squarefree_yun


def bound_name(names: list[str]) -> str:
    """The name of a group's root t: the first of t, t1, t2, ... not in names."""
    k = 0
    while (name := f"t{k or ''}") in names:
        k += 1
    return name


def qpoly_render(p: Sequence[Fraction], name: str) -> str:
    """Render in the one variable ``name``, denominators cleared to integers."""
    ints, _ = _ints_over_lcm(p)
    return MultiPoly(1, {(d,): c for d, c in enumerate(ints)}).render([name])


def power_sums(m: list[Fraction], count: int) -> list[Fraction]:
    """Newton power sums p_0..p_{count-1} of the roots of monic m."""
    d = len(m) - 1
    a = m  # a[i] is the coefficient of t^i, a[d] == 1
    sums = [Fraction(d)]
    for k in range(1, count):
        if k <= d:
            s = -k * a[d - k]
            for i in range(1, k):
                s -= a[d - i] * sums[k - i]
        else:
            s = Fraction(0)
            for i in range(1, d + 1):
                s -= a[d - i] * sums[k - i]
        sums.append(s)
    return sums


# -- arithmetic modulo m(t) ------------------------------------------------------
#
# Here a polynomial is a MultiPoly over Q in the level's variables and t (the
# variable ``t``); m is a list of rational coefficients, monic.  The adjugate
# eliminates one more variable u that its input is free of: x in d5_gcd, a
# spare last variable in the group log derivative.


def _mod(p: MultiPoly, m: list[Fraction], t: int) -> MultiPoly:
    """p reduced modulo m in its variable t."""
    return (UniPoly.of_poly(p, t) % UniPoly(t, p.arity, m)).to_ratfunc().num


def _drop(p: MultiPoly, arity: int) -> MultiPoly:
    """p, free of every variable from index ``arity`` on, over the first ``arity``."""
    return MultiPoly._raw(arity, {e[:arity]: c for e, c in p.nums.items()}, p.den)


def _adjugate(a: MultiPoly, m: list[Fraction], t: int, u: int) -> tuple[MultiPoly, MultiPoly]:
    """(adj, norm) with a * adj = norm mod m and norm free of t.

    a is reduced mod m and free of u.  adj = Res_u((m(u) - m(t))/(u - t),
    a(u)) mod m: at a root of m the quotient is monic with the other roots,
    so adj there is the product of a over them.
    """
    n = a.arity
    quotient = {}
    for k, c in enumerate(m):
        for i in range(k):  # (u^k - t^k)/(u - t) = sum of u^i * t^(k-1-i)
            e = [0] * n
            e[u], e[t] = i, k - 1 - i
            quotient[tuple(e)] = c
    swap = {t: u, u: t}
    a_u = {tuple(e[swap.get(i, i)] for i in range(n)): c for e, c in a.nums.items()}
    adj = _mod(resultant_in_var(MultiPoly(n, quotient), MultiPoly._raw(n, a_u, a.den), u), m, t)
    return adj, _mod(a * adj, m, t)


def _chain(a: MultiPoly, b: MultiPoly, x: int) -> list[_UniView]:
    """The subresultant chain of a and b in x, the one of higher degree first.

    After a and b come their nonzero remainders, each the regular
    subresultant of its degree up to sign.  The last element is free of x
    exactly when a and b have no common factor in x; it is then their
    resultant up to sign, or the argument free of x when one of them is.
    """
    return _subresultant_prs(_UniView.of(a, x), _UniView.of(b, x))[0]


def d5_gcd(chain: list[_UniView], m: UniPoly) -> list[tuple[UniPoly, list[UniPoly]]]:
    """Monic gcd of a, b in (F[t]/m)[x], splitting m where it differs between roots.

    chain is ``_chain(a, b, x)`` for polynomials a, b over Q in x, the
    level's other variables and t, the variable of m; F is Q when they
    involve no other variable, else K.  Returns (m_branch, gcd) pairs
    covering all conjugate branches, the gcd as its x-coefficients, each a
    UniPoly in t over F.  At a root of m where lc(a) does not vanish, the gcd
    is the chain element of least degree whose leading coefficient does not
    vanish there: the regular gcd of Moreno Maza and Rioboo (1995).
    """
    t = m.main_var
    for s in reversed(chain):  # least degree first
        if s.is_zero() or (lc := _mod(s.lc(), m.coeffs, t)).is_zero():
            continue  # vanishes at every root of m
        adj, norm = _adjugate(lc, m.coeffs, t, s.var)
        if norm.is_zero():
            # lc vanishes at some roots of m only: split m there, by a
            # divisor of m that lies in Q[t] as Q is algebraically closed in K
            g = UniPoly.of_poly(gcd_multivar(lc, m.to_ratfunc().num), t)
            return d5_gcd(chain, g) + d5_gcd(chain, m.divmod(g)[0])
        # monic: multiply by adj mod m, then divide once by the t-free norm
        over_q = all(sum(e) == e[t] for p in chain[:2] for c in p.coeffs for e in c.nums)
        if over_q:
            inv = coeff_inverse(norm.constant_value())
        else:
            inv = RatFunc(MultiPoly.one(m.arity), norm)
        v = [UniPoly.of_poly(_mod(c * adj, m.coeffs, t), t) for c in s.coeffs]
        return [(m, [c.scale(inv) for c in v])]
    raise ZeroDivisionInField("gcd of zero polynomials mod m")


# -- residue groups ----------------------------------------------------------


@dataclass(frozen=True)
class ResidueGroup:
    """sum over roots t of minpoly of  t * log(arg(t, x)).

    minpoly: monic squarefree, rational coefficients, ascending powers.
    arg: coefficient of t**k at index k; each a RatFunc in the x variables;
    reduced modulo minpoly, so 1 <= len(arg) <= degree.
    """

    minpoly: tuple[Fraction, ...]
    arg: tuple[RatFunc, ...]

    def __post_init__(self):
        if not 1 <= len(self.arg) <= self.degree:
            raise ValueError(f"a group of degree {self.degree} takes 1 to that many arg coefficients")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def arity(self) -> int:
        return self.arg[0].arity

    def residue_value(self) -> Fraction | None:
        """The single rational residue when degree == 1, else None."""
        if self.degree != 1:
            return None
        return -self.minpoly[0] / self.minpoly[1]

    def argument(self) -> RatFunc:
        """arg as one A/L in the x variables and t, t last, with L free of t."""
        n = self.arity
        return UniPoly(n, n + 1, [c.extend_arity(n + 1) for c in self.arg]).to_ratfunc()

    def log_derivative(self, var: int) -> RatFunc:
        """Exact RatFunc value of sum_t t * d_var(arg)/arg.

        Raises ZeroDivisionInField when arg vanishes at a root of minpoly.
        """
        c = self.residue_value()
        if c is not None:
            return self.arg[0].log_derivative(var).scale(c)
        return _group_log_derivative(list(self.minpoly), self.argument(), var)

    def term(self, names: list[str] | None, weight: Fraction) -> tuple[str, bool]:
        """weight times the group as a (body, negative) term of ``_signed_sum``.

        Degree 1 is c*log(arg) with c = residue * weight.  A higher degree
        is sum[t: m = 0] t*log(A/L), A/L the ``argument()`` printed over
        names and t, t named by ``bound_name``; times |weight| unless that is 1.
        """
        names = names or [f"x{i + 1}" for i in range(self.arity)]
        c = self.residue_value()
        if c is not None:
            c *= weight
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            return f"{mag}log({self.arg[0].render(names)})", c < 0
        t = bound_name(names)
        arg = self.argument().render([*names, t])
        body = f"sum[{t}: {qpoly_render(self.minpoly, t)} = 0] {t}*log({arg})"
        return (body if abs(weight) == 1 else f"{abs(weight)}*({body})"), weight < 0

    def render(self, names: list[str] | None = None, weight: Fraction = Fraction(1)) -> str:
        return _signed_sum([self.term(names, weight)])


def _group_log_derivative(m: list[Fraction], f: RatFunc, var: int) -> RatFunc:
    """``ResidueGroup.log_derivative`` for a group of degree 2 or more, f its argument()."""
    arity = f.arity - 1
    # arg = A/L with L free of t: sum_t t*dA/A is Tr(t * dA * adj(A)) / Norm(A),
    # and sum_t t*dL/L is p_1 * dL/L
    t, n = arity, arity + 2
    m = UniPoly(0, 1, m).monic().coeffs
    a = f.num.extend_arity(n)
    adj, norm = _adjugate(a, m, t, n - 1)
    if norm.is_zero():
        raise ZeroDivisionInField("group argument vanishes at a root of its minimal polynomial")
    sums = power_sums(m, len(m) - 1)
    tr = _mod(MultiPoly.variable(n, t) * a.derivative(var) * adj, m, t)
    trace = MultiPoly.zero(n)
    for k, c in _coeffs_in_var(tr, t).items():
        trace = trace + c.scale(sums[k])
    total = RatFunc(_drop(trace, arity), _drop(norm, arity))
    if sums[1]:
        total = total - RatFunc(_drop(f.den, arity)).log_derivative(var).scale(sums[1])
    return total


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i * i != n:
                out.append(n // i)
        i += 1
    return out


def _rational_roots(m: list[Fraction]) -> list[Fraction]:
    """Rational roots of a monic squarefree polynomial, by trial of p/q."""
    roots: list[Fraction] = []
    if len(m) > 1 and m[0] == 0:
        roots.append(Fraction(0))
        m = m[1:]
    if len(m) <= 1:
        return roots
    ints, _ = _ints_over_lcm(m)
    a0, ad = ints[0], ints[-1]
    if abs(a0) > 10**12 or abs(ad) > 10**12:
        # divisor enumeration would not be worth it; unsplit groups stay valid
        return roots
    for p in _divisors(a0):
        for q in _divisors(ad):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                val = Fraction(0)
                for c in reversed(m):
                    val = val * cand + c
                if val == 0:
                    roots.append(cand)
    return roots


def rothstein_trager(num: UniPoly, den: UniPoly) -> list[ResidueGroup]:
    """Logarithmic part of num/den in the main variable of den.

    Requires den squarefree, deg(num) < deg(den), gcd(num, den) a unit.
    Raises NonConstantResidue when the residues are not constants, which
    signals a non-closed input form upstream.

    With den monic, num = c*den' for a constant c is answered first, as the
    one group c*log(den): it covers every degree-1 den with a constant
    residue.  Every other input runs one subresultant chain of den and
    num - t*den' in x, cleared of denominators, over Q[level variables, t].
    Its last element is R(t) = res(den, num - t*den') up to a factor free of
    t; then come the squarefree factors of R by ``squarefree_yun`` over Q,
    one gcd per rational residue over the level's own field, and
    ``d5_gcd`` on the same chain for the irrational rest.
    """
    if den.is_zero():
        raise ZeroDivisionInField("zero denominator")
    if num.is_zero():
        return []
    num, den = num.common(den)
    arity = den.arity
    lc = den.lc()
    den = den.monic()
    num = num.scale(coeff_inverse(lc))
    dden = den.derivative()
    if num.degree() == dden.degree():
        # one residue c: num = c*den' gives R(t) = (t - c)^d * res(den, den')
        # and gcd(den, num - c*den') = den, so the log part is c*log(den)
        c = num.lc() / dden.lc()
        if isinstance(c, RatFunc):
            c = c.constant_value() if c.is_constant() else None
        if c is not None and num == dden.scale(c):
            return [ResidueGroup(minpoly=(-c, Fraction(1)), arg=(den.to_ratfunc(),))]
    # one subresultant chain of D and N - t*D' in x, cleared of denominators,
    # with t appended as variable `arity`: its last element is R(t) =
    # res_x(D, N - t*D') up to a factor free of t, or has positive degree in
    # x when R = 0
    x, t, ext = den.main_var, arity, arity + 1
    (n_x, dd_x), _ = _polys_over_lcm(arity, [num.to_ratfunc(), dden.to_ratfunc()])
    n_t, dd_t = n_x.extend_arity(ext), dd_x.extend_arity(ext)
    chain = _chain(den.to_ratfunc().num.extend_arity(ext), n_t - MultiPoly.variable(ext, t) * dd_t, x)
    if chain[-1].degree() > 0 or (res_t := UniPoly.of_poly(chain[-1].lc(), t)).degree() <= 0:
        raise NonConstantResidue("resultant degenerates; preconditions violated")
    if not res_t.over_q:
        lead = res_t.lc()
        m_full: list[Fraction] = []
        for c in res_t.coeffs:
            ratio = c / lead
            if not ratio.is_constant():
                raise NonConstantResidue(
                    f"residue polynomial coefficient {ratio.render()} is not constant"
                )
            m_full.append(ratio.constant_value())
        res_t = UniPoly(arity, ext, m_full)
    groups: list[ResidueGroup] = []
    for m_j, _ in squarefree_yun(res_t).parts:
        # a rational residue c: log of the monic gcd(den, num - c*den')
        for c in _rational_roots(m_j.coeffs):
            m_j = m_j.divmod(UniPoly(arity, ext, [-c, Fraction(1)]))[0]
            if c != 0:
                v = gcd_uni(den, num - dden.scale(c))
                groups.append(ResidueGroup(minpoly=(-c, Fraction(1)), arg=(v.to_ratfunc(),)))
        if m_j.degree() < 1:
            continue
        # the irrational rest: gcd(den, num - t*den') mod m_j, splitting m_j
        # where the gcd differs between its roots
        for m_branch, v in d5_gcd(chain, m_j):
            if len(v) < 2:
                continue  # trivial gcd: no residue from this branch
            # the coefficient of t^k in the argument is a polynomial in x
            arg = (
                UniPoly(x, ext, [e.coeff(k) for e in v]).to_ratfunc()
                for k in range(m_branch.degree())
            )
            groups.append(
                ResidueGroup(
                    minpoly=tuple(m_branch.coeffs),
                    arg=tuple(RatFunc._raw(_drop(f.num, arity), _drop(f.den, arity)) for f in arg),
                )
            )
    return groups
