"""Conjugate residue groups and the Rothstein-Trager logarithmic part.

A ResidueGroup encodes  sum over roots t of m(t)  of  t * log(arg(t, x))
without ever materializing the algebraic numbers t.  The minimal polynomial m
always has rational coefficients (constancy of residues is the computational
shadow of closedness); arguments may involve the x variables and powers of t.

A single residue needs no resultant: when num = c*den' for a constant c, the
logarithmic part is c*log(den).  Otherwise a rational residue c gets its
argument from one monic gcd at t = c, over the level's coefficient field: Q
when the level involves only its main variable, else the field K of the
other variables.  Only a factor of m without rational roots goes to the D5
gcd (Della Dora, Dicrescenzo and Duval), which works modulo m over the same
field and splits m dynamically when a zero divisor shows up.  The trace of
t * d(arg)/arg over the roots of m is one d x d linear solve in K[t]/(m) plus
Newton power sums.

Every polynomial in t is a ``UniPoly`` in variable ``arity`` of ``arity + 1``,
the slot the resultant gives t: the factors of R(t) over Q, and the elements
of F[t]/(m) over the level's field F, with K's elements as RatFuncs of
``arity + 1`` that do not involve t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import LvkError, NonConstantResidue, ZeroDivisionInField
from .linalg import rref
from .multipoly import MultiPoly
from .ratfunc import RatFunc
from .unipoly import (
    UniPoly,
    coeff_inverse,
    half_extended_gcd_uni,
    gcd_uni,
    resultant,
    squarefree_yun,
)


class SplitRequired(LvkError):
    """A zero divisor mod m(t) was hit; m factors as g * (m/g)."""

    def __init__(self, factor: UniPoly):
        self.factor = factor
        super().__init__("modulus must be split")


def qpoly_render(p: list[Fraction], symbol: str = "t") -> str:
    """Render with denominators cleared to integers, descending powers."""
    p = UniPoly(0, 1, p).coeffs
    if not p:
        return "0"
    mult = 1
    for c in p:
        mult = lcm(mult, c.denominator)
    ints = [int(c * mult) for c in p]
    pieces = []
    for d in range(len(ints) - 1, -1, -1):
        c = ints[d]
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        elif d == 1:
            body = symbol if abs(c) == 1 else f"{abs(c)}*{symbol}"
        else:
            body = f"{symbol}^{d}" if abs(c) == 1 else f"{abs(c)}*{symbol}^{d}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


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


def trace_of_algebraic(p: list[Fraction], m: list[Fraction]) -> Fraction:
    """Exact sum of p(t) over all roots of squarefree monic m."""
    m = UniPoly(0, 1, m).monic()
    p = UniPoly(0, 1, p) % m
    sums = power_sums(m.coeffs, m.degree())
    return sum((c * sums[i] for i, c in enumerate(p.coeffs)), Fraction(0))


# -- the D5 gcd in (F[t]/(m))[x] ------------------------------------------------
#
# An element of F[t]/(m) is a UniPoly in t reduced mod m, over the level's
# field F; m has rational coefficients, and d5_gcd lifts it into F once.  A
# polynomial in the main variable x is a dense list of such elements, indexed
# by the power of x.


def tp_inv(a: UniPoly, m: UniPoly) -> UniPoly:
    """Inverse of a mod m; raises SplitRequired on a proper zero divisor.

    One half-extended Euclid over F[t]: g = gcd(a, m) is 1 for a unit, and a
    g of positive degree is the factor m must be split by.
    """
    a = a % m
    if a.is_zero():
        raise ZeroDivisionInField("inverse of zero mod m")
    g, inv = half_extended_gcd_uni(a, m)
    if g.degree() > 0:
        if not g.over_q:
            for c in g.coeffs:
                if not c.is_constant():
                    raise NonConstantResidue(
                        "a divisor of the residue minimal polynomial has non-constant "
                        f"coefficient {c.render()}"
                    )
            g = UniPoly(g.main_var, g.arity, [c.constant_value() for c in g.coeffs])
        raise SplitRequired(g)
    return inv


def xp_trim(p: list[UniPoly], m: UniPoly) -> list[UniPoly]:
    p = [c % m for c in p]
    while p and p[-1].is_zero():
        p.pop()
    return p


def xp_monic(p: list[UniPoly], m: UniPoly) -> list[UniPoly]:
    inv = tp_inv(p[-1], m)
    return [(c * inv) % m for c in p]


def xp_rem(a: list[UniPoly], b: list[UniPoly], m: UniPoly) -> list[UniPoly]:
    """Remainder of a by monic b."""
    r = list(a)
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        lead = r[-1]
        if lead.is_zero():
            r.pop()
            continue
        for i in range(len(b)):
            r[k + i] = r[k + i] - lead * b[i]
        r = xp_trim(r, m)
    return xp_trim(r, m)


def d5_gcd(
    a: list[UniPoly], b: list[UniPoly], m: UniPoly
) -> list[tuple[UniPoly, list[UniPoly]]]:
    """Monic gcd of a, b in (F[t]/m)[x] with dynamic splitting of m.

    Returns a list of (m_branch, gcd) pairs covering all conjugate branches.
    """
    mod = m if a[-1].over_q else m.lift()  # m in the elements' field, lifted once
    try:
        p = xp_trim(a, mod)
        q = xp_trim(b, mod)
        while q:
            q = xp_monic(q, mod)
            p, q = q, xp_rem(p, q, mod)
        if not p:
            raise ZeroDivisionInField("gcd of zero polynomials mod m")
        return [(m, xp_monic(p, mod))]
    except SplitRequired as split:
        g = split.factor
        h, rem = m.divmod(g)
        if not rem.is_zero():
            raise NonConstantResidue("split factor does not divide the modulus")
        return d5_gcd(a, b, g) + d5_gcd(a, b, h.monic())


# -- residue groups ----------------------------------------------------------


@dataclass(frozen=True)
class ResidueGroup:
    """sum over roots t of minpoly of  t * log(arg(t, x)).

    minpoly: monic squarefree, rational coefficients, ascending powers.
    arg: coefficient of t**k at index k; each a RatFunc in the x variables.
    """

    minpoly: tuple[Fraction, ...]
    arg: tuple[RatFunc, ...]

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

    def arg_at_rational(self, value: Fraction) -> RatFunc:
        acc = RatFunc.zero(self.arity)
        for k in reversed(range(len(self.arg))):
            acc = acc.scale(value) + self.arg[k]
        return acc

    def log_derivative(self, var: int) -> RatFunc:
        """Exact RatFunc value of sum_t t * d_var(arg)/arg.

        Raises ZeroDivisionInField when arg vanishes at a root of minpoly.
        """
        return _group_log_derivative(list(self.minpoly), list(self.arg), var)

    def render(self, names: list[str] | None = None) -> str:
        arity = self.arity
        names = names or [f"x{i+1}" for i in range(arity)]
        if self.degree == 1:
            c = self.residue_value()
            body = self.arg_at_rational(c).render(names)
            if c == 1:
                return f"log({body})"
            return f"{c}*log({body})"
        arg_terms = []
        for k, c in enumerate(self.arg):
            if c.is_zero():
                continue
            tpow = "" if k == 0 else ("*t" if k == 1 else f"*t^{k}")
            arg_terms.append(f"({c.render(names)}){tpow}" if tpow else c.render(names))
        arg_str = " + ".join(arg_terms) if arg_terms else "0"
        return f"sum[t: {qpoly_render(list(self.minpoly))} = 0] t*log({arg_str})"


def _group_log_derivative(m: list[Fraction], arg: list[RatFunc], var: int) -> RatFunc:
    arity = arg[0].arity
    if len(m) == 2:
        c = -m[0] / m[1]
        val = RatFunc.zero(arity)
        for k in reversed(range(len(arg))):
            val = val.scale(c) + arg[k]
        return val.log_derivative(var).scale(c)
    # u = t * d(arg)/arg in K[t]/(m) solves  sum_j u_j * (t^j * arg) = t * d(arg):
    # column j of the system holds t^j * arg mod m.  K is the field of every
    # level variable here, its elements RatFuncs of arity + 1 free of t.
    ext = arity + 1
    m = UniPoly(arity, ext, m).monic()
    d = m.degree()
    mod, zero = m.lift(), RatFunc.zero(ext)
    col = UniPoly(arity, ext, [c.extend_arity(ext) for c in arg]) % mod
    cols = []
    for _ in range(d):
        cols.append(col)
        col = UniPoly(arity, ext, [zero, *col.coeffs]) % mod  # t * col
    rhs = UniPoly(arity, ext, [zero, *(c.derivative(var).extend_arity(ext) for c in arg)]) % mod
    # the solve runs over the level's own variables
    _, u, pivots = rref(
        [[_drop_t(c.coeff(i), arity) for c in cols] for i in range(d)],
        [_drop_t(rhs.coeff(i), arity) for i in range(d)],
    )
    if len(pivots) < d:
        # the determinant is the norm of arg, which is zero
        raise ZeroDivisionInField("group argument vanishes at a root of its minimal polynomial")
    sums = power_sums(m.coeffs, d)
    total = RatFunc.zero(arity)
    for k, c in enumerate(u):
        total = total + c.scale(sums[k])
    return total


def _drop_t(f: RatFunc, arity: int) -> RatFunc:
    """f, free of the residue symbol t (variable `arity`), over the level's variables."""
    num, den = (
        MultiPoly._raw(arity, {e[:arity]: c for e, c in p.nums.items()}, p.den)
        for p in (f.num, f.den)
    )
    return RatFunc._raw(num, den)


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
    mult = 1
    for c in m:
        mult = lcm(mult, c.denominator)
    ints = [int(c * mult) for c in m]
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
    residue.  Every other input takes the resultant R(t) = res(den,
    num - t*den'), its squarefree factors by ``squarefree_yun`` over Q, one
    gcd per rational residue and the D5 gcd for the irrational rest.  The
    shortcut, the rational residues and D5 run over the level's own field;
    the resultant works over K, so a level over Q lifts its coefficients to
    constant RatFuncs for it.
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
    # resultant in a fresh residue symbol appended as variable index `arity`;
    # a level over Q lifts its coefficients to constants of that arity
    ext = arity + 1
    t_rf = RatFunc(MultiPoly.variable(ext, arity))
    q = num.lift(ext) - dden.lift(ext).scale(t_rf)
    res = resultant(den.lift(ext), q)
    res_t = UniPoly.of_poly(res.num, arity)  # univariate view in t
    if res_t.degree() <= 0:
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
        # the irrational rest: gcd(den, num - t*den') mod m_j over the level's
        # field, splitting m_j on demand
        den_t, num_t, dden_t = (p if p.over_q else p.lift(ext) for p in (den, num, dden))
        a = [UniPoly(arity, ext, [c]) for c in den_t.coeffs]
        b = [UniPoly(arity, ext, [num_t.coeff(i), -dden_t.coeff(i)]) for i in range(den.degree())]
        for m_branch, v in d5_gcd(a, b, m_j):
            if len(v) < 2:
                continue  # trivial gcd: no residue from this branch
            # the coefficient of t^k in the argument is a polynomial in x
            arg = (
                UniPoly(den.main_var, ext, [e.coeff(k) for e in v]).to_ratfunc()
                for k in range(m_branch.degree())
            )
            groups.append(
                ResidueGroup(
                    minpoly=tuple(m_branch.coeffs), arg=tuple(_drop_t(f, arity) for f in arg)
                )
            )
    return groups
