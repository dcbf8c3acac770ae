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
gcd, which works modulo m and splits m dynamically when a zero divisor shows
up.  The trace of t * d(arg)/arg over the roots of m is one d x d linear
solve in K[t]/(m) plus Newton power sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import LvkError, NonConstantResidue, ZeroDivisionInField
from .linalg import rref
from .multipoly import MultiPoly
from .ratfunc import RatFunc
from .unipoly import UniPoly, coeff_inverse, dense_divmod, gcd_uni, resultant, squarefree_yun


class SplitRequired(LvkError):
    """A zero divisor mod m(t) was hit; m factors as g * (m/g)."""

    def __init__(self, factor: list[Fraction]):
        self.factor = factor
        super().__init__("modulus must be split")


# -- rational univariate helpers (polynomials in t over Q, dense ascending) --


def qpoly_trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def qpoly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    b = qpoly_trim(b)
    if not b:
        raise ZeroDivisionInField("division by zero polynomial in t")
    return dense_divmod(qpoly_trim(a), b, Fraction(0))


def qpoly_monic(p: list[Fraction]) -> list[Fraction]:
    p = qpoly_trim(p)
    if not p:
        return p
    lc = p[-1]
    return [c / lc for c in p]


def qpoly_render(p: list[Fraction], symbol: str = "t") -> str:
    """Render with denominators cleared to integers, descending powers."""
    p = qpoly_trim(p)
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
    m = qpoly_trim(m)
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
    m = qpoly_monic(m)
    _, p = qpoly_divmod(qpoly_trim([Fraction(c) for c in p]), m)
    sums = power_sums(m, len(m) - 1)
    return sum((c * sums[i] for i, c in enumerate(p)), Fraction(0))


# -- arithmetic in K[t]/(m) with K a RatFunc field --------------------------
#
# elements are dense lists of RatFunc indexed by the power of t


def tp_trim(a: list[RatFunc]) -> list[RatFunc]:
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def tp_is_zero(a: list[RatFunc]) -> bool:
    return not tp_trim(a)


def tp_reduce(a: list[RatFunc], m: list[Fraction], arity: int) -> list[RatFunc]:
    a = tp_trim(a)
    d = len(m) - 1
    while len(a) > d:
        lead = a.pop()
        k = len(a) - d
        for i in range(d):
            a[k + i] = a[k + i] - lead.scale(m[i])
        a = tp_trim(a)
    return a

def tp_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else None
        y = b[i] if i < len(b) else None
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(x + y)
    return tp_trim(out)


def tp_neg(a):
    return [-x for x in a]


def tp_mul(a, b, m, arity):
    a, b = tp_trim(a), tp_trim(b)
    if not a or not b:
        return []
    out = [RatFunc.zero(arity)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tp_reduce(out, m, arity)


def _coerce_rational_tpoly(g: list[RatFunc]) -> list[Fraction]:
    out = []
    for c in g:
        if not c.is_constant():
            raise NonConstantResidue(
                "a divisor of the residue minimal polynomial has non-constant "
                f"coefficient {c.render()}"
            )
        out.append(c.constant_value())
    return out


def tp_inv(a: list[RatFunc], m: list[Fraction], arity: int) -> list[RatFunc]:
    """Inverse of a mod m; raises SplitRequired on a proper zero divisor.

    One extended Euclid over K[t]: the final remainder is gcd(a, m), and a
    nonconstant gcd is the factor m must be split by.
    """
    a = tp_reduce(a, m, arity)
    if not a:
        raise ZeroDivisionInField("inverse of zero mod m")
    r0, r1 = [RatFunc.constant(arity, c) for c in m], a
    t0, t1 = [], [RatFunc.one(arity)]
    zero = RatFunc.zero(arity)
    while r1:
        q, r = dense_divmod(r0, r1, zero)
        r0, r1 = r1, r
        t0, t1 = t1, tp_add(t0, tp_neg(tp_mul(q, t1, m, arity)))
    inv = r0[-1].inverse()
    if len(r0) > 1:
        factor = qpoly_monic(_coerce_rational_tpoly([c * inv for c in r0]))
        if len(factor) == len(m):
            raise ZeroDivisionInField("element is zero mod m")
        raise SplitRequired(factor)
    return tp_reduce([x * inv for x in t0], m, arity)


# -- polynomials in the main variable with coefficients in K[t]/(m) ----------
#
# represented as dense lists (by power of the main variable) of t-element lists


def xp_trim(p, m, arity):
    p = [tp_reduce(c, m, arity) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def xp_monic(p, m, arity):
    inv = tp_inv(p[-1], m, arity)
    return [tp_mul(c, inv, m, arity) for c in p]


def xp_rem(a, b, m, arity):
    """Remainder of a by monic b."""
    r = [list(c) for c in a]
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        lead = r[-1]
        if tp_is_zero(lead):
            r.pop()
            continue
        for i in range(len(b)):
            r[k + i] = tp_add(r[k + i], tp_neg(tp_mul(lead, b[i], m, arity)))
        r = xp_trim(r, m, arity)
    return xp_trim(r, m, arity)


def d5_gcd(a, b, m, arity):
    """Monic gcd of a, b in (K[t]/m)[x] with dynamic splitting of m.

    Returns a list of (m_branch, gcd) pairs covering all conjugate branches.
    """
    try:
        p = xp_trim(a, m, arity)
        q = xp_trim(b, m, arity)
        while q:
            q = xp_monic(q, m, arity)
            p, q = q, xp_rem(p, q, m, arity)
        if not p:
            raise ZeroDivisionInField("gcd of zero polynomials mod m")
        p = xp_monic(p, m, arity)
        return [(list(m), p)]
    except SplitRequired as split:
        g = split.factor
        h, rem = qpoly_divmod(m, g)
        if rem:
            raise NonConstantResidue("split factor does not divide the modulus")
        out = []
        for sub in (qpoly_monic(g), qpoly_monic(h)):
            sub_a = [tp_reduce(c, sub, arity) for c in a]
            sub_b = [tp_reduce(c, sub, arity) for c in b]
            out.extend(d5_gcd(sub_a, sub_b, sub, arity))
        return out


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
    m = qpoly_monic(m)
    d = len(m) - 1
    if d == 1:
        c = -m[0]
        val = RatFunc.zero(arity)
        for k in reversed(range(len(arg))):
            val = val.scale(c) + arg[k]
        return val.log_derivative(var).scale(c)
    # u = t * d(arg)/arg in K[t]/(m) solves  sum_j u_j * (t^j * arg) = t * d(arg):
    # column j of the system holds t^j * arg mod m
    zero = RatFunc.zero(arity)
    col = tp_reduce(list(arg), m, arity)
    cols = []
    for _ in range(d):
        cols.append(col + [zero] * (d - len(col)))
        col = tp_reduce([zero, *col], m, arity)
    rhs = tp_reduce([zero, *(c.derivative(var) for c in arg)], m, arity)
    rhs += [zero] * (d - len(rhs))
    _, u, pivots = rref([[c[i] for c in cols] for i in range(d)], rhs)
    if len(pivots) < d:
        # the determinant is the norm of arg, which is zero
        raise ZeroDivisionInField("group argument vanishes at a root of its minimal polynomial")
    sums = power_sums(m, d)
    total = zero
    for k, c in enumerate(u):
        total = total + c.scale(sums[k])
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
    m = qpoly_monic(m)
    roots: list[Fraction] = []
    if len(m) > 1 and m[0] == 0:
        roots.append(Fraction(0))
        m = qpoly_monic(m[1:])
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
    shortcut and the rational residues run over the level's own field; the
    resultant and D5 work over K, so a level over Q lifts its coefficients
    to constant RatFuncs for them.
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
    for factor, _ in squarefree_yun(res_t).parts:
        m_j = factor.coeffs
        # a rational residue c: log of the monic gcd(den, num - c*den')
        for c in _rational_roots(m_j):
            m_j = qpoly_divmod(m_j, [-c, Fraction(1)])[0]
            if c != 0:
                v = gcd_uni(den, num - dden.scale(c))
                groups.append(ResidueGroup(minpoly=(-c, Fraction(1)), arg=(v.to_ratfunc(),)))
        if len(m_j) - 1 < 1:
            continue
        # the irrational rest: gcd(den, num - t*den') mod m_j over K, splitting m_j on demand
        den_k, num_k, dden_k = den.lift(), num.lift(), dden.lift()
        a = [[c] for c in den_k.coeffs]
        b = [[num_k.coeff(i), -dden_k.coeff(i)] for i in range(den.degree())]
        for m_branch, v in d5_gcd(a, b, m_j, arity):
            if len(v) - 1 < 1:
                continue  # trivial gcd: no residue from this branch
            x_rf = RatFunc(MultiPoly.variable(arity, den.main_var))
            d_branch = len(m_branch) - 1
            arg = [RatFunc.zero(arity) for _ in range(d_branch)]
            for i, telem in enumerate(v):
                xpow = x_rf**i
                for k, c in enumerate(telem):
                    arg[k] = arg[k] + c * xpow
            groups.append(
                ResidueGroup(minpoly=tuple(qpoly_monic(m_branch)), arg=tuple(arg))
            )
    return groups
