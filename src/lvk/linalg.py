"""Exact dense linear algebra over the rationals, rational functions and polynomials.

One forward elimination, ``_eliminate``, only assumes field operations, so it
serves Fraction matrices (synthesis) and RatFunc matrices (rank,
determinants); ``solve_linear`` finishes it with ``_back_pass``.  Matrices of
polynomials whose minors are wanted (theorem 2's Gamma) take
``_fraction_free``, Bareiss's elimination, which stays in the polynomial ring
and divides only exactly, so no step runs a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Sequence

from .errors import LvkError
from .multipoly import MultiPoly, exact_div


class DimensionMismatch(LvkError):
    pass


@dataclass(frozen=True)
class LinearSolution:
    """Affine description of the solution set of M x = rhs."""

    particular: tuple
    nullspace: tuple  # tuple of basis vectors (tuples)


def _field_ops_for(sample):
    if isinstance(sample, Fraction) or isinstance(sample, int):
        zero, one = Fraction(0), Fraction(1)
        return zero, one, lambda x: x == 0
    # duck-typed field element (RatFunc)
    return sample - sample, type(sample).one(sample.arity), lambda x: x.is_zero()


def _eliminate(rows: Sequence[Sequence]):
    """Forward elimination: (echelon rows, pivot columns, row order, sign).

    A column's pivot is its first nonzero entry at or below the current row,
    swapped up and not normalised.  Echelon row r comes from input row
    ``order[r]``; ``sign`` is the sign of that permutation.
    """
    m = [list(row) for row in rows]
    order = list(range(len(m)))
    pivots: list[int] = []
    sign = 1
    if not m or not m[0]:
        return m, pivots, order, sign
    zero, _, is_zero = _field_ops_for(m[0][0])
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], order[r], order[pr] = m[pr], m[r], order[pr], order[r]
            sign = -sign
        row = m[r]
        nonzero = [j for j in range(c + 1, len(row)) if not is_zero(row[j])]
        for target in m[r + 1 :]:
            if not is_zero(target[c]):
                f = target[c] / row[c]
                for j in nonzero:
                    target[j] = target[j] - f * row[j]
                target[c] = zero
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots, order, sign


def _back_pass(m: list[list], pivots: Sequence[int]) -> None:
    """Reduce echelon rows in place: each pivot becomes 1, and 0 above it.

    A column without a pivot then holds y with (pivot columns) y = (that column).
    """
    if not pivots:
        return
    zero, one, is_zero = _field_ops_for(m[0][0])
    for r in range(len(pivots) - 1, -1, -1):
        c, row = pivots[r], m[r]
        nonzero = [j for j in range(c + 1, len(row)) if not is_zero(row[j])]
        for j in nonzero:
            row[j] = row[j] / row[c]
        row[c] = one
        for target in m[:r]:
            if not is_zero(target[c]):
                f = target[c]
                for j in nonzero:
                    target[j] = target[j] - f * row[j]
                target[c] = zero


def _fraction_free(rows: Sequence[Sequence[MultiPoly]]):
    """Fraction-free Gauss–Jordan elimination of polynomial rows: (rows, pivot columns, sign).

    Pivots are chosen as in ``_eliminate``: a column's first nonzero entry at
    or below the current row, swapped up; ``sign`` is the sign of the row
    permutation.  At pivot p each other row t becomes (p*t - t[c]*row) / q,
    with q the previous pivot (Bareiss, *Math. Comp.* 22, 1968).  By
    Sylvester's identity every entry is then a minor of the row-permuted
    input, so the division is exact.  At the end every pivot row holds the
    last pivot p in its own pivot column and 0 in the others; p is the minor
    on the pivot columns, and row r's entry in a column without a pivot is
    that minor with pivot column r replaced by this column.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign = 1
    ncols = len(m[0])
    zero = MultiPoly.zero(m[0][0].arity)
    previous = None
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        row = m[r]
        p = row[c]
        # columns with a pivot hold only pivots, equal to the previous one
        rest = [j for j in range(ncols) if j != c and j not in pivots]
        nonzero = {j for j in rest if not row[j].is_zero()}
        for i, target in enumerate(m):
            if i == r:
                continue
            f = target[c]
            subtract = () if f.is_zero() else nonzero
            for j in rest:
                t = target[j]
                if j in subtract:
                    t = p * t - f * row[j]
                elif t.is_zero():
                    continue
                else:
                    t = p * t
                target[j] = t if previous is None or t.is_zero() else exact_div(t, previous)
            if i < r:
                target[pivots[i]] = p
            target[c] = zero
        pivots.append(c)
        previous = p
        if len(pivots) == len(m):
            break
    return m, pivots, sign


def solve_linear(rows: Sequence[Sequence], rhs: Sequence[Fraction]) -> LinearSolution | None:
    """Exact solution set of rows x = rhs, or None when inconsistent.

    The rhs is eliminated as an extra column; a pivot there marks an
    inconsistent system.  Inputs are not mutated.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged rows")
    if len(rhs) != nrows:
        raise DimensionMismatch(f"rhs has {len(rhs)} entries, matrix has {nrows} rows")
    m, pivots, _, _ = _eliminate([[*row, Fraction(b)] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    _back_pass(m, pivots)
    zero = Fraction(0)
    particular = [zero] * ncols
    for r, c in enumerate(pivots):
        particular[c] = m[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(tuple(v))
    return LinearSolution(particular=tuple(particular), nullspace=tuple(basis))


def rank_with_witness(rows: Sequence[Sequence]):
    """Rank plus the (row, column) index sets of a nonzero maximal minor."""
    _, pivots, order, _ = _eliminate(rows)
    return len(pivots), sorted(order[: len(pivots)]), pivots


def determinant(rows: Sequence[Sequence]):
    """Determinant over a field: the signed product of the elimination's pivots."""
    n = len(rows)
    if n == 0:
        raise DimensionMismatch("empty matrix")
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    m, pivots, _, sign = _eliminate(rows)
    if len(pivots) < n:
        return _field_ops_for(m[0][0])[0]
    det = reduce(mul, (m[r][r] for r in range(n)))
    return det if sign > 0 else -det
