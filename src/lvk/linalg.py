"""Exact dense linear algebra by one elimination: Bareiss's fraction-free pass.

``_fraction_free`` eliminates rows of ints or of polynomials and divides
only exactly, so no step runs a gcd.  Rows of rationals or rational
functions are first cleared into that ring row by row (``_cleared``): each
is multiplied by the lcm of its denominators, which changes neither the
rank, nor the pivot columns, nor the reduced row echelon form.
``solve_linear`` reads that form off the eliminated rows as entry over last
pivot, ``rank_with_witness`` reads the pivots and the row order, and
``determinant`` is the signed last pivot over the product of the row
scales.  Theorem 2's Gamma clears its own rows and reads its minors off the
same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import floordiv, mul, not_
from typing import Sequence

from .errors import LvkError
from .multipoly import MultiPoly, _ints_over_lcm, exact_div
from .ratfunc import RatFunc, _polys_over_lcm


class DimensionMismatch(LvkError):
    pass


@dataclass(frozen=True)
class LinearSolution:
    """Affine description of the solution set of M x = rhs."""

    particular: tuple
    nullspace: tuple  # tuple of basis vectors (tuples)


def _cleared(row: Sequence):
    """(ring row, scale): row times ``scale``, the lcm of its denominators.

    A row of Fractions or ints becomes a row of ints, a row of RatFuncs a
    row of MultiPolys.
    """
    if row and isinstance(row[0], RatFunc):
        return _polys_over_lcm(row[0].arity, row)
    return _ints_over_lcm(row)


def _fraction_free(rows: Sequence[Sequence]):
    """Fraction-free Gauss–Jordan elimination of int or MultiPoly rows.

    Returns (rows, pivot columns, row order, sign).  A column's pivot is
    its first nonzero entry at or below the current row, swapped up.
    Eliminated row r comes from input row ``order[r]``, and ``sign`` is the
    sign of that permutation.  At pivot p each other row t becomes
    (p*t - t[c]*row) / q, with q the previous pivot (Bareiss, *Math. Comp.*
    22, 1968).  By Sylvester's identity every entry is then a minor of the
    row-permuted input, so the division is exact.  At the end every pivot
    row holds the last pivot p in its own pivot column and 0 in the others,
    and the rows past the rank are 0; p is the minor on the pivot columns,
    and row r's entry in a column without a pivot is that minor with pivot
    column r replaced by this column.
    """
    m = [list(row) for row in rows]
    order = list(range(len(m)))
    pivots: list[int] = []
    sign = 1
    if not m or not m[0]:
        return m, pivots, order, sign
    if isinstance(m[0][0], MultiPoly):
        zero, is_zero, div = MultiPoly.zero(m[0][0].arity), MultiPoly.is_zero, exact_div
    else:
        zero, is_zero, div = 0, not_, floordiv
    ncols = len(m[0])
    previous = None
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], order[r], order[pr] = m[pr], m[r], order[pr], order[r]
            sign = -sign
        row = m[r]
        p = row[c]
        # columns with a pivot hold only pivots, equal to the previous one
        rest = [j for j in range(ncols) if j != c and j not in pivots]
        nonzero = {j for j in rest if not is_zero(row[j])}
        for i, target in enumerate(m):
            if i == r:
                continue
            f = target[c]
            subtract = () if is_zero(f) else nonzero
            for j in rest:
                t = target[j]
                if j in subtract:
                    t = p * t - f * row[j]
                elif is_zero(t):
                    continue
                else:
                    t = p * t
                target[j] = t if previous is None or is_zero(t) else div(t, previous)
            if i < r:
                target[pivots[i]] = p
            target[c] = zero
        pivots.append(c)
        previous = p
        if len(pivots) == len(m):
            break
    return m, pivots, order, sign


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
    m, pivots, _, _ = _fraction_free([_cleared([*row, b])[0] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    last = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    zero = Fraction(0)
    particular = [zero] * ncols
    for r, c in enumerate(pivots):
        particular[c] = Fraction(m[r][ncols], last)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-m[r][f], last)
        basis.append(tuple(v))
    return LinearSolution(particular=tuple(particular), nullspace=tuple(basis))


def rank_with_witness(rows: Sequence[Sequence]):
    """Rank plus the (row, column) index sets of a nonzero maximal minor."""
    _, pivots, order, _ = _fraction_free([_cleared(row)[0] for row in rows])
    return len(pivots), sorted(order[: len(pivots)]), pivots


def determinant(rows: Sequence[Sequence]):
    """Determinant of Fractions or RatFuncs: the signed last pivot over the row scales."""
    n = len(rows)
    if n == 0:
        raise DimensionMismatch("empty matrix")
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    cleared = [_cleared(row) for row in rows]
    m, _, _, sign = _fraction_free([row for row, _ in cleared])
    # a singular matrix leaves its last row 0
    last = m[-1][-1] if sign > 0 else -m[-1][-1]
    if isinstance(last, MultiPoly):
        # a gcd per row scale costs less than one with their product
        inverses = (RatFunc.of_poly(s).inverse() for _, s in cleared)
        return reduce(mul, inverses, RatFunc.of_poly(last))
    return Fraction(last, reduce(mul, (s for _, s in cleared)))
