"""Exact dense linear algebra over the rationals and over rational-function fields.

The generic routines only assume field operations, so the same elimination
serves Fraction matrices (synthesis) and RatFunc matrices (rank, determinants).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import LvkError


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


def rref(matrix: Sequence[Sequence], rhs: Sequence | None = None):
    """Reduced row echelon form over a field.

    Returns (reduced rows, reduced rhs, pivot column list). Inputs are not
    mutated.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    b = list(rhs) if rhs is not None else None
    if b is not None and len(b) != nrows:
        raise DimensionMismatch("rhs length mismatch")
    if nrows == 0:
        return m, b, []
    zero, _, is_zero = _field_ops_for(m[0][0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if b is not None:
            b[r], b[pr] = b[pr], b[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        if b is not None:
            b[r] = b[r] / inv
        for i in range(nrows):
            if i == r or is_zero(m[i][c]):
                continue
            f = m[i][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            if b is not None:
                b[i] = b[i] - f * b[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, b, pivots


def solve_linear(rows: Sequence[Sequence], rhs: Sequence[Fraction]) -> LinearSolution | None:
    """Exact solution set of rows x = rhs, or None when inconsistent."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged rows")
    if len(rhs) != nrows:
        raise DimensionMismatch(f"rhs has {len(rhs)} entries, matrix has {nrows} rows")
    m, b, pivots = rref(rows, [Fraction(x) for x in rhs])
    rank = len(pivots)
    zero = Fraction(0)
    for i in range(rank, nrows):
        if b[i] != 0:
            return None
    particular = [zero] * ncols
    for r, c in enumerate(pivots):
        particular[c] = b[r]
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
    if not rows:
        return 0, [], []
    nrows, ncols = len(rows), len(rows[0])
    m = [list(r) for r in rows]
    zero, _, is_zero = _field_ops_for(m[0][0])
    row_order = list(range(nrows))
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row_order[r], row_order[pr] = row_order[pr], row_order[r]
        for i in range(r + 1, nrows):
            if is_zero(m[i][c]):
                continue
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_rows.append(row_order[r])
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return len(piv_cols), sorted(piv_rows), piv_cols


def determinant(rows: Sequence[Sequence]):
    """Determinant over a field by fraction-field elimination."""
    n = len(rows)
    if n == 0:
        raise DimensionMismatch("empty matrix")
    for row in rows:
        if len(row) != n:
            raise DimensionMismatch("determinant of non-square matrix")
    m = [list(r) for r in rows]
    zero, one, is_zero = _field_ops_for(m[0][0])
    det = one
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if not is_zero(m[i][c])), None)
        if pr is None:
            return zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        det = det * m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if is_zero(m[i][c]):
                continue
            f = m[i][c] / inv
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    if sign < 0:
        det = zero - det
    return det
