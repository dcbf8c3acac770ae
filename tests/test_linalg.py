import random
from fractions import Fraction

import pytest

from lvk.linalg import (
    DimensionMismatch,
    _cleared,
    _fraction_free,
    determinant,
    rank_with_witness,
    solve_linear,
)
from lvk.multipoly import MultiPoly
from lvk.parsing import parse_ratfunc
from lvk.ratfunc import RatFunc

from conftest import random_poly

F = Fraction


def test_solve_linear_diagonal():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    rhs = [F(4), F(9)]
    sol = solve_linear(rows, rhs)
    assert sol.particular == (F(2), F(3))
    assert sol.nullspace == ()
    assert rows == [[F(2), F(0)], [F(0), F(3)]] and rhs == [F(4), F(9)]  # not mutated


def test_solve_unique():
    sol = solve_linear([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol.particular == (F(2), F(1))
    assert sol.nullspace == ()


def test_solve_underdetermined():
    sol = solve_linear([[F(1), F(1), F(0)]], [F(2)])
    assert len(sol.nullspace) == 2
    # every reported vector actually solves the system
    for v in sol.nullspace:
        assert v[0] + v[1] == 0
    assert sol.particular[0] + sol.particular[1] == F(2)


def test_solve_inconsistent():
    assert solve_linear([[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_solve_rejects_ragged_rows_and_short_rhs():
    with pytest.raises(DimensionMismatch):
        solve_linear([[F(1), F(2)], [F(1)]], [F(0), F(1)])
    with pytest.raises(DimensionMismatch):
        solve_linear([[F(1), F(2)], [F(3), F(4)]], [F(0)])


def test_determinant_values_and_sign():
    assert determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert determinant([[F(0), F(1)], [F(1), F(0)]]) == F(-1)
    assert determinant([[F(1), F(1)], [F(1), F(1)]]) == F(0)
    with pytest.raises(DimensionMismatch):
        determinant([[F(1), F(2)]])


def test_determinant_over_ratfunc_field():
    names = ["x", "y"]
    a = parse_ratfunc("x", names)
    b = parse_ratfunc("y", names)
    det = determinant([[a, b], [b, a]])
    assert det == parse_ratfunc("x^2 - y^2", names)


def test_rank_with_witness_reports_nonzero_minor():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    rank, wr, wc = rank_with_witness(rows)
    assert rank == 2
    minor = [[rows[i][j] for j in wc] for i in wr]
    assert determinant(minor) != 0


def test_rank_invariant_under_row_scaling():
    rng = random.Random(3)
    for _ in range(50):
        rows = [
            [F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)
        ]
        base = rank_with_witness(rows)[0]
        scaled = [
            [F(rng.choice([1, 2, 3, -1, 5])) * x for x in row] for row in rows
        ]
        assert rank_with_witness(scaled)[0] == base


# -- independent oracle: sympy's Matrix ------------------------------------------------


def _entry(rng):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def _matrix(rng, nrows, ncols, rank=None):
    """Seeded Fraction matrix; with ``rank`` it is a product of nrows x rank and rank x ncols."""
    if rank is None:
        return [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    left = _matrix(rng, nrows, rank)
    right = _matrix(rng, rank, ncols)
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), F(0)) for j in range(ncols)]
        for i in range(nrows)
    ]


def _oracle_cases():
    rng = random.Random(20)
    cases = []
    for _ in range(12):
        n = rng.randint(1, 5)
        cases.append(_matrix(rng, n, n))  # square, mostly nonsingular
        if n > 1:
            cases.append(_matrix(rng, n, n, rank=n - 1))  # square singular
        cases.append(_matrix(rng, n, n + rng.randint(1, 3)))  # wide
        cases.append(_matrix(rng, n + rng.randint(1, 3), n))  # tall
        m, k = rng.randint(2, 5), rng.randint(2, 5)
        cases.append(_matrix(rng, m, k, rank=rng.randint(1, min(m, k) - 1)))  # rank-deficient
    cases.append([[F(0), F(0)], [F(0), F(0)]])
    cases.append([[F(0), F(2), F(1)], [F(0), F(4), F(2)], [F(3), F(0), F(0)]])
    return cases


def _to_sympy(sympy, rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _from_sympy(value):
    return F(int(value.p), int(value.q))


def test_determinant_rank_and_rref_match_sympy():
    sympy = pytest.importorskip("sympy")
    cases = _oracle_cases()
    assert any(len(rows) == len(rows[0]) and _to_sympy(sympy, rows).det() == 0 for rows in cases)
    assert any(len(rows) == len(rows[0]) and _to_sympy(sympy, rows).det() != 0 for rows in cases)
    for rows in cases:
        oracle = _to_sympy(sympy, rows)
        if len(rows) == len(rows[0]):
            assert determinant(rows) == _from_sympy(oracle.det())
        rank, wrows, wcols = rank_with_witness(rows)
        assert rank == oracle.rank()
        assert len(wrows) == len(wcols) == rank
        if rank:
            minor = [[rows[i][j] for j in wcols] for i in wrows]
            assert determinant(minor) != 0
            assert _to_sympy(sympy, minor).det() != 0
        # the RREF is the eliminated cleared rows over their last pivot
        reduced, pivots, _, _ = _fraction_free([_cleared(row)[0] for row in rows])
        last = reduced[len(pivots) - 1][pivots[-1]] if pivots else 1
        reduced = [[F(x, last) for x in row] for row in reduced]
        expected, expected_pivots = oracle.rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [_from_sympy(expected[i, j]) for j in range(len(rows[0]))]
            for i in range(len(rows))
        ]


def test_solve_linear_matches_sympy_on_consistent_and_inconsistent_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    inconsistent = 0
    for rows in _oracle_cases():
        nrows, ncols = len(rows), len(rows[0])
        oracle = _to_sympy(sympy, rows)
        x0 = [_entry(rng) for _ in range(ncols)]
        consistent_rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
        free_rhs = [_entry(rng) + 1 for _ in range(nrows)]
        for rhs in (consistent_rhs, free_rhs):
            augmented_rank = oracle.row_join(_to_sympy(sympy, [[b] for b in rhs])).rank()
            sol = solve_linear(rows, rhs)
            if augmented_rank > oracle.rank():
                inconsistent += 1
                assert sol is None
                continue
            assert sol is not None
            for row, b in zip(rows, rhs):
                assert sum((a * x for a, x in zip(row, sol.particular)), F(0)) == b
            assert len(sol.nullspace) == ncols - oracle.rank()
            for v in sol.nullspace:
                assert all(sum((a * x for a, x in zip(row, v)), F(0)) == 0 for row in rows)
            if sol.nullspace:
                assert _to_sympy(sympy, sol.nullspace).rank() == len(sol.nullspace)
    assert inconsistent >= 5


def test_ratfunc_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    names = ["x", "y", "z"]
    entries = [
        ["x/y", "1/(x+z)", "y^2"],
        ["x - 2*z", "3", "y/(x*z + 1)"],
        ["z", "x*y", "1/(y - 1)"],
    ]
    rows = [[parse_ratfunc(e, names) for e in row] for row in entries]
    symbols = sympy.symbols("x y z")
    oracle = sympy.Matrix(
        [[sympy.sympify(e.replace("^", "**"), locals=dict(zip(names, symbols))) for e in row]
         for row in entries]
    ).det()
    ours = determinant(rows)
    assert not ours.is_zero()
    ours_sympy = sympy.sympify(
        f"({ours.num.render(names)})/({ours.den.render(names)})".replace("^", "**"),
        locals=dict(zip(names, symbols)),
    )
    assert sympy.cancel(ours_sympy - oracle) == 0


POLY_NAMES = ["x", "y", "z"]


def _ratfunc_matrix(rng, nrows, ncols):
    def entry():
        num = random_poly(rng, 3, max_deg=1, max_terms=2, nonzero=True)
        return RatFunc(num, random_poly(rng, 3, max_deg=1, max_terms=2, nonzero=True))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _ratfunc_rank_cases():
    """Seeded RatFunc matrices of 2-4 rows: generic, first pivot below row 0, rank-deficient."""
    rng = random.Random(40)
    cases = []
    for nrows in range(2, 5):
        ncols = nrows + 1
        cases.append(pytest.param("generic", _ratfunc_matrix(rng, nrows, ncols), id=f"r{nrows}-generic"))
        rows = _ratfunc_matrix(rng, nrows, ncols)
        rows[0][0] = RatFunc.zero(3)
        cases.append(pytest.param("row-swap", rows, id=f"r{nrows}-row-swap"))
        right = _ratfunc_matrix(rng, nrows - 1, ncols)
        left = [[RatFunc.constant(3, rng.randint(-3, 3)) for _ in right] for _ in range(nrows)]
        product = [
            [sum((a[k] * right[k][j] for k in range(nrows - 1)), RatFunc.zero(3)) for j in range(ncols)]
            for a in left
        ]
        cases.append(pytest.param("rank-deficient", product, id=f"r{nrows}-rank-deficient"))
    return cases


@pytest.mark.parametrize("shape, rows", _ratfunc_rank_cases())
def test_ratfunc_rank_with_witness_matches_sympy(shape, rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    symbols = dict(zip(POLY_NAMES, sympy.symbols(POLY_NAMES)))

    def to_sympy(f):
        text = f"({f.num.render(POLY_NAMES)})/({f.den.render(POLY_NAMES)})"
        return sympy.sympify(text.replace("^", "**"), locals=symbols)

    def field_matrix(entries):
        return DomainMatrix.from_Matrix(sympy.Matrix(entries)).to_field()

    oracle = field_matrix([[to_sympy(e) for e in row] for row in rows])
    rank, wrows, wcols = rank_with_witness(rows)
    assert rank == oracle.rank()
    assert len(wrows) == len(wcols) == rank
    if shape == "rank-deficient":
        assert rank < len(rows)
    else:
        assert rank == len(rows)
    if shape == "row-swap":
        assert rows[0][0].is_zero() and wcols[0] == 0  # column 0's pivot came from below
    minor = [[rows[i][j] for j in wcols] for i in wrows]
    assert not determinant(minor).is_zero()
    assert field_matrix([[to_sympy(e) for e in row] for row in minor]).det() != 0


# -- fraction-free elimination of polynomial matrices against sympy -----------------


def _poly_matrix(rng, nrows, ncols):
    return [[random_poly(rng, 3, max_deg=2, max_terms=3) for _ in range(ncols)] for _ in range(nrows)]


def _fraction_free_cases():
    """Seeded (n-1) x n polynomial matrices, n = 2..5, with the shapes that steer the pivots."""
    rng = random.Random(30)
    cases = []
    for n in range(2, 6):
        cases.append(pytest.param("generic", _poly_matrix(rng, n - 1, n), id=f"n{n}-generic"))
        if n == 2:
            continue
        rows = _poly_matrix(rng, n - 1, n)
        rows[0][0] = MultiPoly.zero(3)  # the first pivot is found below row 0
        cases.append(pytest.param("row-swap", rows, id=f"n{n}-row-swap"))
        rows = _poly_matrix(rng, n - 1, n)
        q = random_poly(rng, 3, max_deg=1, max_terms=2, nonzero=True)
        for row in rows:
            row[1] = q * row[0]  # column 1 gets no pivot, the last column does
        cases.append(pytest.param("middle-free", rows, id=f"n{n}-middle-free"))
        left = _poly_matrix(rng, n - 1, n - 2)
        right = _poly_matrix(rng, n - 2, n)
        product = [
            [sum((a[k] * right[k][j] for k in range(n - 2)), MultiPoly.zero(3)) for j in range(n)]
            for a in left
        ]
        cases.append(pytest.param("rank-deficient", product, id=f"n{n}-rank-deficient"))
    return cases


@pytest.mark.parametrize("shape, rows", _fraction_free_cases())
def test_fraction_free_matches_sympy_minors(shape, rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    symbols = dict(zip(POLY_NAMES, sympy.symbols(POLY_NAMES)))

    def to_sympy(p):
        return sympy.sympify(p.render(POLY_NAMES).replace("^", "**"), locals=symbols)

    nrows, ncols = len(rows), len(rows[0])
    oracle = sympy.Matrix([[to_sympy(e) for e in row] for row in rows])

    def minor(cols):
        sub = DomainMatrix.from_Matrix(oracle[:, cols])
        return sub.domain.to_sympy(sub.det())

    _, expected_pivots = DomainMatrix.from_Matrix(oracle).to_field().rref()
    reduced, pivots, _, sign = _fraction_free(rows)
    assert pivots == list(expected_pivots)
    if shape == "rank-deficient":
        assert len(pivots) < nrows
        for k in range(ncols):
            assert minor([c for c in range(ncols) if c != k]) == 0
        return
    assert len(pivots) == nrows
    free = next(c for c in range(ncols) if c not in pivots)
    if shape == "middle-free":
        assert free == 1
    if shape == "row-swap":
        assert rows[0][0].is_zero() and pivots[0] == 0  # column 0's pivot came from below
    # the last pivot is the minor on the pivot columns; row r's entry in the
    # free column is that minor with pivot column r replaced by the free one
    last = reduced[-1][pivots[-1]]
    assert sympy.expand(sign * to_sympy(last) - minor(pivots)) == 0
    for r, row in enumerate(reduced):
        for j in pivots:
            assert row[j] == (last if j == pivots[r] else MultiPoly.zero(3))
        replaced = list(pivots)
        replaced[r] = free
        assert sympy.expand(sign * to_sympy(row[free]) - minor(replaced)) == 0
