import random
from fractions import Fraction

import pytest

from lvk.linalg import (
    DimensionMismatch,
    determinant,
    rank_with_witness,
    rref,
    solve_linear,
)
from lvk.parsing import parse_ratfunc

F = Fraction


def test_rref_identity():
    m, b, pivots = rref([[F(2), F(0)], [F(0), F(3)]], [F(4), F(9)])
    assert m == [[F(1), F(0)], [F(0), F(1)]]
    assert b == [F(2), F(3)]
    assert pivots == [0, 1]


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
