from fractions import Fraction

import pytest

from ariki_koike.fields import PrimeField, Rationals
from ariki_koike.linalg import (
    identity_matrix,
    in_row_space,
    kernel_conditions,
    mat_mul,
    mat_product,
    mat_vec,
    pivot_columns,
    reduce_by_echelon,
    row_space_basis,
    solve,
    transpose,
    vec_mat,
)

FIELDS = [Rationals(), PrimeField(5)]


def lift(field, rows):
    return [[field(x) for x in row] for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_hand_computed(field):
    a = lift(field, [[1, 2, 0], [0, 0, 0], [3, 0, 4]])
    b = lift(field, [[2, 1], [0, 3], [1, 0]])
    # rows: (1*2 + 2*0 + 0*1, 1*1 + 2*3 + 0), the zero row, (3*2 + 4*1, 3*1)
    assert mat_mul(a, b, field) == lift(field, [[2, 7], [0, 0], [10, 3]])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_zero_row_is_field_zero(field):
    a = lift(field, [[0, 0]])
    b = lift(field, [[1, 2], [3, 4]])
    row = mat_mul(a, b, field)[0]
    assert row == [field.zero, field.zero]
    assert all(type(x) is type(field.zero) for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_identity_and_product(field):
    a = lift(field, [[1, 2], [3, 4]])
    assert mat_mul(identity_matrix(2, field), a, field) == a
    assert mat_mul(a, identity_matrix(2, field), field) == a
    assert mat_product([], 2, field) == identity_matrix(2, field)
    assert mat_product([a, a, a], 2, field) == mat_mul(mat_mul(a, a, field), a, field)


def test_mat_mul_over_gf5_reduces():
    field = PrimeField(5)
    a = lift(field, [[3, 4]])
    b = lift(field, [[2], [3]])
    assert mat_mul(a, b, field) == [[field(3 * 2 + 4 * 3)]]
    assert mat_mul(a, b, field) == [[field(3)]]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_vec_and_vec_mat(field):
    m = lift(field, [[1, 0, 2], [0, 0, 0], [0, 3, 1]])
    v = lift(field, [[2, 0, 1]])[0]
    assert mat_vec(m, v, field) == lift(field, [[4, 0, 1]])[0]
    assert vec_mat(v, m, field) == lift(field, [[2, 3, 5]])[0]
    zero = [field.zero] * 3
    assert mat_vec(m, zero, field) == zero
    assert vec_mat(zero, m, field) == zero
    assert vec_mat(v, transpose(m), field) == mat_vec(m, v, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_conditions(field):
    x1 = lift(field, [[1, 0], [0, 0]])
    x2 = lift(field, [[0, 1], [0, 1]])
    kernel = lift(field, [[1, 1], [0, 1]])
    # k = (1,1): x1 k = (1,0), x2 k = (1,1) -> rows (1,1), (0,1)
    # k = (0,1): x1 k = (0,0), x2 k = (1,1) -> rows (0,1), (0,1)
    want = lift(field, [[1, 1], [0, 1], [0, 1], [0, 1]])
    assert kernel_conditions([x1, x2], kernel, field) == want
    assert kernel_conditions([x1], lift(field, [[0, 1]]), field) == []


def test_transpose():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([]) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduce_by_echelon_and_membership(field):
    echelon = row_space_basis(lift(field, [[1, 2, 0, 1], [2, 4, 1, 3]]))
    assert echelon == lift(field, [[1, 2, 0, 1], [0, 0, 1, 1]])
    pivots = pivot_columns(echelon)
    assert pivots == [0, 2]
    member = lift(field, [[3, 6, 2, 5]])[0]
    outsider = lift(field, [[0, 1, 0, 0]])[0]
    assert reduce_by_echelon(member, echelon, pivots) == [field.zero] * 4
    assert reduce_by_echelon(outsider, echelon, pivots) == outsider
    residue = reduce_by_echelon(lift(field, [[1, 3, 1, 1]])[0], echelon, pivots)
    assert residue == lift(field, [[0, 1, 0, -1]])[0]
    assert in_row_space(echelon, member)
    assert not in_row_space(echelon, outsider)
    assert not in_row_space(echelon, lift(field, [[1, 3, 1, 1]])[0])


def test_reduce_by_echelon_copies_its_input():
    v = [Fraction(0), Fraction(1)]
    out = reduce_by_echelon(v, [], [])
    assert out == v and out is not v


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_consistent_and_inconsistent(field):
    m = lift(field, [[1, 1], [2, 2]])
    x = solve(m, lift(field, [[3, 6]])[0], field)
    assert x is not None and mat_vec(m, x, field) == lift(field, [[3, 6]])[0]
    assert solve(m, lift(field, [[1, 3]])[0], field) is None
