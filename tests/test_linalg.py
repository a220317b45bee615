import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from ariki_koike import linalg
from ariki_koike.fields import PrimeField, Rationals
from ariki_koike.linalg import (
    Echelon,
    combination,
    dense,
    determinant,
    echelon,
    identity_matrix,
    inverse,
    in_row_space,
    kernel_basis,
    mat_mul,
    nullspace,
    rank,
    row_echelon,
    row_space_basis,
    solve,
    solve_forms,
    sparse,
    transpose,
)

FIELDS = [Rationals(), PrimeField(5)]


def lift(field, rows):
    return [[field(x) for x in row] for row in rows]


def forms(field, rows):
    """Rows of field values (or of ints) as int-form rows."""
    return [field.canonical(*field.to_ints(sparse([field(x) for x in row]))) for row in rows]


def mat_vec(m, v, field):
    """The column vector m v, entry by entry: the reference the solvers are checked with."""
    out = []
    for row in m:
        acc = field.zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def vec_mat(v, m, field):
    """The row vector v m of field values, entry by entry: the reference for `combination`."""
    return mat_vec([list(col) for col in zip(*m)], v, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_hand_computed(field):
    a = forms(field, [[1, 2, 0], [0, 0, 0], [3, 0, 4]])
    b = forms(field, [[2, 1], [0, 3], [1, 0]])
    # rows: (1*2 + 2*0 + 0*1, 1*1 + 2*3 + 0), the zero row, (3*2 + 4*1, 3*1)
    assert mat_mul(field, a, b) == forms(field, [[2, 7], [0, 0], [10, 3]])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_zero_row_is_field_zero(field):
    a = forms(field, [[0, 0]])
    b = forms(field, [[1, 2], [3, 4]])
    assert mat_mul(field, a, b) == [(1, {})]
    assert dense(field, mat_mul(field, a, b)[0], 2) == [field.zero, field.zero]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_mul_identity_and_product(field):
    a = forms(field, [[1, 2], [3, 4]])
    ident = forms(field, [[1, 0], [0, 1]])
    assert mat_mul(field, ident, a) == a
    assert mat_mul(field, a, ident) == a
    assert mat_mul(field, mat_mul(field, a, a), a) == mat_mul(field, a, mat_mul(field, a, a))
    assert mat_mul(field, a, a) == forms(field, [[7, 10], [15, 22]])


def test_mat_mul_over_gf5_reduces():
    field = PrimeField(5)
    a = forms(field, [[3, 4]])
    b = forms(field, [[2], [3]])
    assert mat_mul(field, a, b) == [(1, {0: (3 * 2 + 4 * 3) % 5})]
    assert mat_mul(field, a, b) == forms(field, [[3]])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mat_vec_and_combination(field):
    m = lift(field, [[1, 0, 2], [0, 0, 0], [0, 3, 1]])
    v = lift(field, [[2, 0, 1]])[0]
    assert mat_vec(m, v, field) == lift(field, [[4, 0, 1]])[0]
    assert vec_mat(v, m, field) == lift(field, [[2, 3, 5]])[0]
    zero = [field.zero] * 3
    assert mat_vec(m, zero, field) == zero
    assert vec_mat(zero, m, field) == zero
    rows, = forms(field, [v])
    assert combination(field, rows, forms(field, m)) == forms(field, [vec_mat(v, m, field)])[0]
    assert combination(field, (1, {}), forms(field, m)) == (1, {})
    by_columns = transpose(field, forms(field, m), 3)
    assert combination(field, rows, by_columns) == forms(field, [mat_vec(m, v, field)])[0]


def test_combination_brings_rows_to_one_least_denominator():
    field = Rationals()
    rows = forms(field, [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [Fraction(1, 6), Fraction(1, 6)]])
    assert rows == [(2, {0: 1}), (3, {1: 1}), (6, {0: 1, 1: 1})]
    # 3 * (1/2, 0) - 6 * (1/6, 1/6) + (0, 1/3) = (1/2, -2/3)
    assert combination(field, (1, {0: 3, 1: 1, 2: -6}), rows) == (6, {0: 3, 1: -4})
    # the same sum over den 2: halves of every coefficient
    assert combination(field, (2, {0: 6, 1: 2, 2: -12}), rows) == (6, {0: 3, 1: -4})
    # (1/2, 0) - 3 * (1/6, 1/6) = (0, -1/2): the zero entry is dropped
    assert combination(field, (1, {0: 1, 2: -3}), rows) == (2, {1: -1})


def test_transpose():
    for field in FIELDS:
        m = forms(field, [[1, 2, 3], [4, 5, 6]])
        assert transpose(field, m, 3) == forms(field, [[1, 4], [2, 5], [3, 6]])
        assert transpose(field, transpose(field, m, 3), 2) == m
        assert transpose(field, [], 2) == [(1, {}), (1, {})]
        assert transpose(field, [], 0) == []
    field = Rationals()
    m = forms(field, [[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert transpose(field, m, 2) == [(2, {0: 1}), (3, {0: 3, 1: 2})]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduce_by_echelon_and_membership(field):
    rows = lift(field, [[1, 2, 0, 1], [2, 4, 1, 3]])
    basis = row_space_basis(rows, field)
    assert basis == lift(field, [[1, 2, 0, 1], [0, 0, 1, 1]])
    member = lift(field, [[3, 6, 2, 5]])[0]
    outsider = lift(field, [[0, 1, 0, 0]])[0]
    near = lift(field, [[1, 3, 1, 1]])[0]
    for spanning in (basis, rows):
        assert in_row_space(spanning, [member], field) == [True]
        assert in_row_space(spanning, [outsider], field) == [False]
        assert in_row_space(spanning, [near], field) == [False]
    ech = echelon(rows, field)
    assert sorted(ech.rows) == [0, 2]
    member_form, outsider_form, near_form = forms(field, [member, outsider, near])
    assert ech.reduce(*member_form) == (1, {})
    assert ech.reduce(*outsider_form) == outsider_form
    assert ech.reduce(*near_form) == forms(field, [[0, 1, 0, -1]])[0]
    assert [ech.contains(*v) for v in (member_form, outsider_form, near_form)] == [True, False, False]


def test_reduce_by_echelon_copies_its_input():
    v = (1, {1: 1})
    assert Echelon(Rationals()).reduce(*v) == v and Echelon(Rationals()).reduce(*v)[1] is not v[1]
    ech = echelon([[Fraction(1), Fraction(0)]], Rationals())
    out = ech.reduce(*v)
    assert out == v and out[1] is not v[1]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_consistent_and_inconsistent(field):
    m = lift(field, [[1, 1], [2, 2]])
    x, = solve(m, [lift(field, [[3, 6]])[0]], field)
    assert x is not None and mat_vec(m, x, field) == lift(field, [[3, 6]])[0]
    assert solve(m, [lift(field, [[1, 3]])[0]], field) == [None]


# -- the elimination kernel against a textbook dense Gauss-Jordan ---------------
KERNEL_FIELDS = [Rationals(), PrimeField(7)]


def reference_rref(m):
    """Dense Gauss-Jordan, one column at a time: (nonzero RREF rows, pivot columns)."""
    work = [list(row) for row in m]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        top = len(pivots)
        hit = next((i for i in range(top, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        inv = work[top][col]
        work[top] = [x / inv for x in work[top]]
        for i in range(len(work)):
            if i != top and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[top])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def reference_nullspace(m, field):
    rows, pivots = reference_rref(m)
    n_cols = len(m[0])
    basis = []
    for free in (j for j in range(n_cols) if j not in pivots):
        vec = [field.zero] * n_cols
        vec[free] = field.one
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def reference_solve(m, b, field):
    n_cols = len(m[0])
    rows, pivots = reference_rref([list(row) + [bv] for row, bv in zip(m, b)])
    if n_cols in pivots:
        return None
    x = [field.zero] * n_cols
    for row, pc in zip(rows, pivots):
        x[pc] = row[n_cols]
    return x


def leibniz_determinant(m, field):
    """Sum over all permutations: independent of any elimination."""
    n = len(m)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[j] < perm[i])
        term = field.one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def entry_draws(field):
    """Integer entries -4..4, and over Q also fractions a / b with b in 1..6,
    so that stored rows get denominators > 1 and reductions meet negative pivots."""
    draws = [lambda rng: field(rng.randint(-4, 4))]
    if field.characteristic == 0:
        draws.append(lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
    return draws


def random_sparse(rng, field, n_rows, n_cols, density=0.35, draw=None):
    draw = draw or entry_draws(field)[0]
    return [[draw(rng) if rng.random() < density else field.zero
             for _ in range(n_cols)] for _ in range(n_rows)]


def tall_dependent(rng, field, n_rows, n_cols, true_rank, draw=None):
    """Many random combinations of a few random rows: tall and almost all dependent."""
    base = random_sparse(rng, field, true_rank, n_cols, density=0.6, draw=draw)
    rows = []
    for _ in range(n_rows):
        coeffs = [field(rng.randint(-2, 2)) if rng.random() < 0.5 else field.zero for _ in base]
        rows.append(vec_mat(coeffs, base, field))
    return rows


def with_zero_lines(rng, field, n_rows, n_cols, draw=None):
    """A random matrix with a zero row and a zero column spliced in."""
    m = random_sparse(rng, field, n_rows, n_cols, draw=draw)
    zero_col = rng.randrange(n_cols)
    for row in m:
        row[zero_col] = field.zero
    m.insert(rng.randrange(n_rows + 1), [field.zero] * n_cols)
    return m


def kernel_cases(field):
    rng = random.Random(f"kernel:{field}")
    cases = []
    for draw in entry_draws(field):
        for _ in range(12):
            cases.append(random_sparse(rng, field, rng.randint(1, 7), rng.randint(1, 7), draw=draw))
        for _ in range(4):
            cases.append(tall_dependent(rng, field, 40, rng.randint(3, 8), rng.randint(1, 3), draw))
            cases.append(with_zero_lines(rng, field, rng.randint(2, 6), rng.randint(2, 6), draw))
    cases.append([[field.zero] * 4 for _ in range(3)])
    return cases


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_matches_dense_gauss_jordan(field):
    for m in kernel_cases(field):
        rows, pivots = reference_rref(m)
        assert rank(m, field) == len(pivots)
        assert row_space_basis(m, field) == rows
        assert nullspace(m, field) == reference_nullspace(m, field)
        for x in nullspace(m, field):
            assert not any(mat_vec(m, x, field))
        work = [list(row) for row in m]
        assert row_echelon(work, field) == pivots
        assert work[:len(rows)] == rows and not any(any(row) for row in work[len(rows):])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_solve_matches_reference(field):
    rng = random.Random(f"solve:{field}")
    for m in kernel_cases(field):
        consistent = mat_vec(m, [field(rng.randint(-3, 3)) for _ in m[0]], field)
        arbitrary = [field(rng.randint(-3, 3)) for _ in m]
        for b in (consistent, arbitrary):
            x, = solve(m, [b], field)
            assert x == reference_solve(m, b, field)
            if x is not None:
                assert mat_vec(m, x, field) == b
        assert solve(m, [consistent], field)[0] is not None


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_multi_rhs_solve_matches_reference(field):
    rng = random.Random(f"multi:{field}")
    for m in kernel_cases(field):
        rhs = []
        for _ in range(4):
            rhs.append(mat_vec(m, [field(rng.randint(-3, 3)) for _ in m[0]], field))
            rhs.append([field(rng.randint(-3, 3)) for _ in m])
        rhs.append([field.zero] * len(m))
        assert solve(m, rhs, field) == [reference_solve(m, b, field) for b in rhs]
        assert solve(m, [], field) == []


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_multi_rhs_solve_separates_a_shared_dependent_row(field):
    # row 1 is twice row 0: b is consistent iff b_1 = 2 b_0, whatever b_2 is
    m = lift(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1]])
    good, bad = lift(field, [[1, 2, 5], [1, 3, 5]])
    for rhs in ([good, bad], [bad, good], [bad, good, good, bad]):
        out = solve(m, rhs, field)
        assert out == [reference_solve(m, b, field) for b in rhs]
        assert [x is None for x in out] == [b is bad for b in rhs]
    x, = solve(m, [good], field)
    assert mat_vec(m, x, field) == good


@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=str)
def test_solve_forms_matches_solve(field):
    # int-form rows (m | b_1 .. b_k) in, canonical int-form solutions out: the
    # same solutions as the dense `solve` and the dense Gauss-Jordan reference,
    # over matrices with dependent and zero columns, consistent and
    # inconsistent right-hand sides
    rng = random.Random(f"forms:{field}")
    cases = kernel_cases(field) + [lift(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1]])]
    seen = set()
    for m in cases:
        n = len(m[0])
        rhs = [mat_vec(m, [field(rng.randint(-3, 3)) for _ in range(n)], field),
               [field(rng.randint(-3, 3)) for _ in m], [field.zero] * len(m)]
        rows = forms(field, [list(row) + list(b) for row, *b in zip(m, *rhs)])
        got = solve_forms(field, rows, n, len(rhs))
        expected = solve(m, rhs, field)
        assert expected == [reference_solve(m, b, field) for b in rhs]
        assert [x is None for x in got] == [x is None for x in expected]
        for x, want in zip(got, expected):
            seen.add("none" if x is None else "zero" if not x[1] else "solution")
            if x is not None:
                assert x == field.canonical(*x) and dense(field, x, n) == want
    assert seen == {"none", "zero", "solution"}
    # an inconsistent system: b_1 = (1, 3) against rows (1, 2) and (2, 4)
    m = lift(field, [[1, 2], [2, 4]])
    assert solve_forms(field, forms(field, [[1, 2, 1], [2, 4, 3]]), 2, 1) == [None] == solve(m, [lift(field, [[1, 3]])[0]], field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_echelon_contains_matches_in_row_space(field):
    # contains takes a canonical int form and clears it in ints; in_row_space
    # reduces field values
    rng = random.Random(f"contains:{field}")
    seen = set()
    for m in kernel_cases(field):
        ech = echelon(m, field)
        members = [vec_mat([field(rng.randint(-2, 2)) for _ in m], m, field) for _ in range(3)]
        others = [[field(rng.randint(-2, 2)) for _ in m[0]] for _ in range(3)]
        vectors = members + others + [[field.zero] * len(m[0])]
        got = [ech.contains(*field.canonical(*field.to_ints(sparse(v)))) for v in vectors]
        assert got == in_row_space(m, vectors, field)
        assert got[:3] == [True] * 3 and got[-1]
        seen.update(got)
    assert seen == {True, False}


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_batched_in_row_space_matches_per_vector(field):
    rng = random.Random(f"members:{field}")
    for m in kernel_cases(field):
        members = [vec_mat([field(rng.randint(-2, 2)) for _ in m], m, field) for _ in range(3)]
        others = [[field(rng.randint(-2, 2)) for _ in m[0]] for _ in range(3)]
        vectors = members + others
        assert in_row_space(m, vectors, field) == [rank(m + [v], field) == rank(m, field) for v in vectors]
        assert in_row_space(m, members, field) == [True] * 3
        assert in_row_space(m, [], field) == []


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_inverse_and_determinant(field):
    rng = random.Random(f"square:{field}")
    for draw, size, _ in itertools.product(entry_draws(field), range(6), range(6)):
        m = random_sparse(rng, field, size, size, density=0.6, draw=draw)
        det = leibniz_determinant(m, field)
        assert determinant(m, field) == det
        if det:
            inv = inverse(m, field)
            assert [vec_mat(row, inv, field) for row in m] == identity_matrix(size, field)
            ident = forms(field, identity_matrix(size, field))
            assert mat_mul(field, forms(field, m), forms(field, inv)) == ident
            rows, _ = reference_rref([list(row) + list(e) for row, e in
                                      zip(m, identity_matrix(size, field))])
            assert inv == [row[size:] for row in rows]
        else:
            with pytest.raises(ValueError):
                inverse(m, field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_edge_cases(field):
    assert rank([], field) == 0 and row_space_basis([], field) == [] and nullspace([], field) == []
    assert solve([], [[]], field) == [[]] and solve([], [[field.one]], field) == [None]
    assert inverse([], field) == [] and determinant([], field) == field.one
    empty = []
    assert row_echelon(empty, field) == [] and empty == []
    zero = [[field.zero] * 3 for _ in range(2)]
    assert rank(zero, field) == 0 and row_space_basis(zero, field) == []
    assert nullspace(zero, field) == identity_matrix(3, field)
    # inconsistent: x + y = 1 and 2x + 2y = 3
    m = lift(field, [[1, 1], [2, 2]])
    assert solve(m, [lift(field, [[1, 3]])[0]], field) == [None]
    singular = lift(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert determinant(singular, field) == field.zero
    with pytest.raises(ValueError):
        inverse(singular, field)


def test_echelon_holds_at_most_rank_rows_in_reduced_form():
    field = Rationals()
    rng = random.Random("echelon")
    m = tall_dependent(rng, field, 60, 7, 3)
    ech = Echelon(field)
    for row in m:
        ech.add({j: x for j, x in enumerate(row) if x})
        assert len(ech) <= 3
    assert len(ech) == rank(m, field) == 3
    for col, (den, ints) in ech.rows.items():
        assert min(ints) == col and ints[col] == den > 0
        assert all(other == col or other not in ints for other in ech.rows)
        row = field.from_ints(den, ints)
        assert min(row) == col and row[col] == 1
        assert all(other == col or other not in row for other in ech.rows)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_echelon_stores_canonical_int_rows_and_reads_out_field_values(field):
    p, value_type = field.characteristic, type(field.one)
    rng = random.Random(f"stored:{field}")
    dens, pivot_signs = set(), set()
    for m in kernel_cases(field):
        ech = Echelon(field)
        for row in m:
            added = ech.add(sparse(row))
            if added is not None:
                col, (den, a) = added
                assert type(den) is int and type(a) is int and den > 0 and a
                assert type(field.from_ints(den, {col: a})[col]) is value_type
                pivot_signs.add(a > 0 if p == 0 else True)
            for col, (den, ints) in ech.rows.items():
                dens.add(den)
                assert min(ints) == col and ints[col] == den > 0
                assert all(other == col or other not in ints for other in ech.rows)
                if p:
                    assert den == 1 and all(0 < a < p for a in ints.values())
                else:
                    assert gcd(den, *ints.values()) == 1
                assert all(type(v) is value_type for v in field.from_ints(den, ints).values())
        for v in random_sparse(rng, field, 3, len(m[0])):
            den, ints = ech.reduce(*field.to_ints(sparse(v)))
            assert type(den) is int and all(type(x) is int for x in ints.values())
            assert (den, ints) == field.canonical(den, ints)
            assert not any(pc in ints for pc in ech.rows)
    if p == 0:  # the fractional cases reach both
        assert max(dens) > 1 and pivot_signs == {True, False}


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_add_form_stores_what_add_stores(field):
    for m in kernel_cases(field):
        by_row, by_form = Echelon(field), Echelon(field)
        for row in m:
            assert by_form.add_form(*field.to_ints(sparse(row))) == by_row.add(sparse(row))
            assert by_form.rows == by_row.rows


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_basis_of_an_empty_echelon_is_the_identity(field):
    assert kernel_basis(Echelon(field), 3) == [(1, {0: 1}), (1, {1: 1}), (1, {2: 1})]
    assert [dense(field, v, 3) for v in kernel_basis(Echelon(field), 3)] == identity_matrix(3, field)


def test_row_echelon_stays_importable():
    # bench/tracer.py wraps linalg.row_echelon by name
    assert callable(getattr(linalg, "row_echelon"))
