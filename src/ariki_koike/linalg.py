"""Exact linear algebra over a field: the package's only matrix arithmetic.

Matrices are plain lists of lists of field elements (Fraction or FpElement).
Products skip zero factors and start each sum from its first nonzero term;
elimination is straightforward Gaussian elimination with exact division,
which is all the desk-scale instances in this package need.
"""

from __future__ import annotations

from typing import Sequence


def copy_matrix(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in m]


def identity_matrix(n: int, field) -> list[list]:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zero_vector(n: int, field) -> list:
    return [field.zero for _ in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], field) -> list[list]:
    """The product a b, skipping zero entries of a and of b."""
    return [vec_mat(row, b, field) for row in a]


def mat_product(factors: Sequence[Sequence[Sequence]], n: int, field) -> list[list]:
    """The product of a sequence of n x n matrices, in order (the identity if empty)."""
    out = identity_matrix(n, field)
    for m in factors:
        out = mat_mul(out, m, field)
    return out


def vec_mat(v: Sequence, m: Sequence[Sequence], field) -> list:
    """The row vector v m, skipping the zero entries of v and of m."""
    out = None
    for x, row in zip(v, m):
        if x:
            if out is None:
                out = [x * y for y in row]
            else:
                out = [acc + x * y if y else acc for acc, y in zip(out, row)]
    if out is None:
        return zero_vector(len(m[0]) if m else 0, field)
    return out


def mat_vec(m: Sequence[Sequence], v: Sequence, field) -> list:
    """The column vector m v, skipping the zero entries of v and of m."""
    support = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in m:
        acc = None
        for j, y in support:
            x = row[j]
            if x:
                acc = x * y if acc is None else acc + x * y
        out.append(field.zero if acc is None else acc)
    return out


def kernel_conditions(mats: Sequence[Sequence[Sequence]], kernel: Sequence[Sequence],
                      field) -> list[list]:
    """The nonzero rows of the linear conditions (sum_i z_i mats[i]) k = 0.

    One row per vector k of `kernel` and coordinate c: entry i is
    coordinate c of mats[i] k.
    """
    rows = []
    for k in kernel:
        images = [mat_vec(m, k, field) for m in mats]
        rows.extend(list(row) for row in zip(*images) if any(row))
    return rows


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)]


def row_echelon(m: list[list]) -> list[int]:
    """Reduce m in place to reduced row echelon form; return pivot columns."""
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = next((i for i in range(row, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for i in range(n_rows):
            if i != row and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots


def rank(m: Sequence[Sequence]) -> int:
    work = copy_matrix(m)
    return len(row_echelon(work))


def nullspace(m: Sequence[Sequence], field) -> list[list]:
    """A basis of the right kernel {x : m x = 0}."""
    if not m:
        return []
    n_cols = len(m[0])
    work = copy_matrix(m)
    pivots = row_echelon(work)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = zero_vector(n_cols, field)
        vec[free] = field.one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -work[row_idx][free]
        basis.append(vec)
    return basis


def solve(m: Sequence[Sequence], b: Sequence, field) -> list | None:
    """One solution x of m x = b, or None if inconsistent."""
    if not m:
        return [] if not any(b) else None
    n_cols = len(m[0])
    work = [list(row) + [bv] for row, bv in zip(m, b)]
    pivots = row_echelon(work)
    if n_cols in pivots:
        return None
    x = zero_vector(n_cols, field)
    for row_idx, pc in enumerate(pivots):
        x[pc] = work[row_idx][n_cols]
    return x


def inverse(m: Sequence[Sequence], field) -> list[list]:
    """The inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    work = [list(row) + list(idrow) for row, idrow in zip(m, identity_matrix(n, field))]
    pivots = row_echelon(work)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def determinant(m: Sequence[Sequence], field):
    """Determinant by fraction-free-ish elimination with exact division."""
    n = len(m)
    if n == 0:
        return field.one
    work = copy_matrix(m)
    det = field.one
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col]
        for i in range(col + 1, n):
            if work[i][col]:
                factor = work[i][col] / inv
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return det


def row_space_basis(m: Sequence[Sequence]) -> list[list]:
    """A basis of the row space, in echelon form."""
    work = copy_matrix(m)
    pivots = row_echelon(work)
    return [work[i] for i in range(len(pivots))]


def pivot_columns(echelon: Sequence[Sequence]) -> list[int]:
    """The leading column of every (nonzero) row of an echelon form."""
    return [next(i for i, x in enumerate(row) if x) for row in echelon]


def reduce_by_echelon(v: Sequence, echelon: Sequence[Sequence], pivots: Sequence[int]) -> list:
    """Clear the pivot columns of (a copy of) v with the rows of a reduced echelon form."""
    v = list(v)
    for row, pc in zip(echelon, pivots):
        c = v[pc]
        if c:
            v = [a - c * b if b else a for a, b in zip(v, row)]
    return v


def in_row_space(basis_echelon: list[list], v: Sequence) -> bool:
    """Membership test against a reduced echelon row basis."""
    return not any(reduce_by_echelon(v, basis_echelon, pivot_columns(basis_echelon)))
