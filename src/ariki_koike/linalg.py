"""Exact linear algebra over a field: the package's only matrix arithmetic.

A matrix is a list of rows, each in the product engine's canonical int form
(den, {column: int}) standing for {column: int / den}: over Q den is the
least common denominator, over GF(p) den is 1 and the ints are residues.
`combination` (a row vector times a matrix) is the one product; `mat_mul`
and `transpose` are built on the same rows.

All elimination goes through one kernel, `Echelon`: a row space kept in
reduced row echelon form, grown one row at a time, so a reduction adds
plain ints over one common denominator and normalizes once.  Rows come in
int form (`add_form`, or `Echelon(field, forms)`: engine products stream
in); `reduce` clears the pivot columns of a row, `contains` tests it for
membership, and `kernel_basis` reads the kernel off an echelon.  A new row
is reduced against the stored rows and dropped if it vanishes, so a tall,
mostly dependent system never stores more than rank-many rows.  The reduced
echelon form of a row space is unique, so results do not depend on row
order.

Field values (Fraction or FpElement) appear only at the edges: `add` takes
a row of them, `dense` renders an int form as one, and `solve` (every
right-hand side at once) and `determinant` take dense rows of them.  `rank`,
`nullspace`, `inverse`, `row_echelon`, `row_space_basis`, `in_row_space` and
their helpers `identity_matrix`, `echelon` and `dense_rows` have no caller in
the package: they stay only while `bench/tracer.py` looks the six up by name.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence


def identity_matrix(n: int, field) -> list[list]:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zero_vector(n: int, field) -> list:
    return [field.zero for _ in range(n)]


def combination(field, coeffs: tuple[int, dict], rows: Sequence[tuple[int, dict]]) -> tuple[int, dict]:
    """sum_k c_k rows[k] in canonical int form, for coeffs = (den, {k: int})
    standing for c_k = int / den: the rows are scaled to the lcm of their
    dens, and the sum normalized once."""
    den, ints = coeffs
    big = lcm(*(rows[k][0] for k in ints))
    out: dict = {}
    get = out.get
    for k, a in ints.items():
        d, row = rows[k]
        f = a * (big // d)
        for j, v in row.items():
            out[j] = get(j, 0) + f * v
    return field.canonical(den * big, out)


def mat_mul(field, a: Sequence[tuple[int, dict]], b: Sequence[tuple[int, dict]]) -> list[tuple[int, dict]]:
    """The product a b of two matrices of int-form rows: row i is row i of a
    as the coefficients of a combination of the rows of b."""
    return [combination(field, row, b) for row in a]


def transpose(field, rows: Sequence[tuple[int, dict]], n: int) -> list[tuple[int, dict]]:
    """The n columns of a matrix of int-form rows, as int-form rows."""
    big = lcm(*(d for d, _ in rows))
    cols: list[dict] = [{} for _ in range(n)]
    for i, (d, ints) in enumerate(rows):
        m = big // d
        for j, a in ints.items():
            cols[j][i] = a * m
    return [field.canonical(big, col) if col else (1, {}) for col in cols]


class Echelon:
    """A row space over `field` in reduced row echelon form, grown one row at a time.

    `rows` maps each pivot column to its row in canonical int form (den,
    {column: int}), 1 at its own pivot (ints[pivot] == den > 0) and 0 at every
    other pivot, so the echelon holds at most rank-many rows.  `forms`, rows
    already in int form, are added one by one with `add_form`.
    """

    def __init__(self, field, forms=()):
        self.field = field
        self.rows: dict[int, tuple[int, dict]] = {}
        for form in forms:
            self.add_form(*form)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, den: int, ints: dict) -> tuple[int, dict]:
        """A new canonical int form: ints / den with every pivot column
        cleared by the stored rows."""
        return self.field.canonical(*_clear(self.field, den, ints, self.rows))

    def contains(self, den: int, ints: dict) -> bool:
        """Whether the canonical int form ints / den lies in the row space."""
        return not _clear(self.field, den, ints, self.rows)[1]

    def add(self, row: dict) -> tuple[int, tuple[int, int]] | None:
        """Insert a row given as {column: field value}."""
        return self.add_form(*self.field.to_ints(row))

    def add_form(self, den: int, ints: dict) -> tuple[int, tuple[int, int]] | None:
        """Insert the row ints / den: reduce it, drop it if it becomes zero,
        else pivot on its lowest column, scale the pivot to 1 and clear that
        column from every stored row.  Returns (pivot column, (den, a)) with
        a / den the pivot before scaling, or None for a dependent row."""
        field = self.field
        den, ints = _clear(field, den, ints, self.rows)
        if not ints:
            return None
        col = min(ints)
        a = pivot = ints[col]
        if a < 0:
            a, ints = -a, {k: -v for k, v in ints.items()}
        new = field.canonical(a, ints)
        rows = self.rows
        for pc, (d, other) in rows.items():
            if col in other:
                rows[pc] = _clear(field, d, other, {col: new})
        rows[col] = new
        return col, (den, pivot)


def _clear(field, den: int, ints: dict, rows: dict) -> tuple[int, dict]:
    """(den, ints) with each pivot column c of rows cleared, in canonical form.

    rows[c] = (den_c, ints_c) is 1 at c and 0 at the other pivots, so one pass
    does it: the row is scaled once by L, the lcm of the den_c it touches (1
    over GF(p)), and gains -a * (L // den_c) * ints_c for its entry a at c."""
    hits = [(a, *rows[c]) for c, a in ints.items() if c in rows]
    if not hits:
        return den, ints
    big = lcm(*(d for _, d, _ in hits))
    out = {k: v * big for k, v in ints.items()} if big != 1 else dict(ints)
    get = out.get
    for a, d, row in hits:
        f = -a * (big // d)
        for k, v in row.items():
            out[k] = get(k, 0) + f * v
    return field.canonical(den * big, out)


def sparse(row: Sequence) -> dict:
    """A dense row as a sparse dict row {column: nonzero value}."""
    return {j: x for j, x in enumerate(row) if x}


def echelon(m: Sequence[Sequence], field) -> Echelon:
    """The echelon of the rows of m; stops early once every column is a pivot."""
    n_cols = len(m[0]) if m else 0
    ech = Echelon(field)
    for row in m:
        ech.add(sparse(row))
        if len(ech) == n_cols:
            break
    return ech


def dense(field, form: tuple[int, dict], n_cols: int) -> list:
    """The int form (den, {column: int}) as a dense row of field values."""
    out = zero_vector(n_cols, field)
    for k, c in field.from_ints(*form).items():
        out[k] = c
    return out


def dense_rows(ech: Echelon, n_cols: int) -> list[list]:
    """The stored rows in pivot order, as dense lists."""
    return [dense(ech.field, ech.rows[pc], n_cols) for pc in sorted(ech.rows)]


def row_echelon(m: list[list], field) -> list[int]:
    """Reduce m in place to reduced row echelon form; return pivot columns."""
    ech = echelon(m, field)
    if ech.rows:
        n_cols = len(m[0])
        m[:] = dense_rows(ech, n_cols) + [zero_vector(n_cols, field) for _ in range(len(m) - len(ech))]
    return sorted(ech.rows)


def rank(m: Sequence[Sequence], field) -> int:
    return len(echelon(m, field))


def kernel_basis(ech: Echelon, n_cols: int) -> list[tuple[int, dict]]:
    """A basis of the right kernel of the stored rows in canonical int form,
    one vector per free column f: 1 at f and 0 at the other free columns."""
    rows, basis = ech.rows, []
    for free in range(n_cols):
        if free not in rows:
            hits = [(pc, d, ints[free]) for pc, (d, ints) in rows.items() if free in ints]
            den = lcm(*(d for _, d, _ in hits))
            vec = {pc: -a * (den // d) for pc, d, a in hits}
            vec[free] = den
            basis.append(ech.field.canonical(den, vec))
    return basis


def nullspace(m: Sequence[Sequence], field) -> list[list]:
    """A basis of the right kernel {x : m x = 0}, one vector per free column."""
    if not m:
        return []
    n_cols = len(m[0])
    return [dense(field, v, n_cols) for v in kernel_basis(echelon(m, field), n_cols)]


def solve(m: Sequence[Sequence], rhs: Sequence[Sequence], field) -> list[list | None]:
    """For each right-hand side b of rhs, one solution x of m x = b (free
    variables 0), or None if m x = b is inconsistent.

    One elimination serves every right-hand side: b_j is augmented as column
    n_cols + j, and b_j is inconsistent exactly when a stored row with its
    pivot at or after column n_cols is nonzero in that column.
    """
    if not m:
        return [[] if not any(b) else None for b in rhs]
    n_cols = len(m[0])
    ech = Echelon(field)
    for row, *b in zip(m, *rhs):
        row = sparse(row)
        for j, x in enumerate(b):
            if x:
                row[n_cols + j] = x
        ech.add(row)
    inconsistent = {col for pc, (_, ints) in ech.rows.items() if pc >= n_cols for col in ints}
    xs = [None if n_cols + j in inconsistent else zero_vector(n_cols, field)
          for j in range(len(rhs))]
    for pc in ech.rows:
        if pc < n_cols:
            for col, c in field.from_ints(*ech.rows[pc]).items():
                if col >= n_cols and (x := xs[col - n_cols]) is not None:
                    x[pc] = c
    return xs


def inverse(m: Sequence[Sequence], field) -> list[list]:
    """The inverse of a square matrix, solved against the identity; raises
    ValueError if singular."""
    cols = solve(m, identity_matrix(len(m), field), field)
    if any(x is None for x in cols):
        raise ValueError("matrix is singular")
    return [list(row) for row in zip(*cols)]


def determinant(m: Sequence[Sequence], field):
    """The product of the pivots before scaling, times the sign of the pivot
    permutation: the rows reduced at insertion are the rows of m minus
    combinations of earlier rows, and triangular once columns are permuted.
    The pivots are multiplied as ints and converted to a field value once."""
    ech = Echelon(field)
    den = num = 1
    pivots = []
    for row in m:
        added = ech.add(sparse(row))
        if added is None:
            return field.zero
        col, (d, a) = added
        pivots.append(col)
        den, num = den * d, num * a
    inversions = sum(1 for i, p in enumerate(pivots) for q in pivots[i + 1:] if q < p)
    return field.from_ints(den, {0: -num if inversions % 2 else num})[0]


def row_space_basis(m: Sequence[Sequence], field) -> list[list]:
    """A basis of the row space, in reduced echelon form."""
    if not m:
        return []
    return dense_rows(echelon(m, field), len(m[0]))


def in_row_space(basis: Sequence[Sequence], vectors: Sequence[Sequence], field) -> list[bool]:
    """For each vector, whether it lies in the row space of `basis`."""
    ech = echelon(basis, field)
    return [ech.contains(*field.to_ints(sparse(v))) for v in vectors]
