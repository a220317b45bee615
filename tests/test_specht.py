import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ariki_koike import specht
from ariki_koike.algebra import ArikiKoikeAlgebra
from ariki_koike.fields import ComputationError, GateError, Params, PrimeField, Rationals
from ariki_koike.linalg import (
    Echelon,
    dense,
    identity_matrix,
    inverse,
    kernel_basis,
    mat_mul,
    sparse,
    transpose,
)
from ariki_koike.specht import (
    block_partition,
    composition_factors,
    decomposition_matrix,
    gram_matrix,
    module_fingerprint,
    quotient_action,
    specht_module,
    spin,
    submodule_action,
)
from ariki_koike.tableaux import MultiPartition, content, multipartitions, std_tableaux, t_row


def qparams(n=2, r=2, q=2, Q=(1, 5), s=1):
    return Params(field=Rationals(), q=q, Q=Q, n=n, r=r, s=s)


def test_trivial_type_module():
    alg = ArikiKoikeAlgebra(qparams())
    sm = specht_module(alg, MultiPartition([[2], []]))
    assert sm.dim == 1
    assert sm.action[1] == [(1, {0: 2})]  # T_1 acts as q
    assert sm.action[0] == [(1, {0: 1})]  # L_1 acts as Q_1


def test_two_dimensional_module_residues():
    params = qparams()
    alg = ArikiKoikeAlgebra(params)
    lam = MultiPartition([[1], [1]])
    sm = specht_module(alg, lam)
    assert sm.dim == 2
    # L_1 acts triangularly with the residues of the two tableaux on the diagonal
    diag = [dense(alg.field, sm.action[0][i], 2)[i] for i in range(2)]
    expected = [content(lam, params)[0], content(lam, params)[1]]
    assert sorted(diag) == sorted(expected) == [Fraction(1), Fraction(5)]


def test_specht_dims_are_tableau_counts():
    alg = ArikiKoikeAlgebra(qparams(n=3))
    for lam in multipartitions(3, 2):
        assert specht_module(alg, lam).dim == len(std_tableaux(lam))


def test_gram_one_dimensional_nonzero():
    alg = ArikiKoikeAlgebra(qparams())
    g = gram_matrix(alg, MultiPartition([[2], []]))
    assert len(g) == 1 and dense(alg.field, g[0], 1)[0] != 0


@pytest.mark.parametrize("field,Q", [(Rationals(), (1, 5)), (PrimeField(5), (1, 3))], ids=["Q", "GF5"])
def test_gram_matrix_matches_the_defining_expansion(field, Q):
    # entry (s, t) is the coefficient of m_{t^lam t^lam} in m_{t^lam s} m_{t t^lam},
    # read here from the full cellular expansion of each product
    alg = ArikiKoikeAlgebra(Params(field=field, q=2, Q=Q, n=3, r=2, s=1))
    trans = alg.transition()
    nonzero = 0
    for lam in multipartitions(3, 2):
        tabs = std_tableaux(lam)
        top = t_row(lam)
        top_cell = trans.index[top, top]
        expected = []
        for s in tabs:
            row = []
            for t in tabs:
                den, ints = trans.express(alg.m_st(top, s) * alg.m_st(t, top))
                row.append(field.from_ints(den, {0: ints.get(top_cell, 0)}).get(0, field.zero))
            expected.append(row)
        g = gram_matrix(alg, lam)
        assert [dense(field, row, len(tabs)) for row in g] == expected
        assert all(field.canonical(*row) == row for row in g)
        nonzero += sum(x != field.zero for row in expected for x in row)
    assert nonzero > len(multipartitions(3, 2))


def test_semisimple_square_sum():
    for n in (2, 3):
        params = qparams(n=n)
        alg = ArikiKoikeAlgebra(params)
        total = 0
        for lam in multipartitions(n, 2):
            d = len(Echelon(alg.field, gram_matrix(alg, lam)))
            assert d == len(std_tableaux(lam))  # nonsingular form everywhere
            total += d * d
        assert total == alg.dim


def test_block_partition_examples():
    params = qparams()
    blocks = block_partition(params)
    as_sets = [frozenset(l.serialize() for l in b) for b in blocks]
    # generic rational parameters: all classes are singletons
    assert all(len(b) == 1 for b in as_sets)
    # the two one-column/one-row shapes in component 1 have distinct contents
    c1 = content(MultiPartition([[2], []]), params)
    c2 = content(MultiPartition([[1, 1], []]), params)
    assert c1 == (1, 2) and c2 == (Fraction(1, 2), 1)


def test_block_partition_rejects_q_one():
    with pytest.raises(GateError):
        block_partition(Params(field=Rationals(), q=1, Q=(1, 5), n=2, r=2))


def test_blocks_can_merge():
    params = Params(field=PrimeField(5), q=4, Q=(1, 4), n=2, r=2)
    blocks = block_partition(params)
    assert len(blocks) == 1  # every shape has content {1, 4} here


def test_decomposition_semisimple_is_identity():
    params = Params(field=PrimeField(7), q=2, Q=(1, 5), n=2, r=2)
    data = decomposition_matrix(ArikiKoikeAlgebra(params))
    assert data.cols == data.rows
    for i in range(len(data.rows)):
        for j in range(len(data.cols)):
            assert data.matrix[i][j] == (1 if i == j else 0)


# The q-connected GF(5) instance: computed once by the chop and frozen.
FROZEN_ROWS = ["[[2],[]]", "[[1,1],[]]", "[[1],[1]]", "[[],[2]]", "[[],[1,1]]"]
FROZEN_COLS = ["[[1],[1]]", "[[],[1,1]]"]
FROZEN_MATRIX = [
    [1, 0],
    [1, 0],
    [1, 1],
    [0, 1],
    [0, 1],
]


def test_decomposition_frozen_fixture():
    params = Params(field=PrimeField(5), q=4, Q=(1, 4), n=2, r=2)
    data = decomposition_matrix(ArikiKoikeAlgebra(params))
    assert [l.serialize() for l in data.rows] == FROZEN_ROWS
    assert [m.serialize() for m in data.cols] == FROZEN_COLS
    assert data.matrix == FROZEN_MATRIX


def test_decomposition_deterministic():
    params = Params(field=PrimeField(5), q=4, Q=(1, 4), n=2, r=2)
    a = decomposition_matrix(ArikiKoikeAlgebra(params))
    b = decomposition_matrix(ArikiKoikeAlgebra(params))
    assert a.matrix == b.matrix and a.cols == b.cols


def test_decomposition_bookkeeping_n3():
    params = Params(field=PrimeField(5), q=4, Q=(1, 2), n=3, r=2)
    data = decomposition_matrix(ArikiKoikeAlgebra(params))
    # validated internally; spot-check the row identity here as well
    alg = ArikiKoikeAlgebra(params)
    for i, lam in enumerate(data.rows):
        total = sum(
            data.matrix[i][j] * data.simple_dims[mu] for j, mu in enumerate(data.cols)
        )
        assert total == len(std_tableaux(lam))
    # simple dimensions are chop-independent: recompute via Gram ranks
    for mu in data.cols:
        assert data.simple_dims[mu] == len(Echelon(alg.field, gram_matrix(alg, mu)))


def test_decomposition_rejects_rationals():
    with pytest.raises(GateError):
        decomposition_matrix(ArikiKoikeAlgebra(qparams()))


# -- the chop primitives ---------------------------------------------------------


def lift(field, rows):
    return [[field(x) for x in row] for row in rows]


def forms(field, rows):
    """Rows of field values (or of ints) as int-form rows."""
    return [field.canonical(*field.to_ints(sparse([field(x) for x in row]))) for row in rows]


def vec_mat(v, m, field):
    """The row vector v m of field values, entry by entry."""
    return [sum((x * row[j] for x, row in zip(v, m)), field.zero) for j in range(len(m[0]))]


def trace(field, m):
    return sum((dense(field, row, len(m))[i] for i, row in enumerate(m)), field.zero)


def brute_closure(vectors, action, field):
    """Every vector of the submodule the vectors generate, by enumeration: the
    span of the generators, where each generator's images are generators too."""
    values = [field(c) for c in range(field.characteristic)]
    span = {tuple([field.zero] * len(action[0]))}
    todo = [list(v) for v in vectors]
    while todo:
        v = todo.pop()
        if tuple(v) in span:
            continue
        span = {tuple(a + c * x for a, x in zip(w, v)) for w in span for c in values}
        todo.extend(vec_mat(v, mat, field) for mat in action)
    return span


def span_of(rows, field, dim):
    values = [field(c) for c in range(field.characteristic)]
    out = set()
    for coeffs in itertools.product(values, repeat=len(rows)):
        vec = [field.zero] * dim
        for c, row in zip(coeffs, rows):
            vec = [a + c * x for a, x in zip(vec, row)]
        out.add(tuple(vec))
    return out


def test_spin_is_the_reduced_echelon_of_the_closure_in_any_input_order():
    field = PrimeField(3)
    rng = random.Random("spin")
    dim = 4
    sizes = set()
    for case in range(8):
        # rows 2 and 3 vanish outside columns 2 and 3, so span(e_2, e_3) is a
        # proper submodule; every other case spins vectors inside it
        action = [[[field(rng.randrange(3)) if j >= 2 * (i // 2) else field.zero
                    for j in range(dim)] for i in range(dim)] for _ in range(2)]
        low = 2 * (case % 2)
        vectors = [[field(rng.randrange(3)) if j >= low else field.zero for j in range(dim)]
                   for _ in range(rng.randint(1, 3))]
        closure = brute_closure(vectors, action, field)
        int_action = [forms(field, m) for m in action]
        spun = [spin(forms(field, order), int_action, field) for order in itertools.permutations(vectors)]
        assert all(ech.rows == spun[0].rows for ech in spun)
        rows = {pc: field.from_ints(*row) for pc, row in spun[0].rows.items()}
        for col, row in rows.items():
            assert min(row) == col and row[col] == field.one
            assert all(other == col or other not in row for other in rows)
        dense = [[row.get(j, field.zero) for j in range(dim)] for _, row in sorted(rows.items())]
        assert span_of(dense, field, dim) == closure
        sizes.add(len(rows))
    assert len(sizes) > 2
    assert len(spin([(1, {})], int_action, field)) == 0


def test_submodule_action_refuses_a_non_invariant_space():
    field = PrimeField(5)
    swap = forms(field, [[0, 1], [1, 0]])
    with pytest.raises(ComputationError):
        submodule_action(Echelon(field, forms(field, [[1, 0]])), [swap], field)


def test_sub_and_quotient_action_of_an_invariant_line():
    field = PrimeField(5)
    # (1,1,0) A = 2 (1,1,0) and (1,1,0) B = (1,1,0)
    a = forms(field, [[1, 0, 0], [1, 2, 0], [1, 0, 3]])
    b = forms(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    line = Echelon(field, forms(field, [[1, 1, 0]]))
    assert submodule_action(line, [a, b], field) == [forms(field, [[2]]), forms(field, [[1]])]
    # on the classes of the unit vectors e_1, e_2 (0-based): e_i A minus its
    # first entry times (1,1,0), read at columns 1 and 2
    assert quotient_action(line, [a, b], field) == [
        forms(field, [[1, 0], [4, 3]]),
        forms(field, [[4, 0], [0, 1]]),
    ]


# -- the MeatAxe chop against a brute-force oracle ------------------------------


def line_scan_factors(action, dim, field):
    """Composition factors by scanning every projective line of field^dim and
    splitting off the first spin of minimal dimension (the chop before the
    MeatAxe, kept as an oracle)."""
    if dim == 0:
        return []
    values = [field(v) for v in range(field.characteristic)]
    best = None
    for lead in range(dim):
        for tail in itertools.product(values, repeat=dim - 1 - lead):
            w = spin(forms(field, [[field.zero] * lead + [field.one] + list(tail)]), action, field)
            if best is None or len(w) < len(best):
                best = w
    if len(best) == dim:
        return [(dim, action)]
    return line_scan_factors(submodule_action(best, action, field), len(best), field) + (
        line_scan_factors(quotient_action(best, action, field), dim - len(best), field)
    )


def factor_labels(alg, factors):
    return Counter((d, module_fingerprint(alg, act, d)) for d, act in factors)


@pytest.mark.parametrize("q, Q, p", [(4, (1, 4), 5), (2, (1, 5), 7)], ids=["GF5-connected", "GF7"])
def test_meataxe_factors_match_the_line_scan(q, Q, p):
    field = PrimeField(p)
    alg = ArikiKoikeAlgebra(Params(field=field, q=q, Q=Q, n=3, r=2))
    cases = 0
    for lam in multipartitions(3, 2):
        sm = specht_module(alg, lam)
        modules = [(sm.action, sm.dim)]
        rad = kernel_basis(Echelon(field, gram_matrix(alg, lam)), sm.dim)
        if 0 < len(rad) < sm.dim:  # the simple quotient D^lam = S^lam / rad
            modules.append((quotient_action(Echelon(field, rad), sm.action, field), sm.dim - len(rad)))
        for action, dim in modules:
            expected = factor_labels(alg, line_scan_factors(action, dim, field))
            assert factor_labels(alg, composition_factors(action, dim, field)) == expected
            cases += 1
    assert cases > 10  # some Gram forms are singular: quotients were checked too


def test_fingerprint_matches_the_generator_word_traces():
    """tr(L^d T_w) against the trace of the whole generator word times q^{-e},
    on three cell modules and on random matrices, which satisfy no relation,
    so every product must be taken in the order of the word."""
    gf7 = Params(field=PrimeField(7), q=2, Q=(1, 5), n=3, r=2)
    gf5 = Params(field=PrimeField(5), q=4, Q=(1, 2), n=3, r=2)
    # over Q with fractional parameters the rows carry denominators
    fractional = Params(field=Rationals(), q=Fraction(3, 2), Q=(Fraction(1, 3), Fraction(5, 2)), n=3, r=2)
    rng = random.Random("fingerprint")
    noise = [[[rng.randrange(7) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for params, lam, action in [
        (gf7, MultiPartition([[2], [1]]), None),
        (gf5, MultiPartition([[1], [1, 1]]), None),
        (fractional, MultiPartition([[2], [1]]), None),
        (gf7, None, [forms(gf7.field, m) for m in noise]),
    ]:
        alg = ArikiKoikeAlgebra(params)
        field = alg.field
        if action is None:
            action = specht_module(alg, lam).action
        dim = len(action[0])
        dense_action = [[dense(field, row, dim) for row in m] for m in action]
        expected = []
        for mono in alg.basis():
            word, e = alg._gen_word(mono)
            mat = identity_matrix(dim, field)
            for g in word:
                mat = [vec_mat(row, dense_action[g], field) for row in mat]
            expected.append(sum((mat[i][i] for i in range(dim)), field.zero) * params.q_power(-e))
        assert module_fingerprint(alg, action, dim) == tuple(expected)


def conjugate(action, change, field):
    """The same module on the basis of the rows of `change`, in int form."""
    back = inverse(change, field)
    return [forms(field, [vec_mat(vec_mat(row, m, field), back, field) for row in change]) for m in action]


def uniserial_extension(field):
    """A non-split extension on e_1, e_2: e_1 A = 0, e_1 X = e_2, e_2 A = e_2,
    e_2 X = 0.  Its only proper submodule is the line of e_2."""
    return [forms(field, [[0, 0], [0, 1]]), forms(field, [[0, 1], [0, 0]])]


def doubled_simple(field):
    """S + S for the simple 2-dim module S of the matrix units E_11 and
    E_12 + E_21, on a basis whose first vector, and first dual vector, mix
    the two copies."""
    zero = [field.zero] * 2
    action = []
    for m in (lift(field, [[1, 0], [0, 0]]), lift(field, [[0, 1], [1, 0]])):
        action.append([row + zero for row in m] + [zero + row for row in m])
    change = lift(field, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2]])
    return conjugate(action, change, field)


def test_norton_splits_an_extension_through_the_dual():
    # theta = A: its null vector e_1 spins the whole module, so only the
    # transposed spin finds the submodule, as the annihilator of e_1
    field = PrimeField(5)
    ext = uniserial_extension(field)
    e1 = (1, {0: 1})
    assert len(spin([e1], ext, field)) == 2
    found = specht._norton(ext, ext[0], field)
    assert found.rows == {1: (1, {1: 1})}


def test_norton_certifies_nothing_without_a_one_dimensional_kernel():
    # theta = 1 on S + S: one null vector and one dual null vector both spin
    # the whole space, yet the module is reducible
    field = PrimeField(5)
    double = doubled_simple(field)
    e1 = (1, {0: 1})
    assert len(spin([e1], double, field)) == 4
    assert len(spin([e1], [transpose(field, m, 4) for m in double], field)) == 4
    assert specht._norton(double, forms(field, identity_matrix(4, field)), field) is None


@pytest.mark.parametrize("p", [5, 7, 11])
def test_meataxe_chops_the_hand_built_modules(p):
    field = PrimeField(p)
    one, zero = [(1, {0: 1})], [(1, {})]
    assert composition_factors(uniserial_extension(field), 2, field) == [(1, [one, zero]), (1, [zero, zero])]
    factors = composition_factors(doubled_simple(field), 4, field)
    assert [d for d, _ in factors] == [2, 2]
    # both factors are S: the same traces of E_11, the swap and their product
    traces = {tuple(trace(field, m) for m in (a, b, mat_mul(field, a, b))) for _, (a, b) in factors}
    assert traces == {(field.one, field.zero, field.zero)}
