from fractions import Fraction

import pytest

from ariki_koike.algebra import ArikiKoikeAlgebra
from ariki_koike.fields import GateError, Params, PrimeField, Rationals
from ariki_koike.linalg import rank
from ariki_koike.specht import (
    block_partition,
    decomposition_matrix,
    dim_simple,
    gram_matrix,
    specht_module,
)
from ariki_koike.tableaux import MultiPartition, content, multipartitions, std_tableaux


def qparams(n=2, r=2, q=2, Q=(1, 5), s=1):
    return Params(field=Rationals(), q=q, Q=Q, n=n, r=r, s=s)


def test_trivial_type_module():
    alg = ArikiKoikeAlgebra(qparams())
    sm = specht_module(alg, MultiPartition([[2], []]))
    assert sm.dim == 1
    assert sm.action[1] == [[Fraction(2)]]  # T_1 acts as q
    assert sm.action[0] == [[Fraction(1)]]  # L_1 acts as Q_1


def test_two_dimensional_module_residues():
    params = qparams()
    alg = ArikiKoikeAlgebra(params)
    lam = MultiPartition([[1], [1]])
    sm = specht_module(alg, lam)
    assert sm.dim == 2
    # L_1 acts triangularly with the residues of the two tableaux on the diagonal
    diag = [sm.action[0][i][i] for i in range(2)]
    expected = [content(lam, params)[0], content(lam, params)[1]]
    assert sorted(diag) == sorted(expected) == [Fraction(1), Fraction(5)]


def test_specht_dims_are_tableau_counts():
    alg = ArikiKoikeAlgebra(qparams(n=3))
    for lam in multipartitions(3, 2):
        assert specht_module(alg, lam).dim == len(std_tableaux(lam))


def test_gram_one_dimensional_nonzero():
    alg = ArikiKoikeAlgebra(qparams())
    g = gram_matrix(alg, MultiPartition([[2], []]))
    assert len(g) == 1 and g[0][0] != 0


def test_semisimple_square_sum():
    for n in (2, 3):
        params = qparams(n=n)
        alg = ArikiKoikeAlgebra(params)
        total = 0
        for lam in multipartitions(n, 2):
            d = dim_simple(alg, lam)
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
        assert data.simple_dims[mu] == rank(gram_matrix(alg, mu))


def test_decomposition_rejects_rationals():
    with pytest.raises(GateError):
        decomposition_matrix(ArikiKoikeAlgebra(qparams()))
