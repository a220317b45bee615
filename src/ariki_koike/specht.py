"""Specht modules, Gram matrices, simple dimensions, blocks, decomposition numbers.

The Specht module attached to a multipartition is realized concretely: its
basis is the set of standard tableaux, and the generator action matrices are
obtained by multiplying cellular basis representatives and re-expanding in
the cellular basis, discarding the part supported on strictly dominating
shapes.  The bilinear form comes from the cellular structure constants, its
radical gives the simple quotients, and composition multiplicities over a
prime field are computed by a seeded, deterministic MeatAxe chop: spin null
vectors of random algebra elements to split a module, and certify the
factors irreducible by Norton's test.  The simple factors are labelled by
their characters (`module_fingerprint`).  The chop eliminates through the
shared kernel `linalg.Echelon`: `spin` grows one echelon per spun
submodule, and the sub- and quotient actions reduce against it.
Specht modules, Gram matrices and decomposition data are kept in the memo
of the `ArikiKoikeAlgebra` they are computed from, so each is built once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import ArikiKoikeAlgebra
from .fields import ComputationError, GateError, Params
from .linalg import (
    Echelon,
    dense_rows,
    echelon,
    identity_matrix,
    mat_mul,
    nullspace,
    rank,
    sparse,
    sparse_vec_mat,
    transpose,
)
from .perms import Permutation, sorted_permutations
from .tableaux import (
    MultiPartition,
    StandardTableau,
    content,
    dominates,
    multipartitions,
    sort_key,
    std_tableaux,
    strictly_dominates,
    t_row,
)

@dataclass
class SpechtModule:
    """Right module on the standard-tableau basis; action[g][i][j] is the
    coefficient of basis[j] in basis[i] * T_g."""

    lam: MultiPartition
    basis: list[StandardTableau]
    action: list[list[list]]  # one matrix per generator T_0..T_{n-1}

    @property
    def dim(self) -> int:
        return len(self.basis)


def specht_module(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> SpechtModule:
    """Action matrices of every generator on the cell module of shape lam."""
    return alg.derived(("specht_module", lam), lambda: _specht_module(alg, lam))


def _specht_module(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> SpechtModule:
    tabs = std_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    top = t_row(lam)
    trans = alg.transition()
    gens = max(alg.n, 1)
    matrices = [[[alg.field.zero] * len(tabs) for _ in tabs] for _ in range(gens)]
    for i, t in enumerate(tabs):
        rep = alg.m_st(top, t)
        for g in range(alg.n):
            coords = trans.express(rep * alg.gen_T(g))
            for (mu, u, v), c in coords.items():
                if mu == lam:
                    if u != top:
                        raise ComputationError(
                            "cellular expansion moved the frozen first tableau"
                        )
                    matrices[g][i][index[v]] = c
                elif not strictly_dominates(mu, lam):
                    raise ComputationError(
                        "cellular expansion escaped to a non-dominating shape"
                    )
    return SpechtModule(lam, tabs, matrices[: alg.n])


def gram_matrix(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> list[list]:
    """Gram matrix of the cellular form: entry (s,t) is the coefficient of
    m_{t^lam t^lam} in m_{t^lam s} * m_{t t^lam}."""
    return alg.derived(("gram_matrix", lam), lambda: _gram_matrix(alg, lam))


def _gram_matrix(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> list[list]:
    tabs = std_tableaux(lam)
    top = t_row(lam)
    if alg.n == 0:
        return [[alg.field.one]]
    trans = alg.transition()
    top_cell = (lam, top, top)
    g = []
    for s in tabs:
        left = alg.m_st(top, s)
        row = []
        for t in tabs:
            prod = left * alg.m_st(t, top)
            coords = trans.express(prod)
            row.append(coords.get(top_cell, alg.field.zero))
        g.append(row)
    return g


def block_partition(params: Params) -> list[list[MultiPartition]]:
    """Group multipartitions by content multiset (a block invariant).

    Needs q != 1: at q = 1 the residues q^{j-i} Q_k collapse and the content
    criterion requires a modified residue definition that is out of scope.
    """
    if params.q == params.field.one:
        raise GateError("block partition by content requires q != 1")
    groups: dict[tuple, list[MultiPartition]] = {}
    for lam in multipartitions(params.n, params.r):
        groups.setdefault(content(lam, params), []).append(lam)
    keyed = sorted(groups.values(), key=lambda g: sort_key(g[0]))
    return keyed


# -- composition factors over a prime field ----------------------------------


def spin(vectors: list[list], action: list[list[list]], field) -> Echelon:
    """Row-space closure of `vectors` under right multiplication by the action,
    as the reduced echelon of the submodule they generate."""
    mats = _sparse_action(action)
    ech = Echelon(field)
    queue = [sparse(v) for v in vectors]
    while queue:
        added = ech.add(queue.pop())
        if added is not None:
            row = ech.row(added[0])
            queue.extend(sparse_vec_mat(row, mat) for mat in mats)
    return ech


def _sparse_action(action: list[list[list]]) -> list[list[dict]]:
    return [[sparse(row) for row in mat] for mat in action]


def submodule_action(ech: Echelon, action: list[list[list]], field) -> list[list[list]]:
    """Restrict the action to the invariant row space of the echelon `ech`,
    on the basis of its rows in pivot order."""
    pivots = sorted(ech.rows)
    mats = []
    for mat in _sparse_action(action):
        sub = []
        for pc in pivots:
            img = sparse_vec_mat(ech.row(pc), mat)
            if ech.reduce(img):
                raise ComputationError("subspace is not invariant")
            sub.append([img.get(c, field.zero) for c in pivots])
        mats.append(sub)
    return mats


def quotient_action(ech: Echelon, action: list[list[list]], field) -> list[list[list]]:
    """Action on the quotient by the invariant row space of the echelon `ech`,
    on the basis of the non-pivot coordinate vectors."""
    mats = []
    for mat in action:
        free = [j for j in range(len(mat)) if j not in ech.rows]
        q = []
        for j in free:
            img = ech.reduce(sparse(mat[j]))
            q.append([img.get(k, field.zero) for k in free])
        mats.append(q)
    return mats


def composition_factors(action: list[list[list]], dim: int, field) -> list[tuple[int, list[list[list]]]]:
    """Composition series factors as (dim, action matrices), by a MeatAxe chop.

    Each step either splits off a proper invariant subspace or certifies
    the module irreducible by Norton's test (`_split`); the recursion runs
    on the submodule and on the quotient.  Deterministic: the random
    algebra elements come from a generator seeded by the dimension.
    """
    if dim == 0:
        return []
    sub = _split(action, dim, field)
    if len(sub) == dim:
        return [(dim, action)]
    return composition_factors(submodule_action(sub, action, field), len(sub), field) + (
        composition_factors(quotient_action(sub, action, field), dim - len(sub), field)
    )


MAX_TRIES = 100  # random algebra elements the chop draws before it gives up on a module


def _split(action: list[list[list]], dim: int, field) -> Echelon:
    """A proper invariant subspace, or the whole space if the module is irreducible.

    Draws random algebra elements theta, random combinations of the
    generator matrices and of products of pairs of earlier words (one more
    product per draw, as in R. Parker's MeatAxe, 1984), until `_norton`
    decides.
    """
    p = field.characteristic
    if p == 0:
        raise ComputationError("the chop works over prime fields only")
    if dim == 1:  # simple; spun so that every factor counts at least one spin
        return spin([[field.one]], action, field)
    rng = random.Random(dim)
    words = list(action)
    for _ in range(MAX_TRIES):
        words.append(mat_mul(rng.choice(words), rng.choice(words), field))
        theta = [[field.zero] * dim for _ in range(dim)]
        for word in words:
            c = field(rng.randrange(p))
            if c:
                theta = [[a + c * x for a, x in zip(row, wrow)] for row, wrow in zip(theta, word)]
        found = _norton(action, theta, field)
        if found is not None:
            return found
    raise ComputationError(f"the chop found no split and no irreducibility proof in {MAX_TRIES} tries")


def _norton(action: list[list[list]], theta: list[list], field) -> Echelon | None:
    """Split or certify with one algebra element theta (Norton's test).

    For each eigenvalue lam of theta in the field, spin a vector of
    N = ker(theta - lam); a proper spin is a submodule.  If N is a line,
    also spin a vector of ker((theta - lam)^T) under the transposed action:
    a proper spin there is a submodule of the dual, and its annihilator a
    proper submodule.  Every proper submodule U either meets N or has an
    annihilator that meets the transposed kernel, so when N is a line and
    both spins are full the module is irreducible, and the full spin is
    returned (D. Holt & S. Rees, J. Austral. Math. Soc. A 57, 1994).
    None means theta decides nothing.
    """
    dim = len(theta)
    for c in range(field.characteristic):
        lam = field(c)
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(theta)]
        kernel = nullspace(transpose(shifted), field)  # row vectors v with v shifted = 0
        if not kernel:
            continue
        sub = spin(kernel[:1], action, field)
        if len(sub) < dim:
            return sub
        if len(kernel) > 1:
            continue
        dual = spin(nullspace(shifted, field)[:1], [transpose(m) for m in action], field)
        if len(dual) < dim:
            return echelon(nullspace(dense_rows(dual, dim), field), field)
        return sub
    return None


def module_fingerprint(alg: ArikiKoikeAlgebra, action: list[list[list]], dim: int) -> tuple:
    """Trace of the action of every normal-form basis monomial L^d T_w.

    Characters of pairwise non-isomorphic absolutely irreducible modules are
    linearly independent, so this tuple identifies a simple module exactly.
    Each matrix is one product from a shorter one: L_{k+1} = q^{-1} T_k L_k T_k,
    L^d = L^{d'} L_k with k the last nonzero exponent of d and d' = d - e_k,
    and T_w = T_{w s_i} T_i for the first right descent i of w.  The trace
    of L^d T_w is summed entrywise, without forming the product.
    """
    field = alg.field
    ident = identity_matrix(dim, field)
    q_inv = alg.params.q_power(-1)
    l_gens = action[:1]
    for t in action[1:]:
        l_gens.append([[q_inv * x for x in row] for row in mat_mul(mat_mul(t, l_gens[-1], field), t, field)])
    t_mats = {}
    for w in sorted(sorted_permutations(alg.n), key=Permutation.length):
        descents = w.right_descents()
        t_mats[w] = mat_mul(t_mats[w.times_s(descents[0])], action[descents[0]], field) if descents else ident
    t_cols = {w: transpose(m) for w, m in t_mats.items()}
    l_mats: dict[tuple, list[list]] = {}
    traces = []
    for d, w in alg.basis():  # exponents-lex, so L^{d'} is built before L^d
        if d not in l_mats:
            k = max((k for k, e in enumerate(d) if e), default=-1)
            l_mats[d] = ident if k < 0 else mat_mul(
                l_mats[d[:k] + (d[k] - 1,) + d[k + 1:]], l_gens[k], field)
        tr = field.zero
        for row, col in zip(l_mats[d], t_cols[w]):
            for x, y in zip(row, col):
                if x and y:
                    tr = tr + x * y
        traces.append(tr)
    return tuple(traces)


@dataclass
class DecompositionData:
    rows: list[MultiPartition]  # all multipartitions
    cols: list[MultiPartition]  # those with a nonzero simple quotient
    matrix: list[list[int]]
    simple_dims: dict[MultiPartition, int]


def decomposition_matrix(alg: ArikiKoikeAlgebra) -> DecompositionData:
    """Composition multiplicities of the simple modules in every cell module.

    Only over GF(p).  Validates unitriangularity against dominance and the
    dimension bookkeeping identity before returning.
    """
    if alg.field.characteristic == 0:
        raise GateError("decomposition matrices are computed over prime fields")
    return alg.derived("decomposition_matrix", lambda: _decomposition_matrix(alg))


def _decomposition_matrix(alg: ArikiKoikeAlgebra) -> DecompositionData:
    field = alg.field
    lams = multipartitions(alg.n, alg.r)
    modules = {lam: specht_module(alg, lam) for lam in lams}
    grams = {lam: gram_matrix(alg, lam) for lam in lams}
    simple_dims = {lam: rank(grams[lam], field) for lam in lams}
    cols = [lam for lam in lams if simple_dims[lam] > 0]

    # Reference fingerprints of the simple quotients D^mu = S^mu / rad.
    ref: dict[tuple, MultiPartition] = {}
    for mu in cols:
        rad_rows = nullspace(grams[mu], field)
        if rad_rows:
            act = quotient_action(echelon(rad_rows, field), modules[mu].action, field)
            d = simple_dims[mu]
        else:
            act = modules[mu].action
            d = modules[mu].dim
        fp = (d, module_fingerprint(alg, act, d))
        if fp in ref:
            raise ComputationError(
                f"fingerprint collision between simples {ref[fp].serialize()} and {mu.serialize()}"
            )
        ref[fp] = mu

    matrix = []
    for lam in lams:
        counts = {mu: 0 for mu in cols}
        for d, act in composition_factors(modules[lam].action, modules[lam].dim, field):
            fp = (d, module_fingerprint(alg, act, d))
            if fp not in ref:
                raise ComputationError(
                    f"composition factor of {lam.serialize()} matches no simple module"
                )
            counts[ref[fp]] += 1
        matrix.append([counts[mu] for mu in cols])

    data = DecompositionData(lams, cols, matrix, simple_dims)
    _validate_decomposition(data, modules)
    return data


def _validate_decomposition(data: DecompositionData, modules) -> None:
    col_index = {mu: j for j, mu in enumerate(data.cols)}
    for i, lam in enumerate(data.rows):
        total = 0
        for j, mu in enumerate(data.cols):
            d = data.matrix[i][j]
            if d and not dominates(lam, mu):
                raise ComputationError("decomposition matrix violates dominance triangularity")
            total += d * data.simple_dims[mu]
        if total != modules[lam].dim:
            raise ComputationError("decomposition matrix fails the dimension bookkeeping")
    for mu in data.cols:
        if data.matrix[data.rows.index(mu)][col_index[mu]] != 1:
            raise ComputationError("decomposition matrix has a diagonal entry != 1")


def decomposition_to_tsv(data: DecompositionData) -> str:
    header = "shape\\simple\t" + "\t".join(mu.serialize() for mu in data.cols)
    lines = [header]
    for lam, row in zip(data.rows, data.matrix):
        lines.append(lam.serialize() + "\t" + "\t".join(str(x) for x in row))
    return "\n".join(lines)


def gram_to_tsv(lam: MultiPartition, g: list[list]) -> str:
    tabs = std_tableaux(lam)
    header = lam.serialize() + "\t" + "\t".join(t.serialize() for t in tabs)
    lines = [header]
    for t, row in zip(tabs, g):
        lines.append(t.serialize() + "\t" + "\t".join(str(x) for x in row))
    return "\n".join(lines)
