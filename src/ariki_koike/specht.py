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
their characters (`module_fingerprint`).  Action and Gram matrices are
lists of int-form rows (den, {column: int}), the rows `linalg.Echelon`
keeps: `spin` grows one echelon per spun submodule, and the sub- and
quotient actions restrict its rows.
Specht modules, Gram matrices and decomposition data are kept in the memo
of the `ArikiKoikeAlgebra` they are computed from, so each is built once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .algebra import ArikiKoikeAlgebra
from .fields import ComputationError, GateError, Params
from .linalg import Echelon, combination, kernel_basis, mat_mul, transpose
from .perms import Permutation
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

Rows = list[tuple[int, dict]]  # a matrix of int-form rows


@dataclass
class SpechtModule:
    """Right module on the standard-tableau basis; action[g][i] is basis[i] * T_g
    as an int-form row, entry j its coefficient of basis[j]."""

    lam: MultiPartition
    basis: list[StandardTableau]
    action: list[Rows]  # one matrix per generator T_0..T_{n-1}

    @property
    def dim(self) -> int:
        return len(self.basis)


def specht_module(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> SpechtModule:
    """Action matrices of every generator on the cell module of shape lam."""
    return alg.derived(("specht_module", lam), lambda: _specht_module(alg, lam))


def _specht_module(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> SpechtModule:
    tabs = list(alg.shape_table(std_tableaux, lam))
    index = {t: i for i, t in enumerate(tabs)}
    top = t_row(lam)
    trans = alg.transition()
    matrices = [[] for _ in range(alg.n)]
    for t in tabs:
        rep = alg.m_st(top, t)
        for g in range(alg.n):
            den, coords = trans.express(rep * alg.gen_T(g))
            row = {}
            for i, c in coords.items():
                mu, u, v = trans.cells[i]
                if mu == lam:
                    if u != top:
                        raise ComputationError(
                            "cellular expansion moved the frozen first tableau"
                        )
                    row[index[v]] = c
                elif not strictly_dominates(mu, lam):
                    raise ComputationError(
                        "cellular expansion escaped to a non-dominating shape"
                    )
            matrices[g].append(alg.field.canonical(den, row))
    return SpechtModule(lam, tabs, matrices)


def gram_matrix(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> Rows:
    """Gram matrix of the cellular form, as int-form rows: entry (s,t) is the
    coefficient of m_{t^lam t^lam} in m_{t^lam s} * m_{t t^lam}."""
    return alg.derived(("gram_matrix", lam), lambda: _gram_matrix(alg, lam))


def _gram_matrix(alg: ArikiKoikeAlgebra, lam: MultiPartition) -> Rows:
    tabs = alg.shape_table(std_tableaux, lam)
    top = t_row(lam)
    if alg.n == 0:
        return [(1, {0: 1})]
    trans = alg.transition()
    top_cell = trans.index[top, top]
    # the one coordinate an entry reads: column top_cell of the inverse, as one-column rows
    column = [(den, {0: ints[top_cell]}) if top_cell in ints else (1, {}) for den, ints in trans.inverse()]
    g = []
    for s in tabs:
        left = alg.m_st(top, s)
        entries = [combination(alg.field, (left * alg.m_st(t, top)).form, column) for t in tabs]
        big = lcm(*(den for den, _ in entries))
        g.append(alg.field.canonical(big, {j: ints[0] * (big // den) for j, (den, ints) in enumerate(entries) if ints}))
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


def spin(vectors: Rows, action: list[Rows], field) -> Echelon:
    """Row-space closure of `vectors` under right multiplication by the action,
    as the reduced echelon of the submodule they generate."""
    ech = Echelon(field)
    queue = list(vectors)
    while queue:
        added = ech.add_form(*queue.pop())
        if added is not None:
            row = ech.rows[added[0]]
            queue.extend(combination(field, row, mat) for mat in action)
    return ech


def _restrict(field, form: tuple[int, dict], index: dict) -> tuple[int, dict]:
    """The entries of form at the columns in index, renumbered by it."""
    den, ints = form
    return field.canonical(den, {index[k]: a for k, a in ints.items() if k in index})


def submodule_action(ech: Echelon, action: list[Rows], field) -> list[Rows]:
    """Restrict the action to the invariant row space of the echelon `ech`,
    on the basis of its rows in pivot order."""
    pivots = sorted(ech.rows)
    index = {pc: k for k, pc in enumerate(pivots)}
    mats = []
    for mat in action:
        sub = []
        for pc in pivots:
            img = combination(field, ech.rows[pc], mat)
            if not ech.contains(*img):
                raise ComputationError("subspace is not invariant")
            sub.append(_restrict(field, img, index))
        mats.append(sub)
    return mats


def quotient_action(ech: Echelon, action: list[Rows], field) -> list[Rows]:
    """Action on the quotient by the invariant row space of the echelon `ech`,
    on the basis of the non-pivot coordinate vectors."""
    mats = []
    for mat in action:
        free = [j for j in range(len(mat)) if j not in ech.rows]
        index = {j: k for k, j in enumerate(free)}
        mats.append([_restrict(field, ech.reduce(*mat[j]), index) for j in free])
    return mats


def composition_factors(action: list[Rows], dim: int, field) -> list[tuple[int, list[Rows]]]:
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


def _split(action: list[Rows], dim: int, field) -> Echelon:
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
        return spin([(1, {0: 1})], action, field)
    rng = random.Random(dim)
    words = list(action)
    for _ in range(MAX_TRIES):
        words.append(mat_mul(field, rng.choice(words), rng.choice(words)))
        coeffs = (1, {k: c for k in range(len(words)) if (c := rng.randrange(p))})
        theta = [combination(field, coeffs, rows) for rows in zip(*words)]
        found = _norton(action, theta, field)
        if found is not None:
            return found
    raise ComputationError(f"the chop found no split and no irreducibility proof in {MAX_TRIES} tries")


def _norton(action: list[Rows], theta: Rows, field) -> Echelon | None:
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
    for lam in range(field.characteristic):
        shifted = [field.canonical(den, {**ints, i: ints.get(i, 0) - lam * den})
                   for i, (den, ints) in enumerate(theta)]
        # row vectors v with v shifted = 0
        kernel = kernel_basis(Echelon(field, transpose(field, shifted, dim)), dim)
        if not kernel:
            continue
        sub = spin(kernel[:1], action, field)
        if len(sub) < dim:
            return sub
        if len(kernel) > 1:
            continue
        dual = spin(kernel_basis(Echelon(field, shifted), dim)[:1],
                    [transpose(field, m, dim) for m in action], field)
        if len(dual) < dim:
            return Echelon(field, kernel_basis(dual, dim))
        return sub
    return None


def l_matrices(alg: ArikiKoikeAlgebra, action: list[Rows]) -> list[Rows]:
    """L_1 = T_0 and L_{k+1} = q^{-1} T_k L_k T_k from the action matrices of T_0..T_{n-1}."""
    field, out, q_inv = alg.field, action[:1], alg.field.to_ints({0: alg.params.q_power(-1)})
    for t in action[1:]:
        out.append([combination(field, q_inv, [row]) for row in mat_mul(field, mat_mul(field, t, out[-1]), t)])
    return out


def module_fingerprint(alg: ArikiKoikeAlgebra, action: list[Rows], dim: int) -> tuple:
    """Trace of the action of every normal-form basis monomial L^d T_w.

    Characters of pairwise non-isomorphic absolutely irreducible modules are
    linearly independent, so this tuple identifies a simple module exactly.
    Each matrix is one product from a shorter one: L_{k+1} = q^{-1} T_k L_k T_k,
    L^d = L^{d'} L_k with k the last nonzero exponent of d and d' = d - e_k,
    and T_w = T_{w s_i} T_i for the first right descent i of w.  The trace
    of L^d T_w is summed entrywise in ints, without forming the product.
    """
    field = alg.field
    ident = [(1, {i: 1}) for i in range(dim)]
    l_gens = l_matrices(alg, action)
    t_mats = {}
    for w in sorted(alg._perms, key=Permutation.length):
        descents = w.right_descents()
        t_mats[w] = mat_mul(field, t_mats[w.times_s(descents[0])], action[descents[0]]) if descents else ident
    t_cols = {w: transpose(field, m, dim) for w, m in t_mats.items()}
    l_mats: dict[tuple, Rows] = {}
    traces = []
    for d, w in alg.basis():  # exponents-lex, so L^{d'} is built before L^d
        if d not in l_mats:
            k = max((k for k, e in enumerate(d) if e), default=-1)
            l_mats[d] = ident if k < 0 else mat_mul(field, l_mats[d[:k] + (d[k] - 1,) + d[k + 1:]], l_gens[k])
        den, num = 1, 0
        for (a, row), (b, col) in zip(l_mats[d], t_cols[w]):
            if dot := sum(x * col[j] for j, x in row.items() if j in col):
                big = lcm(den, a * b)
                den, num = big, num * (big // den) + dot * (big // (a * b))
        traces.append(field.from_ints(den, {0: num}).get(0, field.zero))
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
    lams = list(alg.shape_table(multipartitions, alg.n, alg.r))
    modules = {lam: specht_module(alg, lam) for lam in lams}
    grams = {lam: gram_matrix(alg, lam) for lam in lams}
    simple_dims = {lam: len(Echelon(field, grams[lam])) for lam in lams}
    cols = [lam for lam in lams if simple_dims[lam] > 0]

    # Reference fingerprints of the simple quotients D^mu = S^mu / rad.
    ref: dict[tuple, MultiPartition] = {}
    for mu in cols:
        rad = kernel_basis(Echelon(field, grams[mu]), modules[mu].dim)
        if rad:
            act = quotient_action(Echelon(field, rad), modules[mu].action, field)
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


def gram_to_tsv(alg: ArikiKoikeAlgebra, lam: MultiPartition, g: list[list]) -> str:
    tabs = alg.shape_table(std_tableaux, lam)
    header = lam.serialize() + "\t" + "\t".join(t.serialize() for t in tabs)
    lines = [header]
    for t, row in zip(tabs, g):
        lines.append(t.serialize() + "\t" + "\t".join(str(x) for x in row))
    return "\n".join(lines)
