"""Relation, cellular-basis and cell-module verification batteries.

These are the suites below the Morita layer: they certify the arithmetic
core (defining relations, basis closure, associativity, the star map), the
cellular change of basis with its triangularity, and the module-level facts
(action relations, Gram symmetry and invariance, semisimple dimension
counts, block partition, decomposition matrices).  Each takes the algebra
of the run, so all suites share its transition, modules and forms.
The cell elements are read from the transition, and the layer ideals are
checked in cellular coordinates: each m_uv T_g and T_g m_uv must lie on shapes
dominating the shape of (u, v), which by transitivity of dominance is the
closure of every N^{>=lam} and N^{>lam} under the generators.
"""

from __future__ import annotations

import random
from functools import partial, reduce

from .algebra import ArikiKoikeAlgebra, random_element
from .fields import ComputationError, poincare
from .linalg import Echelon, combination, mat_mul, transpose
from .report import CheckResult, result
from .specht import (
    block_partition,
    decomposition_matrix,
    gram_matrix,
    specht_module,
)
from .tableaux import (
    content,
    dominates,
    multipartitions,
    std_tableaux,
    strictly_dominates,
    tableau_dominates,
    tableau_residue,
)

REF_RANK = "normal-form basis closure at rank r^n n!"
REF_RELATIONS = "defining relations of the algebra"
REF_COMMUTE = "fundamental commutation laws of the L elements"
REF_STAR = "the star map is an involutive anti-automorphism"
REF_ASSOC = "associativity of the rewritten product"
REF_TRANSITION = "invertibility of the cellular change of basis"
REF_TRIANGULAR = "triangular action of the commuting generators on cell elements"
REF_IDEALS = "two-sided ideals spanned by dominating cell layers"
REF_STAR_CELL = "star swaps the two tableaux of a cell element"
REF_MODULE_REL = "defining relations hold on every cell module"
REF_GRAM = "symmetry and invariance of the cell-module bilinear form"
REF_SEMISIMPLE = "semisimple regime: nonsingular forms and the square-sum count"
REF_BLOCKS = "content as a block invariant"
REF_DECOMP = "triangular decomposition matrix over a prime field"


def relations_suite(alg: ArikiKoikeAlgebra, seed: int = 2024) -> list[CheckResult]:
    n, q = alg.n, alg.q
    pd = alg.params.describe()
    out = []

    basis, codes = set(alg.basis()), range(alg.dim)
    closure_ok = len(basis) == alg.dim
    for mono in alg.basis():
        for g in range(n):
            if not all(k in codes for k in alg._mono_times_gen(mono, g)):
                closure_ok = False
    out.append(result("relations.basis_closure", REF_RANK, pd, closure_ok,
                      f"rank {len(basis)}"))

    failures = []
    one = alg.one()
    T = [alg.gen_T(i) for i in range(n)]
    if n >= 1:
        z = one
        for Qt in alg.Q:
            z = z * (T[0] - alg.from_scalar(Qt))
        if not z.is_zero():
            failures.append("cyclotomic relation")
        if n >= 2 and T[0] * T[1] * T[0] * T[1] != T[1] * T[0] * T[1] * T[0]:
            failures.append("mixed braid relation")
        for i in range(1, n):
            if T[i] * T[i] != T[i].scale(q - alg.field.one) + one.scale(q):
                failures.append(f"quadratic relation at {i}")
        for i in range(1, n - 1):
            if T[i + 1] * T[i] * T[i + 1] != T[i] * T[i + 1] * T[i]:
                failures.append(f"braid relation at {i}")
        for i in range(n):
            for j in range(i + 2, n):
                if T[i] * T[j] != T[j] * T[i]:
                    failures.append(f"far commutation {i},{j}")
    out.append(result("relations.defining", REF_RELATIONS, pd, not failures,
                      "; ".join(failures[:4])))

    failures = []
    L = [None] + [alg.gen_L(k) for k in range(1, n + 1)]
    for i in range(1, n):
        for j in range(1, n + 1):
            if L[i] * L[j] != L[j] * L[i]:
                failures.append(f"L_{i} L_{j}")
            if j not in (i, i + 1) and T[i] * L[j] != L[j] * T[i]:
                failures.append(f"T_{i} L_{j}")
        if T[i] * (L[i] * L[i + 1]) != (L[i] * L[i + 1]) * T[i]:
            failures.append(f"T_{i} with the product pair")
        if T[i] * (L[i] + L[i + 1]) != (L[i] + L[i + 1]) * T[i]:
            failures.append(f"T_{i} with the sum pair")
        for a in (alg.field.zero, alg.field.one, alg.Q[0]):
            for j in range(1, n + 1):
                if j == i:
                    continue
                prod = one
                for k in range(1, j + 1):
                    prod = prod * (L[k] - alg.from_scalar(a))
                if T[i] * prod != prod * T[i]:
                    failures.append(f"T_{i} with the shifted prefix product to {j}")
    out.append(result("relations.commutation", REF_COMMUTE, pd, not failures,
                      "; ".join(failures[:4])))

    rng = random.Random(seed)
    failures = []
    pair_trials = 20 if alg.dim <= 48 else 8
    for _ in range(pair_trials):
        a, b = random_element(alg, rng), random_element(alg, rng)
        if (a * b).star() != b.star() * a.star():
            failures.append("anti-homomorphism")
        if a.star().star() != a:
            failures.append("involution")
    for k in range(1, n + 1):
        if alg.gen_L(k).star() != alg.gen_L(k):
            failures.append(f"L_{k} not fixed")
    out.append(result("relations.star", REF_STAR, pd, not failures,
                      "; ".join(sorted(set(failures)))))

    trials = 200 if alg.dim <= 8 else (50 if alg.dim <= 48 else 20)
    failures = 0
    for _ in range(trials):
        a, b, c = (random_element(alg, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            failures += 1
    out.append(result("relations.associativity", REF_ASSOC, pd, failures == 0,
                      f"{trials} random triples, seed {seed}"))
    return out


def cellular_suite(alg: ArikiKoikeAlgebra, seed: int = 2024,
                   roundtrip_trials: int = 100) -> list[CheckResult]:
    params = alg.params
    pd = params.describe()
    out = []
    trans = alg.transition()
    inv_ok = True
    try:
        trans.inverse()
    except ValueError:
        inv_ok = False
    out.append(result("cellular.transition_invertible", REF_TRANSITION, pd, inv_ok,
                      f"dimension {alg.dim}"))

    rng = random.Random(seed)
    failures = 0
    for _ in range(roundtrip_trials):
        e = random_element(alg, rng)
        if trans.combine(trans.express(e)) != e:
            failures += 1
    out.append(result("cellular.roundtrip", REF_TRANSITION, pd, failures == 0,
                      f"{roundtrip_trials} random elements, seed {seed}"))

    failures = []
    for lam, s, t in trans.cells:
        mst = alg.m_st(s, t)
        for k in range(1, alg.n + 1):
            coords = alg.field.from_ints(*trans.express(alg.gen_L(k) * mst))
            res = tableau_residue(s, k, params)
            diagonal = alg.field.zero
            for i, c in coords.items():
                mu, u, v = trans.cells[i]
                if mu != lam:
                    if not strictly_dominates(mu, lam):
                        failures.append("escaped to a non-dominating shape")
                elif v != t:
                    failures.append("second tableau moved")
                elif u == s:
                    diagonal = c
                    if c != res:
                        failures.append("diagonal coefficient is not the residue")
                elif not (tableau_dominates(u, s) and u != s):
                    failures.append("off-diagonal tableau not strictly dominating")
            if diagonal != res:
                failures.append("missing residue term")
    out.append(result("cellular.residue_triangularity", REF_TRIANGULAR, pd, not failures,
                      "; ".join(sorted(set(failures))[:4])))

    failures = []
    gens = [alg.gen_T(g) for g in range(alg.n)]
    lams = alg.shape_table(multipartitions, alg.n, alg.r)
    above = {lam: {mu for mu in lams if dominates(mu, lam)} for lam in lams}
    for lam, u, v in trans.cells:
        m = alg.m_st(u, v)
        for side, products in (("right", [m * t for t in gens]), ("left", [t * m for t in gens])):
            if not all(trans.cells[i][0] in above[lam] for e in products for i in trans.express(e)[1]):
                failures.append(f"{side} multiplication leaves the layer ideal")
    out.append(result("cellular.layer_ideals", REF_IDEALS, pd, not failures,
                      "; ".join(sorted(set(failures))[:2])))

    failures = []
    for lam in alg.shape_table(multipartitions, alg.n, alg.r):
        tabs = alg.shape_table(std_tableaux, lam)
        for s in tabs:
            for t in tabs:
                if alg.m_st(s, t).star() != alg.m_st(t, s):
                    failures.append(lam.serialize())
    out.append(result("cellular.star_swap", REF_STAR_CELL, pd, not failures,
                      "; ".join(failures[:3])))
    return out


def _linear(field, terms) -> list[tuple[int, dict]]:
    """sum c * m over the pairs (field value c, matrix m of int-form rows) of
    terms, all of one size: one combination per row."""
    coeffs = field.to_ints(dict(enumerate(c for c, _ in terms)))
    return [combination(field, coeffs, rows) for rows in zip(*(m for _, m in terms))]


def specht_suite(alg: ArikiKoikeAlgebra) -> list[CheckResult]:
    params = alg.params
    pd = params.describe()
    out = []
    field = alg.field
    q, one = alg.q, field.one
    product = partial(reduce, partial(mat_mul, field))
    lams = alg.shape_table(multipartitions, alg.n, alg.r)
    modules = {lam: specht_module(alg, lam) for lam in lams}
    grams = {lam: gram_matrix(alg, lam) for lam in lams}

    failures = []
    for lam, sm in modules.items():
        A = sm.action
        ident = [(1, {i: 1}) for i in range(sm.dim)]
        if alg.n >= 1:
            cyclotomic = product([_linear(field, [(one, A[0]), (-Qt, ident)]) for Qt in alg.Q])
            if any(ints for _, ints in cyclotomic):
                failures.append(f"cyclotomic fails on {lam.serialize()}")
        if alg.n >= 2:
            if product([A[0], A[1], A[0], A[1]]) != product([A[1], A[0], A[1], A[0]]):
                failures.append(f"mixed braid fails on {lam.serialize()}")
        for i in range(1, alg.n):
            if mat_mul(field, A[i], A[i]) != _linear(field, [(q - one, A[i]), (q, ident)]):
                failures.append(f"quadratic fails on {lam.serialize()}")
        for i in range(1, alg.n - 1):
            if product([A[i + 1], A[i], A[i + 1]]) != product([A[i], A[i + 1], A[i]]):
                failures.append(f"braid fails on {lam.serialize()}")
        for i in range(alg.n):
            for j in range(i + 2, alg.n):
                if mat_mul(field, A[i], A[j]) != mat_mul(field, A[j], A[i]):
                    failures.append(f"far commutation fails on {lam.serialize()}")
    out.append(result("specht.action_relations", REF_MODULE_REL, pd, not failures,
                      "; ".join(failures[:3])))

    failures = []
    for lam, sm in modules.items():
        g = grams[lam]
        if g != transpose(field, g, sm.dim):
            failures.append(f"asymmetric on {lam.serialize()}")
        for Ag in sm.action:
            if mat_mul(field, Ag, g) != mat_mul(field, g, transpose(field, Ag, sm.dim)):
                failures.append(f"not invariant on {lam.serialize()}")
    out.append(result("specht.gram_invariance", REF_GRAM, pd, not failures,
                      "; ".join(sorted(set(failures))[:3])))

    if poincare(params):
        failures = []
        total = 0
        for lam in lams:
            d = len(Echelon(field, grams[lam]))
            if d != modules[lam].dim:
                failures.append(f"singular form on {lam.serialize()}")
            total += d * d
        if total != alg.dim:
            failures.append(f"square sum {total} != {alg.dim}")
        out.append(result("specht.semisimple_regime", REF_SEMISIMPLE, pd, not failures,
                          "; ".join(failures[:3])))

    if params.q != alg.field.one:
        blocks = block_partition(params)
        covered = sum(len(b) for b in blocks)
        contents_distinct = len({content(b[0], params) for b in blocks}) == len(blocks)
        # L_1 + ... + L_n is central, so on S^lam it is sum(content(lam)) times the
        # identity; L_1 = T_0 and L_{k+1} = q^{-1} T_k L_k T_k
        failures = []
        for lam, sm in modules.items():
            A = sm.action
            Ls = A[:1]
            for k in range(1, alg.n):
                Ls.append(_linear(field, [(one / q, product([A[k], Ls[-1], A[k]]))]))
            c = sum(content(lam, params), field.zero)
            ident = [(1, {i: 1}) for i in range(sm.dim)]
            if any(ints for _, ints in _linear(field, [(one, L) for L in Ls] + [(-c, ident)])):
                failures.append(f"L_1+...+L_n is not {c} on {lam.serialize()}")
        out.append(result("specht.blocks_by_content", REF_BLOCKS, pd,
                          covered == len(lams) and contents_distinct and not failures,
                          "; ".join(failures[:3]) or f"{len(blocks)} content classes over {len(lams)} shapes"))

    if params.field.characteristic > 0:
        try:
            data = decomposition_matrix(alg)
            ok, detail = True, f"{len(data.rows)} rows, {len(data.cols)} simples"
        except ComputationError as exc:  # a failed validation is a failed check
            ok, detail = False, str(exc)
        out.append(result("specht.decomposition_matrix", REF_DECOMP, pd, ok, detail))
    return out
