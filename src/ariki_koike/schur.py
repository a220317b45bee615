"""Counting and Hom-space verification for cyclotomic q-Schur algebras.

The Schur algebra of a saturated set Gamma of multicompositions is the
endomorphism algebra of the direct sum of the row-permutation modules M^mu
for mu in Gamma.  Rather than building its multiplication table, this module
verifies the facts the Morita transfer rests on: the semistandard dimension
formula, the explicit Hom-space bases computed by exact linear algebra, the
splitting of the index poset, and the compatibility of theta_b with the
tensor decomposition on the M-side.
Hom(M^nu, M^mu) is M^mu & W_nu, for M^mu = m_mu H and W_nu = {x in H : x k =
0 for each right-ideal generator k of rAnn(m_nu)}: the echelons `span` and
`hom_images` of the records `alg.right_ideal(m_mu)` and `alg.right_ideal(m_nu)`,
built once per shape and shared with the Morita battery.  A pair of shapes
takes no engine product: one rank gives its dimension.  The memo also keeps
the shape tables (`alg.shape_table`), enumerated once per run, and the
theta_b identity's verdict per shape.  The functions without an algebra (`saturated_check`,
`schur_dimension`) enumerate once per call, and every shape computes its
dominance key once.
"""

from __future__ import annotations

from .algebra import ArikiKoikeAlgebra
from .fields import Params
from .linalg import Echelon
from .morita import MoritaSuite, TensorAlgebra, theta_map
from .report import CheckResult, result
from .tableaux import MultiComposition, dominates, multicompositions, multipartitions, semistandard, sort_key

REF_SATURATED = "saturation of the index set under dominance"
REF_DIMENSION = "semistandard basis dimension of the Schur algebra"
REF_HOM = "semistandard basis of Hom(M^nu, M^mu)"
REF_SPLIT = "product splitting of the index poset at each level"
REF_COUNT = "level-wise counting consistency of the Morita transfer"
REF_THETA_M = "theta_b carries the split row-permutation module to the M-side image"


def saturated_check(gamma: list[MultiComposition], n: int, r: int) -> bool:
    """True iff every multipartition dominating a member is itself a member."""
    if any(lam.n != n or lam.r != r for lam in gamma):
        raise ValueError("dominance needs equal size and number of components")
    have = set(gamma)
    outside = [mu for mu in multipartitions(n, r) if mu not in have]
    return not any(dominates(mu, lam) for lam in gamma for mu in outside)


def schur_dimension(gamma: list[MultiComposition], params: Params) -> int:
    """Sum over multipartitions in Gamma of the squared semistandard counts."""
    if not saturated_check(gamma, params.n, params.r):
        raise ValueError("the index set is not saturated")
    total, members = 0, set(gamma)
    for lam in (lam for lam in multipartitions(params.n, params.r) if lam in members):
        row = sum(len(semistandard(lam, mu)) for mu in gamma)
        total += row * row
    return total


def hom_space(mu: MultiComposition, nu: MultiComposition, alg: ArikiKoikeAlgebra) -> dict:
    """The space of module maps M^nu -> M^mu, computed two independent ways.

    Direct computation: a map is determined by the image x of the cyclic
    generator m_nu; x must lie in M^mu and kill the right annihilator of
    m_nu, that is, lie in W_nu, so the maps are M^mu & W_nu, of dimension
    |M^mu| + |W_nu| - rank(M^mu + W_nu): one echelon, of the rows of the
    smaller of the two reduced by the larger.  The returned dict carries that
    dimension, the semistandard pair count, and whether every semistandard
    basis map m_ST lies in both M^mu and W_nu.
    """
    field = alg.field
    target = alg.right_ideal(alg.m_lambda(mu)).span
    images = alg.right_ideal(alg.m_lambda(nu)).hom_images
    # the smaller space's rows, reduced by the larger's echelon, span (M^mu + W_nu) / larger
    small, large = sorted((target, images), key=len)
    beyond = Echelon(field, (large.reduce(*form) for form in small.rows.values()))

    expected = 0
    members = []
    for lam in alg.shape_table(multipartitions, alg.n, alg.r):
        s_count = alg.shape_table(semistandard, lam, mu)
        t_count = alg.shape_table(semistandard, lam, nu)
        expected += len(s_count) * len(t_count)
        for S in s_count:
            for T in t_count:
                members.append(alg.m_semi(S, T))

    return {
        "dim": len(small) - len(beyond),
        "expected": expected,
        "members_inside": all(target.contains(*m.form) and images.contains(*m.form) for m in members),
        "members_independent": len(Echelon(field, [m.form for m in members])) == expected,
    }


def gamma_split(gamma: list[MultiComposition], n: int, r: int, s: int, b: int) -> tuple:
    """Split the level-b slice of Gamma and check the product poset law.

    Returns (left set, right set, CheckResult).  The claimed order
    isomorphism (componentwise dominance on pairs versus dominance on the
    concatenation) is verified exhaustively, as is bijectivity of the
    concatenation map from the product onto the slice.
    """
    level = [lam for lam in gamma if sum(lam.component_sizes()[:s]) == b]
    left = sorted({MultiComposition(lam.components[:s]) for lam in level}, key=sort_key)
    right = sorted({MultiComposition(lam.components[s:]) for lam in level}, key=sort_key)
    failures = []
    pairs = [(x, y) for x in left for y in right]
    images, members = {}, set(level)
    for (x, y) in pairs:
        joined = MultiComposition(x.components + y.components)
        images[(x, y)] = joined
        if joined not in members:
            failures.append("concatenation leaves the level slice")
    if len(set(images.values())) != len(pairs) or len(pairs) != len(level):
        failures.append(f"not bijective: {len(pairs)} pairs vs {len(level)} members")
    for (x1, y1) in pairs:
        for (x2, y2) in pairs:
            lhs = dominates(x1, x2) and dominates(y1, y2)
            rhs = dominates(images[(x1, y1)], images[(x2, y2)])
            if lhs != rhs:
                failures.append("order not preserved")
    res = result(
        "schur.gamma_split", REF_SPLIT,
        {"n": n, "r": r, "s": s, "b": b, "gamma_size": len(gamma)},
        not failures, "; ".join(sorted(set(failures))[:3]),
    )
    return left, right, res


def morita_count_check(gamma: list[MultiComposition], alg: ArikiKoikeAlgebra) -> list[CheckResult]:
    """Level-wise counting consistency plus the theta-compatibility law.

    Counts: the multipartition members of Gamma are in bijection with the
    disjoint union over b of products of the split multipartition sets.
    Identity: theta_b(m_lam) agrees with the embedded tensor product
    m_sigma (x) m_tau acting on v_b, for every split member of the slice;
    each shape's verdict is kept in the memo, so it is formed once per run.
    """
    suite = MoritaSuite(alg)
    params, s = alg.params, suite.s
    n, r = params.n, params.r
    if not saturated_check(gamma, n, r):
        raise ValueError("the index set is not saturated")
    out = []
    members = set(gamma)
    gamma_plus = [lam for lam in alg.shape_table(multipartitions, n, r) if lam in members]
    total = 0
    for b in range(n + 1):
        left, right, res = gamma_split(gamma, n, r, s, b)
        out.append(res)
        lplus = sum(1 for x in left if x.is_partition())
        rplus = sum(1 for y in right if y.is_partition())
        total += lplus * rplus
    out.append(result(
        "schur.count_consistency", REF_COUNT, params.describe(),
        total == len(gamma_plus),
        f"sum of split products {total} vs |Gamma^+| = {len(gamma_plus)}",
    ))

    failures = []
    for b in range(n + 1):
        ta = TensorAlgebra(alg, b)
        vb = alg.v_b_elem(b)
        for lam in gamma:
            if sum(lam.component_sizes()[:s]) != b:
                continue
            sigma = MultiComposition(lam.components[:s])
            tau = MultiComposition(lam.components[s:])
            # kept per shape: both of schur_suite's index sets hold the multipartitions
            if not alg.derived(("theta_module_image", lam), lambda: alg.theta_b(b, alg.m_lambda(lam)) == (
                    theta_map(alg, b, ta.left.m_lambda(sigma), ta.right.m_lambda(tau)) * vb)):
                failures.append(lam.serialize())
    out.append(result(
        "schur.theta_module_image", REF_THETA_M, params.describe(),
        not failures, "; ".join(failures[:3]),
    ))
    return out


def schur_suite(alg: ArikiKoikeAlgebra) -> list[CheckResult]:
    """The Schur-side verification battery for Gamma = all multipartitions.

    Every Hom space between multicompositions is solved once; the dimension
    check sums the solved dimensions over the multipartition pairs.
    """
    params = alg.params
    shapes = alg.shape_table(multicompositions, params.n, params.r)
    homs = {(mu, nu): hom_space(mu, nu, alg) for mu in shapes for nu in shapes}
    out = []
    for (mu, nu), data in homs.items():
        ok = (
            data["dim"] == data["expected"]
            and data["members_inside"]
            and data["members_independent"]
        )
        out.append(result(
            "schur.hom_space", REF_HOM,
            dict(params.describe(), mu=mu.serialize(), nu=nu.serialize()),
            ok,
            f"solved {data['dim']}, semistandard {data['expected']}",
        ))
    gamma = list(alg.shape_table(multipartitions, params.n, params.r))
    rest = gamma[1:]  # without its most dominant member, listed first, Gamma is not saturated
    out.append(result(
        "schur.saturated", REF_SATURATED, params.describe(),
        saturated_check(gamma, params.n, params.r) and not (rest and saturated_check(rest, params.n, params.r)),
        "Gamma = all multipartitions",
    ))
    dim = schur_dimension(gamma, params)
    cross = sum(homs[(mu, nu)]["dim"] for mu in gamma for nu in gamma)
    out.append(result(
        "schur.dimension", REF_DIMENSION, params.describe(),
        dim == cross, f"semistandard dimension {dim}, summed hom dimensions {cross}",
    ))
    if params.s is not None and params.s < params.r:
        out += morita_count_check(gamma, alg)
        gamma_all = list(shapes)
        out += morita_count_check(gamma_all, alg)
    return out
