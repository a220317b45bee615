from collections import Counter
from fractions import Fraction

import pytest

from ariki_koike.algebra import ArikiKoikeAlgebra
from ariki_koike.fields import Params, PrimeField, Rationals
from ariki_koike.linalg import Echelon, combination, kernel_basis
from ariki_koike.report import all_ok
from ariki_koike.schur import (
    gamma_split,
    hom_space,
    morita_count_check,
    saturated_check,
    schur_dimension,
    schur_suite,
)
from ariki_koike.tableaux import (
    MultiComposition,
    MultiPartition,
    dominates,
    multicompositions,
    multipartitions,
    omega,
    semistandard,
    std_tableaux,
)


def qparams(n=2, r=2, q=2, Q=(1, 5), s=1):
    return Params(field=Rationals(), q=q, Q=Q, n=n, r=r, s=s)


def test_saturated_examples():
    lams = multipartitions(2, 2)
    assert saturated_check(lams, 2, 2)
    assert saturated_check(multicompositions(2, 2), 2, 2)
    # the least multipartition alone misses its dominators
    bottom = [omega(2, 2)]
    assert not saturated_check(bottom, 2, 2)
    # without its most dominant member, listed first, Gamma is not saturated
    for n, r in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        lams = multipartitions(n, r)
        assert all(dominates(lams[0], mu) for mu in lams)
        assert saturated_check(lams, n, r) and not saturated_check(lams[1:], n, r)


def test_schur_dimension_frozen_values():
    assert schur_dimension(multipartitions(1, 1), qparams(n=1, r=1, Q=(1,), s=None)) == 1
    # the single-component case at n = 2 (computed by tableau enumeration)
    assert schur_dimension(multipartitions(2, 1), qparams(n=2, r=1, Q=(1,), s=None)) == 5
    assert schur_dimension(multipartitions(2, 2), qparams()) == 55


def test_schur_dimension_requires_saturation():
    with pytest.raises(ValueError):
        schur_dimension([omega(2, 2)], qparams())


@pytest.mark.parametrize("stray", [
    MultiComposition([(2,), (1,)]),   # size 3, not 2
    MultiComposition([(2,), (), ()]),  # three components, not 2
], ids=["wrong-size", "wrong-components"])
def test_saturation_and_dimension_reject_a_member_of_the_wrong_type(stray):
    # Gamma holds every multipartition of (2, 2), so no member is outside;
    # a stray member must still be refused, not pass or be counted
    gamma = list(multipartitions(2, 2)) + [stray]
    with pytest.raises(ValueError):
        saturated_check(gamma, 2, 2)
    with pytest.raises(ValueError):
        schur_dimension(gamma, qparams())


def test_hom_space_all_pairs_small():
    for (n, r) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        params = Params(field=Rationals(), q=2, Q=(1, 5)[:r], n=n, r=r)
        alg = ArikiKoikeAlgebra(params)
        for mu in multicompositions(n, r):
            for nu in multicompositions(n, r):
                data = hom_space(mu, nu, alg)
                assert data["dim"] == data["expected"]
                assert data["members_inside"] and data["members_independent"]


def test_hom_space_column_type_is_the_regular_count():
    params = qparams()
    alg = ArikiKoikeAlgebra(params)
    w = omega(2, 2)
    data = hom_space(w, w, alg)
    assert data["dim"] == 8  # sum over shapes of |Std|^2 = the full rank
    assert data["dim"] == sum(len(std_tableaux(l)) ** 2 for l in multipartitions(2, 2))


def _per_pair_solve(mu, nu, alg):
    """Hom(M^nu, M^mu) as one condition system of its own: x = sum z_i m_i over
    a row basis m_i of M^mu, with x k = 0 for each right-ideal generator k of
    rAnn(m_nu).  Returns the kernel dimension and the span of the solutions."""
    field = alg.field
    target = Echelon(field, alg.left_mult_matrix(alg.m_lambda(mu)))
    rows = [target.rows[pc] for pc in sorted(target.rows)]
    gens = alg.right_ideal(alg.m_lambda(nu)).generators
    sols = kernel_basis(Echelon(field, alg.condition_rows(rows, gens)), len(rows))
    return len(sols), Echelon(field, (combination(field, v, rows) for v in sols))


@pytest.mark.parametrize("params", [
    Params(field=Rationals(), q=Fraction(3, 2), Q=(1, 5), n=3, r=2),
    Params(field=PrimeField(5), q=2, Q=(1, 4), n=2, r=2),
], ids=["Q-n3r2", "GF5-n2r2"])
def test_hom_space_matches_the_per_pair_solve(params):
    # the intersection M^mu & W_nu of two per-shape echelons against the
    # conditions solved over M^mu for each pair
    alg = ArikiKoikeAlgebra(params)
    shapes = multicompositions(params.n, params.r)
    for mu in shapes:
        for nu in shapes:
            data = hom_space(mu, nu, alg)
            dim, maps = _per_pair_solve(mu, nu, alg)
            members = [alg.m_semi(S, T) for lam in multipartitions(params.n, params.r)
                       for S in semistandard(lam, mu) for T in semistandard(lam, nu)]
            assert data["dim"] == dim
            assert data["members_inside"] == all(maps.contains(*m.form) for m in members)


def test_schur_suite_builds_each_shape_memo_once(monkeypatch):
    # M^mu, W_nu and the theta_b identity belong to one shape, not to a pair
    # or to one of the two index sets morita_count_check is called on
    alg = ArikiKoikeAlgebra(qparams(n=3))
    builds, conditions = Counter(), []
    derived, condition_rows = ArikiKoikeAlgebra.derived, ArikiKoikeAlgebra.condition_rows

    def counting(self, key, build):
        def counted():
            builds[key] += 1
            return build()
        return derived(self, key, counted) if self is alg else derived(self, key, build)

    def counted_rows(self, forms, kernel):
        conditions.append(len(forms))
        return condition_rows(self, forms, kernel)

    monkeypatch.setattr(ArikiKoikeAlgebra, "derived", counting)
    monkeypatch.setattr(ArikiKoikeAlgebra, "condition_rows", counted_rows)
    assert all_ok(schur_suite(alg))
    shapes = set(multicompositions(3, 2))
    assert len(shapes) > len(multipartitions(3, 2))
    assert {key[1] for key in builds if key[0] == "theta_module_image"} == shapes
    # one right-ideal record per m_mu, built once, holding both of the shape's echelons
    for mu in shapes:
        m = alg.m_lambda(mu)
        assert builds["right_ideal", m.den, frozenset(m.ints.items())] == 1, mu
        assert {"span", "hom_images"} <= vars(alg.right_ideal(m)).keys(), mu
    # one condition system per W_nu, over the whole basis; none per pair
    assert conditions == [alg.dim] * len(shapes)


def test_warm_hom_space_takes_no_product_and_two_echelons(monkeypatch):
    alg = ArikiKoikeAlgebra(qparams(n=3))
    shapes = multicompositions(3, 2)
    mu, nu = shapes[0], shapes[-1]
    cold = hom_space(mu, nu, alg)
    products, echelons = [], []
    product_into, init = ArikiKoikeAlgebra._product_into, Echelon.__init__

    def counted_product(self, *args):
        products.append(args)
        return product_into(self, *args)

    def counted_init(self, *args):
        echelons.append(args)
        init(self, *args)

    monkeypatch.setattr(ArikiKoikeAlgebra, "_product_into", counted_product)
    monkeypatch.setattr(Echelon, "__init__", counted_init)
    assert hom_space(mu, nu, alg) == cold
    assert cold["dim"] == cold["expected"] > 0
    assert products == [] and 0 < len(echelons) <= 2

def test_gamma_split_levels():
    gam = multipartitions(3, 2)
    for b in range(4):
        left, right, res = gamma_split(gam, 3, 2, 1, b)
        assert res.ok
        level = [l for l in gam if sum(l.component_sizes()[:1]) == b]
        assert len(left) * len(right) == len(level)
    # empty slice splits into empty factors
    tiny = [MultiPartition([[2], []])]
    left, right, res = gamma_split(tiny, 2, 2, 1, 1)
    assert left == [] and right == [] and res.ok


def test_gamma_split_order_isomorphism_exhaustive():
    for (n, r, s) in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        for gam in (multipartitions(n, r), multicompositions(n, r)):
            for b in range(n + 1):
                _, _, res = gamma_split(gam, n, r, s, b)
                assert res.ok


def test_morita_count_check_both_sides_five():
    res = morita_count_check(multipartitions(2, 2), ArikiKoikeAlgebra(qparams()))
    assert all_ok(res)
    counts = [r for r in res if r.check == "schur.count_consistency"]
    assert len(counts) == 1 and "5" in counts[0].detail


def test_morita_count_degenerate_end():
    # at b = n the right split factor contains only the empty shape
    gam = multipartitions(2, 2)
    left, right, res = gamma_split(gam, 2, 2, 1, 2)
    assert res.ok
    assert right == [MultiComposition([[]])]


def test_theta_module_image_identity():
    res = morita_count_check(multipartitions(2, 2), ArikiKoikeAlgebra(qparams()))
    images = [r for r in res if r.check == "schur.theta_module_image"]
    assert len(images) == 1 and images[0].ok


def test_gamma_split_detects_non_product_slice():
    # A saturated set whose level slice is NOT a product: it contains
    # ((0,1),(1)) and ((1),(0,1)) but not ((0,1),(0,1)).  The product law
    # genuinely fails here and the check must say so rather than assume it.
    gam = multipartitions(2, 2) + [
        MultiComposition([[0, 1], [1]]),
        MultiComposition([[1], [0, 1]]),
    ]
    assert saturated_check(gam, 2, 2)
    _, _, res = gamma_split(gam, 2, 2, 1, 1)
    assert not res.ok
    assert "not bijective" in res.detail
