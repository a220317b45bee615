from collections import Counter
from math import comb as binomial, factorial

import pytest

from ariki_koike.algebra import ArikiKoikeAlgebra
from ariki_koike.fields import GateError, Params, PrimeField, Rationals
from ariki_koike.morita import MoritaSuite, TensorAlgebra, theta_map
from ariki_koike.report import all_ok
from ariki_koike.tableaux import MultiPartition, filtered_tableaux, lambda_sets, std_filtered, std_tableaux


def qparams(n=2, r=2, q=2, Q=(1, 5), s=1, field=None):
    return Params(field=field or Rationals(), q=q, Q=Q, n=n, r=r, s=s)


@pytest.fixture(scope="module")
def suite2():
    return MoritaSuite(ArikiKoikeAlgebra(qparams(n=2)))


@pytest.fixture(scope="module")
def suite3():
    return MoritaSuite(ArikiKoikeAlgebra(qparams(n=3)))


def test_gate_refuses_connected_parameters():
    with pytest.raises(GateError):
        MoritaSuite(ArikiKoikeAlgebra(qparams(Q=(1, 2))))  # Q_2 = q Q_1
    with pytest.raises(GateError):
        MoritaSuite(ArikiKoikeAlgebra(qparams(n=2, r=2, q=4, Q=(1, 4), field=PrimeField(5))))


def test_gate_rejects_s_equal_r():
    with pytest.raises(GateError):
        MoritaSuite(ArikiKoikeAlgebra(Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=2)))


def test_intertwining_spot_identities(suite2, suite3):
    alg2 = suite2.alg
    v1 = alg2.v_b_elem(1)
    assert alg2.gen_L(1) * v1 == v1 * alg2.gen_L(2)
    alg3 = suite3.alg
    w1 = alg3.v_b_elem(1)
    assert alg3.gen_T(1) * w1 == w1 * alg3.gen_T(2)
    assert all_ok(suite3.verify_intertwining(1))


def test_central_at_degenerate_ends(suite2):
    for b in (0, 2):
        assert all_ok(suite2.verify_intertwining(b))


def test_annihilation_and_stagger(suite2, suite3):
    for b in range(3):
        assert all_ok(suite2.verify_annihilation(b))
    # the staggered product at b=0 < c=1 vanishes
    alg = suite2.alg
    from ariki_koike.perms import w_ab

    head = alg.u_minus(2) * alg.t_elem(w_ab(2, 0, 2))
    assert (head * alg.u_b_plus(1)).is_zero()
    assert all_ok(suite3.verify_annihilation(2))


def test_vbasis_ranks(suite2):
    assert len(suite2.level(1).v_basis) == 2
    ranks = [len(suite2.level(b).v_basis) for b in range(3)]
    assert ranks == [2, 2, 2]
    assert sum(binomial(2, b) * rk for b, rk in enumerate(ranks)) == 8


def test_expected_rank_formula(suite3):
    for b in range(4):
        level, _ = lambda_sets(3, 2, 1, b)
        got = sum(
            len(std_filtered(lam, b, 1, two_sided=True)) * len(std_tableaux(lam))
            for lam in level
        )
        assert got == suite3.expected_rank(b)


def test_kernel_vanishing_exhaustive(suite2):
    for b in range(3):
        assert all_ok(suite2.verify_kernel_vanishing(b))


def test_leading_terms(suite2):
    for b in range(3):
        assert all_ok(suite2.verify_leading_terms(b))


def test_bases_and_complement(suite2):
    for b in range(3):
        assert all_ok(suite2.verify_bases(b))


def test_filtration_single_layer(suite2):
    res = suite2.verify_filtration(1)
    assert all_ok(res)
    # one shape, one filtered tableau: a single layer of rank 2
    assert "1 layers" in res[0].detail


def test_hom_vanishing(suite2):
    for b in range(3):
        for c in range(3):
            if b != c:
                assert all_ok(suite2.verify_hom_vanishing(b, c))


def test_end_basis_dimension(suite2):
    res = suite2.verify_end_basis(1)
    assert all_ok(res)
    ta = TensorAlgebra(suite2.alg, 1)
    assert ta.dim == 1  # s^b b! (r-s)^{n-b} (n-b)! = 1 at n=2, b=1
    level, _ = lambda_sets(2, 2, 1, 1)
    assert sum(len(std_filtered(l, 1, 1, True)) ** 2 for l in level) == 1


def test_end_dimension_formula(suite3):
    for b in range(4):
        ta = TensorAlgebra(suite3.alg, b)
        level, _ = lambda_sets(3, 2, 1, b)
        pair_count = sum(len(std_filtered(l, b, 1, True)) ** 2 for l in level)
        expected = 1 ** b * factorial(b) * 1 ** (3 - b) * factorial(3 - b)
        assert ta.dim == pair_count == expected


def test_theta_map_spot_images(suite3):
    ta = TensorAlgebra(suite3.alg, 1)
    alg = suite3.alg
    # 1 (x) T_1 embeds as T_1, T_0-parts act as the commuting generators
    img = theta_map(alg, 1, ta.left.one(), ta.right.gen_T(1))
    assert img == alg.gen_T(1)
    vb = alg.v_b_elem(1)
    img0 = theta_map(alg, 1, ta.left.gen_T(0), ta.right.one())
    assert img0 * vb == alg.gen_L(3) * vb


def test_theta_map_exact_for_two_parameters():
    # with two parameters in each group the T_0 images are on the nose
    p = Params(field=Rationals(), q=2, Q=(1, 5, 7, 11), n=2, r=4, s=2)
    suite = MoritaSuite(ArikiKoikeAlgebra(p))
    ta = TensorAlgebra(suite.alg, 1)
    img = theta_map(suite.alg, 1, ta.left.gen_T(0), ta.right.one())
    assert img == suite.alg.gen_L(2)
    img2 = theta_map(suite.alg, 1, ta.left.one(), ta.right.gen_T(0))
    assert img2 == suite.alg.gen_L(1)
    assert all_ok(suite.verify_theta_map(1))


def test_bimodule_checks(suite2):
    for b in range(3):
        assert all_ok(suite2.verify_bimodule(b))


def test_u_compatibility_is_formed_once_per_size_vector(monkeypatch):
    # u_plus reads only the component sizes, so the law is formed once per
    # size vector, and a size vector that fails lists each of its shapes
    alg = ArikiKoikeAlgebra(qparams(n=3))
    suite, b = MoritaSuite(alg), 1
    shapes = suite.level(b).shapes
    sizes = Counter(lam.component_sizes() for lam in shapes)
    repeated = next(k for k, count in sizes.items() if count > 1)
    assert all_ok(suite.verify_bimodule(b))  # the level's cells are formed, and kept
    u_plus, calls = ArikiKoikeAlgebra.u_plus, []

    def counted(self, lam):
        if self is alg:
            calls.append(lam.component_sizes())
        return u_plus(self, lam)
    monkeypatch.setattr(ArikiKoikeAlgebra, "u_plus", counted)
    row = next(r for r in suite.verify_bimodule(b) if r.check == "morita.u_compatibility")
    assert row.ok and sorted(calls) == sorted(sizes)

    def wrong(self, lam):
        out = u_plus(self, lam)
        return out.scale(2) if self is alg and lam.component_sizes() == repeated else out
    monkeypatch.setattr(ArikiKoikeAlgebra, "u_plus", wrong)
    row = next(r for r in suite.verify_bimodule(b) if r.check == "morita.u_compatibility")
    assert not row.ok
    assert row.detail == "; ".join([lam.serialize() for lam in shapes if lam.component_sizes() == repeated][:3])

def test_faithfulness_and_freeness(suite2):
    for b in range(3):
        assert all_ok(suite2.verify_faithfulness(b))
        assert all_ok(suite2.verify_free_decomposition(b))


def test_free_decomposition_counts(suite2):
    res = suite2.verify_free_decomposition(1)
    assert "2 summands of rank 1" in res[0].detail


def test_regular_decomposition(suite2):
    res = suite2.verify_regular_decomposition()
    assert all_ok(res)
    assert "total rank 8 of 8" in res[0].detail


def test_splitting_complement_is_right_inverse(suite2):
    alg = suite2.alg
    for b in range(3):
        comp = suite2.splitting_complement(b)
        for elem, v in zip(comp, suite2.level(b).v_basis):
            assert alg.theta_b(b, elem).form == v


def test_full_suite_n2(suite2):
    assert all_ok(suite2.run_all())


def test_full_suite_n2_prime_field():
    # the whole battery is field-agnostic; GF(5) with q = -1 exercises the
    # non-semisimple regime (the type-A factors degenerate) end to end
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(q=4, Q=(1, 2), field=PrimeField(5))))
    assert all_ok(suite.run_all())


@pytest.mark.parametrize("s", [1, 2])
def test_full_suite_three_parameters(s):
    # three cyclotomic parameters, both split points; s = 2 runs the battery
    # with a genuinely two-parameter left factor
    suite = MoritaSuite(ArikiKoikeAlgebra(Params(field=Rationals(), q=2, Q=(1, 5, 7), n=2, r=3, s=s)))
    full = suite.run_all()
    assert all_ok(full)
    # run_all(b) is the rank count, then exactly the rows the full battery has at level b
    counting, = [row for row in full if row.check == "morita.rank_counting"]
    for b in range(3):
        level = [row for row in full if row.params.get("b") == b and "c" not in row.params]
        assert suite.run_all(b) == [counting, *level]


def test_factorization_dimension_identity(suite2):
    res = suite2.verify_factorization()
    assert all_ok(res)
    # |Std(((1),(1)))| = C(2,1) * |Std((1))| * |Std((1))|
    lam = MultiPartition([[1], [1]])
    assert len(std_tableaux(lam)) == 2 == binomial(2, 1) * 1 * 1


def test_factorization_gf5_split():
    p = qparams(n=2, q=4, Q=(1, 2), field=PrimeField(5))
    res = MoritaSuite(ArikiKoikeAlgebra(p)).verify_factorization()
    assert all_ok(res)
    assert any(r.check == "morita.decomposition_factorization" for r in res)


def test_tensor_algebra_trivial_factor():
    alg = ArikiKoikeAlgebra(qparams(n=2))
    ta = TensorAlgebra(alg, 0)
    assert ta.left.dim == 1 and ta.dim == ta.right.dim == len(ta.basis())
    # theta(1 (x) 1) = 1, with the trivial factor on either side
    for b in range(3):
        ta = TensorAlgebra(alg, b)
        assert theta_map(alg, b, ta.left.one(), ta.right.one()) == alg.one()


def test_ungated_run_fails_honestly_where_the_theory_does():
    # with equal parameters (f_s = 0 through the a = 0 factor) the
    # unconditional identities still hold, while the leading coefficient of
    # theta_b on the split level genuinely vanishes; the ungated suite must
    # report exactly that, with no spurious failures elsewhere
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(Q=(1, 1))), gate=False)
    assert suite.fs == 0
    for b in range(3):
        assert all_ok(suite.verify_intertwining(b))
        assert all_ok(suite.verify_annihilation(b))
    res = suite.verify_leading_terms(1)
    assert not all_ok(res)
    assert "invertible" in res[0].detail
    # the v-basis of a level, whose independence needs the gate, is refused
    with pytest.raises(GateError):
        suite.level(1).v_basis


def test_failure_reports_carry_element_dumps():
    # a deliberately wrong identity must dump the counterexample element
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams()))
    alg = suite.alg
    diff = alg.gen_L(1) * alg.v_b_elem(1) - alg.v_b_elem(1) * alg.gen_L(1)
    assert not diff.is_zero()  # L_1 v_1 = v_1 L_2, not v_1 L_1
    from ariki_koike.morita import _dump

    assert "L1" in _dump(diff) or "T[" in _dump(diff)


def test_filtration_count_fails_when_a_filtered_tableau_is_dropped(monkeypatch):
    """rank V^b (from v_b alone) against sum |filtered(lam)| * dim S^lam (hook lengths)."""
    from ariki_koike import morita
    from ariki_koike.tableaux import sort_key

    # the least dominant shape of level 0 has one two-sided filtered tableau;
    # without it the remaining layers still span a submodule with the right
    # subquotients, so only the independent count can notice
    low = max(lambda_sets(2, 2, 1, 0)[0], key=sort_key)
    assert len(std_filtered(low, 0, 1, two_sided=True)) == 1

    dropped = std_filtered(low, 0, 1, two_sided=True)[0]

    def dropping(tabs, b, s, two_sided):
        out = filtered_tableaux(tabs, b, s, two_sided)
        return [t for t in out if t != dropped] if two_sided and b == 0 else out

    monkeypatch.setattr(morita, "filtered_tableaux", dropping)
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(n=2)))
    (row,) = suite.verify_filtration(0)
    assert row.status == "fail"
    assert row.detail == "layer sizes add up to 1, not to rank V^0 = 2"
    assert all_ok(suite.verify_filtration(1))


def test_levels_enumerate_each_shape_once(monkeypatch):
    # a level lists its shapes and its one- and two-sided filtered tableaux
    # from the algebra's shape tables: across all levels, multipartitions(n, r)
    # and each shape's standard tableaux are enumerated once
    from collections import Counter
    from functools import wraps

    from ariki_koike import morita, tableaux

    calls = Counter()

    def counting(enum):
        @wraps(enum)
        def counted(*args):
            calls[enum.__name__, args] += 1
            return enum(*args)
        return counted
    for module in (morita, tableaux):
        for name in ("multipartitions", "std_tableaux"):
            monkeypatch.setattr(module, name, counting(getattr(tableaux, name)))
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(n=3)))
    levels = [suite.level(b) for b in range(4)]
    assert calls and set(calls.values()) == {1}
    monkeypatch.undo()
    assert len(calls) == 1 + len(tableaux.multipartitions(3, 2))
    for b, lv in enumerate(levels):
        assert (lv.shapes, lv.above) == lambda_sets(3, 2, 1, b)
        assert lv.filtered == {lam: std_filtered(lam, b, 1, two_sided=True) for lam in lv.shapes}
        assert lv.one_sided == [(lam, u, v) for lam in lv.shapes + lv.above
                                for u in std_filtered(lam, b, 1, two_sided=False) for v in std_tableaux(lam)]


def test_filtration_fails_without_raising_when_v_action_leaves_v_b(monkeypatch):
    from ariki_koike.fields import ComputationError
    from ariki_koike.morita import Level

    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(n=2)))

    def unstable(level):
        raise ComputationError("V^b is not stable under a generator")

    monkeypatch.setattr(Level, "action", property(unstable))
    (row,) = suite.verify_filtration(1)
    assert row.status == "fail" and row.detail == "product left V^b"


def test_end_basis_ill_defined_against_a_smaller_row_space(monkeypatch):
    from ariki_koike.linalg import Echelon, kernel_basis, transpose

    from ariki_koike.algebra import Element

    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(n=2)))
    assert all_ok(suite.verify_end_basis(1))
    # the kernel of one row of left multiplication by v_b is larger than rAnn(v_b):
    # one of its vectors that v_b does not kill joins the true generators, in
    # the record the first call has already built
    ideal = suite.alg.right_ideal(suite.alg.v_b_elem(1))
    first = next(row for row in transpose(suite.field, ideal.products, suite.alg.dim) if row[1])
    kernel = kernel_basis(Echelon(suite.field, [first]), suite.alg.dim)
    assert len(kernel) > len(ideal.annihilator)
    vb = suite.alg.v_b_elem(1)
    outside = next(k for k in kernel if not (vb * Element(suite.alg, *k)).is_zero())
    monkeypatch.setattr(ideal, "generators", ideal.generators + [outside])
    (row,) = suite.verify_end_basis(1)
    assert row.status == "fail" and "ill-defined" in row.detail


def test_end_basis_fails_when_a_pair_repeats(monkeypatch):
    # a repeated pair gives the same map twice: the flattened maps lose rank
    suite = MoritaSuite(ArikiKoikeAlgebra(qparams(n=2)))
    level = suite.level(1)
    monkeypatch.setattr(level, "pairs", level.pairs + level.pairs[:1])
    (row,) = suite.verify_end_basis(1)
    assert row.status == "fail"
    assert row.detail == "count 2 != tensor algebra dimension 1; endomorphisms dependent"


@pytest.mark.parametrize("params", [
    qparams(n=2, r=3, Q=(1, 5, 7)),
    qparams(n=3, r=2, q=4, Q=(1, 2), field=PrimeField(5)),
], ids=["n2-r3-Q", "n3-r2-GF5"])
def test_end_basis_kernel_verdict_matches_the_row_space_reduction(params):
    # v_b h -> x h is well defined iff x kills rAnn(v_b), the verdict of the
    # kernel products, iff every row of left multiplication by x lies in the
    # row space of left multiplication by v_b, the dense reduction built here
    from ariki_koike.algebra import Element
    from ariki_koike.linalg import dense, in_row_space

    alg = ArikiKoikeAlgebra(params)
    suite = MoritaSuite(alg)
    monos = [alg.element({m: alg.field.one}) for m in alg.basis()]

    def left_mult_rows(x):
        return [list(col) for col in zip(*(dense(alg.field, (x * m).form, alg.dim) for m in monos))]

    pairs = 0
    for b in range(alg.n + 1):
        kernel = [Element(alg, *k) for k in alg.right_ideal(alg.v_b_elem(b)).annihilator]
        assert kernel
        vb_rows = left_mult_rows(alg.v_b_elem(b))
        vsts = [alg.theta_b(b, alg.m_st(st, tt)) for (_, st, tt) in suite.level(b).pairs]
        # every split pair is well defined; v_st + 1 sends each k in rAnn(v_b) to k
        for x, defined in [(vst, True) for vst in vsts] + [(vsts[0] + alg.one(), False)]:
            by_kernel = all((x * k).is_zero() for k in kernel)
            by_rows = all(in_row_space(vb_rows, left_mult_rows(x), alg.field))
            assert by_kernel == by_rows == defined
        pairs += len(vsts)
    assert pairs == sum(TensorAlgebra(alg, b).dim for b in range(alg.n + 1))
