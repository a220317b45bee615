import functools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from ariki_koike.algebra import ArikiKoikeAlgebra, Element, RightIdeal, random_element
from ariki_koike.fields import ComputationError, FpElement, Params, PrimeField, Rationals, SizeGuardError
from ariki_koike.linalg import Echelon, dense, inverse, kernel_basis, nullspace, rank, solve, sparse, transpose
from ariki_koike.perms import all_permutations, identity, s_interval
from ariki_koike.tableaux import (
    MultiPartition,
    d_of,
    multicompositions,
    multipartitions,
    omega_b,
    std_tableaux,
    strictly_dominates,
    t_row,
    tableau_dominates,
    tableau_residue,
)


def make(n=2, r=2, q=2, Q=(1, 5), s=1, field=None):
    field = field or Rationals()
    return ArikiKoikeAlgebra(Params(field=field, q=q, Q=Q, n=n, r=r, s=s))


def check_defining_relations(alg):
    n, q, one = alg.n, alg.q, alg.one()
    T = [alg.gen_T(i) for i in range(n)]
    z = one
    for Qt in alg.Q:
        z = z * (T[0] - alg.from_scalar(Qt))
    assert z.is_zero()
    if n >= 2:
        assert T[0] * T[1] * T[0] * T[1] == T[1] * T[0] * T[1] * T[0]
    for i in range(1, n):
        assert T[i] * T[i] == T[i].scale(q - alg.field.one) + one.scale(q)
    for i in range(1, n - 1):
        assert T[i + 1] * T[i] * T[i + 1] == T[i] * T[i + 1] * T[i]
    for i in range(n):
        for j in range(i + 2, n):
            assert T[i] * T[j] == T[j] * T[i]


def check_commutation_relations(alg):
    n = alg.n
    T = [alg.gen_T(i) for i in range(n)]
    L = [None] + [alg.gen_L(k) for k in range(1, n + 1)]
    for i in range(1, n):
        for j in range(1, n + 1):
            assert L[i] * L[j] == L[j] * L[i]
            if j not in (i, i + 1):
                assert T[i] * L[j] == L[j] * T[i]
        assert T[i] * (L[i] * L[i + 1]) == (L[i] * L[i + 1]) * T[i]
        assert T[i] * (L[i] + L[i + 1]) == (L[i] + L[i + 1]) * T[i]
        for a in (alg.field.zero, alg.field.one, alg.Q[0]):
            for j in range(1, n + 1):
                if j == i:
                    continue
                prod = alg.one()
                for k in range(1, j + 1):
                    prod = prod * (L[k] - alg.from_scalar(a))
                assert T[i] * prod == prod * T[i]


def closure_holds(alg):
    basis = set(alg.basis())
    if len(basis) != alg.dim:
        return False
    for mono in alg.basis():
        for g in range(alg.n):
            if not all(k in range(alg.dim) for k in alg._mono_times_gen(mono, g)):
                return False
    return True


@pytest.mark.parametrize("n,r", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_rank_and_closure(n, r):
    alg = make(n=n, r=r, Q=(1, 5, 7)[:r], s=1 if r > 1 else None)
    assert alg.dim == r ** n * [1, 1, 2, 6][n]
    assert closure_holds(alg)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_defining_and_commutation_relations(n, r):
    alg = make(n=n, r=r, Q=(1, 5, 7)[:r], s=1 if r > 1 else None)
    check_defining_relations(alg)
    check_commutation_relations(alg)


def test_generators_over_prime_field():
    alg = make(n=2, r=2, q=4, Q=(1, 2), field=PrimeField(5))
    check_defining_relations(alg)
    check_commutation_relations(alg)
    assert closure_holds(alg)


def test_gen_T0_is_L1():
    alg = make()
    assert alg.gen_T(0) == alg.gen_L(1)


def test_L_as_generator_word():
    # L_k = q^{1-k} T_{k,1} T_0 T_{1,k}
    alg = make(n=3)
    for k in (1, 2, 3):
        word = alg.t_elem(s_interval(k, 1, 3)) * alg.gen_T(0) * alg.t_elem(s_interval(1, k, 3))
        assert alg.gen_L(k) == word.scale(Fraction(2) ** (1 - k))


def test_multiply_unit():
    alg = make()
    rng = random.Random(1)
    for _ in range(10):
        h = random_element(alg, rng)
        assert alg.one() * h == h
        assert h * alg.one() == h


def test_L1_squared_reduction():
    alg = make()
    L1 = alg.gen_L(1)
    assert L1 * L1 == L1.scale(6) - alg.one().scale(5)


def test_T_times_L_rewrite():
    # T_i L_i = L_{i+1} T_i - (q-1) L_{i+1}
    alg = make(n=3)
    for i in (1, 2):
        lhs = alg.gen_T(i) * alg.gen_L(i)
        rhs = alg.gen_L(i + 1) * alg.gen_T(i) - alg.gen_L(i + 1).scale(alg.q - alg.field.one)
        assert lhs == rhs


def test_L_definition_recursion():
    alg = make(n=3)
    for i in (1, 2):
        lhs = alg.gen_L(i + 1)
        rhs = (alg.gen_T(i) * alg.gen_L(i) * alg.gen_T(i)).scale(Fraction(1, 2))
        assert lhs == rhs


def test_star_fixes_generators():
    alg = make(n=3)
    for k in (1, 2, 3):
        assert alg.gen_L(k).star() == alg.gen_L(k)
    for w in all_permutations(3):
        assert alg.t_elem(w).star() == alg.t_elem(w.inverse())


def test_star_antihomomorphism_random():
    alg = make(n=3)
    rng = random.Random(5)
    for _ in range(25):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_associativity_random():
    alg2 = make(n=2)
    rng = random.Random(12345)
    for _ in range(200):
        a, b, c = (random_element(alg2, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    alg3 = make(n=3)
    for _ in range(50):
        a, b, c = (random_element(alg3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


FOLD_CASES = [
    pytest.param(2, 3, Rationals(), 2, (1, 5, 7), id="2-3-field0-Q0"),
    pytest.param(3, 2, PrimeField(5), 2, (1, 3), id="3-2-field1-Q1"),
    # denominators 2, 3 and 6 meet in one product, so the fold rescales its
    # running denominator to their lcm
    pytest.param(2, 3, Rationals(), Fraction(2, 3), (Fraction(1, 3), Fraction(5, 2), -4),
                 id="2-3-Q-fractional"),
    # q = 1: q - 1 = 0, so every local move and Hecke step loses its second term
    pytest.param(2, 3, Rationals(), 1, (1, 5, 7), id="2-3-Q-q1"),
    pytest.param(3, 2, PrimeField(5), 1, (1, 3), id="3-2-GF5-q1"),
]


@pytest.mark.parametrize("n,r,field,q,Q", FOLD_CASES)
def test_two_step_fold_matches_generator_fold(n, r, field, q, Q):
    # m1 * m2 by the engine against m1 * T_{g_1} * ... * T_{g_k} * q^{-e}, with
    # q^{-e} T_{g_1} ... T_{g_k} = m2 the generator word of m2 (T_0 = L_1)
    alg = make(n=n, r=r, q=q, Q=Q, field=field)
    gens = [alg.gen_T(g) for g in range(n)]
    for m1 in alg.basis():
        left = alg.element({m1: field.one})
        for m2 in alg.basis():
            word, e = alg._gen_word(m2)
            expected = left
            for g in word:
                expected = expected * gens[g]
            assert left * alg.element({m2: field.one}) == expected.scale(alg.params.q_power(-e))


@pytest.mark.parametrize("field,q", [(Rationals(), Fraction(2, 3)), (PrimeField(5), 2), (Rationals(), 1)],
                         ids=["Q", "GF5", "q1"])
def test_hecke_products_match_the_word_by_word_rule(field, q):
    # L^d T_x T_w for every x, w in S_4 against T_x folded by hand along a
    # reduced word of w, one simple reflection at a time:
    # T_y T_s = T_{ys} if l(ys) > l(y), else q T_{ys} + (q-1) T_y
    alg = make(n=4, r=2, q=q, Q=(1, 3), field=field)
    q = field(q)
    for x in all_permutations(4):
        for w in all_permutations(4):
            expected = {x: field.one}
            for i in w.reduced_word():
                step: dict = {}
                for y, c in expected.items():
                    ys = y.times_s(i)
                    if ys.length() > y.length():
                        step[ys] = step.get(ys, field.zero) + c
                    else:
                        step[ys] = step.get(ys, field.zero) + q * c
                        step[y] = step.get(y, field.zero) + (q - field.one) * c
                expected = {y: c for y, c in step.items() if c}
            for d in ((0,) * 4, (1,) * 4):
                got = alg.element({(d, x): field.one}) * alg.t_elem(w)
                assert got.terms == {(d, y): c for y, c in expected.items()}


@pytest.mark.parametrize("n,r,field,q,Q", FOLD_CASES)
def test_products_are_bilinear_across_merged_heads(n, r, field, q, Q):
    # the engine folds the right factor's terms of one permutation w through
    # T_w together; a product must still be the sum of its one-term products
    alg = make(n=n, r=r, q=q, Q=Q, field=field)
    rng = random.Random(f"heads:{n}:{r}:{field}:{q}")
    perms = rng.sample(range(alg._nperm), 2)
    for _ in range(6):
        a = random_element(alg, rng, nterms=5)
        # b: two permutations, three L-parts each, the first of them d = 0
        ds = [0] + rng.sample(range(1, alg._nexp), 2)
        b = sum((alg.element({alg.basis()[d * alg._nperm + w]: field(rng.randint(1, 4))}) for w in perms for d in ds),
                alg.zero())
        assert len(b.ints) == 6
        expected = sum(((a * alg.element({mono: field.one})).scale(c) for mono, c in b.terms.items()), alg.zero())
        assert a * b == expected
        zero = a * (b - b)
        assert zero == alg.zero() and zero.form == (1, {})
    # a product whose terms cancel inside the fold: (T_1 - q)(T_1 + 1) = 0
    T1 = alg.gen_T(1)
    zero = (T1 - alg.from_scalar(q)) * (T1 + alg.one())
    assert zero.form == (1, {})


@pytest.mark.parametrize("n,r,field,q,Q", FOLD_CASES)
def test_star_is_the_sum_of_its_one_term_images(n, r, field, q, Q):
    # star multiplies T_{w^{-1}} by the gathered sum of c L^d over the terms
    # c L^d T_w of one permutation w; it must equal the sum of the one-term
    # images c T_{w^{-1}} L^d
    alg = make(n=n, r=r, q=q, Q=Q, field=field)
    rng = random.Random(f"star:{n}:{r}:{field}:{q}")
    full = alg.element({m: field(i % 7 - 3) for i, m in enumerate(alg.basis())})
    for a in [full] + [random_element(alg, rng, nterms=8) for _ in range(6)]:
        expected = sum((alg.t_elem(w.inverse()) * alg.element({(d, identity(n)): c})
                        for (d, w), c in a.terms.items()), alg.zero())
        assert a.star() == expected
    assert alg.zero().star() == alg.zero()


@pytest.mark.parametrize("field,q,Q", [
    # fractional q and Q: the heads' denominators differ, so folding each
    # head into the product rescales its running denominator to their lcm
    pytest.param(Rationals(), Fraction(2, 3), (Fraction(1, 3), Fraction(5, 2)), id="Q-fractional"),
    pytest.param(PrimeField(5), 2, (1, 3), id="GF5"),
])
def test_identity_heads_match_the_generator_fold_in_either_order(field, q, Q):
    # a right factor mixing terms with w = 1 (as in `Element.star`) and with
    # w != 1, its w = 1 terms gathered first or last, against m1 times each
    # term's generator word
    alg = make(n=3, r=2, q=q, Q=Q, field=field)
    gens = [alg.gen_T(g) for g in range(alg.n)]
    rng = random.Random(f"identity:{field}")
    third = field.one / field(3)
    for _ in range(4):
        a = random_element(alg, rng, nterms=5).scale(field.one / field(2))
        codes = [d * alg._nperm for d in rng.sample(range(alg._nexp), 2)]
        codes += [d * alg._nperm + w for d, w in zip(rng.sample(range(alg._nexp), 2), rng.sample(range(1, alg._nperm), 2))]
        bden, bints = field.to_ints({k: field(rng.randint(1, 4)) * third for k in codes})
        expected = alg.zero()
        for k, c in field.from_ints(bden, bints).items():
            word, e = alg._gen_word(alg.basis()[k])
            term = a
            for g in word:
                term = term * gens[g]
            expected = expected + term.scale(c * alg.params.q_power(-e))
        for order in (codes, codes[::-1]):
            got = alg._product_into([1, {}], *a.form, bden, {k: bints[k] for k in order})
            assert Element(alg, *field.canonical(*got)) == expected


@pytest.mark.parametrize("field,q", [(Rationals(), Fraction(2, 3)), (PrimeField(5), 2)], ids=["Q", "GF5"])
def test_products_fold_nothing_times_T_1(field, q, monkeypatch):
    # T_1 is the identity: a product folds its right factor's w = 1 terms
    # times L^d straight into the product, a star's right factors are all
    # w = 1, and left multiplication takes elem L^d as its w = 1 entry; the
    # steps derived on a cold table (the local moves of T_i past L^f, and the
    # normal form of an overflowing L^exp) take their move or head as the
    # entry at T_1, so from the first product on no fold runs times T_1
    folds = Counter()
    fold = ArikiKoikeAlgebra._fold

    def counted(self, den, terms, step, scales, *rest):
        for arg in scales:
            folds[step.__name__, arg] += 1
        return fold(self, den, terms, step, scales, *rest)

    monkeypatch.setattr(ArikiKoikeAlgebra, "_fold", counted)
    alg = make(n=3, r=2, q=q, Q=(1, 3), field=field)
    rng = random.Random(29)
    # every right factor mixes w = 1 terms (d = 0 among them) with w != 1 terms
    shift = alg.gen_L(2) + alg.from_scalar(3)
    elems = [random_element(alg, rng, nterms=6) + shift for _ in range(6)]

    def one_pass():
        out = [a * b for a in elems for b in elems] + [a.star() for a in elems]
        return out + [Element(alg, *form) for form in alg.left_mult_matrix(elems[0])]

    first = one_pass()
    # the cold pass derived both kinds of step that would fold times T_1
    assert folds["_Ti_times", 1] > 0 and any(name == "_L_pow_r" for name, _ in alg._steps)
    assert one_pass() == first
    assert folds["_mono_times_T", 0] == 0
    assert folds["_mono_times_L", 0] > 0 and sum(k for (name, _), k in folds.items() if name == "_mono_times_T") > 0


@pytest.mark.parametrize("field,q", [(Rationals(), Fraction(2, 3)), (PrimeField(5), 2)], ids=["Q", "GF5"])
def test_a_product_folds_once_per_step_group(field, q, monkeypatch):
    # the right factor's terms L^d T_w of one w fold times their L^d in one
    # call, all d at once: one L-fold for w = 1, and for each w != 1 one L-fold
    # and one T-fold, however many d the group holds
    alg = make(n=3, r=2, q=q, Q=(1, 3), field=field)
    rng = random.Random(31)
    a = random_element(alg, rng, nterms=6)
    perms = [0] + rng.sample(range(1, alg._nperm), 3)
    bints = {d * alg._nperm + w: rng.randint(1, 4) for w in perms for d in rng.sample(range(alg._nexp), 3)}
    b = Element(alg, *field.canonical(1, bints))
    assert all(sum(code % alg._nperm == w for code in b.ints) == 3 for w in perms)
    expected = a * b
    calls = []
    fold = ArikiKoikeAlgebra._fold

    def counted(self, *args):
        calls.append(args[2].__name__)
        return fold(self, *args)

    monkeypatch.setattr(ArikiKoikeAlgebra, "_fold", counted)
    assert a * b == expected
    assert len(calls) <= 1 + 2 * (len(perms) - 1)
    assert calls.count("_mono_times_T") == len(perms) - 1


# the steps _fold reads from its tables, and the rules read through _rule
STEPS = ("_mono_times_L", "_mono_times_T", "_L_times_normal", "_Ti_times", "_T_times_L", "_normal_L", "_L_pow_r")


def _counting_steps(monkeypatch):
    calls = Counter()
    for name in STEPS:
        def counted(self, code, arg, _step=getattr(ArikiKoikeAlgebra, name)):
            calls[_step.__name__, code, arg] += 1
            return _step(self, code, arg)
        monkeypatch.setattr(ArikiKoikeAlgebra, name, functools.wraps(getattr(ArikiKoikeAlgebra, name))(counted))
    return calls


@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=["Q", "GF5"])
def test_each_step_runs_once_per_code_and_argument(field, monkeypatch):
    # the fold and _rule read a step's result from its table and call the
    # step only the first time, across products, stars and left multiplication
    calls = _counting_steps(monkeypatch)
    alg = make(n=3, r=2, q=2, Q=(1, 3), field=field)
    rng = random.Random(17)
    for _ in range(10):
        a, b = random_element(alg, rng, nterms=6), random_element(alg, rng, nterms=6)
        a * b
        (a * b).star()
    alg.left_mult_matrix(random_element(alg, rng))
    assert {name for name, _, _ in calls} == set(STEPS)
    assert max(calls.values()) == 1


def test_L_pow_r_is_derived_without_element_products(monkeypatch):
    # the rule L_m^r is built from int forms, so no Element product (which the
    # benchmark's tracer counts as a product asked for) runs while deriving it
    def refuse(self, other):
        raise AssertionError("Element.__mul__ called")

    for n, r, field in ((4, 2, Rationals()), (3, 3, PrimeField(5))):
        alg = make(n=n, r=r, q=2, Q=(1, 3, 4)[:r], field=field)
        with monkeypatch.context() as m:
            m.setattr(Element, "__mul__", refuse)
            forms = [alg._L_pow_r(k) for k in range(1, n + 1)]
        for k, form in enumerate(forms, start=1):
            L = alg.gen_L(k)
            power = L
            for _ in range(r - 1):
                power = power * L
            assert Element(alg, *form) == power and form == field.canonical(*form)


@pytest.mark.parametrize("field,q,Q", [
    (Rationals(), Fraction(2, 3), (Fraction(1, 3), Fraction(5, 2))),
    (PrimeField(5), 2, (1, 2)),  # q-connected: Q_2 = q Q_1
], ids=["Q", "GF5"])
def test_engine_hands_back_canonical_field_values(field, q, Q):
    # the engine adds plain ints; what leaves it must be field values again
    alg = make(n=3, r=2, q=q, Q=Q, field=field)

    def canonical(c):
        if isinstance(field, Rationals):
            return type(c) is Fraction and gcd(c.numerator, c.denominator) == 1
        return type(c) is FpElement and c.p == field.p and 0 <= c.val < c.p

    rng = random.Random(11)
    for _ in range(8):
        a, b = random_element(alg, rng, nterms=6), random_element(alg, rng, nterms=6)
        for product in (a * b, a.star()):
            assert product.terms and all(canonical(c) and c for c in product.terms.values())
        # left multiplication hands back int forms, canonical as every Element's
        forms = alg.left_mult_matrix(a)
        for den, ints in forms:
            if isinstance(field, Rationals):
                assert den > 0 and gcd(den, *ints.values()) == 1
            else:
                assert den == 1 and all(0 < v < field.p for v in ints.values())
            assert all(ints.values())
        assert len(forms) == alg.dim and any(ints for _, ints in forms)


@pytest.mark.parametrize("n,r,field,Q", [
    (2, 2, Rationals(), (1, 5)),
    (2, 2, PrimeField(5), (1, 2)),
    (2, 3, Rationals(), (1, 5, 7)),
    (3, 2, PrimeField(5), (1, 2)),
], ids=["Q", "GF5", "dim18-Q", "dim48-GF5"])
def test_random_element_matches_field_value_construction(n, r, field, Q):
    # the reference draws a monomial from basis() and a coefficient
    # field(randint) - field(randint) per term, sums them in field values and
    # builds the element with alg.element; at dim 8 terms repeat and cancel,
    # and dims 18 and 48 draw codes at other bit lengths (5 and 6 bits)
    alg = make(n=n, r=r, Q=Q, field=field)
    basis = alg.basis()
    for seed in range(6):
        rng, ref = random.Random(seed), random.Random(seed)
        for nterms in (4, 6, 6):
            terms: dict = {}
            for _ in range(nterms):
                mono = basis[ref.randrange(len(basis))]
                terms[mono] = terms.get(mono, field.zero) + field(ref.randint(1, 9)) - field(ref.randint(0, 4))
            assert random_element(alg, rng, nterms=nterms) == alg.element(terms)


@pytest.mark.parametrize("field,Q", [
    (Rationals(), (Fraction(1, 3), Fraction(5, 2))),
    (PrimeField(5), (1, 2)),
], ids=["Q", "GF5"])
def test_elements_are_kept_in_canonical_form(field, Q):
    # equal elements must have equal int forms, so == and hash may compare ints
    alg = make(n=2, r=2, q=Fraction(2, 3), Q=Q, field=field)
    rng = random.Random(3)
    for _ in range(20):
        x, y = random_element(alg, rng), random_element(alg, rng)
        for z in (x, x * y, x + y, x - y, -x, x.star(), x.scale(Fraction(2, 3))):
            if isinstance(field, Rationals):
                assert gcd(z.den, *z.ints.values()) == 1
            else:
                assert z.den == 1 and all(0 < v < field.p for v in z.ints.values())
            assert all(z.ints.values())
            same = alg.element(z.terms)
            assert same == z and hash(same) == hash(z)
        assert x + y - y == x and hash(x + y - y) == hash(x)
        assert (x - x).is_zero() and x - x == alg.zero()


@pytest.mark.parametrize("n,r,field,q,Q", [
    (2, 3, Rationals(), 2, (1, 5, 7)),
    (3, 2, PrimeField(5), 2, (1, 3)),
], ids=["2-3-Q", "3-2-GF5"])
def test_monomial_codes_are_basis_positions(n, r, field, q, Q):
    # the engine keys each monomial on its code; code k must be basis()[k], and
    # left multiplication, listed by code, must match the Element route
    alg = make(n=n, r=r, q=q, Q=Q, field=field)
    basis = alg.basis()
    assert [alg.code(d, w) for d, w in basis] == list(range(alg.dim))
    rng = random.Random(7)
    for _ in range(2):
        a = random_element(alg, rng, nterms=5)
        forms = alg.left_mult_matrix(a)
        assert len(forms) == len(basis)
        for k, mono in enumerate(basis):
            assert forms[k] == (a * alg.element({mono: field.one})).form


@pytest.mark.parametrize("field,q,Q", [
    (Rationals(), Fraction(2, 3), (1, 5)),
    (PrimeField(7), 3, (1, 2)),
], ids=["Q", "GF(7)"])
def test_coordinates_solve_against_the_dense_span(field, q, Q):
    # one solution per target, read against a dense solve on the elements'
    # coordinate columns; a target outside the span has none
    alg = make(n=2, r=2, q=q, Q=Q, field=field)

    def vec(x):
        return dense(field, x.form, alg.dim)

    rng = random.Random(f"coordinates:{field}")
    xs = [random_element(alg, rng) for _ in range(3)]
    inside = xs[0].scale(field(2)) - xs[2]
    outside = next(m for m in (alg.element({mono: field.one}) for mono in alg.basis())
                   if rank([vec(x) for x in xs + [m]], field) > rank([vec(x) for x in xs], field))
    got = alg.coordinates([x.form for x in xs], [inside.form, outside.form, alg.zero().form])
    want = solve([list(col) for col in zip(*(vec(x) for x in xs))],
                 [vec(inside), vec(outside), vec(alg.zero())], field)
    assert [z and dense(field, z, 3) for z in got] == want and got[1] is None and got[2] == (1, {})
    assert all(z is None or field.canonical(*z) == z for z in got)
    assert sum((x.scale(c) for x, c in zip(xs, dense(field, got[0], 3))), alg.zero()) == inside


@pytest.mark.parametrize("field,q,Q", [
    (Rationals(), Fraction(3, 2), (1, 5)),
    (PrimeField(7), 3, (1, 2)),
], ids=["Q", "GF(7)"])
def test_condition_rows_span_the_dense_conditions(field, q, Q):
    # W_y = {x : x k = 0 for each right-ideal generator k of rAnn(y)} against
    # the dense route, which imposes x k = 0 for every vector k of a basis of
    # rAnn(y): coordinate c of L^d T_w k is the entry of unknown z_i, for i the
    # code of L^d T_w, in the condition row (k, c); both spaces as echelons,
    # for y = each m_lambda and each v_b
    alg = make(n=2, r=2, q=q, Q=Q, field=field)

    def vec(x):
        return dense(field, x.form, alg.dim)

    monos = [alg.element({m: field.one}) for m in alg.basis()]
    elems = [alg.m_lambda(lam) for lam in multipartitions(2, 2)] + [alg.v_b_elem(b) for b in range(3)]
    dens, sizes = {1}, []
    for y in elems:
        record = alg.right_ideal(y)
        kernel = record.annihilator
        # a basis of rAnn(y): independent vectors that y kills, as many as
        # dim minus the rank of the products y * mono
        assert all((y * Element(alg, *k)).is_zero() for k in kernel)
        assert rank([dense(field, k, alg.dim) for k in kernel], field) == len(kernel)
        assert len(kernel) == alg.dim - rank([vec(y * m) for m in monos], field)
        conditions = [list(row) for k in kernel for row in zip(*(vec(m * Element(alg, *k)) for m in monos))]
        want = Echelon(field, (field.to_ints(sparse(v)) for v in nullspace(conditions, field)))
        if not kernel:
            want = Echelon(field, ((1, {i: 1}) for i in range(alg.dim)))
        assert record.hom_images.rows == want.rows
        assert record.hom_images.contains(*y.form)  # the identity map of y H
        sizes.append((len(kernel), len(record.generators)))
        dens.update(den for den, _ in record.hom_images.rows.values())
    assert min(sizes) == (0, 0) and any(g < k for k, g in sizes)
    if isinstance(field, Rationals):  # W reaches dens > 1
        assert max(dens) > 1


def _one_row_kernel(alg, products):
    """The kernel of the first nonzero coordinate row of the products x L^d T_w:
    a hyperplane that holds rAnn(x) and more."""
    first = next(row for row in transpose(alg.field, products, alg.dim) if row[1])
    return kernel_basis(Echelon(alg.field, [first]), alg.dim)


ANNIHILATOR_CASES = [(Rationals(), 2, (1, 5)), (PrimeField(5), 2, (1, 4))]


@pytest.mark.parametrize("field,q,Q", ANNIHILATOR_CASES, ids=["Q", "GF5"])
def test_ideal_generators_span_each_annihilator(field, q, Q):
    # the products k L^d T_w of the generators span exactly span(rAnn(y)), for
    # y = each m_lambda and each v_b; the generators are kernel vectors, at most
    # as many as the kernel has, and none for an empty kernel
    alg = make(n=2, r=2, q=q, Q=Q, field=field)
    elems = [alg.m_lambda(lam) for lam in multicompositions(alg.n, alg.r)]
    elems += [alg.v_b_elem(b) for b in range(alg.n + 1)]
    sizes = []
    for record in (alg.right_ideal(y) for y in elems):
        kernel, gens = record.annihilator, record.generators
        assert all(k in kernel for k in gens) and len(gens) <= len(kernel)
        assert bool(gens) == bool(kernel)
        ideal = Echelon(field, (form for k in gens for form in alg.left_mult_matrix(Element(alg, *k))))
        assert ideal.rows == Echelon(field, kernel).rows
        sizes.append((len(kernel), len(gens)))
    assert min(sizes) == (0, 0) and any(g < k for k, g in sizes)
    assert alg.right_ideal(alg.one()).generators == []


@pytest.mark.parametrize("field,q,Q", ANNIHILATOR_CASES, ids=["Q", "GF5"])
def test_ideal_generators_refuse_a_subspace_that_is_not_a_right_ideal(field, q, Q):
    # a record whose rAnn(v_b) is replaced, before its first read, by a
    # hyperplane holding it: the generator search refuses the hyperplane
    alg = make(n=2, r=2, q=q, Q=Q, field=field)
    for b in range(alg.n + 1):
        record = RightIdeal(alg, alg.v_b_elem(b))
        record.annihilator = _one_row_kernel(alg, record.products)
        assert len(record.annihilator) == alg.dim - 1
        with pytest.raises(ComputationError, match="not a right ideal"):
            record.generators


@pytest.mark.parametrize("suite", ["morita", "schur"])
def test_a_kernel_that_is_not_a_right_ideal_exits_4(suite, monkeypatch, capsys):
    # every annihilator read off the products becomes a one-row kernel: the
    # generator search refuses it, and the CLI reports one line, exit 4
    from ariki_koike.cli import main

    monkeypatch.setattr(RightIdeal, "annihilator", property(lambda self: _one_row_kernel(self._alg(), self.products)))
    code = main(["verify", "--suite", suite, "--n", "2", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.count("\n") == 1 and err.startswith("computation failed: ") and "not a right ideal" in err


def test_u_elements():
    alg = make(n=2)
    assert alg.u_seq((0, 0)) == alg.one()
    # the full cyclotomic product in L_1 vanishes
    prod = alg.one()
    for t in (1, 2):
        prod = prod * (alg.gen_L(1) - alg.from_scalar(alg.Q[t - 1]))
    assert prod.is_zero()
    assert alg.u_b_plus(0) == alg.one()


def test_u_minus_and_u_b_plus_are_u_seq_products(monkeypatch):
    # both are the products of u_{m,t} over their parameter groups, in order
    for s in (1, 2):
        alg = make(n=3, r=3, Q=(1, 5, 7), s=s)
        for m in range(4):
            minus, plus = alg.one(), alg.one()
            for t in range(1, s + 1):
                minus = minus * alg.u_at(m, t)
            for t in range(s + 1, 4):
                plus = plus * alg.u_at(m, t)
            assert alg.u_minus(m) == minus and alg.u_b_plus(m) == plus
    # a factor with a_t = 0 is one, and u_seq takes no product by it
    products, mul = [], Element.__mul__
    monkeypatch.setattr(Element, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    assert alg.u_seq((0, 0, 0)) == alg.one() and not products
    alg.u_seq((2, 0, 0))
    assert len(products) == 3  # (L_1 - Q_1) (L_2 - Q_1), then 1 times it


def test_u_plus_of_column_shape_is_cell_generator():
    for (n, r, s) in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        alg = make(n=n, r=r, Q=(1, 5, 7)[:r], s=s)
        for b in range(n + 1):
            shape = omega_b(n, r, s, b)
            assert alg.u_plus(shape) == alg.u_b_plus(b)
            assert alg.u_plus(shape) == alg.m_lambda(shape)


def test_row_shape_eigenvector():
    alg = make(n=3)
    lam = MultiPartition([[3], []])
    x = alg.x_lambda(lam)
    for i in (1, 2):
        assert x * alg.gen_T(i) == x.scale(alg.q)


def test_m_lambda_star_symmetric():
    for (n, r) in [(2, 2), (3, 2)]:
        alg = make(n=n, r=r)
        for lam in multipartitions(n, r):
            m = alg.m_lambda(lam)
            assert m.star() == m


def test_m_st_at_row_tableaux():
    alg = make(n=3)
    for lam in multipartitions(3, 2):
        top = t_row(lam)
        assert alg.m_st(top, top) == alg.m_lambda(lam)


def test_m_st_star_swaps():
    alg = make(n=3)
    for lam in multipartitions(3, 2):
        tabs = std_tableaux(lam)
        for s in tabs:
            for t in tabs:
                assert alg.m_st(s, t).star() == alg.m_st(t, s)


def test_m_semi_column_type_recovers_cell_elements():
    from ariki_koike.tableaux import mu_map, omega

    alg = make(n=2)
    w = omega(2, 2)
    for lam in multipartitions(2, 2):
        for s in std_tableaux(lam):
            for t in std_tableaux(lam):
                assert alg.m_semi(mu_map(s, w), mu_map(t, w)) == alg.m_st(s, t)


def test_m_semi_single_entry():
    from ariki_koike.tableaux import mu_map, multicompositions, omega

    alg = make(n=1)
    for lam in multipartitions(1, 2):
        (t,) = std_tableaux(lam)
        for mu in multicompositions(1, 2):
            S = mu_map(t, mu)
            if S.is_semistandard():
                assert alg.m_semi(S, mu_map(t, omega(1, 2))) == alg.m_st(t, t)


def test_m_semi_star():
    from ariki_koike.tableaux import multicompositions, semistandard

    alg = make(n=2)
    for lam in multipartitions(2, 2):
        for mu in multicompositions(2, 2):
            for nu in multicompositions(2, 2):
                for S in semistandard(lam, mu):
                    for T in semistandard(lam, nu):
                        assert alg.m_semi(S, T).star() == alg.m_semi(T, S)


def direct_cell(alg, s, t):
    """m_st = T_{d(s)}^* m_lam T_{d(t)} by its defining product, without the transition."""
    return alg.t_elem(d_of(s).inverse()) * alg.m_lambda(s.shape) * alg.t_elem(d_of(t))


@pytest.mark.parametrize("field,Q", [(Rationals(), (1, 5)), (PrimeField(5), (1, 3))], ids=["Q", "GF5"])
def test_transition_forms_are_the_defining_products(field, Q):
    from ariki_koike.tableaux import mu_map, semistandard

    alg = make(n=3, Q=Q, field=field)
    trans = alg.transition()
    for i, (lam, s, t) in enumerate(trans.cells):
        assert trans.index[s, t] == i
        assert trans.forms[i] == direct_cell(alg, s, t).form
    for lam in multipartitions(3, 2):
        tabs = std_tableaux(lam)
        for mu in multicompositions(3, 2):
            for nu in multicompositions(3, 2):
                for S in semistandard(lam, mu):
                    for T in semistandard(lam, nu):
                        expected = alg.zero()
                        for s in tabs:
                            for t in tabs:
                                if mu_map(s, mu) == S and mu_map(t, nu) == T:
                                    expected = expected + direct_cell(alg, s, t)
                        assert alg.m_semi(S, T) == expected


def test_transition_forms_one_left_factor_per_first_tableau(monkeypatch):
    # T_{d(s)}^* m_lam is formed once per first tableau s, then times T_{d(t)}
    # once per cell: with every m_lam built, the build makes #s + dim products
    alg = make(n=3, Q=(1, 5))
    lams = multipartitions(3, 2)
    for lam in lams:
        alg.m_lambda(lam)
    products = []
    mul = Element.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    alg.transition()
    assert len(products) == sum(len(std_tableaux(lam)) for lam in lams) + alg.dim


def test_transition_n1_r2():
    alg = make(n=1)
    trans = alg.transition()
    assert len(trans.inverse()) == alg.dim == 2
    # explicit cell generators: (L_1 - Q_2) for level 1, the unit for level 0
    lam_top = MultiPartition([[1], []])
    assert alg.m_lambda(lam_top) == alg.gen_L(1) - alg.from_scalar(5)
    assert alg.m_lambda(MultiPartition([[], [1]])) == alg.one()


@pytest.mark.parametrize("n,r,field,Q", [
    (0, 2, Rationals(), (1, 5)),
    (2, 2, Rationals(), (1, 5)),
    (2, 2, PrimeField(5), (1, 3)),
    (1, 3, Rationals(), (1, 5, 7)),
], ids=["n0", "n2-r2-Q", "n2-r2-GF5", "n1-r3"])
def test_transition_inverse_matches_the_dense_inverse(n, r, field, Q):
    # row k of the inverse (the cellular coordinates of the monomial with code
    # k) against linalg.inverse of the dense cell matrix, row i = the defining
    # product of m_st of cell i
    alg = make(n=n, r=r, Q=Q, field=field)
    trans = alg.transition()
    cells = [dense(field, direct_cell(alg, s, t).form, alg.dim) for (_, s, t) in alg.cell_data()]
    got = [dense(field, row, alg.dim) for row in trans.inverse()]
    assert got == inverse(cells, field) and len(got) == alg.dim


def test_transition_inverse_refuses_a_repeated_cell(monkeypatch):
    alg = make(n=2)
    cells = alg.cell_data()
    monkeypatch.setattr(alg, "cell_data", lambda: [cells[0]] + cells[:1] + cells[2:])
    trans = alg.transition()
    with pytest.raises(ValueError, match="matrix is singular"):
        trans.inverse()


def test_transition_roundtrip_seeded():
    alg = make(n=2)
    trans = alg.transition()
    rng = random.Random(99)
    for _ in range(100):
        e = random_element(alg, rng)
        assert trans.combine(trans.express(e)) == e


def test_transition_basis_elements_are_units():
    alg = make(n=2)
    trans = alg.transition()
    for i, (lam, s, t) in enumerate(trans.cells):
        assert trans.express(alg.m_st(s, t)) == (1, {i: 1})
        assert trans.combine((1, {i: 1})) == alg.m_st(s, t)


def test_transition_size_guard():
    alg = ArikiKoikeAlgebra(
        Params(field=Rationals(), q=2, Q=(1, 5), n=3, r=2), max_dim=10
    )
    with pytest.raises(SizeGuardError):
        alg.transition()
    top = t_row(MultiPartition([[3], []]))
    with pytest.raises(SizeGuardError):
        alg.m_st(top, top)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2)])
def test_residue_triangular_action(n, r):
    params = Params(field=Rationals(), q=2, Q=(1, 5), n=n, r=r, s=1)
    alg = ArikiKoikeAlgebra(params)
    trans = alg.transition()
    for lam in multipartitions(n, r):
        for s in std_tableaux(lam):
            for t in std_tableaux(lam):
                mst = alg.m_st(s, t)
                for k in range(1, n + 1):
                    coords = {trans.cells[i]: c for i, c in
                              alg.field.from_ints(*trans.express(alg.gen_L(k) * mst)).items()}
                    res = tableau_residue(s, k, params)
                    assert coords.get((lam, s, t), alg.field.zero) == res
                    for (mu, u, v), c in coords.items():
                        if mu != lam:
                            assert strictly_dominates(mu, lam)
                        else:
                            assert v == t
                            if u != s:
                                assert tableau_dominates(u, s) and u != s


def test_v_b_degenerate_ends():
    alg = make(n=2)
    # at b = n both the left product and the rotation are empty
    assert alg.v_b_elem(2) == alg.u_b_plus(2)
    assert alg.v_b_elem(0) == alg.u_minus(2)


def test_serialization_format():
    alg = make(n=2)
    e = alg.gen_L(1).scale(3) - alg.gen_T(1)
    lines = e.serialize().splitlines()
    assert lines == ["-1 * L1^0 L2^0 * T[2,1]", "3 * L1^1 L2^0 * T[1,2]"]


def test_empty_algebra():
    alg = ArikiKoikeAlgebra(Params(field=Rationals(), q=2, Q=(1, 5), n=0, r=2))
    assert alg.dim == 1
    assert alg.one() * alg.one() == alg.one()
    assert alg.basis() == [((), identity(0))]


def test_cellular_suite_n3(monkeypatch):
    # layer-ideal stability and triangularity at the n = 3 desk bound
    from ariki_koike import suites
    from ariki_koike.report import all_ok

    monkeypatch.setattr(suites, "ROUNDTRIP_TRIALS", 20)
    res = suites.cellular_suite(ArikiKoikeAlgebra(Params(field=Rationals(), q=2, Q=(1, 5), n=3, r=2)))
    assert all_ok(res)
