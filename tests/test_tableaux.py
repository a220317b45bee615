import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from ariki_koike.fields import Params, Rationals
from ariki_koike.perms import shift_perm, w_ab
from ariki_koike.tableaux import (
    MultiComposition,
    MultiPartition,
    bar,
    content,
    d_of,
    dominates,
    hook_dimension,
    lambda_sets,
    mu_map,
    multicompositions,
    multipartitions,
    omega,
    omega_b,
    pair_join,
    pair_split,
    pair_key,
    residue,
    semistandard,
    std_filtered,
    std_tableaux,
    strictly_dominates,
    t_row,
    tableau_dominates,
    type_multiset,
)


def qparams(n=2, r=2, s=1, q=2, Q=(1, 5)):
    return Params(field=Rationals(), q=q, Q=Q, n=n, r=r, s=s)


# --- brute-force oracles -----------------------------------------------------


def brute_std_count(lam):
    cells = lam.diagram()
    count = 0
    for perm in itertools.permutations(range(1, lam.n + 1)):
        fill = dict(zip(cells, perm))
        ok = True
        for (i, j, k) in cells:
            if (i, j + 1, k) in fill and fill[(i, j, k)] >= fill[(i, j + 1, k)]:
                ok = False
                break
            if (i + 1, j, k) in fill and fill[(i, j, k)] >= fill[(i + 1, j, k)]:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_semistandard_count(lam, mu):
    cells = lam.diagram()
    count = 0
    for perm in set(itertools.permutations(type_multiset(mu))):
        fill = dict(zip(cells, perm))
        ok = True
        for (i, j, k) in cells:
            e = fill[(i, j, k)]
            if e[1] < k:
                ok = False
                break
            if (i, j + 1, k) in fill and pair_key(e) > pair_key(fill[(i, j + 1, k)]):
                ok = False
                break
            if (i + 1, j, k) in fill and pair_key(e) >= pair_key(fill[(i + 1, j, k)]):
                ok = False
                break
        if ok:
            count += 1
    return count


# --- enumeration -------------------------------------------------------------


def test_multipartition_counts():
    assert len(multipartitions(0, 2)) == 1
    assert multipartitions(0, 2)[0] == MultiPartition([[], []])
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(1, 3)) == 3


def test_enumeration_order_dominant_first():
    lams = multipartitions(3, 2)
    for i, lam in enumerate(lams):
        for mu in lams[i + 1:]:
            assert not strictly_dominates(mu, lam)


def test_canonical_form_strips_trailing_zeros():
    assert MultiComposition([[2, 0], [0]]) == MultiComposition([[2], []])
    assert MultiComposition([[2, 0], [0]]).r == 2


def test_std_matches_brute_force():
    for (n, r) in [(2, 2), (3, 2), (2, 3), (4, 1)]:
        for lam in multipartitions(n, r):
            assert len(std_tableaux(lam)) == brute_std_count(lam)


def test_std_examples():
    assert len(std_tableaux(MultiPartition([[1], [1]]))) == 2
    assert len(std_tableaux(MultiPartition([[3], []]))) == 1
    assert len(std_tableaux(MultiPartition([[1], [2]]))) == 3


# --- dominance ----------------------------------------------------------------


def test_dominance_examples():
    a = MultiComposition([[2], []])
    b = MultiComposition([[1], [1]])
    assert dominates(a, a)
    assert dominates(a, b)
    assert not dominates(b, a)


def test_dominance_partial_order_exhaustive():
    for (n, r) in [(3, 2), (4, 3)]:
        shapes = multicompositions(n, r)
        for x in shapes:
            assert dominates(x, x)
        for x in shapes:
            for y in shapes:
                if dominates(x, y) and dominates(y, x):
                    assert x == y
        for x in shapes:
            for y in shapes:
                if not dominates(x, y):
                    continue
                for z in shapes:
                    if dominates(y, z):
                        assert dominates(x, z)


def test_row_tableau_dominates_everything():
    # tableau dominance is only ever applied to standard fillings downstream,
    # so the maximality of the row-reading tableau is checked on those
    for (n, r) in [(3, 2), (4, 2)]:
        for lam in multipartitions(n, r):
            top = t_row(lam)
            for t in std_tableaux(lam):
                assert tableau_dominates(top, t)


# --- the row reading tableau and d(t) ------------------------------------------


def test_t_row_running_example():
    mu = MultiComposition([[3, 1], [1, 1], [2, 1]])
    t = t_row(mu)
    assert t.rows == (((1, 2, 3), (4,)), ((5,), (6,)), ((7, 8), (9,)))


def test_t_row_single_row():
    lam = MultiPartition([[3], []])
    assert t_row(lam).rows == (((1, 2, 3),), ())


def test_d_of_identity():
    for lam in multipartitions(3, 2):
        assert d_of(t_row(lam)).is_identity()


def test_d_of_swap():
    lam = MultiPartition([[1], [1]])
    swapped = [t for t in std_tableaux(lam) if t.rows == (((2,),), ((1,),))][0]
    assert d_of(swapped).images == (2, 1)


def test_d_of_is_distinguished():
    from ariki_koike.perms import young_subgroup

    for lam in multipartitions(4, 2):
        blocks = [x for x in lam.row_lengths() if x]
        for t in std_tableaux(lam):
            d = d_of(t)
            assert t_row(lam).apply(d) == t
            for w in young_subgroup(blocks, 4):
                assert (w * d).length() == w.length() + d.length()


# --- filtered tableaux and level sets -------------------------------------------


def test_std_filtered_examples():
    lam = MultiPartition([[1], [1]])
    assert len(std_filtered(lam, 1, 1, two_sided=True)) == 1
    lam2 = MultiPartition([[1], [2]])
    assert len(std_filtered(lam2, 1, 1, two_sided=True)) == 1
    # vacuous constraints: b = 0 one-sided keeps everything
    for shape in multipartitions(3, 2):
        assert std_filtered(shape, 0, 1, two_sided=False) == std_tableaux(shape)


def test_std_filtered_nonempty_iff_level():
    for (n, r, s) in [(3, 2, 1), (3, 3, 2)]:
        for b in range(n + 1):
            level, _ = lambda_sets(n, r, s, b)
            for lam in multipartitions(n, r):
                nonempty = bool(std_filtered(lam, b, s, two_sided=True))
                assert nonempty == (lam in level)


def test_lambda_sets_examples():
    level, above = lambda_sets(2, 2, 1, 1)
    assert level == [MultiPartition([[1], [1]])]
    level0, above0 = lambda_sets(2, 2, 1, 0)
    assert set(level0) == {MultiPartition([[], [2]]), MultiPartition([[], [1, 1]])}
    _, above_n = lambda_sets(2, 2, 1, 2)
    assert above_n == []


def test_above_level_is_a_dominance_coideal():
    for (n, r, s) in [(3, 2, 1), (3, 3, 2)]:
        for b in range(n + 1):
            _, above = lambda_sets(n, r, s, b)
            above_set = set(above)
            for lam in above:
                for mu in multipartitions(n, r):
                    if dominates(mu, lam):
                        assert mu in above_set


def test_omega_examples():
    assert omega_b(2, 2, 1, 1) == MultiPartition([[1], [1]])
    assert omega_b(3, 2, 1, 0) == MultiPartition([[], [1, 1, 1]])
    assert omega_b(3, 2, 1, 2) == MultiPartition([[1, 1], [1]])
    assert omega(3, 2) == omega_b(3, 2, 1, 0)
    with pytest.raises(ValueError):
        omega_b(2, 2, 2, 1)  # the split must separate the two columns


# --- semistandard tableaux -------------------------------------------------------


def test_semistandard_matches_brute_force():
    for (n, r) in [(2, 2), (3, 2), (2, 3)]:
        for lam in multipartitions(n, r):
            for mu in multicompositions(n, r):
                assert len(semistandard(lam, mu)) == brute_semistandard_count(lam, mu)


def test_semistandard_of_column_type_counts_standard():
    for (n, r) in [(2, 2), (3, 2), (2, 3)]:
        w = omega(n, r)
        for lam in multipartitions(n, r):
            assert len(semistandard(lam, w)) == len(std_tableaux(lam))


def test_semistandard_of_own_type_is_unique():
    for (n, r) in [(2, 2), (3, 2)]:
        for lam in multipartitions(n, r):
            assert len(semistandard(lam, lam)) == 1


def test_semistandard_forced_placement():
    lam = MultiPartition([[1], [1]])
    mu = MultiComposition([[], [2]])
    assert len(semistandard(lam, mu)) == 1


def test_mu_map_superstandard():
    for lam in multipartitions(3, 2):
        image = mu_map(t_row(lam), lam)
        assert image.is_semistandard()
        assert image == semistandard(lam, lam)[0]


def test_mu_map_of_column_type_always_semistandard():
    for (n, r) in [(3, 2), (2, 3)]:
        w = omega(n, r)
        for lam in multipartitions(n, r):
            images = {mu_map(t, w) for t in std_tableaux(lam)}
            assert all(im.is_semistandard() for im in images)
            assert len(images) == len(std_tableaux(lam))


def test_mu_map_can_fail_semistandardness():
    lam = MultiPartition([[1], [1]])
    w1 = omega_b(2, 2, 1, 1)  # type ((1),(1))
    bad = [t for t in std_tableaux(lam) if t.rows == (((2,),), ((1,),))][0]
    assert not mu_map(bad, w1).is_semistandard()


# --- residues and contents --------------------------------------------------------


def test_residue_of_corner():
    p = qparams()
    assert residue((1, 1, 1), p) == 1
    assert residue((1, 1, 2), p) == 5
    assert residue((1, 2, 1), p) == 2
    assert residue((2, 1, 1), p) == Fraction(1, 2)


def test_content_examples():
    p = qparams()
    assert content(MultiPartition([[2], []]), p) == (Fraction(1), Fraction(2))
    assert content(MultiPartition([[1], [1]]), p) == (Fraction(1), Fraction(5))


def test_content_separation_across_levels():
    # nonvanishing separation product forces distinct contents across levels
    from ariki_koike.fields import f_s_value

    p = qparams(n=3, Q=(1, 5))
    assert f_s_value(p) != 0
    for b in range(4):
        for c in range(4):
            if b == c:
                continue
            level_b, _ = lambda_sets(3, 2, 1, b)
            level_c, _ = lambda_sets(3, 2, 1, c)
            for lam in level_b:
                for mu in level_c:
                    assert content(lam, p) != content(mu, p)


# --- counting identity and the pairing bijection -------------------------------------


def test_filtered_counting_identity():
    for n in range(5):
        for r in (2, 3):
            for s in range(1, r):
                for b in range(n + 1):
                    level, _ = lambda_sets(n, r, s, b)
                    got = sum(
                        len(std_filtered(lam, b, s, two_sided=True)) * len(std_tableaux(lam))
                        for lam in level
                    )
                    want = (
                        comb(n, b) * s ** b * factorial(b)
                        * (r - s) ** (n - b) * factorial(n - b)
                    )
                    assert got == want


def test_pair_bijection_small():
    sigma = MultiPartition([[1]])
    tau = MultiPartition([[1]])
    joined = pair_join(sigma and std_tableaux(sigma)[0], std_tableaux(tau)[0], 2)
    assert joined.shape == MultiPartition([[1], [1]])
    assert joined == std_filtered(MultiPartition([[1], [1]]), 1, 1, two_sided=True)[0]


def test_pair_bijection_exhaustive():
    for (n, r, s) in [(3, 2, 1), (4, 2, 1), (3, 3, 2)]:
        for b in range(n + 1):
            level, _ = lambda_sets(n, r, s, b)
            for lam in level:
                sigma = MultiPartition(lam.components[:s])
                tau = MultiPartition(lam.components[s:])
                seen = set()
                for s1 in std_tableaux(sigma):
                    for s2 in std_tableaux(tau):
                        st = pair_join(s1, s2, n)
                        seen.add(st)
                        b1, b2 = pair_split(st, s)
                        assert (b1, b2) == (s1, s2)
                        d1 = shift_perm(d_of(s1), 0, n)
                        d2 = shift_perm(d_of(s2), 0, n)
                        wnb = w_ab(n - b, b, n)
                        assert d_of(st) == d1 * (wnb.inverse() * d2 * wnb)
                        assert d_of(st).length() == d_of(s1).length() + d_of(s2).length()
                assert seen == set(std_filtered(lam, b, s, two_sided=True))
    # degenerate end: b = n leaves nothing to renumber
    lam = MultiPartition([[2], []])
    s1 = std_tableaux(MultiPartition([[2]]))[0]
    s2 = std_tableaux(MultiPartition([[]]))[0]
    assert pair_join(s1, s2, 2).rows == (((1, 2),), ())


# --- sorting into partitions ------------------------------------------------------


def test_bar_examples():
    lam = MultiPartition([[2, 1], []])
    assert bar(lam) == lam
    assert bar(MultiComposition([[1, 2], []])) == MultiPartition([[2, 1], []])
    assert bar(MultiComposition([[0, 3], [1, 2]])) == MultiPartition([[3], [2, 1]])


def test_bar_dominates_original():
    for mu in multicompositions(4, 2):
        assert dominates(bar(mu), mu)


def test_hook_dimension_counts_standard_tableaux():
    for n, r in [(0, 2), (1, 3), (2, 2), (3, 3), (4, 2), (5, 1), (6, 1)]:
        for lam in multipartitions(n, r):
            assert hook_dimension(lam) == len(std_tableaux(lam)), lam
    # the hook lengths of (3,1) are 4,2,1,1: 4!/8 = 3
    assert hook_dimension(MultiPartition([[3, 1], []])) == 3
