import itertools
import random
from math import comb, factorial

import pytest

from ariki_koike.perms import (
    Permutation,
    all_permutations,
    coset_reps,
    from_word,
    identity,
    is_distinguished,
    s_interval,
    simple_transposition,
    sorted_permutations,
    w_ab,
    young_subgroup,
)


def brute_length(w):
    im = w.images
    return sum(1 for i in range(len(im)) for j in range(i + 1, len(im)) if im[i] > im[j])


# A Permutation is the tuple of its images: hashing, equality and order are
# the tuple's, so sets and dicts of them iterate as those of the image tuples.

def test_hash_is_the_hash_of_the_images():
    for n in range(5):
        for im in itertools.permutations(range(1, n + 1)):
            w = Permutation(im)
            assert hash(w) == hash(tuple(im)) and w.images == tuple(im)
            assert type(w.images) is tuple


def test_sorting_is_lexicographic_on_the_images():
    for n in range(5):
        ordered = sorted(all_permutations(n))
        assert ordered == list(sorted_permutations(n))
        assert [w.images for w in ordered] == sorted(itertools.permutations(range(1, n + 1)))


def test_sets_iterate_as_sets_of_the_image_tuples():
    perms = list(all_permutations(4))
    random.Random(3).shuffle(perms)
    for k in (1, 5, 24):
        assert [w.images for w in set(perms[:k])] == list(set(w.images for w in perms[:k]))


@pytest.mark.parametrize("images", [(1, 1), (0, 1), (2, 3), (1, 2, 4)])
def test_a_non_permutation_is_refused(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_products_and_inverses_are_permutations():
    for w in all_permutations(3):
        assert type(w.inverse()) is Permutation
        for v in all_permutations(3):
            assert type(w * v) is Permutation


def test_compose_identity():
    w = Permutation([2, 3, 1])
    assert identity(3) * w == w
    assert w * identity(3) == w


def test_compose_involution():
    s1 = simple_transposition(1, 3)
    assert s1 * s1 == identity(3)


def test_compose_right_action():
    # (i)(uv) = ((i)u)v: with u = s_1, v = s_2 the point 1 goes 1 -> 2 -> 3
    s1 = simple_transposition(1, 3)
    s2 = simple_transposition(2, 3)
    prod = s1 * s2
    assert prod(1) == 3 and prod(3) == 2 and prod(2) == 1
    # the composition the other way round is the cycle 1 -> 2 -> 3 -> 1,
    # matching the interval element s_{3,1}
    other = s2 * s1
    assert other(1) == 2 and other(2) == 3 and other(3) == 1
    assert other == s_interval(3, 1, 3)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        identity(2) * identity(3)


def test_length_examples():
    assert identity(4).length() == 0
    for i in range(1, 4):
        assert simple_transposition(i, 4).length() == 1
    assert w_ab(2, 2, 4).length() == 4


def test_length_is_inversions_and_word_length_exhaustive():
    for n in range(6):
        for w in all_permutations(n):
            word = w.reduced_word()
            assert w.length() == brute_length(w) == len(word)
            assert from_word(word, n) == w


def test_reduced_word_basics():
    assert identity(4).reduced_word() == ()
    assert simple_transposition(2, 4).reduced_word() == (2,)


def test_reduced_word_deterministic():
    w = Permutation([3, 1, 4, 2])
    assert w.reduced_word() == w.reduced_word()


def test_block_rotation_factors_through_the_point_stabilizer():
    # w_{n-b,b} = w~ s_{1,b+1} with w~ fixing the point 1 and lengths adding
    for n in range(2, 6):
        for b in range(1, n):
            w = w_ab(n - b, b, n)
            head = s_interval(1, b + 1, n)
            wt = w * head.inverse()
            assert wt(1) == 1
            assert w.length() == wt.length() + head.length()


def test_w_ab_examples():
    assert w_ab(3, 0, 3) == identity(3)
    assert w_ab(0, 3, 3) == identity(3)
    assert w_ab(1, 1, 2) == simple_transposition(1, 2)
    assert w_ab(2, 2, 4) == Permutation([3, 4, 1, 2])
    with pytest.raises(ValueError):
        w_ab(3, 2, 4)


def test_w_ab_is_cycle_power():
    for n in range(1, 6):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                cyc = s_interval(a + b, 1, n) if a + b >= 2 else identity(n)
                power = identity(n)
                for _ in range(b):
                    power = power * cyc
                assert w_ab(a, b, n) == power


def test_w_ab_inverse():
    for n in range(1, 6):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                assert w_ab(a, b, n).inverse() == w_ab(b, a, n)


def test_conjugation_law_for_block_rotations():
    # s_i w_{a,b} = w_{a,b} s_{i+b} (i < a) or w_{a,b} s_{i-a} (a < i < a+b),
    # always with the length rising by one on the left.
    for n in range(2, 6):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                w = w_ab(a, b, n)
                for i in range(1, a + b):
                    if i == a:
                        continue
                    left = simple_transposition(i, n) * w
                    j = i + b if i < a else i - a
                    assert left == w * simple_transposition(j, n)
                    assert left.length() == w.length() + 1


def test_coset_reps_whole_group():
    assert coset_reps([3], 3) == [identity(3)]


def test_coset_reps_s2():
    reps = coset_reps([1, 1], 2)
    assert set(reps) == {identity(2), simple_transposition(1, 2)}


def test_coset_reps_counts():
    for n in range(1, 6):
        for b in range(n + 1):
            assert len(coset_reps([b, n - b], n)) == comb(n, b)
    assert len(coset_reps([2, 1, 1], 4)) == factorial(4) // 2


def test_coset_reps_are_unique_minima():
    for n in range(1, 5):
        for nu in [[n], [1] * n] + ([[2, n - 2]] if n >= 2 else []):
            reps = coset_reps(nu, n)
            subgroup = young_subgroup(nu, n)
            seen = set()
            for d in reps:
                coset = {w * d for w in subgroup}
                assert not (coset & seen)
                seen |= coset
                for w in subgroup:
                    assert (w * d).length() == w.length() + d.length()
                assert min(v.length() for v in coset) == d.length()
                assert sum(1 for v in coset if v.length() == d.length()) == 1
            assert len(seen) == factorial(n)


def test_distinguished_criterion_matches_minimality():
    n = 4
    nu = [2, 2]
    subgroup = young_subgroup(nu, n)
    for w in all_permutations(n):
        minimal = all(w.length() <= (u * w).length() for u in subgroup)
        assert is_distinguished(w, nu) == minimal
