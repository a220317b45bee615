"""Symmetric group combinatorics on the points {1, ..., n}.

Permutations act on points from the RIGHT and are tuples in one-line
notation: ``w[i-1]`` is the image of the point i.  The product ``u * v``
therefore applies u first: (i)(uv) = ((i)u)v.

Besides the generic operations (length, reduced words, descents, cosets) the
module builds the two special families used throughout the package: the
interval cycles s_{i,j} and the block-rotation permutations w_{a,b}.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


class Permutation(tuple):
    """A permutation of {1..n} in one-line notation, acting on the right.

    It is the tuple of its images, so hashing, equality and ordering
    (lexicographic on the images) are the tuple's own and run in C."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        self = super().__new__(cls, images)
        if sorted(self) != list(range(1, len(self) + 1)):
            raise ValueError(f"{tuple(self)} is not a permutation of 1..{len(self)}")
        return self

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        """The image (i)w of the point i."""
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError(f"size mismatch: S_{self.n} vs S_{other.n}")
        return Permutation(other[x - 1] for x in self)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, x in enumerate(self):
            inv[x - 1] = i + 1
        return Permutation(inv)

    def __repr__(self):
        return f"Permutation({list(self)})"

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self))

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        count = 0
        for i in range(len(self)):
            for j in range(i + 1, len(self)):
                if self[i] > self[j]:
                    count += 1
        return count

    def right_descents(self) -> list[int]:
        """Indices i with l(w s_i) < l(w), i.e. i appears after i+1."""
        pos = [0] * (self.n + 1)
        for idx, x in enumerate(self):
            pos[x] = idx
        return [i for i in range(1, self.n) if pos[i] > pos[i + 1]]

    def times_s(self, i: int) -> "Permutation":
        """w * s_i (swap the values i and i+1)."""
        im = list(self)
        for idx, x in enumerate(im):
            if x == i:
                im[idx] = i + 1
            elif x == i + 1:
                im[idx] = i
        return Permutation(im)

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word for w, built by stripping the smallest right descent.

        Returns generator indices (i_1, ..., i_k) with w = s_{i_1} ... s_{i_k}
        and k = length(w).  Deterministic: ties always break to the smallest
        generator index.
        """
        word: list[int] = []
        w = self
        while True:
            descents = w.right_descents()
            if not descents:
                break
            i = descents[0]
            word.append(i)
            w = w.times_s(i)
        word.reverse()
        return tuple(word)


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def simple_transposition(i: int, n: int) -> Permutation:
    """s_i = (i, i+1) in S_n."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"s_{i} does not exist in S_{n}")
    im = list(range(1, n + 1))
    im[i - 1], im[i] = im[i], im[i - 1]
    return Permutation(im)


def from_word(word: Iterable[int], n: int) -> Permutation:
    """The product s_{i_1} s_{i_2} ... s_{i_k} (applied left to right)."""
    w = identity(n)
    for i in word:
        w = w.times_s(i)
    return w


def all_permutations(n: int) -> Iterator[Permutation]:
    for im in itertools.permutations(range(1, n + 1)):
        yield Permutation(im)


def s_interval(i: int, j: int, n: int) -> Permutation:
    """The interval element s_{i,j} for i < j (and s_{j,i} for i > j).

    s_{i,j} = s_i s_{i+1} ... s_{j-1}; its inverse s_{j,i} is the cycle
    (i, i+1, ..., j).  s_{i,i} is the identity.
    """
    if i == j:
        return identity(n)
    if i < j:
        return from_word(range(i, j), n)
    return from_word(range(i - 1, j - 1, -1), n)


def w_ab(a: int, b: int, n: int) -> Permutation:
    """The block rotation w_{a,b} = (s_{a+b,1})^b in S_n.

    Sends i -> i+b for 1 <= i <= a and a+i -> i for 1 <= i <= b; points
    above a+b are fixed.  w_{a,b}^{-1} = w_{b,a}.
    """
    if a < 0 or b < 0 or a + b > n:
        raise ValueError(f"w_{{{a},{b}}} does not fit in S_{n}")
    im = [i + b for i in range(1, a + 1)]
    im += [i for i in range(1, b + 1)]
    im += list(range(a + b + 1, n + 1))
    return Permutation(im)


def young_subgroup(blocks: Sequence[int], n: int) -> list[Permutation]:
    """All elements of the Young subgroup of consecutive blocks.

    `blocks` lists block sizes; the subgroup permutes {1..b1}, {b1+1..b1+b2},
    ... independently.  Zero blocks are allowed and skipped.
    """
    if sum(blocks) > n:
        raise ValueError("blocks exceed n")
    ranges = []
    start = 1
    for size in blocks:
        ranges.append(list(range(start, start + size)))
        start += size
    tail = list(range(start, n + 1))
    elements = []
    for pieces in itertools.product(*(itertools.permutations(rg) for rg in ranges)):
        im: list[int] = []
        for piece in pieces:
            im.extend(piece)
        im.extend(tail)
        elements.append(Permutation(im))
    return elements


def is_distinguished(w: Permutation, blocks: Sequence[int]) -> bool:
    """Is w the minimal-length element of its right coset under the Young subgroup?

    Equivalent to: the one-line images increase within each block of positions.
    """
    start = 0
    for size in blocks:
        for k in range(start, start + size - 1):
            if w[k] > w[k + 1]:
                return False
        start += size
    return True


def coset_reps(blocks: Sequence[int], n: int) -> list[Permutation]:
    """Distinguished right coset representatives of the Young subgroup in S_n.

    Enumerated by filtering S_n on the increasing-within-blocks criterion;
    fine at desk scale (n <= 8).
    """
    if sum(blocks) > n:
        raise ValueError("blocks exceed n")
    full = list(blocks) + [1] * (n - sum(blocks))
    return [w for w in all_permutations(n) if is_distinguished(w, full)]


def shift_perm(x: Permutation, offset: int, n: int) -> Permutation:
    """Embed x (acting on 1..m) as a permutation of offset+1..offset+m in S_n."""
    m = x.n
    if offset + m > n:
        raise ValueError("shifted permutation does not fit")
    im = list(range(1, n + 1))
    for i in range(1, m + 1):
        im[offset + i - 1] = offset + x(i)
    return Permutation(im)


def sorted_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n sorted by one-line notation (the canonical listing), built
    on each call: an algebra keeps its own (`ArikiKoikeAlgebra._perms`)."""
    return tuple(sorted(all_permutations(n)))
