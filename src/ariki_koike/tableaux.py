"""Multicompositions, multipartitions, dominance, and tableau combinatorics.

A multicomposition of n with r components is an r-tuple of compositions whose
sizes sum to n.  Canonical form strips trailing zero parts inside each
component but keeps all r components (the tuple length is structural).
Equality and hashing use canonical form.

Standard tableaux are bijective fillings of a multipartition diagram by
1..n increasing along rows and down columns of every component; semistandard
tableaux are fillings by ordered pairs (i, k) subject to the type conditions.
Entries (i, k) compare in the order "component first": (i, k) < (j, l) iff
k < l, or k = l and i < j.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator, Sequence

from .perms import Permutation

Node = tuple[int, int, int]  # (row i >= 1, column j >= 1, component k in 1..r)


def _strip(parts: Sequence[int]) -> tuple[int, ...]:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


class MultiComposition:
    """An r-tuple of compositions; total size n."""

    __slots__ = ("components", "_dominance")

    def __init__(self, components: Sequence[Sequence[int]]):
        comps = tuple(_strip(c) for c in components)
        for c in comps:
            if any(x < 0 for x in c):
                raise ValueError("negative part in composition")
        if len(comps) < 1:
            raise ValueError("need at least one component")
        self.components = comps
        self._dominance = None  # dominance_key(self), computed on first use

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return sum(sum(c) for c in self.components)

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(sum(c) for c in self.components)

    def row_lengths(self) -> tuple[int, ...]:
        """All row lengths, reading components in order. Zero rows included."""
        out = []
        for c in self.components:
            out.extend(c)
        return tuple(out)

    def diagram(self) -> list[Node]:
        """The nodes (i, j, k), in row-reading order."""
        nodes = []
        for k, comp in enumerate(self.components, start=1):
            for i, row_len in enumerate(comp, start=1):
                for j in range(1, row_len + 1):
                    nodes.append((i, j, k))
        return nodes

    def is_partition(self) -> bool:
        return all(all(c[i] >= c[i + 1] for i in range(len(c) - 1)) for c in self.components)

    def __eq__(self, other):
        return isinstance(other, MultiComposition) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"{type(self).__name__}({[list(c) for c in self.components]})"

    def serialize(self) -> str:
        """Nested-list text form, e.g. [[3,1],[1,1],[2,1]]."""
        return "[" + ",".join("[" + ",".join(str(x) for x in c) + "]" for c in self.components) + "]"


class MultiPartition(MultiComposition):
    """A multicomposition whose every component is weakly decreasing."""

    def __init__(self, components: Sequence[Sequence[int]]):
        super().__init__(components)
        if not self.is_partition():
            raise ValueError(f"components {self.components} are not partitions")


def bar(mu: MultiComposition) -> MultiPartition:
    """Sort each component into weakly decreasing order."""
    return MultiPartition(tuple(tuple(sorted(c, reverse=True)) for c in mu.components))


def _partitions_of(m: int) -> Iterator[tuple[int, ...]]:
    """All partitions of m, largest-part-first lexicographically descending."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(m, m)


def _compositions_of(m: int) -> Iterator[tuple[int, ...]]:
    """All compositions of m (no trailing zeros; zero parts not allowed)."""
    if m == 0:
        yield ()
        return
    for first in range(m, 0, -1):
        for rest in _compositions_of(m - first):
            yield (first,) + rest


def _weak_compositions(m: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered ways to write m as a sum of `parts` non-negative integers."""
    if parts == 1:
        yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _weak_compositions(m - first, parts - 1):
            yield (first,) + rest


def dominance_key(mu: MultiComposition) -> tuple:
    """The vector of cumulative sums that defines the dominance order.

    Entry (c, i) is |mu^(1)| + ... + |mu^(c-1)| + mu^(c)_1 + ... + mu^(c)_i,
    for i = 1..n.  lam dominates mu iff its vector is >= pointwise.  It is
    computed once per shape and kept on it.
    """
    if mu._dominance is None:
        key = []
        before = 0
        for comp in mu.components:
            acc = before
            row = 0
            for i in range(1, mu.n + 1):
                if row < len(comp):
                    acc += comp[row]
                    row += 1
                key.append(acc)
            before += sum(comp)
        mu._dominance = tuple(key)
    return mu._dominance


def dominates(lam: MultiComposition, mu: MultiComposition) -> bool:
    """True iff lam dominates mu (all cumulative-sum inequalities hold)."""
    a, b = dominance_key(lam), dominance_key(mu)
    if lam.r != mu.r or len(a) != len(b):  # with r equal, the keys' lengths r n are equal iff n is
        raise ValueError("dominance needs equal size and number of components")
    return all(x >= y for x, y in zip(a, b))


def strictly_dominates(lam: MultiComposition, mu: MultiComposition) -> bool:
    return lam != mu and dominates(lam, mu)


def sort_key(mu: MultiComposition) -> tuple:
    """Canonical listing key: dominant shapes first, deterministic."""
    return tuple(-x for x in dominance_key(mu)) + mu.components


def multipartitions(n: int, r: int) -> list[MultiPartition]:
    """All multipartitions of n with r components, dominant first."""
    out = []
    for sizes in _weak_compositions(n, r):
        for parts in itertools.product(*(_partitions_of(m) for m in sizes)):
            out.append(MultiPartition(parts))
    out.sort(key=sort_key)
    return out


def multicompositions(n: int, r: int) -> list[MultiComposition]:
    """All multicompositions of n with r components (canonical form)."""
    out = []
    for sizes in _weak_compositions(n, r):
        for parts in itertools.product(*(_compositions_of(m) for m in sizes)):
            out.append(MultiComposition(parts))
    out.sort(key=sort_key)
    return out


def lambda_sets(n: int, r: int, s: int, b: int) -> tuple[list[MultiPartition], list[MultiPartition]]:
    """The level sets of the first-s-components size.

    Returns (Lambda_b, Lambda_bar_b): multipartitions whose first s components
    hold exactly b boxes, and those holding more than b.  The second set is a
    coideal for dominance.
    """
    if not (0 <= b <= n):
        raise ValueError(f"b={b} out of range 0..{n}")
    if not (1 <= s <= r):
        raise ValueError(f"s={s} out of range 1..{r}")
    return split_levels(multipartitions(n, r), s, b)


def split_levels(shapes: Sequence[MultiPartition], s: int, b: int) -> tuple[list[MultiPartition], list[MultiPartition]]:
    """(Lambda_b, Lambda_bar_b) among the given shapes, in their order: those
    whose first s components hold exactly b boxes, and those holding more."""
    level, above = [], []
    for lam in shapes:
        size = sum(lam.component_sizes()[:s])
        if size == b:
            level.append(lam)
        elif size > b:
            above.append(lam)
    return level, above


def omega_b(n: int, r: int, s: int, b: int) -> MultiPartition:
    """The column shape with (1^b) in component s and (1^{n-b}) in component r.

    Rejected when s = r: the two column shapes would land in the same
    component and the construction is ambiguous.
    """
    if s >= r:
        raise ValueError("omega_b needs s < r (components s and r must differ)")
    if not (0 <= b <= n):
        raise ValueError(f"b={b} out of range 0..{n}")
    comps: list[tuple[int, ...]] = [() for _ in range(r)]
    comps[s - 1] = (1,) * b
    comps[r - 1] = (1,) * (n - b)
    return MultiPartition(comps)


def omega(n: int, r: int) -> MultiPartition:
    """The column multipartition ((0),...,(0),(1^n))."""
    comps: list[tuple[int, ...]] = [() for _ in range(r)]
    comps[r - 1] = (1,) * n
    return MultiPartition(comps)


def split_multipartition(lam: MultiPartition, s: int) -> tuple[MultiPartition, MultiPartition]:
    """Split into the first s components and the last r-s components."""
    return MultiPartition(lam.components[:s]), MultiPartition(lam.components[s:])


def join_multipartitions(sigma: MultiPartition, tau: MultiPartition) -> MultiPartition:
    return MultiPartition(sigma.components + tau.components)


class StandardTableau:
    """A standard filling of a multipartition diagram by 1..n."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: MultiPartition, rows: Sequence[Sequence[Sequence[int]]]):
        self.shape = shape
        self.rows = tuple(tuple(tuple(row) for row in comp) for comp in rows)
        entries = [x for comp in self.rows for row in comp for x in row]
        if sorted(entries) != list(range(1, shape.n + 1)):
            raise ValueError("entries are not a bijection onto 1..n")
        for k, comp in enumerate(self.rows):
            if tuple(len(row) for row in comp) != shape.components[k]:
                raise ValueError("tableau rows do not match the shape")
            for row in comp:
                if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                    raise ValueError("row not increasing")
            for i in range(len(comp) - 1):
                for j in range(len(comp[i + 1])):
                    if comp[i][j] >= comp[i + 1][j]:
                        raise ValueError("column not increasing")

    @property
    def n(self) -> int:
        return self.shape.n

    def position_of(self, m: int) -> Node:
        for k, comp in enumerate(self.rows, start=1):
            for i, row in enumerate(comp, start=1):
                for j, x in enumerate(row, start=1):
                    if x == m:
                        return (i, j, k)
        raise ValueError(f"{m} not in tableau")

    def component_of(self, m: int) -> int:
        return self.position_of(m)[2]

    def row_reading(self) -> tuple[int, ...]:
        return tuple(x for comp in self.rows for row in comp for x in row)

    def apply(self, w: Permutation) -> "StandardTableau":
        """Act on entries by w (entries m become (m)w); result must be standard."""
        return StandardTableau(
            self.shape,
            tuple(tuple(tuple(w(x) for x in row) for row in comp) for comp in self.rows),
        )

    def restricted_shape(self, m: int) -> MultiComposition:
        """Shape of the subtableau holding entries 1..m."""
        comps = []
        for comp in self.rows:
            comps.append(tuple(sum(1 for x in row if x <= m) for row in comp))
        return MultiComposition(comps)

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other: "StandardTableau"):
        return self.row_reading() < other.row_reading()

    def __repr__(self):
        return f"StandardTableau({[ [list(r) for r in comp] for comp in self.rows ]})"

    def serialize(self) -> str:
        return "[" + ",".join(
            "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in comp) + "]"
            for comp in self.rows
        ) + "]"


def t_row(mu: MultiComposition) -> StandardTableau:
    """The row-reading superstandard tableau t^mu (1..n along the rows)."""
    rows = []
    counter = 1
    for comp in mu.components:
        comp_rows = []
        for row_len in comp:
            comp_rows.append(tuple(range(counter, counter + row_len)))
            counter += row_len
        rows.append(tuple(comp_rows))
    if isinstance(mu, MultiPartition):
        return StandardTableau(mu, rows)
    # Row tableaux of non-partition shapes occur only as intermediate data;
    # bypass the column check by building through the shape's sorted form.
    return _RowTableau(mu, rows)


class _RowTableau(StandardTableau):
    """Row-reading tableau of a general multicomposition (no column checks)."""

    def __init__(self, shape: MultiComposition, rows):
        self.shape = shape  # type: ignore[assignment]
        self.rows = tuple(tuple(tuple(row) for row in comp) for comp in rows)


def d_of(t: StandardTableau) -> Permutation:
    """The permutation with t = t^shape * d(t) (a distinguished coset rep)."""
    base = t_row(t.shape)
    images = [0] * t.n
    flat_base = base.row_reading()
    flat_t = t.row_reading()
    for src, dst in zip(flat_base, flat_t):
        images[src - 1] = dst
    return Permutation(images)


def tableau_dominates(s: StandardTableau, t: StandardTableau) -> bool:
    """Tableau dominance: every restriction shape of s dominates that of t."""
    if s.n != t.n or s.shape.r != t.shape.r:
        raise ValueError("tableaux are not comparable")
    for m in range(1, s.n + 1):
        if not dominates(s.restricted_shape(m), t.restricted_shape(m)):
            return False
    return True


def std_tableaux(lam: MultiPartition) -> list[StandardTableau]:
    """All standard tableaux of shape lam, in row-reading lexicographic order."""
    n = lam.n
    shape = lam.components
    results: list[StandardTableau] = []

    # Fill entries 1..n one at a time; state = number of filled cells per row.
    filled = [[0] * len(comp) for comp in shape]
    placement: dict[Node, int] = {}

    def rec(m: int):
        if m > n:
            rows = []
            for k, comp in enumerate(shape, start=1):
                comp_rows = []
                for i, row_len in enumerate(comp, start=1):
                    comp_rows.append(tuple(placement[(i, j, k)] for j in range(1, row_len + 1)))
                rows.append(tuple(comp_rows))
            results.append(StandardTableau(lam, rows))
            return
        for k, comp in enumerate(shape, start=1):
            for i, row_len in enumerate(comp, start=1):
                j = filled[k - 1][i - 1] + 1
                if j > row_len:
                    continue
                if i > 1 and filled[k - 1][i - 2] < j:
                    continue
                filled[k - 1][i - 1] = j
                placement[(i, j, k)] = m
                rec(m + 1)
                del placement[(i, j, k)]
                filled[k - 1][i - 1] = j - 1

    rec(1)
    results.sort()
    return results


def hook_dimension(lam: MultiPartition) -> int:
    """The number of standard tableaux of shape lam, by the hook-length formula
    n! / prod of the hook lengths over the boxes of every component."""
    hooks = 1
    for comp in lam.components:
        for i, row_len in enumerate(comp):
            for j in range(row_len):
                below = sum(1 for other in comp[i + 1:] if other > j)
                hooks *= row_len - j + below
    return factorial(lam.n) // hooks


def filtered_tableaux(tabs: Sequence[StandardTableau], b: int, s: int, two_sided: bool) -> list[StandardTableau]:
    """The given tableaux with 1..b confined to the first s components.

    With ``two_sided`` also require b+1..n to sit in the last r-s components.
    """
    return [t for t in tabs
            if all((t.component_of(k) <= s) == (k <= b) for k in range(1, (t.shape.n if two_sided else b) + 1))]


def std_filtered(lam: MultiPartition, b: int, s: int, two_sided: bool) -> list[StandardTableau]:
    """The standard tableaux of lam that `filtered_tableaux` keeps."""
    return filtered_tableaux(std_tableaux(lam), b, s, two_sided)


# --- semistandard tableaux -------------------------------------------------

Pair = tuple[int, int]  # entry (i, k): row i of component k


def pair_key(entry: Pair) -> tuple[int, int]:
    """Entries compare component-first: (i,k) < (j,l) iff k<l or (k=l and i<j)."""
    i, k = entry
    return (k, i)


class SemistandardTableau:
    """A semistandard filling of [lam] by pairs (i, k), of a given type mu."""

    __slots__ = ("shape", "mu", "rows")

    def __init__(self, shape: MultiPartition, mu: MultiComposition, rows):
        self.shape = shape
        self.mu = mu
        self.rows = tuple(tuple(tuple(tuple(e) for e in row) for row in comp) for comp in rows)

    def __eq__(self, other):
        return isinstance(other, SemistandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other: "SemistandardTableau"):
        return self.rows < other.rows

    def __repr__(self):
        return f"SemistandardTableau({[ [list(map(tuple, r)) for r in comp] for comp in self.rows ]})"

    def is_semistandard(self) -> bool:
        for c, comp in enumerate(self.rows, start=1):
            for row in comp:
                for e in row:
                    if e[1] < c:
                        return False
                for a, b2 in zip(row, row[1:]):
                    if pair_key(a) > pair_key(b2):
                        return False
            for i in range(len(comp) - 1):
                for j in range(len(comp[i + 1])):
                    if pair_key(comp[i][j]) >= pair_key(comp[i + 1][j]):
                        return False
        return True


def type_multiset(mu: MultiComposition) -> list[Pair]:
    """The multiset of entries of type mu: mu_i^{(k)} copies of (i, k)."""
    out = []
    for k, comp in enumerate(mu.components, start=1):
        for i, count in enumerate(comp, start=1):
            out.extend([(i, k)] * count)
    return out


def mu_map(t: StandardTableau, mu: MultiComposition) -> SemistandardTableau:
    """Replace each entry m by (i, k) where m sits in row i, component k of t^mu."""
    if t.n != mu.n:
        raise ValueError("sizes differ")
    base = t_row(mu)
    where: dict[int, Pair] = {}
    for k, comp in enumerate(base.rows, start=1):
        for i, row in enumerate(comp, start=1):
            for m in row:
                where[m] = (i, k)
    rows = tuple(
        tuple(tuple(where[x] for x in row) for row in comp) for comp in t.rows
    )
    return SemistandardTableau(t.shape, mu, rows)


def semistandard(lam: MultiPartition, mu: MultiComposition) -> list[SemistandardTableau]:
    """All semistandard lam-tableaux of type mu."""
    if lam.n != mu.n:
        raise ValueError("sizes differ")
    supply: dict[Pair, int] = {}
    for e in type_multiset(mu):
        supply[e] = supply.get(e, 0) + 1
    cells: list[Node] = lam.diagram()
    entries: dict[Node, Pair] = {}
    results: list[SemistandardTableau] = []

    def rec(idx: int):
        if idx == len(cells):
            rows = []
            for k, comp in enumerate(lam.components, start=1):
                comp_rows = []
                for i, row_len in enumerate(comp, start=1):
                    comp_rows.append(tuple(entries[(i, j, k)] for j in range(1, row_len + 1)))
                rows.append(tuple(comp_rows))
            results.append(SemistandardTableau(lam, mu, rows))
            return
        i, j, k = cells[idx]
        for e in sorted(supply, key=pair_key):
            if supply[e] == 0:
                continue
            if e[1] < k:
                continue
            if j > 1 and pair_key(entries[(i, j - 1, k)]) > pair_key(e):
                continue
            if i > 1 and pair_key(entries[(i - 1, j, k)]) >= pair_key(e):
                continue
            supply[e] -= 1
            entries[(i, j, k)] = e
            rec(idx + 1)
            del entries[(i, j, k)]
            supply[e] += 1

    rec(0)
    results.sort()
    return results


# --- residues and contents -------------------------------------------------


def residue(node: Node, params) -> object:
    """The residue q^{j-i} Q_k of the node (i, j, k)."""
    i, j, k = node
    return params.q_power(j - i) * params.Q[k - 1]


def content(lam: MultiComposition, params) -> tuple:
    """The multiset of residues of all nodes, as a sorted tuple."""
    values = [residue(x, params) for x in lam.diagram()]
    return tuple(sorted(values))


def tableau_residue(t: StandardTableau, m: int, params) -> object:
    """Residue of the entry m inside t."""
    return residue(t.position_of(m), params)


# --- the pairing bijection for split tableaux -------------------------------


def pair_join(s1: StandardTableau, s2: StandardTableau, n: int) -> StandardTableau:
    """Concatenate a size-b tableau and a size-(n-b) tableau into one of size n.

    The entries of s2 are pushed up by b = s1.n (the action of w_{n-b,b}),
    so the result has 1..b in the first block of components and b+1..n in the
    second; it lands in the two-sided filtered set of the joined shape.
    """
    b = s1.n
    if s1.n + s2.n != n:
        raise ValueError("sizes do not add up")
    shape = join_multipartitions(
        MultiPartition(s1.shape.components), MultiPartition(s2.shape.components)
    )
    rows = s1.rows + tuple(
        tuple(tuple(x + b for x in row) for row in comp) for comp in s2.rows
    )
    return StandardTableau(shape, rows)


def pair_split(t: StandardTableau, s: int) -> tuple[StandardTableau, StandardTableau]:
    """Inverse of `pair_join`: split at component s and renumber the tail."""
    sigma = MultiPartition(t.shape.components[:s])
    tau = MultiPartition(t.shape.components[s:])
    b = sigma.n
    first = t.rows[:s]
    for comp in first:
        for row in comp:
            if any(x > b for x in row):
                raise ValueError("tableau is not split at the component boundary")
    second = tuple(
        tuple(tuple(x - b for x in row) for row in comp) for comp in t.rows[s:]
    )
    return StandardTableau(sigma, first), StandardTableau(tau, second)
