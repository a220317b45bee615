"""The Ariki-Koike algebra H_{q,Q}(n) in its normal-form basis.

Elements are sparse linear combinations of the rank-r^n.n! basis

    L^d T_w = L_1^{d_1} L_2^{d_2} ... L_n^{d_n} T_w,   0 <= d_m <= r-1,  w in S_n,

where L_1 = T_0 and L_{i+1} = q^{-1} T_i L_i T_i.  Products are computed by
rewriting, in two steps: the terms c L^d T_w of the right factor are
gathered per permutation w.  As T_1 is the identity, the terms at w = 1 fold
times L^d straight into the product (for d = 0 through the identity entry of
the exponent-0 table).  The terms at each other w make one head H_w, the sum
of c times the left factor times L^d (folded times L^d, or the left factor
itself for d = 0), and then each head is folded times T_w once, so a product
makes one T fold per distinct w != 1 of its right factor; the steps'
own derivations fold times T_1 nowhere either.  `_fold` applies
a step to every monomial of its input and looks the step's result up in a
table, one per (step, argument), kept for the lifetime of the algebra; it
calls the step only on a miss, so each step runs once per (monomial,
argument).  These tables, `_steps`, are the engine's one memo: `_rule`
reads the rules used outside a fold (T_x L^d, the normal form of L^exp T_w,
L_m^r) from them too.

Step 1, times L^d: (L^a T_x) L^d = L^a (T_x L^d).  T_x L^d is computed once
per (x, d) by pushing L^d leftward through a reduced word of x, one T_i at a
time: T_i (L^f T_y) = (T_i L^f) T_y, with the local moves

    T_i L_j             = L_j T_i                                   (j != i, i+1),
    T_i L_i^a L_{i+1}^b = L_i^b L_{i+1}^a T_i
                          - (q-1) sum_{k=1}^{a-b} L_i^{a-k} L_{i+1}^{b+k}   (a >= b),
    T_i L_i^a L_{i+1}^b = L_i^b L_{i+1}^a T_i
                          + (q-1) sum_{k=1}^{b-a} L_i^{b-k} L_{i+1}^{a+k}   (a < b),

which never raise an exponent above the largest of d, and then step 2 for
the T_y.  Each term L^f T_y of T_x L^d then becomes L^{a+f} T_y, brought to
normal form below.

Step 2, times T_w: L^h T_y T_w = L^h (T_y T_w), so an entry at h > 0 is the
entry at h = 0 shifted, and the table at h = 0 is the Hecke table: T_y T_1 is
T_y, T_y T_s = T_{ys} if l(ys) > l(y), else q T_{ys} + (q-1) T_y (the Hecke
rule), and any other T_y T_w is one fold (T_y T_v) T_s, for w = v s with
l(w) = l(v) + 1 and s = s_i for the first right descent i of w, so no
reduced word is walked.

An exponent that overflows to d_m >= r is eliminated through the normal form
of L_m^r, computed once per m by induction on m: the cyclotomic relation
handles m = 1, and

    L_m^r = q^{-1} T_{m-1} L_{m-1}^r T_{m-1}
            + q^{-1}(q-1) * sum_{k=1}^{r-1} T_{m-1} L_{m-1}^{r-k} L_m^k

descends to m - 1 without ever re-creating an out-of-bound power.  Each
substitution strictly decreases the r-adic weight sum_m d_m r^m, so the
rewriting terminates; confluence is certified by the closure, associativity
and defining-relation test batteries, and by a test that folds every product
of two basis monomials a second way, one generator at a time, rather than by
proof.

The fold computes with plain ints, and every Element is kept in the same
canonical int form (den, {code: int}), standing for {monomial: int / den}:
over Q, den is the least common denominator and no int is zero; over GF(p),
den is 1 and the ints are residues in 1..p-1 (the field's `canonical` puts a
result in this form).  A product adds every cached step into one accumulator
(D, {code: int}) with int multiply-adds; only a step whose denominator does
not divide D rescales the accumulator to their lcm, which is rare, as the
denominators are mostly powers of the numerator of q.  Over GF(p) nothing is
reduced mod p inside the fold, and an entry that cancels stays in the
accumulator as a zero: zeros are dropped only by the field's `canonical`,
which every exit of the engine calls (a step result cached straight from a
fold, as `_Ti_times` is, may hold zeros and is read only as a step).

A monomial L^d T_w is one int, its code dindex(d) * n! + rank(w): its
position in `basis()`, where rank(w) is w's position in
`sorted_permutations(n)` (the identity is 0).  Field values on (d, Permutation)
keys appear only where something outside the engine reads or writes them:
`element` and `scale` take them in, and `Element.terms`, `serialize` and repr
give them out.  `left_mult_matrix(x)` lists the products x L^d T_w in int
form, `coordinates`, `right_annihilator` and `condition_rows` solve and take
kernels from such products, `ideal_generators` finds right-ideal generators
of such a kernel, `right_ideal(y)` is the one record of y H that reads
them, and `TransitionMatrix.express` gives cellular coordinates in int form
too.  The transition is the one place a cell element m_st is computed;
`m_st` and `m_semi` read its forms.  The rewriting rules themselves are
derived in the same int form, once per key: T_x T_w is one fold step from
T_x T_v, T_x L^d is a fold along a reduced word of x, whose steps read q
and q-1 from one int form of the pair, and L_m^r (m >= 2) is built from int
forms by `_product_into`.  Field values enter the rules only as q and Q.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from functools import cached_property
from math import factorial, gcd, lcm
from operator import add

from .fields import ComputationError, Params, SizeGuardError
from .linalg import Echelon, combination, dense, kernel_basis, solve, sparse, transpose
from .perms import Permutation, identity, simple_transposition, sorted_permutations, w_ab, young_subgroup
from .tableaux import (
    MultiComposition,
    MultiPartition,
    SemistandardTableau,
    StandardTableau,
    d_of,
    mu_map,
    multipartitions,
    std_tableaux,
)

Monomial = tuple[tuple[int, ...], Permutation]

DEFAULT_MAX_DIM = 5000


class Element:
    """A sparse element of the algebra in the product engine's canonical int
    form: den and {code: int} stand for {basis()[code]: int / den}.  Over Q,
    den is the least common denominator and no int is zero; over GF(p), den
    is 1 and the ints are residues in 1..p-1.  Equal elements therefore have
    equal forms, and `==` and `hash` compare ints.  An Element is never
    changed in place, so its dict may be shared with the algebra's caches."""

    __slots__ = ("alg", "den", "ints")

    def __init__(self, alg: "ArikiKoikeAlgebra", den: int, ints: dict):
        self.alg = alg
        self.den = den
        self.ints = ints

    @property
    def form(self) -> tuple[int, dict]:
        """(den, ints), as the algebra's caches and memo keep an element."""
        return self.den, self.ints

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        a, b = self.den, other.den
        den = a // gcd(a, b) * b
        out = {k: v * (den // a) for k, v in self.ints.items()}
        get, m = out.get, den // b
        for k, v in other.ints.items():
            out[k] = get(k, 0) + v * m
        return Element(self.alg, *self.alg.field.canonical(den, out))

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element(self.alg, *self.alg.field.canonical(self.den, {k: -v for k, v in self.ints.items()}))

    def scale(self, c) -> "Element":
        field = self.alg.field
        cden, cnum = field.to_ints({0: field(c)})
        return Element(self.alg, *field.canonical(self.den * cden, {k: v * cnum[0] for k, v in self.ints.items()}))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        alg = self.alg
        return Element(alg, *alg.field.canonical(*alg._product_into([1, {}], *self.form, *other.form)))

    def __eq__(self, other):
        return (isinstance(other, Element) and self.alg is other.alg
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.den, frozenset(self.ints.items())))

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def terms(self) -> dict:
        """{(d, Permutation): field value}: a new dict on each call."""
        basis = self.alg.basis()
        return {basis[k]: c for k, c in self.alg.field.from_ints(self.den, self.ints).items()}

    def star(self) -> "Element":
        """The anti-automorphism fixing every generator: T_w -> T_{w^{-1}}, L_k -> L_k.
        The terms c L^d T_w are gathered per w, and each sum of c L^d is
        multiplied by T_{w^{-1}} in one product."""
        alg = self.alg
        parts: dict[int, dict] = {}
        for code, c in self.ints.items():
            w = code % alg._nperm
            parts.setdefault(w, {})[code - w] = c
        acc = [1, {}]
        for w, ls in parts.items():
            alg._product_into(acc, 1, {alg._rank[alg._perms[w].inverse()]: 1}, self.den, ls)
        return Element(alg, *alg.field.canonical(*acc))

    def __repr__(self):
        if not self.ints:
            return "<0>"
        return "<" + " + ".join(f"{c}*{_mono_str(m)}" for m, c in sorted(self.terms.items())) + ">"

    def serialize(self) -> str:
        """One term per line: ``coeff * L1^d1 ... Ln^dn * T[i1,...,in]``."""
        lines = []
        for (d, w), c in sorted(self.terms.items()):
            lpart = " ".join(f"L{k}^{d[k - 1]}" for k in range(1, self.alg.n + 1)) or "1"
            wpart = "T[" + ",".join(map(str, w)) + "]"
            lines.append(f"{c} * {lpart} * {wpart}")
        return "\n".join(lines)

    def _check(self, other: "Element"):
        if self.alg is not other.alg:
            raise ValueError("elements belong to different algebras")


def solve_rows(field, rows, n: int, k: int) -> tuple[list[list], list[list]]:
    """Int-form rows over n unknowns followed by k right-hand sides, as the
    dense matrix and the right-hand sides that `linalg.solve` takes."""
    full = [dense(field, row, n + k) for row in rows]
    return [row[:n] for row in full], [[row[n + j] for row in full] for j in range(k)]


def _mono_str(mono: Monomial) -> str:
    d, w = mono
    lpart = "".join(f"L{k}^{d[k-1]}" for k in range(1, len(d) + 1) if d[k - 1])
    return (lpart or "1") + ("" if w.is_identity() else "T" + str(list(w)))


class ArikiKoikeAlgebra:
    """Arithmetic context for H_{q,Q}(n): caches, basis, structural elements."""

    def __init__(self, params: Params, max_dim: int = DEFAULT_MAX_DIM):
        self.params = params
        self.field = params.field
        self.n = params.n
        self.r = params.r
        self.q = params.q
        self.Q = params.Q
        self.max_dim = max_dim
        # monomial codes: L^d T_w is dindex(d) * n! + rank(w), its position in basis();
        # the tables behind them are built on first use, so a refused size builds none
        self._nperm, self._nexp = factorial(self.n), self.r ** self.n
        # the engine's one memo, the step tables of _fold and _rule: (step name, arg) -> {key: step(key, arg)}
        self._steps: defaultdict[tuple, dict] = defaultdict(dict)
        self._derived: dict = {}
        # q and q - 1 as one int form (den, {0: q, 1: q - 1}); key 1 is absent at q = 1
        self._q_form = self.field.canonical(*self.field.to_ints({0: self.q, 1: self.q - self.field.one}))

    @cached_property
    def _perms(self) -> tuple[Permutation, ...]:
        return sorted_permutations(self.n)

    @cached_property
    def _rank(self) -> dict[Permutation, int]:
        return {w: i for i, w in enumerate(self._perms)}

    @cached_property
    def _descent(self) -> list[tuple[int, int] | None]:
        """Per rank of w, None for the identity, else the ranks of v and s = s_i
        with w = v s and l(w) = l(v) + 1, for the first right descent i of w."""
        return [None] + [(self._rank[w.times_s(i)], self._rank[simple_transposition(i, self.n)])
                         for w in self._perms[1:] for i in w.right_descents()[:1]]

    @cached_property
    def _exps(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.r), repeat=self.n))

    @cached_property
    def _dindex(self) -> dict[tuple[int, ...], int]:
        return {d: i for i, d in enumerate(self._exps)}

    def derived(self, key, build):
        """Return `build()` for `key`, built on the first call and kept with the
        algebra: the one memo of everything derived from it (basis, transition,
        Specht modules, Gram matrices, decomposition data, factor algebras).

        Nothing kept here refers back to the algebra strongly (elements are
        kept as their int forms, records such as the transition hold it weakly),
        so a finished run's algebra is freed by reference counting alone."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def shape_table(self, enum, *args) -> tuple:
        """`enum(*args)` as a tuple, for an enumerator of `tableaux`
        (multipartitions, multicompositions, standard or semistandard
        tableaux), enumerated once per algebra: the shape tables live in the
        memo under (enum's name, *args) and die with it."""
        return self.derived((enum.__name__, *args), lambda: tuple(enum(*args)))

    # -- basic elements ------------------------------------------------------

    def zero(self) -> Element:
        return Element(self, 1, {})

    def one(self) -> Element:
        return Element(self, 1, {0: 1})

    def element(self, terms: dict) -> Element:
        """The element sum c L^d T_w of field values c on monomials (d, w)."""
        return Element(self, *self.field.to_ints({self.code(d, w): c for (d, w), c in terms.items() if c}))

    def from_scalar(self, c) -> Element:
        return self.one().scale(c)

    def gen_T(self, i: int) -> Element:
        """The generator T_i; T_0 is L_1."""
        if i == 0:
            return self.gen_L(1)
        if not (1 <= i <= self.n - 1):
            raise ValueError(f"T_{i} does not exist for n={self.n}")
        return Element(self, 1, {self._rank[simple_transposition(i, self.n)]: 1})

    def gen_L(self, k: int) -> Element:
        """The commuting element L_k (already reduced when r = 1)."""
        if not (1 <= k <= self.n):
            raise ValueError(f"L_{k} does not exist for n={self.n}")
        exp = tuple(1 if m == k else 0 for m in range(1, self.n + 1))
        return Element(self, *self._rule(self._normal_L, exp, 0))

    def t_elem(self, w: Permutation) -> Element:
        if w.n != self.n:
            raise ValueError("permutation size mismatch")
        return Element(self, 1, {self._rank[w]: 1})

    # -- the canonical basis ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._nexp * self._nperm

    def basis(self) -> list[Monomial]:
        """All normal-form monomials, exponents-lex then permutation-lex; the
        monomial with code k is at position k."""
        return self.derived("basis", lambda: [(d, w) for d in self._exps for w in self._perms])

    def code(self, d: tuple[int, ...], w: Permutation) -> int:
        """The code of L^d T_w: its position in basis()."""
        return self._dindex[d] * self._nperm + self._rank[w]

    def left_mult_matrix(self, elem: Element) -> list[tuple[int, dict]]:
        """The products elem * L^d T_w over the canonical basis, as int forms:
        entry k is (elem * basis()[k]).form.  elem L^d is folded once per d,
        which is the entry at w = 1, and then times each T_w, w != 1."""
        canonical = self.field.canonical
        out = []
        for d in range(self._nexp):
            head = self._fold(*elem.form, self._mono_times_L, d)
            out.append(canonical(*head))
            for w in range(1, self._nperm):
                out.append(canonical(*self._fold(*head, self._mono_times_T, w)))
        return out

    def right_ideal(self, y: Element) -> "RightIdeal":
        """The one record of y H, kept under y's int form: y is multiplied out once."""
        return self.derived(("right_ideal", y.den, frozenset(y.ints.items())), lambda: RightIdeal(self, y))

    def coordinates(self, forms: list, targets: list) -> list[tuple[int, dict] | None]:
        """For each target t, a solution z of sum_i z_i forms[i] = t (free
        variables 0) in int form, or None: one `solve` on the coordinate rows
        of all forms."""
        field, rows = self.field, transpose(self.field, forms + targets, self.dim)
        return [None if z is None else field.to_ints(sparse(z))
                for z in solve(*solve_rows(field, rows, len(forms), len(targets)), field)]

    def right_annihilator(self, products: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
        """{h : x h = 0}, a basis in int form, for the products x L^d T_w of an
        element x (`left_mult_matrix(x)`): the kernel of their coordinate rows."""
        return kernel_basis(Echelon(self.field, transpose(self.field, products, self.dim)), self.dim)

    def condition_rows(self, forms: list[tuple[int, dict]], kernel: list[tuple[int, dict]]):
        """The rows of the conditions (sum_i z_i x_i) k = 0, x_i = forms[i], for each
        int form k of `kernel`, yielded k by k: one engine product x_i k per i,
        then the nonzero coordinate rows of the products (`transpose`)."""
        canonical = self.field.canonical
        for kden, kints in kernel:
            prods = [canonical(*self._product_into([1, {}], den, ints, kden, kints)) for den, ints in forms]
            yield from (row for row in transpose(self.field, prods, self.dim) if row[1])

    def ideal_generators(self, kernel: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
        """Generators k_1..k_g of span(kernel) as a right ideal, in int form.

        A kernel vector that the ideal built so far does not contain becomes a
        generator, and its products k L^d T_w (from its own `right_ideal`
        record) join the ideal's echelon.  Certified: unless each generator
        lies in the ideal (then every kernel vector does) and the ideal has
        dimension len(kernel), so that it is span(kernel), this raises ComputationError."""
        ideal, gens = Echelon(self.field), []
        for k in kernel:
            if not ideal.contains(*k):
                gens.append(k)
                for form in self.right_ideal(Element(self, *k)).products:
                    ideal.add_form(*form)
        if len(ideal) != len(kernel) or not all(ideal.contains(*k) for k in gens):
            raise ComputationError(f"the kernel (dim {len(kernel)}) is not a right ideal: "
                                   f"{len(gens)} of its vectors generate a right ideal of dim {len(ideal)}")
        return gens

    # -- multiplication engine -------------------------------------------------

    def _gen_word(self, mono: Monomial) -> tuple[list[int], int]:
        """Generator word for L^d T_w and the power e with L^d T_w = q^{-e} * word."""
        d, w = mono
        word: list[int] = []
        e = 0
        for k in range(1, self.n + 1):
            for _ in range(d[k - 1]):
                word.extend(range(k - 1, 0, -1))
                word.append(0)
                word.extend(range(1, k))
                e += k - 1
        word.extend(w.reduced_word())
        return word, e

    def _product_into(self, acc: list, aden: int, aints: dict, bden: int, bints: dict) -> list:
        """acc += (aints / aden) * (bints / bden): the terms c L^d T_w of the
        right factor are gathered per w.  The terms at w = 1 fold times L^d
        straight into acc (d = 0 through the identity entry of the exponent-0
        table).  Every other group becomes one head, the sum of c times the
        left factor times L^d (for d = 0 the left factor itself, scaled; else
        a fold times L^d), and each head folds times T_w once."""
        den, parts = aden * bden, {}
        for code, c in bints.items():
            d, w = divmod(code, self._nperm)
            parts.setdefault(w, {})[d] = c
        for d, c in parts.pop(0, {}).items():  # rank 0 is the identity
            self._fold(den, aints, self._mono_times_L, d, acc, c)
        for w, terms in parts.items():
            c = terms.pop(0, 0)
            head = [den, {k: c * v for k, v in aints.items()} if c else {}]
            for d, c in terms.items():
                self._fold(den, aints, self._mono_times_L, d, head, c)
            self._fold(*head, self._mono_times_T, w, acc)
        return acc

    def _fold(self, den: int, terms: dict, step, arg, acc: list | None = None, scale: int = 1) -> list:
        """acc += (scale / den) * sum c * step(code, arg) over the terms, in plain ints.

        acc = [D, {code: int}] stands for {code: int / D} (a new one by default),
        and a step returns (sden, {code: int}).  The step's result for each code
        is looked up in its table, one per (step, arg), and the step is called
        only on a miss.  When den * sden does not divide D, acc is first
        rescaled to the lcm; over GF(p) every denominator is 1 and nothing is
        reduced mod p here.  Entries that cancel stay in acc as zeros, to be
        dropped by the field's `canonical`."""
        if acc is None:
            acc = [1, {}]
        D, out = acc
        get = out.get
        table = self._steps[step.__name__, arg]
        cached = table.get
        for code, c in terms.items():
            found = cached(code)
            if found is None:
                found = table[code] = step(code, arg)
            sden, sterms = found
            e = den * sden
            if D % e:
                m = e // gcd(D, e)
                for k, v in out.items():
                    out[k] = v * m
                D *= m
            c *= scale * (D // e)
            for k, v in sterms.items():
                out[k] = get(k, 0) + c * v
        acc[0] = D
        return acc

    def _rule(self, step, key, arg=None) -> tuple[int, dict]:
        """step(key, arg), read from the table `_fold` reads it from; the step is called only on a miss."""
        table = self._steps[step.__name__, arg]
        if key not in table:
            table[key] = step(key, arg)
        return table[key]

    def _mono_times_gen(self, mono: Monomial, g: int) -> dict:
        """mono * T_g in normal form, where T_0 = L_1, as {code: int}."""
        return (self.element({mono: self.field.one}) * self.gen_T(g)).ints

    def _mono_times_L(self, code: int, d: int) -> tuple[int, dict]:
        """(L^a T_x) L^d in normal form, for the codes of L^a T_x and of L^d:
        T_x L^d = sum c L^f T_y, then L^{a+f} T_y by _normal_L."""
        a, x = divmod(code, self._nperm)
        return self.field.canonical(*self._fold(*self._rule(self._T_times_L, x, d), self._L_times_normal,
                                                self._exps[a]))

    def _L_times_normal(self, code: int, a: tuple[int, ...]) -> tuple[int, dict]:
        """L^a (L^f T_y) in normal form, for the code of L^f T_y."""
        f, y = divmod(code, self._nperm)
        return self._rule(self._normal_L, tuple(map(add, a, self._exps[f])), y)

    def _mono_times_T(self, code: int, w: int) -> tuple[int, dict]:
        """(L^d T_x) T_w in normal form, for the code of L^d T_x and the rank
        of w: at d = 0 the Hecke table (step 2 of the module docstring), and
        at d > 0 the entry at d = 0 with L^d's base added to its codes."""
        x = code % self._nperm
        base = code - x
        if base:
            den, prod = self._rule(self._mono_times_T, x, w)
            return den, {base + y: c for y, c in prod.items()}
        if not w:  # rank 0 is the identity
            return 1, {x: 1}
        v, s = self._descent[w]
        if v:
            return self.field.canonical(*self._fold(*self._rule(self._mono_times_T, x, v), self._mono_times_T, s))
        y = self._perms[x]
        ys = y * self._perms[s]
        if ys.length() > y.length():
            return 1, {self._rank[ys]: 1}
        qden, qints = self._q_form
        return qden, {(self._rank[ys], x)[k]: c for k, c in qints.items()}

    def _T_times_L(self, x: int, d: int) -> tuple[int, dict]:
        """T_x L^d in int form on codes, for the rank of x and the code of L^d:
        L^d folded leftward through a reduced word of x, one T_i at a time; no
        exponent of a term exceeds the largest of d."""
        acc = 1, {d * self._nperm: 1}
        for i in reversed(self._perms[x].reduced_word()):
            acc = self._fold(*acc, self._Ti_times, i)
        return self.field.canonical(*acc)

    def _Ti_times(self, code: int, i: int) -> tuple[int, dict]:
        """T_i (L^f T_y) = (T_i L^f) T_y in normal form, for the code of L^f T_y:
        the local move T_i L_i^a L_{i+1}^b = L_i^b L_{i+1}^a T_i
        -+ (q-1) sum_{k=1}^{c} L_i^{m+c-k} L_{i+1}^{m+k}, with m = min(a, b),
        c = |a-b| and the minus for a > b, then each term times T_y (the move
        itself at y = 1)."""
        f, y = divmod(code, self._nperm)
        e = list(self._exps[f])
        a, b = e[i - 1], e[i]
        qden, qints = self._q_form
        e[i - 1], e[i] = b, a
        move = {self._dindex[tuple(e)] * self._nperm + self._rank[simple_transposition(i, self.n)]: qden}
        if 1 in qints:
            m, c = min(a, b), abs(a - b)
            sign = -qints[1] if a > b else qints[1]
            for k in range(1, c + 1):
                e[i - 1], e[i] = m + c - k, m + k
                move[self._dindex[tuple(e)] * self._nperm] = sign
        return self._fold(qden, move, self._mono_times_T, y) if y else (qden, move)

    def _L_pow_r(self, m: int, _=None) -> tuple[int, dict]:
        """The normal form of L_m^r in int form on codes, supported on positions <= m."""
        field = self.field
        if m == 1:
            # cyclotomic relation: L_1^r = sum_j (-1)^{r-1-j} e_{r-j}(Q) L_1^j
            elem_sym = [field.one] + [field.zero] * self.r
            for Qt in self.Q:
                for j in range(self.r, 0, -1):
                    elem_sym[j] = elem_sym[j] + elem_sym[j - 1] * Qt
            return field.canonical(*field.to_ints({
                self.code((j,) + (0,) * (self.n - 1), identity(self.n)): (-field.one) ** (self.r - 1 - j)
                * elem_sym[self.r - j] for j in range(self.r)}))
        # L_m^r = q^{-1} T_{m-1} (L_{m-1}^r T_{m-1} + (q-1) sum_{k=1}^{r-1} L_{m-1}^{r-k} L_m^k);
        # T_{m-1} times a term with exponents below r leaves them below r
        t = self._rank[simple_transposition(m - 1, self.n)]
        qden, qints = self._q_form
        t_over_q = field.to_ints({t: field.one / self.q})
        tail = {self.code((0,) * (m - 2) + (self.r - k, k) + (0,) * (self.n - m), identity(self.n)):
                qints.get(1, 0) for k in range(1, self.r)}
        acc = self._product_into([1, {}], *t_over_q, *field.canonical(
            *self._product_into([1, {}], *self._rule(self._L_pow_r, m - 1), 1, {t: 1})))
        return field.canonical(*self._product_into(acc, *t_over_q, qden, tail))

    def _normal_L(self, exp: tuple[int, ...], w: int) -> tuple[int, dict]:
        """Normal form of L^exp T_w in int form on codes, for the rank of w,
        where the exponents may reach or pass r: for the first m with
        exp_m >= r, L^{exp - r e_m} times the normal form of L_m^r, times T_w
        (folded for w != 1 only)."""
        m = next((i + 1 for i, x in enumerate(exp) if x >= self.r), None)
        if m is None:
            return 1, {self._dindex[exp] * self._nperm + w: 1}
        base = exp[:m - 1] + (exp[m - 1] - self.r,) + exp[m:]
        head = self._fold(*self._rule(self._L_pow_r, m), self._L_times_normal, base)
        return self.field.canonical(*(self._fold(*head, self._mono_times_T, w) if w else head))

    # -- structural elements ----------------------------------------------------

    def u_at(self, a: int, t: int) -> Element:
        """The product (L_1 - Q_t)(L_2 - Q_t)...(L_a - Q_t)."""
        if not (0 <= a <= self.n and 1 <= t <= self.r):
            raise ValueError("u_{a,t} index out of range")
        out = self.one()
        for k in range(1, a + 1):
            out = out * (self.gen_L(k) - self.from_scalar(self.Q[t - 1]))
        return out

    def u_seq(self, a: tuple[int, ...]) -> Element:
        """u_a = u_{a_1,1} u_{a_2,2} ... u_{a_r,r}."""
        if len(a) != self.r:
            raise ValueError("need one index per parameter")
        out = self.one()
        for t, at in enumerate(a, start=1):
            out = out * self.u_at(at, t)
        return out

    def u_plus(self, mu: MultiComposition) -> Element:
        """u_mu^+ with a_t = |mu^(1)| + ... + |mu^(t-1)|."""
        sizes = mu.component_sizes()
        acc = 0
        a = []
        for t in range(self.r):
            a.append(acc)
            acc += sizes[t]
        return self.u_seq(tuple(a))

    def u_minus(self, m: int) -> Element:
        """prod_{t=1}^{s} (L_1 - Q_t)...(L_m - Q_t); needs the split point s."""
        s = self.params.require_split()
        out = self.one()
        for t in range(1, s + 1):
            out = out * self.u_at(m, t)
        return out

    def u_b_plus(self, b: int) -> Element:
        """prod_{t=s+1}^{r} (L_1 - Q_t)...(L_b - Q_t); needs the split point s."""
        s = self.params.require_split()
        out = self.one()
        for t in range(s + 1, self.r + 1):
            out = out * self.u_at(b, t)
        return out

    def x_lambda(self, lam: MultiComposition) -> Element:
        """The sum of T_w over the row stabilizer of t^lam."""
        one = self.field.one
        zero_exp = (0,) * self.n
        terms = {
            (zero_exp, w): one
            for w in young_subgroup([x for x in lam.row_lengths() if x], self.n)
        }
        return self.element(terms)

    def m_lambda(self, lam: MultiComposition) -> Element:
        """m_lambda = u_lambda^+ x_lambda, built once per lambda."""
        return Element(self, *self.derived(("m_lambda", lam), lambda: (self.u_plus(lam) * self.x_lambda(lam)).form))

    def m_st(self, s: StandardTableau, t: StandardTableau) -> Element:
        """The cell element m_st, read from the transition's forms."""
        if s.shape != t.shape:
            raise ValueError("tableaux have different shapes")
        trans = self.transition()
        return Element(self, *trans.forms[trans.index[s, t]])

    def m_semi(self, S: SemistandardTableau, T: SemistandardTableau) -> Element:
        """m_{ST} = sum of m_{st} over standard s, t with mu(s) = S and nu(t) = T:
        one combination of the transition's forms.  A standard t enters as
        mu_map(t, omega(n, r))."""
        if S.shape != T.shape:
            raise ValueError("shape mismatch")
        trans = self.transition()
        picked = {trans.index[s, t]: 1 for s in self._mu_fibre(S) for t in self._mu_fibre(T)}
        return Element(self, *combination(self.field, (1, picked), trans.forms))

    def _mu_fibre(self, S: SemistandardTableau) -> list[StandardTableau]:
        """The standard tableaux s of S's shape with mu_map(s, S.mu) = S, in
        `std_tableaux` order; the shape's tableaux are grouped by their image
        once per (shape, type)."""
        def group():
            out: dict = {}
            for s in self.shape_table(std_tableaux, S.shape):
                out.setdefault(mu_map(s, S.mu), []).append(s)
            return out
        return self.derived(("mu_map", S.shape, S.mu), group).get(S, [])

    # -- the splitting elements ---------------------------------------------------

    def v_b_elem(self, b: int) -> Element:
        """v_b = u_{n-b}^- T_{w_{n-b,b}} u_b^+, built once per b."""
        return Element(self, *self.derived(("v_b", b), lambda: self.theta_b(b, self.u_b_plus(b)).form))

    def theta_head(self, b: int) -> Element:
        """u_{n-b}^- T_{w_{n-b,b}}, the left factor of theta_b, built once per b."""
        if not (0 <= b <= self.n):
            raise ValueError(f"b={b} out of range")
        return Element(self, *self.derived(("theta_head", b), lambda: (
            self.u_minus(self.n - b) * self.t_elem(w_ab(self.n - b, b, self.n))).form))

    def theta_b(self, b: int, h: Element) -> Element:
        """theta_b(h) = u_{n-b}^- T_{w_{n-b,b}} h (membership of h in its domain is the caller's duty)."""
        return self.theta_head(b) * h

    # -- cellular transition -------------------------------------------------------

    def cell_data(self) -> list[tuple[MultiPartition, StandardTableau, StandardTableau]]:
        out = []
        for lam in self.shape_table(multipartitions, self.n, self.r):
            tabs = self.shape_table(std_tableaux, lam)
            for s in tabs:
                for t in tabs:
                    out.append((lam, s, t))
        return out

    def transition(self) -> "TransitionMatrix":
        if self.dim > self.max_dim:
            raise SizeGuardError(
                f"transition matrix has dimension {self.dim} > guard {self.max_dim}"
            )
        return self.derived("transition", lambda: TransitionMatrix(self))


class TransitionMatrix:
    """Change of basis between normal-form monomials and the cellular basis,
    forms[i] being m_st = T_{d(s)}^* m_lam T_{d(t)} of cells[i] in int form
    and index[s, t] = i: the one place a cell element is computed.

    Kept in its algebra's memo, so it holds the algebra only weakly."""

    def __init__(self, alg: ArikiKoikeAlgebra):
        self._alg = weakref.ref(alg)
        self.field = alg.field
        self.cells = alg.cell_data()
        if len(self.cells) != alg.dim:
            raise ValueError(f"cellular data count {len(self.cells)} != rank {alg.dim}")
        self.index = {(s, t): i for i, (_, s, t) in enumerate(self.cells)}
        # the cells of one first tableau s are consecutive: T_{d(s)}^* m_lam is formed once per s
        self.forms = []
        for (lam, s), cells in itertools.groupby(self.cells, key=lambda cell: cell[:2]):
            left = alg.t_elem(d_of(s).inverse()) * alg.m_lambda(lam)
            self.forms.extend((left * alg.t_elem(d_of(t))).form for _, _, t in cells)
        self._inverse: list[tuple[int, dict]] | None = None

    def inverse(self) -> list[tuple[int, dict]]:
        """Row k, in int form: the cellular coordinates of the monomial with
        code k.  The echelon of the rows (m_i | e_i) is (e_k | row k) at pivot
        k; a missing pivot k < dim raises ValueError."""
        if self._inverse is None:
            dim = len(self.forms)
            ech = Echelon(self.field, ((den, {**ints, dim + i: den}) for i, (den, ints) in enumerate(self.forms)))
            if any(k not in ech.rows for k in range(dim)):
                raise ValueError("matrix is singular")
            self._inverse = [(den, {c - dim: a for c, a in ints.items() if c >= dim})
                             for den, ints in (ech.rows[k] for k in range(dim))]
        return self._inverse

    def express(self, elem: Element) -> tuple[int, dict]:
        """Exact coordinates of elem in the cellular basis, in int form: entry
        i is the coefficient of m_st of cells[i]."""
        return combination(self.field, elem.form, self.inverse())

    def combine(self, coords: tuple[int, dict]) -> Element:
        """The element with cellular coordinates `coords` (as `express` gives them)."""
        return Element(self._alg(), *combination(self.field, coords, self.forms))


class RightIdeal:
    """The principal right ideal y H of an element y, each part built on its
    first read: the products y L^d T_w (int forms at the codes of L^d T_w),
    their echelon, rAnn(y), its right-ideal generators and W_y = {x : x k = 0
    for each generator k}, the images of y under the maps y H -> H, as an
    echelon.  Kept in the memo, so it holds the algebra only weakly."""

    def __init__(self, alg: ArikiKoikeAlgebra, y: Element):
        self._alg, self.form = weakref.ref(alg), y.form

    products = cached_property(lambda self: self._alg().left_mult_matrix(Element(self._alg(), *self.form)))
    span = cached_property(lambda self: Echelon(self._alg().field, self.products))
    annihilator = cached_property(lambda self: self._alg().right_annihilator(self.products))
    generators = cached_property(lambda self: self._alg().ideal_generators(self.annihilator))

    @cached_property
    def hom_images(self) -> Echelon:
        alg = self._alg()
        conditions = Echelon(alg.field, alg.condition_rows([(1, {i: 1}) for i in range(alg.dim)], self.generators))
        return Echelon(alg.field, kernel_basis(conditions, alg.dim))


def random_element(alg: ArikiKoikeAlgebra, rng, nterms: int = 4, coeff_range: int = 9) -> Element:
    """A reproducible sparse random element (for property tests): nterms
    random codes, each with coefficient randint(1, c) - randint(0, c // 2)."""
    ints: dict = {}
    for _ in range(nterms):
        k = rng.randrange(alg.dim)
        ints[k] = ints.get(k, 0) + rng.randint(1, coeff_range) - rng.randint(0, coeff_range // 2)
    return Element(alg, *alg.field.canonical(1, ints))
