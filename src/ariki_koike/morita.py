"""Verification of the Morita-splitting machinery.

Everything here revolves around the elements

    v_b   = u_{n-b}^- T_{w_{n-b,b}} u_b^+,          V^b = v_b H,
    theta_b : M^{omega_b} -> V^b,  h |-> u_{n-b}^- T_{w_{n-b,b}} h,

whose bases, filtrations, endomorphism rings and regular-representation
multiplicities carry the Morita equivalence of H with the direct sum of the
tensor products H_b (x) H_{n-b} of smaller Ariki-Koike algebras over the two
parameter groups Q_1..Q_s and Q_{s+1}..Q_r.  Each method performs the exact
identity or rank checks for one statement and returns machine-readable
results; everything is zero-tolerance.

The whole suite is gated on the nonvanishing of the separation product
f_s(q, Q): the statements are simply false without it, so when it vanishes
`MoritaSuite` refuses to run and raises `GateError` (the CLI maps this to
exit code 2).  The two unconditional identity families (the intertwining and
annihilation laws) are callable without the gate.

What the checks read at level b is one record, `Level`, kept in the memo.
V^b = v_b H and M^{omega_b} are read through their records `alg.right_ideal(y)`
(the products y L^d T_w, their echelon, rAnn(y), its right-ideal generators and
W_y, shared with the Schur battery); a rank of elements is one `Echelon` of
their forms.  "x kills rAnn(v_b)" is membership in W_{v_b}, the record's
echelon: no product by a generator is formed here.

`MoritaSuite.run_all()` is the one entry point to the battery: the rank count,
the per-level checks at every level b, then the checks across levels.
`run_all(b)` is the rank count and the per-level checks at level b alone.
"""

from __future__ import annotations

import itertools
import weakref
from functools import cached_property, partial
from math import comb, factorial, lcm

from .algebra import ArikiKoikeAlgebra, Element, RightIdeal
from .fields import ComputationError, GateError, Params, f_s_value
from .linalg import Echelon, combination, dense, mat_mul, solve, sparse, transpose
from .perms import coset_reps, shift_perm, w_ab
from .report import CheckResult, result
from .specht import decomposition_matrix, gram_matrix, specht_module
from .tableaux import (
    content,
    d_of,
    filtered_tableaux,
    hook_dimension,
    multipartitions,
    omega_b,
    pair_join,
    pair_split,
    sort_key,
    split_levels,
    split_multipartition,
    std_tableaux,
    strictly_dominates,
    tableau_dominates,
    tableau_residue,
)

REF_INTERTWINE = "generator intertwining laws for the splitting element v_b"
REF_ANNIHILATE = "one-sided cyclotomic annihilation of v_b"
REF_STAGGER = "vanishing of the higher-level products u_{n-b}^- T u_c^+ (c > b)"
REF_KERNEL = "theta_b kills the cell elements of higher level"
REF_LEADING = "triangular leading term of theta_b on split cell elements"
REF_VBASIS = "cell-indexed basis of V^b and of ker theta_b"
REF_COMPLEMENT = "ker theta_b = M^{omega_b} intersect the higher-level cell ideal"
REF_FILTRATION = "cell-module filtration of V^b with filtered-tableau multiplicities"
REF_HOM_VANISH = "Hom(V^b, V^c) = 0 for b != c (content separation)"
REF_END = "endomorphism basis of V^b indexed by pairs of split tableaux"
REF_REGULAR = "regular module decomposes as sum of binomial(n,b) copies of V^b"
REF_THETA_MAP = "coordinate embedding of H_b (x) H_{n-b} into H"
REF_BIMODULE = "left tensor-algebra module structure on V^b"
REF_FAITHFUL = "faithfulness of the tensor algebra acting on V^b"
REF_FREE = "V^b is free of rank binomial(n,b) over the tensor algebra"
REF_PAIRING = "pairing bijection between split tableau pairs and filtered tableaux"
REF_COUNT = "rank of V^b equals binomial(n,b) s^b b! (r-s)^{n-b} (n-b)!"
REF_FACTOR_S = "cell-module dimension factorization across the split"
REF_FACTOR_D = "simple-module dimension factorization across the split"
REF_FACTOR_DEC = "decomposition numbers factor as products across the split"

# Up to this n, Hom(V^b, V^c) = 0 is also solved directly, beside the content
# separation; the direct system has n * rank V^b * rank V^c rows.
DIRECT_HOM_MAX_N = 3
DUMP_TERMS = 4  # terms of an element that a failure row shows

GATE_MESSAGE = (
    "Morita hypothesis violated: the separation product f_s(q,Q) = "
    "prod (q^a Q_i - Q_j) over i <= s < j, |a| < n vanishes; the splitting "
    "theorems require it to be invertible"
)


def _dump(elem: Element) -> str:
    """Compact element dump for failure reports: at most DUMP_TERMS terms."""
    lines = elem.serialize().splitlines()
    shown = "; ".join(lines[:DUMP_TERMS])
    if len(lines) > DUMP_TERMS:
        shown += f"; ... ({len(lines) - DUMP_TERMS} more terms)"
    return shown or "0"


class Level:
    """The one record of level b: its shapes and tableaux, listed from the
    algebra's shape tables (a cell list holds (shape, first tableau, second
    tableau) triples), and each other part built on its first read.  Kept in
    the memo under ("level", b), so it keeps int forms and the algebra weakly."""

    def __init__(self, alg: ArikiKoikeAlgebra, s: int, b: int):
        self._alg, self.b = weakref.ref(alg), b
        tabs = partial(alg.shape_table, std_tableaux)
        # Lambda_b: exactly b boxes in the first s components; Lambda_bar_b: more than b
        self.shapes, self.above = split_levels(alg.shape_table(multipartitions, alg.n, alg.r), s, b)
        self.filtered = {lam: filtered_tableaux(tabs(lam), b, s, two_sided=True) for lam in self.shapes}
        # first tableau two-sided filtered: the index set of the v-basis of V^b
        self.triples = [(lam, st, tt) for lam, filt in self.filtered.items()
                        for st in filt for tt in tabs(lam)]
        # both tableaux two-sided filtered: the split pairs, which index End(V^b)
        self.pairs = [(lam, st, tt) for lam, filt in self.filtered.items() for st in filt for tt in filt]
        # first tableau one-sided filtered: the cell basis of M^{omega_b}, whose
        # part on the higher shapes is the cell basis of ker theta_b
        self.one_sided = [(lam, u, v) for lam in self.shapes + self.above
                          for u in filtered_tableaux(tabs(lam), b, s, two_sided=False) for v in tabs(lam)]
        self.kernel = [cell for cell in self.one_sided if cell[0] not in self.filtered]

    @cached_property
    def cells(self) -> dict:
        """m_uv keyed on (u, v), over `one_sided` and in its order, read from the transition once per level."""
        alg = self._alg()
        return {(u, v): alg.m_st(u, v).form for (_, u, v) in self.one_sided}

    @cached_property
    def images(self) -> dict:
        """theta_b(m_uv) keyed on (u, v), over `one_sided` (which holds the v-basis, kernel and split pairs)."""
        alg = self._alg()
        return {uv: alg.theta_b(self.b, Element(alg, *m)).form for uv, m in self.cells.items()}

    @cached_property
    def v_basis(self) -> list[tuple[int, dict]]:
        """The basis theta_b(m_st) of V^b over `triples`; needs the gate (independence may fail without it)."""
        if not f_s_value(self._alg().params):
            raise GateError(GATE_MESSAGE)
        images = self.images
        return [images[st, tt] for (_, st, tt) in self.triples]

    @cached_property
    def ideal(self) -> RightIdeal:
        """The record of V^b = v_b H: products, rAnn(v_b), its right-ideal generators and W_{v_b}."""
        alg = self._alg()
        return alg.right_ideal(alg.v_b_elem(self.b))

    @cached_property
    def preimages(self) -> list[tuple | None]:
        """For each v-basis element v, a solution h of v_b h = v (None if there is none)."""
        return self._alg().coordinates(self.ideal.products, self.v_basis)

    @cached_property
    def action(self) -> list[list[tuple]]:
        """Right action matrices of the generators on the v-basis, as int-form rows."""
        alg, forms = self._alg(), self.v_basis
        elements = [Element(alg, *f) for f in forms]
        coords = alg.coordinates(forms, [(e * alg.gen_T(g)).form for g in range(alg.n) for e in elements])
        if any(x is None for x in coords):
            raise ComputationError("V^b is not stable under a generator")
        k = len(forms)
        return [coords[g * k:(g + 1) * k] for g in range(alg.n)]

    @cached_property
    def tensor_images(self) -> list[tuple[int, dict]]:
        """Theta(a (x) c) over the tensor basis (`TensorAlgebra.basis`)."""
        alg = self._alg()
        return [theta_map(alg, self.b, a, c).form for a, c in TensorAlgebra(alg, self.b).basis()]

    @cached_property
    def tensor_vb(self) -> list[tuple[int, dict]]:
        """Theta(a (x) c) v_b over the tensor basis."""
        alg = self._alg()
        vb = alg.v_b_elem(self.b)
        return [(Element(alg, *f) * vb).form for f in self.tensor_images]


def factor_algebra(alg: ArikiKoikeAlgebra, left: bool, m: int) -> ArikiKoikeAlgebra:
    """H_m on the parameters Q_1..Q_s (left) or Q_{s+1}..Q_r (right) of `alg`,
    built once per algebra and under the same dimension guard."""
    p = alg.params
    s = p.require_split()
    Q, r = (p.Q[:s], s) if left else (p.Q[s:], p.r - s)
    return alg.derived(
        ("factor_algebra", left, m),
        lambda: ArikiKoikeAlgebra(Params(field=p.field, q=p.q, Q=Q, n=m, r=r), alg.max_dim),
    )


class TensorAlgebra:
    """H_b (x) H_{n-b}: left factor on Q_1..Q_s, right factor on Q_{s+1}..Q_r."""

    def __init__(self, alg: ArikiKoikeAlgebra, b: int):
        self.left = factor_algebra(alg, True, b)
        self.right = factor_algebra(alg, False, alg.n - b)

    @property
    def dim(self) -> int:
        return self.left.dim * self.right.dim

    def basis(self) -> list[tuple[Element, Element]]:
        """The pure tensors of monomials, as pairs of monomial elements."""
        return [(Element(self.left, 1, {i: 1}), Element(self.right, 1, {j: 1}))
                for i in range(self.left.dim) for j in range(self.right.dim)]


def theta_map(alg: ArikiKoikeAlgebra, b: int, a: Element, c: Element) -> Element:
    """The coordinate embedding Theta of H_b (x) H_{n-b} into H, at a (x) c for
    a in the left factor H_b and c in the right factor H_{n-b}.

    A pure tensor L^d T_x (x) L^e T_y goes to
    L_1^{e_1}..L_{n-b}^{e_{n-b}} L_{n-b+1}^{d_1}..L_n^{d_b} T_{x' y}
    with x' the shift of x to the last b points; no two images coincide.
    """
    n, left, right = alg.n, a.alg.basis(), c.alg.basis()
    ints = {}
    for i, ai in a.ints.items():
        d, x = left[i]
        xprime = shift_perm(x, n - b, n)
        for j, cj in c.ints.items():
            e, y = right[j]
            ints[alg.code(tuple(e) + tuple(d), xprime * shift_perm(y, 0, n))] = ai * cj
    return Element(alg, *alg.field.canonical(a.den * c.den, ints))


class MoritaSuite:
    """Exact verification of the splitting machinery for one algebra.

    What the checks derive (the `Level` records, factor algebras) is kept
    in the algebra's memo, so suites built on the same algebra share it.
    """

    def __init__(self, alg: ArikiKoikeAlgebra, gate: bool = True):
        self.params = alg.params
        self.s = self.params.require_split()
        self.alg = alg
        self.n = alg.n
        self.field = alg.field
        self.fs = f_s_value(self.params)
        if gate and not self.fs:
            raise GateError(GATE_MESSAGE)

    # -- common data -----------------------------------------------------------

    def _pdict(self, **extra) -> dict:
        d = self.params.describe()
        d.update(extra)
        return d

    def level(self, b: int) -> Level:
        """The record of level b, built once per algebra."""
        return self.alg.derived(("level", b), lambda: Level(self.alg, self.s, b))

    def expected_rank(self, b: int) -> int:
        s, r, n = self.s, self.params.r, self.n
        return comb(n, b) * (s ** b) * factorial(b) * ((r - s) ** (n - b)) * factorial(n - b)

    # -- unconditional identity families ---------------------------------------

    def verify_intertwining(self, b: int) -> list[CheckResult]:
        """T_i v_b = v_b T_{i+b} and the three companion laws, as exact identities.

        The stated range of the second law runs one generator past T_{n-1};
        the check stops at i = n-1 since T_n does not exist, and says so.
        """
        alg, n = self.alg, self.n
        vb = alg.v_b_elem(b)
        failures = []

        def law(label, lhs, rhs):
            if lhs != rhs:
                failures.append(f"{label}; difference: {_dump(lhs - rhs)}")

        for i in range(1, n - b):
            law(f"T_{i} v_{b} != v_{b} T_{i + b}", alg.gen_T(i) * vb, vb * alg.gen_T(i + b))
        for i in range(n - b + 1, n):
            law(f"T_{i} v_{b} != v_{b} T_{i - n + b}", alg.gen_T(i) * vb, vb * alg.gen_T(i - n + b))
        for k in range(1, n - b + 1):
            law(f"L_{k} v_{b} != v_{b} L_{k + b}", alg.gen_L(k) * vb, vb * alg.gen_L(k + b))
        for k in range(n - b + 1, n + 1):
            law(f"L_{k} v_{b} != v_{b} L_{k - n + b}", alg.gen_L(k) * vb, vb * alg.gen_L(k - n + b))
        detail = "; ".join(failures) if failures else (
            "generator range checked up to T_{n-1} (the stated bound includes a nonexistent generator)"
        )
        return [result("morita.intertwining", REF_INTERTWINE, self._pdict(b=b), not failures, detail)]

    def verify_annihilation(self, b: int) -> list[CheckResult]:
        """The four one-sided cyclotomic annihilation identities and the
        vanishing of the staggered products at every higher level c."""
        alg, n, s, r = self.alg, self.n, self.s, self.params.r
        vb = alg.v_b_elem(b)
        failures = []

        def lprod(k: int, ts) -> Element:
            out = alg.one()
            for t in ts:
                out = out * (alg.gen_L(k) - alg.from_scalar(alg.Q[t - 1]))
            return out

        # The four laws are the cyclotomic relations of the two tensor factors
        # acting on V^b.  At b = n the right factor is trivial and the two
        # laws tied to it ((i) and its star image (iv)) degenerate: the
        # complementary cyclotomic factor that makes them hold sits in the
        # empty u-product.  Dually at b = 0 for (ii)/(iii).  Those ends are
        # vacuous, matching the missing generator of the trivial factor.
        def law(label, value):
            if not value.is_zero():
                failures.append(f"{label}; value: {_dump(value)}")

        if b <= n - 1:
            law("(L_1 - Q_{s+1})...(L_1 - Q_r) v_b != 0", lprod(1, range(s + 1, r + 1)) * vb)
        if b >= 1:
            law("(L_{n-b+1} - Q_1)...(L_{n-b+1} - Q_s) v_b != 0",
                lprod(n - b + 1, range(1, s + 1)) * vb)
            law("v_b (L_1 - Q_1)...(L_1 - Q_s) != 0", vb * lprod(1, range(1, s + 1)))
        if b <= n - 1:
            law("v_b (L_{b+1} - Q_{s+1})...(L_{b+1} - Q_r) != 0",
                vb * lprod(b + 1, range(s + 1, r + 1)))
        out = [result("morita.annihilation", REF_ANNIHILATE, self._pdict(b=b), not failures, "; ".join(failures))]

        stagger = []
        for c in range(b + 1, n + 1):
            if not alg.theta_b(b, alg.u_b_plus(c)).is_zero():
                stagger.append(f"u_{{n-{b}}}^- T u_{c}^+ != 0")
        out.append(result("morita.staggered_vanishing", REF_STAGGER, self._pdict(b=b), not stagger,
                          "; ".join(stagger) if stagger else f"checked c = {b + 1}..{n}"))
        return out

    # -- kernel and basis statements --------------------------------------------

    def verify_kernel_vanishing(self, b: int) -> list[CheckResult]:
        lv = self.level(b)
        failures, images = [], lv.images
        for (mu, u, v) in lv.kernel:
            if images[u, v][1]:
                failures.append(f"theta_{b}(m) != 0 at shape {mu.serialize()}")
        return [result("morita.kernel_vanishing", REF_KERNEL, self._pdict(b=b), not failures,
                       "; ".join(failures[:3]))]

    def verify_leading_terms(self, b: int) -> list[CheckResult]:
        """Lower-order expansion of theta_b(m_st): T_{w} m_st = m_{s't} exactly,
        and theta_b(m_st) has the predicted invertible coefficient on m_{s't}
        with all other same-shape terms at strictly more dominant first
        tableaux (everything else on strictly more dominant shapes)."""
        alg, n, lv = self.alg, self.n, self.level(b)
        trans, images = alg.transition(), lv.images
        failures = []
        wnb = w_ab(n - b, b, n)
        wbn = w_ab(b, n - b, n)
        for (lam, st, tt) in lv.triples:
            try:
                sprime = st.apply(wbn)
            except ValueError:
                failures.append("rotated tableau is not standard")
                continue
            if alg.t_elem(wnb) * Element(alg, *lv.cells[st, tt]) != alg.m_st(sprime, tt):
                failures.append(f"T_w m_st != m_s't at {lam.serialize()}")
                continue
            coords = self.field.from_ints(*trans.express(Element(alg, *images[st, tt])))
            alpha = self.field.one
            for t in range(1, self.s + 1):
                for k in range(1, n - b + 1):
                    alpha = alpha * (tableau_residue(sprime, k, self.params) - alg.Q[t - 1])
            leading = self.field.zero
            for i, c in coords.items():
                mu, u, v = trans.cells[i]
                if mu != lam:
                    if not strictly_dominates(mu, lam):
                        failures.append("coefficient at a non-dominating shape")
                elif v != tt:
                    failures.append("second tableau moved")
                elif u == sprime:
                    leading = c
                    if c != alpha:
                        failures.append("leading coefficient differs from the residue product")
                elif not (tableau_dominates(u, sprime) and u != sprime):
                    failures.append("same-shape term not strictly above the leading tableau")
            if not alpha:
                failures.append("leading coefficient not invertible")
            if leading != alpha:
                failures.append("leading term missing")
        return [result("morita.leading_terms", REF_LEADING, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:4]))]

    def verify_bases(self, b: int) -> list[CheckResult]:
        """Independence and counting for the bases of V^b, ker theta_b, M^{omega_b}."""
        alg, lv, field = self.alg, self.level(b), self.field
        out = []
        size = len(lv.triples)
        r_v = len(Echelon(field, lv.v_basis))
        expected = self.expected_rank(b)
        out.append(result(
            "morita.v_basis", REF_VBASIS, self._pdict(b=b),
            r_v == size == expected,
            f"rank {r_v}, entries {size}, expected {expected}",
        ))

        # M^{omega_b} = m_{omega_b} H, as its record's echelon: compare it with its claimed cell basis.
        module = alg.right_ideal(alg.m_lambda(omega_b(self.n, self.params.r, self.s, b))).span
        module_rows = list(module.rows.values())
        claimed = lv.one_sided
        claimed_rows = list(lv.cells.values())
        r_module = len(module)
        r_claimed = len(Echelon(field, claimed_rows))
        r_joint = len(Echelon(field, module_rows + claimed_rows))
        basis_ok = r_module == r_claimed == r_joint == len(claimed)
        out.append(result(
            "morita.omega_module_basis", REF_VBASIS, self._pdict(b=b), basis_ok,
            f"module rank {r_module}, claimed cell basis {len(claimed)} of rank {r_claimed}",
        ))

        # ker theta_b: claimed basis, complementarity of ranks, ideal intersection.
        kers = lv.kernel
        r_ker = len(Echelon(field, [lv.cells[u, v] for (_, u, v) in kers]))
        complement_ok = r_ker == len(kers) and size + r_ker == r_module
        out.append(result(
            "morita.kernel_basis", REF_VBASIS, self._pdict(b=b), complement_ok,
            f"rank V^{b} = {size}, rank ker = {r_ker}, rank module = {r_module}",
        ))

        # ker theta_b = M^{omega_b} cap N-bar^b (the span of higher-level cells).
        ideal_rows = [alg.m_st(u, v).form for mu in lv.above
                      for u in alg.shape_table(std_tableaux, mu) for v in alg.shape_table(std_tableaux, mu)]
        r_ideal = len(Echelon(field, ideal_rows))
        r_stack = len(Echelon(field, module_rows + ideal_rows))
        inter = r_module + r_ideal - r_stack
        out.append(result(
            "morita.kernel_complement", REF_COMPLEMENT, self._pdict(b=b), inter == r_ker,
            f"dim intersection {inter} vs rank ker {r_ker}",
        ))
        return out

    def verify_filtration(self, b: int) -> list[CheckResult]:
        """Build the cell filtration of V^b layer by layer and compare each
        subquotient action with the corresponding cell module."""
        lv = self.level(b)
        dominated_first = sorted(lv.shapes, key=sort_key, reverse=True)
        layers = [(lam, st) for lam in dominated_first for st in lv.filtered[lam]]
        index_of = {(st, tt): i for i, (_, st, tt) in enumerate(lv.triples)}
        layer_of = {}
        for j, (lam, st) in enumerate(layers):
            for tt in self.alg.shape_table(std_tableaux, lam):
                layer_of[index_of[(st, tt)]] = j
        failures = []
        try:
            action = lv.action
        except ComputationError:
            # V^b is not stable: there is no action to compare the layers with
            failures.append("product left V^b")
            layers = []
        for j, (lam, st) in enumerate(layers):
            sp = specht_module(self.alg, lam)
            tabs = sp.basis
            for g in range(self.n):
                for a, tt in enumerate(tabs):
                    den, coords = action[g][index_of[(st, tt)]]
                    got = {}
                    for i, c in coords.items():
                        jj = layer_of[i]
                        if jj < j:
                            failures.append(
                                f"filtration not triangular at layer {j} (shape {lam.serialize()})"
                            )
                        elif jj == j:
                            got[tabs.index(lv.triples[i][2])] = c
                    if self.field.canonical(den, got) != sp.action[g][a]:
                        failures.append(
                            f"subquotient action differs from the cell module at {lam.serialize()}"
                        )
        # an independent count: the layers, sized by the hook-length formula,
        # must fill V^b as measured by the rank of left multiplication by v_b
        total = sum(len(filt) * hook_dimension(lam) for lam, filt in lv.filtered.items())
        rank = self.alg.dim - len(lv.ideal.annihilator)  # dim H - dim rAnn(v_b)
        if total != rank:
            failures.append(f"layer sizes add up to {total}, not to rank V^{b} = {rank}")
        return [result("morita.filtration", REF_FILTRATION, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:4]) if failures else
                       f"{len(layers)} layers over {len(lv.shapes)} shapes")]

    def verify_hom_vanishing(self, b: int, c: int) -> list[CheckResult]:
        if b == c:
            raise ValueError("hom vanishing needs b != c")
        out = []
        contents_b = {content(lam, self.params) for lam in self.level(b).shapes}
        contents_c = {content(lam, self.params) for lam in self.level(c).shapes}
        disjoint = not (contents_b & contents_c)
        out.append(result("morita.content_disjoint", REF_HOM_VANISH, self._pdict(b=b, c=c), disjoint,
                          f"{len(contents_b)} vs {len(contents_c)} content multisets"))
        if self.n <= DIRECT_HOM_MAX_N:
            # row (g, i, j): entry (i, j) of A^b_g X - X A^c_g, unknown X[k][l] at column k * rc + l
            act_b, act_c = self.level(b).action, self.level(c).action
            rb, rc = len(act_b[0]) if self.n else 0, len(act_c[0]) if self.n else 0
            ech = Echelon(self.field)
            for g in range(self.n):
                cols_c = transpose(self.field, act_c[g], rc)
                for i, (db, row_b) in enumerate(act_b[g]):
                    for j, (dc, col_c) in enumerate(cols_c):
                        big = lcm(db, dc)
                        row = {k * rc + j: a * (big // db) for k, a in row_b.items()}
                        for k, a in col_c.items():
                            row[i * rc + k] = row.get(i * rc + k, 0) - a * (big // dc)
                        ech.add_form(*self.field.canonical(big, row))
            dim_hom = rb * rc - len(ech)
            out.append(result("morita.hom_vanishing", REF_HOM_VANISH, self._pdict(b=b, c=c),
                              dim_hom == 0, f"dim Hom = {dim_hom}"))
        return out

    def verify_end_basis(self, b: int) -> list[CheckResult]:
        """Well-definedness, equivariance and independence of the maps
        v_b h -> v_st h for pairs of two-sided filtered tableaux."""
        alg, lv = self.alg, self.level(b)
        v_basis, pairs, images, allowed = lv.v_basis, lv.pairs, lv.images, lv.ideal.hom_images
        failures = []
        if None in lv.preimages:
            failures.append("v-basis element outside v_b H")
        preimages = [Element(alg, *(x or (1, {}))) for x in lv.preimages]
        maps = []
        for (lam, st, tt) in pairs:
            # well defined iff v_st kills rAnn(v_b), i.e. lies in W_{v_b}
            if not allowed.contains(*images[st, tt]):
                failures.append(f"map for a pair at {lam.serialize()} is ill-defined")
            else:
                maps.append(Element(alg, *images[st, tt]))
        # the images v_st h of every preimage h, for every well-defined pair, in one solve
        coords = alg.coordinates(v_basis, [(vst * h).form for vst in maps for h in preimages])
        size = len(v_basis)
        flat = []
        for i in range(len(maps)):
            mat = coords[i * len(preimages):(i + 1) * len(preimages)]
            if None in mat:
                failures.append("endomorphism image left V^b")
                mat = [x or (1, {}) for x in mat]
            for act in lv.action:
                if mat_mul(self.field, act, mat) != mat_mul(self.field, mat, act):
                    failures.append("endomorphism does not commute with the action")
            big = lcm(*(den for den, _ in mat))
            flat.append((big, {a * size + j: x * (big // den) for a, (den, ints) in enumerate(mat)
                               for j, x in ints.items()}))
        indep = len(Echelon(self.field, flat)) == len(maps)
        tensor_dim = TensorAlgebra(alg, b).dim
        count_ok = len(pairs) == tensor_dim
        if not indep:
            failures.append("endomorphisms dependent")
        if not count_ok:
            failures.append(f"count {len(pairs)} != tensor algebra dimension {tensor_dim}")
        return [result("morita.end_basis", REF_END, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:4]) if failures else
                       f"{len(pairs)} independent endomorphisms = dim H_b x H_(n-b)")]

    # -- regular decomposition ---------------------------------------------------

    def splitting_complement(self, b: int) -> list[Element]:
        """A basis of the module complement V'_b of ker theta_b inside M^{omega_b}.

        The generator y_0 of V'_b is the unique solution of the linear system

            y_0 in M^{omega_b},  y_0 * k = 0 for all k with v_b k = 0,
            theta_b(y_0) = v_b;

        the annihilator condition, y_0 in W_{v_b}, says exactly that
        v_b h -> y_0 h is a well-defined module map, and the block separation of V^b from
        ker theta_b makes that map the (unique) right inverse of theta_b.
        The returned basis is y_0 * h for preimages h of the v-basis.
        """
        alg, field, lv = self.alg, self.field, self.level(b)
        m_forms, allowed = list(lv.cells.values()), lv.ideal.hom_images
        # one dense `solve` on rows of len(m_forms) unknowns and v_b's column, so the
        # tall system is a single call into the linalg layer
        rows = itertools.chain(
            # homogeneous rows: sum z_i m_i in W_{v_b}, i.e. sum z_i reduce(m_i) = 0
            # for the reduction against W's echelon, which is linear
            (row for row in transpose(field, [allowed.reduce(*m) for m in m_forms], alg.dim) if row[1]),
            # affine rows: theta_b(sum z_i m_i) = v_b
            transpose(field, list(lv.images.values()) + [alg.v_b_elem(b).form], alg.dim),
        )
        full = [dense(field, row, len(m_forms) + 1) for row in rows]
        z, = solve([row[:-1] for row in full], [[row[-1] for row in full]], field)
        if z is None:
            raise ComputationError("no right inverse of theta_b exists (split failed)")
        y0 = Element(alg, *combination(field, field.to_ints(sparse(z)), m_forms))
        # transport the v-basis through the right inverse
        basis = []
        for h in lv.preimages:
            if h is None:
                raise ComputationError("v-basis element is not in v_b H")
            basis.append(y0 * Element(alg, *h))
        return basis

    def verify_regular_decomposition(self) -> list[CheckResult]:
        alg, n, field = self.alg, self.n, self.field
        out = []
        all_rows = []
        block_sizes = []
        failures = []
        for b in range(n + 1):
            comp = self.splitting_complement(b)
            expected = self.expected_rank(b)
            comp_rows = [e.form for e in comp]
            ok_dim = len(comp) == expected and len(Echelon(field, comp_rows)) == expected
            # theta_b restricted to the complement is a bijection onto V^b
            theta_rows = [alg.theta_b(b, e).form for e in comp]
            vmat_rows = self.level(b).v_basis
            ok_theta = (
                len(Echelon(field, theta_rows)) == expected
                and len(Echelon(field, theta_rows + vmat_rows)) == expected
            )
            # generator stability (the complement is a submodule)
            stab_rows = comp_rows + [(e * alg.gen_T(g)).form for e in comp for g in range(n)]
            ok_stable = len(Echelon(field, stab_rows)) == expected
            if not (ok_dim and ok_theta and ok_stable):
                failures.append(
                    f"b={b}: dim ok {ok_dim}, theta bijective {ok_theta}, submodule {ok_stable}"
                )
            reps = coset_reps([b, n - b], n)
            block = 0
            for w in reps:
                tw = alg.t_elem(w.inverse())
                for e in comp:
                    all_rows.append((tw * e).form)
                    block += 1
            block_sizes.append((b, block, comb(n, b) * expected))
        total_rank = len(Echelon(field, all_rows))
        ok_total = total_rank == alg.dim and all(got == want for (_, got, want) in block_sizes)
        detail = (
            f"total rank {total_rank} of {alg.dim}; blocks "
            + ", ".join(f"b={b}:{got}" for (b, got, _) in block_sizes)
        )
        if failures:
            detail += "; " + "; ".join(failures)
        out.append(result("morita.regular_decomposition", REF_REGULAR, self._pdict(),
                          ok_total and not failures, detail))
        return out

    # -- the tensor-side statements ------------------------------------------------

    def verify_theta_map(self, b: int) -> list[CheckResult]:
        """Spot identities for the embedding and agreement between its
        product form and its single-monomial form on the whole tensor basis."""
        alg, n = self.alg, self.n
        ta = TensorAlgebra(alg, b)
        vb = alg.v_b_elem(b)
        failures = []
        # With a single parameter in a factor, its T_0 is already a scalar in
        # normal form, so the T_0 identities are asserted as actions on v_b
        # (which is how they are used); for i, j >= 1 they hold on the nose.
        if b >= 1:
            img = theta_map(alg, b, ta.left.gen_T(0), ta.right.one())
            if img * vb != alg.gen_L(n - b + 1) * vb:
                failures.append("T_0 (x) 1 does not act as L_{n-b+1}")
            if self.s >= 2 and img != alg.gen_L(n - b + 1):
                failures.append("T_0 (x) 1 does not map to L_{n-b+1}")
            for i in range(1, b):
                img = theta_map(alg, b, ta.left.gen_T(i), ta.right.one())
                if img != alg.gen_T(n - b + i):
                    failures.append(f"T_{i} (x) 1 does not map to T_{n - b + i}")
        if n - b >= 1:
            img = theta_map(alg, b, ta.left.one(), ta.right.gen_T(0))
            if img * vb != alg.gen_L(1) * vb:
                failures.append("1 (x) T_0 does not act as L_1")
            if self.params.r - self.s >= 2 and img != alg.gen_L(1):
                failures.append("1 (x) T_0 does not map to L_1")
            for j in range(1, n - b):
                img = theta_map(alg, b, ta.left.one(), ta.right.gen_T(j))
                if img != alg.gen_T(j):
                    failures.append(f"1 (x) T_{j} does not map to T_{j}")
        wb, one = w_ab(b, n - b, n), self.field.one
        for (d, x), (e, y) in itertools.product(ta.left.basis(), ta.right.basis()):
            prod_form = (
                alg.element({(tuple(e) + (0,) * b, shift_perm(y, 0, n)): one})
                * alg.element({((0,) * (n - b) + tuple(d), wb.inverse() * shift_perm(x, 0, n) * wb): one})
            )
            if prod_form != theta_map(alg, b, ta.left.element({(d, x): one}), ta.right.element({(e, y): one})):
                failures.append("product form differs from the monomial form")
                break
        return [result("morita.theta_map", REF_THETA_MAP, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:4]))]

    def verify_bimodule(self, b: int) -> list[CheckResult]:
        """(a) Theta(h1 h2) v_b = Theta(h1) Theta(h2) v_b on all basis pairs;
        (b, c) the two compatibility laws tying theta_b to the embedding."""
        alg, lv = self.alg, self.level(b)
        ta = TensorAlgebra(alg, b)
        vb = alg.v_b_elem(b)
        failures = []
        basis = ta.basis()
        images = [Element(alg, *f) for f in lv.tensor_images]
        for (a1, c1), img1 in zip(basis, images):
            for (a2, c2), img2 in zip(basis, images):
                diff = theta_map(alg, b, a1 * a2, c1 * c2) - img1 * img2
                if not diff.is_zero() and not (diff * vb).is_zero():
                    failures.append("module law fails on a basis pair")
                    break
            if failures:
                break
        out = [result("morita.bimodule_law", REF_BIMODULE, self._pdict(b=b), not failures,
                      f"{len(basis)}^2 tensor basis pairs" if not failures else failures[0])]

        # u_plus reads only the component sizes, so both sides are formed once per size vector
        fail44, holds = [], {}
        for lam in lv.shapes:
            sizes = lam.component_sizes()
            if sizes not in holds:
                sigma, tau = split_multipartition(lam, self.s)
                holds[sizes] = alg.theta_b(b, alg.u_plus(lam)) == (
                    theta_map(alg, b, ta.left.u_plus(sigma), ta.right.u_plus(tau)) * vb)
            if not holds[sizes]:
                fail44.append(lam.serialize())
        out.append(result("morita.u_compatibility", REF_BIMODULE, self._pdict(b=b), not fail44,
                          "; ".join(fail44[:3])))

        fail46, images = [], lv.images
        for (lam, st, tt) in lv.pairs:
            s1, s2 = pair_split(st, self.s)
            t1, t2 = pair_split(tt, self.s)
            lhs = Element(alg, *images[st, tt])
            rhs = theta_map(alg, b, ta.left.m_st(s1, t1), ta.right.m_st(s2, t2)) * vb
            if lhs != rhs:
                fail46.append(f"{lam.serialize()}")
        out.append(result("morita.cell_compatibility", REF_BIMODULE, self._pdict(b=b), not fail46,
                          "; ".join(sorted(set(fail46))[:3])))
        return out

    def verify_faithfulness(self, b: int) -> list[CheckResult]:
        ta = TensorAlgebra(self.alg, b)
        got = len(Echelon(self.field, self.level(b).tensor_vb))
        return [result("morita.faithfulness", REF_FAITHFUL, self._pdict(b=b), got == ta.dim,
                       f"rank {got} of {ta.dim}")]

    def verify_free_decomposition(self, b: int) -> list[CheckResult]:
        """V^b = sum over distinguished reps w of Theta(tensor algebra) v_b T_w,
        each summand a copy of the regular tensor module; plus the bounded-
        exponent spanning family and the pairing-induced summand bases."""
        alg, n, field, lv = self.alg, self.n, self.field, self.level(b)
        ta = TensorAlgebra(alg, b)
        images = [Element(alg, *f) for f in lv.tensor_vb]
        reps = coset_reps([b, n - b], n)
        failures = []
        all_rows = []
        v_basis = lv.v_basis
        vindex = {(st, tt): i for i, (_, st, tt) in enumerate(lv.triples)}
        for w in reps:
            tw = alg.t_elem(w)
            rows = [(e * tw).form for e in images]
            if len(Echelon(field, rows)) != ta.dim:
                failures.append(f"summand at a coset rep has deficient rank")
            all_rows.extend(rows)
            # Prop 4.8's basis of the same summand: v_(s, tw) over two-sided pairs
            summand2 = []
            for (_, st, tt) in lv.pairs:
                try:
                    translated = tt.apply(w)
                except ValueError:
                    failures.append("translated tableau is not standard")
                    continue
                idx = vindex.get((st, translated))
                if idx is None:
                    failures.append("translated tableau left the standard set")
                    continue
                summand2.append(v_basis[idx])
            if len(Echelon(field, summand2)) != ta.dim or len(Echelon(field, rows + summand2)) != ta.dim:
                failures.append("cell-indexed summand basis spans a different space")
        total = len(Echelon(field, all_rows))
        expected = self.expected_rank(b)
        if total != expected or len(all_rows) != expected:
            failures.append(f"total rank {total} != expected {expected}")
        # bounded-exponent spanning family: v_b L^d T_w with d_i < s (i <= b),
        # d_i < r-s (i > b), read off the products v_b L^d T_w
        s, r = self.s, self.params.r
        products = lv.ideal.products
        bounds = [range(s) if i < b else range(r - s) for i in range(n)]
        bounded_rows = [products[alg.code(d, w)] for d in itertools.product(*bounds) for w in alg._perms]
        if len(Echelon(field, bounded_rows)) != expected or len(bounded_rows) != expected:
            failures.append("bounded-exponent family is not a basis")
        return [result("morita.free_decomposition", REF_FREE, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:4]) if failures else
                       f"{len(reps)} summands of rank {ta.dim}")]

    def verify_pair_bijection(self, b: int) -> list[CheckResult]:
        """The splitting bijection on tableaux together with its permutation law."""
        n = self.n
        failures = []
        wnb = w_ab(n - b, b, n)
        for lam, filt in self.level(b).filtered.items():
            sigma, tau = split_multipartition(lam, self.s)
            joined = set()
            for s1 in self.alg.shape_table(std_tableaux, sigma):
                for s2 in self.alg.shape_table(std_tableaux, tau):
                    st = pair_join(s1, s2, n)
                    joined.add(st)
                    back1, back2 = pair_split(st, self.s)
                    if back1 != s1 or back2 != s2:
                        failures.append("round trip failed")
                    d1 = shift_perm(d_of(s1), 0, n)
                    d2 = shift_perm(d_of(s2), 0, n)
                    expected = d1 * (wnb.inverse() * d2 * wnb)
                    if d_of(st) != expected:
                        failures.append("distinguished-rep law failed")
                    if d_of(st).length() != d_of(s1).length() + d_of(s2).length():
                        failures.append("lengths not additive")
            if joined != set(filt):
                failures.append("bijection misses filtered tableaux")
        return [result("morita.pair_bijection", REF_PAIRING, self._pdict(b=b), not failures,
                       "; ".join(sorted(set(failures))[:3]))]

    def verify_counting(self) -> list[CheckResult]:
        """Pure combinatorial rank counts for every b."""
        failures = []
        for b in range(self.n + 1):
            got = len(self.level(b).triples)
            if got != self.expected_rank(b):
                failures.append(f"b={b}: {got} != {self.expected_rank(b)}")
        total = sum(comb(self.n, b) * self.expected_rank(b) for b in range(self.n + 1))
        if total != self.alg.dim:
            failures.append(f"total {total} != dim H = {self.alg.dim}")
        return [result("morita.rank_counting", REF_COUNT, self._pdict(), not failures,
                       "; ".join(failures[:4]))]

    # -- dimension and decomposition-number factorization ---------------------------

    def verify_factorization(self) -> list[CheckResult]:
        """Dimension and decomposition-number factorization across the split.

        (a) cell-module dimensions factor combinatorially;
        (b) simple-module dimensions factor, with Gram ranks computed
            independently in the big algebra and in the two factors;
        (c) over a prime field, the full decomposition matrix of H is the
            block-diagonal assembly of tensor products of the factors'
            decomposition matrices.
        """
        if not self.fs:
            raise GateError(GATE_MESSAGE)
        out = []
        n, s = self.n, self.s
        fail_a, tabs = [], partial(self.alg.shape_table, std_tableaux)
        for b in range(n + 1):
            for lam in self.level(b).shapes:
                sigma, tau = split_multipartition(lam, s)
                if len(tabs(lam)) != comb(n, b) * len(tabs(sigma)) * len(tabs(tau)):
                    fail_a.append(lam.serialize())
        out.append(result("morita.dim_cell_factorization", REF_FACTOR_S, self._pdict(), not fail_a,
                          "; ".join(fail_a[:3])))

        left_algs = {m: factor_algebra(self.alg, True, m) for m in range(n + 1)}
        right_algs = {m: factor_algebra(self.alg, False, m) for m in range(n + 1)}
        fail_b = []
        for c in range(n + 1):
            for mu in self.level(c).shapes:
                alpha, beta = split_multipartition(mu, s)
                d_mu = len(Echelon(self.field, gram_matrix(self.alg, mu)))
                d_alpha = len(Echelon(self.field, gram_matrix(left_algs[c], alpha)))
                d_beta = len(Echelon(self.field, gram_matrix(right_algs[n - c], beta)))
                if d_mu != comb(n, c) * d_alpha * d_beta:
                    fail_b.append(
                        f"{mu.serialize()}: {d_mu} != C({n},{c})*{d_alpha}*{d_beta}"
                    )
                if (d_mu > 0) != (d_alpha > 0 and d_beta > 0):
                    fail_b.append(f"{mu.serialize()}: vanishing criterion differs")
        out.append(result("morita.dim_simple_factorization", REF_FACTOR_D, self._pdict(), not fail_b,
                          "; ".join(fail_b[:3])))

        if self.field.characteristic > 0:
            try:
                big = decomposition_matrix(self.alg)
                left_data = {m: decomposition_matrix(left_algs[m]) for m in range(n + 1)}
                right_data = {m: decomposition_matrix(right_algs[m]) for m in range(n + 1)}
            except ComputationError as exc:  # a failed validation is a failed check
                out.append(result("morita.decomposition_factorization", REF_FACTOR_DEC,
                                  self._pdict(), False, str(exc)))
                return out
            fail_c = []
            big_cols = {mu: j for j, mu in enumerate(big.cols)}
            for i, lam in enumerate(big.rows):
                b = sum(lam.component_sizes()[:s])
                sigma, tau = split_multipartition(lam, s)
                for mu, j in big_cols.items():
                    c = sum(mu.component_sizes()[:s])
                    got = big.matrix[i][j]
                    if b != c:
                        want = 0
                    else:
                        alpha, beta = split_multipartition(mu, s)
                        ldata, rdata = left_data[b], right_data[n - b]
                        if alpha not in ldata.cols or beta not in rdata.cols:
                            fail_c.append(f"column {mu.serialize()} not a tensor simple")
                            continue
                        want = (
                            ldata.matrix[ldata.rows.index(sigma)][ldata.cols.index(alpha)]
                            * rdata.matrix[rdata.rows.index(tau)][rdata.cols.index(beta)]
                        )
                    if got != want:
                        fail_c.append(
                            f"d[{lam.serialize()}][{mu.serialize()}] = {got} != {want}"
                        )
            # the simple labels must also match across the equivalence
            predicted_cols = set()
            for c in range(n + 1):
                for mu in self.level(c).shapes:
                    alpha, beta = split_multipartition(mu, s)
                    if alpha in left_data[c].cols and beta in right_data[n - c].cols:
                        predicted_cols.add(mu)
            if predicted_cols != set(big.cols):
                fail_c.append("sets of nonvanishing simples disagree")
            out.append(result("morita.decomposition_factorization", REF_FACTOR_DEC, self._pdict(),
                              not fail_c, "; ".join(fail_c[:4])))
        return out

    # -- the full suite -------------------------------------------------------------

    def run_all(self, b: int | None = None) -> list[CheckResult]:
        """The rank count, then every per-level statement at each level b.

        Given b, only that level; otherwise every level, followed by the Hom
        vanishing between levels, the regular decomposition and the
        factorization.
        """
        if not self.fs:
            raise GateError(GATE_MESSAGE)
        out = self.verify_counting()
        for level in range(self.n + 1) if b is None else [b]:
            for check in (
                self.verify_intertwining, self.verify_annihilation,
                self.verify_kernel_vanishing, self.verify_leading_terms,
                self.verify_bases, self.verify_filtration, self.verify_end_basis,
                self.verify_theta_map, self.verify_bimodule, self.verify_faithfulness,
                self.verify_free_decomposition, self.verify_pair_bijection,
            ):
                out += check(level)
        if b is not None:
            return out
        for b, c in itertools.permutations(range(self.n + 1), 2):
            out += self.verify_hom_vanishing(b, c)
        out += self.verify_regular_decomposition()
        out += self.verify_factorization()
        return out
