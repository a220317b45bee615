"""The cellular basis, the change of basis, and the triangular L-action.

The cell elements m_st = T_{d(s)}* m_lam T_{d(t)} form a second basis of the
algebra.  The script expands a product in that basis, round-trips a random
element, and shows the commuting generators acting triangularly with residue
eigenvalues on the diagonal -- the engine behind blocks and Specht theory.
"""

import random

from ariki_koike import ArikiKoikeAlgebra, Params, Rationals, multipartitions, std_tableaux
from ariki_koike.algebra import random_element
from ariki_koike.tableaux import tableau_residue

params = Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=1)
alg = ArikiKoikeAlgebra(params)
trans = alg.transition()
print(f"{len(trans.cells)} cell elements indexed by (shape, s, t); rank = {alg.dim}")

print("\n== expanding T_1 T_0 in the cellular basis ==")
coords = alg.field.from_ints(*trans.express(alg.gen_T(1) * alg.gen_T(0)))
for (lam, s, t), c in sorted(((trans.cells[i], c) for i, c in coords.items()), key=lambda kv: str(kv[0])):
    print(f"  {c} on (shape {lam.serialize()}, s={s.serialize()}, t={t.serialize()})")

print("\n== exact round trip on a seeded random element ==")
rng = random.Random(42)
e = random_element(alg, rng)
back = trans.combine(trans.express(e))
print(f"  reconstruction exact: {back == e}")

print("\n== the triangular action of L_k on cell elements ==")
print("  L_k m_st = res_s(k) m_st + terms at strictly higher tableaux/shapes")
for lam in multipartitions(2, 2):
    for s in std_tableaux(lam):
        for t in std_tableaux(lam):
            for k in (1, 2):
                coords = alg.field.from_ints(*trans.express(alg.gen_L(k) * alg.m_st(s, t)))
                diag = coords.get(trans.index[s, t], alg.field.zero)
                res = tableau_residue(s, k, params)
                assert diag == res
    print(f"  shape {lam.serialize()}: diagonal coefficients match the residues")
