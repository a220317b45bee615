"""Cyclotomic q-Schur algebras: Hom spaces, dimensions, and the index split.

The Schur algebra of a saturated index set is verified through its
semistandard combinatorics: every Hom space between row-permutation modules
is computed twice (exact linear algebra vs. tableau counting), the total
dimension cross-checks, and the level slices of the index poset split into
products matching the Morita factors.
"""

from ariki_koike import ArikiKoikeAlgebra, Params, Rationals, multipartitions, omega
from ariki_koike.schur import gamma_split, hom_space, morita_count_check, schur_dimension
from ariki_koike.report import all_ok
from ariki_koike.tableaux import multicompositions

params = Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=1)
alg = ArikiKoikeAlgebra(params)

print("== Hom spaces between row-permutation modules ==")
shapes = multicompositions(2, 2)
for mu in shapes:
    for nu in shapes:
        data = hom_space(mu, nu, alg)
        mark = "=" if data["dim"] == data["expected"] else "!"
        print(f"  Hom(M^{nu.serialize()}, M^{mu.serialize()}): solved {data['dim']} "
              f"{mark}= semistandard count {data['expected']}")

w = omega(2, 2)
print(f"\n  the column type recovers the regular rank: "
      f"dim Hom(M^w, M^w) = {hom_space(w, w, alg)['dim']} = r^n n!")

gamma = multipartitions(2, 2)
print(f"\n== Schur algebra dimension over Gamma = all multipartitions ==")
print(f"  semistandard dimension: {schur_dimension(gamma, params)}")

print("\n== splitting the index poset by levels ==")
for b in range(3):
    left, right, res = gamma_split(gamma, 2, 2, 1, b)
    print(f"  level {b}: {[x.serialize() for x in left]} x {[y.serialize() for y in right]}"
          f"  (order isomorphism: {res.status})")

print("\n== counting consistency of the Morita transfer ==")
results = morita_count_check(gamma, alg)
for r in results:
    print(f"  [{r.status.upper()}] {r.check}" + (f" -- {r.detail}" if r.detail else ""))
print(f"  all pass: {all_ok(results)}")
