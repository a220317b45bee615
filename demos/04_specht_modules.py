"""Cell modules: action matrices, Gram forms, simple dimensions, blocks,
and decomposition numbers over a prime field.

Over the rationals with generic parameters the algebra is semisimple and
every form is nonsingular; over GF(5) with q-connected parameters the forms
degenerate and the deterministic chop finds the composition multiplicities.
"""

from ariki_koike import ArikiKoikeAlgebra, Params, PrimeField, Rationals, multipartitions
from ariki_koike.linalg import Echelon
from ariki_koike.specht import (
    block_partition,
    decomposition_matrix,
    decomposition_to_tsv,
    gram_matrix,
    specht_module,
)

params = Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=1)
alg = ArikiKoikeAlgebra(params)

print("== cell modules over the rationals (generic parameters) ==")
total = 0
for lam in multipartitions(2, 2):
    sm = specht_module(alg, lam)
    g = gram_matrix(alg, lam)
    d = len(Echelon(alg.field, g))
    total += d * d
    print(f"  {lam.serialize():12} dim S = {sm.dim}, dim D = rank(Gram) = {d}")
print(f"  sum of squared simple dimensions: {total} = rank of the algebra: {alg.dim}")

print("\n== blocks by content ==")
for blk in block_partition(params):
    print(f"  {{{', '.join(l.serialize() for l in blk)}}}")

print("\n== the same algebra over GF(5) with q-connected parameters ==")
pmod = Params(field=PrimeField(5), q=4, Q=(1, 4), n=2, r=2, s=1)
print("  q = 4, Q = (1, 4): note Q_2 = q Q_1, so the parameters form one q-orbit")
for blk in block_partition(pmod):
    print(f"  block: {{{', '.join(l.serialize() for l in blk)}}}")
data = decomposition_matrix(ArikiKoikeAlgebra(pmod))
print("  decomposition matrix (rows: shapes, columns: surviving simples):")
for line in decomposition_to_tsv(data).splitlines():
    print("    " + line)
print("  unitriangular against dominance, row sums match cell dimensions")
