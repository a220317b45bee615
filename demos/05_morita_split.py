"""The Morita splitting machinery, verified end to end at desk scale.

With the separation product f_s(q,Q) nonzero, the elements
v_b = u_{n-b}^- T_{w_{n-b,b}} u_b^+ generate projective right ideals V^b
whose endomorphism rings are tensor products of two smaller algebras, and
the regular module decomposes as the binomial-weighted sum of the V^b.
The suite checks every identity and rank exactly; a q-connected parameter
set is refused up front.
"""

from ariki_koike import ArikiKoikeAlgebra, GateError, Params, Rationals, f_s_value
from ariki_koike.morita import MoritaSuite
from ariki_koike.report import all_ok, render_text

params = Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=1)
print(f"parameters: q={params.q}, Q=({', '.join(str(x) for x in params.Q)}), split s={params.s}")
print(f"separation product f_s(q,Q) = {f_s_value(params)} (nonzero: suite may run)")

suite = MoritaSuite(ArikiKoikeAlgebra(params))
alg = suite.alg

print("\n== the splitting element and its intertwining law ==")
v1 = alg.v_b_elem(1)
print("  v_1 =")
print("    " + v1.serialize().replace("\n", "\n    "))
print(f"  L_1 v_1 = v_1 L_2: {alg.gen_L(1) * v1 == v1 * alg.gen_L(2)}")

print("\n== ranks of the projective ideals ==")
for b in range(3):
    print(f"  rank V^{b} = {len(suite.level(b).v_basis)} (expected {suite.expected_rank(b)})")
print("  regular module = sum over b of C(n,b) copies: 1*2 + 2*2 + 1*2 = 8")

print("\n== the full verification battery ==")
results = suite.run_all()
print(render_text(results))
print(f"\nall {len(results)} checks pass: {all_ok(results)}")

print("\n== a q-connected parameter set is refused ==")
try:
    MoritaSuite(ArikiKoikeAlgebra(Params(field=Rationals(), q=2, Q=(1, 2), n=2, r=2, s=1)))
except GateError as exc:
    print(f"  GateError: {exc}")
