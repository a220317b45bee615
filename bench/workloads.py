"""Seeded CLI job lists for the benchmark workloads.

A workload is a fixed list of jobs, each at a fixed (n, r).  The workload
seed draws every job's parameters (q, Q), and the CLI --seed where the suite
uses one, keeping the property the job was chosen for.  The program receives
only the resulting argv.

The instances are smaller than those of ROADMAP's baseline table, so that a
run repeats every job many times; bench/BENCH_1.json records single-run times
of the larger instances they stand in for.
"""

from __future__ import annotations

import random

MAX_DRAWS = 1000


def _draw(rng: random.Random, fields, field: str, n: int, r: int, s: int | None,
          accept, connect: bool = False):
    """Draw (q, Q) over `field` until `accept(params)` holds.

    Over Q the draws stay small: q in {2, 3}, distinct Q_i in 1..9.  With
    `connect`, Q_2 is set to q^a Q_1 for some 0 < |a| < n, which makes the
    parameters q-connected.
    """
    parsed = fields.parse_field(field)
    p = parsed.characteristic
    for _ in range(MAX_DRAWS):
        if p:
            q = rng.randrange(2, p)
            Q = rng.sample(range(1, p), r)
        else:
            q = rng.choice((2, 3))
            Q = rng.sample(range(1, 10), r)
        if connect:
            a = rng.choice([a for a in range(1 - n, n) if a])
            Q[1] = Q[0] * pow(q, a, p) % p
            if len(set(Q)) < r:
                continue
        params = fields.Params(field=parsed, q=q, Q=tuple(Q), n=n, r=r, s=s)
        if accept(params):
            return str(q), ",".join(map(str, Q))
    raise RuntimeError(f"no parameters with the required property in {MAX_DRAWS} draws")


def relations_job(rng, fields, n: int, r: int) -> list[str]:
    q, Q = _draw(rng, fields, "Q", n, r, None, lambda params: True)
    return ["verify", "--suite", "relations", "--n", str(n), "--r", str(r),
            "--q", q, "--Q", Q, "--seed", str(rng.randrange(10**6))]


def split_job(rng, fields, suite: str, n: int, r: int, s: int) -> list[str]:
    """A Morita or Schur battery, drawn with f_s(q, Q) != 0 so the gate admits it."""
    q, Q = _draw(rng, fields, "Q", n, r, s, lambda params: fields.f_s_value(params) != 0)
    return ["verify", "--suite", suite, "--n", str(n), "--r", str(r), "--s", str(s),
            "--q", q, "--Q", Q]


def prime_field_job(rng, fields, command: str, n: int, r: int, p: int,
                    semisimple: bool) -> list[str]:
    """`decomp` or `gram` over GF(p), with semisimple or q-connected parameters."""
    field = f"GF({p})"
    q, Q = _draw(rng, fields, field, n, r, None,
                 lambda params: (fields.poincare(params) != 0) == semisimple,
                 connect=not semisimple)
    return [command, "--n", str(n), "--r", str(r), "--field", field, "--q", q, "--Q", Q]


# Why each workload exists is recorded in BENCHMARK.json.  Draws of one job
# kind do almost the same work: the Morita and Schur batteries make the same
# number of Python calls to within 0.2%, relations at n=2 r=3 to within 6% and
# at n=2 r=2 within 2% (it checks 200 random triples).  Single runs on a shared
# host vary far more, so the jobs are short and a run repeats each of them
# many times.
WORKLOADS = {
    # Product engine over Q on short random elements: fold, star and
    # associativity; no elimination, transition or chop.
    "relations": (
        *[(relations_job, {"n": 2, "r": 3})] * 2,
        *[(relations_job, {"n": 2, "r": 2})] * 6,
    ),
    # The full Morita battery: tall solves in splitting_complement and
    # products of dense elements (left_mult_matrix).
    "morita": (
        (split_job, {"suite": "morita", "n": 2, "r": 3, "s": 1}),
        (split_job, {"suite": "morita", "n": 2, "r": 3, "s": 2}),
    ),
    # The only caller of schur.hom_space: many nullspace calls.
    "schur": ((split_job, {"suite": "schur", "n": 2, "r": 2, "s": 1}),) * 4,
    # The only GF(p) product engine: a q-connected chop that splits modules,
    # the Gram matrices of every cell module (cmd_gram), and a semisimple chop
    # that scans every projective line (over GF(47) rather than GF(97): the
    # same scan at a quarter of the lines, so the job repeats within a run).
    "modules": (
        (prime_field_job, {"command": "decomp", "n": 3, "r": 2, "p": 5, "semisimple": False}),
        (prime_field_job, {"command": "gram", "n": 3, "r": 2, "p": 5, "semisimple": False}),
        (prime_field_job, {"command": "decomp", "n": 3, "r": 2, "p": 47, "semisimple": True}),
    ),
}


def generate(workload: str, seed: int, fields) -> list[list[str]]:
    """The argv of every job of `workload` for `seed` (same seed, same jobs)."""
    rng = random.Random(f"{workload}:{seed}")
    return [fn(rng, fields, **kwargs) for fn, kwargs in WORKLOADS[workload]]
