"""Command-line front end: parameter parsing, suite orchestration, reports.

Subcommands:

* ``enumerate`` -- multipartitions, tableau counts, level splits, contents;
* ``verify``    -- run a verification suite, emit a JSON/text report;
* ``gram``      -- Gram matrices of all cell modules, as TSV;
* ``decomp``    -- the decomposition matrix over a prime field, as TSV.

What ``verify`` can run is one table, ``SUITES``: each suite in run order,
with whether the f_s(q,Q) gate guards it and how to run it on the run's
algebra, seed and ``--b``.  ``--suite all`` runs every entry; the gate is
checked once, before any suite runs.

Exit codes: 0 all checks pass, 1 a check failed, 2 a usage error or a
hypothesis gate that refused the run (the two share this code; usage
errors are malformed or unknown flags, unparsable values such as ``--q x``
or ``--q 1/0``, ``--b`` out of range and ``--max-dim`` below 1), 3 the
instance exceeds the size guards, 4 an internal error (a failed computation
or any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import ArikiKoikeAlgebra, DEFAULT_MAX_DIM
from .linalg import dense, determinant
from .fields import (
    ComputationError,
    GateError,
    Params,
    Rationals,
    SizeGuardError,
    f_s_value,
    parse_field,
    parse_params_file,
)
from .morita import MoritaSuite
from .report import all_ok, render_json, render_text
from .schur import schur_suite
from .specht import decomposition_matrix, decomposition_to_tsv, gram_matrix, gram_to_tsv
from .suites import cellular_suite, relations_suite, specht_suite
from .tableaux import content, lambda_sets, multipartitions, std_tableaux

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_GATE = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4

DEFAULT_Q_LIST = ["1", "5", "7", "11", "13", "17", "19"]
# The suites in run order: name -> (guarded by the f_s(q,Q) gate,
# run(algebra, seed, b) -> rows; b restricts the Morita battery to one level).
SUITES = {
    "relations": (False, lambda alg, seed, b: relations_suite(alg, seed=seed)),
    "cellular": (False, lambda alg, seed, b: cellular_suite(alg, seed=seed)),
    "specht": (False, lambda alg, seed, b: specht_suite(alg)),
    "morita": (True, lambda alg, seed, b: MoritaSuite(alg).run_all(b)),
    "schur": (True, lambda alg, seed, b: schur_suite(alg)),
}
FORMATS = ("json", "text")


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=None, help="number of strands")
    p.add_argument("--r", type=int, default=None, help="number of cyclotomic parameters")
    p.add_argument("--s", type=int, default=None, help="split point (1 <= s < r)")
    p.add_argument("--q", type=str, default=None, help="the invertible parameter q")
    p.add_argument("--Q", type=str, default=None, help="comma-separated cyclotomic parameters")
    p.add_argument("--field", type=str, default=None, help='coefficient field: "Q" or "GF(p)"')
    p.add_argument("--params", type=str, default=None, help="key=value parameter file")
    p.add_argument("--out", type=str, default=None, help="write output to a file")


def _add_max_dim_flag(p: argparse.ArgumentParser):
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, dest="max_dim",
                   help="override the dimension guard")


def build_params(args) -> Params:
    if args.params:
        try:
            with open(args.params, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read parameter file {args.params}: {exc.strerror}") from exc
        base = parse_params_file(text, n_override=args.n)
        field = parse_field(args.field) if args.field else base.field
        r = args.r if args.r is not None else base.r
        q = field(args.q) if args.q else field(str(base.q))
        Q = tuple(field(x) for x in args.Q.split(",")) if args.Q else tuple(
            field(str(x)) for x in base.Q)
        n = args.n if args.n is not None else base.n
        s = args.s if args.s is not None else base.s
        return Params(field=field, q=q, Q=Q, n=n, r=r, s=s)
    field = parse_field(args.field) if args.field else Rationals()
    r = args.r if args.r is not None else 1
    if args.Q:
        Q = tuple(field(x.strip()) for x in args.Q.split(","))
        if args.r is None:
            r = len(Q)
    else:
        Q = tuple(field(x) for x in DEFAULT_Q_LIST[:r])
    if len(Q) != r:
        raise ValueError(f"expected {r} entries in Q, got {len(Q)}")
    q = field(args.q) if args.q else field(2)
    n = args.n if args.n is not None else 2
    return Params(field=field, q=q, Q=Q, n=n, r=r, s=args.s)


def build_algebra(args, params: Params | None = None) -> ArikiKoikeAlgebra:
    """The one algebra of a run, on `params` or else the flags, behind the default
    desk-scale guards; an explicitly raised --max-dim lifts them."""
    if args.max_dim < 1:
        raise ValueError(f"--max-dim must be at least 1, got {args.max_dim}")
    alg = ArikiKoikeAlgebra(params or build_params(args), max_dim=args.max_dim)
    dim, max_dim, r, n = alg.dim, alg.max_dim, alg.r, alg.n
    if dim > max_dim:
        raise SizeGuardError(f"instance dimension {dim} exceeds the cap {max_dim}")
    if max_dim > DEFAULT_MAX_DIM:
        return alg
    if not (dim <= 384 or (r == 1 and n <= 6)):
        raise SizeGuardError(
            f"n={n}, r={r} exceeds the default suite guards (raise --max-dim to override)"
        )
    return alg


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write output file {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_level(b: int | None, n: int):
    """Refuse a --b outside 0..n before any work, whether or not --s splits."""
    if b is not None and not 0 <= b <= n:
        raise ValueError(f"b={b} out of range 0..{n}")


def cmd_enumerate(args) -> int:
    params = build_params(args)
    _check_level(args.b, params.n)
    lines = []
    entries = []
    lams = multipartitions(params.n, params.r)
    lines.append(f"multipartitions n={params.n} r={params.r}: {len(lams)}")
    for lam in lams:
        cnt = len(std_tableaux(lam))
        cont = content(lam, params)
        entries.append({
            "shape": lam.serialize(),
            "std_count": cnt,
            "content": [str(x) for x in cont],
        })
        lines.append(f"  {lam.serialize()}  std={cnt}  content={{{','.join(str(x) for x in cont)}}}")
    split = None
    if params.s is not None and params.s < params.r:
        split = []
        bs = [args.b] if args.b is not None else list(range(params.n + 1))
        for b in bs:
            level, above = lambda_sets(params.n, params.r, params.s, b)
            split.append({
                "b": b,
                "level": [l.serialize() for l in level],
                "above": [l.serialize() for l in above],
            })
            lines.append(
                f"level b={b}: {{{', '.join(l.serialize() for l in level)}}}"
                f"  above: {{{', '.join(l.serialize() for l in above)}}}"
            )
    if args.format == "json":
        payload = {"n": params.n, "r": params.r, "multipartitions": entries}
        if split is not None:
            payload["levels"] = split
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return EXIT_PASS


def cmd_verify(args) -> int:
    params = build_params(args)
    _check_level(args.b, params.n)
    alg = build_algebra(args, params)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if any(SUITES[name][0] for name in names):
        # fail fast on the hypothesis gate, before any check runs
        s = params.require_split()
        if not f_s_value(params):
            raise GateError(
                "refusing the Morita/Schur suites: the separation product "
                f"f_s(q,Q) vanishes for s={s} (its invertibility is the "
                "hypothesis of the splitting theorems)"
            )
    results = [row for name in names for row in SUITES[name][1](alg, args.seed, args.b)]
    _emit(render_json(results) if args.format == "json" else render_text(results), args.out)
    return EXIT_PASS if all_ok(results) else EXIT_FAIL


def cmd_gram(args) -> int:
    alg = build_algebra(args)
    blocks = []
    for lam in alg.shape_table(multipartitions, alg.n, alg.r):
        rows = gram_matrix(alg, lam)
        g = [dense(alg.field, row, len(rows)) for row in rows]
        blocks.append(gram_to_tsv(alg, lam, g))
        blocks.append(f"# det = {determinant(g, alg.field)}")
    _emit("\n".join(blocks), args.out)
    return EXIT_PASS


def cmd_decomp(args) -> int:
    alg = build_algebra(args)
    if alg.field.characteristic == 0:
        raise GateError("decomp requires a prime field; pass --field GF(p)")
    data = decomposition_matrix(alg)
    _emit(decomposition_to_tsv(data), args.out)
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ariki-koike",
        description="Exact verification suite for Ariki-Koike algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list multipartitions, counts, levels")
    _add_param_flags(p_enum)
    p_enum.add_argument("--format", type=str, default="text", choices=FORMATS)
    p_enum.add_argument("--b", type=int, default=None, help="restrict to one level")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_param_flags(p_verify)
    _add_max_dim_flag(p_verify)
    p_verify.add_argument("--format", type=str, default="json", choices=FORMATS)
    p_verify.add_argument("--seed", type=int, default=2024, help="seed for randomized spot checks")
    p_verify.add_argument("--suite", type=str, default="all", choices=(*SUITES, "all"))
    p_verify.add_argument("--b", type=int, default=None,
                          help="restrict the Morita suite to one level")
    p_verify.set_defaults(func=cmd_verify)

    p_gram = sub.add_parser("gram", help="emit all Gram matrices as TSV")
    _add_param_flags(p_gram)
    _add_max_dim_flag(p_gram)
    p_gram.set_defaults(func=cmd_gram)

    p_dec = sub.add_parser("decomp", help="emit the decomposition matrix as TSV")
    _add_param_flags(p_dec)
    _add_max_dim_flag(p_dec)
    p_dec.set_defaults(func=cmd_decomp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GateError as exc:
        print(f"hypothesis gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        parser.error(str(exc))
        return EXIT_INTERNAL
    except Exception as exc:  # any other failure is internal: one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
