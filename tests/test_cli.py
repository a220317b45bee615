import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import wraps

import pytest

from ariki_koike.cli import build_algebra, main, make_parser
from ariki_koike.fields import SizeGuardError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "2", "--r", "2"], capsys)
    assert code == 0
    assert "multipartitions n=2 r=2: 5" in out
    assert out.count("std=1") == 4 and out.count("std=2") == 1


def test_enumerate_zero(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "0", "--r", "2"], capsys)
    assert code == 0
    assert "multipartitions n=0 r=2: 1" in out


def test_enumerate_level_split(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "2", "--r", "2", "--s", "1", "--b", "1"], capsys
    )
    assert code == 0
    assert "level b=1: {[[1],[1]]}" in out


def test_verify_relations_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "relations", "--n", "2", "--r", "2"], capsys
    )
    assert code == 0
    entries = json.loads(out)
    assert all(e["status"] == "pass" for e in entries)
    assert {"check", "paper_ref", "params", "status", "detail"} <= set(entries[0])


@pytest.mark.parametrize("stray", ["-1", "dim"])
def test_basis_closure_fails_on_a_code_outside_the_basis(stray, monkeypatch, capsys):
    from ariki_koike.algebra import ArikiKoikeAlgebra

    original = ArikiKoikeAlgebra._mono_times_gen

    def leaky(alg, mono, g):
        # a negative code would index basis() from the end; one past it raises
        return {**original(alg, mono, g), (-1 if stray == "-1" else alg.dim): 1}

    monkeypatch.setattr(ArikiKoikeAlgebra, "_mono_times_gen", leaky)
    code, out, _ = run_cli(["verify", "--suite", "relations", "--n", "2", "--r", "2"], capsys)
    assert code == 1
    rows = {e["check"]: e for e in json.loads(out)}
    assert rows.pop("relations.basis_closure")["status"] == "fail"
    assert rows and all(e["status"] == "pass" for e in rows.values())


def test_verify_morita_small(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "morita", "--n", "2", "--r", "2", "--s", "1",
         "--q", "2", "--Q", "1,5"], capsys
    )
    assert code == 0
    entries = json.loads(out)
    assert all(e["status"] == "pass" for e in entries)


def test_verify_gate_exit_2(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "morita", "--n", "2", "--r", "2", "--s", "1",
         "--q", "2", "--Q", "1,2"], capsys
    )
    assert code == 2
    assert "f_s" in err
    assert out.strip() == ""  # no identity failures are reported


@pytest.mark.parametrize("argv, params_text", [
    (["verify", "--suite", "relations", "--n", "1", "--r", "2", "--q", "x", "--Q", "1,2"], None),
    (["verify", "--suite", "relations", "--n", "1", "--r", "2", "--q", "1/0", "--Q", "1,2"], None),
    (["verify", "--suite", "relations", "--n", "1", "--r", "2", "--field", "GF(5)", "--q", "2",
      "--Q", "1/5,2"], None),
    (["verify", "--suite", "relations", "--params", "PARAMS"], "q=2\nQ=1,5\nr=2\n"),
    (["verify", "--suite", "relations", "--params", "PARAMS"], None),
], ids=["malformed", "zero-denominator", "denominator-divisible-by-p", "params-file-without-n",
        "missing-params-file"])
def test_unparsable_parameter_value_exits_2(argv, params_text, tmp_path, capsys):
    pfile = tmp_path / "params.txt"
    if params_text is not None:
        pfile.write_text(params_text)
    with pytest.raises(SystemExit) as exc:
        main([str(pfile) if a == "PARAMS" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("ariki-koike: error: ")


def test_verify_size_guard_exit_3(capsys):
    code, _, err = run_cli(
        ["verify", "--suite", "relations", "--n", "5", "--r", "2"], capsys
    )
    assert code == 3
    assert "guard" in err


def test_decomp_requires_prime_field(capsys):
    code, _, err = run_cli(["decomp", "--n", "2", "--r", "2"], capsys)
    assert code == 2


def test_decomp_fixture(capsys):
    code, out, _ = run_cli(
        ["decomp", "--n", "2", "--r", "2", "--field", "GF(5)", "--q", "4",
         "--Q", "1,4"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape\\simple\t[[1],[1]]\t[[],[1,1]]"
    assert lines[3] == "[[1],[1]]\t1\t1"


def test_gram_tsv(capsys):
    code, out, _ = run_cli(["gram", "--n", "2", "--r", "2", "--Q", "1,5"], capsys)
    assert code == 0
    assert "# det =" in out
    assert "[[1],[1]]" in out


def test_deterministic_output(capsys):
    args = ["verify", "--suite", "cellular", "--n", "2", "--r", "2", "--seed", "7"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_params_file(tmp_path, capsys):
    pfile = tmp_path / "params.txt"
    pfile.write_text("field=Q\nq=2\nQ=1,5\nn=2\nr=2\ns=1\n")
    code, out, _ = run_cli(
        ["verify", "--suite", "relations", "--params", str(pfile)], capsys
    )
    assert code == 0
    entries = json.loads(out)
    assert entries and all(e["params"]["q"] == "2" for e in entries)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--suite", "relations", "--n", "1", "--r", "1", "--Q", "1",
         "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    entries = json.loads(target.read_text())
    assert all(e["status"] == "pass" for e in entries)


def test_verify_single_level(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "morita", "--n", "2", "--r", "2", "--s", "1",
         "--Q", "1,5", "--b", "1", "--format", "text"], capsys
    )
    assert code == 0
    assert "morita.filtration" in out and "FAIL" not in out


def test_verify_all_at_n0(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--n", "0", "--r", "2", "--s", "1"], capsys
    )
    assert code == 0
    entries = json.loads(out)
    assert all(e["status"] == "pass" for e in entries)
    checks = {e["check"] for e in entries}
    assert {"specht.action_relations", "morita.rank_counting", "schur.dimension"} <= checks


def test_verify_all_is_each_suite_once(capsys):
    split = ["--n", "2", "--r", "2", "--s", "1", "--Q", "1,5"]
    merged = []
    for suite in ("relations", "cellular", "specht", "morita", "schur"):
        code, out, _ = run_cli(["verify", "--suite", suite, *split], capsys)
        assert code == 0
        merged += json.loads(out)
    code, out, _ = run_cli(["verify", "--suite", "all", *split], capsys)
    assert code == 0
    assert json.loads(out) == sorted(
        merged, key=lambda e: (e["check"], json.dumps(e["params"], sort_keys=True)))


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "2", "--r", "2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["multipartitions"]) == 5


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ariki_koike", "enumerate", "--n", "1", "--r", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "multipartitions n=1 r=3: 3" in proc.stdout


def test_failed_decomposition_validation_is_a_failed_row(monkeypatch, capsys):
    from ariki_koike import specht
    from ariki_koike.fields import ComputationError

    def broken(data, modules):
        raise ComputationError("decomposition matrix has a diagonal entry != 1")

    monkeypatch.setattr(specht, "_validate_decomposition", broken)
    args = ["--n", "2", "--r", "2", "--field", "GF(5)", "--q", "4", "--Q", "1,4"]
    code, out, _ = run_cli(["verify", "--suite", "specht", *args], capsys)
    assert code == 1
    rows = {e["check"]: e for e in json.loads(out)}
    row = rows.pop("specht.decomposition_matrix")
    assert row["status"] == "fail" and "diagonal entry" in row["detail"]
    assert rows and all(e["status"] == "pass" for e in rows.values())
    # the decomp command has no report to carry the failure: it stays an internal error
    code, out, err = run_cli(["decomp", *args], capsys)
    assert code == 4 and out == "" and "diagonal entry" in err


@pytest.mark.parametrize("args", [
    ["--n", "3", "--r", "2", "--q", "2", "--Q", "1,5"],
    ["--n", "3", "--r", "2", "--field", "GF(5)", "--q", "2", "--Q", "1,2"],  # q-connected
], ids=["Q", "GF5"])
def test_blocks_by_content_fails_on_a_wrong_content(args, monkeypatch, capsys):
    from ariki_koike import suites

    content = suites.content

    def short(lam, params):
        # one residue dropped: the central L_1 + ... + L_n acts by another scalar
        return content(lam, params)[1:]

    monkeypatch.setattr(suites, "content", short)
    code, out, _ = run_cli(["verify", "--suite", "specht", *args], capsys)
    assert code == 1
    rows = {e["check"]: e for e in json.loads(out)}
    row = rows.pop("specht.blocks_by_content")
    assert row["status"] == "fail" and row["detail"].startswith("L_1+...+L_n is not")
    assert rows and all(e["status"] == "pass" for e in rows.values())


def _failed_rows(out) -> dict:
    return {e["check"]: e["detail"] for e in json.loads(out) if e["status"] == "fail"}


@pytest.mark.parametrize("g, detail", [(1, "quadratic fails on"), (0, "cyclotomic fails on")], ids=["T1", "T0"])
def test_action_relations_fail_on_a_doubled_generator(g, detail, monkeypatch, capsys):
    from ariki_koike import suites

    specht_module = suites.specht_module

    def doubled(alg, lam):
        sm = specht_module(alg, lam)
        action = list(sm.action)
        action[g] = [alg.field.canonical(den, {j: 2 * a for j, a in ints.items()}) for den, ints in action[g]]
        return replace(sm, action=action)

    monkeypatch.setattr(suites, "specht_module", doubled)
    code, out, _ = run_cli(["verify", "--suite", "specht", "--n", "2", "--r", "2", "--q", "2", "--Q", "1,5"],
                           capsys)
    assert code == 1
    assert _failed_rows(out)["specht.action_relations"].startswith(detail)


@pytest.mark.parametrize("entries, detail", [
    ([(0, 1)], "asymmetric on [[1],[1]]; not invariant on [[1],[1]]"),
    ([(0, 1), (1, 0)], "not invariant on [[1],[1]]"),
], ids=["one-entry", "symmetric-pair"])
def test_gram_invariance_fails_on_a_changed_entry(entries, detail, monkeypatch, capsys):
    from ariki_koike import suites

    gram_matrix = suites.gram_matrix

    def changed(alg, lam):
        g = list(gram_matrix(alg, lam))
        if len(g) > 1:
            for i, j in entries:  # entry (i, j) gains 1
                den, ints = g[i]
                g[i] = alg.field.canonical(den, {**ints, j: ints.get(j, 0) + den})
        return g

    monkeypatch.setattr(suites, "gram_matrix", changed)
    code, out, _ = run_cli(["verify", "--suite", "specht", "--n", "2", "--r", "2", "--q", "2", "--Q", "1,5"],
                           capsys)
    assert code == 1
    assert _failed_rows(out)["specht.gram_invariance"] == detail


CELLULAR_N2 = ["verify", "--suite", "cellular", "--n", "2", "--r", "2", "--q", "2", "--Q", "1,5"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_layer_ideals_fail_on_a_product_below_its_shape(side, monkeypatch, capsys):
    # once the transition is built, m T_i (right) or T_i m (left), i >= 1, gains
    # the cell element of the least shape, which dominates no other shape
    from ariki_koike.algebra import Element
    from ariki_koike.tableaux import dominates, multipartitions, t_row

    mul = Element.__mul__

    def faulty(a, b):
        out = mul(a, b)
        alg = a.alg
        if "transition" not in alg._derived:
            return out
        gens = {alg.gen_T(i) for i in range(1, alg.n)}
        if (b in gens and a not in gens) if side == "right" else (a in gens and b not in gens):
            lams = multipartitions(alg.n, alg.r)
            least = t_row(next(mu for mu in lams if all(dominates(lam, mu) for lam in lams)))
            out = out + alg.m_st(least, least)
        return out

    monkeypatch.setattr(Element, "__mul__", faulty)
    code, out, _ = run_cli(CELLULAR_N2, capsys)
    assert code == 1
    assert _failed_rows(out) == {"cellular.layer_ideals": f"{side} multiplication leaves the layer ideal"}


def test_layer_ideals_fail_when_dominance_is_narrowed_to_equality(monkeypatch, capsys):
    from ariki_koike import suites

    monkeypatch.setattr(suites, "dominates", lambda lam, mu: lam == mu)
    code, out, _ = run_cli(CELLULAR_N2, capsys)
    assert code == 1
    assert _failed_rows(out) == {"cellular.layer_ideals": "left multiplication leaves the layer ideal; "
                                                          "right multiplication leaves the layer ideal"}


def test_star_swap_fails_when_star_is_the_identity(monkeypatch, capsys):
    from ariki_koike.algebra import Element

    monkeypatch.setattr(Element, "star", lambda self: self)
    code, out, _ = run_cli(CELLULAR_N2, capsys)
    assert code == 1
    assert _failed_rows(out) == {"cellular.star_swap": "[[1],[1]]; [[1],[1]]"}


MORITA_N2 = ["verify", "--suite", "morita", "--n", "2", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5"]


def test_end_basis_and_filtration_fail_on_a_transposed_v_action(monkeypatch, capsys):
    from ariki_koike.linalg import transpose
    from ariki_koike.morita import MoritaSuite

    v_action = MoritaSuite.v_action

    def transposed(suite, b):
        act = v_action(suite, b)
        return [act[0], transpose(suite.field, act[1], len(act[1])), *act[2:]]

    monkeypatch.setattr(MoritaSuite, "v_action", transposed)
    code, out, _ = run_cli(MORITA_N2, capsys)
    failed = _failed_rows(out)
    assert code == 1
    assert failed["morita.end_basis"] == "endomorphism does not commute with the action"
    assert failed["morita.filtration"].startswith("filtration not triangular")


def test_hom_vanishing_fails_when_every_level_acts_as_level_0(monkeypatch, capsys):
    from ariki_koike.morita import MoritaSuite

    v_action = MoritaSuite.v_action
    monkeypatch.setattr(MoritaSuite, "v_action", lambda suite, b: v_action(suite, 0))
    code, out, _ = run_cli(MORITA_N2, capsys)
    rows = [e for e in json.loads(out) if e["check"] == "morita.hom_vanishing"]
    assert code == 1 and len(rows) == 6
    assert all(e["status"] == "fail" and e["detail"] != "dim Hom = 0" for e in rows)


def test_chop_giving_up_exits_4(monkeypatch, capsys):
    from ariki_koike import specht

    monkeypatch.setattr(specht, "MAX_TRIES", 0)
    args = ["--n", "2", "--r", "2", "--field", "GF(5)", "--q", "4", "--Q", "1,4"]
    code, out, err = run_cli(["decomp", *args], capsys)
    assert (code, out) == (4, "")
    assert err == "computation failed: the chop found no split and no irreducibility proof in 0 tries\n"


def test_unexpected_exception_exits_4_in_one_line(monkeypatch, capsys):
    from ariki_koike import cli

    def crash(alg):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "decomposition_matrix", crash)
    args = ["--n", "2", "--r", "2", "--field", "GF(5)", "--q", "4", "--Q", "1,4"]
    assert run_cli(["decomp", *args], capsys) == (4, "", "internal error: RuntimeError: unexpected\n")


def test_verify_all_builds_each_derived_object_once(monkeypatch, capsys):
    from collections import Counter

    from ariki_koike import algebra, specht

    builds = Counter()

    def key(alg_or_params):
        return (alg_or_params.n, alg_or_params.r, tuple(str(x) for x in alg_or_params.Q))

    def counting(kind, build, key_of):
        def wrapped(self_or_alg, *args, **kwargs):
            builds[(kind, key_of(self_or_alg, *args))] += 1
            return build(self_or_alg, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "__init__", counting(
        "algebra", algebra.ArikiKoikeAlgebra.__init__, lambda self, params, *_: key(params)))
    monkeypatch.setattr(algebra.TransitionMatrix, "__init__", counting(
        "transition", algebra.TransitionMatrix.__init__, lambda self, alg: key(alg)))
    for name in ("_specht_module", "_gram_matrix"):
        monkeypatch.setattr(specht, name, counting(
            name, getattr(specht, name), lambda alg, lam: (key(alg), lam)))

    code, _, _ = run_cli(
        ["verify", "--suite", "all", "--n", "2", "--r", "2", "--s", "1",
         "--field", "GF(5)", "--q", "2", "--Q", "1,4"], capsys
    )
    assert code == 0
    big = (2, 2, ("1", "4"))
    factors = {(m, 1, (Q,)) for m in range(3) for Q in ("1", "4")}
    assert {k for kind, k in builds if kind == "algebra"} == {big} | factors
    assert builds[("transition", big)] == 1
    assert sum(1 for kind, k in builds if kind == "_specht_module" and k[0] == big) == 5
    assert all(count == 1 for count in builds.values()), builds


def test_failed_decomposition_validation_fails_the_factorization_row(monkeypatch, capsys):
    from ariki_koike import specht
    from ariki_koike.fields import ComputationError

    def broken(data, modules):
        raise ComputationError("decomposition matrix has a diagonal entry != 1")

    monkeypatch.setattr(specht, "_validate_decomposition", broken)
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--n", "2", "--r", "2", "--s", "1",
         "--field", "GF(5)", "--q", "2", "--Q", "1,4"], capsys
    )
    assert code == 1
    rows = {e["check"]: e for e in json.loads(out)}
    for name in ("morita.decomposition_factorization", "specht.decomposition_matrix"):
        row = rows.pop(name)
        assert row["status"] == "fail" and "diagonal entry" in row["detail"]
    assert rows and all(e["status"] == "pass" for e in rows.values())


def test_morita_builds_per_level_data_once(monkeypatch, capsys):
    from collections import Counter

    from ariki_koike import algebra

    builds, u_minus_calls = Counter(), Counter()
    derived, u_minus = algebra.ArikiKoikeAlgebra.derived, algebra.ArikiKoikeAlgebra.u_minus

    def counting_derived(self, key, build):
        def counted():
            builds[(self.n, self.r, key)] += 1
            return build()
        return derived(self, key, counted)

    def counting_u_minus(self, m):
        u_minus_calls[(self.n, self.r, m)] += 1
        return u_minus(self, m)

    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "derived", counting_derived)
    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "u_minus", counting_u_minus)
    left_mult = count_left_mult_matrix(monkeypatch)
    args = ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1", "--q", "2", "--Q", "1,5,7"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and all(e["status"] == "pass" for e in json.loads(out))
    for b in range(3):
        for name in ("theta_head", "v_b"):
            assert builds[(2, 3, (name, b))] == 1, (name, b)
    assert all(count == 1 for count in builds.values()), builds
    # u_{n-b}^- enters only through the memoized head of theta_b
    assert u_minus_calls == Counter({(2, 3, m): 1 for m in range(3)})
    # each v_b has one right-ideal record, so its products v_b L^d T_w are taken once per level
    alg = build_algebra(make_parser().parse_args(args))
    for b in range(3):
        v_b = alg.v_b_elem(b)
        key = (v_b.den, frozenset(v_b.ints.items()))
        assert builds[(2, 3, ("right_ideal", *key))] == 1, b
        assert left_mult[key] == 1, b


def test_morita_run_forms_each_theta_image_once(monkeypatch, capsys):
    # theta_b(m_uv) is formed once per level and cell, into the memo that the
    # v-basis, kernel, leading-term, end-basis, cell-law and complement checks
    # read; a cell element is recognised as one that m_st handed out
    from ariki_koike.algebra import ArikiKoikeAlgebra
    from ariki_koike.morita import MoritaSuite

    cells, calls = {}, Counter()
    m_st, theta_b = ArikiKoikeAlgebra.m_st, ArikiKoikeAlgebra.theta_b

    def tagged(self, s, t):
        out = m_st(self, s, t)
        cells[id(out)] = (out, s, t)  # kept alive, so no other element takes its id
        return out

    def counted(self, b, h):
        if id(h) in cells:
            calls[(b, *cells[id(h)][1:])] += 1
        return theta_b(self, b, h)

    monkeypatch.setattr(ArikiKoikeAlgebra, "m_st", tagged)
    monkeypatch.setattr(ArikiKoikeAlgebra, "theta_b", counted)
    args = ["verify", "--suite", "morita", "--n", "3", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and all(e["status"] == "pass" for e in json.loads(out))
    assert set(calls.values()) == {1}
    suite = MoritaSuite(build_algebra(make_parser().parse_args(args)))
    assert set(calls) == {(b, u, v) for b in range(4) for _, u, v in suite.level(b).one_sided}


def count_left_mult_matrix(monkeypatch):
    """Count `left_mult_matrix` calls per element, keyed on the element's form."""
    from collections import Counter

    from ariki_koike import algebra

    calls = Counter()
    left_mult_matrix = algebra.ArikiKoikeAlgebra.left_mult_matrix

    def counting(self, elem):
        calls[elem.den, frozenset(elem.ints.items())] += 1
        return left_mult_matrix(self, elem)

    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "left_mult_matrix", counting)
    return calls


def test_products_taken_once_per_element(monkeypatch, capsys):
    # Morita's v_b and m_{omega_b} and Schur's m_mu each have one right-ideal
    # record, so an element that two suites (or two roles) need is multiplied
    # out once; so is each right-ideal generator of rAnn(v_b) and rAnn(m_mu),
    # whose records the generator search reads and which are counted apart
    from ariki_koike import algebra

    calls = count_left_mult_matrix(monkeypatch)
    battery, generators, searching = set(), set(), []
    right_ideal, ideal_generators = algebra.ArikiKoikeAlgebra.right_ideal, algebra.ArikiKoikeAlgebra.ideal_generators

    def reading(self, elem):
        if not searching:
            battery.add((elem.den, frozenset(elem.ints.items())))
        return right_ideal(self, elem)

    def search(self, kernel):
        searching.append(kernel)
        try:
            gens = ideal_generators(self, kernel)
        finally:
            searching.pop()
        generators.update((den, frozenset(ints.items())) for den, ints in gens)
        return gens

    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "right_ideal", reading)
    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "ideal_generators", search)
    code, _, _ = run_cli(["verify", "--suite", "all", "--n", "2", "--r", "3", "--s", "1",
                          "--q", "2", "--Q", "1,5,7"], capsys)
    assert code == 0
    assert all(count == 1 for count in calls.values()), calls
    assert calls.keys() == battery | generators
    assert len(battery) == 11 and len(generators) == 13 and len(calls) == 23


def test_suite_all_builds_each_part_of_a_right_ideal_once(monkeypatch, capsys):
    # one record per element: each of its parts is built at most once over the
    # Morita and Schur batteries, and `verify_bases` and `schur.hom_space` read
    # the same echelon of M^{omega_b} = m_{omega_b} H
    from ariki_koike import algebra, morita, schur

    calls = count_left_mult_matrix(monkeypatch)
    builds, reads, inside = Counter(), [], []
    for name in ("span", "annihilator", "generators", "hom_images"):
        cached = vars(algebra.RightIdeal)[name]

        def read(self, name=name, cached=cached):
            key = (self.form[0], frozenset(self.form[1].items()))
            if name not in vars(self):
                builds[name, key] += 1
            value = cached.__get__(self, algebra.RightIdeal)
            if name == "span" and inside:
                reads.append((inside[-1], key, value))
            return value
        monkeypatch.setattr(algebra.RightIdeal, name, property(read))

    def marking(owner, name):
        fn = getattr(owner, name)

        def marked(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, marked)
    marking(morita.MoritaSuite, "verify_bases")
    marking(schur, "hom_space")
    code, _, _ = run_cli(["verify", "--suite", "all", "--n", "2", "--r", "3", "--s", "1",
                          "--q", "2", "--Q", "1,5,7"], capsys)
    assert code == 0
    assert len(calls) == 23 and set(calls.values()) == {1}
    assert {name for name, _ in builds} == {"span", "annihilator", "generators", "hom_images"}
    assert set(builds.values()) == {1}
    # one m_{omega_b} per level b = 0, 1, 2, each read by hom_space as the same object
    by_bases = {key: span for owner, key, span in reads if owner == "verify_bases"}
    by_hom = [(key, span) for owner, key, span in reads if owner == "hom_space" and key in by_bases]
    assert len(by_bases) == 3 and {key for key, _ in by_hom} == by_bases.keys()
    assert all(span is by_bases[key] for key, span in by_hom)


@pytest.mark.parametrize("r, n, admitted", [
    (1, 6, True), (2, 4, True), (3, 3, True), (4, 2, True), (2, 5, False), (3, 4, False),
    (2, 13, False), (7, 11, False),
])
def test_default_size_guard(r, n, admitted, monkeypatch):
    from ariki_koike.algebra import ArikiKoikeAlgebra
    from ariki_koike.cli import build_params

    def refuse(self):
        raise AssertionError("the guard built a table of S_n or of the exponents")

    # the guard alone, without running a suite, and without building S_n
    monkeypatch.setattr(ArikiKoikeAlgebra, "_perms", property(refuse))
    monkeypatch.setattr(ArikiKoikeAlgebra, "_exps", property(refuse))
    args = make_parser().parse_args(["verify", "--n", str(n), "--r", str(r)])
    if admitted:
        alg = build_algebra(args)
        assert (alg.r, alg.n) == (r, n)
    else:
        with pytest.raises(SizeGuardError):
            build_algebra(args)
        if n > 6:
            # a library caller's algebra of that size is refused by its transition guard
            with pytest.raises(SizeGuardError):
                ArikiKoikeAlgebra(build_params(args)).transition()


@pytest.mark.parametrize("b", [7, -1])
def test_verify_level_out_of_range_is_refused_before_the_algebra(b, monkeypatch, capsys):
    from ariki_koike import algebra

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built for an out-of-range level")

    base = ["--n", "2", "--r", "2", "--q", "2", "--Q", "1,4", "--b", str(b)]
    split = [*base, "--s", "1"]
    errors = []
    # without a split (no --s, or s = r) the level is refused all the same
    for argv in (["enumerate", *split], ["verify", "--suite", "morita", *split],
                 ["enumerate", *base], ["enumerate", *base, "--s", "2"],
                 ["verify", "--suite", "relations", *base]):
        with monkeypatch.context() as patch:
            patch.setattr(algebra.ArikiKoikeAlgebra, "__init__", refuse)
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors == [f"ariki-koike: error: b={b} out of range 0..2"] * 5


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1", "--q", "2", "--Q", "1,5,7"],
    ["verify", "--suite", "schur", "--n", "2", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5"],
    ["decomp", "--n", "2", "--r", "2", "--field", "GF(5)", "--q", "2", "--Q", "1,4"],
    ["gram", "--n", "2", "--r", "2", "--Q", "1,5"],
], ids=lambda argv: "-".join(argv[:3]))
def test_each_algebra_is_freed_by_reference_counting(argv, monkeypatch, capsys):
    """Nothing an algebra keeps points back at it, so its memo goes with the command."""
    import gc
    import weakref

    from ariki_koike import algebra

    built = []
    init = algebra.ArikiKoikeAlgebra.__init__

    def recording(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra.ArikiKoikeAlgebra, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _, _ = run_cli(argv, capsys)
        alive = [ref for ref in built if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert code == 0 and built
    assert not alive, f"{len(alive)} of {len(built)} algebras outlive the command"


@pytest.mark.parametrize("argv", [
    ["gram", "--n", "2", "--r", "2", "--format", "json"],
    ["decomp", "--n", "2", "--r", "2", "--field", "GF(5)", "--seed", "3"],
    ["verify", "--suite", "relations", "--n", "2", "--r", "2", "--format", "tsv"],
    ["enumerate", "--n", "2", "--r", "2", "--max-dim", "10"],
], ids=["gram-format", "decomp-seed", "verify-format-tsv", "enumerate-max-dim"])
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("ariki-koike") and ": error: " in last


def test_morita_solves_each_matrix_once_for_all_right_hand_sides(monkeypatch, capsys):
    from ariki_koike import algebra, morita

    calls, inside, inverted = [], [], []

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls.append(inside[-1] if inside else name)
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    def apart(owner, name, label, seen):
        fn = getattr(owner, name)

        def wrapped(self, *args):
            seen.append(self)
            inside.append(label)
            try:
                return fn(self, *args)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapped)

    # every elimination the battery reads solutions or a kernel off: the one
    # solve of each `alg.coordinates`, the complement's solve, and the echelon
    # whose free columns give rAnn(v_b); the transition's own echelon, once per
    # algebra, the generator search's, once per level, and the echelon of
    # M^{omega_b} that `verify_bases` reads ranks off, once per level, also sit
    # in `algebra` and are counted apart
    searched = []
    apart(algebra.TransitionMatrix, "inverse", "transition", inverted)
    apart(algebra.ArikiKoikeAlgebra, "ideal_generators", "generators", searched)
    span = vars(algebra.RightIdeal)["span"]

    def spanning(self):
        inside.append("span")
        try:
            return span.__get__(self, algebra.RightIdeal)
        finally:
            inside.pop()
    monkeypatch.setattr(algebra.RightIdeal, "span", property(spanning))
    counting(algebra.ArikiKoikeAlgebra, "coordinates")
    counting(algebra, "Echelon")
    counting(morita, "solve")
    code, _, _ = run_cli(
        ["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1",
         "--q", "2", "--Q", "1,5,7"], capsys
    )
    assert code == 0
    # per level b = 0, 1, 2: rAnn(v_b), the preimages, the action, the images
    # of every split pair and the complement once each
    # (15 in all; 24 when the end basis solved once per split pair)
    assert calls.count("Echelon") == 3
    assert calls.count("solve") == 3
    assert calls.count("coordinates") == 3 * 3
    assert len(calls) - calls.count("transition") - calls.count("generators") - calls.count("span") == 5 * 3
    assert calls.count("span") == 3
    # one echelon per transition, however often its inverse is read
    assert calls.count("transition") == len({id(trans) for trans in inverted}) > 1
    # one generator search, and so one echelon, per level
    assert calls.count("generators") == len(searched) == 3


def _no_condition_rows(alg, forms, kernel):
    return iter(())


def _condition_rows_over_den_1(alg, forms, kernel):
    # the products as the helper computes them, but each entry put over den 1
    from ariki_koike.linalg import transpose

    for kden, kints in kernel:
        prods = [alg.field.canonical(*alg._product_into([1, {}], den, ints, kden, kints))
                 for den, ints in forms]
        yield from transpose(alg.field, [(1, ints) for _, ints in prods], alg.dim)


@pytest.mark.parametrize("fault", [_no_condition_rows, _condition_rows_over_den_1],
                         ids=["no-rows", "den-1"])
def test_wrong_condition_rows_fail_schur_and_morita(fault, monkeypatch, capsys):
    from ariki_koike.algebra import ArikiKoikeAlgebra

    monkeypatch.setattr(ArikiKoikeAlgebra, "condition_rows", fault)
    code, out, _ = run_cli(["verify", "--suite", "schur", "--n", "2", "--r", "2", "--s", "1",
                            "--q", "2", "--Q", "1,8"], capsys)
    failed = {row["check"] for row in json.loads(out) if row["status"] == "fail"}
    assert code == 1 and "schur.hom_space" in failed
    code, _, _ = run_cli(["verify", "--suite", "morita", "--n", "2", "--r", "3", "--s", "1",
                          "--q", "3", "--Q", "8,2,3"], capsys)
    assert code != 0


@pytest.mark.parametrize("suite, check", [("morita", "morita.regular_decomposition"),
                                          ("schur", "schur.hom_space")])
def test_too_few_ideal_generators_fail_the_annihilator_systems(suite, check, monkeypatch, capsys):
    # with the generators cut to the first, "x kills rAnn(y)" is imposed on a
    # smaller ideal: the complement's solution or a Hom space comes out wrong
    from ariki_koike.algebra import ArikiKoikeAlgebra

    ideal_generators = ArikiKoikeAlgebra.ideal_generators
    monkeypatch.setattr(ArikiKoikeAlgebra, "ideal_generators",
                        lambda self, kernel: ideal_generators(self, kernel)[:1])
    code, out, _ = run_cli(["verify", "--suite", suite, "--n", "2", "--r", "2", "--s", "1",
                            "--q", "2", "--Q", "1,5"], capsys)
    failed = {row["check"] for row in json.loads(out) if row["status"] == "fail"}
    assert code == 1 and check in failed


def test_a_member_in_M_mu_but_outside_W_nu_fails_its_hom_row(monkeypatch, capsys):
    # one semistandard map of one pair is shifted by 1: m_mu = 1 for
    # mu = ((), (1, 1)), so M^mu = H holds it, but 1 does not kill the
    # nonzero rAnn(m_nu), so W_nu does not; the shifted set stays
    # independent, so only the membership in W_nu can fail the row
    from ariki_koike import schur
    from ariki_koike.algebra import ArikiKoikeAlgebra
    from ariki_koike.tableaux import MultiComposition, multipartitions, semistandard

    mu, nu = MultiComposition([(), (1, 1)]), MultiComposition([(2,), ()])
    alg = build_algebra(make_parser().parse_args(SCHUR_RUN))
    S, T = next((S, T) for lam in multipartitions(2, 2)
                for S in semistandard(lam, mu) for T in semistandard(lam, nu))
    assert alg.right_ideal(alg.m_lambda(mu)).span.contains(*alg.one().form)
    assert not alg.right_ideal(alg.m_lambda(nu)).hom_images.contains(*alg.one().form)
    m_semi = ArikiKoikeAlgebra.m_semi

    def shifted(self, s, t):
        return m_semi(self, s, t) + self.one() if (s, t) == (S, T) else m_semi(self, s, t)
    monkeypatch.setattr(ArikiKoikeAlgebra, "m_semi", shifted)
    data = schur.hom_space(mu, nu, alg)
    assert data["dim"] == data["expected"] and data["members_independent"]
    assert not data["members_inside"]
    code, out, _ = run_cli(SCHUR_RUN, capsys)
    failed = [row for row in json.loads(out) if row["status"] == "fail"]
    assert code == 1 and [row["check"] for row in failed] == ["schur.hom_space"]
    assert (failed[0]["params"]["mu"], failed[0]["params"]["nu"]) == (mu.serialize(), nu.serialize())

def test_saturated_row_fails_when_every_set_passes_as_saturated(monkeypatch, capsys):
    from ariki_koike import schur

    monkeypatch.setattr(schur, "saturated_check", lambda gamma, n, r: True)
    code, out, _ = run_cli(["verify", "--suite", "schur", "--n", "2", "--r", "2", "--s", "1",
                            "--q", "2", "--Q", "1,5"], capsys)
    rows = [row for row in json.loads(out) if row["check"] == "schur.saturated"]
    assert code == 1 and len(rows) == 1
    assert rows[0]["status"] == "fail" and rows[0]["detail"] == "Gamma = all multipartitions"


SCHUR_RUN = ["verify", "--suite", "schur", "--n", "2", "--r", "2", "--s", "1", "--q", "2", "--Q", "1,5"]
ENUMERATORS = ("multipartitions", "multicompositions", "std_tableaux", "semistandard")


def test_schur_run_enumerates_each_shape_table_once(monkeypatch, capsys):
    # `alg.shape_table` calls an enumerator of tableaux once per argument
    # tuple and algebra; schur's own imports serve the algebra-free
    # saturated_check and schur_dimension, which enumerate once per call
    from ariki_koike import schur, tableaux
    from ariki_koike.algebra import ArikiKoikeAlgebra

    calls, tables, checks = Counter(), {}, []

    def counting(owner, enum):
        @wraps(enum)
        def counted(*args):
            calls[owner, enum.__name__, args] += 1
            return enum(*args)
        return counted
    for name in ENUMERATORS:
        if hasattr(schur, name):
            monkeypatch.setattr(schur, name, counting("schur", getattr(tableaux, name)))
    shape_table = ArikiKoikeAlgebra.shape_table

    def recorded(self, enum, *args):
        enum = getattr(enum, "__wrapped__", enum)  # schur reads its tables with its own (counted) names
        out = shape_table(self, counting("table", enum), *args)
        assert tables.setdefault((id(self), enum.__name__, args), out) is out
        return out
    monkeypatch.setattr(ArikiKoikeAlgebra, "shape_table", recorded)
    saturated_check = schur.saturated_check

    def counted_check(gamma, n, r):
        checks.append((n, r))
        return saturated_check(gamma, n, r)
    monkeypatch.setattr(schur, "saturated_check", counted_check)

    assert run_cli(SCHUR_RUN, capsys)[0] == 0
    from_tables = {key: k for key, k in calls.items() if key[0] == "table"}
    assert {name for _, name, _ in from_tables} == set(ENUMERATORS)
    assert len({args for _, name, args in from_tables if name == "semistandard"}) == 5 * 5
    assert set(from_tables.values()) == {1}
    # once per saturated_check call and once in schur_dimension, not once per member
    assert calls["schur", "multipartitions", (2, 2)] == len(checks) + 1 > 2
    assert all(k == 1 for (owner, name, _), k in calls.items() if name == "semistandard")
    for (_, name, args), out in tables.items():
        assert isinstance(out, tuple) and out == tuple(getattr(tableaux, name)(*args))
    # a second run builds a fresh algebra, which enumerates its tables again
    assert run_cli(SCHUR_RUN, capsys)[0] == 0
    assert {k for key, k in calls.items() if key[0] == "table"} == {2}


@pytest.mark.parametrize("components, key, check", [
    (((1, 1),), (2, 2), "schur.gamma_split"),
    (((2,), ()), (3, 0, 0, 0), "schur.saturated"),
], ids=["split-factor", "most-dominant"])
def test_schur_rows_fail_on_a_corrupted_dominance_key(components, key, check, monkeypatch, capsys):
    # every instance of one shape is built with a wrong cached dominance key:
    # the check that reads it must fail, as the key is never recomputed
    from ariki_koike.tableaux import MultiComposition

    init = MultiComposition.__init__

    def corrupted(self, comps):
        init(self, comps)
        if self.components == components:
            self._dominance = key
    monkeypatch.setattr(MultiComposition, "__init__", corrupted)
    code, out, _ = run_cli(SCHUR_RUN, capsys)
    failed = {row["check"] for row in json.loads(out) if row["status"] == "fail"}
    assert code == 1 and check in failed


@pytest.mark.parametrize("argv, code", [
    ("verify --suite all --n 0 --r 2 --s 1", 0),
    ("verify --suite relations --n 2 --r 2 --Q 3,3", 0),
    ("verify --suite morita --n 2 --r 2 --s 1 --Q 3,3", 2),
    ("verify --suite relations --n 2 --r 2 --q 1 --Q 1,5", 0),
    ("verify --suite relations --n 2 --r 2 --q 0 --Q 1,5", 2),
    ("verify --suite morita --n 2 --r 2 --s 1 --Q 1,5 --b 3", 2),
    ("verify --suite morita --n 2 --r 2 --s 2 --Q 1,5", 2),
    ("verify --suite relations --n 2 --r 2 --field GF(4) --Q 1,2", 2),
    ("verify --suite relations --n x", 2),
    ("verify --suite relations --n 5 --r 2", 3),
    ("verify --suite relations --n 2 --r 2 --max-dim 0", 2),
    ("verify --suite relations --n 2 --r 2 --max-dim -1", 2),
    ("verify --suite relations --n 1 --r 1 --Q 1 --params {tmp}/missing.txt", 2),
    ("verify --suite relations --n 1 --r 1 --Q 1 --out {tmp}/missing/report.json", 2),
    ("verify --suite relations --n 1 --r 1 --Q 1 --out {tmp}", 2),
], ids=["n=0", "Qi=Qj-relations", "Qi=Qj-morita", "q=1", "q=0", "b-out-of-range", "s=r",
        "non-prime-field", "malformed-int", "size-guard", "max-dim-0", "max-dim-negative", "unreadable-params", "out-in-missing-dir",
        "out-is-a-directory"])
def test_exit_code_contract(argv, code, tmp_path, capsys):
    """0 pass / 1 check failed / 2 gate refused or usage error / 3 size guard;
    {tmp} in argv stands for a fresh empty directory."""
    try:
        got = main(argv.format(tmp=tmp_path).split())
    except SystemExit as exc:
        got = exc.code
    assert got == code
    if code:
        assert capsys.readouterr().err.strip()
