"""Tests of the benchmark itself (run with: python3 -m pytest bench/tests)."""

from __future__ import annotations

import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ariki_koike  # noqa: E402
from ariki_koike import cli  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One job of every kind the workloads use, at n <= 2.
SMALL_JOBS = {
    "relations": (workloads.relations_job, {"n": 2, "r": 2}),
    "morita": (workloads.split_job, {"suite": "morita", "n": 2, "r": 2, "s": 1}),
    "schur": (workloads.split_job, {"suite": "schur", "n": 2, "r": 2, "s": 1}),
    "modules-connected": (workloads.prime_field_job,
                          {"command": "decomp", "n": 2, "r": 3, "p": 5, "semisimple": False}),
    "modules-gram": (workloads.prime_field_job,
                     {"command": "gram", "n": 2, "r": 2, "p": 5, "semisimple": False}),
    "modules-semisimple": (workloads.prime_field_job,
                           {"command": "decomp", "n": 2, "r": 2, "p": 97, "semisimple": True}),
}


def _small(name: str, seed: int = 0) -> list[str]:
    fn, kwargs = SMALL_JOBS[name]
    return fn(random.Random(seed), ariki_koike, **kwargs)


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _params(argv: list[str]) -> ariki_koike.Params:
    field = ariki_koike.parse_field(_flag(argv, "--field") if "--field" in argv else "Q")
    s = int(_flag(argv, "--s")) if "--s" in argv else None
    return ariki_koike.Params(field=field, q=field(_flag(argv, "--q")),
                              Q=tuple(field(x) for x in _flag(argv, "--Q").split(",")),
                              n=int(_flag(argv, "--n")), r=int(_flag(argv, "--r")), s=s)


def _snapshot() -> dict:
    """Every attribute of every package module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("ariki_koike"):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_generators_keep_each_property(seed):
    relations = _params(_small("relations", seed))
    assert relations.n == 2 and len(set(relations.Q)) == relations.r
    for name in ("morita", "schur"):
        argv = _small(name, seed)
        assert _flag(argv, "--suite") == name
        assert ariki_koike.f_s_value(_params(argv)) != 0
    connected = _params(_small("modules-connected", seed))
    assert ariki_koike.poincare(connected) == 0
    q, (q1, q2) = connected.q, connected.Q[:2]
    assert q2 != q1 and any(q2 == q1 * connected.q_power(a) for a in (-1, 1))
    assert q != connected.field.one
    assert ariki_koike.poincare(_params(_small("modules-semisimple", seed))) != 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_with_fixed_sizes(workload):
    first = workloads.generate(workload, 7, ariki_koike)
    assert first == workloads.generate(workload, 7, ariki_koike)
    sizes = [[(_flag(a, "--n"), _flag(a, "--r")) for a in workloads.generate(workload, seed, ariki_koike)]
             for seed in range(4)]
    assert all(s == sizes[0] for s in sizes)
    assert first != workloads.generate(workload, 8, ariki_koike)


def test_reference_covers_the_default_seed_and_one_more():
    reference = json.loads(run.REFERENCE.read_text())
    for workload in workloads.WORKLOADS:
        for seed in (0, 1):
            for argv in workloads.generate(workload, seed, ariki_koike):
                assert run.Job(argv).key in reference


def _traced(argv: list[str]):
    trace = tracer.Tracer()
    trace.install()
    try:
        result = run.execute(cli, argv)
    finally:
        trace.uninstall()
    return result, tracer.combine([trace.layer_metrics()])


ZERO_IN_PRODUCT_ONLY_RUNS = ("linalg.", "algebra.transition.", "specht.", "morita.", "schur.")


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_tracing_keeps_output_and_removes_wrappers(name):
    argv = _small(name)
    before = _snapshot()
    _, _, code, plain, _ = run.execute(cli, argv)
    (_, _, traced_code, traced, _), layers = _traced(argv)
    assert _snapshot() == before
    assert code == traced_code == 0
    assert traced == plain
    assert layers["algebra.mul.calls"] > 0
    if name == "relations":
        assert all(v == 0 for k, v in layers.items() if k.startswith(ZERO_IN_PRODUCT_ONLY_RUNS))
    if name == "morita":
        # splitting_complement stacks its conditions into the tallest solves
        tallest = layers["linalg.solve.rows_max"]
        assert layers["morita.splitting_complement.calls"] > 0
        assert all(tallest >= layers[f"linalg.{fn}.rows_max"] for fn in tracer.LINALG_FUNCTIONS)
        assert layers["specht.spin.calls"] == 0
    if name == "schur":
        shapes = len(ariki_koike.multicompositions(2, 2))
        assert layers["schur.hom_space.calls"] >= shapes ** 2
    if name == "modules-gram":
        shapes = len(ariki_koike.multipartitions(2, 2))
        assert layers["specht.gram_matrix.calls"] >= shapes
        assert layers["linalg.determinant.calls"] == shapes
    elif name.startswith("modules"):
        assert layers["specht.spin.calls"] > 0
        assert 0 < layers["specht.chop.useful_ratio"] <= 1
        assert layers["algebra.transition.build_s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_metric_names_are_well_formed_and_all_produced():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(pattern.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    _, layers = _traced(_small("schur"))
    layers.update({"trace.wall_s": 0.0, "trace.overhead_s": 0.0, "host.reference_loop_ms": 0.0})
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)
    def setup():
        return cli, [["verify"]]
    setup.times = [0.1]
    bench = run.Run(setup, {})
    job = bench.jobs[0]
    job.wall = job.cpu = job.wall_ref = job.cpu_ref = [1.0]
    produced = run.end_to_end(bench)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(produced)


def test_reference_clock_samples_during_a_job_and_restores_the_handler():
    clock = run.ReferenceClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.ticking():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(clock.walls) >= 2 and 0 < clock.taken_wall < 0.35
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_output_checks_can_fail():
    job = run.Job(["verify", "--suite", "relations"])
    good = json.dumps([{"check": "x", "status": "pass"}])
    assert run.check_output(job, 0, good, "", {}) is None
    assert "exit code 1" in run.check_output(job, 1, good, "gate\n", {})
    bad = json.dumps([{"check": "x", "status": "fail"}])
    assert "not passing" in run.check_output(run.Job(["verify"]), 0, bad, "", {})
    assert "differs between" in run.check_output(job, 0, good + " ", "", {})
    assert "reference" in run.check_output(run.Job(job.argv), 0, good, "", {job.key: "0" * 64})
    decomp = run.Job(["decomp"])
    assert run.check_output(decomp, 0, "s\tA\tB\nA\t1\t0\nB\t1\t1\n", "", {}) is None
    assert "unit diagonal" in run.check_decomposition("s\tA\tB\nA\t1\t0\nB\t1\t2\n")
    assert "malformed" in run.check_decomposition("s\tA\nA\t1\t0\n")
    gram = "L\ts\tt\ns\t2\t3\nt\t3\t2\n# det = 0\nM\tu\nu\t1\n# det = 1"
    assert run.check_output(run.Job(["gram"]), 0, gram, "", {}) is None
    assert "symmetric" in run.check_gram(gram.replace("t\t3\t2", "t\t4\t2"))
    assert "malformed" in run.check_gram(gram.replace("# det = 1", ""))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "relations", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    jobs = len(workloads.WORKLOADS["relations"])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == jobs
    assert {m["name"] for m in SPEC["end_to_end"]} == set(last["metrics"])
    assert proc.stdout.count("# job: PYTHONPATH=src python3 -m ariki_koike verify") == jobs


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "relations", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
