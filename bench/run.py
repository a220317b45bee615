"""Benchmark of the ariki_koike command line: end-to-end times and layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload relations --seed 0 --seconds 30 --trace 0

The workload seed generates a list of CLI jobs (bench/workloads.py).  They
run in this process, through `ariki_koike.cli.main(argv)`, in a closed loop
on one thread: each job starts when the previous one has finished.  The list
is repeated until --seconds have passed and every job has run at least once.

On a shared host, other tenants slow a process down by up to 60% in phases of
seconds to minutes, in CPU time as much as in wall time.  So a fixed loop of
pure-Python work that calls nothing of the program (`reference_loop`) is timed
between the repetitions of the jobs and, from a timer signal, every
SAMPLE_EVERY_S during them (the time those samples take is subtracted from the
repetition).  Each repetition is also given at the reference speed: its time
scaled by REFERENCE_LOOP_S over the median loop time around and during it.
Over five minutes of one Schur job list on a 2-vCPU shared host, the loop's
time and the jobs' time correlated at 0.85 in 10-s windows, and over 30-s
windows their ratio spread 2.4% where the raw time spread 14%.  A workload's
`wall_ref_s` and `cpu_ref_s` are the sum over its jobs of the median
repetition at the reference speed; the raw `wall_s` and `cpu_s` (the same
sums, unscaled) are printed beside them.  `setup_s` is the median of
SETUP_REPEATS imports of the package and generations of the jobs, each at the
reference speed (scaled by loop readings taken just before it), and is printed
beside its raw median.

Every run checks every output: the exit code, that every report row passes
(decomposition matrices: unit diagonal; Gram matrices: symmetric), that
repetitions of a job print the same bytes, and, for the argv recorded in
bench/reference.json, that stdout has the recorded digest.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
every job untraced and then traced (bench/tracer.py), prints the per-layer
metrics and the tracing overhead, and writes the spans to .bench_out/.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shlex
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "ariki_koike"
SETUP_REPEATS = 15
REFERENCE_REPEATS = 5  # runs of reference_loop() between two repetitions
SAMPLE_EVERY_S = 0.1  # interval of the reference-loop samples taken during a repetition
# Median wall time of reference_loop() on the 2-vCPU host of bench/BENCH_1.json;
# a time at the reference speed is what the job would take there when the loop does.
REFERENCE_LOOP_S = 0.0036


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_package():
    """Import ariki_koike afresh from this checkout's src/ and return its CLI."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"imported {origin}, not the package under {SRC}")
    return cli


class Setup:
    """Imports the package and generates a workload's jobs; keeps every set-up time."""

    def __init__(self, workload: str, seed: int):
        if not (SRC / PACKAGE).is_dir():
            raise SetupError(f"no {PACKAGE} package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def __call__(self):
        """Return the freshly imported CLI module and the argv of every job."""
        start = time.perf_counter()
        cli = import_package()
        jobs = workloads.generate(self.workload, self.seed, sys.modules[PACKAGE])
        self.times.append(time.perf_counter() - start)
        return cli, jobs


def reference_loop():
    """Fixed pure-Python work of the program's kind: Fraction arithmetic, dict
    updates on tuple keys, small-int lists.  It calls nothing of the program."""
    acc: dict = {}
    x = Fraction(1)
    for i in range(1, 400):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % 10007, x.denominator % 10007 or 1)
        key = (i % 31, i % 17)
        acc[key] = acc.get(key, 0) + i * 7919 % 97
    return acc, [a * b % 101 for a in range(40) for b in range(20)]


class ReferenceClock:
    """Times reference_loop() between repetitions and, from SIGALRM, during them."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.taken_wall = self.taken_cpu = 0.0  # what the samples during a repetition cost

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            cpu0 = time.process_time()
            start = time.perf_counter()
            reference_loop()
            self.walls.append(time.perf_counter() - start)
            self.cpus.append(time.process_time() - cpu0)

    def _tick(self, signum, frame) -> None:
        cpu0 = time.process_time()
        start = time.perf_counter()
        self.sample()
        self.taken_wall += time.perf_counter() - start
        self.taken_cpu += time.process_time() - cpu0

    @contextlib.contextmanager
    def ticking(self):
        """Sample every SAMPLE_EVERY_S while the body runs; count what that takes."""
        self.taken_wall = self.taken_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def traced(tracer: tracing.Tracer):
    tracer.reset()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


class Job:
    """One CLI invocation and the measurements of its repetitions."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.key = shlex.join(argv)
        self.digest: str | None = None
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.wall_ref: list[float] = []  # the same repetitions at the reference speed
        self.cpu_ref: list[float] = []
        self.traced_wall: list[float] = []
        self.layers: list[dict[str, float]] = []


def execute(cli, argv: list[str]):
    """Run one CLI job; return (wall s, cpu s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job, reported with its traceback
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu0, code, out.getvalue(), err.getvalue()


def check_report(report: str) -> str | None:
    rows = json.loads(report)
    failing = [row["check"] for row in rows if row["status"] != "pass"]
    if not rows or failing:
        return f"report rows not passing: {failing[:3] or 'no rows'}"
    return None


def check_decomposition(tsv: str) -> str | None:
    lines = [line.split("\t") for line in tsv.splitlines()]
    if len(lines) < 2:
        return "empty decomposition matrix"
    cols = lines[0][1:]
    rows = {line[0]: line[1:] for line in lines[1:]}
    if any(len(row) != len(cols) or not all(x.isdigit() for x in row) for row in rows.values()):
        return "malformed decomposition matrix"
    for j, mu in enumerate(cols):
        if mu not in rows or rows[mu][j] != "1":
            return f"decomposition matrix has no unit diagonal entry at {mu}"
    return None


def check_gram(tsv: str) -> str | None:
    """Each block: a header of tableaux, a square matrix, then `# det = ...`."""
    lines = tsv.splitlines()
    i = 0
    while i < len(lines):
        names = lines[i].split("\t")[1:]
        k = len(names)
        rows = [line.split("\t") for line in lines[i + 1:i + 1 + k]]
        det = lines[i + 1 + k] if i + 1 + k < len(lines) else ""
        if [row[0] for row in rows] != names or any(len(row) != k + 1 for row in rows) \
                or not det.startswith("# det = "):
            return "malformed Gram matrix block"
        if any(rows[a][b + 1] != rows[b][a + 1] for a in range(k) for b in range(a)):
            return "Gram matrix is not symmetric"
        i += k + 2
    return None if lines else "no Gram matrices"


CHECKS = {"verify": check_report, "decomp": check_decomposition, "gram": check_gram}


def check_output(job: Job, code, out: str, err: str, reference: dict) -> str | None:
    """Why this execution of `job` is wrong, or None if its output is right."""
    if code != 0:
        last = err.strip().splitlines()[-1:]
        return f"exit code {code}: {last[0] if last else 'no message'}"
    try:
        problem = CHECKS[job.argv[0]](out)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem:
        return problem
    digest = hashlib.sha256(out.encode()).hexdigest()
    if job.key in reference and digest != reference[job.key]:
        return "stdout digest differs from the recorded reference"
    if job.digest is None:
        job.digest = digest
    elif digest != job.digest:
        return "stdout differs between repetitions of the job"
    return None


class Run:
    """The closed loop over a workload's jobs, with its failure count."""

    def __init__(self, setup, reference: dict):
        self.setup, self.reference = setup, reference
        self.clock = ReferenceClock()
        self.clock.sample(REFERENCE_REPEATS)
        self.loop_s: list[float] = []  # reference-loop wall time of every repetition
        self.setup_ref: list[float] = []  # every set-up time at the reference speed
        self.failures: list[str] = []
        self.cli, argvs = self._setup()
        for _ in range(SETUP_REPEATS - 1):
            self.clock.sample(REFERENCE_REPEATS)
            self.cli, again = self._setup()
            if again != argvs:
                self.failures.append("set-up generated other jobs than before")
        self.jobs = [Job(argv) for argv in argvs]
        self.attempted = 0
        self.spans: list[tuple[int, int, list]] = []  # (job index, repetition, spans)

    def _setup(self):
        cli, argvs = self.setup()
        loop = statistics.median(self.clock.walls[-REFERENCE_REPEATS:])
        self.setup_ref.append(self.setup.times[-1] * REFERENCE_LOOP_S / loop)
        return cli, argvs

    def _once(self, job: Job, around) -> tuple[float, float]:
        """Run `job` once inside the context manager `around`, and check its output."""
        self.attempted += 1
        with around:
            wall, cpu, code, out, err = execute(self.cli, job.argv)
        problem = check_output(job, code, out, err, self.reference)
        if problem:
            self.failures.append(f"{job.key}: {problem}")
        return wall, cpu

    def measure(self, seconds: float, tracer: tracing.Tracer | None = None) -> None:
        start = time.perf_counter()
        i = 0
        while i < len(self.jobs) or time.perf_counter() - start < seconds:
            index = i % len(self.jobs)
            job = self.jobs[index]
            clock, first = self.clock, len(self.clock.walls) - REFERENCE_REPEATS
            wall, cpu = self._once(job, clock.ticking())
            wall, cpu = wall - clock.taken_wall, cpu - clock.taken_cpu
            clock.sample(REFERENCE_REPEATS)
            loop_wall = statistics.median(clock.walls[first:])
            loop_cpu = statistics.median(clock.cpus[first:])
            self.loop_s.append(loop_wall)
            job.wall.append(wall)
            job.cpu.append(cpu)
            job.wall_ref.append(wall * REFERENCE_LOOP_S / loop_wall)
            job.cpu_ref.append(cpu * REFERENCE_LOOP_S / loop_cpu)
            if tracer is not None:
                wall, _ = self._once(job, traced(tracer))
                job.traced_wall.append(wall)
                job.layers.append(tracer.layer_metrics())
                self.spans.append((index, len(job.layers) - 1, tracer.spans))
                clock.sample(REFERENCE_REPEATS)
            i += 1


def median_sum(run: Run, series: str) -> float:
    """The sum over the jobs of the median of one of their measurement series."""
    return sum(statistics.median(getattr(job, series)) for job in run.jobs)


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "wall_ref_s": median_sum(run, "wall_ref"),
        "cpu_ref_s": median_sum(run, "cpu_ref"),
        "setup_s": statistics.median(run.setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Layer metrics of each job's median traced repetition, summed over the jobs."""
    middle = [job.traced_wall.index(statistics.median_low(job.traced_wall)) for job in run.jobs]
    out = tracing.combine([job.layers[k] for job, k in zip(run.jobs, middle)])
    out["trace.wall_s"] = median_sum(run, "traced_wall")
    out["trace.overhead_s"] = out["trace.wall_s"] - median_sum(run, "wall")
    out["host.reference_loop_ms"] = 1000 * statistics.median(run.loop_s)
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_spans(workload: str, seed: int, env: dict, run: Run) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        header = {"workload": workload, "seed": seed, "env": env,
                  "jobs": [job.key for job in run.jobs]}
        fh.write(json.dumps(header) + "\n")
        for index, rep, spans in run.spans:
            for k, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"job": index, "rep": rep, "id": k, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
    return path


def record_reference(run: Run) -> None:
    reference = load_json(REFERENCE) if REFERENCE.exists() else {}
    reference.update({job.key: job.digest for job in run.jobs})
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    spec = load_json(SPEC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the stdout digest of every job in bench/reference.json")
    args = parser.parse_args(argv)

    env = environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} env={json.dumps(env)}")
    try:
        run = Run(Setup(args.workload, args.seed),
                  load_json(REFERENCE) if REFERENCE.exists() else {})
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    for job in run.jobs:
        print(f"# job: PYTHONPATH=src python3 -m {PACKAGE} {job.key}")

    tracer = tracing.Tracer() if args.trace else None
    run.measure(args.seconds, tracer)
    if tracer is not None and tracer.missing:
        print(f"# warning: not traced, their metrics read 0: {', '.join(tracer.missing)}")

    if args.trace:
        values, listed = per_layer(run), spec["per_layer"]
        print(f"# spans: {write_spans(args.workload, args.seed, env, run)}")
    else:
        values, listed = end_to_end(run), spec["end_to_end"]
    for job in run.jobs:
        print(f"# runs of {job.key}: " + " ".join(f"{t:.4f}" for t in job.wall))
    print(f"# wall_s = {median_sum(run, 'wall'):.6g} s, cpu_s = {median_sum(run, 'cpu'):.6g} s, "
          f"setup = {statistics.median(run.setup.times):.6g} s (raw; reference loop {1000 * statistics.median(run.loop_s):.4g} ms, "
          f"nominal {1000 * REFERENCE_LOOP_S:.4g} ms)")
    for problem in run.failures:
        print(f"# FAIL {problem}")
    failed = len(run.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# fail_frac = {failed}/{run.attempted} = {failed / run.attempted:.6g}")
    if args.record_reference and not failed:
        record_reference(run)
    print(json.dumps({"correct": not failed, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
