"""Measure every workload over several seeds and write one BENCH_*.json data point.

Run from the root of a checkout:

    python3 bench/trajectory.py --seeds 0-9 --out bench/BENCH_1.json

Each (workload, seed) is one `bench/run.py --trace 0` process, one after the
other.  For every end-to-end metric the file keeps the ten values, their
median, quartiles and spread (quartile distance over median).  One traced run
per workload (the first seed) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of bench/run.py: (its environment stamp, its result line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = json.loads(lines[0].split(" env=", 1)[1])
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    point = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        _, traced = bench(workload, args.seeds[0], spec["run_seconds"], 1)
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for _, r in runs])
                   for m in spec["end_to_end"]}
        point["workloads"][workload] = {
            "env_at_start": [e for e, _ in runs],
            "correct": all(r["correct"] for _, r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, {k: round(v["spread"], 4) for k, v in metrics.items()}, flush=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
