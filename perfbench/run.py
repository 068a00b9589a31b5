"""Benchmark for the peskine-lab library: two exact-scan workloads.

    python3 perfbench/run.py --workload batched-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports the library from `src/`.
Each workload runs in fresh Python processes (worker.py) with the
library's default of one worker thread.  With --trace 0 the benchmark
prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run; README.md defines them.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batched-scan", "subspace-search")
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 5
# Every run must end within this many seconds.
RUN_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("scan.batched_rank.self_s", "s"),
    ("scan.batched_rank.calls", "count"),
    ("scan.batched_rank.mats", "count"),
    ("scan.batched_rank.mats_per_s", "1/s"),
    ("scan.batched_contract1.self_s", "s"),
    ("scan.batched_contract1.points", "count"),
    ("scan.run_chunked.calls", "count"),
    ("scan.run_chunked.max_chunks", "count"),
    ("scan.projective_chunks.points", "count"),
    ("subspaces.contains_vector.calls", "count"),
    ("subspaces.contains_vector.self_s", "s"),
    ("fibration.sigma_prime_rank_scan.self_s", "s"),
    ("fibration.quadric_pencil.self_s", "s"),
    ("fibration.fiber_profile.self_s", "s"),
    ("divisors.rank4_points.self_s", "s"),
    ("divisors.rank4_points.survivor_ratio", "ratio"),
    ("loci.peskine_points.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("subspaces.from_rows.calls", "count"),
    ("subspaces.from_rows.self_s", "s"),
    ("trivector.contract1.calls", "count"),
    ("trivector.contract1.self_s", "s"),
    ("loci.k3_member.calls", "count"),
    ("loci.k3_member.self_s", "s"),
    ("loci.conic_fiber.self_s", "s"),
    ("polynomial.evaluate_batch.points", "count"),
    ("polynomial.evaluate_batch.self_s", "s"),
    ("estimators.slice_dim_estimate.self_s", "s"),
    ("estimators.points_tested", "count"),
    ("estimators.nonempty_ratio", "ratio"),
    ("rng.below.calls", "count"),
    ("rng.below.self_s", "s"),
    ("orbits.pencil_cubics.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# Thread settings of the caller are dropped, so every run gets the
# library's and OpenBLAS's defaults.
DROPPED_ENV = ("PESKINE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        res = spawn(base + ["--trace", "1"], deadline)
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER}
    else:
        # Set-up probes before and after the timed run, so that their
        # median spans the same stretch of machine time as the run.
        probes = SETUP_RUNS - 1
        setups = [spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
        res = spawn(base, deadline)
        setups.append(res["setup_s"])
        setups += [spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(probes - probes // 2)]
        values = {
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rounds": res["rounds"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="peskine-lab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "peskine_lab" / "__init__.py").is_file():
        print(f"no peskine_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(
            f"{name}: {res['rounds']} rounds, {res['attempted']} operations, "
            f"{res['failed']} failed, outputs {'correct' if res['correct'] else 'WRONG'}"
        )
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, res in results.items() for k, m in res["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
