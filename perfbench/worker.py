"""One workload in one fresh process: set up, run timed rounds, check.

run.py starts this script; it is not meant to be called by hand.  It
prints one JSON object as its last line of standard output.

    --t0          CLOCK_MONOTONIC reading taken just before this process
                  was started, so that set-up time counts from process start
    --setup-only  stop after the set-up and report its time
    --trace 1     after a warm-up round, alternate traced and untraced
                  rounds and report the per-layer figures of the traced ones
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import TARGETS, Tracer, metric_name

ROOT = Path(__file__).resolve().parent.parent


def _round(workload, tracer=None):
    if tracer:
        tracer.install()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        out = workload.run_round()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer:
            tracer.restore()
    return out, wall, cpu


def layer_figures(setup, rounds, untraced_walls, traced_walls, counters) -> dict[str, float]:
    """Per-layer metrics: one set-up plus the median traced round."""

    def total(table: str, name: str) -> float:
        per_round = statistics.median(getattr(st, table)[name] for st in rounds)
        return getattr(setup, table)[name] + per_round

    def under(anc: str, name: str) -> float:
        return statistics.median(st.items_under[(anc, name)] for st in rounds)

    figures: dict[str, float] = {}
    for name in (metric_name(module, path) for module, path, _ in TARGETS):
        figures[f"{name}.calls"] = total("calls", name)
        figures[f"{name}.self_s"] = total("self_s", name)
        figures[f"{name}.items"] = total("items", name)
    mats, rank_s = figures["scan.batched_rank.items"], figures["scan.batched_rank.self_s"]
    figures["scan.batched_rank.mats"] = mats
    figures["scan.batched_rank.mats_per_s"] = mats / rank_s if rank_s else 0.0
    figures["scan.batched_contract1.points"] = figures["scan.batched_contract1.items"]
    figures["scan.projective_chunks.points"] = figures["scan.projective_chunks.items"]
    figures["polynomial.evaluate_batch.points"] = figures["polynomial.evaluate_batch.items"]
    figures["scan.run_chunked.max_chunks"] = max(st.max_chunks for st in [setup, *rounds])
    scanned = under("divisors.rank4_points", "scan.projective_chunks")
    ranked = under("divisors.rank4_points", "scan.batched_rank")
    figures["divisors.rank4_points.survivor_ratio"] = ranked / scanned if scanned else 0.0
    figures.update(counters)
    figures["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls
    )
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        if tracer:
            tracer.restore()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_stats = tracer.take() if tracer else None

    # Rounds run until another one would end past --seconds; at least one.
    # A traced run starts with one round that only warms up, then
    # alternates traced and untraced rounds, at least one of each.
    walls, cpus, traced_walls, traced_stats = [], [], [], []
    first = reference = None
    consistent = True
    rounds = 0
    begin = time.perf_counter()
    while True:
        kind = "untraced"
        if tracer:
            kind = "warm-up" if rounds == 0 else ("traced" if rounds % 2 else "untraced")
        out, wall, cpu = _round(workload, tracer if kind == "traced" else None)
        rounds += 1
        if kind == "traced":
            traced_walls.append(wall)
            traced_stats.append(tracer.take())
        elif kind == "untraced":
            walls.append(wall)
            cpus.append(cpu)
        plain = workloads.fingerprint(out)
        if first is None:
            first, reference = out, plain
        elif plain != reference:
            consistent = False
        del out
        elapsed = time.perf_counter() - begin
        typical = statistics.median(walls + traced_walls or [wall])
        if elapsed + typical > args.seconds and walls and (tracer is None or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = workload.check(first)
    problems = list(verdict.problems)
    if not consistent:
        problems.append("rounds gave different outputs" + (" (traced vs untraced)" if tracer else ""))
    for line in verdict.notes + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": verdict.ops * rounds,
        "failed": verdict.failed * rounds,
        "setup_s": setup_s,
        "rounds": rounds,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = layer_figures(
            setup_stats, traced_stats, walls, traced_walls, workload.counters(first)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
