"""Self-tests of the benchmark: the oracle, the output checks and the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from peskine_lab import divisors, loci  # noqa: E402
from peskine_lab.estimators import DimEstimate  # noqa: E402
from peskine_lab.rng import Rng  # noqa: E402
from peskine_lab.subspaces import Subspace, all_subspaces  # noqa: E402
from peskine_lab.trivector import Trivector  # noqa: E402
from tracer import TARGETS, Tracer, metric_name  # noqa: E402


def planted_skew(rnd: random.Random, n: int, rank: int, p: int) -> list[list[int]]:
    """G^T J G with J the standard form of the given rank and G invertible."""
    while True:
        g = [[rnd.randrange(p) for _ in range(n)] for _ in range(n)]
        if oracle.row_rank(g, p) == n:
            break
    j = [[0] * n for _ in range(n)]
    for k in range(0, rank, 2):
        j[k][k + 1], j[k + 1][k] = 1, -1
    return [
        [sum(g[a][r] * j[a][b] * g[b][s] for a in range(n) for b in range(n)) % p for s in range(n)]
        for r in range(n)
    ]


@pytest.mark.parametrize("p", [3, 7, 101])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_oracle_rank_of_planted_matrices(n, p):
    rnd = random.Random(f"{n}-{p}")
    for rank in range(0, n + 1, 2):
        m = planted_skew(rnd, n, rank, p)
        assert oracle.skew_rank(m, p) == rank
        assert oracle.rank_at_most(m, p, rank)
        if rank:
            assert not oracle.rank_at_most(m, p, rank - 2)


def test_oracle_contraction_matches_library():
    rnd = random.Random(5)
    for n, p in ((6, 7), (10, 5)):
        sigma = Trivector.random(Rng(n * p), n, p)
        coeffs = [int(c) for c in sigma.coeffs]
        for _ in range(5):
            u, v, w = ([rnd.randrange(p) for _ in range(n)] for _ in range(3))
            assert oracle.contraction(coeffs, n, p, u) == sigma.contract1(u).mat.tolist()
            assert oracle.eval3(coeffs, n, p, u, v, w) == sigma.eval3(u, v, w)


def test_projective_check_rejects_dropped_and_added_points():
    sigma = workloads.split_n6(Rng(3), 7)
    pts = loci.peskine_points(sigma)
    assert len(pts) == 2 * (7 * 7 + 7 + 1)

    def problems(points):
        return workloads.check_locus_points(sigma, points, 2, random.Random(0))

    assert problems(pts) == []
    assert problems(pts[1:])
    outside = next(
        pt for pt in map(tuple, oracle.projective_points(5, 7).tolist()) if pt not in set(pts)
    )
    assert problems(pts + [outside])
    assert problems(pts + [pts[0]])


def test_rank4_check_needs_the_planted_line():
    w = workloads.ProjectiveEnum(1)
    w.general = {}
    samp = w.d16
    v = w.check({"rank4-n10-p5": [oracle.canonical(samp.flag[0].basis[0], 5)]})
    assert v.ops == 1 and v.failed == 0 and v.problems == []
    assert w.check({"rank4-n10-p5": []}).problems


def test_chart_check_rejects_corrupted_outputs():
    w = workloads.U7Chart(1)
    w.pairs = w.pairs[:1]
    out = w.run_round()
    v = w.check(out)
    assert (v.ops, v.failed, v.problems) == (3, 0, [])

    (pts, full, prime), pencil, profile = out[0]
    locus = int(np.flatnonzero(full <= 6)[0])
    bad_prime = prime.copy()
    bad_prime[locus] = 6
    assert workloads.fingerprint(out) == workloads.fingerprint(w.run_round())
    assert workloads.fingerprint(out) != workloads.fingerprint([((pts, full, bad_prime), pencil, profile)])
    assert w.check([((pts, full, bad_prime), pencil, profile)]).problems
    assert w.check([((pts[1:], full[1:], prime[1:]), pencil, profile)]).problems
    bad_full = full.copy()
    bad_full[locus] = 8
    bad_prime[locus] = 6
    assert w.check([((pts, bad_full, bad_prime), pencil, profile)]).problems
    assert w.check([((pts, full, prime), pencil, dict(profile, points=profile["points"] + 1))]).problems


def test_witness_check_rejects_dropped_and_wrong_witnesses():
    w = workloads.WitnessSearch(1)
    w.samples = w.samples[:1]
    samp = w.samples[0]
    u8, u4 = loci.k3_witness_search(samp.sigma, samp.flag)
    cands = workloads.candidate_u8s(samp.sigma, samp.flag)
    first = cands.index(u8)
    # Only the first member is reported; candidates before it are non-members.
    tested = [(c, (False, None)) for c in cands[:first]] + [(u8, (True, u4))]
    fibre = loci.conic_fiber(samp.sigma, u4, u8)
    v = w.check([(cands, tested, fibre)])
    assert v.problems == []

    dropped = tested[:-1] + [(u8, (False, None))]
    assert w.check([(cands, dropped, None)]).problems

    rows = u4.basis.copy()
    outside = next(r for r in u8.basis if not u4.contains_vector(r))
    rows[-1] = (rows[-1] + outside) % 3
    wrong = Subspace.from_rows(rows, 10, 3)
    assert w._check_member(samp, u8, u4) == []
    assert w._check_member(samp, u8, wrong)

    extra = next(t for t in all_subspaces(4, 2, 3) if t not in fibre)
    assert w._check_fibre(samp, u8, u4, fibre) == []
    assert w._check_fibre(samp, u8, u4, fibre + [extra])


def test_slice_check_counts_unflagged_wrong_values_as_failed():
    w = workloads.SliceLadder.__new__(workloads.SliceLadder)
    pred = object()
    w.cases = {"a": (pred, 4, {"trials": 10}), "b": (pred, 4, {"trials": 10}), "c": (pred, 4, {"trials": 10})}
    est = DimEstimate(4, 10, {0: 0, 1: 6})
    out = {
        "a": est,
        "b": DimEstimate(5, 10, {0: 0, 1: 6}, ambiguous=True),
        "c": DimEstimate(5, 10, {0: 0, 1: 6}),
    }
    v = w.check(out)
    assert (v.ops, v.failed, v.problems) == (3, 1, [])
    out["a"] = DimEstimate(4, 10, {0: 0, 2: 6})
    assert w.check(out).problems


def test_tracer_restores_bindings_and_keeps_outputs():
    import peskine_lab.checks as checks_mod
    import peskine_lab.loci as loci_mod
    import peskine_lab.scan as scan_mod

    before = {
        "scan": scan_mod.batched_rank,
        "loci": loci_mod.scan.batched_rank,
        "checks": checks_mod.batched_rank,
        "from_rows": Subspace.__dict__["from_rows"],
    }
    sigma = divisors.sample_general(Rng(2), 6, 7)
    plain = loci.peskine_points(sigma)
    tracer = Tracer()
    tracer.install()
    try:
        assert checks_mod.batched_rank is not before["checks"]
        traced = loci.peskine_points(sigma)
        Subspace.from_rows(np.eye(2, 6, dtype=np.int64), 6, 7)
    finally:
        tracer.restore()
    assert traced == plain
    assert scan_mod.batched_rank is before["scan"]
    assert checks_mod.batched_rank is before["checks"]
    assert Subspace.__dict__["from_rows"] is before["from_rows"]
    st = tracer.take()
    assert st.calls["loci.peskine_points"] == 1
    assert st.items["scan.projective_chunks"] == (7**6 - 1) // 6
    assert st.items["scan.batched_rank"] == (7**6 - 1) // 6
    assert st.calls["subspaces.from_rows"] == 1
    assert 0 <= st.self_s["loci.peskine_points"] <= st.incl["loci.peskine_points"]


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert len(TARGETS) == len({metric_name(m, path) for m, path, _ in TARGETS})
