"""Dimension estimator calibrated on loci whose dimension is known exactly."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from peskine_lab import estimators, linalg
from peskine_lab.checks import o2_predicate, peskine_predicate, sing_o2_predicate
from peskine_lab.divisors import sample_general
from peskine_lab.estimators import (
    DimEstimate,
    LocusPredicate,
    image_dim_estimate,
    slice_dim_estimate,
)
from peskine_lab.polynomial import Poly
from peskine_lab.rng import Rng
from peskine_lab.scan import DEFAULT_CHUNK


def linear_locus(n, d, p, seed=100):
    """Affine predicate for a random linear subspace of known dimension d."""
    rng = Rng(seed)
    normals = linalg.sample_full_rank([rng], n - d, n, p)[0]

    def test_batch(points):
        return ~((points @ normals.T % p).any(axis=1))

    return LocusPredicate(kind="affine", n=n, p=p, test_batch=test_batch)


def cubic_hypersurface(n, p):
    def test_batch(points):
        vals = (points[:, 0] ** 3 + points[:, 1] ** 3 + points[:, 2] ** 3) % p
        return vals == (points[:, 3] * points[:, 4] * points[:, 5]) % p

    return LocusPredicate(kind="affine", n=n, p=p, test_batch=test_batch)


def test_predicate_width():
    pred = linear_locus(6, 3, 5)
    assert pred.width == 6
    proj = LocusPredicate(
        kind="projective", n=5, p=5, test_batch=lambda b: b[:, 0] == 0
    )
    assert proj.width == 6


def test_predicate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LocusPredicate(kind="weird", n=5, p=5, test_batch=lambda b: b[:, 0] == 0)


@pytest.mark.parametrize("d", [12, 15, 18])
def test_linear_calibration(d):
    # Known-dimension loci in 20 variables at the sizes the orbit checks use.
    pred = linear_locus(20, d, 5, seed=200 + d)
    est = slice_dim_estimate(pred, Rng(300 + d), trials=50)
    assert est.estimated_dim == d
    assert not est.ambiguous


def test_cubic_hypersurface_dim():
    est = slice_dim_estimate(cubic_hypersurface(20, 7), Rng(17), trials=30)
    assert est.estimated_dim == 19
    assert not est.ambiguous


def empty_locus(n):
    return LocusPredicate(
        kind="affine", n=n, p=5, test_batch=lambda b: np.zeros(len(b), dtype=bool)
    )


def test_empty_locus():
    # Every level up to the ambient dimension 6 scanned without a hit:
    # empty, not ambiguous.
    est = slice_dim_estimate(empty_locus(6), Rng(18), trials=10, budget=10**6)
    assert est.estimated_dim == -1
    assert not est.ambiguous
    assert sorted(est.hit_profile) == list(range(7))


def test_budget_stop_is_no_verdict():
    # In F_5^20 the budget of 10^6 tests covers levels 0..7 (976,560
    # tests), so the ladder stops below the ambient dimension: no hits
    # there prove nothing, and the estimate is withheld.
    est = slice_dim_estimate(empty_locus(20), Rng(18), trials=10, budget=10**6)
    assert est.estimated_dim == -1
    assert est.ambiguous
    assert sorted(est.hit_profile) == list(range(8))
    assert "stopped the ladder at level 8 of 20" in est.confidence_note
    assert "budget of 1000000 tests" in est.confidence_note


def test_projective_drop():
    # Projective line inside P^5: locus x2 = ... = x5 = 0 has dimension 1.
    def test_batch(points):
        return ~(points[:, 2:].any(axis=1))

    pred = LocusPredicate(kind="projective", n=5, p=7, test_batch=test_batch)
    est = slice_dim_estimate(pred, Rng(19), trials=30)
    assert est.estimated_dim == 1


def test_estimate_deterministic_across_threads():
    pred = linear_locus(20, 15, 5, seed=77)
    a = slice_dim_estimate(pred, Rng(20), trials=12, threads=1)
    b = slice_dim_estimate(pred, Rng(20), trials=12, threads=4)
    assert a == b


def test_threshold_validation():
    pred = linear_locus(6, 3, 5)
    with pytest.raises(ValueError):
        slice_dim_estimate(pred, Rng(1), hit_threshold=0.3, miss_threshold=0.4)
    with pytest.raises(ValueError, match="at least one trial"):
        slice_dim_estimate(pred, Rng(1), trials=0)


def test_level_blocks_drawn_lazily(monkeypatch):
    # p = 7 up to d = 6 with 2 trials side by side: blocks of at most
    # DEFAULT_CHUNK // 2 = 16,384 parameters, so one block per level below
    # 5, then the 7^4 table joined to 6 prefixes at a time: 7 prefixes at
    # level 5, 49 at level 6.  At one thread, each block is drawn only
    # after the predicate took the last.
    p, width, trials = 7, 8, 2
    drawn, seen = [], []
    affine_image_chunks = estimators.affine_image_chunks

    def counting_chunks(*args):
        for block in affine_image_chunks(*args):
            drawn.append(len(block))
            yield block

    def test_batch(points):
        seen.append(len(drawn))
        return np.zeros(len(points), dtype=bool)

    monkeypatch.setattr(estimators, "affine_image_chunks", counting_chunks)
    pred = LocusPredicate(kind="affine", n=width, p=p, test_batch=test_batch)
    budget = trials * sum(p**d for d in range(7))
    est = slice_dim_estimate(pred, Rng(9), trials=trials, budget=budget, threads=1)
    assert list(est.hit_profile) == list(range(7))
    table = p**4
    level5 = [6 * table, table]
    level6 = [6 * table] * 8 + [table]
    assert drawn == [p**d for d in range(5)] + level5 + level6
    assert seen == list(range(1, len(drawn) + 1))


def reference_slice(rng, d, width, p):
    """One slice built whole, one stream at a time: matrix by rejection, then offset."""
    while True:
        mat = rng.matrix(d, width, p)
        if linalg.rank(mat, p) == d:
            break
    offset = rng.ints(width, p)
    params = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    return (params.reshape(p**d, d) @ mat + offset) % p


def members(pred, points):
    """Full membership: every poly vanishes and test_batch holds, the test
    called on the common zeros alone."""
    on = np.ones(len(points), dtype=bool)
    for f in pred.polys:
        on &= f.evaluate_batch(points) == 0
    on[on] = np.asarray(pred.test_batch(points[on]), dtype=bool)
    return on


def reference_estimate(
    pred, rng, trials, hit=estimators.DEFAULT_HIT, miss=estimators.DEFAULT_MISS,
    budget=estimators.DEFAULT_BUDGET,
):
    """The ladder one trial at a time: each slice built whole and tested alone.

    Returns (hit_profile, estimated_dim, ambiguous) as slice_dim_estimate
    reports them.
    """
    p, width = pred.p, pred.width
    ambient = width if pred.kind == "projective" else pred.n
    spent, profile = 0, {}
    for d in range(ambient + 1):
        if spent + trials * p**d > budget:
            return profile, -1, True  # stopped below the ambient dimension
        spent += trials * p**d
        profile[d] = 0
        for t in range(trials):
            points = reference_slice(rng.child(f"slice-{d}-{t}"), d, width, p)
            mask = members(pred, points)
            if pred.kind == "projective":
                mask |= ~points.any(axis=1)
            profile[d] += bool(mask.any())
        if profile[d] >= hit * trials:
            warm = d > 0 and profile[d - 1] >= miss * trials
            return profile, ambient - d - (pred.kind == "projective"), warm
    return profile, -1, any(profile.values())


def spied(pred):
    """The predicate with a test_batch that records, per call, its row count
    and whether every row is a common zero of the predicate's polys."""
    calls = []

    def test_batch(points):
        calls.append((len(points), not any(f.evaluate_batch(points).any() for f in pred.polys)))
        return pred.test_batch(points)

    return dataclasses.replace(pred, test_batch=test_batch), calls


def expected_calls(profile, p, trials):
    """One call per block of each level's walk of F_p^d, at most
    chunk = DEFAULT_CHUNK // trials parameters to a block: the whole level
    when p^d <= chunk, else the largest table p^k <= chunk joined to
    chunk // p^k of the p^(d - k) prefixes at a time."""
    chunk, calls, k = DEFAULT_CHUNK // trials, 0, 1
    while p ** (k + 1) <= chunk:
        k += 1
    for d in profile:
        calls += 1 if p**d <= chunk else math.ceil(p ** (d - k) / (chunk // p**k))
    return calls


def large_slice_locus():
    # A 2-dimensional linear locus in F_7^8: the ladder reaches level 6,
    # whose slices have 7^6 = 117,649 > DEFAULT_CHUNK points; the budget
    # stops it there.
    return linear_locus(8, 2, 7, seed=41)


# (label, predicate, trials, estimator keywords, levels visited); the
# rank-drop case has two blocks at level 3 (6 and 1 prefixes of the 7^2
# table, 327 parameters to a block).
# o2 and sing-o2 carry polys: their ladder walks F_5^d in blocks and calls
# test_batch only on common zeros of f1 and f2.
PACKED_CASES = [
    ("rank-drop-n8-p7", lambda: peskine_predicate(sample_general(Rng(40), 8, 7)), 100, {}, 4),
    ("o2-p5", lambda: o2_predicate(5), 8, {}, 3),
    ("sing-o2-p5", lambda: sing_o2_predicate(5), 12, {}, 6),
    ("linear-p7-d6", large_slice_locus, 4, {"budget": 4 * sum(7**d for d in range(7))}, 7),
]


@pytest.mark.parametrize(
    "label, make, trials, kw, levels", PACKED_CASES, ids=[c[0] for c in PACKED_CASES]
)
def test_packed_ladder_matches_per_trial_reference(label, make, trials, kw, levels):
    pred, calls = spied(make())
    est = slice_dim_estimate(pred, Rng(42), trials=trials, **kw)
    profile, dim, ambiguous = reference_estimate(make(), Rng(42), trials, **kw)
    assert (est.hit_profile, est.estimated_dim, est.ambiguous) == (profile, dim, ambiguous)
    assert len(est.hit_profile) == levels
    rows = [n for n, _ in calls]
    assert max(rows) <= DEFAULT_CHUNK
    if pred.polys:
        # Only common zeros of the polys reach the full test.
        assert all(zero for _, zero in calls)
        return
    # Full blocks, and one call per block instead of one per trial.
    assert len(rows) == expected_calls(est.hit_profile, pred.p, trials)
    assert sum(rows) == trials * sum(pred.p**d for d in est.hit_profile)


def conic_quadric(p):
    """x0 x1 - x2^2 in the 6 homogeneous coordinates of P^5."""
    x = [Poly.variable(i, 6, p) for i in range(6)]
    return x[0] * x[1] - x[2] * x[2]


def projective_with_quadric(p, plane_only):
    """A projective predicate in P^5 with the quadric in polys: the conic in
    the plane x3 = x4 = x5 = 0, or (plane_only False) the empty locus, whose
    hits are cone points alone."""
    quad = conic_quadric(p)

    def test_batch(points):
        on = (quad.evaluate_batch(points) == 0) & ~points[:, 3:].any(axis=1)
        return on if plane_only else np.zeros(len(points), dtype=bool)

    return LocusPredicate(kind="projective", n=5, p=p, test_batch=test_batch, polys=(quad,))


@pytest.mark.parametrize("make", [o2_predicate, sing_o2_predicate], ids=["o2", "sing-o2"])
@pytest.mark.parametrize("p", [5, 7])
def test_polys_prefilter_keeps_the_estimate(make, p):
    pred = make(p)
    rows_only = dataclasses.replace(pred, polys=(), test_batch=lambda b: members(pred, b))
    for seed in (61, 62, 63):
        want = slice_dim_estimate(rows_only, Rng(seed), trials=12, threads=1)
        for threads in (1, 4):
            assert slice_dim_estimate(pred, Rng(seed), trials=12, threads=threads) == want


@pytest.mark.parametrize("plane_only", [True, False], ids=["conic", "cone-point"])
def test_polys_prefilter_keeps_the_cone_point(plane_only):
    pred = projective_with_quadric(5, plane_only)
    want = slice_dim_estimate(dataclasses.replace(pred, polys=()), Rng(64), trials=6)
    assert slice_dim_estimate(pred, Rng(64), trials=6) == want
    if not plane_only:
        # Every level-6 slice is all of F_5^6, cone point included.
        assert want.hit_profile[6] == 6


def test_predicate_rejects_foreign_polys():
    quad = conic_quadric(5)
    with pytest.raises(ValueError, match="polys need"):
        LocusPredicate(kind="affine", n=5, p=5, test_batch=lambda b: b[:, 0] == 0, polys=(quad,))
    with pytest.raises(ValueError, match="polys need"):
        LocusPredicate(kind="projective", n=5, p=7, test_batch=lambda b: b[:, 0] == 0, polys=(quad,))
    with pytest.raises(ValueError, match="polys need"):
        LocusPredicate(
            kind="projective", n=5, p=5, test_batch=lambda b: b[:, 0] == 0,
            polys=(quad + Poly.constant(1, 6, 5),),
        )


def test_image_dim_estimate_linear():
    # Parametrization t -> (t0, t1, t0 + t1, 0): differential rank 2.
    p = 7
    x0 = Poly.variable(0, 2, p)
    x1 = Poly.variable(1, 2, p)
    polys = [x0, x1, x0 + x1, Poly.constant(0, 2, p)]
    assert image_dim_estimate(polys, Rng(5), samples=10) == 2


def test_image_dim_estimate_quadratic():
    # (t0^2, t0 t1, t1^2) has generic differential rank 2.
    p = 11
    t0 = Poly.variable(0, 2, p)
    t1 = Poly.variable(1, 2, p)
    polys = [t0 * t0, t0 * t1, t1 * t1]
    assert image_dim_estimate(polys, Rng(6), samples=10) == 2
