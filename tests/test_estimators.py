"""Dimension estimator calibrated on loci whose dimension is known exactly."""

import dataclasses
import itertools
import sys

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
from peskine_lab.trivector import Trivector, triple_index


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
    affine_chunks = estimators.affine_chunks

    def counting_chunks(*args):
        for block in affine_chunks(*args):
            drawn.append(len(block))
            yield block

    def test_batch(points):
        seen.append(len(drawn))
        return np.zeros(len(points), dtype=bool)

    monkeypatch.setattr(estimators, "affine_chunks", counting_chunks)
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
    pred, rng, trials, hit_threshold=estimators.DEFAULT_HIT,
    miss_threshold=estimators.DEFAULT_MISS, budget=estimators.DEFAULT_BUDGET,
):
    """The ladder one trial at a time: each slice built whole and tested alone.

    Returns (hit_profile, estimated_dim, ambiguous) as slice_dim_estimate
    reports them, and per level visited, per trial, the index of its first
    member in counter order (None without one) and the mask of its points
    that reach test_batch: every point, or with polys their common zeros.
    """
    p, width = pred.p, pred.width
    ambient = width if pred.kind == "projective" else pred.n
    spent, profile, walks = 0, {}, {}

    def result(dim, ambiguous):
        return profile, dim, ambiguous, walks

    for d in range(ambient + 1):
        if spent + trials * p**d > budget:
            return result(-1, True)  # stopped below the ambient dimension
        spent += trials * p**d
        profile[d], walks[d] = 0, []
        for t in range(trials):
            points = reference_slice(rng.child(f"slice-{d}-{t}"), d, width, p)
            mask = members(pred, points)
            if pred.kind == "projective":
                mask |= ~points.any(axis=1)
            profile[d] += bool(mask.any())
            first = int(mask.argmax()) if mask.any() else None
            walks[d].append((first, members(dataclasses.replace(pred, test_batch=always), points)))
        if profile[d] >= hit_threshold * trials:
            warm = d > 0 and profile[d - 1] >= miss_threshold * trials
            return result(ambient - d - (pred.kind == "projective"), warm)
    return result(-1, any(profile.values()))


def always(points):
    """A test_batch that holds everywhere: members are the common zeros of the polys."""
    return np.ones(len(points), dtype=bool)


def spied(pred):
    """The predicate with a test_batch that records, per call, its row count
    and whether every row is a common zero of the predicate's polys."""
    calls = []

    def test_batch(points):
        calls.append((len(points), not any(f.evaluate_batch(points).any() for f in pred.polys)))
        return pred.test_batch(points)

    return dataclasses.replace(pred, test_batch=test_batch), calls


def block_ends(p, d, trials):
    """Where each block of one level's walk of F_p^d ends, at most
    chunk = DEFAULT_CHUNK // trials parameters to a block: the whole level
    when p^d <= chunk, else the largest table p^k <= chunk joined to
    chunk // p^k of the p^(d - k) prefixes at a time."""
    chunk, k = DEFAULT_CHUNK // trials, 1
    while p ** (k + 1) <= chunk:
        k += 1
    step = p**d if p**d <= chunk else chunk // p**k * p**k
    return [min(end, p**d) for end in range(step, p**d + step, step)]


def expected_walk(walks, p, trials):
    """(calls, rows) of the ladder that tests only open trials: a trial is
    tested on every block up to the one holding its first member, or on the
    whole level without one, and a level draws blocks while a trial is open."""
    calls = rows = 0
    for d, level in walks.items():
        ends = np.array(block_ends(p, d, trials))
        last = [p**d if first is None else ends[ends > first][0] for first, _ in level]
        calls += int(np.searchsorted(ends, max(last))) + 1
        rows += sum(int(reach[:end].sum()) for (_, reach), end in zip(level, last))
    return calls, rows


def large_slice_locus():
    # A 2-dimensional linear locus in F_7^8: the ladder reaches level 6,
    # whose slices have 7^6 = 117,649 > DEFAULT_CHUNK points; the budget
    # stops it there.
    return linear_locus(8, 2, 7, seed=41)


# A hyperplane of F_7^8 at hit threshold 1: every slice of level 3 meets
# it in the first of the level's two blocks, so the second is never drawn.
ALL_HIT = {"hit_threshold": 1.0, "miss_threshold": 1.0}

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
    ("hyperplane-p7", lambda: linear_locus(8, 7, 7, seed=40), 100, ALL_HIT, 4),
]


@pytest.mark.parametrize(
    "label, make, trials, kw, levels", PACKED_CASES, ids=[c[0] for c in PACKED_CASES]
)
def test_packed_ladder_matches_per_trial_reference(label, make, trials, kw, levels):
    pred, calls = spied(make())
    est = slice_dim_estimate(pred, Rng(42), trials=trials, threads=1, **kw)
    profile, dim, ambiguous, walks = reference_estimate(make(), Rng(42), trials, **kw)
    assert (est.hit_profile, est.estimated_dim, est.ambiguous) == (profile, dim, ambiguous)
    assert len(est.hit_profile) == levels
    rows = [n for n, _ in calls]
    assert max(rows) <= DEFAULT_CHUNK
    # Only common zeros of the polys reach the full test.
    assert all(zero for _, zero in calls)
    # One call per block drawn, none after every trial is found, and each
    # trial tested up to the block holding its first member.
    assert (len(rows), sum(rows)) == expected_walk(walks, pred.p, trials)
    assert sum(rows) < trials * sum(pred.p**d for d in est.hit_profile)


def split_n6(p):
    """e012 + e345 moved by a uniform element of GL_6(F_p): its rank-drop
    locus is two planes of P^5 over F_p."""
    coeffs = np.zeros(20, dtype=np.int64)
    coeffs[[triple_index(6)[(0, 1, 2)], triple_index(6)[(3, 4, 5)]]] = 1
    return Trivector.from_coeffs(coeffs, 6, p).gl_transform(linalg.sample_gl(Rng(43), 6, p))


@pytest.mark.parametrize(
    "make, trials, kw",
    [
        (lambda: peskine_predicate(split_n6(11)), 300, {}),
        (lambda: sing_o2_predicate(5), 60, {}),
        (lambda: sing_o2_predicate(5), 60, ALL_HIT),
    ],
    ids=["rank-drop-n6-p11", "sing-o2-p5", "sing-o2-p5-all-hit"],
)
def test_early_hits_keep_the_estimate_across_threads(monkeypatch, make, trials, kw):
    # Most trials are found in the first blocks of their level, so the
    # workers skip them; a worker that reads `found` before another marks
    # it only tests more rows.  Four workers on a short switch interval:
    # a lost mark would lower the profile.
    pred, calls = spied(make())
    a = slice_dim_estimate(pred, Rng(44), trials=trials, threads=1, **kw)
    assert sum(n for n, _ in calls) < trials * sum(pred.p**d for d in a.hit_profile) / 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert slice_dim_estimate(make(), Rng(44), trials=trials, threads=4, **kw) == a
    finally:
        sys.setswitchinterval(interval)
    # The latest schedule workers allow: every block of a level drawn before
    # any runs.  At hit threshold 1 the blocks after the last level's final
    # find then run with no trial open.
    monkeypatch.setattr(estimators, "run_chunked", lambda work, blocks, _: [*map(work, [*blocks])])
    assert slice_dim_estimate(make(), Rng(44), trials=trials, **kw) == a


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


@pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
def test_common_zero_rows_match_per_product_reduction(monkeypatch, p):
    # The image rows offset_k + t @ mat_k of the common zeros, summed with
    # one reduction while products_fit_int64(p, 2, d + 1) holds; at
    # 2^31 - 1 the sum of d + 1 = 4 products passes 2^63 and each product
    # is reduced first.  x0 vanishes on every slice, so every (t, trial)
    # pair reaches test_batch, in t-major order.
    trials, d, width = 5, 3, 6
    assert linalg.products_fit_int64(p, 2, d + 1) == (p < 2**31 - 1)
    rng = Rng(p)
    mats, offsets = rng.matrix(trials * d, width, p).reshape(trials, d, width), rng.matrix(trials, width, p)
    mats[:, :, 0] = offsets[:, 0] = 0
    blocks = [rng.matrix(40, d, p), np.full((3, d), p - 1, dtype=np.int64)]
    seen = []

    def test_batch(points):
        seen.append(points.copy())
        return np.zeros(len(points), dtype=bool)

    monkeypatch.setattr(estimators, "affine_chunks", lambda *_: iter(blocks))
    x0 = Poly.variable(0, width, p)
    pred = LocusPredicate(kind="affine", n=width, p=p, test_batch=test_batch, polys=(x0,))
    assert not estimators._level_hits(pred, mats, offsets, threads=1).any()
    lin = np.concatenate([offsets[:, None], mats], axis=1).astype(object)
    for t, rows in zip(blocks, seen, strict=True):
        y = np.hstack([np.ones((len(t), 1), dtype=np.int64), t]).astype(object)
        want = np.stack([y @ lin[k] % p for k in range(trials)], axis=1).reshape(-1, width)
        assert rows.tolist() == want.tolist()


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
