"""Slice-based dimension estimation.

The dimension estimator replaces Krull-dimension computations with a
sampling scheme: intersect the locus with random affine-linear slices of
growing dimension and watch where hits start appearing.  A locus of
codimension c in affine N-space meets a generic dimension-c slice in a
nonempty set roughly 1 - 1/e of the time (the restricted system behaves
like a random one with a rational solution), while dimension-(c-1)
slices hit only with probability on the order of 1/p.  The estimator
scans slice dimensions upward and reports N - d_min for the first level
whose hit frequency clears a threshold.

Frequencies, not proofs: the thresholds are calibrated so both error
sides stay small at the enumeration primes, and estimates that land in
the uncertain band come back flagged ambiguous instead of wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import linalg
from .polynomial import Poly, jacobian
from .scan import DEFAULT_CHUNK, affine_image_chunks, batched_rank, run_chunked

DEFAULT_BUDGET = 10**8
DEFAULT_TRIALS = 20
DEFAULT_HIT = 0.5
DEFAULT_MISS = 0.45


@dataclass(frozen=True)
class LocusPredicate:
    """A membership test on the rational points of an ambient space.

    kind "affine" tests vectors of length n; kind "projective" tests
    homogeneous vectors of length n + 1 (the test must be invariant under
    scaling).  test_batch maps an (B, width) int64 array to (B,) bools
    and must be pure.
    """

    kind: str
    n: int
    p: int
    test_batch: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("affine", "projective"):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        linalg.check_prime(self.p)

    @property
    def width(self) -> int:
        return self.n + 1 if self.kind == "projective" else self.n


@dataclass(frozen=True)
class DimEstimate:
    """Outcome of the slice ladder; -1 means empty within budget."""

    estimated_dim: int
    trials: int
    hit_profile: dict = field(compare=True)
    confidence_note: str = ""
    ambiguous: bool = False
    params: dict = field(default_factory=dict)


def _slice_points(rng, d: int, pred: LocusPredicate, width: int) -> Iterator[np.ndarray]:
    """Image of all p^d parameters under a random affine-linear embedding.

    The embedding is drawn at once (matrix, then offset); the image comes
    lazily, one `affine_image_chunks` block at a time, so a slice is never
    held whole.
    """
    p = pred.p
    mat = linalg.sample_full_rank(rng, d, width, p) if d else np.zeros((0, width), np.int64)
    return affine_image_chunks(mat, rng.ints(width, p), p)


def slice_dim_estimate(
    pred: LocusPredicate,
    rng,
    trials: int = DEFAULT_TRIALS,
    hit_threshold: float = DEFAULT_HIT,
    miss_threshold: float = DEFAULT_MISS,
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> DimEstimate:
    """Estimate the locus dimension from random-slice hit frequencies.

    Walks slice dimension d upward; each level draws `trials` affine
    embeddings F_p^d -> ambient and tests every image point.  The first
    level whose nonempty fraction reaches hit_threshold pins the
    codimension; the estimate is flagged ambiguous when the level below
    it was already warm (fraction >= miss_threshold) since that pattern
    is what a misread codimension looks like.  Projective loci run on
    the affine cone (zero vector included) and the estimate drops by 1.

    Slices are offset away from the origin, so homogeneous loci get no
    free hits through the cone point.  Slice streams derive from labeled
    child generators of `rng`, making the full profile reproducible for
    a fixed seed regardless of worker count.

    A level's embeddings are drawn first, then tested in full blocks:
    slices of p^d <= DEFAULT_CHUNK points go DEFAULT_CHUNK // p^d whole
    slices to a block, one predicate call per block, and a slice is hit
    where any row of its run of p^d rows is; a larger slice streams its
    own blocks.  No block exceeds DEFAULT_CHUNK rows, whatever the budget.
    """
    if not 0.0 < miss_threshold <= hit_threshold <= 1.0:
        raise ValueError("need 0 < miss_threshold <= hit_threshold <= 1")
    p = pred.p
    width = pred.width
    ambient_dim = width if pred.kind == "projective" else pred.n
    params = {
        "trials": trials,
        "hit_threshold": hit_threshold,
        "miss_threshold": miss_threshold,
        "budget": budget,
        "p": p,
        "kind": pred.kind,
        "n": pred.n,
    }

    def cone_test(points: np.ndarray) -> np.ndarray:
        out = np.asarray(pred.test_batch(points), dtype=bool)
        return out if pred.kind == "affine" else out | ~points.any(axis=1)

    spent = 0
    profile: dict[int, int] = {}
    freqs: dict[int, float] = {}
    d_min = None
    for d in range(ambient_dim + 1):
        size = p**d
        if spent + trials * size > budget:
            break
        spent += trials * size
        streams = (rng.child(f"slice-{d}-{t}") for t in range(trials))
        slices = [_slice_points(r, d, pred, width) for r in streams]
        if size <= DEFAULT_CHUNK:
            per = DEFAULT_CHUNK // size
            groups = [slices[i : i + per] for i in range(0, trials, per)]
            blocks = (np.concatenate([b for s in group for b in s]) for group in groups)
            found = run_chunked(lambda b: cone_test(b).reshape(-1, size).any(axis=1), blocks, threads)
            hits = int(sum(f.sum() for f in found))
        else:
            hits = sum(
                any(run_chunked(lambda block: bool(cone_test(block).any()), s, threads))
                for s in slices
            )
        profile[d] = hits
        freqs[d] = hits / trials
        if freqs[d] >= hit_threshold:
            d_min = d
            break

    if d_min is None:
        if any(profile.values()):
            note = (
                f"no slice level reached hit threshold {hit_threshold} within "
                f"budget (profile {profile}); estimate withheld"
            )
            return DimEstimate(-1, trials, profile, note, ambiguous=True, params=params)
        note = f"no hits at any slice level scanned within budget ({spent} tests)"
        return DimEstimate(-1, trials, profile, note, ambiguous=False, params=params)

    warm = d_min > 0 and freqs[d_min - 1] >= miss_threshold
    est = ambient_dim - d_min - (1 if pred.kind == "projective" else 0)
    below = f"{profile[d_min - 1]}/{trials}" if d_min > 0 else "n/a"
    note = (
        f"level {d_min}: {profile[d_min]}/{trials} nonempty; "
        f"level below: {below} (thresholds hit={hit_threshold}, miss={miss_threshold})"
    )
    if warm:
        note += "; level below the accepted one is warm, profile inconclusive"
    return DimEstimate(est, trials, profile, note, ambiguous=warm, params=params)


def image_dim_estimate(polys: list[Poly], rng, samples: int = 50) -> int:
    """Generic differential rank of a polynomial parametrization.

    The image of a polynomial map has the dimension of its differential
    at a generic parameter; finite samples give a lower bound that is
    sharp with overwhelming probability, so the max over samples is
    reported.  All samples are drawn from `rng` at once, one point per
    row, and ranked in one batch.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    p = polys[0].p
    points = rng.matrix(samples, polys[0].nvars, p)
    return int(batched_rank(jacobian(polys, points), p).max(initial=0))
