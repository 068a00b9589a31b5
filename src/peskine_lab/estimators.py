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
the uncertain band come back flagged ambiguous instead of wrong.  A
predicate with `polys` (O2, Sing O2) is scanned through their
restrictions to each slice, and test_batch runs only on their common zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .polynomial import Poly, jacobian, slice_monomials
from .rng import stream_ints
from .scan import DEFAULT_CHUNK, affine_chunks, affine_image_chunks, batched_rank, run_chunked

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
    and must be pure.  Without `polys` it is the full membership test.
    With them (in `width` variables; on a projective predicate they
    vanish at the zero vector too), a point is a member where every poly
    vanishes and test_batch holds, and test_batch is called on common
    zeros of the polys alone.
    """

    kind: str
    n: int
    p: int
    test_batch: Callable[[np.ndarray], np.ndarray]
    polys: tuple[Poly, ...] = ()

    def __post_init__(self):
        if self.kind not in ("affine", "projective"):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        linalg.check_prime(self.p)
        for f in self.polys:
            constant = self.kind == "projective" and f.as_dict().get(())
            if (f.p, f.nvars) != (self.p, self.width) or constant:
                raise ValueError(f"polys need p={self.p}, nvars={self.width}; projective: f(0) = 0")

    @property
    def width(self) -> int:
        return self.n + 1 if self.kind == "projective" else self.n


@dataclass(frozen=True)
class DimEstimate:
    """Outcome of the slice ladder; -1 means no estimate (see the note)."""

    estimated_dim: int
    trials: int
    hit_profile: dict = field(compare=True)
    confidence_note: str = ""
    ambiguous: bool = False


def _members(pred: LocusPredicate, rows: np.ndarray) -> np.ndarray:
    """test_batch on (B, width) rows; a projective predicate also keeps the cone point."""
    hit = np.asarray(pred.test_batch(rows), dtype=bool)
    return hit | ~rows.any(axis=1) if pred.kind == "projective" else hit


def _restricted_hits(pred: LocusPredicate, mats: np.ndarray, offsets: np.ndarray) -> Callable:
    """Worker on blocks t of F_p^d giving the (trials,) hits: one `linalg.mat_mul` of t's
    monomial values against every (poly, trial) row of `Poly.restrict` coefficients, then
    test_batch on the image rows offset + t @ mat of the common zeros alone."""
    p, (trials, d, _), degree = pred.p, mats.shape, max(f.total_degree() for f in pred.polys)
    coeffs = np.vstack([f.restrict(offsets, mats, degree) for f in pred.polys]).T

    def hits(t: np.ndarray) -> np.ndarray:
        vals = linalg.mat_mul(slice_monomials(t, degree, p), coeffs, p)
        r, k = np.nonzero(~vals.reshape(len(t), len(pred.polys), trials).any(axis=1))
        rows, found = offsets[k], np.zeros(trials, dtype=bool)
        for j in range(d):
            rows = (rows + t[r, j, None] * mats[k, j]) % p
        found[k[_members(pred, rows)]] = True
        return found

    return hits


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
    Without such a level the estimate is -1, and it reads "empty" (not
    ambiguous) only when every level up to the ambient dimension was
    scanned without a hit; a ladder with hits, or one the budget stopped
    below the ambient dimension, is ambiguous: it gives no verdict.

    Slices are offset away from the origin, so homogeneous loci get no
    free hits through the cone point.  Slice streams derive from labeled
    child generators of `rng`, making the full profile reproducible for
    a fixed seed regardless of worker count.

    A level is built whole: one `linalg.sample_full_rank` over its trial
    streams draws every embedding matrix, then one `stream_ints` the offsets.
    Each level walks F_p^d once, lazily, in blocks of
    max(1, DEFAULT_CHUNK // trials) parameters with every trial side by
    side, so a block holds at most max(DEFAULT_CHUNK, trials) points.
    Without polys a block is the image rows of all the slices at once,
    and a trial is hit where any of its rows is; with polys,
    `_restricted_hits` tests the common zeros alone.
    """
    if not 0.0 < miss_threshold <= hit_threshold <= 1.0:
        raise ValueError("need 0 < miss_threshold <= hit_threshold <= 1")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    p = pred.p
    width = pred.width
    ambient_dim = width if pred.kind == "projective" else pred.n
    chunk = max(1, DEFAULT_CHUNK // trials)

    def slice_hits(rows: np.ndarray) -> np.ndarray:
        return _members(pred, rows.reshape(-1, width)).reshape(-1, trials).any(axis=0)

    spent = 0
    profile: dict[int, int] = {}
    freqs: dict[int, float] = {}
    d_min = None
    stopped = None
    for d in range(ambient_dim + 1):
        size = p**d
        if spent + trials * size > budget:
            stopped = d
            break
        spent += trials * size
        streams = [rng.child(f"slice-{d}-{t}") for t in range(trials)]
        mats = linalg.sample_full_rank(streams, d, width, p)
        offsets = stream_ints(streams, width, p)
        if pred.polys:
            worker, blocks = _restricted_hits(pred, mats, offsets), affine_chunks(d, p, chunk)
        else:
            stacked = mats.transpose(1, 0, 2).reshape(d, trials * width)
            worker, blocks = slice_hits, affine_image_chunks(stacked, offsets.reshape(-1), p, chunk)
        found = np.logical_or.reduce(run_chunked(worker, blocks, threads))
        profile[d] = int(found.sum())
        freqs[d] = profile[d] / trials
        if freqs[d] >= hit_threshold:
            d_min = d
            break

    if d_min is None:
        if any(profile.values()):
            note = (
                f"no slice level reached hit threshold {hit_threshold} within "
                f"budget (profile {profile}); estimate withheld"
            )
            return DimEstimate(-1, trials, profile, note, ambiguous=True)
        if stopped is not None:
            note = (
                f"no hits up to level {stopped - 1}; the budget of {budget} tests "
                f"stopped the ladder at level {stopped} of {ambient_dim} "
                f"({spent} tests); estimate withheld"
            )
            return DimEstimate(-1, trials, profile, note, ambiguous=True)
        note = f"no hits at any slice level scanned within budget ({spent} tests)"
        return DimEstimate(-1, trials, profile, note, ambiguous=False)

    warm = d_min > 0 and freqs[d_min - 1] >= miss_threshold
    est = ambient_dim - d_min - (1 if pred.kind == "projective" else 0)
    below = f"{profile[d_min - 1]}/{trials}" if d_min > 0 else "n/a"
    note = (
        f"level {d_min}: {profile[d_min]}/{trials} nonempty; "
        f"level below: {below} (thresholds hit={hit_threshold}, miss={miss_threshold})"
    )
    if warm:
        note += "; level below the accepted one is warm, profile inconclusive"
    return DimEstimate(est, trials, profile, note, ambiguous=warm)


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
