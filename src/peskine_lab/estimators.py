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
slice is tested only until a point of it is found; `polys` (O2, Sing O2)
are restricted to each slice and test_batch sees only their common zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .polynomial import Poly, jacobian, slice_monomials
from .rng import stream_ints
from .scan import DEFAULT_CHUNK, affine_chunks, batched_rank, run_chunked

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


def _level_hits(pred: LocusPredicate, mats, offsets, threads) -> np.ndarray:
    """The (trials,) mask of slices offset_k + t @ mat_k, t in F_p^d, meeting the locus.  A block
    tests only the trials open when it runs (a stale read under threads only tests more).  With
    polys, one `linalg.mat_mul` of t's monomials by the open `Poly.restrict` columns picks the
    common zeros, whose image rows alone reach test_batch.  No block is drawn once all are found."""
    p, (trials, d, width) = pred.p, mats.shape
    lin = np.concatenate([offsets[:, None], mats], axis=1)  # (1, t) @ lin[k]: points of slice k
    found = np.zeros(trials, dtype=bool)
    if pred.polys:
        degree = max(f.total_degree() for f in pred.polys)
        coeffs = np.stack([f.restrict(offsets, mats, degree).T for f in pred.polys], axis=1)

    def hits(t: np.ndarray) -> None:
        k, y = np.flatnonzero(~found), np.hstack([np.ones((len(t), 1), dtype=np.int64), t])
        if not k.size:  # every trial was found after this block was drawn
            return
        if pred.polys:
            cols = coeffs[:, :, k].reshape(len(coeffs), -1)
            vals = linalg.mat_mul(slice_monomials(t, degree, p), cols, p)
            r, j = np.nonzero(~vals.reshape(len(t), -1, len(k)).any(axis=1))
            prods = y[r, :, None] * lin[k[j]]
            rows = (prods if linalg.products_fit_int64(p, 2, d + 1) else prods % p).sum(axis=1) % p
            k = k[j[_members(pred, rows)]]
        else:
            rows = linalg.mat_mul(y, lin[k].transpose(1, 0, 2).reshape(d + 1, len(k) * width), p)
            k = k[_members(pred, rows.reshape(-1, width)).reshape(len(t), len(k)).any(axis=0)]
        found[k] = True

    def blocks():
        for t in affine_chunks(d, p, max(1, DEFAULT_CHUNK // trials)):
            yield t
            if found.all():
                return

    run_chunked(hits, blocks(), threads)
    return found


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
    embeddings F_p^d -> ambient and finds which images meet the locus.
    The first level whose nonempty fraction reaches hit_threshold pins the
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
    Each level walks F_p^d once, lazily, through `affine_chunks` in blocks
    of max(1, DEFAULT_CHUNK // trials) parameters.  A block tests only the
    trials the level has not found (`_level_hits`), and none is drawn once
    all are found: a trial is tested up to the block holding its first
    member, whatever the thread count.  `budget` still prices a level at
    trials * p^d tests.
    """
    if not 0.0 < miss_threshold <= hit_threshold <= 1.0:
        raise ValueError("need 0 < miss_threshold <= hit_threshold <= 1")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    p, width = pred.p, pred.width
    ambient_dim = width if pred.kind == "projective" else pred.n

    spent, d_min, stopped = 0, None, None
    profile: dict[int, int] = {}
    for d in range(ambient_dim + 1):
        if spent + trials * p**d > budget:
            stopped = d
            break
        spent += trials * p**d
        streams = [rng.child(f"slice-{d}-{t}") for t in range(trials)]
        mats = linalg.sample_full_rank(streams, d, width, p)
        offsets = stream_ints(streams, width, p)
        profile[d] = int(_level_hits(pred, mats, offsets, threads).sum())
        if profile[d] / trials >= hit_threshold:
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

    warm = d_min > 0 and profile[d_min - 1] / trials >= miss_threshold
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
