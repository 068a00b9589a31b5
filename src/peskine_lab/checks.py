"""Named check suites over the sampler, loci, orbit and fibration layers.

Every check draws its randomness from a labeled child of the configured
seed, so a (check_id, seed, config) triple fully determines the report.
Thread counts only shape scheduling; they are deliberately kept out of
the reported parameters so reports stay byte-identical across workers.

Statuses: PASS/FAIL where a claim is asserted, REPORT_ONLY where the
suite measures without asserting, AMBIGUOUS when a dimension estimate
comes back flagged.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .divisors import (
    DivisorSample,
    rank4_points,
    recover_flag_d1_6_10,
    sample_divisor,
    sample_general,
    verify_flag,
)
from .estimators import DimEstimate, LocusPredicate, image_dim_estimate, slice_dim_estimate
from .fibration import (
    birationality_probe,
    dprime_rank2_test,
    fiber_profile,
    omega_data,
    prescribed_dprime_sigma,
    quadric_pencil,
    quotient_u7_coords,
    sigma_dprime,
    sigma_prime_rank_scan,
    thm21_fiber,
    u7_chart,
    u7_perp,
)
from .loci import (
    check_search_prime,
    conic_fiber,
    cubic_from_pfaffian,
    dv_member,
    k3_witness_search,
    peskine_member,
    peskine_points,
    sample_peskine_points,
)
from .orbits import (
    o5_constructed_sample,
    o5_decompose,
    o5_parametrization,
    o5_reconstruct,
    o5_sufficient_member,
    pencil_cubics,
    pf_mod_line,
    project_to_B,
)
from .polynomial import jacobian
from .report import CheckReport
from .rng import Rng
from .scan import (
    batched_pfaffian_minors,
    batched_rank,
    projective_chunks,
    projective_rep,
    rank_drop_mask,
    run_chunked,
)
from .subspaces import Flag, Subspace
from .trivector import Trivector, triples

DEFAULT_SEED = 20260815
_MAX_SAMPLE_TRIES = 60  # draws `sample_d16_nondegenerate` makes before it gives up
_MAX_V4_TRIES = 50  # draws `_sample_v4` makes before it gives up


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by every check runner.

    p and trials override a check's default prime (or prime pair) and its
    main sample count; None keeps the registered defaults.  threads is
    pure scheduling and never reaches the report.  Raises ValueError on a
    field that is not an int (bools included; None where it is allowed),
    on trials or threads below 1 and on a negative budget.
    """

    seed: int = DEFAULT_SEED
    p: int | None = None
    trials: int | None = None
    threads: int | None = None
    budget: int = 10**8

    def __post_init__(self) -> None:
        for name, least in (("seed", None), ("p", None), ("trials", 1), ("threads", 1), ("budget", 0)):
            value = getattr(self, name)
            if value is None and name in ("p", "trials", "threads"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def _primes(cfg: CheckConfig, default: tuple[int, ...]) -> tuple[int, ...]:
    return (cfg.p,) if cfg.p is not None else default


def sample_d16_nondegenerate(rng: Rng, p: int) -> DivisorSample:
    """D1_6_10 sample whose descended two-form is nondegenerate.

    Degenerate draws are discarded (frequency about 1/p, so noticeable at
    the enumeration primes); the fibration layer needs rank 4.
    """
    for _ in range(_MAX_SAMPLE_TRIES):
        samp = sample_divisor(rng, "d1-6-10", p)
        try:
            omega_data(samp.sigma, samp.flag)
        except ValueError:
            continue
        return samp
    raise ValueError(f"no nondegenerate sample in {_MAX_SAMPLE_TRIES} tries at p = {p}")


def sample_u7(rng: Rng, flag: Flag) -> Subspace:
    """Uniform 7-space between V6 and the ambient space."""
    v6 = flag[1]
    while True:
        q = rng.ints(4, v6.p)
        if q.any():
            break
    direction = v6.lift_quotient(q)
    return v6.join(Subspace.span_of(direction, n=v6.n, p=v6.p))


def peskine_predicate(sigma: Trivector) -> LocusPredicate:
    bound = sigma.n - 4

    def test(block: np.ndarray) -> np.ndarray:
        return rank_drop_mask(sigma, block, bound)

    return LocusPredicate(kind="projective", n=sigma.n - 1, p=sigma.p, test_batch=test)


def o2_predicate(p: int) -> LocusPredicate:
    """O2: the common zeros of the pencil cubics f1 and f2."""
    f1, f2 = pencil_cubics(p)
    return LocusPredicate(
        kind="affine", n=20, p=p, test_batch=lambda b: np.ones(len(b), dtype=bool), polys=(f1, f2)
    )


def sing_o2_predicate(p: int) -> LocusPredicate:
    """Sing O2: the common zeros of f1 and f2 where their Jacobian has rank <= 1."""
    f1, f2 = pencil_cubics(p)

    def test(block: np.ndarray) -> np.ndarray:
        return batched_rank(jacobian([f1, f2], block), p) <= 1

    return LocusPredicate(kind="affine", n=20, p=p, test_batch=test, polys=(f1, f2))


def dprime_rank2_predicate(sigma: Trivector, flag: Flag) -> LocusPredicate:
    """Pairs U2 < U7 on the 8-coordinate chart whose residue has mod-A2 rank <= 2."""
    return LocusPredicate(kind="affine", n=8, p=sigma.p, test_batch=dprime_rank2_test(sigma, flag))


def _estimate_fields(est: DimEstimate) -> dict:
    return {
        "estimated_dim": est.estimated_dim,
        "hit_profile": {str(k): v for k, v in est.hit_profile.items()},
        "ambiguous": est.ambiguous,
        "note": est.confidence_note,
    }


# --- individual runners ---------------------------------------------------
#
# Each returns (p, params, status, metrics); run_check adds identity and
# timing.  Dict contents must stay JSON-plain for byte-stable reports.


def _run_pfaffian_det(cfg: CheckConfig):
    primes = _primes(cfg, (101, 7))
    per_size = cfg.trials if cfg.trials is not None else 1000
    rng = Rng(cfg.seed).child("pfaffian-det")
    sizes = (2, 4, 6, 8, 10)
    mismatches = 0
    total = 0
    for p in primes:
        for size in sizes:
            r = rng.child(f"batch-{p}-{size}")
            raw = r.ints(per_size * size * size, p).reshape(per_size, size, size)
            mats = (raw - raw.transpose(0, 2, 1)) % p
            pf = batched_pfaffian_minors(mats, p, [range(size)])[:, 0]
            dets = np.array([linalg.det(m, p) for m in mats], dtype=np.int64)
            mismatches += int((pf * pf % p != dets).sum())
            total += per_size
    status = "PASS" if mismatches == 0 else "FAIL"
    params = {"per_size": per_size, "sizes": list(sizes)}
    return list(primes), params, status, {"forms": total, "mismatches": mismatches}


def _run_low_dim_peskine(cfg: CheckConfig):
    """n = 6 and n = 8 rank-drop loci: exhaustive counts plus slice dims.

    An n = 6 locus is either empty or a disjoint pair of planes (count
    2(p^2+p+1)); empty loci have no slice dimension, so those seeds are
    judged on the count alone.  n = 8 loci carry the two 4-dimensional
    models with (p^2+p+1)^2 and p^4+p^2+1 points; off-model counts happen
    for thin sigma and are tolerated up to the conformity quota.

    Ladder calibration: these loci are thinner than a generic complete
    intersection of their codimension.  At n = 8, p = 7 the cone has about
    2451*6 points in 7^8, so a codimension-3 slice is nonempty with
    frequency 1 - exp(-0.88) = 0.58, too close to the default 0.5 hit
    threshold for 20 trials to resolve.  The estimates here run 300 trials
    with thresholds at 0.45/0.40, placing every decision boundary at least
    0.13 away from the true frequency on both loci (n = 6 level-2
    frequency 0.25, level-3 frequency 0.86).

    A withheld (ambiguous) estimate is no evidence against the claim: the
    status is AMBIGUOUS when the quotas hold only with it counted good.
    """
    rng = Rng(cfg.seed).child("low-dim-peskine")
    seeds6 = cfg.trials if cfg.trials is not None else 20
    ladder = {"trials": 300, "hit_threshold": 0.45, "miss_threshold": 0.40}
    metrics: dict = {}
    ok_overall = True
    could_pass = True

    for p in _primes(cfg, (7, 11)):
        expected = 2 * (p * p + p + 1)
        conforming = 0
        withheld = 0
        counts: Counter = Counter()
        for i in range(seeds6):
            sigma = sample_general(rng.child(f"n6-{p}-{i}"), 6, p)
            count = len(peskine_points(sigma, cfg.threads))
            counts[count] += 1
            good = count in (0, expected)
            if good and count:
                est = slice_dim_estimate(
                    peskine_predicate(sigma),
                    rng.child(f"n6-dim-{p}-{i}"),
                    budget=cfg.budget,
                    threads=cfg.threads,
                    **ladder,
                )
                good = est.estimated_dim == 2 and not est.ambiguous
                withheld += int(est.ambiguous)
            conforming += int(good)
        metrics[f"n6_p{p}_counts"] = {str(k): v for k, v in sorted(counts.items())}
        metrics[f"n6_p{p}_conforming"] = conforming
        ok_overall = ok_overall and conforming >= seeds6 - 2
        could_pass = could_pass and conforming + withheld >= seeds6 - 2

    p8 = cfg.p if cfg.p is not None else 7
    model_counts = {(p8 * p8 + p8 + 1) ** 2, p8**4 + p8**2 + 1}
    dim_ok = 0
    withheld8 = 0
    conforming8 = 0
    counts8: Counter = Counter()
    for i in range(10):
        sigma = sample_general(rng.child(f"n8-{i}"), 8, p8)
        count = len(peskine_points(sigma, cfg.threads))
        counts8[count] += 1
        conforming8 += int(count in model_counts)
        est = slice_dim_estimate(
            peskine_predicate(sigma),
            rng.child(f"n8-dim-{i}"),
            budget=cfg.budget,
            threads=cfg.threads,
            **ladder,
        )
        dim_ok += int(est.estimated_dim == 4 and not est.ambiguous)
        withheld8 += int(est.ambiguous)
    metrics["n8_counts"] = {str(k): v for k, v in sorted(counts8.items())}
    metrics["n8_conforming"] = conforming8
    metrics["n8_dim4"] = dim_ok
    ok_overall = ok_overall and dim_ok == 10 and conforming8 >= 8
    could_pass = could_pass and dim_ok + withheld8 == 10 and conforming8 >= 8

    params = {"seeds_n6": seeds6, "seeds_n8": 10, "p_n8": p8}
    status = "PASS" if ok_overall else ("AMBIGUOUS" if could_pass else "FAIL")
    return list(_primes(cfg, (7, 11))), params, status, metrics


def _sample_v4(rng: Rng, sigma: Trivector, v3: Subspace) -> Subspace:
    """4-space over V3 whose three contraction forms are independent."""
    p = sigma.p
    for _ in range(_MAX_V4_TRIES):
        vec = rng.ints(sigma.n, p)
        v4 = v3.join(Subspace.span_of(vec, n=sigma.n, p=p))
        if v4.dim != 4:
            continue
        try:
            thm21_fiber(sigma, Flag((v3,)), v4, mode="linear")
        except ValueError as err:
            if "positive-dimensional" in str(err):
                return v4
            continue
        return v4
    raise ValueError("no usable V4 found")


def _affine_linear(hits: list[tuple[int, ...]], p: int) -> bool:
    if len(hits) <= 1:
        return True
    arr = np.array(hits, dtype=np.int64)
    diffs = (arr[1:] - arr[0]) % p
    r = linalg.rank(diffs, p)
    return len(hits) == p**r


def _run_thm21(cfg: CheckConfig):
    """Projection fibers of D3_3_10 samples through both evaluation modes.

    The enumeration prime drives mode agreement and affine-linearity of
    every fiber; the genericity prime carries the single-point statistic.
    """
    rng = Rng(cfg.seed).child("thm-2.1")
    n_sigma = 5
    n_v4 = cfg.trials if cfg.trials is not None else 20
    p_small, p_big = 7, 101
    mode_disagreements = 0
    nonlinear = 0
    hist: dict[int, Counter] = {p_small: Counter(), p_big: Counter()}
    positive_dim = 0

    for p in (p_small, p_big):
        for i in range(n_sigma):
            samp = sample_divisor(rng.child(f"sigma-{p}-{i}"), "d3-3-10", p)
            v3 = samp.flag[0]
            flag = samp.flag
            for j in range(n_v4):
                v4 = _sample_v4(rng.child(f"v4-{p}-{i}-{j}"), samp.sigma, v3)
                try:
                    lin = thm21_fiber(samp.sigma, flag, v4, mode="linear")
                except ValueError:
                    positive_dim += 1
                    hist[p]["unbounded"] += 1
                    continue
                hist[p][len(lin)] += 1
                if not _affine_linear(lin, p):
                    nonlinear += 1
                if p == p_small:
                    ex = thm21_fiber(samp.sigma, flag, v4, mode="exhaustive")
                    if ex != lin:
                        mode_disagreements += 1

    cases_big = n_sigma * n_v4
    singles_big = hist[p_big][1]
    status = "PASS"
    if mode_disagreements or nonlinear:
        status = "FAIL"
    if singles_big < round(0.95 * cases_big):
        status = "FAIL"
    metrics = {
        "fiber_hist_p7": {str(k): v for k, v in sorted(hist[p_small].items(), key=str)},
        "fiber_hist_p101": {str(k): v for k, v in sorted(hist[p_big].items(), key=str)},
        "mode_disagreements": mode_disagreements,
        "non_affine_linear": nonlinear,
        "positive_dimensional": positive_dim,
        "singleton_rate_p101": singles_big / cases_big,
    }
    params = {"sigmas": n_sigma, "v4_per_sigma": n_v4}
    return [p_small, p_big], params, status, metrics


def _run_lem_3_4(cfg: CheckConfig):
    """Interpolated quotient-Pfaffian cubic vs the rank-drop locus on P(V6)."""
    p = cfg.p if cfg.p is not None else 11
    seeds = cfg.trials if cfg.trials is not None else 3
    rng = Rng(cfg.seed).child("lem-3.4")
    mismatches = 0
    degree_ok = True
    points = 0
    for i in range(seeds):
        samp = sample_divisor(rng.child(f"sigma-{i}"), "d1-6-10", p)
        cubic = cubic_from_pfaffian(samp.sigma, samp.flag)
        degree_ok = degree_ok and cubic.total_degree() == 3
        b6 = samp.flag[1].basis
        for block in projective_chunks(5, p):
            pts = linalg.mat_mul(block, b6, p)
            member = rank_drop_mask(samp.sigma, pts, samp.sigma.n - 4)
            zero = cubic.evaluate_batch(block) == 0
            mismatches += int((member != zero).sum())
            points += len(block)
    status = "PASS" if degree_ok and mismatches == 0 else "FAIL"
    metrics = {
        "points_checked": points,
        "mismatches": mismatches,
        "degree_exactly_3": degree_ok,
    }
    return p, {"seeds": seeds}, status, metrics


def _run_rem_3_5(cfg: CheckConfig):
    """Gradient of the cubic at the distinguished point, measured only."""
    primes = _primes(cfg, (101, 211))
    seeds = cfg.trials if cfg.trials is not None else 20
    rng = Rng(cfg.seed).child("rem-3.5")
    metrics: dict = {}
    for p in primes:
        vanishing = 0
        for i in range(seeds):
            samp = sample_divisor(rng.child(f"sigma-{p}-{i}"), "d1-6-10", p)
            cubic = cubic_from_pfaffian(samp.sigma, samp.flag)
            v1c = samp.flag[1].coords_of(samp.flag[0].basis[0])
            grad = jacobian([cubic], v1c[None])[0, 0]
            vanishing += int(not grad.any())
        metrics[f"gradient_vanishing_p{p}"] = vanishing
        metrics[f"seeds_p{p}"] = seeds
    return list(primes), {"seeds": seeds}, "REPORT_ONLY", metrics


def _run_lem_3_6(cfg: CheckConfig):
    """Nondegeneracy rate of the descended two-form, plus perp invariants."""
    p = cfg.p if cfg.p is not None else 101
    seeds = cfg.trials if cfg.trials is not None else 100
    rng = Rng(cfg.seed).child("lem-3.6")
    nondeg = 0
    keep: list[DivisorSample] = []
    for i in range(seeds):
        samp = sample_divisor(rng.child(f"sigma-{i}"), "d1-6-10", p)
        try:
            omega_data(samp.sigma, samp.flag)
        except ValueError:
            continue
        nondeg += 1
        if len(keep) < 5:
            keep.append(samp)

    perp_ok = True
    for k, samp in enumerate(keep):
        u7 = sample_u7(rng.child(f"u7-{k}"), samp.flag)
        perp = u7_perp(samp.sigma, samp.flag, u7)
        pairing = samp.sigma.values(samp.flag[0].basis, u7.basis, perp.basis)
        perp_ok = perp_ok and perp.dim == 9 and perp.contains(u7) and not pairing.any()

    status = "PASS" if nondeg >= round(0.95 * seeds) and perp_ok else "FAIL"
    metrics = {"nondegenerate": nondeg, "seeds": seeds, "perp_invariants": perp_ok}
    return p, {"seeds": seeds}, status, metrics


def _run_lem_3_8(cfg: CheckConfig):
    """Exhaustive rank biconditional on P(U7) off the divisor 6-space.

    Membership in the rank-drop locus must coincide with the restricted
    form having rank at most 4, point by point, and the restricted rank
    must be exactly 4 where the full rank is exactly n - 4 (a deeper
    point may drop further: a restriction cannot raise the rank); the
    planted flag must also be recoverable from sigma and the
    distinguished line alone.
    """
    p = cfg.p if cfg.p is not None else 7
    n_sigma = 3
    n_u7 = cfg.trials if cfg.trials is not None else 5
    rng = Rng(cfg.seed).child("lem-3.8")
    violations = 0
    scanned = 0
    members = 0
    recovery_ok = True
    for i in range(n_sigma):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{i}"), p)
        recovered = recover_flag_d1_6_10(samp.sigma, samp.flag[0].basis[0])
        recovery_ok = recovery_ok and recovered[0] == samp.flag[0] and recovered[1] == samp.flag[1]
        for j in range(n_u7):
            u7 = sample_u7(rng.child(f"u7-{i}-{j}"), samp.flag)
            pts, full, prime = sigma_prime_rank_scan(samp.sigma, samp.flag, u7, cfg.threads)
            member = full <= samp.sigma.n - 4
            exact = full == samp.sigma.n - 4
            violations += int(((member != (prime <= 4)) | (exact & (prime != 4))).sum())
            scanned += len(pts)
            members += int(member.sum())
    status = "PASS" if violations == 0 and recovery_ok else "FAIL"
    metrics = {
        "points_scanned": scanned,
        "locus_points": members,
        "violations": violations,
        "flag_recovery_ok": recovery_ok,
    }
    return p, {"sigmas": n_sigma, "u7_per_sigma": n_u7}, status, metrics


def _run_lem_3_8_unique(cfg: CheckConfig):
    """How often the planted line is the only rank-4 point (measured only).

    Over small fields extra rational rank-4 points appear with constant
    probability (the locus has large degree, so stray points land at a
    Poisson-like rate around deg/p^6), hence no uniqueness assertion.
    """
    p = cfg.p if cfg.p is not None else 5
    seeds = cfg.trials if cfg.trials is not None else 100
    rng = Rng(cfg.seed).child("lem-3.8-unique")
    counts: Counter = Counter()
    for i in range(seeds):
        samp = sample_divisor(rng.child(f"sigma-{i}"), "d1-6-10", p)
        counts[len(rank4_points(samp.sigma, threads=cfg.threads))] += 1
    metrics = {
        "count_hist": {str(k): v for k, v in sorted(counts.items())},
        "singleton_fraction": counts[1] / seeds,
    }
    return p, {"seeds": seeds}, "REPORT_ONLY", metrics


def _run_lem_3_13(cfg: CheckConfig):
    """Slice dimensions of the cubic-pencil locus and its singular locus."""
    trials = cfg.trials if cfg.trials is not None else 20
    rng = Rng(cfg.seed).child("lem-3.13")
    metrics: dict = {}
    wrong = False
    ambiguous = False
    for p in _primes(cfg, (5, 7)):
        for name, pred, want in (
            ("o2", o2_predicate(p), 18),
            ("sing_o2", sing_o2_predicate(p), 15),
        ):
            est = slice_dim_estimate(
                pred,
                rng.child(f"{name}-{p}"),
                trials=trials,
                budget=cfg.budget,
                threads=cfg.threads,
            )
            metrics[f"{name}_p{p}"] = _estimate_fields(est)
            ambiguous = ambiguous or est.ambiguous
            wrong = wrong or (not est.ambiguous and est.estimated_dim != want)
    status = "FAIL" if wrong else ("AMBIGUOUS" if ambiguous else "PASS")
    return list(_primes(cfg, (5, 7))), {"trials": trials}, status, metrics


def _run_pencil_cubics(cfg: CheckConfig):
    """Line-quotient Pfaffians against the two fixed cubics.

    In the chart with beta != 0 the cleared quotient Pfaffian must equal
    beta^2 (beta F1 - alpha F2); the beta = 0 chart reduces to F2 alone.
    Every element and line comes from one draw: per element its 20
    coordinates, then its lines as (alpha, beta) pairs, beta = 1 on (0, 0).
    One `pf_mod_line` batch then builds and expands all the quotient matrices.
    """
    p = cfg.p if cfg.p is not None else 101
    n_b = cfg.trials if cfg.trials is not None else 500
    n_lines = 20
    rng = Rng(cfg.seed).child("pencil-cubics")
    f1, f2 = pencil_cubics(p)
    b12_free = len(f1.terms) == 15 and len(f2.terms) == 15
    draws = rng.ints(n_b * (20 + 2 * n_lines), p).reshape(n_b, 20 + 2 * n_lines)
    coords = draws[:, :20]
    alpha, beta = draws[:, 20:].reshape(-1, 2).T
    beta[(alpha == 0) & (beta == 0)] = 1
    v1, v2 = (np.repeat(f.evaluate_batch(coords), n_lines) for f in (f1, f2))
    val = pf_mod_line(np.repeat(coords, n_lines, axis=0), alpha, beta, p)
    expect = np.where(beta != 0, beta * beta % p * ((beta * v1 - alpha * v2) % p) % p, v2)
    mismatches = int((val != expect).sum())
    status = "PASS" if b12_free and mismatches == 0 else "FAIL"
    metrics = {
        "b12_free": b12_free,
        "pairs_checked": n_b * n_lines,
        "mismatches": mismatches,
    }
    return p, {"elements": n_b, "lines_per_element": n_lines}, status, metrics


def _run_lem_3_14(cfg: CheckConfig):
    """Normal-form decomposition round-trip on constructed stratum members."""
    p = cfg.p if cfg.p is not None else 101
    samples = cfg.trials if cfg.trials is not None else 200
    rng = Rng(cfg.seed).child("lem-3.14")
    sufficient = 0
    roundtrip = 0
    for i in range(samples):
        b = o5_constructed_sample(rng.child(f"b-{i}"), p)
        if o5_sufficient_member(b):
            sufficient += 1
            dec = o5_decompose(b)
            roundtrip += int(o5_reconstruct(dec, p) == b)
    diff_rank = image_dim_estimate(o5_parametrization(p), rng.child("diff"), samples=samples)
    status = "PASS" if sufficient == samples and roundtrip == samples and diff_rank <= 15 else "FAIL"
    metrics = {
        "samples": samples,
        "sufficient": sufficient,
        "roundtrip": roundtrip,
        "differential_rank": diff_rank,
    }
    return p, {"samples": samples}, status, metrics


def _run_lem_3_15(cfg: CheckConfig):
    """Prescribed-residue construction reproduces arbitrary targets."""
    p = cfg.p if cfg.p is not None else 101
    pairs = cfg.trials if cfg.trials is not None else 50
    rng = Rng(cfg.seed).child("lem-3.15")
    exact = 0
    for i in range(pairs):
        raw = rng.matrix(7, 7, p)
        xmat = (raw - raw.T) % p
        sigma, flag, u2, u7, frame, gen = prescribed_dprime_sigma(xmat, p)
        resid = sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=gen)
        exact += int(resid == project_to_B(xmat, p))
    status = "PASS" if exact == pairs else "FAIL"
    return p, {"pairs": pairs}, status, {"pairs": pairs, "exact": exact}


def _run_lem_3_16(cfg: CheckConfig):
    """Slice probe of the low-rank pair chart, measured against dim <= 3."""
    p = cfg.p if cfg.p is not None else 5
    trials = cfg.trials if cfg.trials is not None else 12
    rng = Rng(cfg.seed).child("lem-3.16")
    samp = sample_d16_nondegenerate(rng.child("sigma"), p)
    est = slice_dim_estimate(
        dprime_rank2_predicate(samp.sigma, samp.flag),
        rng.child("estimate"),
        trials=trials,
        budget=cfg.budget,
        threads=cfg.threads,
    )
    metrics = _estimate_fields(est)
    # A withheld estimate (estimated_dim -1 with the ambiguous flag) bounds nothing.
    metrics["within_bound_3"] = not est.ambiguous and -1 <= est.estimated_dim <= 3
    return p, {"trials": trials}, "REPORT_ONLY", metrics


def _run_prop_3_1(cfg: CheckConfig):
    """Isotropic-plane witness search for the K3 membership condition."""
    p = check_search_prime(cfg.p if cfg.p is not None else 3)
    seeds = cfg.trials if cfg.trials is not None else 100
    rng = Rng(cfg.seed).child("prop-3.1")
    witnesses = 0
    for i in range(seeds):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{i}"), p)
        if k3_witness_search(samp.sigma, samp.flag) is not None:
            witnesses += 1
    status = "PASS" if witnesses >= round(0.8 * seeds) else "FAIL"
    return p, {"seeds": seeds}, status, {"seeds": seeds, "witnesses": witnesses}


def _run_prop_3_2(cfg: CheckConfig):
    """Conic fiber cardinality over found K3 witnesses."""
    rng = Rng(cfg.seed).child("prop-3.2")
    metrics: dict = {}
    good = 0
    found = 0
    plans = ((3, 30), (5, 10)) if cfg.p is None else ((check_search_prime(cfg.p), cfg.trials or 10),)
    for p, seeds in plans:
        if cfg.trials is not None:
            seeds = cfg.trials
        hist: Counter = Counter()
        for i in range(seeds):
            samp = sample_d16_nondegenerate(rng.child(f"sigma-{p}-{i}"), p)
            witness = k3_witness_search(samp.sigma, samp.flag)
            if witness is None:
                continue
            u8, u4 = witness
            fibers = conic_fiber(samp.sigma, u4, u8)
            hist[len(fibers)] += 1
            found += 1
            good += int(len(fibers) == p + 1)
        metrics[f"fiber_count_hist_p{p}"] = {str(k): v for k, v in sorted(hist.items())}
    metrics["witnesses"] = found
    metrics["exact_p_plus_1"] = good
    status = "PASS" if found and good >= round(0.9 * found) else "FAIL"
    return [p for p, _ in plans], {"plans": [list(x) for x in plans]}, status, metrics


def _run_prop_3_17(cfg: CheckConfig):
    """Line probe through sampled locus points: generically a single hit.

    Also drives the probe across a planted fully-degenerate line (low-rank
    residue target), where every point of the line must answer.
    """
    p = cfg.p if cfg.p is not None else 101
    count = cfg.trials if cfg.trials is not None else 100
    rng = Rng(cfg.seed).child("prop-3.17")
    samp = sample_d16_nondegenerate(rng.child("sigma"), p)
    pts = sample_peskine_points(samp.sigma, rng.child("points"), count, avoid=samp.flag[1])
    hist: Counter = Counter()
    for l in pts:
        probe = birationality_probe(samp.sigma, samp.flag, np.array(l, dtype=np.int64))
        hist[probe.count] += 1

    p_line = 7
    xmat = np.zeros((7, 7), dtype=np.int64)
    xmat[2, 3], xmat[3, 2] = 1, p_line - 1
    line_rng = rng.child("targeted")
    for col in range(2, 7):
        xmat[0, col] = line_rng.below(p_line)
        xmat[col, 0] = (-xmat[0, col]) % p_line
    sigma_t, flag_t, u2_t, u7_t, _, gen_t = prescribed_dprime_sigma(xmat, p_line)
    targeted = birationality_probe(sigma_t, flag_t, gen_t, u7=u7_t)

    singles = hist[1]
    status = "PASS" if singles >= round(0.95 * count) and targeted.count == p_line + 1 else "FAIL"
    metrics = {
        "count_hist": {str(k): v for k, v in sorted(hist.items())},
        "single_rate": singles / count,
        "targeted_count": targeted.count,
        "targeted_expected": p_line + 1,
    }
    return p, {"points": count}, status, metrics


def _run_prop_3_18(cfg: CheckConfig):
    """Quadric pencil: forward containment, member rank, reverse coverage.

    Containment and coverage run exhaustively at the enumeration prime;
    the member-rank statistic runs at the genericity prime.  Coverage
    discrepancies (common zeros with no locus preimage) are reported and
    only bounded by the size of the excluded stratum, not asserted away.
    """
    p = cfg.p if cfg.p is not None else 7
    n_sigma = 3
    n_u7 = cfg.trials if cfg.trials is not None else 10
    rng = Rng(cfg.seed).child("prop-3.18")
    containment_violations = 0
    discrepancies: list[int] = []
    bound = p**4 + p**3 + p**2 + p + 1
    locus_total = 0
    for i in range(n_sigma):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{i}"), p)
        v1 = samp.flag[0]

        def on_locus(block: np.ndarray) -> np.ndarray:
            return block[rank_drop_mask(samp.sigma, block, samp.sigma.n - 4)]

        for j in range(n_u7):
            u7 = sample_u7(rng.child(f"u7-{i}-{j}"), samp.flag)
            members = np.concatenate(run_chunked(on_locus, u7_chart(samp.flag, u7), cfg.threads))
            locus_total += len(members)
            pencil = quadric_pencil(samp.sigma, samp.flag, u7)
            coords = quotient_u7_coords(u7, v1, members)
            va, vb = pencil.value_at(coords)
            containment_violations += int(((va != 0) | (vb != 0)).sum())
            image = len(np.unique(projective_rep(coords, p), axis=0))
            profile = fiber_profile(pencil)
            discrepancies.append(profile["points"] - image)

    p_big = 101
    rank6 = 0
    rank_samples = 0
    for i in range(2):
        samp = sample_d16_nondegenerate(rng.child(f"big-sigma-{i}"), p_big)
        for j in range(2):
            u7 = sample_u7(rng.child(f"big-u7-{i}-{j}"), samp.flag)
            pencil = quadric_pencil(samp.sigma, samp.flag, u7)
            r = rng.child(f"members-{i}-{j}")
            for _ in range(10):
                alpha, beta = r.below(p_big), r.below(p_big)
                if alpha == 0 and beta == 0:
                    alpha = 1
                rank6 += int(pencil.member_rank(alpha, beta) == 6)
                rank_samples += 1

    coverage_ok = all(0 <= d <= bound for d in discrepancies)
    status = "PASS"
    if containment_violations or not coverage_ok:
        status = "FAIL"
    if rank6 < round(0.9 * rank_samples):
        status = "FAIL"
    metrics = {
        "locus_points": locus_total,
        "containment_violations": containment_violations,
        "coverage_discrepancies": discrepancies,
        "coverage_bound": bound,
        "member_rank6": rank6,
        "member_samples": rank_samples,
    }
    return [p, p_big], {"sigmas": n_sigma, "u7_per_sigma": n_u7}, status, metrics


def _run_prop_3_19(cfg: CheckConfig):
    """Fiber smoothness profile of the quadric pencils."""
    p = cfg.p if cfg.p is not None else 7
    n_sigma = 4
    n_u7 = cfg.trials if cfg.trials is not None else 5
    rng = Rng(cfg.seed).child("prop-3.19")
    ok = 0
    total = 0
    profiles = []
    for i in range(n_sigma):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{i}"), p)
        for j in range(n_u7):
            u7 = sample_u7(rng.child(f"u7-{i}-{j}"), samp.flag)
            pencil = quadric_pencil(samp.sigma, samp.flag, u7)
            profile = fiber_profile(pencil)
            profiles.append(profile)
            total += 1
            if pencil.degenerate or not profile["points"]:
                continue
            singular = profile["rank0"] + profile["rank1"]
            smooth_fraction = profile["rank2"] / profile["points"]
            ok += int(singular < 10 and smooth_fraction > 0.95)
    status = "PASS" if ok >= round(0.9 * total) else "FAIL"
    metrics = {
        "fibers": total,
        "conforming": ok,
        "profiles": [
            {k: int(v) for k, v in prof.items()} for prof in profiles
        ],
    }
    return p, {"sigmas": n_sigma, "u7_per_sigma": n_u7}, status, metrics


def _run_determinism(cfg: CheckConfig):
    """Worker-count independence of every parallel scan, plus report bytes."""
    rng = Rng(cfg.seed).child("determinism")
    p = 7
    sigma6 = sample_general(rng.child("n6"), 6, p)
    samp = sample_d16_nondegenerate(rng.child("d16"), p)
    u7 = sample_u7(rng.child("u7"), samp.flag)

    agree = True
    runs = []
    for threads in (1, 4):
        pts6 = peskine_points(sigma6, threads)
        scan = sigma_prime_rank_scan(samp.sigma, samp.flag, u7, threads)
        est = slice_dim_estimate(
            o2_predicate(5), rng.child("o2"), trials=6, threads=threads
        )
        runs.append((pts6, scan, est))
    a, b = runs
    agree = agree and a[0] == b[0]
    agree = agree and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
    agree = agree and a[2] == b[2]

    rep1 = run_check("lem-3.15", CheckConfig(seed=cfg.seed, threads=1))
    rep2 = run_check("lem-3.15", CheckConfig(seed=cfg.seed, threads=4))
    bytes_equal = rep1.stable_bytes() == rep2.stable_bytes()

    status = "PASS" if agree and bytes_equal else "FAIL"
    metrics = {"scan_agreement": agree, "report_bytes_equal": bytes_equal}
    return p, {"thread_counts": [1, 4]}, status, metrics


def _run_gl_equivariance(cfg: CheckConfig):
    """Membership predicates and probe counts under the joint GL action."""
    rng = Rng(cfg.seed).child("gl-equivariance")
    failures = 0
    total = 0

    for i in range(40):
        n = (6, 8, 10)[i % 3]
        p = (7, 101)[i % 2]
        r = rng.child(f"peskine-{i}")
        sigma = sample_general(r, n, p)
        g = linalg.sample_gl(r, n, p)
        while True:
            u = r.ints(n, p)
            if u.any():
                break
        tau = sigma.gl_transform(g)
        total += 1
        failures += int(peskine_member(sigma, u) != peskine_member(tau, linalg.mat_mul(g, u, p)))

    for i in range(30):
        p = (7, 101)[i % 2]
        r = rng.child(f"dv-{i}")
        planted = i % 2 == 0
        if planted:
            coeffs = r.ints(len(triples(10)), p)
            for idx, t in enumerate(triples(10)):
                if max(t) <= 5:
                    coeffs[idx] = 0
            sigma = Trivector.from_coeffs(coeffs, 10, p)
            u6 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:6], 10, p)
        else:
            sigma = sample_general(r, 10, p)
            u6 = Subspace.from_rows(linalg.sample_full_rank([r], 6, 10, p)[0], 10, p)
        g = linalg.sample_gl(r, 10, p)
        total += 1
        before = dv_member(sigma, u6)
        after = dv_member(sigma.gl_transform(g), u6.transform(g))
        failures += int(before != after)
        if planted and not before:
            failures += 1

    kinds = ("d3-3-10", "d1-6-10", "d4-7-7")
    for i in range(20):
        p = (7, 101)[i % 2]
        kind = kinds[i % 3]
        r = rng.child(f"flag-{i}")
        samp = sample_divisor(r, kind, p)
        h = linalg.sample_gl(r, 10, p)
        total += 1
        moved = verify_flag(samp.sigma.gl_transform(h), kind, samp.flag.transform(h))
        failures += int(not moved)

    p = 7
    for i in range(10):
        r = rng.child(f"probe-{i}")
        samp = sample_d16_nondegenerate(r, p)
        pts = sample_peskine_points(samp.sigma, r, 1, avoid=samp.flag[1])
        l = np.array(pts[0], dtype=np.int64)
        g = linalg.sample_gl(r, 10, p)
        tau = samp.sigma.gl_transform(g)
        total += 1
        before = birationality_probe(samp.sigma, samp.flag, l).count
        after = birationality_probe(tau, samp.flag.transform(g), linalg.mat_mul(g, l, p)).count
        failures += int(before != after)

    status = "PASS" if failures == 0 else "FAIL"
    return [7, 101], {"triples": total}, status, {"triples": total, "failures": failures}


_RUNNERS = {
    "pfaffian-det": _run_pfaffian_det,
    "low-dim-peskine": _run_low_dim_peskine,
    "thm-2.1": _run_thm21,
    "lem-3.4": _run_lem_3_4,
    "rem-3.5": _run_rem_3_5,
    "lem-3.6": _run_lem_3_6,
    "lem-3.8": _run_lem_3_8,
    "lem-3.8-unique": _run_lem_3_8_unique,
    "lem-3.13": _run_lem_3_13,
    "pencil-cubics": _run_pencil_cubics,
    "lem-3.14": _run_lem_3_14,
    "lem-3.15": _run_lem_3_15,
    "lem-3.16": _run_lem_3_16,
    "prop-3.1": _run_prop_3_1,
    "prop-3.2": _run_prop_3_2,
    "prop-3.17": _run_prop_3_17,
    "prop-3.18": _run_prop_3_18,
    "prop-3.19": _run_prop_3_19,
    "determinism": _run_determinism,
    "gl-equivariance": _run_gl_equivariance,
}

REGISTRY = tuple(_RUNNERS)


def run_check(check_id: str, config: CheckConfig | None = None) -> CheckReport:
    """Execute one registered check and wrap the outcome in a report."""
    if check_id not in _RUNNERS:
        raise ValueError(f"unknown check id {check_id!r}")
    cfg = config or CheckConfig()
    start = time.monotonic()
    p, params, status, metrics = _RUNNERS[check_id](cfg)
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(
        check_id=check_id,
        seed=cfg.seed,
        p=p,
        params=params,
        status=status,
        metrics=metrics,
        runtime_ms=elapsed,
    )
