"""The benchmark's two workloads, each made of two of the four parts below.

Each part draws its inputs from the seed with the lab's own samplers
(`__init__`, the set-up), runs one round of calls into the library's
public functions (`run_round`), and checks one round's outputs with the
oracle (`check`); a workload runs its parts one after another.
`fingerprint` digests a round's outputs so that every round can be
compared with the first.  Every round of a run repeats the same calls on
the same inputs, so the share of failed operations is the same in every
run.

The sizes are cut down from the acceptance checks so that one round takes
a few seconds on one core; README.md lists them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracle
from peskine_lab import checks, divisors, estimators, fibration, linalg, loci
from peskine_lab.rng import Rng
from peskine_lab.subspaces import Subspace
from peskine_lab.trivector import Trivector, triple_index

# Unreported points whose rank the oracle checks, per enumeration.
UNREPORTED_SAMPLES = 100
# Projective spaces up to this many points are recounted whole by the oracle.
RECOUNT_LIMIT = 200_000
# Non-locus chart points whose full rank the oracle checks, per scan.
CHART_SAMPLES = 20


class Failed:
    """Stands for the output of a call that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def attempt(fn, *args, **kwargs):
    """Call into the library; a raised exception becomes a Failed output."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the run goes on and counts the operation as failed
        return Failed(exc)


@dataclass
class Verdict:
    """Operations per round, how many failed, and every check that did not hold."""

    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def op(self, out, label: str) -> bool:
        """Count one operation; False (and counted as failed) if it raised."""
        self.ops += 1
        if isinstance(out, Failed):
            self.failed += 1
            self.notes.append(f"{label}: {out.text}")
            return False
        return True


def fingerprint(out) -> str:
    """A digest of a round's outputs, so that rounds compare without being kept."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, np.ndarray):
            h.update(f"array {x.dtype} {x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(f"dict {len(x)}".encode())
            for key in sorted(x, key=repr):
                feed(key)
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(f"seq {len(x)}".encode())
            for item in x:
                feed(item)
        elif isinstance(x, Failed):
            h.update(f"failed {x.text}".encode())
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        else:
            h.update(repr(x).encode())

    feed(out)
    return h.hexdigest()


def _coeffs(sigma: Trivector) -> list[int]:
    return [int(c) for c in sigma.coeffs]


def check_locus_points(sigma: Trivector, points, bound: int, rnd: random.Random) -> list[str]:
    """Reported points are canonical, distinct and of rank <= bound; a
    sample of unreported points has rank > bound; a space small enough
    (every n = 6 and n = 8 input here) is recounted whole."""
    n, p, coeffs = sigma.n, sigma.p, _coeffs(sigma)
    problems = []
    found = set(points)
    if len(found) != len(points):
        problems.append(f"{len(points) - len(found)} points reported twice")
    for pt in points:
        if len(pt) != n or not oracle.is_canonical(pt, p):
            problems.append(f"{pt} is not a canonical representative")
        elif not oracle.rank_at_most(oracle.contraction(coeffs, n, p, pt), p, bound):
            problems.append(f"reported point {pt} has rank above {bound}")
    if (p**n - 1) // (p - 1) <= RECOUNT_LIMIT:
        truth = oracle.locus_points(coeffs, n, p, bound)
        if truth != found:
            problems.append(
                f"recount of P^{n - 1}: {len(truth - found)} points missing, "
                f"{len(found - truth)} extra"
            )
    checked = 0
    while checked < UNREPORTED_SAMPLES:
        pt = oracle.random_point(rnd, n, p)
        if pt in found:
            continue
        checked += 1
        if oracle.rank_at_most(oracle.contraction(coeffs, n, p, pt), p, bound):
            problems.append(f"unreported point {pt} has rank at most {bound}")
    return problems


class ProjectiveEnum:
    """Whole-space rank-drop scans: three general sigmas, one D^{1,6,10}."""

    name = "projective-enum"
    GENERAL = (("n6-p7", 6, 7), ("n6-p11", 6, 11), ("n8-p5", 8, 5))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Rng(seed).child(self.name)
        self.general = {
            label: divisors.sample_general(rng.child(label), n, p) for label, n, p in self.GENERAL
        }
        self.d16 = divisors.sample_divisor(rng.child("d16-p5"), "d1-6-10", 5)

    def run_round(self) -> dict:
        out = {label: attempt(loci.peskine_points, s) for label, s in self.general.items()}
        out["rank4-n10-p5"] = attempt(divisors.rank4_points, self.d16.sigma)
        return out

    def check(self, out: dict) -> Verdict:
        v = Verdict()
        rnd = random.Random(f"{self.name}-{self.seed}")
        for label, sigma in self.general.items():
            if v.op(out[label], label):
                v.problems += [
                    f"{label}: {m}"
                    for m in check_locus_points(sigma, out[label], sigma.n - 4, rnd)
                ]
        pts = out["rank4-n10-p5"]
        if v.op(pts, "rank4-n10-p5"):
            sigma = self.d16.sigma
            v.problems += [
                f"rank4-n10-p5: {m}" for m in check_locus_points(sigma, pts, 4, rnd)
            ]
            planted = oracle.canonical(self.d16.flag[0].basis[0], sigma.p)
            if planted not in set(pts):
                v.problems.append(f"rank4-n10-p5: planted line {planted} not reported")
        return v


def pencil_profile(q_a, q_b, p: int) -> dict[str, int]:
    """Common zeros of two quadrics on P^5 and the rank of their gradients."""
    a, b = np.array(q_a, dtype=np.int64), np.array(q_b, dtype=np.int64)
    pts = oracle.projective_points(5, p)
    va = np.einsum("bi,ij,bj->b", pts, a, pts) % p
    vb = np.einsum("bi,ij,bj->b", pts, b, pts) % p
    hits = pts[(va == 0) & (vb == 0)]
    ga, gb = hits @ a.T % p, hits @ b.T % p
    minors = (ga[:, :, None] * gb[:, None, :] - ga[:, None, :] * gb[:, :, None]) % p
    rank2 = minors.reshape(len(hits), -1).any(axis=1)
    rank0 = ~(ga.any(axis=1) | gb.any(axis=1))
    return {
        "points": len(hits),
        "rank0": int(rank0.sum()),
        "rank1": int((~rank0 & ~rank2).sum()),
        "rank2": int(rank2.sum()),
    }


class U7Chart:
    """The chart P(U7) minus P(V6) for three (sigma, U7) pairs at p = 5."""

    name = "u7-chart"
    P = 5
    PAIRS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Rng(seed).child(self.name)
        self.pairs = []
        for i in range(self.PAIRS):
            samp = checks.sample_d16_nondegenerate(rng.child(f"sigma-{i}"), self.P)
            self.pairs.append((samp, checks.sample_u7(rng.child(f"u7-{i}"), samp.flag)))

    def run_round(self) -> list:
        out = []
        for samp, u7 in self.pairs:
            scan = attempt(fibration.sigma_prime_rank_scan, samp.sigma, samp.flag, u7)
            pencil = attempt(fibration.quadric_pencil, samp.sigma, samp.flag, u7)
            profile = pencil if isinstance(pencil, Failed) else attempt(fibration.fiber_profile, pencil)
            out.append((scan, pencil, profile))
        return out

    def check(self, out: list) -> Verdict:
        v = Verdict()
        rnd = random.Random(f"{self.name}-{self.seed}")
        for i, ((samp, u7), (scan, pencil, profile)) in enumerate(zip(self.pairs, out)):
            tag = f"pair {i}"
            ok_scan = v.op(scan, f"{tag} sigma_prime_rank_scan")
            ok_pencil = v.op(pencil, f"{tag} quadric_pencil")
            ok_profile = v.op(profile, f"{tag} fiber_profile")
            if ok_scan:
                v.problems += [f"{tag}: {m}" for m in self._check_scan(samp, u7, scan, rnd)]
            if ok_scan and ok_pencil:
                v.problems += [f"{tag}: {m}" for m in self._check_containment(samp, u7, scan, pencil)]
            if ok_pencil and ok_profile:
                want = pencil_profile(pencil.q_a, pencil.q_b, self.P)
                if dict(profile) != want:
                    v.problems.append(f"{tag}: fiber profile {dict(profile)}, oracle {want}")
        return v

    def _check_scan(self, samp, u7, scan, rnd) -> list[str]:
        sigma, p = samp.sigma, self.P
        n, coeffs = sigma.n, _coeffs(sigma)
        pts, full, prime = (np.asarray(a, dtype=np.int64) for a in scan)
        problems = []
        if len(pts) != p**6 or len(full) != len(pts) or len(prime) != len(pts):
            problems.append(f"{len(pts)} chart points, expected p^6 = {p**6}")
        ann7 = np.array(oracle.annihilator(u7.basis.tolist(), p), dtype=np.int64)
        ann6 = np.array(oracle.annihilator(samp.flag[1].basis.tolist(), p), dtype=np.int64)
        if (pts @ ann7.T % p).any():
            problems.append("a chart point lies outside U7")
        if not (pts @ ann6.T % p).any(axis=1).all():
            problems.append("a chart point lies in V6")
        if len({oracle.canonical(row, p) for row in pts.tolist()}) != len(pts):
            problems.append("chart points repeat")
        # Lemma 3.8.  The restriction cannot raise the rank, so at a point
        # of full rank below n - 4 (a stray rank-4 point) the restricted
        # rank is below 4 too; "= 4" is required where the rank is n - 4.
        member = full <= n - 4
        bad = int((member != (prime <= 4)).sum()) + int((prime[full == n - 4] != 4).sum())
        if bad:
            problems.append(f"Lemma 3.8 fails at {bad} points")
        others = np.flatnonzero(~member)
        if oracle.rank_at_most_many(oracle.contractions(coeffs, n, p, pts[others]), p, n - 4).any():
            problems.append("a point reported off the locus has rank at most n - 4")
        probe = np.flatnonzero(member).tolist() + rnd.sample(
            others.tolist(), min(CHART_SAMPLES, len(others))
        )
        for i in probe:
            got = oracle.skew_rank(oracle.contraction(coeffs, n, p, pts[i].tolist()), p)
            if got != full[i]:
                problems.append(f"full rank at {pts[i].tolist()} is {got}, reported {full[i]}")
        return problems

    def _check_containment(self, samp, u7, scan, pencil) -> list[str]:
        """Prop. 3.18: every locus point maps to a common zero of the pencil."""
        p = self.P
        pts, full, _ = scan
        qa, qb = pencil.q_a.tolist(), pencil.q_b.tolist()
        bad = 0
        for l in pts[full <= samp.sigma.n - 4]:
            c = [int(x) for x in fibration.quotient_u7_coords(u7, samp.flag[0], l)]
            for q in (qa, qb):
                if sum(c[i] * q[i][j] * c[j] for i in range(6) for j in range(6)) % p:
                    bad += 1
                    break
        return [f"{bad} locus points off the quadric pencil"] if bad else []


def candidate_u8s(sigma: Trivector, flag) -> list[Subspace]:
    """Every isotropic extension U8 of V6, in the order k3_witness_search
    tries them: V6 plus a lift of each Lagrangian plane of omega."""
    p = sigma.p
    v6 = flag[1]
    comp = list(v6.complement_pivots())
    omega = sigma.contract1(flag[0].basis[0]).mat[np.ix_(comp, comp)] % p
    out = []
    for plane in loci.lagrangian_planes(omega, p):
        lift = np.zeros((2, sigma.n), dtype=np.int64)
        lift[:, comp] = plane.basis
        u8 = v6.join(Subspace.from_rows(lift, sigma.n, p))
        if u8.dim == 8:
            out.append(u8)
    return out


class WitnessSearch:
    """K3 membership of every isotropic U8 over a D^{1,6,10} sigma at p = 3,
    and the conic fibre over its first witness.

    The cost of a K3 search depends on sigma's GL-orbit far more than on
    the size of the inputs: how many candidates fail before the first
    witness, and how many points of each U8 pass the inner filter.  So the
    round tests every candidate U8, not only those up to the first witness
    as k3_witness_search does, and the orbit is fixed: the seed draws the
    frame, a uniform element of GL_10(F_3) that moves one fixed sample
    (sigma, flag).  With fresh orbits the work per round (counted as rref
    calls) spread twice as much from seed to seed as over frames of one
    orbit.
    """

    name = "witness-search"
    P = 3
    SIGMAS = 1
    ORBIT_SEED = 20260815

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Rng(seed).child(self.name)
        orbits = Rng(self.ORBIT_SEED).child(self.name)
        self.samples = []
        for i in range(self.SIGMAS):
            base = checks.sample_d16_nondegenerate(orbits.child(f"sigma-{i}"), self.P)
            g = linalg.sample_gl(rng.child(f"frame-{i}"), 10, self.P)
            self.samples.append(
                divisors.DivisorSample(
                    kind=base.kind,
                    sigma=base.sigma.gl_transform(g),
                    flag=base.flag.transform(g),
                    scramble=g @ base.scramble % self.P,
                )
            )

    def run_round(self) -> list:
        out = []
        for samp in self.samples:
            cands = attempt(candidate_u8s, samp.sigma, samp.flag)
            if isinstance(cands, Failed):
                out.append((cands, [], cands))
                continue
            tested = [(u8, attempt(loci.k3_member, samp.sigma, samp.flag, u8)) for u8 in cands]
            first = next(
                ((u8, r[1]) for u8, r in tested if not isinstance(r, Failed) and r[0]), None
            )
            fibre = attempt(loci.conic_fiber, samp.sigma, first[1], first[0]) if first else None
            out.append((cands, tested, fibre))
        return out

    def check(self, out: list) -> Verdict:
        v = Verdict()
        with_witness = 0
        for i, (samp, (cands, tested, fibre)) in enumerate(zip(self.samples, out)):
            tag = f"sigma {i}"
            if not v.op(cands, f"{tag} candidates"):
                continue
            p = self.P
            want = (p * p + 1) * (p + 1)
            if len(cands) != want:
                v.problems.append(f"{tag}: {len(cands)} candidate U8s, expected {want}")
            first = None
            for u8, res in tested:
                if v.op(res, f"{tag} k3_member") and res[0]:
                    v.problems += [f"{tag}: {m}" for m in self._check_member(samp, u8, res[1])]
                    first = first or (u8, res[1])
            found = loci.k3_witness_search(samp.sigma, samp.flag)
            if (found is None) != (first is None) or (
                found and (found[0] != first[0] or found[1] != first[1])
            ):
                v.problems.append(f"{tag}: k3_witness_search disagrees with the first member")
            if first is None:
                continue
            with_witness += 1
            if v.op(fibre, f"{tag} conic_fiber"):
                v.problems += [f"{tag}: {m}" for m in self._check_fibre(samp, *first, fibre)]
        if with_witness < 0.8 * len(self.samples):
            v.problems.append(f"only {with_witness} of {len(self.samples)} sigmas have a witness")
        return v

    def _check_member(self, samp, u8: Subspace, u4: Subspace) -> list[str]:
        sigma, p = samp.sigma, self.P
        n, coeffs = sigma.n, _coeffs(sigma)
        b8, b4 = u8.basis.tolist(), u4.basis.tolist()
        v1 = samp.flag[0].basis[0].tolist()
        problems = []
        if oracle.row_rank(b8, p) != 8 or oracle.row_rank(b4, p) != 4:
            problems.append("witness dimensions are not (8, 4)")
        if not oracle.in_span(v1, b4, p) or not all(oracle.in_span(r, b8, p) for r in b4):
            problems.append("V1 < U4 < U8 fails")
        if not all(oracle.in_span(r, b8, p) for r in samp.flag[1].basis.tolist()):
            problems.append("V6 is not inside U8")
        if not oracle.vanishes_on(coeffs, n, p, [v1], b8, b8):
            problems.append("sigma(v1, U8, U8) != 0")
        if not oracle.vanishes_on(coeffs, n, p, b4, b4, b8):
            problems.append("sigma(U4, U4, U8) != 0")
        return problems

    def _check_fibre(self, samp, u8: Subspace, u4: Subspace, planes) -> list[str]:
        """Each plane T of U8/U4 lifts to a 6-space on which sigma vanishes.

        The plane's coordinates follow conic_fiber: U4 in the coordinates
        of U8's basis, completed by the standard vectors at its non-pivot
        columns.
        """
        sigma, p = samp.sigma, self.P
        n, coeffs = sigma.n, _coeffs(sigma)
        b8 = u8.basis
        comp = list(Subspace.from_rows([u8.coords_of(r) for r in u4.basis], 8, p).complement_pivots())
        problems = []
        if len({tuple(map(tuple, t.basis.tolist())) for t in planes}) != len(planes):
            problems.append("a conic-fibre plane repeats")
        for t in planes:
            lift = np.zeros((2, 8), dtype=np.int64)
            lift[:, comp] = t.basis
            rows = u4.basis.tolist() + (lift @ b8 % p).tolist()
            if oracle.row_rank(rows, p) != 6:
                problems.append(f"plane {t.basis.tolist()} does not give a 6-space")
            elif not oracle.vanishes_on(coeffs, n, p, rows, rows, rows):
                problems.append(f"sigma does not vanish on the 6-space of {t.basis.tolist()}")
        return problems


def split_n6(rng: Rng, p: int) -> Trivector:
    """A general n = 6 trivector whose rank-drop locus is two planes over F_p:
    e012 + e345 moved by a uniform element of GL_6(F_p)."""
    coeffs = np.zeros(20, dtype=np.int64)
    coeffs[triple_index(6)[(0, 1, 2)]] = 1
    coeffs[triple_index(6)[(3, 4, 5)]] = 1
    return Trivector.from_coeffs(coeffs, 6, p).gl_transform(linalg.sample_gl(rng, 6, p))


class SliceLadder:
    """Slice-dimension estimates of four loci of known dimension.

    The rank-drop loci use the ladder of low-dim-peskine (300 trials,
    thresholds 0.45/0.40).  O2 and Sing O2 use 100 and 60 trials at the
    default thresholds: at lem-3.13's 20 trials the level-1 hit frequency
    of O2 at p = 5 (about 0.28) reaches the 0.5 threshold on a few seeds
    in a hundred, which gives 19 unflagged.
    """

    name = "slice-ladder"
    PESKINE = {"trials": 300, "hit_threshold": 0.45, "miss_threshold": 0.40}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Rng(seed).child(self.name)
        n8 = divisors.sample_general(rng.child("n8-p7"), 8, 7)
        n6 = split_n6(rng.child("n6-p11"), 11)
        # label -> (predicate, known dimension, estimator keywords)
        self.cases = {
            "n8-p7": (checks.peskine_predicate(n8), 4, self.PESKINE),
            "n6-p11": (checks.peskine_predicate(n6), 2, self.PESKINE),
            "o2-p5": (checks.o2_predicate(5), 18, {"trials": 100}),
            "o2-p7": (checks.o2_predicate(7), 18, {"trials": 100}),
            "sing-o2-p5": (checks.sing_o2_predicate(5), 15, {"trials": 60}),
            "sing-o2-p7": (checks.sing_o2_predicate(7), 15, {"trials": 60}),
        }
        self.rngs = {label: rng.child(f"slice-{label}") for label in self.cases}

    def run_round(self) -> dict:
        return {
            label: attempt(estimators.slice_dim_estimate, pred, self.rngs[label], **kw)
            for label, (pred, _, kw) in self.cases.items()
        }

    def check(self, out: dict) -> Verdict:
        """Right, or flagged ambiguous; an unflagged wrong value is a failed operation."""
        v = Verdict()
        for label, (pred, want, kw) in self.cases.items():
            est = out[label]
            if not v.op(est, label):
                continue
            levels = sorted(est.hit_profile)
            if levels != list(range(len(levels))) or any(
                not 0 <= h <= kw["trials"] for h in est.hit_profile.values()
            ):
                v.problems.append(f"{label}: malformed hit profile {est.hit_profile}")
            if est.ambiguous:
                v.notes.append(f"{label}: flagged ambiguous at {est.estimated_dim}")
            elif est.estimated_dim != want:
                v.failed += 1
                v.notes.append(f"{label}: estimated {est.estimated_dim} unflagged, known {want}")
        return v

    def counters(self, out: dict) -> dict[str, float]:
        """Slice points tested and nonempty slices per slice drawn."""
        tested = slices = nonempty = 0
        for label, (pred, _, kw) in self.cases.items():
            est = out[label]
            if isinstance(est, Failed):
                continue
            for d, hits in est.hit_profile.items():
                tested += kw["trials"] * pred.p**d
                slices += kw["trials"]
                nonempty += hits
        return {
            "estimators.points_tested": tested,
            "estimators.nonempty_ratio": nonempty / slices if slices else 0.0,
        }


class Workload:
    """Parts that run one after another in every round.

    Two parts share a workload, and so a run, so that each run spans twice
    the machine time a part alone could have: the machine's speed drifts
    over tens of seconds, and a longer run averages more of that drift.
    """

    name = ""
    PARTS: tuple = ()

    def __init__(self, seed: int) -> None:
        self.parts = [part(seed) for part in self.PARTS]

    def run_round(self) -> list:
        return [part.run_round() for part in self.parts]

    def check(self, out: list) -> Verdict:
        v = Verdict()
        for part, part_out in zip(self.parts, out):
            pv = part.check(part_out)
            v.ops += pv.ops
            v.failed += pv.failed
            v.problems += [f"{part.name}: {m}" for m in pv.problems]
            v.notes += [f"{part.name}: {m}" for m in pv.notes]
        return v

    def counters(self, out: list) -> dict[str, float]:
        figures = {"estimators.points_tested": 0, "estimators.nonempty_ratio": 0.0}
        for part, part_out in zip(self.parts, out):
            if isinstance(part, SliceLadder):
                figures.update(part.counters(part_out))
        return figures


class BatchedScan(Workload):
    """The batched kernels on 32k-point chunks and on thousands of small batches."""

    name = "batched-scan"
    PARTS = (ProjectiveEnum, SliceLadder)


class SubspaceSearch(Workload):
    """Per-point Subspace calls and scalar rref on tiny matrices."""

    name = "subspace-search"
    PARTS = (U7Chart, WitnessSearch)


WORKLOADS = {w.name: w for w in (BatchedScan, SubspaceSearch)}
