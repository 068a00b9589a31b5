"""Fibration machinery over a (V1, V6) divisor flag.

Everything here lives downstream of one two-form: for a trivector with
sigma(v1, V6, .) = 0 the contraction at v1 descends to omega on V10/V6.
For a 7-space U7 = V6 + <d>, its perp U7perp = ker sigma(v1, U7, .) is
the preimage of <d>-perp under omega, a 9-space containing U7 whenever d
is off omega's radical; it drives four constructions:

  * sigma_prime_rank_scan: over the chart P(U7) minus P(V6), the rank of
    sigma(l, ., .), at most n - 2 since l lies in its kernel, and of its
    restriction to U7-perp, at most 6 since the independent l and v1 lie
    in its radical (4 detects the rank-drop locus).
  * sigma_dprime: a 20-coordinate residue of sigma at a flagged pair
    U2 inside U7, landing in the orbit-model space of `orbits`.
    Lemma: its mod-A2 rank is the rank of sigma(u0, ., .) on U7, in any
    basis.  Write U7 = V6 + <d>: sigma(v1, V6, .) = 0 and
    sigma(v1, d, d) = 0 give sigma(v1, U7, U7) = 0, so U2 = <v1, u0> lies
    in the radical of that form, and the mod-A2 block is the form on
    U7/U2 in the frame's last five rows.
  * quadric_pencil: two quotient-Pfaffian quadrics on P(U7/V1) whose
    common zeros catch the images of rank-drop points.
  * thm21_fiber: the fiber of the projection-from-V3 construction,
    computable both exhaustively and by an affine-linear solve.

Every restricted family of forms sigma(x, ., .) on a subspace, and every
value of sigma these constructions read, is one `Trivector.values` table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import linalg
from .orbits import BElement, project_to_B
from .scan import (
    affine_image_chunks,
    batched_rank,
    family_quotient_pfaffian,
    family_ranks,
    projective_chunks,
    rank_drop_mask,
    run_chunked,
)
from .subspaces import Flag, Subspace, complement_rows
from .trivector import SkewForm, Trivector, triple_index, triples

logger = logging.getLogger(__name__)


def omega_data(sigma: Trivector, flag: Flag) -> SkewForm:
    """omega = sigma(v1, ., .) on V10/V6, in the canonical complement of V6.

    Index i of omega stands for the standard basis vector at V6's i-th
    non-pivot column.  The form is well defined as sigma(v1, V6, .) = 0,
    and `u7_perp` is the preimage of an omega-perp.  Raises when the form
    is degenerate (the caller should resample sigma).
    """
    comp = np.eye(sigma.n, dtype=np.int64)[list(flag[1].complement_pivots())]
    form = SkewForm.from_matrix(sigma.values(flag[0].basis, comp, comp)[0], sigma.p)
    if form.rank() != 4:
        raise ValueError("descended two-form is degenerate; resample sigma")
    return form


def u7_perp(sigma: Trivector, flag: Flag, u7: Subspace) -> Subspace:
    """U7perp = ker sigma(v1, U7, .), the 9-space of x with sigma(v1, U7, x) = 0.

    One kernel of the 7 x n table of sigma(v1, u, .) over the basis of U7.
    Since sigma(v1, V6, .) = 0, only U7's direction d off V6 gives a nonzero
    row, so the kernel is the preimage under V10 -> V10/V6 of the
    omega-perp of d's class: 9-dimensional exactly when that class is off
    omega's radical, which it always is for a nondegenerate omega.
    """
    v1, v6 = flag
    if u7.dim != 7 or not u7.contains(v6):
        raise ValueError("need a 7-dim space containing the divisor 6-space")
    n, p = sigma.n, sigma.p
    table = sigma.values(v1.basis, u7.basis, np.eye(n, dtype=np.int64))[0]
    out = Subspace.from_rows(linalg.kernel(table, p), n, p)
    if out.dim != 9:
        raise ValueError("U7/V6 lies in the radical of omega; U7perp is not 9-dimensional")
    return out


def u7_chart(flag: Flag, u7: Subspace) -> Iterator[np.ndarray]:
    """P(U7) minus P(V6) as the affine chart d + V6, in blocks of points.

    The p^6 representatives d + t b6, with d the canonical complement row
    of V6 = <b6> in U7 and t in `affine_image_chunks` counter order.
    """
    v6 = flag[1]
    return affine_image_chunks(v6.basis, complement_rows(u7, v6)[0], v6.p)


def sigma_prime_rank_scan(
    sigma: Trivector,
    flag: Flag,
    u7: Subspace,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sweep of P(U7) minus P(V6) over `u7_chart`.

    Returns (points, full_ranks, prime_ranks): the chart's points, the
    rank of sigma(l, ., .) on the whole space, and the rank of its
    restriction to U7perp (equal to the quotient rank).

    Both forms are linear in the point l, so each rank comes from
    `family_ranks` over one family in point coordinates: sigma's tensor
    and sigma(., U7perp, U7perp).  The full rank is at most n - 2 (l lies
    in the kernel) and the restricted one at most 6 (l and v1 lie in its
    radical), and these are exactly the caps of the bounds n - 4 and 4,
    so both ranks are exact.
    """
    p, n = sigma.p, sigma.n
    b9 = u7_perp(sigma, flag, u7).basis
    full = sigma.tensor.reshape(n, n * n)
    restricted = sigma.values(np.eye(n, dtype=np.int64), b9, b9).reshape(n, -1)

    def work(block: np.ndarray):
        return block, family_ranks(full, block, n - 4, p), family_ranks(restricted, block, 4, p)

    parts = run_chunked(work, u7_chart(flag, u7), threads)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def thm21_fiber(
    sigma: Trivector,
    flag: Flag,
    v4: Subspace,
    mode: str = "exhaustive",
) -> list[tuple[int, ...]]:
    """Points of the affine chart P(V4) minus P(V3) on the rank-drop locus.

    Writes l = v + a1 w1 + a2 w2 + a3 w3 with (w_i) the canonical basis of
    V3 and v the canonical completion; returns the sorted list of hits a.

    exhaustive mode scans all p^3 points of the chart; linear mode mirrors
    the projection argument: the annihilator V7 of the three constant
    forms sigma(v, w_i, .) is independent of a, and the rank condition
    becomes three affine-linear equations on the complement of V4 in V7.
    """
    p = sigma.p
    v3 = flag[0]
    if v4.dim != 4 or not v4.contains(v3):
        raise ValueError("need a 4-space containing the flagged 3-space")
    comp = complement_rows(v4, v3)
    if len(comp) != 1:
        raise AssertionError("complement of V3 in V4 must be a single row")
    v = comp[0]
    w = v3.basis
    phis = sigma.values(v, w, np.eye(sigma.n, dtype=np.int64))[0]
    if linalg.rank(phis, p) != 3:
        raise ValueError("contraction forms are dependent; resample V4")

    if mode == "exhaustive":
        if p > 11:
            raise ValueError("exhaustive fiber scan is for enumeration primes")
        # Rows (a, v + a @ w): the chart coordinates, then the point.
        coords = np.hstack([np.eye(4, 3, dtype=np.int64), np.vstack([w, v])])
        rows = np.concatenate(list(affine_image_chunks(coords[:3], coords[3], p)))
        hits = rows[rank_drop_mask(sigma, rows[:, 3:], sigma.n - 4), :3]
        return sorted(tuple(int(x) for x in row) for row in hits)
    if mode != "linear":
        raise ValueError(f"unknown mode {mode!r}")

    v7 = Subspace.from_rows(linalg.kernel(phis, p), sigma.n, p)
    if v7.dim != 7 or not v7.contains(v4):
        raise ValueError("annihilator construction failed; resample V4")
    b = np.array(complement_rows(v7, v4), dtype=np.int64)
    # Row (r, s) of the system: sigma(v + a @ w, b_r, b_s) = 0.
    vals = sigma.values(np.vstack([w, v]), b, b)[:, [0, 0, 1], [1, 2, 2]]
    a_mat, c_vec = vals[:3].T, vals[3]
    try:
        particular = linalg.solve(a_mat, (-c_vec) % p, p)
    except ValueError:
        return []
    hom = linalg.kernel(a_mat, p)
    if len(hom) == 0:
        return [tuple(int(x) for x in particular)]
    if p ** len(hom) > 200_000:
        raise ValueError("fiber is positive-dimensional beyond the enumeration cap")
    sols = np.concatenate(list(affine_image_chunks(hom, particular, p)))
    return sorted(tuple(int(x) for x in row) for row in sols)


def sigma_dprime(
    sigma: Trivector,
    flag: Flag,
    u2: Subspace,
    u7: Subspace,
    frame: np.ndarray,
    generator: np.ndarray,
) -> BElement:
    """The 20-coordinate residue of sigma at V1 < U2 < U7.

    The ambient 7-space is U7perp/U2 with frame order (two directions off
    U7, then five directions of U7 off U2); the model quotient kills the
    wedge of the first two, matching `orbits`.  Entries are
    sigma(u0, frame_i, frame_j) for the generator u0 of U2 off V1;
    rescaling u0 rescales the output.  Entries are independent of
    U2-shifts of the frame rows.  Frame and generator are required.
    """
    p = sigma.p
    v1 = flag[0]
    if u2.dim != 2 or not u2.contains(v1) or not u7.contains(u2):
        raise ValueError("need V1 < U2 < U7 with dim U2 = 2")
    frame = linalg.as_field(frame, p)
    if frame.shape != (7, sigma.n):
        raise ValueError("frame must provide seven ambient rows")
    if sigma.values(v1.basis, u7.basis, frame).any():
        raise ValueError("frame rows must lie in U7perp")
    if u7.join(Subspace.from_rows(frame[:2], sigma.n, p)).dim != 9:
        raise ValueError("first two frame rows must span the off-U7 part")
    for r in frame[2:]:
        if not u7.contains_vector(r):
            raise ValueError("last five frame rows must lie in U7")
    if u2.join(Subspace.from_rows(frame[2:], sigma.n, p)).dim != 7:
        raise ValueError("last five frame rows must complement U2 in U7")
    generator = linalg.as_field(generator, p).reshape(-1)
    if not u2.contains_vector(generator) or v1.contains_vector(generator):
        raise ValueError("generator must lie in U2 off V1")
    return project_to_B(sigma.values(generator, frame, frame)[0], p)


def prescribed_dprime_sigma(
    xmat: np.ndarray, p: int
) -> tuple[Trivector, Flag, Subspace, Subspace, np.ndarray, np.ndarray]:
    """Build the explicit generating section hitting a prescribed residue.

    xmat is a 7x7 skew matrix over F_p, read against the frame directions
    (7, 8, 2, 3, 4, 5, 6) of the standard basis e_0..e_9.  Returns
    (sigma, flag, U2, U7, frame, generator) in standard position:
    V1 = <e1>, V6 = <e1..e6>, U2 = <e0, e1>, U7 = <e0..e6>; the residue of
    sigma at this configuration is exactly project_to_B(xmat).
    """
    xmat = linalg.as_field(xmat, p)
    if xmat.shape != (7, 7) or ((xmat + xmat.T) % p).any():
        raise ValueError("need a skew 7x7 target matrix")
    n = 10
    dirs = (7, 8, 2, 3, 4, 5, 6)
    index = triple_index(n)
    coeffs = np.zeros(len(triples(n)), dtype=np.int64)
    coeffs[index[(0, 1, 9)]] = (-1) % p
    coeffs[index[(1, 7, 8)]] = 1
    for i in range(7):
        for j in range(i + 1, 7):
            val = int(xmat[i, j])
            if not val:
                continue
            a, bb = dirs[i], dirs[j]
            sign = 1
            if a > bb:
                a, bb, sign = bb, a, -1
            coeffs[index[(0, a, bb)]] = (coeffs[index[(0, a, bb)]] + sign * val) % p
    sigma = Trivector.from_coeffs(coeffs, n, p)

    eye = np.eye(n, dtype=np.int64)
    v1, v6, u2, u7 = (
        Subspace.from_rows(eye[rows], n, p) for rows in ([1], [1, 2, 3, 4, 5, 6], [0, 1], list(range(7)))
    )
    flag = Flag((v1, v6))
    frame, generator = eye[list(dirs)], eye[0]
    return sigma, flag, u2, u7, frame, generator


@dataclass(frozen=True)
class QuadricPencil:
    """Two quotient-Pfaffian quadrics on P(U7/V1)."""

    p: int
    q_a: np.ndarray = field(compare=False)
    q_b: np.ndarray = field(compare=False)
    degenerate: bool

    def value_at(self, c):
        """(Q_A(c), Q_B(c)) over the last axis: at one vector, or arrays over a (B, 6) batch."""
        p = self.p
        c = linalg.as_field(c, p)
        return tuple((linalg.mat_mul(c, q, p) * c % p).sum(axis=-1) % p for q in (self.q_a, self.q_b))

    def member_rank(self, alpha: int, beta: int) -> int:
        mixed = (alpha * self.q_a + beta * self.q_b) % self.p
        return linalg.rank(mixed, self.p)


def quadric_pencil(sigma: Trivector, flag: Flag, u7: Subspace) -> QuadricPencil:
    """The two Pfaffian quadrics attached to U7.

    For each of the two canonical directions extending U7 inside its perp
    9-space, the value at [u] in P(U7/V1) is the Pfaffian of sigma(u, ., .)
    on the 8-space W8 = U7 + direction, taken modulo the radical pair
    (u, v1).  That value is a homogeneous quadratic in the quotient
    coordinates c of u = c @ lift: `family_quotient_pfaffian` of the forms
    on W8 at the lift rows, with the pair in W8-coordinates (the rref
    basis of W8 reads a vector's coordinates off its pivot columns).
    """
    p = sigma.p
    dirs = complement_rows(u7_perp(sigma, flag, u7), u7)
    if len(dirs) != 2:
        raise AssertionError("perp extension must add exactly two directions")
    lift_rows = np.array(complement_rows(u7, flag[0]), dtype=np.int64)
    inv2 = linalg.inv_mod(2, p)

    quadrics = []
    for direction in dirs:
        w8 = u7.join(Subspace.span_of(direction, n=sigma.n, p=p))
        family = sigma.values(lift_rows, w8.basis, w8.basis).reshape(len(lift_rows), -1)
        xs = lift_rows[:, list(w8.pivots)]
        form = family_quotient_pfaffian(family, xs, w8.coords_of(flag[0].basis[0]), p)
        q = np.zeros((6, 6), dtype=np.int64)
        for (i, j), c in form.terms:
            q[i, j] = q[j, i] = c if i == j else c * inv2 % p
        quadrics.append(q)
    q_a, q_b = quadrics
    degenerate = not (q_a.any() or q_b.any())
    if degenerate:
        logger.warning("both quadrics vanished identically; degenerate pencil")
    return QuadricPencil(p=p, q_a=q_a, q_b=q_b, degenerate=degenerate)


def quotient_u7_coords(u7: Subspace, v1: Subspace, vec) -> np.ndarray:
    """Coordinates of vec in the canonical basis of U7/V1.

    `vec` is one vector or a (B, n) batch, one row of coordinates each.
    The basis of V1 followed by the canonical complement rows is A times
    the rref basis of U7, so its pivot columns are the invertible A and
    the coordinates are vec[pivots] A^-1.
    """
    p = u7.p
    stacked = np.vstack([v1.basis, np.array(complement_rows(u7, v1), dtype=np.int64)])
    pivots = list(u7.pivots)
    vecs = linalg.as_field(vec, p)
    coords = linalg.mat_mul(vecs[..., pivots], linalg.inverse(stacked[:, pivots], p), p)
    if not np.array_equal(linalg.mat_mul(coords, stacked, p), vecs):
        raise ValueError("vector does not lie in U7")
    return coords[..., v1.dim :]


def fiber_profile(pencil: QuadricPencil) -> dict[str, int]:
    """Scan P5 for common zeros of the pencil and their gradient ranks."""
    p = pencil.p
    sizes = {"points": 0, "rank0": 0, "rank1": 0, "rank2": 0}
    for block in projective_chunks(5, p):
        va, vb = pencil.value_at(block)
        hits = block[(va == 0) & (vb == 0)]
        if not len(hits):
            continue
        grads = np.stack([linalg.mat_mul(hits, q, p) for q in (pencil.q_a, pencil.q_b)], axis=1)
        ranks = batched_rank(grads, p)
        sizes["points"] += len(hits)
        for r in (0, 1, 2):
            sizes[f"rank{r}"] += int((ranks == r).sum())
    return sizes


@dataclass(frozen=True)
class LineProbe:
    """Outcome of the pencil-line probe at one locus point."""

    count: int
    off_v6_degenerate: int
    v1_degenerate: bool


def birationality_probe(
    sigma: Trivector,
    flag: Flag,
    l,
    u7: Subspace | None = None,
) -> LineProbe:
    """Count the sigma'-degenerate points on the line P(U2) through [v1], [l].

    The p points l + t v1 off the divisor are tested through the rank of
    sigma(l + t v1, ., .) restricted to U7perp (the quotient rank of
    Lemma 3.8) dropping below the generic value 6 (a closed condition:
    on a line fully inside the locus, isolated points fall to rank 2
    while the rest sit at rank 4, and both belong).  The point [v1] itself
    is counted via the residue criterion: its mod-A2 rank dropping to 2
    or below is exactly the case where the whole line sits in the locus.
    By the module docstring's lemma that rank is the rank of
    sigma(l, ., .) on U7, which must contain U2 = <v1, l>.
    """
    p = sigma.p
    l = linalg.as_field(l, p).reshape(-1)
    v1, v6 = flag
    u2 = v1.join(Subspace.span_of(l, n=sigma.n, p=p))
    if u2.dim != 2:
        raise ValueError("probe point coincides with the flagged line")
    if u7 is None:
        u7 = v6.join(Subspace.span_of(l, n=sigma.n, p=p))
    elif not u7.contains(u2):
        raise ValueError("need V1 < U2 < U7 with dim U2 = 2")
    b9 = u7_perp(sigma, flag, u7).basis
    # The restricted forms along the line, linear in (t, 1).
    ends = np.vstack([v1.basis[0], l])
    family = sigma.values(ends, b9, b9).reshape(2, -1)
    line = np.column_stack([np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)])
    off = int((family_ranks(family, line, 4, p) <= 4).sum())
    v1_deg = linalg.rank(sigma.values(l, u7.basis, u7.basis)[0], p) <= 2
    return LineProbe(count=off + int(v1_deg), off_v6_degenerate=off, v1_degenerate=v1_deg)


def dprime_rank2_test(sigma: Trivector, flag: Flag):
    """Batch predicate on the 8-coordinate chart of pairs U2 < U7.

    Chart: t in F^3 picks U7 = V6 + <c0 + t1 c1 + t2 c2 + t3 c3> through
    the canonical complement directions of V6; s in F^5 picks the U2
    generator u0 through the canonical complement of V1 in U7.  Tests
    whether the residue's mod-A2 rank is at most 2: by the module
    docstring's lemma, the rank of sigma(u0, ., .) on U7.
    """
    p = sigma.p
    v1, v6 = flag

    def test_batch(points: np.ndarray) -> np.ndarray:
        forms = np.zeros((len(points), 7, 7), dtype=np.int64)
        for idx, row in enumerate(points):
            direction = v6.lift_quotient(np.concatenate([[1], row[:3]]))
            u7 = v6.join(Subspace.span_of(direction, n=sigma.n, p=p))
            rows = np.array(complement_rows(u7, v1), dtype=np.int64)
            gen = (rows[0] + linalg.mat_mul(row[3:], rows[1:], p)) % p
            forms[idx] = sigma.values(gen, u7.basis, u7.basis)[0]
        return batched_rank(forms, p) <= 2

    return test_batch
