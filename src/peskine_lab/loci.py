"""Membership predicates and finite constructions for the degeneracy loci.

The central locus is the set of points [u] where the contraction
sigma(u, ., .) drops rank to n - 4; around it live the isotropic-6-space
locus, the quotient-Pfaffian cubic on P(V6) expanded symbolically,
an 8-space membership test with an exhaustive inner search for isotropic
3-spaces, and the plane fibers sitting over its witnesses.  Every
vanishing condition of sigma on subspaces here is one `Trivector.values`
table.  The inner search splits its candidate points by rank: a rank-4
point has one candidate 3-space, its kernel, decided from the signed
4 x 4 Pfaffians (the kernel's Pluecker vector) by one product for all
such points; the rare rank <= 2 points and the conic fibres search the
cached `plane_table`s.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg, scan
from .fibration import omega_data
from .polynomial import Poly, monomials_of_degree, slice_monomials
from .subspaces import Flag, Subspace, plane_table
from .trivector import Trivector


def peskine_member(sigma: Trivector, u) -> bool:
    """True iff the contraction at u has rank at most n - 4."""
    u = linalg.as_field(u, sigma.p).reshape(-1)
    if not u.any():
        raise ValueError("membership needs a nonzero vector")
    return sigma.contract1(u).rank() <= sigma.n - 4


def peskine_points(sigma: Trivector, threads: int | None = None) -> list[tuple[int, ...]]:
    """Canonical representatives of the rank-drop locus in P(F_p^n).

    Exact and deterministic (`scan.locus_points`); meant for the enumeration prime tier.
    """
    return scan.locus_points(sigma, sigma.n - 4, threads)


def dv_member(sigma: Trivector, u6: Subspace) -> bool:
    """True iff sigma vanishes identically on the 6-space."""
    if u6.dim != 6:
        raise ValueError(f"expected a 6-dimensional subspace, got dim {u6.dim}")
    return not sigma.values(u6.basis, u6.basis, u6.basis).any()


def cubic_from_pfaffian(sigma: Trivector, flag: Flag) -> Poly:
    """The quotient-Pfaffian cubic on P(V6).

    For u in V6 off the distinguished line, sigma(u, ., .) has both u and
    v1 in its radical, so the quotient Pfaffian is a well-defined scalar;
    as a function of the V6-coordinates c of u it is a cubic.  It is
    `scan.family_quotient_pfaffian` of the contractions at the rows of
    the V6 basis, with the radical pair (c @ b6, v1).
    """
    if flag[0].dim != 1 or flag[1].dim != 6:
        raise ValueError("need a (1, 6) flag")
    p, n = sigma.p, sigma.n
    b6 = flag[1].basis
    family = linalg.mat_mul(b6, sigma.tensor.reshape(n, n * n), p)
    return scan.family_quotient_pfaffian(family, b6, flag[0].basis[0], p)


# Point-plane pairs per block of the K3 plane search (7 x 7 values each).
_PLANE_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _p6_points(p: int) -> np.ndarray:
    """The canonical representatives of P^6(F_p), in `projective_chunks` order."""
    return linalg.freeze(np.vstack(list(scan.projective_chunks(6, p))))


def check_search_prime(p: int) -> int:
    if p not in (3, 5):
        raise linalg.UnsupportedPrime("the exhaustive inner search is limited to p in {3, 5}")
    return p


@lru_cache(maxsize=None)
def _plucker_odd() -> np.ndarray:
    """Whether sgn(C, D) = -1, for C in combinations(range(7), 3) and D its
    complement: the permutation C + D of range(7) has sum(C) - 3 inversions."""
    return np.array([sum(c) % 2 == 0 for c in combinations(range(7), 3)])


def _kernel_plucker(forms: np.ndarray, p: int) -> np.ndarray:
    """(B, 35) signed 4 x 4 Pfaffians of a batch of reduced 7 x 7 skew forms:
    entry C is sgn(C, D) Pf(form on D), D the complement of C.  At rank 4 a
    Pluecker vector of the kernel, over combinations(range(7), 3); zero at
    rank <= 2 (see `k3_member`).  The complements of the 3-subsets in
    lexicographic order are the 4-subsets in reverse lexicographic order."""
    pf = scan.batched_pfaffian_minors(forms, p, combinations(range(7), 4))[:, ::-1]
    return np.where(_plucker_odd(), (p - pf) % p, pf)


def _isotropy_map(tau: np.ndarray, p: int) -> np.ndarray:
    """(35, 49) transpose of L_tau: row C = {i, a, b}, column (i, e) holds sgn(i, a, b) tau[a, b, e]."""
    x, y, z = np.array(list(combinations(range(7), 3))).T
    k = np.arange(35)
    out = np.zeros((35, 7, 7), dtype=np.int64)
    out[k, x], out[k, y], out[k, z] = tau[y, z], (p - tau[x, z]) % p, tau[x, y]
    return out.reshape(35, 49)


def _first_isotropic_plane(t1s: np.ndarray, forms: np.ndarray, skew: np.ndarray, p: int) -> np.ndarray | None:
    """The 3 x 7 rows of t1 and a plane of A(t1)/t1 on which the family
    `skew` vanishes, for the first point t1 of `t1s` that has one, or None.

    `forms` are the forms of the points, A(t1) their kernels, from one
    `scan.batched_kernel`; the planes of A(t1)/t1 are the rows of the
    `plane_table` of dim A(t1) - 1, and the first isotropic one in
    `all_subspaces` order is taken.
    """
    kers, kdims = scan.batched_kernel(forms, p)
    # complement_rows(A(t1), <t1>) keeps every rref row of A(t1) but the
    # last one whose pivot coordinate of t1 is nonzero.
    on_t1 = np.take_along_axis(t1s, (kers != 0).argmax(axis=2), axis=1) != 0
    on_t1 &= np.arange(7) < kdims[:, None]
    drop = 6 - on_t1[:, ::-1].argmax(axis=1)
    keep = np.arange(6) + (np.arange(6) >= drop[:, None])
    comp_rows = np.take_along_axis(kers, keep[:, :, None], axis=1)

    # first[i]: index of the first isotropic plane of point i, or -1.  The
    # points of one dimension m of A(t1)/t1 share a plane table and are
    # tested in blocks, up to the first block with a hit.
    first = np.full(len(t1s), -1)
    for kdim in sorted(set(kdims.tolist())):
        m = kdim - 1
        group = np.flatnonzero(kdims == kdim)
        table = plane_table(m, p)
        step = max(1, _PLANE_BLOCK // len(table))
        for start in range(0, len(group), step):
            block = group[start : start + step]
            rows = comp_rows[block, :m].transpose(1, 0, 2)
            left = linalg.mat_mul(rows.reshape(-1, 7), skew, p).reshape(m, -1)
            left = linalg.mat_mul(table[:, 0], left, p).reshape(len(table), -1, 7, 7)
            right = linalg.mat_mul(table[:, 1], rows.reshape(m, -1), p).reshape(len(table), -1, 7)
            iso = ~((left * right[:, :, None]).sum(axis=3) % p).any(axis=2).T
            first[block] = np.where(iso.any(axis=1), iso.argmax(axis=1), -1)
            if iso.any():
                break
    hits = np.flatnonzero(first >= 0)
    if not len(hits):
        return None
    i = hits[0]
    m = kdims[i] - 1
    plane = linalg.mat_mul(plane_table(m, p)[first[i]], comp_rows[i, :m], p)
    return np.vstack([t1s[i], plane])


def k3_member(sigma: Trivector, flag: Flag, u8: Subspace) -> tuple[bool, Subspace | None]:
    """Two-condition membership for an 8-space over the (V1, V6) flag.

    (a) sigma(v1, ., .) vanishes on u8;
    (b) some 3-dim subspace T of u8/V1 satisfies sigma(T, T, u8) = 0.
    Returns (True, U4) with U4 = V1 + lift(T) when both hold.

    The search for T is exhaustive over Gr(3, 7)(F_p), pruned: a valid T
    lies in the annihilator A(t) = {w : sigma(t, w, u8) = 0} of each of
    its points t, so it is t1 plus a plane of A(t1)/t1 for a t1 with
    dim A(t1) >= 3.  By (a), the table sigma(t, w, u8) in the basis
    (v1, c) of u8, c the complement of v1, is the 7 x 7 skew form
    omega = tau(t, ., .), tau = sigma(c, c, c) one `values` table, plus a
    zero row, with the same kernel A(t); and T is isotropic iff tau
    vanishes on T x T x F_p^7.  The points t1 are the rank <= 4 points of
    omega: one `scan.cascade_survivors` pass over the cached P^6 list,
    then the seven principal 6 x 6 Pfaffians of each survivor, which all
    vanish exactly when its rank is <= 4.

    Lemma.  For C in combinations(range(7), 3), D its complement and
    sgn(C, D) the sign of the permutation C + D of range(7), let
    P_C = sgn(C, D) Pf(omega_D), omega_D the principal minor on D
    (`_kernel_plucker`).  Then P = 0 iff rank omega <= 2, and at rank 4
    P is the Pluecker vector of ker omega (the 3 x 3 minors of a basis,
    on the columns C) up to a nonzero scalar.  Proof: omega ^ omega / 2
    has coordinate Pf(omega_D) at e_D.  It is zero at rank <= 2, and at
    rank 4 it is f1 ^ f2 ^ f3 ^ f4 for a basis f of the row space; its
    Hodge dual, with coordinate sgn(C, D) Pf(omega_D) at e_C, spans the
    common kernel of the f, which is ker omega.

    So at a rank-4 point T = A(t1) is the only candidate (the forms are
    skew, so t1 lies in A(t1)), and T = <x, y, z> is isotropic iff each
    2-form beta_e = tau(., ., e) contracts x ^ y ^ z to zero: the
    contraction is beta_e(y, z) x - beta_e(x, z) y + beta_e(x, y) z, zero
    iff beta_e vanishes on T.  In coordinates that is L_tau P = 0, with
    L_tau the 49 x 35 map whose entry ((i, e), C) is
    sgn(i, a, b) tau[a, b, e] for C = {i, a, b} (`_isotropy_map`): one
    `linalg.mat_mul` for all rank-4 points.  The rank <= 2 points (P = 0)
    before the first rank-4 hit keep the plane search
    (`_first_isotropic_plane`).  The witness is the first point in
    canonical order with an isotropic T, at rank <= 2 with its first
    isotropic plane in `all_subspaces` order, at rank 4 with T read from
    one `linalg.kernel` of its form.  Practical only at p in {3, 5}.
    """
    p = check_search_prime(sigma.p)
    if u8.dim != 8:
        raise ValueError(f"expected an 8-dimensional subspace, got dim {u8.dim}")
    if not u8.contains(flag[1]):
        raise ValueError("the 8-space must contain V6")
    v1 = flag[0].basis[0]
    b8 = u8.basis

    if sigma.values(v1, b8, b8).any():
        return (False, None)

    v1c = u8.coords_of(v1)
    comp = list(Subspace.from_rows(v1c, 8, p).complement_pivots())
    c = b8[comp]  # the complement of v1 in u8
    tau = sigma.values(c, c, c)
    skew = tau.reshape(7, 49)

    reps = _p6_points(p)
    alive = scan.cascade_survivors(skew, reps, 4, p)
    forms = linalg.mat_mul(reps[alive], skew, p).reshape(-1, 7, 7)
    low = ~scan.batched_pfaffian_minors(forms, p, combinations(range(7), 6)).any(axis=1)
    t1s, forms = reps[alive[low]], forms[low]
    plucker = _kernel_plucker(forms, p)
    rank4 = plucker.any(axis=1)
    iso = rank4 & ~linalg.mat_mul(plucker, _isotropy_map(tau, p), p).any(axis=1)
    stop = int(iso.argmax()) if iso.any() else len(iso)  # the first rank-4 hit
    small = np.flatnonzero(~rank4[:stop])
    t_rows = _first_isotropic_plane(t1s[small], forms[small], skew, p) if len(small) else None
    if t_rows is None:
        if stop == len(iso):
            return (False, None)
        t_rows = linalg.kernel(forms[stop], p)
    lift = np.zeros((3, 8), dtype=np.int64)
    lift[:, comp] = t_rows
    u4_rows = np.vstack([v1c[None, :], lift])
    return (True, Subspace.from_rows(linalg.mat_mul(u4_rows, b8, p), sigma.n, p))


def lagrangian_planes(omega: np.ndarray, p: int) -> list[Subspace]:
    """All omega-isotropic 2-planes of F_p^4 for a nondegenerate skew form."""
    table = plane_table(4, p)
    vals = (linalg.mat_mul(table[:, 0], omega, p) * table[:, 1] % p).sum(axis=1) % p
    return [Subspace.from_rows(basis, 4, p) for basis in table[vals == 0]]


def k3_witness_search(sigma: Trivector, flag: Flag) -> tuple[Subspace, Subspace] | None:
    """Scan all isotropic extensions U8 of V6 for a k3_member witness.

    Returns (U8, U4) for the first hit in canonical order, or None.
    """
    p = check_search_prime(sigma.p)
    v6 = flag[1]
    comp = list(v6.complement_pivots())
    for plane in lagrangian_planes(omega_data(sigma, flag).mat, p):
        lift = np.zeros((2, sigma.n), dtype=np.int64)
        lift[:, comp] = plane.basis
        u8 = v6.join(Subspace.from_rows(lift, sigma.n, p))
        ok, u4 = k3_member(sigma, flag, u8)
        if ok:
            return (u8, u4)
    return None


def conic_fiber(sigma: Trivector, v4: Subspace, v8: Subspace) -> list[Subspace]:
    """Planes T of v8/v4 with sigma vanishing on v4 + lift(T).

    Exhausts all (p^2+1)(p^2+p+1) planes of the 4-dim quotient, in
    `all_subspaces` order; a smooth plane conic over F_p has exactly p+1
    points, which is the expected cardinality.  With L = lift(T), sigma
    vanishes on v4 + L iff sigma(v4, v4, v4), sigma(v4, v4, L) and
    sigma(v4, L, L) do (sigma(L, L, L) = 0 on a plane): one
    `Trivector.values` table on a basis of v8 through v4, then one linear
    and one bilinear test over the rows of the `plane_table`.
    """
    if v4.dim != 4 or v8.dim != 8 or not v8.contains(v4):
        raise ValueError("need a 4-space inside an 8-space")
    p = sigma.p
    v4_in_8 = Subspace.from_rows([v8.coords_of(r) for r in v4.basis], 8, p)
    rows = np.vstack([v4.basis, v8.basis[list(v4_in_8.complement_pivots())]])
    vals = sigma.values(v4.basis, rows, rows)
    if vals[:, :4, :4].any():
        return []
    table = plane_table(4, p)
    # linear[q, a]: sigma(v4_i, v4_j, T_a) for all i, j; bilinear[q, i]: sigma(v4_i, T_0, T_1).
    linear = linalg.mat_mul(table.reshape(-1, 4), vals[:, :4, 4:].reshape(16, 4).T, p)
    left = linalg.mat_mul(table[:, 0], vals[:, 4:, 4:].transpose(1, 0, 2).reshape(4, 16), p)
    bilinear = (left.reshape(-1, 4, 4) * table[:, 1, None, :] % p).sum(axis=2) % p
    keep = ~linear.reshape(len(table), -1).any(axis=1) & ~bilinear.any(axis=1)
    return [Subspace.from_rows(basis, 4, p) for basis in table[keep]]


_MAX_GRID_POINTS = 1 << 24  # `_grid_quartic_zeros` tables every grid value


def _grid_quartic_zeros(polys: list[Poly], base, dirs, p: int) -> np.ndarray:
    """Common-zero parameters of quartic forms on an affine grid, (H, m).

    The grid is base + t @ dirs over all t in F_p^m.  `Poly.restrict`
    gives each form's coefficients in t, scattered into a (forms, 5^m)
    table by the exponent of each t-coordinate (t_1 most significant).
    One (5 x p) power-table transform per axis turns exponents into
    values; each acts on the leading axis and appends its image last.
    The last axis is transformed for the first form only, and the others
    are read at its zeros, in counter order.  Exact at every admitted
    prime.  A grid of more than 2^24 points (p^m; p > 256 at m = 3)
    raises `linalg.UnsupportedPrime` before any table is built.
    """
    m, forms = len(dirs), len(polys)
    if p**m > _MAX_GRID_POINTS:
        raise linalg.UnsupportedPrime(f"the quartic grid is limited to 2^24 points, got p^m = {p}^{m}")
    coefs = np.stack([f.restrict(base[None], dirs[None], 4)[0] for f in polys])
    if m == 0:
        return np.zeros((int(not coefs.any()), 0), dtype=np.int64)
    # Monomial (i_1 <= .. <= i_4) in y = (1, t) sits at exponent sum_k [i_k > 0] 5^(m - i_k).
    weights = np.concatenate([[0], 5 ** np.arange(m - 1, -1, -1)])
    grid = np.zeros((forms, 5**m), dtype=np.int64)
    grid[:, weights[np.array(monomials_of_degree(m + 1, 4), dtype=np.int64)].sum(axis=1)] = coefs
    powers = slice_monomials(np.arange(p)[:, None], 4, p)  # rows [1, x, x^2, x^3, x^4]
    for _ in range(m - 1):
        grid = linalg.mat_mul(grid.reshape(forms, 5, -1).transpose(0, 2, 1), powers.T, p)
    # (forms, p^(m-1), 5): values in t_1..t_(m-1) against exponents of t_m.
    last = grid.reshape(forms, 5, -1).transpose(0, 2, 1)
    row, x = np.nonzero(linalg.mat_mul(last[0], powers.T, p) == 0)
    keep = ~((last[1:, row] * powers[x] % p).sum(axis=2) % p).any(axis=0)
    return np.stack(np.unravel_index(row[keep] * p + x[keep], (p,) * m), axis=1)


_MAX_PATCHES = 200  # random 4-spaces `sample_peskine_points` scans before it gives up


def sample_peskine_points(
    sigma: Trivector,
    rng,
    count: int,
    avoid: Subspace | None = None,
) -> list[np.ndarray]:
    """Random rank-drop points at genericity primes, by patch scanning.

    Scans the projectivization of random 4-dimensional subspaces: two
    principal Pfaffian minors of the contraction, expanded by
    `scan.family_pfaffian` into quartics in the point, are evaluated on
    each pivot chart's affine grid (`_grid_quartic_zeros`: restriction to
    the chart, then one power table per axis), and the common zeros get
    exact rank confirmation.  Points inside `avoid` are skipped.
    Deduplicates canonical representatives; raises if the patch budget
    runs out first.
    """
    p, n = sigma.p, sigma.n
    bound = n - 4
    subsets = (tuple(range(bound + 2)), tuple(range(n - bound - 2, n)))
    flat = sigma.tensor.reshape(n, n * n)
    minors = [scan.family_pfaffian(flat, subset, p) for subset in subsets]
    seen: set[bytes] = set()
    out: list[np.ndarray] = []
    for _ in range(_MAX_PATCHES):
        patch = linalg.sample_full_rank([rng], 4, n, p)[0]
        for pivot in range(4):
            base = patch[pivot]
            dirs = patch[pivot + 1 :]
            params = _grid_quartic_zeros(minors, base, dirs, p)
            if not len(params):
                continue
            cand = (linalg.mat_mul(params, dirs, p) + base) % p
            for canon in scan.projective_rep(cand[scan.rank_drop_mask(sigma, cand, bound)], p):
                if avoid is not None and avoid.contains_vector(canon):
                    continue
                key = canon.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                out.append(canon)
                if len(out) >= count:
                    return out
    raise ValueError("patch budget exhausted before collecting enough points")
