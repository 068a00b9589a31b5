"""Degeneracy loci: membership, quotient Pfaffians, cubic, K3 search."""

import math

import numpy as np
import pytest
from pfaffian_reference import pfaffian_mod_radical
from poly_reference import poly_value

from peskine_lab import linalg, scan
from peskine_lab.checks import CheckConfig, run_check, sample_d16_nondegenerate
from peskine_lab.divisors import sample_divisor, standard_flag
from peskine_lab.loci import (
    _grid_quartic_zeros,
    conic_fiber,
    cubic_from_pfaffian,
    dv_member,
    k3_member,
    k3_witness_search,
    lagrangian_planes,
    peskine_member,
    peskine_points,
    sample_peskine_points,
)
from peskine_lab.polynomial import Poly, jacobian, monomials_of_degree, slice_monomials
from peskine_lab.rng import Rng
from peskine_lab.scan import projective_count
from peskine_lab.subspaces import Flag, Subspace, all_subspaces, complement_rows, plane_table
from peskine_lab.trivector import Trivector, triple_index, triples


def zero_trivector(n, p):
    return Trivector.from_coeffs([0] * len(triples(n)), n, p)


def decomposable_sigma(n, p):
    """e0 ^ e1 ^ e2 + e3 ^ e4 ^ e5 in F_p^n."""
    coeffs = np.zeros(len(triples(n)), dtype=np.int64)
    idx = triple_index(n)
    coeffs[idx[(0, 1, 2)]] = 1
    coeffs[idx[(3, 4, 5)]] = 1
    return Trivector.from_coeffs(coeffs, n, p)


def test_peskine_member_rejects_zero():
    tri = decomposable_sigma(6, 7)
    with pytest.raises(ValueError):
        peskine_member(tri, np.zeros(6, dtype=np.int64))


def test_peskine_points_decomposable_exact():
    # The rank-2 locus of e012 + e345 is P(span e012) u P(span e345):
    # every member is supported in one block, and all of those are members.
    p = 7
    tri = decomposable_sigma(6, p)
    pts = peskine_points(tri)
    assert len(pts) == 2 * (p * p + p + 1)
    for pt in pts:
        head = any(pt[:3])
        tail = any(pt[3:])
        assert head != tail
    assert peskine_member(tri, np.array([1, 2, 3, 0, 0, 0]))
    assert not peskine_member(tri, np.array([1, 0, 0, 1, 0, 0]))


def test_peskine_points_zero_sigma():
    # sigma = 0 has rank 0 everywhere: the whole of P^5 qualifies.
    tri = zero_trivector(6, 3)
    assert len(peskine_points(tri)) == projective_count(5, 3)


def test_dv_member():
    p = 7
    tri = decomposable_sigma(10, p)
    flat = Subspace.from_rows(np.eye(10, dtype=np.int64)[3:9], 10, p)
    assert not dv_member(tri, flat)  # contains e3^e4^e5
    clean = Subspace.from_rows(np.eye(10, dtype=np.int64)[4:], 10, p)
    assert dv_member(tri, clean)
    with pytest.raises(ValueError):
        dv_member(tri, Subspace.from_rows(np.eye(10, dtype=np.int64)[:3], 10, p))


def block_skew(m23, p):
    """4x4 skew matrix supported on the (2,3) slot; radical contains e0, e1."""
    mat = np.zeros((4, 4), dtype=np.int64)
    mat[2, 3] = m23
    mat[3, 2] = (-m23) % p
    return mat


def test_pfaffian_mod_radical_block_oracle():
    p = 7
    e0 = np.array([1, 0, 0, 0])
    e1 = np.array([0, 1, 0, 0])
    for m23 in range(1, p):
        mat = block_skew(m23, p)
        assert pfaffian_mod_radical(mat, e0, e1, p) == m23


def test_pfaffian_mod_radical_volume_convention():
    p = 7
    e0 = np.array([1, 0, 0, 0])
    e1 = np.array([0, 1, 0, 0])
    mat = block_skew(3, p)
    base = pfaffian_mod_radical(mat, e0, e1, p)
    # Swapping the radical pair flips the volume, hence the sign.
    assert pfaffian_mod_radical(mat, e1, e0, p) == (-base) % p
    # A shear x -> x + y preserves it.
    assert pfaffian_mod_radical(mat, (e0 + e1) % p, e1, p) == base
    # Scaling y by c scales the volume by c, dividing the value.
    scaled = pfaffian_mod_radical(mat, e0, 2 * e1 % p, p)
    assert scaled == base * linalg.inv_mod(2, p) % p


def test_pfaffian_mod_radical_errors():
    p = 7
    e0 = np.array([1, 0, 0, 0])
    e1 = np.array([0, 1, 0, 0])
    with pytest.raises(ValueError):
        pfaffian_mod_radical(np.zeros((3, 3), dtype=np.int64), e0[:3], e1[:3], p)
    mat = block_skew(1, p)
    with pytest.raises(ValueError):
        pfaffian_mod_radical(mat, np.array([0, 0, 1, 0]), e1, p)  # not in radical
    with pytest.raises(ValueError):
        pfaffian_mod_radical(mat, e0, 3 * e0 % p, p)  # dependent pair


def test_cubic_from_pfaffian_matches_pointwise():
    rng = Rng(61)
    p = 11
    samp = sample_divisor(rng, "d1-6-10", p)
    cubic = cubic_from_pfaffian(samp.sigma, samp.flag)
    assert cubic.total_degree() == 3
    v1 = samp.flag[0].basis[0]
    b6 = samp.flag[1].basis
    checked = 0
    while checked < 25:
        c = rng.ints(6, p)
        u = c @ b6 % p
        if Subspace.from_rows(np.vstack([u, v1]), 10, p).dim < 2:
            continue
        want = pfaffian_mod_radical(samp.sigma.contract1(u).mat, u, v1, p)
        assert poly_value(cubic, c) == want
        checked += 1


def test_cubic_from_pfaffian_at_largest_prime():
    # The family b6 @ sigma goes through exact products at p = 2^31 - 1, so
    # the cubic agrees with the scalar quotient Pfaffians at random points.
    p = 2**31 - 1
    samp = sample_divisor(Rng(63), "d1-6-10", p)
    cubic = cubic_from_pfaffian(samp.sigma, samp.flag)
    assert cubic.total_degree() == 3
    v1 = samp.flag[0].basis[0]
    b6 = samp.flag[1].basis.astype(object)
    rng = Rng(64)
    for _ in range(3):
        c = rng.ints(6, p)
        u = (c.astype(object) @ b6 % p).astype(np.int64)
        want = pfaffian_mod_radical(samp.sigma.contract1(u).mat, u, v1, p)
        assert poly_value(cubic, c) == want


def test_cubic_zero_set_is_rank_drop():
    rng = Rng(62)
    p = 11
    samp = sample_divisor(rng, "d1-6-10", p)
    cubic = cubic_from_pfaffian(samp.sigma, samp.flag)
    b6 = samp.flag[1].basis
    v1 = samp.flag[0].basis[0]
    for _ in range(40):
        c = rng.ints(6, p)
        u = c @ b6 % p
        if Subspace.from_rows(np.vstack([u, v1]), 10, p).dim < 2:
            continue
        rank = samp.sigma.contract1(u).rank()
        assert (poly_value(cubic, c) == 0) == (rank <= 6)


def test_cubic_singularity_probe_is_gradient():
    # x0^3 has gradient (3 x0^2, 0, ..., 0), read as rem-3.5 reads it.
    cubic = Poly.from_dict({(0, 0, 0): 1}, 6, 7)
    grad = jacobian([cubic], np.array([[2, 0, 0, 0, 0, 0]]))[0, 0]
    assert grad.tolist() == [3 * 4 % 7, 0, 0, 0, 0, 0]


def test_lagrangian_planes_count():
    omega = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=np.int64
    )
    for p in (3, 5):
        planes = lagrangian_planes(omega % p, p)
        assert len(planes) == (p + 1) * (p * p + 1)
        for s in planes:
            b = s.basis
            assert int(b[0] @ (omega % p) @ b[1] % p) == 0


def test_k3_member_validation():
    eye = np.eye(10, dtype=np.int64)

    def setup(p):
        tri = zero_trivector(10, p)
        flag = standard_flag("d1-6-10", p)
        u8 = Subspace.from_rows(eye[:8], 10, p)
        return tri, flag, u8

    tri, flag, u8 = setup(3)
    with pytest.raises(ValueError):
        k3_member(tri, flag, flag[1])  # not 8-dimensional
    missing_v6 = Subspace.from_rows(np.vstack([eye[:5], eye[6:9]]), 10, 3)
    with pytest.raises(ValueError):
        k3_member(tri, flag, missing_v6)
    tri7, flag7, u8_7 = setup(7)
    with pytest.raises(ValueError):
        k3_member(tri7, flag7, u8_7)  # exhaustive search needs p in {3, 5}


def test_witness_search_rejects_the_prime_before_any_plane_table():
    cached = plane_table.cache_info().currsize
    with pytest.raises(ValueError, match=r"limited to p in \{3, 5\}"):
        run_check("prop-3.1", CheckConfig(p=7, trials=1))
    assert plane_table.cache_info().currsize == cached


def test_k3_member_zero_sigma():
    p = 3
    tri = zero_trivector(10, p)
    flag = standard_flag("d1-6-10", p)
    u8 = flag[1].join(Subspace.from_rows(np.eye(10, dtype=np.int64)[6:8], 10, p))
    ok, u4 = k3_member(tri, flag, u8)
    assert ok
    assert u4.dim == 4
    assert u8.contains(u4)
    assert u4.contains(flag[0])


def reference_k3_member(sigma, flag, u8):
    """The per-point, per-plane K3 search: a kernel and a Subspace per
    candidate t1, then every plane of A(t1)/t1 tested pair by pair."""
    p = sigma.p
    v1 = flag[0].basis[0]
    b8 = u8.basis
    if (np.einsum("i,yj,zk,ijk->yz", v1, b8, b8, sigma.tensor) % p).any():
        return (False, None)
    g = np.einsum("xi,yj,zk,ijk->xyz", b8, b8, b8, sigma.tensor) % p
    v1c = u8.coords_of(v1)
    comp = list(Subspace.from_rows(v1c, 8, p).complement_pivots())
    forms = np.ascontiguousarray((g[np.ix_(comp, comp)].transpose(2, 0, 1) % p).reshape(8, 7, 7))
    reps = np.vstack(list(scan.projective_chunks(6, p)))
    stacked = np.tensordot(reps, forms.transpose(1, 0, 2), axes=([1], [0])) % p
    kdims = 7 - scan.batched_rank(stacked, p)
    for i in np.nonzero(kdims >= 3)[0]:
        t1 = reps[i]
        t1_sub = Subspace.from_rows(t1, 7, p)
        kspace = Subspace.from_rows(linalg.kernel(stacked[i].reshape(8, 7), p), 7, p)
        if not kspace.contains(t1_sub):
            continue
        comp_rows = complement_rows(kspace, t1_sub)
        for plane in all_subspaces(len(comp_rows), 2, p):
            t_rows = [t1]
            for prow in plane.basis:
                vec = np.zeros(7, dtype=np.int64)
                for c, r in zip(prow, comp_rows):
                    vec = (vec + c * r) % p
                t_rows.append(vec)
            t_mat = np.array(t_rows, dtype=np.int64) % p
            isotropic = all(
                int(t_mat[a] @ forms[c] @ t_mat[b] % p) == 0
                for c in range(8)
                for a in range(3)
                for b in range(a + 1, 3)
            )
            if isotropic:
                lift = np.zeros((3, 8), dtype=np.int64)
                lift[:, comp] = t_mat
                u4 = Subspace.from_rows(np.vstack([v1c[None, :], lift]) @ b8 % p, sigma.n, p)
                if u4.dim == 4:
                    return (True, u4)
    return (False, None)


def candidate_u8s(sigma, flag):
    """The isotropic extensions of V6 in the order k3_witness_search tries them."""
    p = sigma.p
    v6 = flag[1]
    comp = list(v6.complement_pivots())
    omega = sigma.contract1(flag[0].basis[0]).mat[np.ix_(comp, comp)] % p
    out = []
    for plane in lagrangian_planes(omega, p):
        lift = np.zeros((2, sigma.n), dtype=np.int64)
        lift[:, comp] = plane.basis
        u8 = v6.join(Subspace.from_rows(lift, sigma.n, p))
        if u8.dim == 8:
            out.append(u8)
    return out


@pytest.mark.parametrize("p, seed, count", [(3, 41, None), (3, 42, None), (3, 43, None), (5, 44, 3), (5, 45, 3)])
def test_k3_member_matches_reference_search(p, seed, count):
    # Every candidate U8 of a sigma at p = 3.  At p = 5, where the reference
    # takes seconds per non-member, the first three: two non-members, then
    # a member, for both seeds.
    samp = sample_d16_nondegenerate(Rng(seed), p)
    results = []
    for u8 in candidate_u8s(samp.sigma, samp.flag)[:count]:
        got = k3_member(samp.sigma, samp.flag, u8)
        assert got == reference_k3_member(samp.sigma, samp.flag, u8)
        results.append(got[0])
    assert any(results) and not all(results)


@pytest.mark.parametrize("p, seed", [(3, 41), (3, 42), (5, 44)])
def test_k3_candidates_are_the_rank_drop_locus_of_the_skew_family(p, seed):
    # Under sigma(v1, U8, U8) = 0, the 8 x 7 table sigma(t, c_b, b8_z) of
    # the K3 search has the rank of the 7 x 7 skew form sigma(t, c_a, c_b),
    # c the complement of v1 in U8, at every point t of P^6; and the cascade
    # plus kernel dims find exactly the points with 7 - rank >= 3.
    samp = sample_d16_nondegenerate(Rng(seed), p)
    sigma, v1 = samp.sigma, samp.flag[0].basis[0]
    reps = np.vstack(list(scan.projective_chunks(6, p)))
    for u8 in candidate_u8s(sigma, samp.flag):
        b8 = u8.basis
        assert not (np.einsum("i,yj,zk,ijk->yz", v1, b8, b8, sigma.tensor) % p).any()
        c = b8[list(Subspace.from_rows(u8.coords_of(v1), 8, p).complement_pivots())]
        table = np.einsum("ai,bj,zk,ijk->abz", c, c, b8, sigma.tensor, optimize=True) % p
        table = linalg.mat_mul(reps, table.reshape(7, 56), p).reshape(-1, 7, 8).transpose(0, 2, 1)
        flat = np.einsum("ai,bj,dk,ijk->abd", c, c, c, sigma.tensor, optimize=True).reshape(7, 49) % p
        ranks = scan.batched_rank(table, p)
        skew = linalg.mat_mul(reps, flat, p).reshape(-1, 7, 7)
        assert scan.batched_rank(skew, p).tolist() == ranks.tolist()
        alive = scan.cascade_survivors(flat, reps, 4, p)
        kdims = scan.batched_kernel(skew[alive], p)[1]
        assert alive[kdims >= 3].tolist() == np.flatnonzero(7 - ranks >= 3).tolist()


def test_k3_member_matches_reference_on_a_sparse_sigma():
    # sigma(e0, U8, U8) = 0 for U8 = <e0..e7>, and the first witness point
    # t1 has several isotropic planes in A(t1)/t1: which rref row of A(t1)
    # the complement of t1 leaves out decides which plane comes first.
    p = 3
    idx = triple_index(10)
    coeffs = np.zeros(len(triples(10)), dtype=np.int64)
    for t, c in {(1, 2, 5): 1, (1, 4, 6): 1, (1, 5, 6): 2, (2, 4, 7): 1, (3, 4, 6): 2}.items():
        coeffs[idx[t]] = c
    g = np.eye(10, dtype=np.int64)
    g[1:8, 1:8] = [
        [1, 1, 1, 1, 0, 0, 1],
        [2, 2, 1, 2, 0, 2, 1],
        [2, 2, 0, 1, 1, 2, 1],
        [2, 1, 1, 0, 2, 1, 0],
        [2, 1, 2, 2, 2, 1, 0],
        [0, 2, 1, 0, 0, 1, 2],
        [2, 0, 2, 0, 2, 1, 2],
    ]
    sigma = Trivector.from_coeffs(coeffs, 10, p).gl_transform(g)
    flag = standard_flag("d1-6-10", p)
    u8 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:8], 10, p)
    got = k3_member(sigma, flag, u8)
    assert got[0]
    assert got == reference_k3_member(sigma, flag, u8)


def test_k3_witness_search_witness_is_valid():
    # Frozen seed with a known witness at p = 3.
    rng = Rng(3601)
    p = 3
    samp = None
    while samp is None:
        cand = sample_divisor(rng, "d1-6-10", p)
        try:
            found = k3_witness_search(cand.sigma, cand.flag)
        except ValueError:
            continue
        if found:
            samp, (u8, u4) = cand, found
    sigma, flag = samp.sigma, samp.flag
    assert u8.dim == 8 and u4.dim == 4
    assert u8.contains(flag[1]) and u8.contains(u4)
    assert u4.contains(flag[0])
    # sigma(v1, ., .) kills U8 and sigma(U4, U4, U8) = 0.
    v1 = flag[0].basis[0]
    for x in u8.basis:
        for y in u8.basis:
            assert sigma.eval3(v1, x, y) == 0
    for i in range(4):
        for j in range(i + 1, 4):
            for z in u8.basis:
                assert sigma.eval3(u4.basis[i], u4.basis[j], z) == 0


def test_conic_fiber_zero_sigma_is_everything():
    p = 3
    tri = zero_trivector(10, p)
    v4 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:4], 10, p)
    v8 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:8], 10, p)
    fibers = conic_fiber(tri, v4, v8)
    assert len(fibers) == (p * p + 1) * (p * p + p + 1)


def reference_conic_fiber(sigma, v4, v8):
    """The per-plane conic fibre: one 6-space and one dv_member per plane of v8/v4."""
    p = sigma.p
    comp = list(Subspace.from_rows([v8.coords_of(r) for r in v4.basis], 8, p).complement_pivots())
    out = []
    for plane in all_subspaces(4, 2, p):
        lift = np.zeros((2, 8), dtype=np.int64)
        lift[:, comp] = plane.basis
        w6 = v4.join(Subspace.from_rows(lift @ v8.basis % p, sigma.n, p))
        if w6.dim == 6 and dv_member(sigma, w6):
            out.append(plane)
    return out


def planted_conic_sigma(rng, p):
    """A sigma with p + 1 conic-fibre planes over U4 = <e0..e3> in U8 = <e0..e7>.

    sigma(U4, U4, U4) = 0; sigma(U4, U4, U8) is nonzero but only along e4,
    so the linear condition keeps the planes of <e5, e6, e7>; of the
    bilinear terms sigma(U4, C, C) only sigma(e0, e5, e6) is nonzero, so
    of those the p + 1 planes through e7 remain.
    """
    coeffs = rng.ints(len(triples(10)), p)
    for idx, (i, j, k) in enumerate(triples(10)):
        in_u4 = sum(x < 4 for x in (i, j, k))
        if k < 4 or (in_u4 == 2 and k < 8 and k != 4) or (in_u4 == 1 and k < 8):
            coeffs[idx] = 0
    coeffs[triple_index(10)[(0, 1, 4)]] = 1
    coeffs[triple_index(10)[(0, 5, 6)]] = 1
    return Trivector.from_coeffs(coeffs, 10, p)


@pytest.mark.parametrize("p", [3, 5])
def test_conic_fiber_matches_per_plane_reference(p):
    eye = np.eye(10, dtype=np.int64)
    rng = Rng(70 + p)
    cases = []
    # The fibres over the K3 witnesses of two sigmas at p = 3, one at p = 5.
    for i in range(4):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{i}"), p)
        found = k3_witness_search(samp.sigma, samp.flag)
        if found is not None:
            cases.append((samp.sigma, found[1], found[0], None))
        if len(cases) == (2 if p == 3 else 1):
            break
    assert cases
    # A planted fibre, moved off standard position: sigma(U4, U4, U8) != 0.
    g = linalg.sample_gl(rng, 10, p)
    planted = planted_conic_sigma(rng, p)
    u4 = Subspace.from_rows(eye[:4], 10, p).transform(g)
    u8 = Subspace.from_rows(eye[:8], 10, p).transform(g)
    moved = planted.gl_transform(g)
    assert moved.values(u4.basis, u4.basis, u8.basis).any()
    cases.append((moved, u4, u8, p + 1))
    # sigma(U4, U4, U4) != 0: an empty fibre.
    cases.append((Trivector.random(rng, 10, p), u4, u8, 0))
    for sigma, v4, v8, count in cases:
        got = conic_fiber(sigma, v4, v8)
        assert got == reference_conic_fiber(sigma, v4, v8)
        assert count is None or len(got) == count


def test_conic_fiber_validation():
    p = 3
    tri = zero_trivector(10, p)
    v4 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:4], 10, p)
    v5 = Subspace.from_rows(np.eye(10, dtype=np.int64)[:5], 10, p)
    with pytest.raises(ValueError):
        conic_fiber(tri, v4, v5)
    shifted8 = Subspace.from_rows(np.eye(10, dtype=np.int64)[2:], 10, p)
    with pytest.raises(ValueError):
        conic_fiber(tri, v4, shifted8)


def test_power_table_exact_at_65521():
    # The grid's power table is `slice_monomials` on a line: rows
    # [1, x, x^2, x^3, x^4].  Unreduced x^4 wraps int64 above p = 55108.
    p = 65521
    table = slice_monomials(np.arange(p)[:, None], 4, p)
    assert table[p - 1].tolist() == [1, p - 1, 1, p - 1, 1]
    assert table[12345].tolist() == [pow(12345, k, p) for k in range(5)]


@pytest.mark.parametrize("p", [3, 7, 65521])
def test_grid_quartic_zeros_on_a_line_matches_pointwise(p):
    # The line (t, 1, 0, 0) on x0^4 - x1^4 meets the gcd(4, p - 1) fourth
    # roots of unity, t = p - 1 among them.  Random quartic pairs on
    # random grids of every dimension m (m <= 1 at 65521), every other
    # pair made to vanish at one grid point, must give the common zeros
    # of `Poly.evaluate_batch` over the whole grid, in counter order.
    planted = Poly.from_dict({(0, 0, 0, 0): 1, (1, 1, 1, 1): -1}, 4, p)
    base, dirs = np.array([0, 1, 0, 0]), np.array([[1, 0, 0, 0]])
    roots = _grid_quartic_zeros([planted], base, dirs, p)[:, 0]
    assert len(roots) == math.gcd(4, p - 1) and roots[-1] == p - 1

    def vanish_at(f, x):
        j = int(np.flatnonzero(x)[0])
        c = int(f.evaluate_batch(x[None])[0]) * pow(int(x[j]), -4, p)
        return f - Poly.from_dict({(j,) * 4: c}, 4, p)

    rng = Rng(8)
    monos = monomials_of_degree(4, 4)
    for m in range(4 if p < 100 else 2):
        ts = np.concatenate(list(scan.affine_chunks(m, p)))
        hits = 0
        for case in range(6):
            pair = [Poly.from_dict(dict(zip(monos, rng.ints(len(monos), p).tolist())), 4, p) for _ in "ab"]
            base, dirs = rng.ints(4, p), rng.matrix(m, 4, p)
            pts = (ts @ dirs + base) % p
            x = pts[rng.below(len(pts))]
            if case % 2 == 0 and x.any():
                pair = [vanish_at(f, x) for f in pair]
            got = _grid_quartic_zeros(pair, base, dirs, p)
            zero = (pair[0].evaluate_batch(pts) == 0) & (pair[1].evaluate_batch(pts) == 0)
            assert got.shape == (int(zero.sum()), m)
            assert got.tolist() == ts[zero].tolist()
            hits += len(got)
        assert hits, f"no common zero on any grid of dimension {m}"


def test_sample_peskine_points_members():
    rng = Rng(66)
    p = 7
    samp = sample_divisor(rng, "d1-6-10", p)
    pts = sample_peskine_points(samp.sigma, rng.child("pts"), 20, avoid=samp.flag[1])
    assert len(pts) == 20
    for pt in pts:
        vec = np.array(pt, dtype=np.int64)
        assert peskine_member(samp.sigma, vec)
        assert not samp.flag[1].contains_vector(vec)
