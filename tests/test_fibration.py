"""Descended two-forms, perps, projection fibers and the quadric pencil."""

import numpy as np
import pytest
from pfaffian_reference import pfaffian_mod_radical

from peskine_lab import linalg
from peskine_lab.checks import sample_d16_nondegenerate, sample_u7
from peskine_lab.divisors import sample_divisor, standard_flag
from peskine_lab.fibration import (
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
from peskine_lab.loci import sample_peskine_points
from peskine_lab.orbits import project_to_B
from peskine_lab.rng import Rng
from peskine_lab.scan import batched_contract1, batched_rank, projective_chunks, projective_rep
from peskine_lab.subspaces import Flag, Subspace, complement_rows
from peskine_lab.trivector import Trivector, triples


def zero_trivector(n, p):
    return Trivector.from_coeffs([0] * len(triples(n)), n, p)


def full_space(n, p):
    return Subspace.from_rows(np.eye(n, dtype=np.int64), n, p)


def nondegenerate_sample(rng, p):
    while True:
        samp = sample_divisor(rng, "d1-6-10", p)
        try:
            omega_data(samp.sigma, samp.flag)
        except ValueError:
            continue
        return samp


def sample_u7_over(rng, flag):
    v6 = flag[1]
    while True:
        q = rng.ints(4, v6.p)
        if q.any():
            break
    direction = v6.lift_quotient(q)
    return v6.join(Subspace.span_of(direction, n=v6.n, p=v6.p))


def quotient_coords(space, v):
    """Coordinates of v + space in F_p^n / space: v reduced against the rref basis, at the non-pivot columns."""
    v = linalg.as_field(v, space.p)
    red = (v - linalg.mat_mul(v[list(space.pivots)], space.basis, space.p)) % space.p
    return red[list(space.complement_pivots())]


def omega_matrix(sigma, flag):
    """omega = sigma(v1, ., .) on V10/V6 in complement-pivot coordinates, degenerate or not."""
    comp = np.eye(sigma.n, dtype=np.int64)[list(flag[1].complement_pivots())]
    return sigma.values(flag[0].basis, comp, comp)[0]


def omega_route_perp(sigma, flag, u7):
    """Reference for `u7_perp`: the preimage of (U7/V6)-perp under omega, joined with V6.

    U7's rows span one line in quotient coordinates; the kernel of that
    line against omega, lifted to standard position, spans the perp
    modulo V6.  Raises, through `omega_data`, when omega is degenerate.
    """
    v6 = flag[1]
    p = sigma.p
    line = linalg.rref(np.array([quotient_coords(v6, r) for r in u7.basis]), p)[0]
    assert line.shape[0] == 1
    perp = linalg.kernel(linalg.mat_mul(line, omega_data(sigma, flag).mat, p), p)
    lifted = np.array([v6.lift_quotient(r) for r in perp], dtype=np.int64)
    return v6.join(Subspace.from_rows(lifted, sigma.n, p))


def sigma_prime_rank(sigma, flag, u7, l):
    """Scalar reference: rank of sigma(l, ., .) on the 7-dim quotient U7perp/(l + V1).

    Equals the rank of the 9x9 restriction to U7perp because both l and
    v1 lie in its radical; the quotient is formed explicitly so the value
    matches the definition.
    """
    p = sigma.p
    l = linalg.as_field(l, p).reshape(-1)
    if flag[1].contains_vector(l):
        raise ValueError("the probe vector must lie off the divisor 6-space")
    if not u7.contains_vector(l):
        raise ValueError("the probe vector must lie in U7")
    u9 = u7_perp(sigma, flag, u7)
    m = sigma.values(l, u9.basis, u9.basis)[0]
    rad = Subspace.from_rows(np.vstack([u9.coords_of(l), u9.coords_of(flag[0].basis[0])]), 9, p)
    assert rad.dim == 2
    comp = rad.complement_pivots()
    return linalg.rank(m[np.ix_(comp, comp)], p)


def test_omega_data_rank_and_degeneracy():
    samp = nondegenerate_sample(Rng(90), 7)
    omega = omega_data(samp.sigma, samp.flag)
    assert omega.p == 7
    assert omega.rank() == 4

    zero = zero_trivector(10, 7)
    with pytest.raises(ValueError):
        omega_data(zero, standard_flag("d1-6-10", 7))


def test_u7_perp_dimension_and_pairing():
    rng = Rng(91)
    samp = nondegenerate_sample(rng, 7)
    omega = omega_data(samp.sigma, samp.flag)
    u7 = sample_u7_over(rng, samp.flag)
    u9 = u7_perp(samp.sigma, samp.flag, u7)
    assert u9.dim == 9
    assert u9.contains(u7)

    # omega pairs the U7 line against every quotient image of U9 to zero.
    v6 = samp.flag[1]
    line = linalg.rref(np.array([quotient_coords(v6, r) for r in u7.basis]), 7)[0][0]
    for r in u9.basis:
        assert int(line @ omega.mat @ quotient_coords(v6, r) % 7) == 0

    with pytest.raises(ValueError):
        u7_perp(samp.sigma, samp.flag, v6)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 65521, 2**31 - 1])
def test_u7_perp_matches_the_omega_route(p):
    # ker sigma(v1, U7, .) is the preimage of (U7/V6)-perp under omega.
    rng = Rng(320).child(f"p{p}")
    for k in range(30):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{k}"), p)
        u7 = sample_u7(rng.child(f"u7-{k}"), samp.flag)
        assert u7_perp(samp.sigma, samp.flag, u7) == omega_route_perp(samp.sigma, samp.flag, u7)


def test_u7_perp_rejects_a_u7_in_the_radical():
    p = 7
    zero = zero_trivector(10, p)
    flag = standard_flag("d1-6-10", p)
    with pytest.raises(ValueError, match="radical"):
        u7_perp(zero, flag, sample_u7(Rng(321), flag))

    # A degenerate omega: U7 through its radical has a 10-dim kernel, and
    # U7 off it still has a 9-dim perp (the omega route refuses both).
    rng = Rng(322)
    samp = sample_divisor(rng, "d1-6-10", p)
    while linalg.rank(omega_matrix(samp.sigma, samp.flag), p) != 2:
        samp = sample_divisor(rng, "d1-6-10", p)
    omega, (v1, v6) = omega_matrix(samp.sigma, samp.flag), samp.flag
    inside = v6.join(Subspace.span_of(v6.lift_quotient(linalg.kernel(omega, p)[0]), n=10, p=p))
    with pytest.raises(ValueError, match="radical"):
        u7_perp(samp.sigma, samp.flag, inside)
    with pytest.raises(ValueError):
        omega_route_perp(samp.sigma, samp.flag, inside)
    off = [q for q in np.eye(4, dtype=np.int64) if (q @ omega % p).any()]
    assert off
    for q in off:
        u7 = v6.join(Subspace.span_of(v6.lift_quotient(q), n=10, p=p))
        u9 = u7_perp(samp.sigma, samp.flag, u7)
        assert u9.dim == 9 and u9.contains(u7)
        assert not samp.sigma.values(v1.basis, u7.basis, u9.basis).any()


def test_sigma_prime_rank_values_and_guards():
    rng = Rng(92)
    samp = nondegenerate_sample(rng, 7)
    u7 = sample_u7_over(rng, samp.flag)
    v6 = samp.flag[1]
    seen = set()
    for _ in range(10):
        coeffs = rng.ints(7, 7)
        l = coeffs @ u7.basis % 7
        if v6.contains_vector(l):
            continue
        r = sigma_prime_rank(samp.sigma, samp.flag, u7, l)
        assert r % 2 == 0 and 0 <= r <= 6
        seen.add(r)
    assert 6 in seen  # generic probes sit at full quotient rank

    with pytest.raises(ValueError):
        sigma_prime_rank(samp.sigma, samp.flag, u7, v6.basis[0])
    off_u7 = complement_rows(full_space(10, 7), u7)[0]
    with pytest.raises(ValueError):
        sigma_prime_rank(samp.sigma, samp.flag, u7, off_u7)


def test_sigma_prime_rank_scan_matches_scalar():
    rng = Rng(93)
    p = 3
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    pts, full, prime = sigma_prime_rank_scan(samp.sigma, samp.flag, u7)
    assert len(pts) == len(full) == len(prime) == p**6
    assert np.array_equal(pts, np.concatenate(list(u7_chart(samp.flag, u7))))
    assert not any(samp.flag[1].contains_vector(l) for l in pts)
    # Exact ranks at every point: the cascade's shortcut to the maximal
    # ranks n - 2 and 6 is checked everywhere.
    b9 = u7_perp(samp.sigma, samp.flag, u7).basis
    mats = batched_contract1(samp.sigma, pts)
    assert full.tolist() == batched_rank(mats, p).tolist()
    assert prime.tolist() == batched_rank(samp.sigma.values(pts, b9, b9), p).tolist()
    assert set(full.tolist()) <= {0, 2, 4, 6, 8} and set(prime.tolist()) <= {0, 2, 4, 6}
    for k in range(0, len(pts), max(1, len(pts) // 7)):
        l = pts[k]
        assert full[k] == samp.sigma.contract1(l).rank()
        assert prime[k] == sigma_prime_rank(samp.sigma, samp.flag, u7, l)


def test_sigma_prime_rank_scan_covers_the_chart():
    # Reference: P^6 mapped into U7, P(V6) dropped by the annihilator of V6.
    # The chart d + V6 gives the same multiset of (class, full, prime).
    rng = Rng(41)
    p = 3
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    pts, full, prime = sigma_prime_rank_scan(samp.sigma, samp.flag, u7)
    ref = np.vstack(list(projective_chunks(6, p))) @ u7.basis % p
    ref = ref[(ref @ linalg.kernel(samp.flag[1].basis, p).T % p).any(axis=1)]
    b9 = u7_perp(samp.sigma, samp.flag, u7).basis
    ref_full = batched_rank(batched_contract1(samp.sigma, ref), p)
    ref_prime = batched_rank(samp.sigma.values(ref, b9, b9), p)

    def triples(reps, a, b):
        return sorted(zip(map(tuple, projective_rep(reps, p).tolist()), a.tolist(), b.tolist()))

    assert len(pts) == p**6
    assert triples(pts, full, prime) == triples(ref, ref_full, ref_prime)


def sample_v4_over(rng, sigma, v3):
    p = sigma.p
    while True:
        vec = rng.ints(sigma.n, p)
        v4 = v3.join(Subspace.span_of(vec, n=sigma.n, p=p))
        if v4.dim != 4:
            continue
        try:
            thm21_fiber(sigma, Flag((v3,)), v4, mode="linear")
        except ValueError:
            continue
        return v4


def test_thm21_fiber_modes_agree():
    rng = Rng(94)
    p = 5
    samp = sample_divisor(rng, "d3-3-10", p)
    v3 = samp.flag[0]
    for _ in range(5):
        v4 = sample_v4_over(rng, samp.sigma, v3)
        lin = thm21_fiber(samp.sigma, samp.flag, v4, mode="linear")
        ex = thm21_fiber(samp.sigma, samp.flag, v4, mode="exhaustive")
        assert lin == ex


def test_thm21_fiber_guards():
    rng = Rng(95)
    samp = sample_divisor(rng, "d3-3-10", 7)
    v3 = samp.flag[0]
    v4 = sample_v4_over(rng, samp.sigma, v3)
    with pytest.raises(ValueError):
        thm21_fiber(samp.sigma, samp.flag, v3, mode="exhaustive")
    with pytest.raises(ValueError):
        thm21_fiber(samp.sigma, samp.flag, v4, mode="cubic")

    big = sample_divisor(Rng(96), "d3-3-10", 101)
    bv4 = sample_v4_over(Rng(97), big.sigma, big.flag[0])
    with pytest.raises(ValueError):
        thm21_fiber(big.sigma, big.flag, bv4, mode="exhaustive")


def python_rank(rows, p):
    """Rank mod p by Gauss-Jordan elimination in Python ints."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_thm21_fiber_linear_at_largest_prime():
    # The linear fibre is exact at p = 2^31 - 1: at every returned chart
    # point a, l = v + a @ w has a contraction of rank at most n - 4,
    # ranked in Python ints.  A bounded number of V4s is tried, so a
    # construction that always fails shows as no point at all.
    p = 2**31 - 1
    rng = Rng(110)
    samp = sample_divisor(rng, "d3-3-10", p)
    v3 = samp.flag[0]
    tensor = samp.sigma.tensor.astype(object)
    w = v3.basis.astype(object)
    checked = 0
    for _ in range(10):
        v4 = v3.join(Subspace.span_of(rng.ints(samp.sigma.n, p), n=samp.sigma.n, p=p))
        if v4.dim != 4:
            continue
        try:
            hits = thm21_fiber(samp.sigma, samp.flag, v4, mode="linear")
        except ValueError:
            continue
        v = complement_rows(v4, v3)[0].astype(object)
        for a in hits:
            l = (v + np.array(a, dtype=object) @ w) % p
            contracted = np.tensordot(l, tensor, axes=1) % p
            assert python_rank(contracted.tolist(), p) <= samp.sigma.n - 4
            checked += 1
    assert checked


def test_prescribed_residue_is_exact():
    rng = Rng(98)
    p = 101
    for _ in range(5):
        raw = rng.matrix(7, 7, p)
        xmat = (raw - raw.T) % p
        sigma, flag, u2, u7, frame, gen = prescribed_dprime_sigma(xmat, p)
        resid = sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=gen)
        assert resid == project_to_B(xmat, p)


def test_prescribed_rejects_non_skew():
    with pytest.raises(ValueError):
        prescribed_dprime_sigma(np.eye(7, dtype=np.int64), 7)


def test_sigma_dprime_frame_validation():
    p = 7
    raw = Rng(99).matrix(7, 7, p)
    xmat = (raw - raw.T) % p
    sigma, flag, u2, u7, frame, gen = prescribed_dprime_sigma(xmat, p)
    with pytest.raises(ValueError):
        sigma_dprime(sigma, flag, u2, u7, frame=frame[:5], generator=gen)
    swapped = np.vstack([frame[2:4], frame[:2], frame[4:]])
    with pytest.raises(ValueError):
        sigma_dprime(sigma, flag, u2, u7, frame=swapped, generator=gen)
    with pytest.raises(ValueError):
        sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=flag[0].basis[0])
    # e9 is off U7perp (sigma(e1, e0, e9) = -1), yet with e8 it still spans U7's complement in a 9-space.
    off_perp = np.vstack([np.eye(10, dtype=np.int64)[9], frame[1:]])
    assert u7.join(Subspace.from_rows(off_perp[:2], 10, p)).dim == 9
    with pytest.raises(ValueError, match="U7perp"):
        sigma_dprime(sigma, flag, u2, u7, frame=off_perp, generator=gen)


def test_sigma_dprime_generator_scaling():
    p = 11
    raw = Rng(100).matrix(7, 7, p)
    xmat = (raw - raw.T) % p
    sigma, flag, u2, u7, frame, gen = prescribed_dprime_sigma(xmat, p)
    base = sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=gen)
    doubled = sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=2 * gen % p)
    assert np.array_equal(doubled.coords, 2 * base.coords % p)


def test_quadric_pencil_homogeneity_and_containment():
    rng = Rng(101)
    p = 3
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    pencil = quadric_pencil(samp.sigma, samp.flag, u7)

    c = rng.ints(6, p)
    va, vb = pencil.value_at(c)
    wa, wb = pencil.value_at(2 * c % p)
    assert (wa, wb) == (4 * va % p, 4 * vb % p)

    # rank-drop points inside U7 land on both quadrics.
    v1 = samp.flag[0]
    pts, full, _ = sigma_prime_rank_scan(samp.sigma, samp.flag, u7)
    locus = pts[full <= samp.sigma.n - 4]
    checked = 0
    for l in locus:
        if v1.contains_vector(l):
            continue
        cc = quotient_u7_coords(u7, v1, l)
        assert pencil.value_at(cc) == (0, 0)
        checked += 1
    assert checked > 0

    for alpha, beta in ((1, 0), (0, 1), (1, 2)):
        assert 0 <= pencil.member_rank(alpha, beta) <= 6


def test_quadric_pencil_at_largest_prime():
    # Every product on the pencil path is exact at p = 2^31 - 1: the
    # quadrics agree with the scalar quotient Pfaffians in Python ints.
    p = 2**31 - 1
    samp = sample_d16_nondegenerate(Rng(107), p)
    u7 = sample_u7(Rng(108), samp.flag)
    pencil = quadric_pencil(samp.sigma, samp.flag, u7)
    u9 = u7_perp(samp.sigma, samp.flag, u7)
    v1 = samp.flag[0]
    # Object arrays multiply in Python ints, which cannot overflow.
    tensor = samp.sigma.tensor.astype(object)
    lift = np.array(complement_rows(u7, v1)).astype(object)
    rng = Rng(109)
    for _ in range(3):
        c = rng.ints(6, p).astype(object)
        u = c @ lift % p
        contracted = np.tensordot(u, tensor, axes=1) % p
        want = []
        for direction in complement_rows(u9, u7):
            w8 = u7.join(Subspace.span_of(direction, n=10, p=p))
            b8 = w8.basis.astype(object)
            m8 = (b8 @ contracted @ b8.T % p).astype(np.int64)
            x = w8.coords_of(u.astype(np.int64))
            want.append(pfaffian_mod_radical(m8, x, w8.coords_of(v1.basis[0]), p))
        got = [c @ q.astype(object) @ c % p for q in (pencil.q_a, pencil.q_b)]
        assert got == want
        assert pencil.value_at(c.astype(np.int64)) == tuple(want)


def test_fiber_profile_tallies():
    rng = Rng(102)
    p = 3
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    pencil = quadric_pencil(samp.sigma, samp.flag, u7)
    profile = fiber_profile(pencil)
    assert set(profile) == {"points", "rank0", "rank1", "rank2"}
    assert profile["points"] == profile["rank0"] + profile["rank1"] + profile["rank2"]

    if profile["points"]:
        for block in projective_chunks(5, p):
            va = np.einsum("bi,ij,bj->b", block, pencil.q_a, block) % p
            vb = np.einsum("bi,ij,bj->b", block, pencil.q_b, block) % p
            hits = block[(va == 0) & (vb == 0)]
            if len(hits):
                assert pencil.value_at(hits[0]) == (0, 0)
                grads = np.vstack([pencil.q_a @ hits[0] % p, pencil.q_b @ hits[0] % p])
                assert linalg.rank(grads, p) in (0, 1, 2)
                break


def test_singular_fiber_probe_rejects_off_pencil_points():
    rng = Rng(103)
    p = 3
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    pencil = quadric_pencil(samp.sigma, samp.flag, u7)
    for _ in range(100):
        c = rng.ints(6, p)
        if c.any() and pencil.value_at(c) != (0, 0):
            va = int(np.einsum("i,ij,j->", c, pencil.q_a, c) % p)
            vb = int(np.einsum("i,ij,j->", c, pencil.q_b, c) % p)
            assert (va, vb) == pencil.value_at(c)
            return
    raise AssertionError("every probe landed on the pencil; degenerate sample")


def test_quotient_u7_coords_roundtrip():
    rng = Rng(104)
    p = 7
    samp = nondegenerate_sample(rng, p)
    u7 = sample_u7_over(rng, samp.flag)
    v1 = samp.flag[0]
    rows = np.array(complement_rows(u7, v1), dtype=np.int64)
    coeffs = rng.ints(6, p)
    shift = rng.below(p)
    vec = (coeffs @ rows + shift * v1.basis[0]) % p
    assert np.array_equal(quotient_u7_coords(u7, v1, vec), coeffs)

    batch = rng.matrix(5, 6, p)
    vecs = (batch @ rows + rng.ints(5, p)[:, None] * v1.basis[0]) % p
    assert np.array_equal(quotient_u7_coords(u7, v1, vecs), batch)
    assert all(np.array_equal(quotient_u7_coords(u7, v1, v), c) for v, c in zip(vecs, batch))
    off_u7 = complement_rows(full_space(10, p), u7)[0]
    with pytest.raises(ValueError):
        quotient_u7_coords(u7, v1, off_u7)


def test_projective_rep():
    batch = np.array([[0, 3, 6], [2, 0, 1], [0, 0, 5]])
    assert projective_rep(batch, 7).tolist() == [[0, 1, 2], [1, 0, 4], [0, 0, 1]]
    with pytest.raises(ValueError):
        projective_rep(np.vstack([batch, np.zeros((1, 3), dtype=np.int64)]), 7)


def residue_rank2(sigma, flag, u2, u7):
    """The residue route: mod-A2 rank <= 2 of sigma_dprime in the canonical frame."""
    u9 = u7_perp(sigma, flag, u7)
    frame = np.array(complement_rows(u9, u7) + complement_rows(u7, u2), dtype=np.int64)
    generator = complement_rows(u2, flag[0])[0]
    resid = sigma_dprime(sigma, flag, u2, u7, frame=frame, generator=generator)
    return linalg.rank(resid.mod_a2_block(), sigma.p) <= 2


def chart_pair(flag, row, p):
    """(U2, U7) at one row (t, s) of the `dprime_rank2_test` chart."""
    v1, v6 = flag
    direction = v6.lift_quotient(np.concatenate([[1], row[:3]]))
    u7 = v6.join(Subspace.span_of(direction, n=v6.n, p=p))
    rows = np.array(complement_rows(u7, v1), dtype=np.int64)
    gen = (rows[0] + row[3:] @ rows[1:]) % p
    return v1.join(Subspace.span_of(gen, n=v6.n, p=p)), u7


def planted_rank2_line(p, seed):
    """The prescribed configuration of a rank-2 residue target: a degenerate probe line."""
    xmat = np.zeros((7, 7), dtype=np.int64)
    xmat[2, 3], xmat[3, 2] = 1, p - 1
    line_rng = Rng(seed)
    for col in range(2, 7):
        xmat[0, col] = line_rng.below(p)
        xmat[col, 0] = (-xmat[0, col]) % p
    return prescribed_dprime_sigma(xmat, p)


def test_birationality_probe_on_planted_line():
    # A rank-2 residue target makes the whole probe line degenerate:
    # all p off-divisor points answer and so does [v1].
    p = 7
    sigma, flag, _, u7, _, gen = planted_rank2_line(p, 105)
    probe = birationality_probe(sigma, flag, gen, u7=u7)
    assert probe.v1_degenerate
    assert probe.off_v6_degenerate == p
    assert probe.count == p + 1


def test_dprime_rank2_test_batch():
    p = 7
    xmat = np.zeros((7, 7), dtype=np.int64)
    xmat[2, 3], xmat[3, 2] = 1, p - 1
    sigma, flag, _, _, _, _ = prescribed_dprime_sigma(xmat, p)
    pred = dprime_rank2_test(sigma, flag)
    chart = np.vstack(
        [np.zeros(8, dtype=np.int64), Rng(106).matrix(4, 8, p)]
    )
    out = pred(chart)
    assert out.shape == (5,) and out.dtype == bool
    assert out[0]  # chart origin is the standard position, rank 2 by design
    again = pred(chart)
    assert np.array_equal(out, again)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_dprime_rank2_test_matches_the_residue_route(p):
    # The mod-A2 rank is the rank of sigma(u0, ., .) on U7, whatever the
    # frame: compare with the residue in the canonical frame on random
    # chart rows, and at the planted rank-2 origin.
    rng = Rng(300 + p)
    hits = 0
    for k in range(3):
        samp = sample_d16_nondegenerate(rng.child(f"sigma-{k}"), p)
        rows = rng.matrix(60, 8, p)
        got = dprime_rank2_test(samp.sigma, samp.flag)(rows)
        want = [residue_rank2(samp.sigma, samp.flag, *chart_pair(samp.flag, row, p)) for row in rows]
        assert got.tolist() == want
        hits += int(got.sum())
    assert p > 7 or hits, "rank-2 pairs should turn up among random rows at small p"
    sigma, flag, u2, u7, _, _ = planted_rank2_line(p, 105)
    origin = np.zeros((1, 8), dtype=np.int64)
    assert chart_pair(flag, origin[0], p)[0] == u2
    assert dprime_rank2_test(sigma, flag)(origin).tolist() == [True]
    assert residue_rank2(sigma, flag, u2, u7)


@pytest.mark.parametrize("p", [7, 11])
def test_birationality_probe_matches_the_residue_route(p):
    rng = Rng(310 + p)
    samp = sample_d16_nondegenerate(rng.child("sigma"), p)
    v1, v6 = samp.flag
    for l in sample_peskine_points(samp.sigma, rng.child("points"), 6, avoid=v6):
        u2 = v1.join(Subspace.span_of(l, n=10, p=p))
        u7 = v6.join(Subspace.span_of(l, n=10, p=p))
        probe = birationality_probe(samp.sigma, samp.flag, l)
        assert probe.v1_degenerate == residue_rank2(samp.sigma, samp.flag, u2, u7)
    sigma, flag, u2, u7, _, gen = planted_rank2_line(p, 105)
    assert birationality_probe(sigma, flag, gen, u7=u7).v1_degenerate
    assert residue_rank2(sigma, flag, u2, u7)
    missing_u2 = flag[1].join(Subspace.span_of(gen + 1, n=10, p=p))  # a U7 through V6 without U2
    with pytest.raises(ValueError):
        birationality_probe(sigma, flag, gen, u7=missing_u2)
