"""Chunked enumeration and the batched kernels it feeds."""

import threading
import time
from itertools import combinations, product
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from pfaffian_reference import pfaffian, pfaffian_mod_radical
from poly_reference import poly_value

from peskine_lab import linalg, scan
from peskine_lab.divisors import rank4_points, sample_divisor
from peskine_lab.rng import Rng
from peskine_lab.scan import (
    affine_chunks,
    affine_image_chunks,
    batched_contract1,
    batched_kernel,
    batched_pfaffian_minors,
    batched_rank,
    family_pfaffian,
    family_quotient_pfaffian,
    family_ranks,
    inverse_table,
    locus_points,
    projective_chunks,
    projective_count,
    rank_drop_mask,
    run_chunked,
    thread_count,
)
from peskine_lab.trivector import Trivector, triples


def zero_trivector(n, p):
    return Trivector.from_coeffs([0] * len(triples(n)), n, p)

ADMITTED_PRIMES = [3, 7, 101, 65521, 2**31 - 1]


def collect(chunks):
    return np.vstack(list(chunks))


def test_affine_chunks_cover_everything():
    pts = collect(affine_chunks(3, 3, chunk=7))
    assert pts.shape == (27, 3)
    assert len({tuple(r) for r in pts.tolist()}) == 27


def test_affine_chunks_counter_order():
    pts = collect(affine_chunks(2, 3, chunk=100))
    assert pts[:4].tolist() == [[0, 0], [0, 1], [0, 2], [1, 0]]


def affine_image_reference(dirs, base, p):
    """t @ dirs + base mod p in Python ints, t over F_p^d in counter order."""
    dirs = [[int(x) for x in row] for row in dirs]
    return [
        [(sum(ti * row[j] for ti, row in zip(t, dirs)) + int(b)) % p for j, b in enumerate(base)]
        for t in product(range(p), repeat=len(dirs))
    ]


# d = 0; p^d not a multiple of chunk; chunk a power of p; chunk < p.
@pytest.mark.parametrize(
    "d,p,chunk", [(0, 5, 8), (3, 5, 7), (4, 3, 10), (3, 3, 27), (2, 7, 3), (1, 11, 4)]
)
def test_affine_image_chunks_match_product(d, p, chunk):
    rng = Rng(100 * d + p)
    dirs, base = rng.matrix(d, 4, p), rng.ints(4, p)
    blocks = list(affine_image_chunks(dirs, base, p, chunk))
    assert all(0 < len(b) <= chunk for b in blocks)
    assert np.vstack(blocks).tolist() == affine_image_reference(dirs, base, p)


def test_affine_image_chunks_exact_at_largest_prime():
    # A coordinate of 2^31 - 1 values runs in blocks of 16, each an image
    # of entries p - 1; the second block starts from the stepped offset.
    p = 2**31 - 1
    dirs = np.array([[p - 1, p - 1, 1]], dtype=np.int64)
    base = np.array([p - 1, 0, p - 1], dtype=np.int64)
    chunks = affine_image_chunks(dirs, base, p, chunk=16)
    first, second = next(chunks), next(chunks)
    want = [[(t * int(a) + int(b)) % p for a, b in zip(dirs[0], base)] for t in range(32)]
    assert first.tolist() == want[:16] and second.tolist() == want[16:]


def test_projective_count():
    assert projective_count(1, 3) == 4
    assert projective_count(5, 7) == (7**6 - 1) // 6
    assert projective_count(2, 5) == 31


@pytest.mark.parametrize("d,p", [(1, 3), (2, 3), (2, 5), (3, 3)])
def test_projective_chunks_canonical(d, p):
    pts = collect(projective_chunks(d, p, chunk=11))
    assert pts.shape == (projective_count(d, p), d + 1)
    seen = set()
    for row in pts.tolist():
        nz = [i for i, c in enumerate(row) if c]
        assert row[nz[0]] == 1
        seen.add(tuple(row))
    assert len(seen) == pts.shape[0]


def test_inverse_table():
    for p in (3, 7, 101):
        tab = inverse_table(p)
        assert tab[0] == 0
        for x in range(1, p):
            assert tab[x] * x % p == 1


def test_batched_rank_matches_scalar():
    rng = Rng(21)
    p = 7
    mats = np.stack([rng.matrix(5, 5, p) for _ in range(64)])
    got = batched_rank(mats, p)
    want = [linalg.rank(m, p) for m in mats]
    assert got.tolist() == want


def test_batched_rank_includes_extremes():
    p = 5
    mats = np.stack([np.zeros((4, 4), dtype=np.int64), np.eye(4, dtype=np.int64)])
    assert batched_rank(mats, p).tolist() == [0, 4]


def test_batched_contract1_matches_contract1():
    rng = Rng(22)
    p = 7
    tri = Trivector.random(rng, 6, p)
    pts = rng.matrix(30, 6, p)
    mats = batched_contract1(tri, pts)
    for u, m in zip(pts, mats):
        assert np.array_equal(m, tri.contract1(u).mat)


def test_batched_pfaffian_minors_matches_scalar():
    # Random 10 x 10 skew forms and the one with every upper entry p - 1,
    # whose Pfaffian terms are all largest; minors of every size up to 10,
    # from the empty one, whose Pfaffian is 1.
    subsets = [(), (0, 1), (0, 2, 4), (0, 2, 3, 5), (0, 1, 2, 3, 4, 5), tuple(range(1, 9)), tuple(range(10))]
    for p in [11] + ADMITTED_PRIMES:
        rng = Rng(23)
        raw = np.stack([rng.matrix(10, 10, p) for _ in range(12)] + [np.triu(np.full((10, 10), p - 1), 1)])
        mats = (raw - raw.transpose(0, 2, 1)) % p
        for subset in subsets:
            got = batched_pfaffian_minors(mats, p, [subset])[:, 0]
            idx = np.ix_(subset, subset)
            want = [pfaffian(m[idx], p) for m in mats]
            assert got.tolist() == want, (p, subset)
        # Every principal minor of one size at once, on the leading 7 x 7 block.
        for size in (4, 6):
            got = batched_pfaffian_minors(mats[:, :7, :7], p, combinations(range(7), size))
            want = [[pfaffian(m[np.ix_(s, s)], p) for s in combinations(range(7), size)] for m in mats]
            assert got.tolist() == want, (p, size)


def test_run_chunked_order_independent_of_threads():
    chunks = [np.arange(i, i + 4) for i in range(0, 40, 4)]
    sums1 = run_chunked(lambda c: int(c.sum()), chunks, threads=1)
    sums4 = run_chunked(lambda c: int(c.sum()), chunks, threads=4)
    assert sums1 == sums4
    assert sums1 == [int(c.sum()) for c in chunks]


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("PESKINE_LAB_THREADS", raising=False)
    assert thread_count() == 1
    assert thread_count(3) == 3
    monkeypatch.setenv("PESKINE_LAB_THREADS", "5")
    assert thread_count() == 5
    assert thread_count(2) == 2
    for bad in ("zebra", "-2", "0", "2.5"):  # -2 and 0 once ran silently as 1
        monkeypatch.setenv("PESKINE_LAB_THREADS", bad)
        with pytest.raises(ValueError, match="must be a positive integer"):
            thread_count()
    assert thread_count(2) == 2



@pytest.mark.parametrize("p", [65521, 2**31 - 1])
def test_batched_rank_matches_scalar_at_large_primes(p):
    # Products of 5 x r and r x 5 factors give every rank up to 5.
    rng = Rng(24)
    mats = []
    for r in range(6):
        for _ in range(4):
            left, right = rng.matrix(5, r, p), rng.matrix(r, 5, p)
            mats.append(linalg.mat_mul(left, right, p))
    mats = np.stack(mats)
    assert batched_rank(mats, p).tolist() == [linalg.rank(m, p) for m in mats]


def _kernel_batch(kind, ranks, p, rng):
    """A batch of matrices of one kind, one per drawn rank r: tall 8 x 7 and
    wide 5 x 12 products of rank r (or, rarely, less), 7 x 7 skew forms of
    rank 2 * (r // 2) at most, 1 x 1 matrices (zero where r = 0), all-zero
    3 x 5 matrices, and full-rank 6 x 6 matrices."""
    if kind == "skew":
        return np.stack([_low_rank_form(rng, 7, min(r - r % 2, 6), p) for r in ranks])
    if kind == "zero":
        return np.zeros((len(ranks), 3, 5), dtype=np.int64)
    if kind == "full-rank":
        return linalg.sample_full_rank([rng.child(str(i)) for i in range(len(ranks))], 6, 6, p)
    rows, cols = {"tall": (8, 7), "wide": (5, 12), "1x1": (1, 1)}[kind]
    return np.stack([
        linalg.mat_mul(rng.matrix(rows, k, p), rng.matrix(k, cols, p), p) if k else np.zeros((rows, cols), np.int64)
        for k in (min(r, rows, cols) for r in ranks)
    ])


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([3, 5, 65521, 2**31 - 1]),
    st.sampled_from(["tall", "wide", "skew", "1x1", "zero", "full-rank"]),
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
)
def test_batched_kernel_matches_kernel(seed, p, kind, ranks):
    # Checked against properties that do not share the kernels' construction:
    # every row is annihilated, dims is cols minus the rank, and the rows are
    # independent and in rref; then against the scalar kernel, row for row.
    mats = _kernel_batch(kind, ranks, p, Rng(seed))
    kers, dims = batched_kernel(mats, p)
    cols = mats.shape[2]
    assert kers.shape == (len(ranks), cols, cols)
    for m, ker, dim in zip(mats, kers, dims):
        basis = ker[:dim]
        assert dim == cols - linalg.rank(m, p)
        assert not linalg.mat_mul(m, basis.T, p).any()
        red, pivots = linalg.rref(basis, p)
        assert len(pivots) == dim and np.array_equal(red, basis)
        assert not ker[dim:].any()
        assert np.array_equal(basis, linalg.kernel(m, p))
    # Transposed, tall and wide swap; batched_rank eliminates wide ones along their rows.
    assert batched_rank(mats.transpose(0, 2, 1), p).tolist() == (cols - dims).tolist()


def reference_gauss_jordan(mat: np.ndarray, p: int) -> tuple[list, list]:
    """Gauss-Jordan of one matrix with Python ints, in the layout of
    `scan._gauss_jordan`: the pivot of column c is its first nonzero row
    that is not yet a pivot row; rows never used as pivots end up zero."""
    rows, cols = mat.shape
    a = [[int(x) % p for x in row] for row in mat]
    pivot_col = [cols] * rows
    for c in range(cols):
        r = next((r for r in range(rows) if pivot_col[r] == cols and a[r][c]), None)
        if r is None:
            continue
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for s in range(rows):
            if s != r:
                f = a[s][c]
                a[s] = [(x - f * y) % p for x, y in zip(a[s], a[r])]
        pivot_col[r] = c
    return a, pivot_col


def _edge_primes(cols: int) -> list[int]:
    """For the uint16 and uint32 working dtypes, the largest prime p with
    cols * (p - 1)^2 + p within the dtype (its `cols` steps just fit) and
    the next prime (one dtype wider)."""
    out = []
    for top in ((1 << 16) - 1, (1 << 32) - 1):
        p = isqrt(top // cols) + 1
        while not (linalg.is_prime(p) and cols * (p - 1) ** 2 + p <= top):
            p -= 1
        q = p + 1
        while not linalg.is_prime(q):
            q += 1
        out += [p, q]
    return out


@st.composite
def elimination_batches(draw):
    """A (batch, rows, cols) int64 batch and a prime: tall and wide shapes,
    empty batches, unreduced entries, low-rank, all-zero matrices and
    all-zero columns."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    edges = _edge_primes(cols) if cols else []
    p = draw(st.sampled_from([3, 5, 7, 11, 101, 65521, 2**31 - 1] + edges))
    batch = draw(st.integers(0, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["uniform", "extreme", "low-rank"]))
    if kind == "uniform":  # unreduced entries in [-p, 2p)
        mats = gen.integers(-p, 2 * p, size=(batch, rows, cols))
    elif kind == "extreme":
        mats = gen.choice(np.array([0, 1, p - 1, p, -1]), size=(batch, rows, cols))
    else:  # rows are small combinations of r random rows
        r = draw(st.integers(0, 4))
        mats = gen.integers(0, 3, size=(batch, rows, r)) @ gen.integers(0, p, size=(batch, r, cols))
    mats[gen.random(batch) < 0.2] = 0
    mats[:, :, gen.random(cols) < 0.2] = 0
    return mats.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(elimination_batches())
@example((np.zeros((0, 3, 3), dtype=np.int64), 5))
@example((np.zeros((1, 4, 4), dtype=np.int64), 7))
def test_gauss_jordan_matches_scalar_reference(case):
    mats, p = case
    red, pivot_col = scan._gauss_jordan(mats, p)
    assert red.dtype == np.int64 and pivot_col.dtype == np.int16
    assert red.shape == mats.shape and pivot_col.shape == mats.shape[:2]
    for mat, got, got_cols in zip(mats, red, pivot_col):
        want, want_cols = reference_gauss_jordan(mat, p)
        assert got.tolist() == want
        assert got_cols.tolist() == want_cols


def largest_growth(cols: int, p: int) -> np.ndarray:
    """A cols x cols matrix whose last entry gains (p - 1)^2 at each of the
    first cols - 1 steps, the most an entry can gain before its own column
    is reduced: rows e_c + e_last for c < cols - 1 are the pivots, and the
    last row is all p - 1."""
    mat = np.full((cols, cols), p - 1, dtype=np.int64)
    mat[:-1] = 0
    mat[np.arange(cols - 1), np.arange(cols - 1)] = 1
    mat[:-1, -1] = 1
    return mat


@pytest.mark.parametrize("cols", range(1, 13))
def test_gauss_jordan_exact_at_largest_growth(cols):
    # The edge primes fill uint16 and uint32 to the limit; at 2^31 - 1 a
    # uint64 run holds four steps, so the mid-run reduction fires.
    for p in _edge_primes(cols) + [2**31 - 1]:
        mats = np.stack([largest_growth(cols, p), largest_growth(cols, p).T])
        red, pivot_col = scan._gauss_jordan(mats, p)
        for mat, got, got_cols in zip(mats, red, pivot_col):
            assert (got.tolist(), got_cols.tolist()) == reference_gauss_jordan(mat, p), p


def _planted_sigma(kind, n, p, rng):
    """A trivector of the given kind, plus points planted on its rank-drop locus."""
    if kind == "zero":
        return zero_trivector(n, p), []
    if kind == "decomposable":
        # e0 ^ e1 ^ e2 moved by g: every contraction has rank <= 2, and the
        # image of span(e3, ...) contracts to zero.
        coeffs = np.zeros(len(triples(n)), dtype=np.int64)
        coeffs[0] = 1
        g = linalg.sample_gl(rng, n, p)
        return Trivector.from_coeffs(coeffs, n, p).gl_transform(g), [g[:, n - 1]]
    if kind == "d1-6-10":
        samp = sample_divisor(rng, "d1-6-10", p)
        return samp.sigma, [samp.flag[0].basis[0]]
    return Trivector.random(rng, n, p), []


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(ADMITTED_PRIMES),
    st.sampled_from([(4, 0), (6, 2), (8, 4), (10, 6), (10, 4)]),
    st.sampled_from(["random", "decomposable", "zero", "d1-6-10"]),
)
def test_rank_drop_mask_matches_exact_rank(seed, p, case, kind):
    n, bound = case
    assume(kind != "d1-6-10" or n == 10)
    rng = Rng(seed)
    sigma, planted = _planted_sigma(kind, n, p, rng)
    pts = np.vstack([rng.matrix(60, n, p), np.zeros((1, n), dtype=np.int64)] + [
        np.asarray(v, dtype=np.int64)[None] for v in planted
    ])
    mask = rank_drop_mask(sigma, pts, bound)
    assert mask.tolist() == (batched_rank(batched_contract1(sigma, pts), p) <= bound).tolist()
    assert mask[60:].all()


def _congruence(b, mat, p):
    """b @ mat @ b.T mod p, exact at every admitted prime."""
    return linalg.mat_mul(linalg.mat_mul(b, mat, p), b.T, p)


def _low_rank_form(rng, m, rank, p):
    """A random m x m skew form of rank at most `rank`: U^T S U, S skew rank x rank."""
    if rank == 0:
        return np.zeros((m, m), dtype=np.int64)
    upper = np.triu(rng.matrix(rank, rank, p), 1)
    return _congruence(rng.matrix(rank, m, p).T, (upper - upper.T) % p, p)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(ADMITTED_PRIMES),
    st.sampled_from([9, 10]),
    st.sampled_from([4, 6]),
    st.sampled_from(["random", "shared-radical"]),
)
def test_family_ranks_match_batched_rank(seed, p, m, bound, kind):
    """Capped ranks of a linear family of skew forms, m odd or even.

    Coordinate forms of rank 0, 2, 4 or 6 plant low-rank points at the
    unit vectors; in the shared-radical family every form lives on one
    6-space, so every point survives the cascade and gets its exact rank.
    """
    rng = Rng(seed)
    d = 5
    if kind == "shared-radical":
        u = rng.matrix(6, m, p)
        forms = [_congruence(u.T, _low_rank_form(rng, 6, 6, p), p) for _ in range(d)]
    else:
        forms = [_low_rank_form(rng, m, r, p) for r in (0, 2, 4, 6, m - m % 2)]
    flat = np.stack(forms).reshape(d, m * m)
    unit_and_zero = np.vstack([np.eye(d, dtype=np.int64), np.zeros((1, d), dtype=np.int64)])
    pts = np.vstack([rng.matrix(40, d, p), unit_and_zero])
    exact = batched_rank(linalg.mat_mul(pts, flat, p).reshape(len(pts), m, m), p)
    ranks = family_ranks(flat, pts, bound, p)
    assert ranks.tolist() == np.minimum(exact, bound + 2).tolist()
    assert ranks[-1] == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 6), st.sampled_from(["coordinates", "shared-radical"]))
@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
@pytest.mark.parametrize("m", [7, 10])
def test_cascade_survivors_keep_every_low_rank_row(m, p, seed, bound, kind):
    """Every row of rank <= bound survives the cascade, for odd and even m.

    At 2^31 - 1 the Pfaffian kernel reduces after every factor.  Coordinate
    forms of rank 0, 2, 4 and 6 plant low-rank rows at the unit vectors and
    their sums; in the shared-radical family every form lives on one space
    of dimension b, the even part of the bound, so every row survives.
    """
    rng = Rng(seed)
    b = bound - bound % 2
    if kind == "shared-radical":
        u = rng.matrix(b, m, p)
        forms = [_congruence(u.T, _low_rank_form(rng, b, b, p), p) for _ in range(4)]
    else:
        forms = [_low_rank_form(rng, m, r, p) for r in (0, 2, 4, 6)]
    flat = np.stack(forms).reshape(4, m * m)
    planted = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])
    pts = np.vstack([rng.matrix(40, 4, p), planted])
    exact = batched_rank(linalg.mat_mul(pts, flat, p).reshape(len(pts), m, m), p)
    alive = scan.cascade_survivors(flat, pts, bound, p)
    assert (np.diff(alive) > 0).all()
    assert set(np.flatnonzero(exact <= bound).tolist()) <= set(alive.tolist())
    if kind == "shared-radical":
        assert alive.tolist() == list(range(len(pts)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(ADMITTED_PRIMES),
    st.sampled_from([8, 9]),
    st.integers(0, 8),
)
def test_family_pfaffian_matches_pfaffian(seed, p, m, size):
    """The symbolic principal Pfaffian of a linear family of skew forms.

    At random points and at the zero point its value is the Pfaffian of
    the minor of u @ flat on the subset; it is a form of degree size / 2,
    zero on odd subsets and the constant 1 on the empty one.
    """
    rng = Rng(seed)
    d = 4
    forms = []
    for _ in range(d):
        raw = rng.matrix(m, m, p)
        forms.append((raw - raw.T) % p)
    flat = np.stack(forms).reshape(d, m * m)
    pool = list(range(m))
    rng.shuffle(pool)
    subset = tuple(sorted(pool[:size]))
    poly = family_pfaffian(flat, subset, p)
    assert poly.nvars == d
    assert all(len(mono) == size // 2 for mono, _ in poly.terms)
    assert size % 2 == 0 or not poly.terms
    assert size or poly.terms == (((), 1),)
    pts = np.vstack([rng.matrix(5, d, p), np.zeros((1, d), dtype=np.int64)])
    want = [
        pfaffian(linalg.mat_mul(u, flat, p).reshape(m, m)[np.ix_(subset, subset)], p)
        for u in pts
    ]
    assert [poly_value(poly, u) for u in pts] == want
    assert poly.evaluate_batch(pts).tolist() == want


def radical_family(rng, p, mixed):
    """A family sigma(u, ., .) on F_p^8 for u in a 3-space S, with y in every radical.

    In standard position y = e3 and S = <e5, e6, e7>, and sigma has no
    e3 ^ e_i ^ e_j term for i in 5..7.  With `mixed`, a random GL(8)
    moves everything, so the first pair with a nonzero w_ab is usually
    (0, 1); in standard position it is (3, 5).
    """
    n = 8
    coeffs = rng.ints(len(triples(n)), p)
    for k, t in enumerate(triples(n)):
        if 3 in t and set(t) & {5, 6, 7}:
            coeffs[k] = 0
    sigma = Trivector.from_coeffs(coeffs, n, p)
    xs, y = np.eye(n, dtype=np.int64)[5:], np.eye(n, dtype=np.int64)[3]
    if mixed:
        g = linalg.sample_gl(rng, n, p)
        sigma = sigma.gl_transform(g)
        xs, y = linalg.mat_mul(xs, g.T, p), linalg.mat_mul(g, y, p)
    return linalg.mat_mul(xs, sigma.tensor.reshape(n, n * n), p), xs, y


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
@pytest.mark.parametrize("mixed", [False, True])
def test_family_quotient_pfaffian_matches_scalar_reference(p, mixed):
    """At every point u where u @ xs and y are independent, the symbolic
    quotient Pfaffian (a quadric here) is the scalar reference's value."""
    rng = Rng(p + mixed)
    flat, xs, y = radical_family(rng, p, mixed)
    poly = family_quotient_pfaffian(flat, xs, y, p)
    assert all(len(mono) == 2 for mono, _ in poly.terms)
    values = []
    for u in rng.matrix(12, 3, p):
        x = linalg.mat_mul(u, xs, p)
        if linalg.rank(np.vstack([x, y]), p) < 2:
            continue
        want = pfaffian_mod_radical(linalg.mat_mul(u, flat, p).reshape(8, 8), x, y, p)
        assert poly_value(poly, u) == want
        values.append(want)
    assert len(values) >= 8 and any(values)


def test_family_quotient_pfaffian_rejects_a_dependent_pair():
    flat, xs, y = radical_family(Rng(3), 7, False)
    with pytest.raises(ValueError, match="not independent"):
        family_quotient_pfaffian(flat, np.zeros_like(xs), y, 7)
    with pytest.raises(ValueError, match="even ambient size"):
        family_quotient_pfaffian(np.zeros((3, 49), dtype=np.int64), xs[:, :7], y[:7], 7)


@pytest.mark.parametrize("threads", [1, 4])
def test_run_chunked_bounds_chunks_in_flight(threads):
    lock = threading.Lock()
    state = {"made": 0, "done": 0, "peak": 0}

    def chunks():
        for i in range(40):
            with lock:
                state["made"] += 1
                state["peak"] = max(state["peak"], state["made"] - state["done"])
            yield np.arange(i, i + 3)

    def worker(chunk):
        time.sleep(0.002)
        with lock:
            state["done"] += 1
        return int(chunk.sum())

    assert run_chunked(worker, chunks(), threads=threads) == [3 * i + 3 for i in range(40)]
    assert state["made"] == 40
    assert state["peak"] <= 2 * threads


def full_walk(sigma, bound):
    """`rank_drop_mask` on every block of `projective_chunks`, in order."""
    return [
        tuple(int(x) for x in u)
        for block in projective_chunks(sigma.n - 1, sigma.p)
        for u in block[rank_drop_mask(sigma, block, bound)]
    ]


# (kind, n, p, seed, bound): general sigma at n = 6 and 8, D^{1,6,10} with
# bound 4, bound 6 at n = 10, a decomposable sigma, and the priced
# fallbacks: sigma = 0 and bounds n - 1 and n.
LOCUS_CASES = (
    [("random", 6, p, seed, 2) for p in (3, 7, 11) for seed in (1, 2)]
    + [("random", 8, p, seed, 4) for p in (3, 5) for seed in (1, 2)]
    + [("d1-6-10", 10, 3, 1, 4), ("d1-6-10", 10, 3, 2, 4), ("d1-6-10", 10, 5, 1, 4)]
    + [("random", 10, 3, 1, 6), ("decomposable", 6, 5, 1, 0), ("decomposable", 6, 5, 1, 2)]
    + [("zero", 6, 3, 0, 2), ("random", 6, 3, 1, 5), ("random", 6, 3, 1, 6)]
)


@pytest.mark.parametrize("kind,n,p,seed,bound", LOCUS_CASES)
def test_locus_points_match_the_full_walk(kind, n, p, seed, bound):
    sigma = _planted_sigma(kind, n, p, Rng(seed))[0]
    want = full_walk(sigma, bound)
    assert locus_points(sigma, bound, threads=1) == want
    assert locus_points(sigma, bound, threads=4) == want


def _count_projective_rows(monkeypatch):
    """Rows drawn from `scan.projective_chunks`, by projective dimension."""
    drawn = {}
    plain = scan.projective_chunks

    def counting(d, p, *args):
        for block in plain(d, p, *args):
            drawn[d] = drawn.get(d, 0) + len(block)
            yield block

    monkeypatch.setattr(scan, "projective_chunks", counting)
    return drawn


def test_rank4_points_walks_the_incidence_variety(monkeypatch):
    samp = sample_divisor(Rng(1), "d1-6-10", 5)
    drawn = _count_projective_rows(monkeypatch)
    points = rank4_points(samp.sigma)
    assert tuple(samp.flag[0].basis[0]) in points
    assert 9 not in drawn
    assert sum(drawn.values()) < projective_count(9, 5) // 100
    # P(W) is walked once: one elimination per block both prices the walk and
    # gives its kernels.  Kernel dimensions are even at n = 10 and at n = 6, so no
    # P(ker) is drawn as a P^4 or a P^2 there.
    assert drawn[4] == projective_count(4, 5) == 781
    drawn.clear()
    locus_points(Trivector.random(Rng(1), 6, 7), 2)
    assert drawn[2] == projective_count(2, 7) == 57


@pytest.mark.parametrize("threads", [1, 4])
def test_locus_points_test_slices_of_at_most_default_chunk(monkeypatch, threads):
    # With 64-row slices, blocks of P(W) and groups of kernels (d1-6-10), one
    # P(ker) = P^3(F_5) (decomposable, bound 0) and the full walk (zero) all
    # span more than one slice.
    cases = [
        ("d1-6-10", 10, 3, 1, 4), ("random", 6, 7, 1, 2), ("decomposable", 6, 5, 1, 0), ("zero", 6, 3, 0, 2)
    ]
    sigmas = [(_planted_sigma(kind, n, p, Rng(seed))[0], bound) for kind, n, p, seed, bound in cases]
    wants = [full_walk(sigma, bound) for sigma, bound in sigmas]
    sizes = []
    plain = scan.rank_drop_mask

    def recording(sigma, points, bound):
        sizes.append(len(points))
        return plain(sigma, points, bound)

    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 64)
    monkeypatch.setattr(scan, "rank_drop_mask", recording)
    for (sigma, bound), want in zip(sigmas, wants):
        assert locus_points(sigma, bound, threads=threads) == want
    assert max(sizes) == 64


def test_zero_sigma_takes_the_full_walk(monkeypatch):
    drawn = _count_projective_rows(monkeypatch)
    assert len(locus_points(zero_trivector(6, 3), 2)) == projective_count(5, 3)
    assert drawn[5] == projective_count(5, 3) == 364
