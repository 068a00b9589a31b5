"""Exact linear algebra against known answers and numpy cross-checks."""

import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peskine_lab import linalg
from peskine_lab.rng import Rng

PRIMES = [3, 5, 7, 11, 101, 65537]


def test_is_prime_small():
    hits = [n for n in range(2, 60) if linalg.is_prime(n)]
    assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert linalg.is_prime(65537)
    assert not linalg.is_prime(65536)
    assert not linalg.is_prime(1)


def test_check_prime_rejects():
    with pytest.raises(ValueError):
        linalg.check_prime(2)
    with pytest.raises(ValueError):
        linalg.check_prime(9)
    assert linalg.check_prime(7) == 7


@pytest.mark.parametrize("p", PRIMES)
def test_inv_mod(p):
    for x in range(1, min(p, 50)):
        assert x * linalg.inv_mod(x, p) % p == 1
    with pytest.raises(ValueError):
        linalg.inv_mod(0, p)


def test_rref_pivots():
    red, pivots = linalg.rref([[2, 4, 1], [1, 2, 3]], 7)
    assert pivots == (0, 2)
    assert red.tolist() == [[1, 2, 0], [0, 0, 1]]
    # Same rows collapse over F_5 where [1,2,3] = 3 * [2,4,1].
    red5, pivots5 = linalg.rref([[2, 4, 1], [1, 2, 3]], 5)
    assert pivots5 == (0,)
    assert red5.tolist() == [[1, 2, 3]]


def test_rank_kernel_relation(rng):
    p = 7
    for _ in range(20):
        rows = rng.below(5) + 1
        cols = rng.below(5) + 1
        mat = rng.matrix(rows, cols, p)
        r = linalg.rank(mat, p)
        ker = linalg.kernel(mat, p)
        assert r + len(ker) == cols
        if len(ker):
            assert not (mat @ ker.T % p).any()


def test_solve_roundtrip(rng):
    p = 101
    for _ in range(20):
        mat = linalg.sample_gl(rng, 4, p)
        x = rng.ints(4, p)
        b = mat @ x % p
        assert np.array_equal(linalg.solve(mat, b, p), x)


def test_solve_inconsistent():
    # x = 0 and x = 1 simultaneously.
    with pytest.raises(ValueError):
        linalg.solve([[1], [1]], [0, 1], 7)


def test_det_known_values():
    assert linalg.det([[1, 2], [3, 4]], 7) == (4 - 6) % 7
    assert linalg.det([[2]], 5) == 2
    assert linalg.det([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 11) == 1


def test_det_multiplicative(rng):
    p = 11
    for _ in range(30):
        a = rng.matrix(4, 4, p)
        b = rng.matrix(4, 4, p)
        lhs = linalg.det(a @ b % p, p)
        rhs = linalg.det(a, p) * linalg.det(b, p) % p
        assert lhs == rhs


def test_det_matches_numpy_sign(rng):
    # Integer determinant reduced mod p agrees with the exact field value.
    p = 101
    for _ in range(10):
        a = rng.matrix(5, 5, p)
        exact = round(np.linalg.det(a.astype(float)))
        assert linalg.det(a, p) == exact % p


def test_inverse(rng):
    p = 7
    eye = np.eye(5, dtype=np.int64)
    for _ in range(10):
        g = linalg.sample_gl(rng, 5, p)
        assert np.array_equal(g @ linalg.inverse(g, p) % p, eye)
    with pytest.raises(ValueError):
        linalg.inverse(np.zeros((3, 3), dtype=np.int64), p)


def test_sample_gl_invertible():
    rng = Rng(5)
    for p in (3, 101):
        for _ in range(10):
            g = linalg.sample_gl(rng, 6, p)
            assert linalg.rank(g, p) == 6


def test_sample_full_rank():
    mats = linalg.sample_full_rank([Rng(6).child(f"s-{i}") for i in range(10)], 3, 8, 5)
    assert mats.shape == (10, 3, 8)
    assert all(linalg.rank(m, 5) == 3 for m in mats)


def rejection_loop(rng, rows, cols, p):
    """Per-stream reference: redraw until full rank; returns (matrix, draws)."""
    draws = 0
    while True:
        draws += 1
        m = rng.matrix(rows, cols, p)
        if linalg.rank(m, p) == min(rows, cols):
            return m, draws


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (0, 4)])
def test_sample_full_rank_matches_per_stream_loop(rows, cols):
    # At p = 3 a 1 x 1 draw is zero a third of the time and a 2 x 2 one
    # singular 11 times in 27, so several streams redraw; each must make
    # exactly the draws of its own loop, and be left in the same state.
    # A 0-row matrix (ladder level 0) draws nothing.
    p, count = 3, 40
    streams = [Rng(7).child(f"t-{i}") for i in range(count)]
    refs = [Rng(7).child(f"t-{i}") for i in range(count)]
    got = linalg.sample_full_rank(streams, rows, cols, p)
    assert got.shape == (count, rows, cols)
    want = [rejection_loop(r, rows, cols, p) for r in refs]
    assert np.array_equal(got, np.array([m for m, _ in want]).reshape(count, rows, cols))
    assert [s.u64() for s in streams] == [r.u64() for r in refs]
    if rows:
        assert max(draws for _, draws in want) > 1


def test_sample_gl_matches_det_loop():
    def det_loop(rng, n, p):
        while True:
            g = rng.matrix(n, n, p)
            if linalg.det(g, p) != 0:
                return g

    for seed in range(50):
        n, p = 2 + seed % 4, (3, 5, 101)[seed % 3]
        a, b = Rng(seed), Rng(seed)
        assert np.array_equal(linalg.sample_gl(a, n, p), det_loop(b, n, p))
        assert a.u64() == b.u64()


ADMITTED_PRIMES = [3, 7, 101, 65521, 2**31 - 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ADMITTED_PRIMES))
def test_mat_mul_matches_numpy(seed, p):
    # Reference in Python ints, which cannot overflow.
    rng = Rng(seed)
    a = rng.matrix(3, 4, p)
    b = rng.matrix(4, 2, p)
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(linalg.mat_mul(a, b, p), want.astype(np.int64))
    full = np.full((1, 4), p - 1, dtype=np.int64)
    assert linalg.mat_mul(full, full.T, p).tolist() == [[4 % p]]
    assert int(linalg.mat_mul(a[0], b[:, 0], p)) == int(want[0, 0])
    # At the largest prime below 2^26, (p - 1)^2 alone passes the float64
    # bound 2^51, so both inner dimensions take the limb path; they straddle
    # 2^53, where every sum would still be exact in float64 but its
    # reduction in float64 no longer is.  Both largest sums come back exact.
    edge = 67_108_859
    assert 2 * (edge - 1) ** 2 < 2**53 <= 3 * (edge - 1) ** 2
    for inner in (2, 3):
        full = np.full((inner, inner), edge - 1, dtype=np.int64)
        assert linalg.mat_mul(full, full, edge).tolist() == [[inner] * inner] * inner


def reference_mat_mul(a, b, p):
    """The product in Python ints, which cannot overflow."""
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def full_product(p, inner):
    """mat_mul of (p - 1)-filled operands: every entry the largest sum the bound admits."""
    full = np.full((2, inner), p - 1, dtype=np.int64)
    got = linalg.mat_mul(full, full.T, p)
    assert got.dtype == np.int64
    assert got.tolist() == [[(p - 1) ** 2 * inner % p] * 2] * 2


def largest_prime_below(n):
    return next(q for q in range(n - 1, 2, -1) if linalg.is_prime(q))


@pytest.mark.parametrize(
    "p, last, edge",
    [
        # float32 -> float64: (p - 1)^2 * inner reaches 2^22.
        (1021, 4, linalg._FLOAT32_EXACT),
        (3, 2**20 - 1, linalg._FLOAT32_EXACT),
        # float64 -> limbs: (p - 1)^2 * inner reaches 2^51.
        (largest_prime_below(2**25), 2, linalg._FLOAT64_EXACT),
    ],
)
def test_mat_mul_exact_at_each_path_edge(p, last, edge):
    # `last` is the longest inner dimension below the edge; one more crosses it.
    assert (p - 1) ** 2 * last < edge <= (p - 1) ** 2 * (last + 1)
    for inner in (last, last + 1):
        full_product(p, inner)


def test_mat_mul_limbs_at_largest_prime():
    for inner in (1, 2, 3):
        full_product(2**31 - 1, inner)


@pytest.mark.parametrize("p", [3, 1021, 65521, 2**31 - 1])
def test_mat_mul_degenerate_shapes(p):
    rng = Rng(p)
    a, b = rng.matrix(3, 4, p), rng.matrix(4, 2, p)
    want = reference_mat_mul(a, b, p)
    # vector . vector is a 0-d int64; matrix . vector is 1-d.
    dot = linalg.mat_mul(a[0], b[:, 0], p)
    assert np.ndim(dot) == 0 and np.asarray(dot).dtype == np.int64 and dot == want[0, 0]
    assert linalg.mat_mul(a, b[:, 1], p).tolist() == want[:, 1].tolist()
    # An empty inner dimension sums nothing.
    empty = linalg.mat_mul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), p)
    assert empty.dtype == np.int64 and empty.tolist() == [[0, 0]] * 3


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([3, 4093, 65521, 2**31 - 1]),
    st.tuples(st.integers(0, 4), st.integers(0, 70), st.integers(0, 4)),
    st.booleans(),
    st.booleans(),
)
def test_mat_mul_random_shapes(seed, p, shape, vector, full):
    rows, inner, cols = shape
    rng = Rng(seed)
    a, b = rng.matrix(rows, inner, p), rng.matrix(inner, cols, p)
    if full:
        a[:], b[:] = p - 1, p - 1
    if vector:
        b = b[:, 0] if cols else np.zeros(inner, dtype=np.int64)
    got = linalg.mat_mul(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_mat_mul(a, b, p))


REDUCTION_PRIMES = [3, 5, 7, 11, 101, 1021, 4093, 65521]


@pytest.mark.parametrize("p", REDUCTION_PRIMES)
def test_float32_reduction_exact_below_its_bound(p):
    # Every r the float32 path admits, in chunks; fails once the bound is
    # raised past what the proof in `_float_mod` covers (first at p = 4093,
    # r = 4,232,161, just above 2^22).
    chunk = 1 << 20
    for start in range(0, linalg._FLOAT32_EXACT, chunk):
        r = np.arange(start, min(start + chunk, linalg._FLOAT32_EXACT), dtype=np.int64)
        got = linalg._float_mod(r.astype(np.float32), p)
        assert got.dtype == np.int64
        assert np.array_equal(got, r % p), start


@pytest.mark.parametrize("p", [*REDUCTION_PRIMES, largest_prime_below(2**25), 2**31 - 1])
def test_float64_reduction_exact_below_its_bound(p):
    # Sampled: uniform r, and the multiples of p and those minus 1 at both
    # ends of the range, where (r + 1/2) / p sits 1/(2p) from an integer.
    top = linalg._FLOAT64_EXACT
    k = np.concatenate([np.arange(1, 5001), np.arange(top // p - 5000, top // p + 1)])
    spread = np.random.default_rng(p).integers(0, top, 100_000)
    r = np.concatenate([k * p, k * p - 1, spread, [0, top - 1]])
    r = r[r < top]
    assert np.array_equal(linalg._float_mod(r.astype(np.float64), p), r % p)


def test_mat_mul_long_inner_at_largest_prime():
    # Long enough to need several inner blocks on the 16-bit limb path.
    p = 2**31 - 1
    k = 70000
    full = np.full((1, k), p - 1, dtype=np.int64)
    assert linalg.mat_mul(full, full.T, p).tolist() == [[k % p]]


def test_blas_runs_on_one_thread():
    # Importing the package pins numpy's bundled OpenBLAS for the process.
    import peskine_lab  # noqa: F401

    home = Path(np.__file__).resolve().parent
    libs = [*home.parent.glob("numpy.libs/*openblas*"), *home.glob(".dylibs/*openblas*")]
    name = "scipy_openblas_get_num_threads64_"
    getters = [getattr(b, name) for b in map(ctypes.CDLL, map(str, libs)) if hasattr(b, name)]
    if not getters:
        pytest.skip("numpy carries no scipy-openblas library")
    for get in getters:
        get.argtypes, get.restype = [], ctypes.c_int
        assert get() == 1
