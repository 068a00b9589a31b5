"""Trivectors, skew forms and the scalar reference Pfaffian.

`pfaffian_reference.pfaffian`, which the batched and symbolic Pfaffians
are compared against, is checked here against oracles independent of any
implementation: Pf^2 = det and the 4x4 closed form
pf = a01*a23 - a02*a13 + a03*a12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pfaffian_reference import pfaffian

from peskine_lab import linalg
from peskine_lab.rng import Rng
from peskine_lab.scan import batched_contract1, batched_rank
from peskine_lab.subspaces import Subspace
from peskine_lab.trivector import (
    SkewForm,
    Trivector,
    perfect_matchings,
    triple_index,
    triples,
)


def random_skew(rng, n, p):
    raw = rng.matrix(n, n, p)
    return (raw - raw.T) % p


def test_triples_count():
    assert len(triples(6)) == 20
    assert len(triples(10)) == 120
    idx = triple_index(6)
    assert idx[(0, 1, 2)] == 0
    assert len(idx) == 20


def test_pfaffian_2x2():
    mat = [[0, 3], [-3 % 7, 0]]
    assert pfaffian(mat, 7) == 3


def test_pfaffian_4x4_closed_form():
    rng = Rng(10)
    p = 11
    for _ in range(50):
        a = random_skew(rng, 4, p)
        expected = (
            a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        ) % p
        assert pfaffian(a, p) == expected


def test_pfaffian_odd_size_zero():
    rng = Rng(11)
    for n in (3, 5, 7):
        assert pfaffian(random_skew(rng, n, 7), 7) == 0


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_squares_to_det(n):
    rng = Rng(12)
    for p in (7, 101):
        for _ in range(20):
            a = random_skew(rng, n, p)
            assert pfaffian(a, p) ** 2 % p == linalg.det(a, p)


def test_perfect_matchings_structure():
    ms = perfect_matchings(4)
    assert len(ms) == 3
    signs = sorted(s for s, _ in ms)
    assert signs == [-1, 1, 1]


def test_skew_rank_even(rng):
    p = 7
    for _ in range(30):
        a = random_skew(rng, 6, p)
        r = linalg.rank(a, p)
        assert r % 2 == 0
        assert r == batched_rank(a[None], p)[0]


def test_skewform_apply_and_kernel(rng):
    # sigma(u, ., .) on the rref basis (x, y) of a plane is the values
    # table [[0, w], [-w, 0]] with w = x M y, M the contraction at u.
    p = 7
    tri = Trivector.random(rng, 6, p)
    u = rng.ints(6, p)
    plane = Subspace.from_rows(rng.matrix(2, 6, p), 6, p)
    x, y = plane.basis
    w = int(x @ tri.contract1(u).mat @ y % p)
    assert tri.values(u, plane.basis, plane.basis)[0].tolist() == [[0, w], [(-w) % p, 0]]
    a = random_skew(rng, 6, p)
    form = SkewForm.from_matrix(a, p)
    ker = form.kernel()
    assert ker.dim == 6 - form.rank()
    assert not (ker.basis @ a % p).any()


def test_skewform_apply_exact_at_largest_prime():
    # With sigma(e0, e1, e_k) = p - 1 for k = 2..5, the contraction at e0
    # on the plane of x = e1 and y = (0, 0, 1, p - 1, p - 1, p - 1) has the
    # entry x M y = (p - 1) (1 + 3 (p - 1)) = 2 mod p in Python ints; the
    # int64 sum of the four products near 2^62 would wrap.
    p = 2**31 - 1
    idx = triple_index(6)
    coeffs = np.zeros(len(triples(6)), dtype=np.int64)
    for k in range(2, 6):
        coeffs[idx[(0, 1, k)]] = p - 1
    tri = Trivector.from_coeffs(coeffs, 6, p)
    e0, x = np.eye(6, dtype=np.int64)[:2]
    y = np.array([0, 0, 1, p - 1, p - 1, p - 1])
    m = tri.tensor[0].astype(object)
    want = int(sum(int(x[i]) * m[i, j] * int(y[j]) for i in range(6) for j in range(6)) % p)
    assert want == 2
    plane = Subspace.from_rows(np.vstack([x, y]), 6, p)
    assert np.array_equal(plane.basis, np.vstack([x, y]))
    assert tri.values(e0, plane.basis, plane.basis)[0, 0, 1] == want


def test_trivector_coeff_antisymmetry(rng):
    # The tensor carries every coefficient with the sign of its permutation.
    tri = Trivector.random(rng, 6, 7)
    t = tri.tensor
    assert t[0, 1, 2] == tri.coeffs[triple_index(6)[(0, 1, 2)]]
    assert t[0, 1, 2] == (-t[1, 0, 2]) % 7
    assert t[2, 1, 2] == 0
    assert t[3, 4, 5] == t[4, 5, 3]


def test_eval3_multilinear(rng):
    p = 11
    tri = Trivector.random(rng, 6, p)
    u, v, w, x = (rng.ints(6, p) for _ in range(4))
    lhs = tri.eval3((u + 3 * x) % p, v, w)
    rhs = (tri.eval3(u, v, w) + 3 * tri.eval3(x, v, w)) % p
    assert lhs == rhs
    assert tri.eval3(u, u, w) == 0
    assert tri.eval3(u, v, w) == (-tri.eval3(v, u, w)) % p


def test_contract1_matches_eval3(rng):
    p = 7
    tri = Trivector.random(rng, 6, p)
    u, v, w = (rng.ints(6, p) for _ in range(3))
    form = tri.contract1(u)
    assert int(v @ form.mat @ w % p) == tri.eval3(u, v, w)


def test_values_matches_eval3(rng):
    # The covector sigma(u, v, .) is the values table against the standard
    # basis, and every entry of a batched table is one eval3.
    p = 7
    tri = Trivector.random(rng, 6, p)
    u, v, w = (rng.ints(6, p) for _ in range(3))
    row = tri.values(u, v, np.eye(6, dtype=np.int64))[0, 0]
    assert int(row @ w % p) == tri.eval3(u, v, w)
    a, b, c = rng.matrix(2, 6, p), rng.matrix(3, 6, p), rng.matrix(2, 6, p)
    table = tri.values(a, b, c)
    assert table.shape == (2, 3, 2)
    for (i, j, k), val in np.ndenumerate(table):
        assert val == tri.eval3(a[i], b[j], c[k])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([3, 7, 101, 65521, 2**31 - 1]))
def test_values_matches_python_ints(seed, p):
    # Python-int reference: sigma(a_i, b_j, c_k) = sum T[x, y, z] a_ix b_jy c_kz,
    # on batches of rows that include the all-(p - 1) and all-(p - 2) rows,
    # for a random sigma and for the sigma with every coefficient p - 1.
    rng = Rng(seed)
    a = np.vstack([rng.matrix(2, 10, p), np.full((1, 10), p - 1)])
    b = np.vstack([rng.matrix(3, 10, p), np.full((1, 10), p - 2)])
    c = np.vstack([rng.matrix(1, 10, p), np.full((1, 10), p - 1)])
    full = Trivector.from_coeffs([p - 1] * len(triples(10)), 10, p)
    for tri in (Trivector.random(rng, 10, p), full):
        rows = [x.astype(object) for x in (a, b, c)]
        want = np.einsum("ix,jy,kz,xyz->ijk", *rows, tri.tensor.astype(object)) % p
        got = tri.values(a, b, c)
        assert got.shape == (3, 4, 2)
        assert np.array_equal(got, want.astype(np.int64))
        # One vector is one row: the slice of the batch.
        assert np.array_equal(tri.values(a[1], b, c), got[1:2])
        assert tri.eval3(a[2], b[3], c[0]) == got[2, 3, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([3, 7, 101, 65521, 2**31 - 1]))
def test_contractions_exact_at_admitted_primes(seed, p):
    # Python-int reference: sigma(u, v, w) = sum T[i, j, k] u_i v_j w_k.
    rng = Rng(seed)
    tri = Trivector.random(rng, 6, p)
    u = np.full(6, p - 1, dtype=np.int64)
    v = np.full(6, p - 2, dtype=np.int64)
    w = rng.ints(6, p)
    t = tri.tensor.astype(object)
    mat = np.einsum("i,ijk->jk", u.astype(object), t) % p
    row = v.astype(object) @ mat % p
    assert np.array_equal(tri.contract1(u).mat, mat.astype(np.int64))
    assert np.array_equal(batched_contract1(tri, u[None])[0], mat.astype(np.int64))
    assert tri.values(u, v, np.eye(6, dtype=np.int64))[0, 0].tolist() == row.tolist()
    assert tri.eval3(u, v, w) == int(row @ w.astype(object) % p)


def test_gl_transform_pullback(rng):
    # tau = g-pullback satisfies tau(g^-1 x, ...) = sigma(x, ...); checked
    # in the forward direction on random triples.
    p = 7
    tri = Trivector.random(rng, 6, p)
    g = linalg.sample_gl(rng, 6, p)
    tau = tri.gl_transform(g)
    for _ in range(10):
        u, v, w = (rng.ints(6, p) for _ in range(3))
        lhs = tau.eval3(g @ u % p, g @ v % p, g @ w % p)
        assert lhs == tri.eval3(u, v, w)


def test_gl_transform_composition(rng):
    # tau = T_g(sigma) has tau(gx) = sigma(x), so T_h(T_g(sigma)) = T_{hg}(sigma).
    p = 7
    tri = Trivector.random(rng, 6, p)
    g = linalg.sample_gl(rng, 6, p)
    h = linalg.sample_gl(rng, 6, p)
    once = tri.gl_transform(h @ g % p)
    twice = tri.gl_transform(g).gl_transform(h)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_add_scale_zero(rng):
    p = 7
    a = Trivector.random(rng, 6, p)
    negated = Trivector.from_coeffs(a.coeffs * (p - 1), 6, p)
    zero = Trivector.from_coeffs([0] * len(triples(6)), 6, p)
    assert Trivector.from_coeffs(a.coeffs + negated.coeffs, 6, p) == zero
    assert not zero.coeffs.any()


def test_from_coeffs_roundtrip(rng):
    tri = Trivector.random(rng, 6, 7)
    again = Trivector.from_coeffs(tri.coeffs, 6, 7)
    assert np.array_equal(tri.coeffs, again.coeffs)
