from itertools import combinations, product

import numpy as np
import pytest

from peskine_lab import linalg
from peskine_lab.rng import Rng
from peskine_lab.subspaces import Flag, Subspace, all_subspaces, complement_rows, rref_bases


def zero_space(n, p):
    return Subspace.from_rows(np.zeros((0, n), dtype=np.int64), n, p)


def full_space(n, p):
    return Subspace.from_rows(np.eye(n, dtype=np.int64), n, p)


def sample_subspace(rng, n, k, p):
    """Uniform k-dimensional subspace of F_p^n: the row space of a random
    full-rank k x n matrix."""
    if k == 0:
        return zero_space(n, p)
    return Subspace.from_rows(linalg.sample_full_rank([rng], k, n, p)[0], n, p)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def meet(a, b):
    """Intersection through the dual: rows orthogonal to both annihilators."""
    ann = np.vstack([linalg.kernel(a.basis, a.p), linalg.kernel(b.basis, b.p)])
    return Subspace.from_rows(linalg.kernel(ann, a.p), a.n, a.p)


def test_from_rows_canonicalizes():
    a = Subspace.from_rows([[1, 2, 0], [0, 0, 1]], 3, 7)
    b = Subspace.from_rows([[2, 4, 0], [1, 2, 3]], 3, 7)
    assert a == b
    assert a.dim == 2


def test_zero_and_full():
    z = zero_space(4, 5)
    f = full_space(4, 5)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(z)


def test_contains_vector():
    s = Subspace.span_of([1, 1, 0], [0, 0, 1], n=3, p=5)
    assert s.contains_vector([2, 2, 3])
    assert not s.contains_vector([1, 0, 0])


def test_meet_join_dims(rng):
    p = 7
    for _ in range(20):
        a = sample_subspace(rng, 6, 3, p)
        b = sample_subspace(rng, 6, 4, p)
        meet_ab = meet(a, b)
        join = a.join(b)
        assert meet_ab.dim + join.dim == a.dim + b.dim
        assert join.contains(a) and join.contains(b)
        assert a.contains(meet_ab) and b.contains(meet_ab)


def test_coords_of(rng):
    p = 7
    s = sample_subspace(rng, 6, 3, p)
    combo = rng.ints(3, p)
    v = combo @ s.basis % p
    assert np.array_equal(s.coords_of(v) @ s.basis % p, v)


def test_coords_of_outside_vector():
    s = Subspace.span_of([1, 0, 0], [0, 1, 0], n=3, p=5)
    with pytest.raises(ValueError):
        s.coords_of([0, 0, 1])


def test_quotient_lift_roundtrip(rng):
    p = 7
    s = sample_subspace(rng, 6, 2, p)
    v = rng.ints(6, p)
    # Quotient coordinates: v reduced against the rref basis, read off the non-pivot columns.
    q = loop_reduce(s, v)[list(s.complement_pivots())]
    assert q.shape == (4,)
    lifted = s.lift_quotient(q)
    # v and its lift differ by an element of s
    assert s.contains_vector((v - lifted) % p)
    assert not lifted[list(s.pivots)].any()


def test_transform(rng):
    p = 7
    s = sample_subspace(rng, 6, 3, p)
    g = linalg.sample_gl(rng, 6, p)
    t = s.transform(g)
    for row in s.basis:
        assert t.contains_vector(g @ row % p)


def test_complement_rows(rng):
    p = 5
    sub = sample_subspace(rng, 6, 2, p)
    space = sub.join(sample_subspace(rng, 6, 3, p))
    rows = complement_rows(space, sub)
    assert len(rows) == space.dim - sub.dim
    joined = sub.join(Subspace.from_rows(np.array(rows), 6, p))
    assert joined == space


def greedy_complement_rows(space, sub):
    """Reference: walk the basis of `space`, keep each row not yet spanned."""
    rows, out, current = list(sub.basis), [], sub
    for r in space.basis:
        if not current.contains_vector(r):
            out.append(r)
            rows.append(r)
            current = Subspace.from_rows(np.array(rows), space.n, space.p)
    return out


def loop_reduce(space, v):
    """Reference: reduce v against the rref rows one at a time."""
    r = np.array(v, dtype=np.int64) % space.p
    for row, c in zip(space.basis, space.pivots):
        if r[c]:
            r = (r - r[c] * row % space.p) % space.p
    return r


@pytest.mark.parametrize("p", [3, 101, 2**31 - 1])
def test_complement_rows_matches_greedy_loop(p):
    rng = Rng(p % 1000)
    n = 8
    for trial in range(20):
        space = sample_subspace(rng, n, 2 + trial % 6, p)
        # sub: the span of a few random combinations of the rows of space
        # (dependent ones included at p = 3), from the zero space to space.
        coeffs = rng.matrix(trial % (space.dim + 1), space.dim, p)
        sub = Subspace.from_rows(linalg.mat_mul(coeffs, space.basis, p), n, p)
        got = complement_rows(space, sub)
        want = greedy_complement_rows(space, sub)
        assert len(got) == len(want) == space.dim - sub.dim
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("p", [3, 101, 2**31 - 1])
def test_reduction_matches_row_loop(p):
    rng = Rng(p % 997)
    for trial in range(20):
        space = sample_subspace(rng, 7, trial % 8, p)
        inside = linalg.mat_mul(rng.ints(space.dim, p), space.basis, p)
        for v in (rng.ints(7, p), inside, np.full(7, p - 1)):
            r = loop_reduce(space, v)
            assert space.contains_vector(v) == (not r.any())
            # r is v's class: its non-pivot entries lift back to v modulo space.
            assert not r[list(space.pivots)].any()
            assert space.contains_vector((v - space.lift_quotient(r[list(space.complement_pivots())])) % p)
        assert space.contains_vector(inside)


def test_gaussian_binomial_small():
    # Lines in F_3^3: (3^3-1)/(3-1) = 13.
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(3, 3, 5) == 1


@pytest.mark.parametrize("n,k,p", [(3, 1, 3), (4, 2, 3), (3, 2, 5)])
def test_all_subspaces_count(n, k, p):
    spaces = list(all_subspaces(n, k, p))
    assert len(spaces) == gaussian_binomial(n, k, p)
    assert len(set(spaces)) == len(spaces)
    assert all(s.dim == k for s in spaces)
    assert all(np.array_equal(Subspace.from_rows(s.basis, n, p).basis, s.basis) for s in spaces)
    # The order: pivot cells in combinations order, free entries (row-major)
    # in base-p counter order; rref_bases yields the same, one cell a block.
    want = []
    for piv in combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(n) if c > piv[r] and c not in piv]
        for values in product(range(p), repeat=len(free)):
            m = np.zeros((k, n), dtype=np.int64)
            m[range(k), piv] = 1
            for (r, c), v in zip(free, values):
                m[r, c] = v
            want.append((piv, m))
    assert [s.pivots for s in spaces] == [piv for piv, _ in want]
    assert all(np.array_equal(s.basis, m) for s, (_, m) in zip(spaces, want))
    cells = list(rref_bases(n, k, p))
    assert [piv for piv, b in cells for _ in b] == [s.pivots for s in spaces]
    assert np.array_equal(np.concatenate([b for _, b in cells]), np.array([s.basis for s in spaces]))


def test_sample_subspace_dim():
    rng = Rng(77)
    for k in range(7):
        assert sample_subspace(rng, 6, k, 11).dim == k


def test_flag_accessors(rng):
    p = 7
    inner = sample_subspace(rng, 6, 2, p)
    outer = inner.join(sample_subspace(rng, 6, 3, p))
    flag = Flag((inner, outer))
    assert flag.dims() == (2, outer.dim)
    assert flag.p == p and flag.n == 6
    assert flag[0] == inner


def test_flag_rejects_non_increasing(rng):
    a = sample_subspace(rng, 6, 2, 7)
    with pytest.raises(ValueError):
        Flag((a, a))


def test_flag_transform(rng):
    p = 7
    inner = sample_subspace(rng, 6, 1, p)
    outer = inner.join(sample_subspace(rng, 6, 2, p))
    g = linalg.sample_gl(rng, 6, p)
    moved = Flag((inner, outer)).transform(g)
    assert moved[0] == inner.transform(g)
    assert moved[1] == outer.transform(g)
