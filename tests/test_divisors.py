"""Structured trivector samplers and the rank-drop scan."""

import numpy as np
import pytest

from peskine_lab import linalg
from peskine_lab.divisors import (
    KINDS,
    rank4_points,
    recover_flag_d1_6_10,
    sample_divisor,
    standard_flag,
    verify_flag,
    zeroed_triples,
)
from peskine_lab.rng import Rng
from peskine_lab.subspaces import Flag, Subspace
from peskine_lab.trivector import Trivector, triple_index, triples


def two_block_sample(rng: Rng, p: int) -> Trivector:
    """Trivector supported on triples inside {0..5} and inside {4..9}.

    Both e_0 and e_9 then contract to forms supported on a 5 x 5 block, so
    the scan for rank <= 4 points finds at least two.
    """
    coeffs = np.zeros(len(triples(10)), dtype=np.int64)
    tindex = triple_index(10)
    for t in triples(10):
        if max(t) <= 5 or min(t) >= 4:
            coeffs[tindex[t]] = rng.below(p)
    return Trivector.from_coeffs(coeffs, 10, p)


def test_zeroed_triple_counts():
    # Counted by hand: pairs-in-V3 22, (0, j<=5, *) 30, inside-V7-meeting-V4 34.
    assert len(zeroed_triples("d3-3-10")) == 22
    assert len(zeroed_triples("d1-6-10")) == 30
    assert len(zeroed_triples("d4-7-7")) == 34
    assert zeroed_triples("general") == ()
    with pytest.raises(ValueError):
        zeroed_triples("d9-9-9")


def test_zeroed_triples_membership():
    assert (0, 1, 7) in zeroed_triples("d3-3-10")
    assert (0, 3, 4) not in zeroed_triples("d3-3-10")
    assert (0, 5, 9) in zeroed_triples("d1-6-10")
    assert (0, 6, 9) not in zeroed_triples("d1-6-10")
    assert (1, 2, 3) not in zeroed_triples("d1-6-10")
    assert (3, 5, 6) in zeroed_triples("d4-7-7")
    assert (4, 5, 6) not in zeroed_triples("d4-7-7")
    assert (0, 1, 7) not in zeroed_triples("d4-7-7")


def test_standard_flag_dims():
    assert standard_flag("d3-3-10", 7).dims() == (3,)
    assert standard_flag("d1-6-10", 7).dims() == (1, 6)
    assert standard_flag("d4-7-7", 7).dims() == (4, 7)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "general"])
def test_sample_divisor_satisfies_its_vanishing(kind):
    rng = Rng(41)
    p = 7
    for _ in range(5):
        samp = sample_divisor(rng, kind, p)
        assert samp.kind == kind
        assert samp.sigma.n == 10
        assert verify_flag(samp.sigma, kind, samp.flag)


def test_sample_divisor_vanishing_on_vectors():
    rng = Rng(42)
    p = 7
    samp = sample_divisor(rng, "d1-6-10", p)
    v1 = samp.flag[0].basis[0]
    # sigma(v1, V6, anything) = 0 for random members.
    for _ in range(10):
        combo = rng.ints(6, p) @ samp.flag[1].basis % p
        x = rng.ints(10, p)
        assert samp.sigma.eval3(v1, combo, x) == 0


def test_verify_flag_rejects_wrong_flag():
    rng = Rng(43)
    p = 7
    samp = sample_divisor(rng, "d1-6-10", p)
    other = sample_divisor(rng, "d1-6-10", p)
    assert not verify_flag(samp.sigma, "d1-6-10", other.flag)
    # Wrong shape is rejected outright.
    assert not verify_flag(samp.sigma, "d3-3-10", standard_flag("d3-3-10", p))


def test_verify_flag_rejects_wrong_d4_7_7_flag():
    # sigma(U4, V7, V7) = 0 fails for another 4-space inside V7 and for
    # another 7-space over U4.
    rng = Rng(45)
    p = 7
    samp = sample_divisor(rng, "d4-7-7", p)
    u4, v7 = samp.flag[0], samp.flag[1]
    assert verify_flag(samp.sigma, "d4-7-7", samp.flag)
    other_u4 = Subspace.from_rows(linalg.mat_mul(rng.matrix(4, 7, p), v7.basis, p), 10, p)
    other_v7 = u4.join(Subspace.from_rows(rng.matrix(3, 10, p), 10, p))
    for flag in (Flag((other_u4, v7)), Flag((u4, other_v7))):
        assert flag.dims() == (4, 7)
        assert not verify_flag(samp.sigma, "d4-7-7", flag)


def test_recover_flag_d1_6_10():
    rng = Rng(44)
    p = 7
    for _ in range(5):
        samp = sample_divisor(rng, "d1-6-10", p)
        v1 = samp.flag[0].basis[0]
        rec = recover_flag_d1_6_10(samp.sigma, v1)
        assert rec[0] == samp.flag[0]
        assert rec[1] == samp.flag[1]


def test_recover_flag_rejects_generic_line():
    rng = Rng(45)
    p = 7
    samp = sample_divisor(rng, "d1-6-10", p)
    # A generic direction has full contraction rank, hence a small kernel.
    bad = rng.ints(10, p)
    while samp.flag[1].contains_vector(bad):
        bad = rng.ints(10, p)
    with pytest.raises(ValueError):
        recover_flag_d1_6_10(samp.sigma, bad)


def test_rank4_points_finds_planted_line():
    rng = Rng(46)
    p = 3
    samp = sample_divisor(rng, "d1-6-10", p)
    pts = rank4_points(samp.sigma)
    v1 = samp.flag[0].basis[0]
    # normalize: first nonzero coordinate 1
    first = next(i for i, c in enumerate(v1) if c)
    rep = tuple(int(x) for x in v1 * linalg.inv_mod(int(v1[first]), p) % p)
    assert rep in pts
    # every reported point really has low rank, checked scalar-wise
    for pt in pts[:50]:
        assert samp.sigma.contract1(np.array(pt)).rank() <= 4


def test_two_block_sample_has_two_rank_drops():
    rng = Rng(47)
    p = 3
    tri = two_block_sample(rng, p)
    e0 = np.eye(10, dtype=np.int64)[0]
    e9 = np.eye(10, dtype=np.int64)[9]
    assert tri.contract1(e0).rank() <= 4
    assert tri.contract1(e9).rank() <= 4
    pts = rank4_points(tri)
    assert len(pts) >= 2


def test_rank4_points_threads_agree():
    rng = Rng(48)
    tri = sample_divisor(rng, "d1-6-10", 3).sigma
    assert rank4_points(tri, threads=1) == rank4_points(tri, threads=4)
