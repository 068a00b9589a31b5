import numpy as np
import pytest

from peskine_lab.rng import Rng, stream_ints

# 2^62 + 5 rejects about a quarter of its raw draws, so most runs of 80
# draws take several passes.
BOUNDS = (3, 5, 7, 101, 2**31 - 1, 2**62 + 5)


def test_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]


def test_below_range():
    rng = Rng(1)
    vals = [rng.below(7) for _ in range(500)]
    assert min(vals) == 0 and max(vals) == 6


def test_ints_and_matrix_shapes():
    rng = Rng(2)
    v = rng.ints(10, 5)
    assert v.shape == (10,) and v.dtype == np.int64
    assert ((0 <= v) & (v < 5)).all()
    m = rng.matrix(3, 4, 11)
    assert m.shape == (3, 4)
    assert ((0 <= m) & (m < 11)).all()


def test_child_does_not_consume_state():
    a = Rng(9)
    b = Rng(9)
    a.child("anything")
    assert a.u64() == b.u64()


def test_child_streams_stable_and_distinct():
    r = Rng(9)
    c1 = [r.child("x").u64() for _ in range(3)]
    # child() is a pure function of (state, label)
    assert c1[0] == c1[1] == c1[2]
    assert r.child("x").u64() != r.child("y").u64()


def test_shuffle_permutes():
    rng = Rng(4)
    items = list(range(20))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("count", [0, 1, 80, 600])
def test_ints_match_below_loop(n, count):
    # One ints(count, n) call gives the values and the end state of count
    # below(n) calls; 2^62 + 5 rejects about a quarter of its raw draws.
    for seed in range(50):
        a, b = Rng(seed), Rng(seed)
        assert a.ints(count, n).tolist() == [b.below(n) for _ in range(count)]
        assert a.u64() == b.u64()


@pytest.mark.parametrize("n", BOUNDS)
def test_stream_ints_match_per_stream_below_loops(n):
    streams = [Rng(11).child(f"s-{i}") for i in range(40)]
    refs = [Rng(11).child(f"s-{i}") for i in range(40)]
    got = stream_ints(streams, 80, n)
    assert got.shape == (40, 80) and got.dtype == np.int64
    assert got.tolist() == [[r.below(n) for _ in range(80)] for r in refs]
    assert [s.u64() for s in streams] == [r.u64() for r in refs]


@pytest.mark.parametrize("n", [0, 2**63, 2**64 + 1])
def test_ints_reject_bounds_outside_int64(n):
    with pytest.raises(ValueError):
        Rng(1).ints(3, n)
    with pytest.raises(ValueError):
        stream_ints([Rng(1)], 3, n)
