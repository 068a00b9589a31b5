import numpy as np

from peskine_lab.rng import Rng


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
