"""Wedge-square coordinates, the cubic pencil and the O2/O5 strata."""

import numpy as np
import pytest
from pfaffian_reference import pfaffian
from poly_reference import poly_value

from peskine_lab import linalg
from peskine_lab.checks import sing_o2_predicate
from peskine_lab.orbits import (
    PAIRS_B,
    BElement,
    o5_constructed_sample,
    o5_decompose,
    o5_parametrization,
    o5_reconstruct,
    o5_sufficient_member,
    pencil_cubics,
    pf_mod_line,
    project_to_B,
    wedge,
)
from peskine_lab.polynomial import jacobian
from peskine_lab.rng import Rng


def random_b(rng, p):
    return BElement.from_coords(rng.ints(20, p), p)


def common_zeros(block, p):
    """Rows of the block where both pencil cubics vanish: O2."""
    f1, f2 = pencil_cubics(p)
    return (f1.evaluate_batch(block) == 0) & (f2.evaluate_batch(block) == 0)


def sing_o2(block, p):
    """Rows on O2 where the sing-O2 predicate's test holds."""
    on = common_zeros(block, p)
    on[on] = sing_o2_predicate(p).test_batch(block[on])
    return on


def on_o2(b):
    return bool(common_zeros(b.coords[None], b.p)[0])


def on_sing_o2(b):
    return bool(sing_o2(b.coords[None], b.p)[0])


def scalar_pf_mod_line(b, alpha, beta):
    """pf_mod_line of one element and one line, its quotient matrix built entry by entry."""
    p, m, alpha, beta = b.p, b.lift(), int(alpha), int(beta)
    if beta % p == 0:
        return pfaffian(m[1:, 1:], p)
    n = m[1:, 1:].copy()
    for i in range(2, 7):
        n[0, i - 1] = (beta * int(m[0, i]) - alpha * int(m[1, i])) % p
        n[i - 1, 0] = -n[0, i - 1] % p
    return beta * beta * pfaffian(n, p) % p


def scalar_pf_mod_lines(coords, alpha, beta, p):
    return [scalar_pf_mod_line(BElement.from_coords(c, p), a, b) for c, a, b in zip(coords, alpha, beta)]


def mixed_lines(rng, count, p):
    """Lines (alpha, beta): a third with alpha = 0, a third with beta = 0, the rest both nonzero."""
    alpha, beta = rng.ints(count, p - 1) + 1, rng.ints(count, p - 1) + 1
    alpha[: count // 3] = 0
    beta[count // 3 : 2 * count // 3] = 0
    return alpha, beta


def rank2_b(rng, p):
    x = rng.ints(7, p)
    y = rng.ints(7, p)
    return project_to_B(wedge(x, y, p), p)


def test_belement_entries():
    p = 7
    coords = np.arange(1, 21, dtype=np.int64) % p
    b = BElement.from_coords(coords, p)
    m = b.lift()
    assert m[0, 1] == 0 and m[1, 0] == 0  # the killed pair
    assert m[2, 3] == coords[PAIRS_B.index((3, 4))]
    assert m[3, 2] == (-m[2, 3]) % p
    assert not np.diag(m).any()
    m = b.lift(4)
    assert m[0, 1] == 4 and m[1, 0] == 3  # -4 mod 7
    assert ((m + m.T) % p == 0).all()
    assert b.mod_a2_block().shape == (5, 5)


def test_project_to_b_roundtrip():
    rng = Rng(70)
    p = 7
    m = wedge(rng.ints(7, p), rng.ints(7, p), p)
    b = project_to_B(m, p)
    lifted = b.lift(int(m[0, 1]))
    assert np.array_equal(lifted, m)
    with pytest.raises(ValueError):
        project_to_B(np.eye(7, dtype=np.int64), p)


def test_wedge_is_skew_and_bilinear():
    rng = Rng(71)
    p = 11
    x, y, z = (rng.ints(7, p) for _ in range(3))
    w = wedge(x, y, p)
    assert ((w + w.T) % p == 0).all()
    assert np.array_equal(wedge(x, x, p), np.zeros((7, 7), dtype=np.int64))
    lhs = wedge((x + 2 * z) % p, y, p)
    rhs = (wedge(x, y, p) + 2 * wedge(z, y, p)) % p
    assert np.array_equal(lhs, rhs)


def test_pencil_cubics_shape():
    f1, f2 = pencil_cubics(7)
    for f in (f1, f2):
        assert f.nvars == 20
        assert f.total_degree() == 3
        assert len(f.as_dict()) == 15


def test_pencil_cubics_match_quotient_pfaffians():
    # pf_mod_line evaluates the quotient Pfaffian directly from the lift;
    # the symbolic cubics, and the scalar construction, must agree on both
    # chart axes.
    rng = Rng(72)
    for p in (7, 3, 65521, 2**31 - 1):
        f1, f2 = pencil_cubics(p)
        coords = np.stack([random_b(rng, p).coords for _ in range(40)])
        zero, one = np.zeros(40, dtype=np.int64), np.ones(40, dtype=np.int64)
        for f, alpha, beta in ((f1, zero, one), (f2, one, zero)):
            got = pf_mod_line(coords, alpha, beta, p).tolist()
            assert got == f.evaluate_batch(coords).tolist()
            assert got == scalar_pf_mod_lines(coords, alpha, beta, p)


def test_pf_mod_line_pencil_identity():
    # Lines with alpha = 0, with beta = 0 and with both nonzero, at small
    # and large primes, against the scalar construction and against
    # beta^2 (beta F1 - alpha F2), or F2 where beta = 0.
    rng = Rng(73)
    for p in (11, 3, 65521, 2**31 - 1):
        coords = np.stack([random_b(rng, p).coords for _ in range(60)])
        alpha, beta = mixed_lines(rng, 60, p)
        got = pf_mod_line(coords, alpha, beta, p)
        assert got.tolist() == scalar_pf_mod_lines(coords, alpha, beta, p)
        f1, f2 = pencil_cubics(p)
        v1, v2 = f1.evaluate_batch(coords), f2.evaluate_batch(coords)
        combo = beta * beta % p * ((beta * v1 - alpha * v2) % p) % p
        assert got.tolist() == np.where(beta != 0, combo, v2).tolist()


def test_pf_mod_line_scaling():
    # Pf of the quotient mod c * (alpha, beta) is c^3 times that mod (alpha, beta).
    rng = Rng(74)
    for p, cs in ((7, range(1, 7)), (2**31 - 1, (1, 2, 12345, 2**31 - 2))):
        coords = np.repeat(random_b(rng, p).coords[None], len(cs), axis=0)
        cs = np.array(cs, dtype=np.int64)
        got = pf_mod_line(coords, 2 * cs % p, 3 * cs % p, p).tolist()
        assert got == [pow(int(c), 3, p) * got[0] % p for c in cs]


def test_pf_mod_line_rejects_zero_line():
    # One (0, 0) row among good lines is enough, zero element or not.
    for coords in (np.zeros((3, 20), dtype=np.int64), Rng(79).matrix(3, 20, 7)):
        with pytest.raises(ValueError):
            pf_mod_line(coords, np.array([1, 0, 0]), np.array([0, 1, 0]), 7)
        with pytest.raises(ValueError):
            pf_mod_line(coords[:1], np.array([7]), np.array([0]), 7)


def test_rank2_elements_lie_on_o2():
    rng = Rng(75)
    p = 7
    for _ in range(20):
        b = rank2_b(rng, p)
        assert on_o2(b)
        lines = np.array([[0, 1], [1, 0], [2, 5]])
        assert not pf_mod_line(np.repeat(b.coords[None], 3, axis=0), *lines.T, p).any()


def test_generic_elements_mostly_off_o2():
    rng = Rng(76)
    p = 101
    hits = sum(on_o2(random_b(rng, p)) for _ in range(50))
    assert hits <= 2


def test_o2_jacobian_is_directional_derivative():
    # For a cubic f, f(b + t h) is a cubic in t whose linear coefficient
    # is grad f(b) . h; fit it from four field values.
    rng = Rng(77)
    p = 11
    f1, f2 = pencil_cubics(p)
    b = random_b(rng, p)
    h = rng.ints(20, p)
    jac = jacobian([f1, f2], b.coords[None])[0]
    assert jac.shape == (2, 20)
    vander = np.array([[t**k % p for k in range(4)] for t in range(4)], dtype=np.int64)
    for row, f in ((0, f1), (1, f2)):
        vals = np.array(
            [poly_value(f, (b.coords + t * h) % p) for t in range(4)], dtype=np.int64
        )
        poly_in_t = linalg.solve(vander, vals, p)
        assert int(poly_in_t[1]) == int(jac[row] @ h % p)


def test_sing_o2_zero_element():
    b = BElement.zero(7)
    assert on_o2(b)
    assert on_sing_o2(b)
    assert not jacobian(list(pencil_cubics(7)), b.coords[None]).any()


def test_sing_o2_needs_membership():
    # Random elements, and rank-2 elements, where both cubics and their
    # gradients (4 x 4 sub-Pfaffians) vanish: sing-O2 implies O2.
    rng = Rng(78)
    p = 7
    block = np.vstack([rng.matrix(200, 20, p)] + [rank2_b(rng, p).coords for _ in range(20)])
    on = common_zeros(block, p)
    sing = sing_o2(block, p)
    assert on[200:].all() and sing[200:].all()
    assert not (sing & ~on).any()
    assert (on & ~sing)[:200].any()  # smooth points of O2 among the random ones


def test_o5_constructed_sample_properties():
    rng = Rng(80)
    p = 7
    for _ in range(10):
        b = o5_constructed_sample(rng, p)
        assert o5_sufficient_member(b)
        dec = o5_decompose(b)
        assert o5_reconstruct(dec, p) == b


def test_o5_decompose_rejects_low_rank():
    with pytest.raises(ValueError):
        o5_decompose(BElement.zero(7))


def test_o5_parametrization_lands_in_the_family():
    rng = Rng(81)
    p = 7
    polys = o5_parametrization(p)
    assert len(polys) == 20
    for _ in range(10):
        params = rng.ints(15, p)
        coords = np.array([poly_value(f, params) for f in polys], dtype=np.int64)
        b = BElement.from_coords(coords, p)
        assert linalg.rank(b.mod_a2_block(), p) <= 2
