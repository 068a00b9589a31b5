import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from poly_reference import poly_value

from peskine_lab import linalg
from peskine_lab.polynomial import Poly, jacobian, monomials_of_degree, slice_monomials
from peskine_lab.rng import Rng

ADMITTED_PRIMES = [3, 7, 101, 65521, 2**31 - 1]
# The primes on either side of the delay bound of a 15-term cubic whose
# coefficients are not +-1: (p - 1)^3 (15 (p - 2) + 1) < 2^63 holds at
# 28001 and fails at 28019.
CUBIC_BOUND_PRIMES = [28001, 28019]
# The same for fifteen terms with coefficient -1, which are subtracted:
# 16 (p - 1)^3 < 2^63 holds at 832253 and fails at 832291.
SIGNED_CUBIC_BOUND_PRIMES = [832253, 832291]

def xy_poly(p=7):
    # 3*x0^2*x1 + 5*x1 + 1 over F_p
    return Poly.from_dict({(0, 0, 1): 3, (1,): 5, (): 1}, nvars=2, p=p)


def test_evaluate():
    f = xy_poly()
    got = f.evaluate_batch(np.array([[1, 1], [2, 3], [0, 0]]))
    assert got.tolist() == [(3 + 5 + 1) % 7, (3 * 4 * 3 + 5 * 3 + 1) % 7, 1]
    assert f.evaluate_batch(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    # A batch of another width is refused, not read off its first columns.
    for bad in ([[1, 2, 5]], [[1]], [1, 2]):
        with pytest.raises(ValueError, match="batch of points"):
            f.evaluate_batch(np.array(bad))


def test_evaluate_batch_matches_scalar():
    f = xy_poly()
    rng = Rng(3)
    pts = rng.matrix(40, 2, 7)
    batch = f.evaluate_batch(pts)
    assert batch.shape == (40,)
    for row, val in zip(pts, batch):
        assert poly_value(f, row) == int(val)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(ADMITTED_PRIMES + CUBIC_BOUND_PRIMES),
    st.integers(1, 20),
    st.integers(0, 4),
)
def test_evaluate_batch_matches_python_ints(seed, p, nterms, degree):
    # Random terms of degree <= `degree` in 5 variables, evaluated at random
    # points and at (p - 1, ..., p - 1), where every factor is largest; the
    # Jacobian of (f, f^2 + x0) entry by entry against each partial.
    rng = Rng(seed)
    terms = {}
    for _ in range(nterms):
        mono = tuple(int(i) for i in rng.ints(rng.below(degree + 1), 5))
        terms[mono] = rng.below(p) or p - 1
    f = Poly.from_dict(terms, nvars=5, p=p)
    pts = np.vstack([rng.matrix(6, 5, p), np.full((1, 5), p - 1)])
    assert f.evaluate_batch(pts).tolist() == [poly_value(f, x) for x in pts]
    polys = [f, f * f + Poly.variable(0, 5, p)]
    jac = jacobian(polys, pts)
    assert jac.shape == (len(pts), 2, 5)
    want = [[[poly_value(g.partial(i), x) for i in range(5)] for g in polys] for x in pts]
    assert jac.tolist() == want


@pytest.mark.parametrize("p", CUBIC_BOUND_PRIMES + SIGNED_CUBIC_BOUND_PRIMES)
def test_evaluate_batch_exact_at_the_delay_bound(p):
    # Fifteen cubic terms with one coefficient, p - 2 at the first pair of
    # primes and p - 1 at the second, at (p - 1, ..., p - 1), where every
    # product is largest: the smaller prime of each pair reduces the sum
    # once at the end, the larger one after every factor.
    coef = p - 2 if p in CUBIC_BOUND_PRIMES else p - 1
    monos = monomials_of_degree(4, 3)[:15]
    assert len(monos) == 15
    f = Poly.from_dict({m: coef for m in monos}, nvars=4, p=p)
    assert f._plan[0] == (p in (CUBIC_BOUND_PRIMES[0], SIGNED_CUBIC_BOUND_PRIMES[0]))
    pts = np.vstack([np.full((1, 4), p - 1), Rng(p).matrix(5, 4, p)])
    assert f.evaluate_batch(pts).tolist() == [poly_value(f, x) for x in pts]
    assert f.evaluate_batch(pts)[0] == 15 * coef * (p - 1) ** 3 % p


@pytest.mark.parametrize("p", [5, 7, 101, 2**31 - 1])
@pytest.mark.parametrize("d", [0, 1, 3, 5])
def test_restrict_matches_evaluate_batch_on_the_slice(p, d):
    # Polys of degree 0 to 4 in 5 variables, mixed-degree terms and a
    # nonzero constant, restricted to three random slices and to the slice
    # whose entries are all p - 1, against the values on the image points
    # (computed in Python ints), at random t and at t = (p - 1, ..., p - 1);
    # then the zero polynomial, and a batch of no slices.
    rng = Rng(p + 10 * d)
    offsets = np.vstack([rng.matrix(3, 5, p), np.full((1, 5), p - 1)])
    mats = np.concatenate([rng.matrix(3 * d, 5, p).reshape(3, d, 5), np.full((1, d, 5), p - 1)])
    t = np.vstack([rng.matrix(8, d, p), np.full((1, d), p - 1)])
    images = [(t.astype(object) @ m.astype(object) + o) % p for o, m in zip(offsets, mats)]
    for degree in range(5):
        terms = {(): rng.below(p - 1) + 1}
        for _ in range(6):
            mono = tuple(int(i) for i in rng.ints(rng.below(degree + 1), 5))
            terms[mono] = rng.below(p) or p - 1
        f = Poly.from_dict(terms, nvars=5, p=p)
        want = np.stack([f.evaluate_batch(x.astype(np.int64)) for x in images], axis=1)
        for pad in (0, 4):  # own degree, and padded by y0 to degree 4
            coeffs = f.restrict(offsets, mats, pad)
            top = max(pad, f.total_degree())
            assert coeffs.shape == (4, len(monomials_of_degree(d + 1, top)))
            got = linalg.mat_mul(slice_monomials(t, top, p), coeffs.T, p)
            assert got.tolist() == want.tolist()
            assert f.restrict(offsets[:0], mats[:0], pad).shape == (0, coeffs.shape[1])
    zero = Poly.from_dict({}, nvars=5, p=p)
    for pad in (0, 4):
        coeffs = zero.restrict(offsets, mats, pad)
        assert coeffs.shape == (4, len(monomials_of_degree(d + 1, pad))) and not coeffs.any()


@pytest.mark.parametrize("p", [3, 7, 65521, 2**31 - 1])
def test_slice_monomials_match_per_factor_reduction(p):
    # Reduced once at the end while (p - 1)^degree fits int64, else after
    # each factor (every degree above 1 at 2^31 - 1, degree 4 at 65521);
    # rows of p - 1 reach the bound.
    rng = Rng(p)
    t = np.vstack([rng.matrix(40, 5, p), np.full((1, 5), p - 1)])
    y = np.hstack([np.ones((len(t), 1), dtype=np.int64), t]).astype(object)
    for degree in range(5):
        want = np.ones((len(t), len(monomials_of_degree(6, degree))), dtype=object)
        for m, mono in enumerate(monomials_of_degree(6, degree)):
            for i in mono:
                want[:, m] = want[:, m] * y[:, i] % p
        got = slice_monomials(t, degree, p)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_add_mul_consistent_with_evaluation():
    p = 11
    rng = Rng(4)
    f = xy_poly(p)
    g = Poly.from_dict({(0, 1): 2, (): 4}, nvars=2, p=p)
    pts = rng.matrix(20, 2, p)
    fv, gv = f.evaluate_batch(pts), g.evaluate_batch(pts)
    assert (f * g).evaluate_batch(pts).tolist() == (fv * gv % p).tolist()
    assert (f + g).evaluate_batch(pts).tolist() == ((fv + gv) % p).tolist()


def test_partial():
    f = xy_poly()
    # d/dx0 (3 x0^2 x1 + 5 x1 + 1) = 6 x0 x1
    fx = f.partial(0)
    assert fx.as_dict() == {(0, 1): 6}
    # d/dx1 = 3 x0^2 + 5
    fy = f.partial(1)
    assert fy.as_dict() == {(0, 0): 3, (): 5}


def test_total_degree_and_zero():
    f = xy_poly()
    assert f.total_degree() == 3
    assert f.terms
    z = Poly.constant(0, 2, 7)
    assert not z.terms
    assert z.total_degree() == 0
    assert Poly.constant(3, 2, 7).total_degree() == 0


def test_variable_and_scale():
    x1 = Poly.variable(1, 3, 5)
    assert x1.evaluate_batch(np.array([[4, 2, 0]])).tolist() == [2]
    assert x1.scale(3).evaluate_batch(np.array([[0, 2, 0]])).tolist() == [6 % 5]


def test_coefficients_reduced_mod_p():
    f = Poly.from_dict({(0,): 9, (): 7}, nvars=1, p=7)
    assert f.as_dict() == {(0,): 2}
    # Variable indices outside [0, nvars) are refused, negative ones too.
    for mono in [(-1,), (0, -2), (3,), (1, 3)]:
        with pytest.raises(ValueError, match="not in variables"):
            Poly.from_dict({mono: 1}, nvars=3, p=7)


def test_jacobian_matrix():
    p = 7
    f = Poly.from_dict({(0, 0): 1}, nvars=2, p=p)  # x0^2
    g = Poly.from_dict({(0, 1): 1}, nvars=2, p=p)  # x0 x1
    jac = jacobian([f, g], np.array([[3, 4], [0, 0]]))
    # rows: gradients at (3, 4): (2*3, 0) and (4, 3); all zero at the origin
    assert jac.tolist() == [[[6, 0], [4, 3]], [[0, 0], [0, 0]]]
    for bad in ([[3, 4, 5]], [[3]]):
        with pytest.raises(ValueError, match="batch of points"):
            jacobian([f, g], np.array(bad))


def test_monomials_of_degree():
    monos = monomials_of_degree(3, 2)
    assert len(monos) == 6
    assert all(len(m) == 2 for m in monos)
    assert len(set(monos)) == 6


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_divide_linear_round_trips(p):
    # f * ell / ell = f for a random cubic f in 4 variables and linear
    # forms ell with and without a first variable.
    rng = Rng(5)
    monos = monomials_of_degree(4, 3)
    f = Poly.from_dict(dict(zip(monos, rng.ints(len(monos), p).tolist())), 4, p)
    for coeffs in (rng.ints(4, p), [0, 0, 3, p - 1]):
        ell = Poly.from_dict({(k,): int(c) for k, c in enumerate(coeffs)}, 4, p)
        assert (f * ell).divide_linear(ell) == f
    assert Poly.constant(0, 4, p).divide_linear(ell) == Poly.constant(0, 4, p)


def test_divide_linear_raises_on_a_remainder():
    p = 7
    x0, x1 = Poly.variable(0, 3, p), Poly.variable(1, 3, p)
    with pytest.raises(ValueError, match="does not divide"):
        (x0 * x1 + Poly.variable(2, 3, p)).divide_linear(x0 + x1)
    with pytest.raises(ValueError, match="does not divide"):
        Poly.constant(1, 3, p).divide_linear(x0)
    with pytest.raises(ValueError, match="not a nonzero linear form"):
        (x0 * x1).divide_linear(x0 * x0)
    with pytest.raises(ValueError, match="not a nonzero linear form"):
        x0.divide_linear(Poly.constant(0, 3, p))
