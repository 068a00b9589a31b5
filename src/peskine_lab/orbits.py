"""Coordinate models for the small orbit closures in a 20-dim quotient.

Fix a basis a_1, ..., a_7 of a 7-space A7 and let A2 = <a_1, a_2>.  The
ambient here is B = wedge^2(A7) / wedge^2(A2): coordinates are the ordered
pairs (i, j), 1 <= i < j <= 7, minus the killed pair (1, 2).  Two cubics
F1, F2 (Pfaffians of the quotients mod a_2 and mod a_1) cut out the locus
O2; its singular locus adds the rank-<=1 condition on their Jacobian; and
a 15-parameter family with an explicit normal-form decomposition models
the stratum O5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .polynomial import Poly
from .rng import Rng
from .scan import batched_pfaffian_minors, family_pfaffian, family_ranks

PAIRS_B = tuple((i, j) for i in range(1, 8) for j in range(i + 1, 8) if (i, j) != (1, 2))
# The upper entry (row, column) of the 7 x 7 lift that each B-coordinate fills.
_ROWS, _COLS = (np.array(axis) - 1 for axis in zip(*PAIRS_B))


def lifts(coords: np.ndarray, p: int) -> np.ndarray:
    """(B, 7, 7) skew lifts, with (1,2)-entry 0, of a reduced (B, 20) batch of B-coordinates."""
    m = np.zeros((len(coords), 7, 7), dtype=np.int64)
    m[:, _ROWS, _COLS] = coords
    m[:, _COLS, _ROWS] = -coords % p
    return m


@dataclass(frozen=True)
class BElement:
    """Element of wedge^2(A7)/wedge^2(A2): 20 coordinates, pair-indexed."""

    p: int
    coords: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        if self.coords.shape != (20,):
            raise ValueError(f"expected 20 coordinates, got {self.coords.shape}")

    @classmethod
    def from_coords(cls, coords, p: int) -> "BElement":
        return cls(p=p, coords=linalg.freeze(linalg.as_field(coords, p)))

    @classmethod
    def zero(cls, p: int) -> "BElement":
        return cls.from_coords(np.zeros(20, dtype=np.int64), p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BElement):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash((self.p, self.coords.tobytes()))

    def lift(self, s: int = 0) -> np.ndarray:
        """7x7 skew matrix of the lift with (1,2)-entry s."""
        m = lifts(self.coords[None], self.p)[0]
        m[0, 1], m[1, 0] = s % self.p, -s % self.p
        return m

    def mod_a2_block(self) -> np.ndarray:
        """The induced 5x5 skew matrix on A7/A2 (rows/cols a_3..a_7)."""
        return self.lift()[2:, 2:]


def project_to_B(mat: np.ndarray, p: int) -> BElement:
    """Image of a skew 7x7 wedge-square matrix in B (drops the (1,2) slot)."""
    m = linalg.as_field(mat, p)
    if m.shape != (7, 7) or ((m + m.T) % p).any():
        raise ValueError("need a skew-symmetric 7x7 matrix")
    return BElement.from_coords(m[_ROWS, _COLS], p)


def wedge(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """The skew matrix of x ^ y for 7-vectors x, y."""
    x = linalg.as_field(x, p)
    y = linalg.as_field(y, p)
    return (np.outer(x, y) - np.outer(y, x)) % p


@lru_cache(maxsize=None)
def pencil_cubics(p: int) -> tuple[Poly, Poly]:
    """The two quotient Pfaffians F1 (mod a_2) and F2 (mod a_1).

    Both are cubics in the 20 B-coordinates, 15 monomials each: the
    Pfaffians of the lift family (the lift of each unit coordinate) on
    a_1, a_3..a_7 and on a_2..a_7.  Neither index set holds both a_1 and
    a_2, so the killed (1,2) slot never enters.
    """
    flat = lifts(np.eye(20, dtype=np.int64), p).reshape(20, 49)
    f1 = family_pfaffian(flat, (0, 2, 3, 4, 5, 6), p)
    f2 = family_pfaffian(flat, (1, 2, 3, 4, 5, 6), p)
    return f1, f2


def pf_mod_line(coords: np.ndarray, alpha: np.ndarray, beta: np.ndarray, p: int) -> np.ndarray:
    """Pfaffians of the quotients of a (B, 20) batch mod the lines alpha*a_1 + beta*a_2.

    Each row is built in its pivot chart: for beta != 0 the quotient basis
    is (a_1bar, a_3..a_7) with a_2 eliminated, so the first row is
    beta * m[0, i] - alpha * m[1, i] and the denominators are cleared by
    beta^3; for beta = 0 it is (a_2bar, a_3..a_7), the first row m[1, i].
    Zero/nonzero is chart-independent.  Raises ValueError if some row has
    alpha = beta = 0.
    """
    alpha, beta = linalg.as_field(alpha, p), linalg.as_field(beta, p)
    if ((alpha == 0) & (beta == 0)).any():
        raise ValueError("(alpha, beta) must not both vanish")
    m = lifts(linalg.as_field(coords, p), p)
    a, b = alpha[:, None], beta[:, None]
    top = np.where(b != 0, (b * m[:, 0, 2:] - a * m[:, 1, 2:]) % p, m[:, 1, 2:])
    n = m[:, 1:, 1:]  # the lower block m[2:, 2:] under the chart's first row
    n[:, 0, 1:], n[:, 1:, 0] = top, -top % p
    pf = batched_pfaffian_minors(n, p, range(6))
    return np.where(beta != 0, beta * beta % p * pf % p, pf)


def o5_parametrization(p: int) -> list[Poly]:
    """The 20 coordinates of the 15-parameter family behind the O5 stratum.

    The family is the image in B of l ^ v + a_2 ^ u + t * u1 ^ u2, with
    l = a_1 + s a_2 (the chart alpha = 1 of a line (alpha : beta) in A2).
    Parameters (15): s; six chart coordinates of the plane spanned by
    u1 = a_3 + c11 a_5 + c12 a_6 + c13 a_7 and u2 = a_4 + c21 a_5 + ...;
    five coordinates of v in A7/A2; the lift coefficients y1, y2 of
    u = y1 u1 + y2 u2; and t.
    """
    nv = 15
    var = lambda i: Poly.variable(i, nv, p)
    const = lambda c: Poly.constant(c, nv, p)
    s = var(0)
    c = [[var(1 + 3 * r + k) for k in range(3)] for r in range(2)]
    v = [var(7 + k) for k in range(5)]
    y1, y2 = var(12), var(13)
    t = var(14)

    zero = const(0)
    one = const(1)
    u1 = [one, zero, c[0][0], c[0][1], c[0][2]]
    u2 = [zero, one, c[1][0], c[1][1], c[1][2]]
    u = [y1 * u1[k] + y2 * u2[k] for k in range(5)]

    comp: dict[tuple[int, int], Poly] = {}
    for k in range(5):
        comp[(1, k + 3)] = v[k]
        comp[(2, k + 3)] = s * v[k] + u[k]
    for a in range(5):
        for bb in range(a + 1, 5):
            comp[(a + 3, bb + 3)] = t * (u1[a] * u2[bb] - u1[bb] * u2[a])
    return [comp[pr] for pr in PAIRS_B]


def _min_lift_rank(b: BElement) -> int:
    """The least rank over the p lifts of b, capped at 6.

    lift(s) = lift(0) + s E, E the lift of zero with (1,2)-entry 1, so one
    `family_ranks` call with bound 4 ranks all p points (s, 1); the cap 6
    is the largest rank of a 7 x 7 skew form, so the result is exact.
    """
    p = b.p
    flat = np.stack([BElement.zero(p).lift(1), b.lift()]).reshape(2, 49)
    line = np.column_stack([np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)])
    return int(family_ranks(flat, line, 4, p).min())


def o5_sufficient_member(b: BElement) -> bool:
    """The rank-based sufficient condition for the O5 stratum.

    True iff the induced element of wedge^2(A7/A2) has rank 2 and some lift
    (over the p choices of the (1,2) slot) has rank 4.
    """
    p = b.p
    if linalg.rank(b.mod_a2_block(), p) != 2:
        return False
    return _min_lift_rank(b) == 4


@dataclass(frozen=True)
class O5Decomposition:
    """Normal form b = l ^ x + a_2 ^ y' + t * c3 ^ c4 (mod a_1 ^ a_2)."""

    ell: np.ndarray
    x: np.ndarray
    yprime: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    t: int


def o5_decompose(b: BElement) -> O5Decomposition:
    """Run the constructive normal-form decomposition.

    Writes b, modulo a_1 ^ a_2, as l ^ x + a_2 ^ y' + t c3 ^ c4 (or the
    mirrored chart with a_1 in place of a_2), where (c3, c4) span the
    rank-2 support of b mod A2 and y' lies in that span.  Raises when the
    element does not satisfy the rank conditions or the linear step has no
    solution (which would refute the normal-form claim on this input).
    """
    p = b.p
    block = b.mod_a2_block()
    if linalg.rank(block, p) != 2:
        raise ValueError("mod-A2 rank is not 2")
    red, _ = linalg.rref(block, p)
    r1, r2 = red[0], red[1]
    scale = None
    for i in range(5):
        for j in range(5):
            denom = (int(r1[i]) * int(r2[j]) - int(r1[j]) * int(r2[i])) % p
            if denom:
                scale = int(block[i, j]) * linalg.inv_mod(denom, p) % p
                break
        if scale is not None:
            break
    c3bar = r1 * scale % p
    c4bar = r2
    if not np.array_equal((np.outer(c3bar, c4bar) - np.outer(c4bar, c3bar)) % p, block):
        raise ValueError("rank-2 block is not decomposable (unexpected)")

    xbar = b.lift()[0, 2:].copy()
    ybar = b.lift()[1, 2:].copy()

    c3 = np.zeros(7, dtype=np.int64)
    c4 = np.zeros(7, dtype=np.int64)
    c3[2:], c4[2:] = c3bar, c4bar

    basis = np.vstack([xbar, c3bar, c4bar])
    try:
        sol = linalg.solve(basis.T, ybar, p)
        u = int(sol[0])
        yprime = (sol[1] * c3 + sol[2] * c4) % p
        ell = np.zeros(7, dtype=np.int64)
        ell[0], ell[1] = 1, u
        x = np.zeros(7, dtype=np.int64)
        x[2:] = xbar
        return O5Decomposition(ell=ell, x=x, yprime=yprime, c3=c3, c4=c4, t=1)
    except ValueError:
        pass

    basis = np.vstack([c3bar, c4bar])
    sol = linalg.solve(basis.T, xbar, p)
    yprime = (sol[0] * c3 + sol[1] * c4) % p
    ell = np.zeros(7, dtype=np.int64)
    ell[1] = 1
    x = np.zeros(7, dtype=np.int64)
    x[2:] = ybar
    return O5Decomposition(ell=ell, x=x, yprime=yprime, c3=c3, c4=c4, t=1)


def o5_reconstruct(dec: O5Decomposition, p: int) -> BElement:
    """Rebuild the BElement from a decomposition (the verification oracle)."""
    if dec.ell[0] % p:
        m_vec = np.zeros(7, dtype=np.int64)
        m_vec[1] = 1
    else:
        m_vec = np.zeros(7, dtype=np.int64)
        m_vec[0] = 1
    total = (
        wedge(dec.ell, dec.x, p)
        + wedge(m_vec, dec.yprime, p)
        + dec.t * wedge(dec.c3, dec.c4, p)
    ) % p
    return project_to_B(total, p)


def o5_constructed_sample(rng: Rng, p: int) -> BElement:
    """Random element with full rank 4 and mod-A2 rank 2, by construction.

    Shape: w1 ^ w2 + (w2 + alpha a_1 + beta a_2) ^ w3 with generic w's; the
    mod-A2 image is (w1 - w3) ^ w2, rank 2.  Resamples until both rank
    conditions hold exactly.
    """
    while True:
        w1 = np.concatenate([rng.ints(2, p), rng.ints(5, p)])
        w2 = np.concatenate([rng.ints(2, p), rng.ints(5, p)])
        w3 = np.concatenate([rng.ints(2, p), rng.ints(5, p)])
        alpha, beta = rng.below(p), rng.below(p)
        if alpha == 0 and beta == 0:
            continue
        shift = np.zeros(7, dtype=np.int64)
        shift[0], shift[1] = alpha, beta
        total = (wedge(w1, w2, p) + wedge((w2 + shift) % p, w3, p)) % p
        cand = project_to_B(total, p)
        if linalg.rank(cand.mod_a2_block(), p) != 2:
            continue
        if _min_lift_rank(cand) != 4:
            continue
        return cand
