"""Exact checks for benchmark outputs, written from the definitions.

Nothing here calls peskine_lab: a trivector is read only through its
lex-ordered coefficient list, every scalar computation uses Python ints,
and ranks of skew forms come from principal Pfaffians.  For a skew
matrix, rank <= 2k holds exactly when every principal Pfaffian of size
2k + 2 vanishes (Pf(A) expands along a row into principal Pfaffians two
sizes smaller, so a nonzero one of any larger size forces a nonzero one
of size 2k + 2).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def contraction(coeffs, n: int, p: int, u) -> list[list[int]]:
    """sigma(u, ., .) as an n x n list of ints mod p.

    sigma = sum c_ijk e_i ^ e_j ^ e_k over i < j < k, so the term c_ijk
    contributes u_i e_j ^ e_k + u_j e_k ^ e_i + u_k e_i ^ e_j.
    """
    m = [[0] * n for _ in range(n)]
    u = [int(x) for x in u]
    for c, (i, j, k) in zip(coeffs, combinations(range(n), 3)):
        c = int(c)
        if not c:
            continue
        for a, b, x in ((j, k, u[i]), (k, i, u[j]), (i, j, u[k])):
            m[a][b] += c * x
            m[b][a] -= c * x
    return [[x % p for x in row] for row in m]


def eval3(coeffs, n: int, p: int, u, v, w) -> int:
    """sigma(u, v, w) = sum c_ijk det of the (i, j, k) columns of (u, v, w)."""
    u, v, w = ([int(x) for x in vec] for vec in (u, v, w))
    total = 0
    for c, (i, j, k) in zip(coeffs, combinations(range(n), 3)):
        c = int(c)
        if c:
            total += c * (
                u[i] * (v[j] * w[k] - v[k] * w[j])
                - u[j] * (v[i] * w[k] - v[k] * w[i])
                + u[k] * (v[i] * w[j] - v[j] * w[i])
            )
    return total % p


def vanishes_on(coeffs, n: int, p: int, rows_a, rows_b, rows_c) -> bool:
    """True iff sigma(a, b, c) = 0 for every a, b, c taken from the three bases."""
    return all(
        eval3(coeffs, n, p, a, b, c) == 0 for a in rows_a for b in rows_b for c in rows_c
    )


class _Pfaffians:
    """Principal Pfaffians of one skew matrix, memoized by index tuple."""

    def __init__(self, m: list[list[int]], p: int) -> None:
        self.m, self.p, self.memo = m, p, {(): 1}

    def __call__(self, idx: tuple[int, ...]) -> int:
        got = self.memo.get(idx)
        if got is None:
            s0, total, sign = idx[0], 0, 1
            for k in range(1, len(idx)):
                entry = self.m[s0][idx[k]]
                if entry:
                    total += sign * entry * self(idx[1:k] + idx[k + 1 :])
                sign = -sign
            got = self.memo[idx] = total % self.p
        return got


def rank_at_most(m: list[list[int]], p: int, bound: int) -> bool:
    """rank <= bound for a skew matrix (bound even): all principal
    Pfaffians of size bound + 2 vanish."""
    pf = _Pfaffians(m, p)
    return all(pf(s) == 0 for s in combinations(range(len(m)), bound + 2))


def skew_rank(m: list[list[int]], p: int) -> int:
    """Largest size of a nonzero principal Pfaffian."""
    pf = _Pfaffians(m, p)
    for size in range(len(m) - len(m) % 2, 0, -2):
        if any(pf(s) for s in combinations(range(len(m)), size)):
            return size
    return 0


def _reduce(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on ints: (nonzero rows, pivot columns)."""
    rows = [[int(x) % p for x in r] for r in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def row_rank(rows, p: int) -> int:
    return len(_reduce(rows, p)[1])


def in_span(vec, basis, p: int) -> bool:
    return row_rank(list(basis) + [vec], p) == row_rank(basis, p)


def annihilator(basis, p: int) -> list[list[int]]:
    """Vectors f spanning {f : b . f = 0 for every row b of the basis}."""
    n = len(basis[0])
    rows, pivots = _reduce(basis, p)
    out = []
    for free in (c for c in range(n) if c not in pivots):
        f = [0] * n
        f[free] = 1
        for row, c in zip(rows, pivots):
            f[c] = -row[free] % p
        out.append(f)
    return out


def is_canonical(point, p: int) -> bool:
    """Entries in [0, p) and first nonzero coordinate equal to 1."""
    first = next((x for x in point if x), None)
    return first == 1 and all(0 <= x < p for x in point)


def canonical(vec, p: int) -> tuple[int, ...]:
    vec = [int(x) % p for x in vec]
    first = next(x for x in vec if x)
    inv = pow(first, -1, p)
    return tuple(x * inv % p for x in vec)


def projective_points(d: int, p: int) -> np.ndarray:
    """Every canonical representative of P^d(F_p), in any order."""
    blocks = []
    for pivot in range(d + 1):
        free = d - pivot
        tail = np.indices((p,) * free).reshape(free, -1).T if free else np.zeros((1, 0), int)
        block = np.zeros((tail.shape[0], d + 1), dtype=np.int64)
        block[:, pivot] = 1
        block[:, pivot + 1 :] = tail
        blocks.append(block)
    return np.vstack(blocks)


def contractions(coeffs, n: int, p: int, points: np.ndarray) -> np.ndarray:
    """sigma(u, ., .) for a batch of points, shape (B, n, n); the
    contraction is linear in u, so it is built from its values at the
    standard basis."""
    basis = np.array(
        [contraction(coeffs, n, p, e) for e in np.eye(n, dtype=int)], dtype=np.int64
    )
    return (np.asarray(points, dtype=np.int64) @ basis.reshape(n, n * n) % p).reshape(-1, n, n)


def _matchings(idx: tuple[int, ...]):
    """Signed perfect matchings of idx: Pf = sum sign * prod M[a, b]."""
    if not idx:
        yield 1, ()
        return
    sign = 1
    for k in range(1, len(idx)):
        for sub_sign, pairs in _matchings(idx[1:k] + idx[k + 1 :]):
            yield sign * sub_sign, ((idx[0], idx[k]),) + pairs
        sign = -sign


def rank_at_most_many(mats: np.ndarray, p: int, bound: int) -> np.ndarray:
    """rank <= bound for each skew matrix of a batch (bound even).

    Principal Pfaffians of size bound + 2 are evaluated subset by subset,
    each only on the matrices that no earlier subset has settled.
    """
    low = np.ones(len(mats), dtype=bool)
    for subset in combinations(range(mats.shape[1]), bound + 2):
        live = np.flatnonzero(low)
        if not len(live):
            break
        m = mats[live]
        pf = np.zeros(len(live), dtype=np.int64)
        for sign, pairs in _matchings(subset):
            term = np.full(len(live), sign % p, dtype=np.int64)
            for a, b in pairs:
                term = term * m[:, a, b] % p
            pf = (pf + term) % p
        low[live[pf != 0]] = False
    return low


def locus_points(coeffs, n: int, p: int, bound: int) -> set[tuple[int, ...]]:
    """All points of P^{n-1}(F_p) where sigma(u, ., .) has rank <= bound,
    tested on the whole space at once."""
    pts = projective_points(n - 1, p)
    low = rank_at_most_many(contractions(coeffs, n, p, pts), p, bound)
    return {tuple(int(x) for x in row) for row in pts[low]}


def random_point(rng, n: int, p: int) -> tuple[int, ...]:
    """A uniform nonzero vector, made canonical; `rng` is a random.Random."""
    while True:
        vec = [rng.randrange(p) for _ in range(n)]
        if any(vec):
            return canonical(vec, p)
