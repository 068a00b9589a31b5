"""Batched exhaustive scans over F_p^d and P^d(F_p).

The heavy checks walk every point of a projective space and decide, at
each, whether a skew form linear in the point drops rank: the
contraction sigma(u, ., .), or its restriction to a fixed subspace.
Doing that one point at a time in Python is hopeless, so this module
provides one point enumerator, `affine_image_chunks` (every exhaustive
walk is an affine image t @ dirs + base over F_p^d), and vectorized
mod-p kernels: batched contraction, one batched Gauss-Jordan elimination behind rank and
kernel, and one signed-perfect-matching Pfaffian kernel over gathered
pair columns.  `family_ranks` is the one rank-drop test every scan
uses, on any linear family of m x m skew forms (m even or odd): a
cascade of principal Pfaffian minors discards most points cheaply, the
survivors get the exact rank, and the result is the rank capped just
above the bound, which is exact wherever that cap is a proven maximum.
`rank_drop_mask` is its mask on the family of contractions of a
trivector (`locus_points` lists the points of P^(n-1) it keeps, through
the kernels of sigma(w, ., .) over P(W) when cheaper), and `family_pfaffian`
its symbolic twin: a principal Pfaffian of the family as a polynomial.
`family_quotient_pfaffian` divides one such Pfaffian exactly by a linear
form to get the Pfaffian modulo a radical pair, the one path behind the
quotient-Pfaffian cubic and quadrics.
Results are exact at every admitted prime: products go through
`linalg.mat_mul`, elementwise products of two reduced entries fit
int64, and the Pfaffian kernel delays its reduction mod p only while
`linalg.products_fit_int64` holds.

Blocks come in base-p counter order (last coordinate fastest) and are
combined in that order, so results are the same for any thread count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from . import linalg
from .polynomial import Poly
from .rng import Rng
from .trivector import Trivector, perfect_matchings

DEFAULT_CHUNK = 1 << 15


def thread_count(requested: int | None = None) -> int:
    """Worker count: explicit argument, else PESKINE_LAB_THREADS, else 1."""
    if requested is not None and requested > 0:
        return requested
    env = os.environ.get("PESKINE_LAB_THREADS", "")
    if env.strip():
        try:
            val = int(env)
        except ValueError as exc:
            raise ValueError(f"PESKINE_LAB_THREADS must be an integer, got {env!r}") from exc
        if val > 0:
            return val
    return 1


def _join(offsets: np.ndarray, tail: np.ndarray, p: int) -> np.ndarray:
    """offsets + tail mod p for reduced entries, broadcast: one add, one subtract of p
    (where the sum is below p it wraps as uint64 and the unsigned minimum keeps it)."""
    out = offsets + tail
    wide = out.view(np.uint64)
    np.minimum(wide, wide - np.uint64(p), out=wide)
    return out


def affine_image_chunks(
    dirs: np.ndarray, base: np.ndarray, p: int, chunk: int = DEFAULT_CHUNK
) -> Iterator[np.ndarray]:
    """The p^d points t @ dirs + base mod p, in blocks of at most `chunk` rows.

    `dirs` is (d, m) and `base` (m,); t runs over F_p^d in base-p counter
    order (last coordinate fastest).  The image of the last k coordinates
    (p^k <= chunk; `chunk` values of the last one, in runs, when p > chunk)
    is one table, grown a coordinate at a time from the multiples of its
    direction; each block joins it to one offset row per prefix, the same
    enumeration on the other coordinates.  Joins, not products: no BLAS
    threads spin on the many small slices.
    """
    dirs, base = linalg.as_field(dirs, p), linalg.as_field(base, p)
    d, m = dirs.shape
    k = min(d, 1)
    while k < d and p ** (k + 1) <= chunk:
        k += 1
    whole = k == d and p**k <= chunk  # one block: the table starts from base
    tail = (base if whole else np.zeros(m, dtype=np.int64))[None, :]
    for row in dirs[d - k :]:
        multiples = np.arange(min(p, chunk), dtype=np.int64)[:, None] * row % p
        tail = _join(tail[:, None, :], multiples, p).reshape(-1, m)
    if whole:
        yield tail
        return
    per = chunk // len(tail)
    prefixes = affine_image_chunks(dirs[: d - k], base, p, chunk) if k < d else [base[None, :]]
    for offsets in prefixes:
        for start in range(0, len(offsets), per):
            block = offsets[start : start + per, None, :]
            for run in range(0, p**k, len(tail)):
                if run:  # the next `chunk` values of the last coordinate
                    block = (block + tail[-1] + dirs[-1]) % p
                yield _join(block, tail[: p**k - run], p).reshape(-1, m)


def affine_chunks(d: int, p: int, chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """All p^d points of F_p^d in base-p counter order, chunked."""
    return affine_image_chunks(np.eye(d, dtype=np.int64), np.zeros(d, dtype=np.int64), p, chunk)


def projective_count(d: int, p: int) -> int:
    """Number of points of P^d(F_p)."""
    return (p ** (d + 1) - 1) // (p - 1)


def projective_chunks(d: int, p: int, chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Canonical representatives of P^d(F_p): first nonzero coordinate is 1.

    Points come in pivot-major order (pivot 0 first), each pivot block the
    image e_pivot + t @ (e_pivot+1, ..., e_d), t in base-p counter order.
    """
    eye = np.eye(d + 1, dtype=np.int64)
    for pivot in range(d + 1):
        yield from affine_image_chunks(eye[pivot + 1 :], eye[pivot], p, chunk)


def projective_rep(rows: np.ndarray, p: int) -> np.ndarray:
    """Scale every row of a (B, k) batch so its first nonzero coordinate is 1."""
    rows = linalg.as_field(rows, p)
    nonzero = rows != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("zero vector has no projective representative")
    lead = rows[np.arange(len(rows)), nonzero.argmax(axis=1)]
    return rows * _inverses(lead, p)[:, None] % p


def batched_contract1(sigma: Trivector, points: np.ndarray) -> np.ndarray:
    """Skew matrices sigma(u, ., .) for a batch of points u, shape (B, n, n)."""
    n = sigma.n
    mats = linalg.mat_mul(points, sigma.tensor.reshape(n, n * n), sigma.p)
    return mats.reshape(points.shape[0], n, n)


# Unsigned working dtypes of the elimination with their largest values.
_WORK_DTYPES = ((np.uint16, (1 << 16) - 1), (np.uint32, (1 << 32) - 1), (np.uint64, (1 << 64) - 1))


def _gauss_jordan(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Masked Gauss-Jordan elimination of a batch of matrices mod p.

    Returns (reduced, pivot_col): `reduced` has every pivot scaled to 1
    and its column cleared in all other rows, and pivot_col[b, r] is the
    pivot column of row r, or the column count where row r is not a pivot
    row (such rows end up zero).  Sorting the rows by pivot_col gives the
    rref.  The pivot of each column is its first nonzero row not yet used.

    One (rows, cols, batch) copy is eliminated, so every column step runs
    numpy loops of length batch over all matrices at once; a matrix with
    no pivot in the column takes its inverse as 0 and adds zero rows.
    Entries stay unsigned: a step adds mult[r] * (p - scaled pivot row) to
    every row r, mult[r] the row's entry in the column (minus 1 at the
    pivot row, which leaves the scaled pivot row there).  Reduction is
    delayed and cheap (x - x // p * p): a step adds at most (p - 1)^2 to
    an entry, so entries are reduced only when `room` more steps could
    leave the working dtype, the narrowest of uint16, uint32 and uint64
    that holds `cols` steps (uint64 in any case).  The column searched for
    a pivot and the pivot row are reduced at every step.
    """
    batch, rows, cols = mats.shape
    step = (p - 1) ** 2
    dtype, top = next((t, top) for t, top in _WORK_DTYPES if t is np.uint64 or top - p >= cols * step)
    a = (mats - mats // p * p).transpose(1, 2, 0).astype(dtype, order="C")
    q, room, since = dtype(p), (top - p) // step, 0
    pivot_col = np.full((rows, batch), cols, dtype=np.int16)
    row_ids = np.arange(rows)[:, None]
    offsets = np.arange(cols)[:, None] * batch + np.arange(batch)  # of a[0, c, b] in a.ravel()
    for c in range(cols):
        col = a[:, c]
        col -= col // q * q
        # The pivot row of each matrix, `rows` where there is none.
        pr = np.where((col != 0) & (pivot_col == cols), row_ids, rows).min(axis=0, initial=rows)
        has = pr < rows
        if not has.any():
            continue
        if since == room:
            a -= a // q * q
            since = 0
        # Columns c onward of the pivot rows (clipped, and unused, where none).
        row = a.ravel().take(pr * (cols * batch) + offsets[c:], mode="clip")
        row -= row // q * q
        neg = row * (q - _inverses(row[0] * has, p).astype(dtype))
        neg -= neg // q * q
        hit = row_ids == pr
        a[:, c:] += np.where(hit, row[0] - has, col)[:, None, :] * neg
        pivot_col[hit] = c
        since += 1
    a -= a // q * q
    return a.transpose(2, 0, 1).astype(np.int64, order="C"), np.ascontiguousarray(pivot_col.T)


def batched_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of matrices mod p via masked elimination.

    Wide matrices are eliminated transposed, one step per row.
    """
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    pivot_col = _gauss_jordan(mats, p)[1]
    return np.count_nonzero(pivot_col < mats.shape[2], axis=1)


def batched_kernel(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Right kernels of a batch of (rows, cols) matrices mod p, in rref.

    Returns (kers, dims): kers[b] has shape (cols, cols), its first
    dims[b] rows equal `linalg.kernel(mats[b], p)` row for row and the
    rest are zero.  The kernel basis read off the reduced form (one row
    per free column) goes through the same elimination once more and its
    rows are sorted by pivot.
    """
    batch, _, cols = mats.shape
    red, pivot_col = _gauss_jordan(mats, p)
    free = np.ones((batch, cols), dtype=bool)
    b_idx, r_idx = np.nonzero(pivot_col < cols)
    free[b_idx, pivot_col[b_idx, r_idx]] = False
    basis = np.zeros((batch, cols, cols), dtype=np.int64)
    # Row f of the basis is e_f minus, at each pivot column c, the entry of
    # c's pivot row at column f; rows at pivot columns are dropped.
    basis[b_idx, :, pivot_col[b_idx, r_idx]] = (p - red[b_idx, r_idx, :]) % p
    basis *= free[:, :, None]
    diag = np.arange(cols)
    basis[:, diag, diag] = free
    red, pivot_col = _gauss_jordan(basis, p)
    order = np.argsort(pivot_col, axis=1, kind="stable")
    kers = np.take_along_axis(red, order[:, :, None], axis=1)
    return kers, np.count_nonzero(free, axis=1)


_INVERSE_TABLE_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Table of inverses mod p (index 0 unused), read-only."""
    return linalg.freeze([0] + [pow(x, -1, p) for x in range(1, p)])


def _inverses(vals: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of nonzero residues.

    A lookup table below _INVERSE_TABLE_LIMIT; above it, where a table
    would take 8p bytes, the Fermat power vals^(p-2) by square and
    multiply (each product of two residues fits int64).
    """
    if p < _INVERSE_TABLE_LIMIT:
        return inverse_table(p)[vals]
    out = np.ones_like(vals)
    base = vals % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@lru_cache(maxsize=None)
def _matching_terms(size: int) -> tuple[tuple[bool, tuple[int, ...]], ...]:
    """Signed perfect matchings of {0..size-1} over pair columns.

    Pair (i, j), i < j, is column c of the combinations(range(size), 2)
    order; each term is (positive sign, the columns of its pairs).
    """
    column = {pair: c for c, pair in enumerate(combinations(range(size), 2))}
    return tuple(
        (sign > 0, tuple(column[pair] for pair in pairs))
        for sign, pairs in perfect_matchings(size)
    )


def _pfaffian_from_pairs(pairs: np.ndarray, size: int, p: int) -> np.ndarray:
    """Pfaffians of a batch of B even-size skew forms given by their pairs.

    `pairs` has shape (C(size, 2), B): row c holds the upper entries
    M[i, j], i < j, of pair c in combinations order, reduced mod p.  One
    pass per signed perfect matching over contiguous rows; a (B, terms,
    pairs) gather costs more memory traffic than it saves in numpy calls.
    Each term is a product of size / 2 entries, added or subtracted by
    its sign.  While (p - 1)^(size / 2) * (size - 1)!! fits int64
    (`linalg.products_fit_int64`) the signed sum is reduced once at the
    end; above that bound every product is reduced after each factor, so
    the sum stays below (size - 1)!! * p.
    """
    matchings = _matching_terms(size)
    delayed = linalg.products_fit_int64(p, size // 2, len(matchings))
    acc = np.zeros(pairs.shape[1], dtype=np.int64)
    term = np.empty_like(acc)
    for positive, cols in matchings:
        term[:] = pairs[cols[0]]
        for c in cols[1:]:
            term *= pairs[c]
            if not delayed:
                term %= p
        if positive:
            acc += term
        else:
            acc -= term
    return acc % p


def batched_pfaffian_minors(mats: np.ndarray, p: int, subset: tuple[int, ...]) -> np.ndarray:
    """Pfaffians of the principal minor on `subset` for a batch of skew mats.

    Same convention as `trivector.pfaffian`: 1 on the empty subset, 0 on
    an odd one.
    """
    size = len(subset)
    if size == 0:
        return np.ones(mats.shape[0], dtype=np.int64) % p
    if size % 2:
        return np.zeros(mats.shape[0], dtype=np.int64)
    n = mats.shape[1]
    flat_idx = [i * n + j for i, j in combinations(subset, 2)]
    return _pfaffian_from_pairs(mats.reshape(mats.shape[0], n * n).T[flat_idx], size, p)


_CASCADE_MINORS = 6


@lru_cache(maxsize=None)
def _cascade_columns(m: int, size: int, p: int) -> tuple[np.ndarray, ...]:
    """Flat form columns (i * m + j over upper pairs) of the cascade minors.

    The principal index subsets of range(m) are _CASCADE_MINORS draws
    from a fixed stream, duplicates dropped.
    """
    stream = Rng(0xD1CE).child(f"rank{size - 2}-minors-{p}-{m}")
    subsets = []
    for _ in range(_CASCADE_MINORS):
        pool = list(range(m))
        stream.shuffle(pool)
        subsets.append(tuple(sorted(pool[:size])))
    return tuple(
        np.array([i * m + j for i, j in combinations(sub, 2)], dtype=np.int64)
        for sub in dict.fromkeys(subsets)
    )


def family_ranks(flat: np.ndarray, points: np.ndarray, bound: int, p: int) -> np.ndarray:
    """Ranks of the skew forms of a linear family, capped at b + 2.

    `flat` has shape (d, m * m): row k is the m x m skew form of the k-th
    coordinate, flattened row-major, so the form at a point u in F_p^d is
    `u @ flat` reshaped to (m, m); m may be even or odd.  Returns
    min(rank, b + 2) at every row of `points`, where b is the even part
    of `bound`, so `ranks <= bound` is the exact rank-drop mask, and the
    ranks are exact wherever b + 2 is a proven maximum.

    A skew form of rank <= bound has rank at most b, so every principal
    Pfaffian of size b + 2 vanishes.  A cascade of such minors, each from
    a gather `points @ flat[:, cols]` over its upper pairs without the
    whole form, drops the rows where one is nonzero (rank >= b + 2 there);
    the survivors get their exact rank from `batched_rank`.
    """
    m = isqrt(flat.shape[1])
    size = bound - bound % 2 + 2
    ranks = np.full(points.shape[0], size, dtype=np.int64)
    alive = np.arange(points.shape[0])
    pts = points
    if 2 <= size <= m:
        for cols in _cascade_columns(m, size, p):
            if not len(alive):
                break
            pairs = linalg.mat_mul(flat[:, cols].T, pts.T, p)
            zero = _pfaffian_from_pairs(pairs, size, p) == 0
            pts, alive = pts[zero], alive[zero]
    if len(alive):
        mats = linalg.mat_mul(pts, flat, p).reshape(len(pts), m, m)
        ranks[alive] = np.minimum(batched_rank(mats, p), size)
    return ranks


def family_pfaffian(flat: np.ndarray, subset: tuple[int, ...], p: int) -> Poly:
    """Pfaffian of the principal minor on `subset`, as a polynomial on the family.

    The symbolic twin of `family_ranks`: `flat` is the same (d, m * m)
    family, and the result is the form of degree len(subset) / 2 in d
    variables whose value at u is the Pfaffian of `u @ flat` reshaped to
    (m, m), restricted to `subset`.  Expansion along the first remaining
    index, memoized on index sets as in `trivector.pfaffian`; each entry
    is a linear form kept as a dict over its nonzero entries.  Same
    convention: 1 on the empty subset, 0 on an odd one.
    """
    d = flat.shape[0]
    m = isqrt(flat.shape[1])
    if len(subset) % 2:
        return Poly.from_dict({}, d, p)
    forms = {
        (i, j): [(v, int(c)) for v, c in enumerate(flat[:, i * m + j] % p) if c]
        for i, j in combinations(subset, 2)
    }
    memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {(): {(): 1}}

    def rec(idx: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        cached = memo.get(idx)
        if cached is not None:
            return cached
        acc: dict[tuple[int, ...], int] = {}
        for k in range(1, len(idx)):
            form = forms[idx[0], idx[k]]
            if not form:
                continue
            sign = 1 if k % 2 else -1
            for mono, a in rec(idx[1:k] + idx[k + 1 :]).items():
                for v, c in form:
                    key = tuple(sorted(mono + (v,)))
                    acc[key] = (acc.get(key, 0) + sign * a * c) % p
        memo[idx] = acc
        return acc

    return Poly.from_dict(rec(tuple(subset)), d, p)


def family_quotient_pfaffian(flat: np.ndarray, xs: np.ndarray, y: np.ndarray, p: int) -> Poly:
    """Pfaffian of a family modulo a radical pair, as a polynomial on the family.

    `flat` is a (d, m * m) family with m even, as in `family_pfaffian`;
    at u in F_p^d the form `u @ flat` has the independent vectors
    x = u @ xs and y in its radical.  The quotient form on F_p^m / <x, y>
    has a Pfaffian Q(u) once a volume is fixed: (x, y, complementary
    standard vectors) has unit determinant.  With w_ab = x_a y_b - x_b y_a,
    the Pfaffian of the form off {a, b} is sign * w_ab * Q for every pair
    (a, b), sign the parity of the inversions that move a and b to the
    front, a polynomial identity in u.  So Q is that Pfaffian divided by
    w_ab exactly, for the first pair in `combinations` order where w_ab
    is a nonzero linear form; a remainder raises ValueError.
    """
    d = flat.shape[0]
    m = isqrt(flat.shape[1])
    if m % 2:
        raise ValueError("quotient pfaffian needs even ambient size")
    xs, y = linalg.as_field(xs, p), linalg.as_field(y, p).reshape(-1)
    for a, b in combinations(range(m), 2):
        w = (xs[:, a] * y[b] - xs[:, b] * y[a]) % p
        if w.any():
            rest = tuple(i for i in range(m) if i not in (a, b))
            sign = 1 if (a + b) % 2 else -1
            pf = family_pfaffian(flat, rest, p).scale(sign)
            return pf.divide_linear(Poly.from_dict({(k,): int(c) for k, c in enumerate(w)}, d, p))
    raise ValueError("x and y are not independent")


def rank_drop_mask(sigma: Trivector, points: np.ndarray, bound: int) -> np.ndarray:
    """Exact mask of the rows u of `points` with rank sigma(u, ., .) <= bound.

    The family of contractions: `family_ranks` on sigma.tensor flattened
    to (n, n * n).
    """
    n = sigma.n
    return family_ranks(sigma.tensor.reshape(n, n * n), points, bound, sigma.p) <= bound


def locus_points(sigma: Trivector, bound: int, threads: int | None = None) -> list[tuple]:
    """Canonical representatives of the [u] in P(F_p^n) with rank sigma(u, ., .) <= bound,
    in `projective_chunks` order.

    With b the even part of `bound` and W the span of the first b + 1
    coordinates, the kernel at such a u (dimension >= n - b) meets W in some
    w != 0, and by alternation u lies in ker sigma(w, ., .): only those P(ker)
    are tested, by blocks of P(W), then sorted.  Where the price |P(W)| + sum
    of |P(ker)| reaches |P^(n-1)| (sigma = 0, or b + 1 >= n) all of P^(n-1) is.
    """
    n, p, b = sigma.n, sigma.p, bound - bound % 2

    def test(rows: np.ndarray) -> np.ndarray:
        return rows[rank_drop_mask(sigma, rows, bound)]

    def contractions(block: np.ndarray) -> np.ndarray:
        return batched_contract1(sigma, np.hstack([block, np.zeros((len(block), n - b - 1), np.int64)]))

    def price(block: np.ndarray) -> int:
        dims = np.bincount(n - batched_rank(contractions(block), p))
        return len(block) + sum(int(c) * projective_count(k - 1, p) for k, c in enumerate(dims) if c)

    def hits(block: np.ndarray) -> np.ndarray:
        kers, dims = batched_kernel(contractions(block), p)
        cands = np.vstack([  # every point of P(ker), one product per kernel dimension k
            linalg.mat_mul(np.vstack(list(projective_chunks(k - 1, p))), basis, p).reshape(-1, n)
            for k in sorted(set(dims.tolist()))
            for basis in [kers[dims == k, :k].transpose(1, 0, 2).reshape(k, -1)]
        ])
        return test(_canonical_order(projective_rep(cands, p)))

    worker, chunks = test, projective_chunks(n - 1, p)
    if 0 <= b < n - 1:
        cost, size = sum(run_chunked(price, projective_chunks(b, p), threads)), projective_count(b, p)
        if cost < projective_count(n - 1, p):  # blocks of P(W) with about DEFAULT_CHUNK candidates
            worker, chunks = hits, projective_chunks(b, p, max(1, DEFAULT_CHUNK * size // cost))
    found = _canonical_order(np.vstack(run_chunked(worker, chunks, threads)))
    return [tuple(u) for u in found.tolist()]


def _canonical_order(rows: np.ndarray) -> np.ndarray:
    """Distinct canonical representatives in `projective_chunks` order: pivot, then lexicographic."""
    rows = rows[np.lexsort(np.vstack([rows.T[::-1], (rows != 0).argmax(axis=1)]))]
    return np.vstack([rows[:1], rows[1:][(rows[1:] != rows[:-1]).any(axis=1)]])


def run_chunked(
    worker: Callable[[np.ndarray], object],
    chunks: Iterable[np.ndarray],
    threads: int | None = None,
) -> list:
    """Apply `worker` to every chunk, in order, optionally on a thread pool.

    Chunks are drawn lazily: one at a time with one worker, and with more
    at most 2 x threads chunks are in flight (drawn but not yet worked
    off).  The output list matches the chunk order regardless of thread
    count, which keeps scan results byte-identical under parallelism.
    """
    workers = thread_count(threads)
    if workers <= 1:
        return [worker(c) for c in chunks]
    out = []
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk in chunks:
            pending.append(pool.submit(worker, chunk))
            if len(pending) == 2 * workers:
                out.append(pending.popleft().result())
        out.extend(f.result() for f in pending)
    return out
