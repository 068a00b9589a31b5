"""Scalar Pfaffians: the pointwise references for the batched and symbolic forms."""

import numpy as np

from peskine_lab import linalg


def pfaffian(mat, p: int) -> int:
    """Pfaffian by expansion along the first remaining row, memoized.

    Pf on zero indices is 1.  A skew matrix of odd size has Pf = 0: an odd
    index set has no perfect matching, and det = 0 there, so
    Pf(M)^2 = det(M) holds for every size.
    """
    m = linalg.as_field(mat, p)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"pfaffian needs a square matrix, got {m.shape}")
    if n % 2:
        return 0
    memo: dict[tuple[int, ...], int] = {}

    def rec(idx: tuple[int, ...]) -> int:
        if not idx:
            return 1
        cached = memo.get(idx)
        if cached is not None:
            return cached
        s0 = idx[0]
        total = 0
        sign = 1
        for k in range(1, len(idx)):
            sk = idx[k]
            entry = int(m[s0, sk])
            if entry:
                rest = idx[1:k] + idx[k + 1 :]
                total += sign * entry * rec(rest)
            sign = -sign
        total %= p
        memo[idx] = total
        return total

    return rec(tuple(range(n)))


def pfaffian_mod_radical(mat: np.ndarray, x, y, p: int) -> int:
    """Pfaffian of a skew form induced on the quotient by two radical vectors.

    For a skew m x m matrix M (m even) whose radical contains the
    independent vectors x and y, the m-2 dimensional quotient form has a
    Pfaffian that is well defined once a volume is fixed; this uses the
    convention that (x, y, complementary standard vectors) has unit
    determinant.  Concretely: pick the first index pair (a, b) with
    w = x_a y_b - x_b y_a nonzero; then the value is
    sign * Pf(M restricted off {a, b}) / w, independent of the pair.
    """
    m = linalg.as_field(mat, p)
    size = m.shape[0]
    x = linalg.as_field(x, p).reshape(-1)
    y = linalg.as_field(y, p).reshape(-1)
    if size % 2:
        raise ValueError("quotient pfaffian needs even ambient size")
    if linalg.mat_mul(m, x, p).any() or linalg.mat_mul(m, y, p).any():
        raise ValueError("x and y must lie in the radical of the form")
    for a in range(size):
        for b in range(a + 1, size):
            w = (int(x[a]) * int(y[b]) - int(x[b]) * int(y[a])) % p
            if w:
                rest = [i for i in range(size) if i not in (a, b)]
                inversions = sum(1 for s in rest if s > a) + sum(1 for s in rest if s > b)
                sign = 1 if inversions % 2 == 0 else p - 1
                sub = m[np.ix_(rest, rest)]
                return int(sign * pfaffian(sub, p) % p * linalg.inv_mod(w, p) % p)
    raise ValueError("x and y are not independent")
