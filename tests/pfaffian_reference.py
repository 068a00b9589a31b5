"""Scalar quotient Pfaffian: the pointwise reference for the symbolic forms."""

import numpy as np

from peskine_lab import linalg
from peskine_lab.trivector import pfaffian


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
