"""Dense exact linear algebra over F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Supported
primes are odd and below 2**31, so a product of two reduced entries never
overflows int64, but a sum of four such products already can.  Every
product-sum of unbounded length therefore goes through `mat_mul`, which
picks float64, int64 or 16-bit limbs from the bound p^2 * inner.  Importing
this module sets numpy's bundled OpenBLAS (the float64 path) to one thread.

Delayed reduction: a sum of `terms` signed products of `factors` reduced
entries each is exact in int64 while (p - 1)^factors * terms < 2^63
(`products_fit_int64`).  Kernels that sum such products (the Pfaffian
kernel in `scan`, `Poly.evaluate_batch`) then reduce once per sum, not
once per factor, and fall back to a reduction after every factor above
the bound.

Conventions:
    * `rref` returns the reduced row echelon form with zero rows dropped,
      pivots scaled to 1, and pivot columns cleared elsewhere.  Two row
      spaces are equal iff their rref matrices are identical.
    * `kernel` returns rows spanning the right null space, themselves in
      rref, so kernels compare by identity too.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .rng import stream_ints

MAX_PRIME = 1 << 31
_FLOAT_EXACT = 1 << 53
_INT_EXACT = 1 << 63


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS, if numpy carries one, to one thread."""
    home = Path(np.__file__).resolve().parent
    for lib in [*home.parent.glob("numpy.libs/*openblas*"), *home.glob(".dylibs/*openblas*")]:
        blas = ctypes.CDLL(str(lib))  # the handle numpy loaded it under
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if (setter := getattr(blas, name, None)) is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter(1)


_one_blas_thread()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class UnsupportedPrime(ValueError):
    """A modulus outside the primes a routine admits: a usage error."""


def check_prime(p: int) -> int:
    """Validate a field modulus: odd prime with 3 <= p < 2**31."""
    if not isinstance(p, (int, np.integer)):
        raise TypeError(f"modulus must be an int, got {type(p).__name__}")
    p = int(p)
    if p < 3 or p >= MAX_PRIME or not is_prime(p):
        raise UnsupportedPrime(f"modulus must be an odd prime in [3, 2^31), got {p}")
    return p


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, -1, p)


def as_field(mat, p: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod p."""
    arr = np.asarray(mat, dtype=np.int64) % p
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """A contiguous read-only int64 copy (or view) of `arr`."""
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p of arrays with entries in [0, p) (1-D or 2-D).

    Uses float64 BLAS while p^2 * inner < 2^53 keeps every sum an exact
    integer, int64 while it stays below 2^63, and otherwise splits b into
    16-bit limbs and the inner dimension into blocks so that each partial
    sum fits int64.
    """
    inner = a.shape[-1]
    bound = (int(p) - 1) ** 2 * inner
    if bound < _FLOAT_EXACT:
        return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    if bound < _INT_EXACT:
        return a @ b % p
    step = (_INT_EXACT >> 1) // ((p - 1) * 0xFFFF)
    hi = lo = 0
    for k in range(0, inner, step):
        ak, bk = a[..., k : k + step], b[k : k + step]
        hi = (hi + ak @ (bk >> 16)) % p
        lo = (lo + ak @ (bk & 0xFFFF)) % p
    return (hi * 0x10000 + lo) % p


def products_fit_int64(p: int, factors: int, terms: int) -> bool:
    """Whether `terms` signed products of `factors` entries in [0, p) sum in int64.

    Every partial product and partial sum is then bounded by
    (p - 1)^factors * terms < 2^63, so the sum may be reduced once at the
    end.
    """
    return (int(p) - 1) ** factors * terms < _INT_EXACT


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (R, pivots) where R has one row per pivot (zero rows dropped),
    each pivot equals 1, pivot columns are zero elsewhere, and pivot column
    indices strictly increase.
    """
    a = as_field(mat, p).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * inv_mod(a[r, c], p) % p
        mask = np.ones(rows, dtype=bool)
        mask[r] = False
        a[mask] = (a[mask] - np.outer(a[mask, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def kernel(mat, p: int) -> np.ndarray:
    """Rows spanning {v : mat @ v = 0 mod p}, in rref."""
    a = np.asarray(mat, dtype=np.int64)
    rows, cols = a.shape
    red, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, fc]) % p
    return rref(basis, p)[0]


def solve(mat, rhs, p: int) -> np.ndarray:
    """One solution of mat @ x = rhs mod p (free variables set to 0).

    Raises ValueError when the system is inconsistent.
    """
    a = as_field(mat, p)
    b = as_field(rhs, p).reshape(-1)
    aug = np.hstack([a, b[:, None]])
    red, pivots = rref(aug, p)
    cols = a.shape[1]
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x


def det(mat, p: int) -> int:
    a = as_field(mat, p).copy()
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"determinant needs a square matrix, got {a.shape}")
    result = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
            result = -result % p
        result = result * int(a[c, c]) % p
        inv = inv_mod(a[c, c], p)
        for r in range(c + 1, n):
            if a[r, c]:
                a[r] = (a[r] - a[r, c] * inv % p * a[c]) % p
    return result


def inverse(mat, p: int) -> np.ndarray:
    a = as_field(mat, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"inverse needs a square matrix, got {a.shape}")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    red, pivots = rref(aug, p)
    if len(pivots) < n or pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular mod p")
    return red[:n, n:]


def sample_gl(rng, n: int, p: int) -> np.ndarray:
    """Uniform invertible n x n matrix: the square case of `sample_full_rank`."""
    return sample_full_rank([rng], n, n, p)[0]


def sample_full_rank(streams, rows: int, cols: int, p: int) -> np.ndarray:
    """(len(streams), rows, cols): per stream, a uniform matrix of rank min(rows, cols).

    By rejection, one `stream_ints` and one `scan.batched_rank` per round:
    only rank-deficient candidates are redrawn, each from its own stream,
    so every stream makes the draws of a rejection loop run on it alone."""
    from .scan import batched_rank  # scan imports this module

    out = np.zeros((len(streams), rows, cols), dtype=np.int64)
    todo = np.arange(len(streams))
    while len(todo):
        draws = stream_ints([streams[i] for i in todo], rows * cols, p)
        out[todo] = draws.reshape(len(todo), rows, cols)
        todo = todo[batched_rank(out[todo], p) < min(rows, cols)]
    return out
