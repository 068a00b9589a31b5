"""Alternating trivectors on F_p^n and their contractions.

A trivector sigma is stored by its coefficients on the lexicographically
ordered basis e_i ^ e_j ^ e_k, i < j < k. The central objects downstream
are the one-fold contractions sigma(u, ., .), skew bilinear forms whose
rank drops cut out all loci studied here.  This module carries the signed
perfect matchings that `scan.pfaffian_poly` reads each Pfaffian from, and
the exact rank of one skew form.  Every value of sigma on subspaces, and
so every vanishing test and every restricted family of forms, is one
`Trivector.values` table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .subspaces import Subspace


@lru_cache(maxsize=None)
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """Index triples i < j < k in lexicographic order."""
    return tuple(combinations(range(n), 3))


@lru_cache(maxsize=None)
def triple_index(n: int) -> dict[tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(triples(n))}


@dataclass(frozen=True)
class SkewForm:
    """Skew-symmetric matrix over F_p (zero diagonal enforced)."""

    p: int
    mat: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        m = self.mat
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"skew form needs a square matrix, got {m.shape}")
        if ((m + m.T) % self.p).any():
            raise ValueError("matrix is not skew-symmetric mod p")

    @classmethod
    def from_matrix(cls, mat, p: int) -> "SkewForm":
        return cls(p=p, mat=linalg.freeze(linalg.as_field(mat, p)))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewForm):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.mat, other.mat)

    def __hash__(self) -> int:
        return hash((self.p, self.mat.tobytes()))

    def rank(self) -> int:
        return linalg.rank(self.mat, self.p)

    def kernel(self) -> Subspace:
        return Subspace.from_rows(linalg.kernel(self.mat, self.p), self.n, self.p)


@lru_cache(maxsize=None)
def perfect_matchings(size: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Signed perfect matchings of {0..size-1}.

    Returns (sign, pairs) terms with
    Pf(M) = sum over terms of sign * prod M[i, j] over pairs (i, j):
    0 is paired with each k in turn, with sign (-1)^(k - 1), and the
    matchings of size - 2 are relabeled onto the indices left.
    """
    if size % 2:
        raise ValueError(f"perfect matchings need even size, got {size}")
    if not size:
        return ((1, ()),)
    return tuple(
        ((-1) ** (k - 1) * sign, ((0, k),) + tuple((rest[i], rest[j]) for i, j in pairs))
        for k in range(1, size)
        for rest in [[i for i in range(1, size) if i != k]]
        for sign, pairs in perfect_matchings(size - 2)
    )


@dataclass(frozen=True)
class Trivector:
    """Alternating 3-form on F_p^n, n even, given by lex-ordered coefficients."""

    p: int
    n: int
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        linalg.check_prime(self.p)
        if self.n % 2 or not 4 <= self.n <= 10:
            raise ValueError(f"ambient dimension must be even in [4, 10], got {self.n}")
        want = len(triples(self.n))
        if self.coeffs.shape != (want,):
            raise ValueError(f"expected {want} coefficients, got {self.coeffs.shape}")

    @classmethod
    def from_coeffs(cls, coeffs, n: int, p: int) -> "Trivector":
        return cls(p=p, n=n, coeffs=linalg.freeze(linalg.as_field(coeffs, p)))

    @classmethod
    def random(cls, rng, n: int, p: int) -> "Trivector":
        return cls.from_coeffs(rng.ints(len(triples(n)), p), n, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trivector):
            return NotImplemented
        return self.p == other.p and self.n == other.n and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.coeffs.tobytes()))

    @cached_property
    def tensor(self) -> np.ndarray:
        """Full antisymmetric n x n x n coefficient tensor."""
        t = np.zeros((self.n, self.n, self.n), dtype=np.int64)
        for idx, (i, j, k) in enumerate(triples(self.n)):
            c = int(self.coeffs[idx])
            mc = (-c) % self.p
            t[i, j, k] = t[j, k, i] = t[k, i, j] = c
            t[i, k, j] = t[j, i, k] = t[k, j, i] = mc
        t.setflags(write=False)
        return t

    def values(self, a, b, c) -> np.ndarray:
        """The table sigma(a_i, b_j, c_k), shape (len a, len b, len c).

        Each argument is a batch of rows in F_p^n (one vector counts as one
        row).  Three `linalg.mat_mul` calls with inner dimension n contract
        the tensor with a, then b, then c, so the table is exact at every
        admitted prime.  sigma vanishes on A x B x C iff the table is zero.
        """
        n, p = self.n, self.p
        a, b, c = (linalg.as_field(x, p).reshape(-1, n) for x in (a, b, c))
        first = linalg.mat_mul(a, self.tensor.reshape(n, n * n), p).reshape(len(a), n, n)
        second = linalg.mat_mul(b, first.transpose(1, 0, 2).reshape(n, -1), p)
        third = linalg.mat_mul(second.reshape(-1, n), c.T, p)
        return third.reshape(len(b), len(a), len(c)).transpose(1, 0, 2)

    def eval3(self, u, v, w) -> int:
        return int(self.values(u, v, w)[0, 0, 0])

    def contract1(self, u) -> SkewForm:
        """The skew form sigma(u, ., .)."""
        eye = np.eye(self.n, dtype=np.int64)
        return SkewForm.from_matrix(self.values(u, eye, eye)[0], self.p)

    def gl_transform(self, g) -> "Trivector":
        """Pullback along g^{-1}: the result tau satisfies
        tau(g u, g v, g w) = sigma(u, v, w)."""
        n, p = self.n, self.p
        h = linalg.inverse(linalg.as_field(g, p), p)
        t = self.tensor
        for _ in range(3):
            # contract the leading axis with h, then rotate it to the back
            t = linalg.mat_mul(h.T, t.reshape(n, n * n), p).reshape(n, n, n).transpose(1, 2, 0)
        coeffs = [t[i, j, k] for (i, j, k) in triples(self.n)]
        return Trivector.from_coeffs(np.array(coeffs, dtype=np.int64), self.n, self.p)
