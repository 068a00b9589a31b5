"""Linear subspaces of F_p^n with canonical representatives.

A :class:`Subspace` stores the reduced row echelon basis of its row space,
so two objects describe the same subspace iff they compare equal.  Joins
are exact; `lift_quotient` lifts coordinates in F_p^n/W to the canonical
complement spanned by the standard basis vectors at the non-pivot columns
of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Subspace:
    p: int
    n: int
    basis: np.ndarray = field(compare=False)
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows, n: int, p: int) -> "Subspace":
        p = linalg.check_prime(p)
        arr = linalg.as_field(rows, p)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[0] == 0:
            arr = arr.reshape(0, n)
        if arr.shape[1] != n:
            raise ValueError(f"rows have {arr.shape[1]} columns, ambient is {n}")
        red, piv = linalg.rref(arr, p)
        return cls(p=p, n=n, basis=linalg.freeze(red), pivots=piv)

    @classmethod
    def span_of(cls, *vectors, n: int, p: int) -> "Subspace":
        return cls.from_rows(np.array(vectors, dtype=np.int64), n, p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.pivots, self.basis.tobytes()))

    def _reduce(self, v) -> np.ndarray:
        """v minus v[pivots] @ basis: zero at every pivot, and zero iff v lies in self.

        The rref basis is zero at the other pivots, so this is v reduced
        against the basis rows one at a time, in one product.
        """
        v = linalg.as_field(v, self.p).reshape(-1)
        if v.shape[0] != self.n:
            raise ValueError(f"vector has length {v.shape[0]}, ambient is {self.n}")
        return (v - linalg.mat_mul(v[list(self.pivots)], self.basis, self.p)) % self.p

    def contains_vector(self, v) -> bool:
        return not self._reduce(v).any()

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def join(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(np.vstack([self.basis, other.basis]), self.n, self.p)

    def coords_of(self, v) -> np.ndarray:
        """Coordinates of v in the rref basis; raises if v is outside."""
        v = linalg.as_field(v, self.p).reshape(-1)
        if self._reduce(v).any():
            raise ValueError("vector does not lie in the subspace")
        return v[list(self.pivots)]

    def complement_pivots(self) -> tuple[int, ...]:
        """Standard coordinates spanning the canonical complement."""
        return tuple(c for c in range(self.n) if c not in self.pivots)

    def lift_quotient(self, coords) -> np.ndarray:
        """Standard-position lift of coordinates on F_p^n / self: zero at every pivot."""
        coords = linalg.as_field(coords, self.p).reshape(-1)
        comp = self.complement_pivots()
        if coords.shape[0] != len(comp):
            raise ValueError(f"expected {len(comp)} quotient coordinates")
        v = np.zeros(self.n, dtype=np.int64)
        v[list(comp)] = coords
        return v

    def transform(self, g: np.ndarray) -> "Subspace":
        """Image under v -> g @ v."""
        rows = linalg.mat_mul(self.basis, linalg.as_field(g, self.p).T, self.p)
        return Subspace.from_rows(rows, self.n, self.p)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError("subspaces live in different ambient spaces")


def complement_rows(space: Subspace, sub: Subspace) -> list[np.ndarray]:
    """Rows of `space` extending a basis of `sub` to one of `space`.

    Deterministic: every row of the canonical basis of `space`, in order,
    that the basis of `sub` and the rows before it do not span.  These
    are the pivot columns beyond sub.dim of one elimination of the two
    bases stacked, transposed.
    """
    pivots = linalg.rref(np.vstack([sub.basis, space.basis]).T, space.p)[1]
    return [space.basis[c - sub.dim] for c in pivots if c >= sub.dim]


def rref_bases(n: int, k: int, p: int):
    """Yield the rref bases of every k-dimensional subspace of F_p^n.

    (pivots, bases) blocks, bases of shape (B, k, n): Schubert cells in
    combinations order of their pivots, each cell's free entries
    (row-major) in base-p counter order, one block per block of
    `scan.affine_chunks`.  This is the order of `all_subspaces`.
    """
    from itertools import combinations

    from .scan import affine_chunks  # scan imports trivector, which imports this module

    for piv in combinations(range(n), k):
        free = [r * n + c for r in range(k) for c in range(n) if c > piv[r] and c not in piv]
        for values in affine_chunks(len(free), p):
            bases = np.zeros((len(values), k, n), dtype=np.int64)
            bases[:, range(k), piv] = 1
            bases.reshape(len(values), -1)[:, free] = values
            yield piv, bases


@lru_cache(maxsize=None)
def plane_table(m: int, p: int) -> np.ndarray:
    """(B, 2, m): the rref bases of every 2-plane of F_p^m, m >= 2.

    The `rref_bases(m, 2, p)` blocks joined, so row q is the q-th plane of
    `all_subspaces(m, 2, p)`.  Built once per (m, p) and read-only.
    """
    return linalg.freeze(np.concatenate([bases for _, bases in rref_bases(m, 2, p)]))


def all_subspaces(n: int, k: int, p: int):
    """Yield every k-dimensional subspace of F_p^n once, via rref cells."""
    for piv, bases in rref_bases(n, k, p):
        for basis in bases:
            yield Subspace(p=p, n=n, basis=linalg.freeze(basis), pivots=piv)


@dataclass(frozen=True)
class Flag:
    """Strictly increasing chain of subspaces of one ambient space."""

    spaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if not self.spaces:
            raise ValueError("a flag needs at least one subspace")
        first = self.spaces[0]
        for a, b in zip(self.spaces, self.spaces[1:]):
            a._check_compatible(first)
            if not (b.contains(a) and b.dim > a.dim):
                raise ValueError("flag subspaces must strictly increase")

    @property
    def p(self) -> int:
        return self.spaces[0].p

    @property
    def n(self) -> int:
        return self.spaces[0].n

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

    def __getitem__(self, i: int) -> Subspace:
        return self.spaces[i]

    def transform(self, g: np.ndarray) -> "Flag":
        return Flag(tuple(s.transform(g) for s in self.spaces))
