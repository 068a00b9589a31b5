"""Sparse multivariate polynomials over F_p.

Monomials are stored as sorted tuples of variable indices with repetition
(so x0^2 x3 is (0, 0, 3) and the constant monomial is ()).  Degrees stay
tiny here (at most 3 in up to 21 variables), so a dict-backed sparse
representation with exact arithmetic is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Poly:
    p: int
    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...] = field(default=())

    @classmethod
    def from_dict(cls, terms: dict[tuple[int, ...], int], nvars: int, p: int) -> "Poly":
        clean = {}
        for mono, c in terms.items():
            c %= p
            if c:
                key = tuple(sorted(mono))
                if max(key, default=-1) >= nvars:
                    raise ValueError(f"monomial {key} exceeds {nvars} variables")
                clean[key] = (clean.get(key, 0) + c) % p
        items = tuple(sorted((m, c) for m, c in clean.items() if c))
        return cls(p=p, nvars=nvars, terms=items)

    @classmethod
    def constant(cls, c: int, nvars: int, p: int) -> "Poly":
        return cls.from_dict({(): c}, nvars, p)

    @classmethod
    def variable(cls, i: int, nvars: int, p: int) -> "Poly":
        return cls.from_dict({(i,): 1}, nvars, p)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

    def uses_variable(self, i: int) -> bool:
        return any(i in m for m, _ in self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = (acc.get(m, 0) + c) % self.p
        return Poly.from_dict(acc, self.nvars, self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                key = tuple(sorted(m1 + m2))
                acc[key] = (acc.get(key, 0) + c1 * c2) % self.p
        return Poly.from_dict(acc, self.nvars, self.p)

    def scale(self, c: int) -> "Poly":
        c %= self.p
        return Poly.from_dict({m: cc * c for m, cc in self.terms}, self.nvars, self.p)

    def partial(self, i: int) -> "Poly":
        acc: dict[tuple[int, ...], int] = {}
        for m, c in self.terms:
            k = m.count(i)
            if k:
                reduced = list(m)
                reduced.remove(i)
                key = tuple(reduced)
                acc[key] = (acc.get(key, 0) + k * c) % self.p
        return Poly.from_dict(acc, self.nvars, self.p)

    def evaluate(self, point) -> int:
        x = linalg.as_field(point, self.p).reshape(-1)
        if x.shape[0] != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {x.shape[0]}")
        total = 0
        for m, c in self.terms:
            val = c
            for i in m:
                val = val * int(x[i]) % self.p
            total = (total + val) % self.p
        return total

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Values on a (B, nvars) batch of points.

        Each term is its coefficient times at most total_degree()
        coordinates, all in [0, p).  While (p - 1)^(degree + 1) * terms
        fits int64 (`linalg.products_fit_int64`) the sum of the terms is
        reduced once at the end; above that bound every product is
        reduced after each factor.
        """
        p = self.p
        delayed = linalg.products_fit_int64(p, self.total_degree() + 1, len(self.terms))
        coords = np.ascontiguousarray(points.T, dtype=np.int64) % p
        out = np.zeros(coords.shape[1], dtype=np.int64)
        for m, c in self.terms:
            term = c
            for i in m:
                term = term * coords[i]
                if not delayed:
                    term %= p
            out += term
        return out % p

    def _check(self, other: "Poly") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")


def jacobian_matrix(polys: list[Poly], point) -> np.ndarray:
    """Exact Jacobian of a polynomial map at a point, rows = components."""
    if not polys:
        raise ValueError("need at least one polynomial")
    p = polys[0].p
    n = polys[0].nvars
    rows = []
    for f in polys:
        rows.append([f.partial(i).evaluate(point) for i in range(n)])
    return np.array(rows, dtype=np.int64) % p


def monomials_of_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monomials of exact total degree, in lexicographic index order."""
    return tuple(combinations_with_replacement(range(nvars), degree))
