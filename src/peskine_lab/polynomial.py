"""Sparse multivariate polynomials over F_p.

Monomials are stored as sorted tuples of variable indices with repetition
(so x0^2 x3 is (0, 0, 3) and the constant monomial is ()).  Degrees stay
tiny here (at most 5 in up to 45 variables), so a dict-backed sparse
representation with exact arithmetic is plenty.

Forms are built symbolically (`scan.pfaffian_poly` is the Pfaffian in
the entries of a skew form, `scan.family_pfaffian` expands Pfaffians of
linear families, and `Poly.divide_linear` takes exact quotients by a
linear form); `jacobian`, the batched Jacobian of a polynomial map,
differentiates them for every caller in the package, and `Poly.restrict`
restricts them exactly to batches of affine slices for the slice ladder
and the patch grid.  Values come only on batches of points, a single
point being a batch of one, from one loop, `Poly.evaluate_columns`,
behind `evaluate_batch`, `jacobian` and every numeric Pfaffian; the first
two refuse a batch whose width is not `nvars`.  Both the Pfaffians of
families and the restrictions are sums of products of linear forms,
expanded into the dense monomial basis by one kernel, `expand_products`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
                if key and not 0 <= key[0] <= key[-1] < nvars:
                    raise ValueError(f"monomial {key} is not in variables 0..{nvars - 1}")
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

    def total_degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

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

    def divide_linear(self, ell: "Poly") -> "Poly":
        """The exact quotient self / ell by a nonzero linear form ell.

        Eliminates the first variable x_j of ell, highest power of x_j
        first: each monomial x_j m' left in the dividend puts c / l_j m'
        into the quotient and subtracts c / l_j m' ell.  Raises ValueError
        when ell is no linear form or leaves a remainder.
        """
        self._check(ell)
        lin = {m[0]: c for m, c in ell.terms if len(m) == 1}
        if not lin or len(lin) != len(ell.terms):
            raise ValueError("divisor is not a nonzero linear form")
        p, lead = self.p, min(lin)
        inv = pow(lin[lead], -1, p)
        rest = dict(self.terms)
        quot: dict[tuple[int, ...], int] = {}
        for power in range(self.total_degree(), 0, -1):
            for mono in [m for m, c in rest.items() if c and m.count(lead) == power]:
                q = rest[mono] * inv % p
                cut = list(mono)
                cut.remove(lead)
                quot[tuple(cut)] = q
                for k, c in lin.items():
                    key = tuple(sorted(cut + [k]))
                    rest[key] = (rest.get(key, 0) - q * c) % p
        if any(rest.values()):
            raise ValueError("the linear form does not divide the polynomial")
        return Poly.from_dict(quot, self.nvars, p)

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

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Values on a (B, nvars) batch of points."""
        return self.evaluate_columns(_columns(points, self.nvars, self.p))

    def restrict(self, offsets: np.ndarray, mats: np.ndarray, degree: int = 0) -> np.ndarray:
        """(T, M) coefficients of each f(offset_k + t @ mat_k) over `monomials_of_degree(d + 1, D)`
        in y = (1, t), D = max(degree, total_degree()): one `expand_products` of the terms, each
        padded by y0 to D factors, over the linear forms [offset_k; mat_k | y0] in y."""
        p, (trials, d, _) = self.p, mats.shape
        idx, coefs = self._padded_terms
        idx = np.hstack([idx, np.full((len(idx), max(degree - idx.shape[1], 0)), self.nvars)])
        y0 = np.eye(d + 1, 1, dtype=np.int64)[None].repeat(trials, 0)  # x_nvars restricts to y0
        lin = np.concatenate([np.concatenate([offsets[:, None], mats], axis=1) % p, y0], axis=2)
        return expand_products(lin, idx, coefs, p)

    @cached_property
    def _partials(self) -> tuple["Poly", ...]:
        return tuple(self.partial(i) for i in range(self.nvars))

    @cached_property
    def _padded_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, total_degree()) variable indices, each monomial padded by nvars, and the coefficients."""
        top = self.total_degree()
        pad = [m + (self.nvars,) * (top - len(m)) for m, _ in self.terms]
        coefs = np.array([c for _, c in self.terms], dtype=np.int64)
        return np.array(pad, dtype=np.int64).reshape(len(pad), top), coefs

    @cached_property
    def _plan(self) -> tuple[bool, int, list[int], list[int], tuple]:
        """How `evaluate_columns` sums the terms: (delayed, start, used, scalars, terms).

        Factor k of a term is the coordinate of used[k], the variables that
        occur, and past them scalars[k - len(used)]: 1, then every
        coefficient other than 1 and p - 1.  A term is (first factor, other
        factors, subtracted).
        """
        p, degree, coefs = self.p, self.total_degree(), [c for _, c in self.terms]
        used = sorted({i for m, _ in self.terms for i in m})
        scalars = [1] + sorted(set(coefs) - {1, p - 1})
        slot = {i: k for k, i in enumerate(used)}
        scale = {c: len(used) + k for k, c in enumerate(scalars)}
        terms, weight = [], 1  # the sum's bound over (p - 1)^degree; 1 for the start's rounding
        for m, c in self.terms:
            unit = c in (1, p - 1)
            factors = tuple(slot[i] for i in m) + (() if m and unit else (scale[1 if unit else c],))
            terms.append((factors[0], factors[1:], c == p - 1))
            weight += 1 if unit else p - 2
        delayed = linalg.products_fit_int64(p, degree, weight)
        worst = coefs.count(p - 1) * ((p - 1) ** degree if delayed else p - 1)
        return delayed, worst + -worst % p, used, scalars, tuple(terms)

    def evaluate_columns(self, coords: np.ndarray) -> np.ndarray:
        """Values at the columns of a reduced (nvars, B) coordinate array.

        A term with coefficient 1 or p - 1 adds or subtracts the product of
        its coordinates; any other term multiplies that product by its
        coefficient.  The sum starts from a multiple of p at least as large
        as all it subtracts, so it stays nonnegative.  Each term is at most
        (p - 1)^degree, or (p - 2) (p - 1)^degree with another coefficient;
        while these bounds summed over the terms, plus one (p - 1)^degree
        for rounding the start up, fit int64 (`linalg.products_fit_int64`),
        the sum is reduced once at the end.  Above that bound every product
        is reduced after each factor.
        """
        p, (delayed, start, used, scalars, terms) = self.p, self._plan
        factors = [coords[i] for i in used] + scalars
        out = np.empty(coords.shape[1], dtype=np.int64)
        out.fill(start)  # cheaper than np.full
        buf = np.empty_like(out)
        for first, rest, negative in terms:
            term = factors[first]
            for k in rest:
                term = np.multiply(term, factors[k], out=buf)
                if not delayed:
                    term %= p
            if negative:
                out -= term
            else:
                out += term
        return np.remainder(out, p, out=out)

    def _check(self, other: "Poly") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")


def _columns(points, nvars: int, p: int) -> np.ndarray:
    """The reduced (nvars, B) transpose of a (B, nvars) batch of points.

    Any other shape raises ValueError, a wider batch too: its first nvars
    columns are not the point.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != nvars:
        raise ValueError(f"expected a (B, {nvars}) batch of points, got shape {points.shape}")
    return np.remainder(points.T, p, dtype=np.int64, order="C")


def jacobian(polys: list[Poly], points: np.ndarray) -> np.ndarray:
    """Jacobian matrices of a polynomial map at a (B, nvars) batch of points.

    Entry [b, r, i] is the partial derivative of polys[r] in variable i
    at points[b]; the shape is (B, len(polys), nvars).  The partials are
    built once per Poly and all evaluated on one transposed copy of the
    points, each into a contiguous row of a (len(polys), nvars, B) array
    that is returned transposed.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    p, nvars = polys[0].p, polys[0].nvars
    coords = _columns(points, nvars, p)
    out = np.zeros((len(polys), nvars, coords.shape[1]), dtype=np.int64)
    for r, f in enumerate(polys):
        for i, g in enumerate(f._partials):
            if g.terms:  # a zero partial stays zero
                out[r, i] = g.evaluate_columns(coords)
    return out.transpose(2, 0, 1)


def monomials_of_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monomials of exact total degree, in lexicographic index order."""
    return tuple(combinations_with_replacement(range(nvars), degree))


def slice_monomials(t: np.ndarray, degree: int, p: int) -> np.ndarray:
    """(R, M) values of `monomials_of_degree(d + 1, degree)` at y = (1, t) for a reduced (R, d)
    block t, the basis of `Poly.restrict`: reduced once unless (p - 1)^degree overflows int64."""
    y = np.hstack([np.ones((len(t), 1), dtype=np.int64), t])
    idx = np.array(monomials_of_degree(y.shape[1], degree), dtype=np.int64)
    out = np.ones((len(t), len(idx)), dtype=np.int64)
    per_factor = not linalg.products_fit_int64(p, degree, 1)
    for k in range(degree):
        out *= y[:, idx[:, k]]
        if per_factor:
            out %= p
    return out % p


@lru_cache(maxsize=None)
def _parents(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table from `monomials_of_degree(nvars, degree)` down one degree.

    For monomial q and position i, var[q, i] = q[i] = j and parent[q, i] is
    the index of q / x_j in `monomials_of_degree(nvars, degree - 1)`; a
    repeated variable (q[i] == q[i - 1]) points at the pad row past the
    last monomial instead, so each distinct variable of q counts once.
    """
    lower, var = (monomials_of_degree(nvars, k) for k in (degree - 1, degree))
    weights = nvars ** np.arange(degree - 2, -1, -1)  # lexicographic order is base-nvars order
    keys = (np.array(lower, np.int64).reshape(len(lower), degree - 1) * weights).sum(axis=1)
    var = np.array(var, np.int64).reshape(len(var), degree)
    drop = np.stack([(np.delete(var, i, axis=1) * weights).sum(axis=1) for i in range(degree)], 1)
    parent = np.searchsorted(keys, drop)
    parent[:, 1:][var[:, 1:] == var[:, :-1]] = len(keys)
    return parent, var


def expand_products(lin: np.ndarray, idx: np.ndarray, coefs: np.ndarray, p: int) -> np.ndarray:
    """(B, M) coefficients over `monomials_of_degree(v, D)` of sum_t coefs[t] prod_k lin[:, :, idx[t, k]].

    `lin` is a reduced (B, v, X) batch whose column x is a linear form in
    v variables, `idx` a (T, D) table of factor columns and `coefs` (T,)
    reduced.  Degree k is gathered from degree k - 1: the coefficient of q
    in P * L is the sum of P[q / x_j] * L[j] over the distinct variables
    x_j of q (`_parents`).  Each product of two reduced entries is reduced
    before the at most k of them are summed, unless
    `linalg.products_fit_int64(p, 2, k)` holds.
    """
    batch, terms, top = lin.shape[0], *idx.shape
    acc = np.ones((batch, 1, terms), dtype=np.int64)
    for k in range(1, top + 1):
        parent, var = _parents(lin.shape[1], k)
        acc = np.concatenate([acc, np.zeros((batch, 1, terms), dtype=np.int64)], axis=1)
        prod = acc[:, parent] * lin[:, :, idx[:, k - 1]][:, var]
        acc = (prod if linalg.products_fit_int64(p, 2, k) else prod % p).sum(axis=2) % p
    return linalg.mat_mul(acc, coefs, p)
