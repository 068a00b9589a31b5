"""Samplers for trivectors with prescribed flag degenerations.

Each structured kind zeroes the coefficients of a standard-position
coefficient pattern on F_p^10, then scrambles by a uniform GL element so
that downstream code never sees the standard flag.  The scramble and the
transformed flag are returned as a witness.

Kinds:
    general    all C(10, 3) coefficients uniform
    d3-3-10    sigma(V3, V3, .) = 0      for a 3-space V3
    d1-6-10    sigma(V1, V6, .) = 0      for a line V1 inside a 6-space V6
    d4-7-7     sigma(U4, V7, V7) = 0     for a 4-space U4 inside a 7-space V7

`verify_flag` tests each of these as one `Trivector.values` table.

The zeroed-triple counts (22, 30, 34) are pinned by tests that re-derive
them from the defining conditions by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, scan
from .rng import Rng
from .subspaces import Flag, Subspace
from .trivector import Trivector, triple_index, triples

KINDS = ("general", "d3-3-10", "d1-6-10", "d4-7-7")

_FLAG_DIMS = {"d3-3-10": (3,), "d1-6-10": (1, 6), "d4-7-7": (4, 7)}

# The defining vanishing sigma(A, B, C) = 0 of each kind: the flag member
# at each index, None for the whole space.
_VANISHING = {"d3-3-10": (0, 0, None), "d1-6-10": (0, 1, None), "d4-7-7": (0, 1, 1)}


@dataclass(frozen=True)
class DivisorSample:
    kind: str
    sigma: Trivector
    flag: Flag
    scramble: np.ndarray


@lru_cache(maxsize=None)
def zeroed_triples(kind: str) -> tuple[tuple[int, int, int], ...]:
    """Coefficient triples forced to zero in standard position."""
    if kind == "general":
        return ()
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    out = []
    for (i, j, k) in triples(10):
        if kind == "d3-3-10":
            hit = sum(x < 3 for x in (i, j, k)) >= 2
        elif kind == "d1-6-10":
            hit = i == 0 and j <= 5
        else:
            hit = i <= 3 and k <= 6
        if hit:
            out.append((i, j, k))
    return tuple(out)


def standard_flag(kind: str, p: int) -> Flag:
    dims = _FLAG_DIMS[kind]
    return Flag(tuple(Subspace.from_rows(np.eye(10, dtype=np.int64)[:d], 10, p) for d in dims))


def sample_general(rng: Rng, n: int, p: int) -> Trivector:
    return Trivector.random(rng, n, p)


def sample_divisor(rng: Rng, kind: str, p: int) -> DivisorSample:
    """Uniform trivector in the pattern, in scrambled position."""
    if kind not in _FLAG_DIMS:
        raise ValueError(f"unknown structured kind {kind!r}")
    coeffs = rng.ints(len(triples(10)), p)
    tindex = triple_index(10)
    for t in zeroed_triples(kind):
        coeffs[tindex[t]] = 0
    std = Trivector.from_coeffs(coeffs, 10, p)
    g = linalg.sample_gl(rng, 10, p)
    return DivisorSample(
        kind=kind,
        sigma=std.gl_transform(g),
        flag=standard_flag(kind, p).transform(g),
        scramble=g,
    )


def verify_flag(sigma: Trivector, kind: str, flag: Flag) -> bool:
    """Check the defining vanishing of `kind` on the flag."""
    if kind not in _FLAG_DIMS:
        raise ValueError(f"unknown structured kind {kind!r}")
    if flag.dims() != _FLAG_DIMS[kind]:
        return False
    eye = np.eye(sigma.n, dtype=np.int64)
    bases = [eye if i is None else flag[i].basis for i in _VANISHING[kind]]
    return not sigma.values(*bases).any()


def recover_flag_d1_6_10(sigma: Trivector, v1) -> Flag:
    """Reconstruct (V1, V6) from sigma and the distinguished line.

    V6 is the kernel of sigma(v1, ., .); raises if that kernel does not
    have dimension 6 (the contraction must have rank exactly 4).
    """
    line = Subspace.from_rows(v1, sigma.n, sigma.p)
    if line.dim != 1:
        raise ValueError("v1 must span a line")
    ker = sigma.contract1(line.basis[0]).kernel()
    if ker.dim != 6:
        raise ValueError(f"contraction kernel has dimension {ker.dim}, expected 6")
    if not ker.contains(line):
        raise ValueError("distinguished line does not lie in the kernel")
    return Flag((line, ker))


def rank4_points(sigma: Trivector, threads: int | None = None) -> list[tuple[int, ...]]:
    """All points of P(F_p^n) where the contraction has rank <= 4.

    Canonical representatives in order, from `scan.locus_points`, which
    tests only the kernels of sigma(w, ., .) over the w of a 5-space.
    """
    if sigma.n < 6:
        raise ValueError("scan needs ambient dimension at least 6")
    return scan.locus_points(sigma, 4, threads)
