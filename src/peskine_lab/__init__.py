"""Exact computational lab for trivector geometry over prime fields.

Everything here works over F_p for an odd prime p and is exact: no floating
point leaks into results (`linalg.mat_mul` sums and reduces in float32 or
float64 only where every sum provably stays below 2**22 or 2**51).

Layout:
    rng        deterministic seeded randomness (SplitMix64)
    linalg     dense exact linear algebra mod p
    subspaces  row-space representatives, meets/joins, flags
    trivector  alternating 3-forms, contractions, signed perfect matchings
    scan       batched exhaustive scans, the rank-drop mask, symbolic Pfaffians
    polynomial sparse multivariate polynomials mod p
    divisors   structured trivector samplers and flag recovery
    loci       degeneracy loci: membership tests, the quotient-Pfaffian cubic
    orbits     coordinate models for the small orbit closures
    fibration  the rank-4 fibration attached to a flagged trivector
    estimators dimension estimation by random slicing / Jacobians
    storage    JSON (de)serialization of trivectors
    report     check reports with byte-stable serialization
    checks     the named verification checks behind the CLI
    cli        `peskine-lab` entry point
"""

from __future__ import annotations

from . import linalg  # noqa: F401  (pins BLAS to one thread on import)

__all__ = ["__version__"]

__version__ = "0.1.0"
