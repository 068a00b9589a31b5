"""Trivector persistence as sparse JSON.

Files carry only the nonzero coefficients, as strictly increasing
lexicographic triples, so a stored form has exactly one representation
and load(store(t)) == t byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import linalg
from .trivector import Trivector, triple_index, triples


def trivector_to_dict(tri: Trivector) -> dict:
    """The sparse JSON object; zero coefficients are omitted."""
    coeffs = [
        [i, j, k, int(c)]
        for (i, j, k), c in zip(triples(tri.n), tri.coeffs)
        if c
    ]
    return {"p": tri.p, "n": tri.n, "coeffs": coeffs}


def store_trivector(tri: Trivector, path) -> None:
    """Write the sparse JSON form."""
    Path(path).write_text(json.dumps(trivector_to_dict(tri), separators=(",", ":")) + "\n")


def load_trivector(path) -> Trivector:
    """Read a sparse JSON trivector, validating the full format contract."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return trivector_from_dict(doc, where=str(path))


def trivector_from_dict(doc, where: str = "trivector data") -> Trivector:
    """Validate and build a Trivector from the parsed JSON object."""
    if not isinstance(doc, dict) or set(doc) != {"p", "n", "coeffs"}:
        raise ValueError(f"{where}: expected an object with keys p, n, coeffs")
    p, n, entries = doc["p"], doc["n"], doc["coeffs"]
    if not isinstance(p, int) or not isinstance(n, int):
        raise ValueError(f"{where}: p and n must be integers")
    linalg.check_prime(p)
    index = triple_index(n)
    if not isinstance(entries, list):
        raise ValueError(f"{where}: coeffs must be a list")
    dense = np.zeros(len(index), dtype=np.int64)
    prev = None
    for row in entries:
        if (
            not isinstance(row, list)
            or len(row) != 4
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            raise ValueError(f"{where}: each coefficient entry must be [i, j, k, c]")
        i, j, k, c = row
        if not 0 <= i < j < k < n:
            raise ValueError(f"{where}: triple ({i},{j},{k}) is not strictly increasing in range")
        if prev is not None and (i, j, k) <= prev:
            raise ValueError(f"{where}: triples out of order at ({i},{j},{k})")
        prev = (i, j, k)
        if not 0 < c < p:
            raise ValueError(f"{where}: coefficient {c} at ({i},{j},{k}) outside (0, {p})")
        dense[index[(i, j, k)]] = c
    return Trivector.from_coeffs(dense, n, p)
