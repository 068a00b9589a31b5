"""Scalar polynomial value: the pointwise reference for `Poly.evaluate_batch`."""

from peskine_lab import linalg


def poly_value(f, point) -> int:
    """f at one point, term by term in Python ints."""
    x = linalg.as_field(point, f.p).reshape(-1)
    if x.shape[0] != f.nvars:
        raise ValueError(f"expected {f.nvars} coordinates, got {x.shape[0]}")
    total = 0
    for mono, c in f.terms:
        for i in mono:
            c = c * int(x[i]) % f.p
        total += c
    return total % f.p
