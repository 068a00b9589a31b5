"""Deterministic random streams.

All sampling in this package routes through :class:`Rng`, a SplitMix64
generator.  The same seed produces the same stream on every platform and
under any thread count, which is what makes check reports reproducible.
Child streams are derived from string labels so that independent samplers
never share state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _fnv1a(label: str) -> int:
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = (h ^ byte) * 0x100000001B3 & _MASK
    return h


class Rng:
    """SplitMix64 stream with rejection sampling for uniform ranges."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection."""
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.u64()
            if x <= limit:
                return x % n

    def ints(self, count: int, n: int) -> np.ndarray:
        """Array of `count` uniform draws from [0, n)."""
        return np.array([self.below(n) for _ in range(count)], dtype=np.int64)

    def matrix(self, rows: int, cols: int, p: int) -> np.ndarray:
        return self.ints(rows * cols, p).reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def child(self, label: str) -> "Rng":
        """Independent stream derived from a label; stable across runs."""
        return Rng(_mix(self._state ^ _fnv1a(label)))
