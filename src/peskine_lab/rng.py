"""Deterministic random streams.

All sampling in this package routes through :class:`Rng`, a SplitMix64
generator.  The same seed produces the same stream on every platform and
under any thread count, which is what makes check reports reproducible.
Child streams are derived from string labels so that independent samplers
never share state.

The k-th output at state s is mix(s + k * gamma), so `stream_ints` draws
from many streams in one uint64 numpy pass, with the values, and the end
states, of one `below` call per entry.
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


def stream_ints(streams: list["Rng"], count: int, n: int) -> np.ndarray:
    """(len(streams), count): `count` uniform draws from [0, n) per stream.

    One pass of `count` raw draws over distinct streams; one that rejected
    some keeps its accepted draws, in order, and draws the rest again."""
    if not 0 < n < 1 << 63:
        raise ValueError(f"int64 draws need a bound in [1, 2^63), got {n}")
    limit = _MASK - (_MASK + 1) % n
    states = np.array([r._state for r in streams], dtype=np.uint64)
    z = states[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> 30)) * _MIX1  # `_mix`: uint64 products wrap like `& _MASK`
    z = (z ^ (z >> 27)) * _MIX2
    raw = z ^ (z >> 31)
    out = (raw % n).astype(np.int64)
    for r, row, keep in zip(streams, out, raw <= limit):
        r._state = (r._state + count * _GAMMA) & _MASK
        if not keep.all():
            row[:] = np.concatenate([row[keep], stream_ints([r], count - int(keep.sum()), n)[0]])
    return out


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
        """Array of `count` uniform draws from [0, n), n < 2^63."""
        return stream_ints([self], count, n)[0]

    def matrix(self, rows: int, cols: int, p: int) -> np.ndarray:
        return self.ints(rows * cols, p).reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def child(self, label: str) -> "Rng":
        """Independent stream derived from a label; stable across runs."""
        return Rng(_mix(self._state ^ _fnv1a(label)))
