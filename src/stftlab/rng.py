"""Seedable 64-bit generator for experiment fixtures.

Splitmix-style contract: the same seed yields the same stream on every platform.
Only integer arithmetic (masked to 64 bits) and deterministic IEEE float ops are
used, so fixtures are reproducible byte-for-byte.

Normals come in blocks. `normals(n)` draws the next 2n words at once: word k
is the mix of `state + k*gamma` for k = 1..2n, computed in numpy uint64
(array arithmetic wraps mod 2^64). Even words give u1 and odd words u2 of
the Box-Muller pairs, and value i is sqrt(-2 log u1[i]) cos(2 pi u2[i]), so
the block is the stream that n one-at-a-time draws would give. The state
then jumps by 2n*gamma, so a later `next_u64`, `uniform` or `spawn`
continues the stream exactly where the block ended.

The logarithm and the cosine stay on libm (`math.log` and `math.cos` per
element). numpy's vectorised `np.log` differs from libm in the last bit on
about 0.35% of draws (numpy 2.4, x86-64), and `np.cos` may take a SIMD path
whose last bit depends on the CPU; either would move the noisy fixtures and
their tables. The square root and the products are correctly rounded IEEE
operations, so numpy computes them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """The splitmix64 output function, on a Python int or on a uint64 array
    (where the masks change nothing: array arithmetic wraps mod 2^64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic stream of 64-bit words and derived floats."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller, one value per pair of words."""
        steps = np.arange(1, 2 * n + 1, dtype=np.uint64)
        bits = _mix(self.state + steps * _GAMMA) >> 11
        self.state = (self.state + 2 * n * _GAMMA) & _MASK
        u1 = (bits[0::2] + 1) * (1.0 / ((1 << 53) + 1))  # in (0, 1], no log(0)
        u2 = bits[1::2] * (1.0 / (1 << 53))
        log_u1 = np.fromiter(map(math.log, u1.tolist()), float, n)
        cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()),
                             float, n)
        return np.sqrt(-2.0 * log_u1) * cos_u2

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent substream keyed by an integer tag."""
        return SplitMix64(self.next_u64() ^ ((tag * 0xD1342543DE82EF95) & _MASK))
