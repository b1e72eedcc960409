"""Oracles for the fixture streams: the scalar Box-Muller that `normals`
replaced, one value per pair of `next_u64` words, and the per-mode loop of
`_smooth_signal` built from it."""

import math

import numpy as np


def scalar_normal(rng) -> float:
    u1 = ((rng.next_u64() >> 11) + 1) * (1.0 / ((1 << 53) + 1))
    u2 = rng.uniform()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def scalar_normals(rng, n: int) -> np.ndarray:
    return np.array([scalar_normal(rng) for _ in range(n)], dtype=float)


def smooth_signal_values(grid, rng, kmax: int, decay: float) -> np.ndarray:
    x = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for k in range(-kmax, kmax + 1):
        c = complex(scalar_normal(rng), scalar_normal(rng)) / math.sqrt(2.0)
        vals += c * math.exp(-decay * abs(k)) * np.exp(
            2j * np.pi * k * x / grid.length)
    return vals
