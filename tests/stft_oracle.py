"""The gathered STFT: the reference for `transforms._stft_values`, which
reads its windowed slices from a strided circulant view, folds the input
shift of the centred DFT into a roll of f and writes the shifted output
halves in place. Here every row gathers conj(w)(t - x_i) through an
explicit index matrix and goes through `grids.cdft`, shift copies and all.
Both paths multiply the same numbers in the same batches of `_STFT_CHUNK`
rows, so they agree bit for bit."""

import numpy as np

from stftlab.grids import cdft
from stftlab.transforms import _STFT_CHUNK


def stft_values(fv: np.ndarray, wv: np.ndarray, grid) -> np.ndarray:
    """Rows indexed by window center x_i, columns by frequency."""
    n = grid.count
    t = np.arange(n)
    out = np.empty((n, n), dtype=np.complex128)
    for start in range(0, n, _STFT_CHUNK):
        rows = np.arange(start, min(start + _STFT_CHUNK, n))
        idx = (t[None, :] - rows[:, None] + n // 2) % n
        out[rows] = grid.dx * cdft(fv[None, :] * np.conj(wv[idx]), axis=1)
    return out
