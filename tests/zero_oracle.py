"""Where the approximate zeros of an ambiguity field lie: the oracle for the
count `transforms.window_comparison_ratio` reports as `n_zeros`.

A zero is a grid point where the magnitude drops out, or the midpoint of a
grid edge across which a numerically real field changes sign while both ends
sit above the noise floor. The points are collected by coordinate and
deduplicated, so their number checks that the count never counts a point
twice, and their positions locate the zero set itself.
"""

import numpy as np


def zero_points(a: np.ndarray, tf, dropouts: np.ndarray) -> np.ndarray:
    """(x, omega) rows of the distinct approximate zeros of the field a on
    tf; dropouts is the boolean mask of the grid points that dropped out."""
    xs = tf.xgrid.points()
    ws = tf.wgrid.points()
    di, dj = np.nonzero(dropouts)
    pts = [np.column_stack((xs[di], ws[dj]))]
    re, im = a.real, a.imag
    mag = np.abs(a)
    floor = 1e-12 * float(np.max(mag))
    if np.max(np.abs(im)) <= 1e-9 * np.max(np.abs(re)):
        solid = mag > floor
        hit = (re[:-1, :] * re[1:, :] < 0) & solid[:-1, :] & solid[1:, :]
        fi, fj = np.nonzero(hit)
        pts.append(np.column_stack((0.5 * (xs[fi] + xs[fi + 1]), ws[fj])))
        hit = (re[:, :-1] * re[:, 1:] < 0) & solid[:, :-1] & solid[:, 1:]
        fi, fj = np.nonzero(hit)
        pts.append(np.column_stack((xs[fi], 0.5 * (ws[fj] + ws[fj + 1]))))
    return np.unique(np.concatenate(pts), axis=0)
