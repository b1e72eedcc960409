"""Full-grid marching squares: the oracle for `geometry.marching_squares`.

It interpolates every edge of every cell and emits each case by a boolean
mask over the whole grid. `marching_squares` works only on the cells that
straddle the level and must return the same segments, bit for bit and in
the same order.
"""

import numpy as np

from stftlab.geometry import _MS_SEGMENTS


def full_grid_marching_squares(xs: np.ndarray, ys: np.ndarray,
                               values: np.ndarray, level: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (xs.size, ys.size):
        raise ValueError("values shape does not match the coordinate axes")
    b = v >= level
    case = (
        b[:-1, :-1].astype(np.int8)
        + 2 * b[1:, :-1]
        + 4 * b[1:, 1:]
        + 8 * b[:-1, 1:]
    )
    if not ((case > 0) & (case < 15)).any():
        return np.empty((0, 4))

    x0 = xs[:-1, None]
    x1 = xs[1:, None]
    y0 = ys[None, :-1]
    y1 = ys[None, 1:]
    v00 = v[:-1, :-1]
    v10 = v[1:, :-1]
    v01 = v[:-1, 1:]
    v11 = v[1:, 1:]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ts = (level - v00) / (v10 - v00)
        te = (level - v10) / (v11 - v10)
        tn = (level - v01) / (v11 - v01)
        tw = (level - v00) / (v01 - v00)
    edge_pts = {
        "S": (x0 + ts * (x1 - x0), np.broadcast_to(y0, ts.shape)),
        "E": (np.broadcast_to(x1, te.shape), y0 + te * (y1 - y0)),
        "N": (x0 + tn * (x1 - x0), np.broadcast_to(y1, tn.shape)),
        "W": (np.broadcast_to(x0, tw.shape), y0 + tw * (y1 - y0)),
    }

    out = []

    def emit(cells, pairs):
        for ea, eb in pairs:
            ax, ay = edge_pts[ea]
            bx, by = edge_pts[eb]
            out.append(np.column_stack([
                ax[cells], ay[cells], bx[cells], by[cells],
            ]))

    for c, pairs in _MS_SEGMENTS.items():
        cells = case == c
        if cells.any():
            emit(cells, pairs)

    for c, inside_corners in ((5, True), (10, False)):
        cells = case == c
        if not cells.any():
            continue
        center_in = (v00 + v10 + v01 + v11) >= 4.0 * level
        joined = cells & (center_in if inside_corners else ~center_in)
        split = cells & ~(center_in if inside_corners else ~center_in)
        emit(joined, [("S", "E"), ("N", "W")])
        emit(split, [("W", "S"), ("E", "N")])

    return np.concatenate(out, axis=0) if out else np.empty((0, 4))
