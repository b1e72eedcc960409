"""Full-grid Cheeger sweep: the oracle for `geometry.cheeger_estimate`.

Every candidate builds its mask over the whole grid and sums `vals[mask]`;
every half-plane direction places its half-mass midpoint from one stable
argsort and one cumulative sum of the whole projection; contours come from
the per-case, full-grid `full_grid_marching_squares`. `cheeger_estimate`
touches only the cells a candidate can hold and must return the same table,
value, family, params and witness, compared with `==`.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from contour_oracle import full_grid_marching_squares
from stftlab.geometry import (
    _SMOOTHING,
    _polyline_integrals,
    _segment_integral,
)


def full_grid_cheeger(W, thresholds=256, centers=9, radii=16, directions=64,
                      offsets=33):
    """(value, family, params, witness mask, table) of the full-grid sweep."""
    vals = np.maximum(np.ascontiguousarray(W.values.real, dtype=float), 0.0)
    tg = W.tfgrid
    cell = tg.cell
    total = float(vals.sum() * cell)
    half_cap = 0.5 * total * (1.0 + 1e-6)

    xs = tg.xgrid.points()
    ys = tg.wgrid.points()
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx

    bi, bj = np.nonzero(vals >= 1e-3 * vals.max())
    xlo, xhi = xs[bi.min()], xs[bi.max()]
    ylo, yhi = ys[bj.min()], ys[bj.max()]
    diag = math.hypot(xhi - xlo, yhi - ylo)

    best = None
    table = []

    def consider(familyname, params, boundary, mass, mask):
        nonlocal best
        feasible = 0.0 < mass <= half_cap
        ratio = boundary / mass if mass > 0 else float("inf")
        table.append({
            "family": familyname, **params,
            "boundary": boundary, "mass": mass,
            "ratio": ratio, "feasible": feasible,
        })
        if feasible and (best is None or ratio < best[0]):
            best = (ratio, familyname, params, mask)

    sm = gaussian_filter(vals, sigma=_SMOOTHING, mode="constant")
    top = sm.max()
    for k in range(1, thresholds):
        level = top * k / thresholds
        segments = full_grid_marching_squares(xs, ys, sm, level)
        boundary = _segment_integral(xs, ys, vals, segments)
        above = sm >= level
        mass_above = float(vals[above].sum() * cell)
        consider("superlevel", {"level": level}, boundary, mass_above, above)
        consider("sublevel", {"level": level}, boundary,
                 total - mass_above, ~above)

    xm = tg.xmesh()
    wm = tg.wmesh()
    cxs = np.linspace(xlo, xhi, centers)
    cys = np.linspace(ylo, yhi, centers)
    rads = np.linspace(2.0 * max(dx, dy), 0.6 * diag, radii)
    pcx = cxs[:, None, None]
    pcy = cys[None, :, None]
    disk_boundaries = []
    for r in rads:
        npts = max(64, int(4.0 * math.pi * r / max(dx, dy)))
        th = np.linspace(0.0, 2.0 * math.pi, npts + 1)
        disk_boundaries.append(_polyline_integrals(
            xs, ys, vals, pcx + r * np.cos(th), pcy + r * np.sin(th)))
    for a, cx in enumerate(cxs):
        for b, cy in enumerate(cys):
            rr = (xm - cx) ** 2 + (wm - cy) ** 2
            for r, bounds in zip(rads, disk_boundaries):
                boundary = float(bounds[a, b])
                inside = rr <= r * r
                mass = float(vals[inside].sum() * cell)
                consider("disk", {"cx": cx, "cy": cy, "r": r},
                         boundary, mass, inside)
                consider("diskc", {"cx": cx, "cy": cy, "r": r},
                         boundary, total - mass, ~inside)

    span = 0.75 * diag
    tline = np.linspace(-span, span, max(129, int(4.0 * span / max(dx, dy))))
    for k in range(directions):
        theta = 2.0 * math.pi * k / directions
        nx, ny = math.cos(theta), math.sin(theta)
        corners = [nx * cx + ny * cy for cx in (xlo, xhi) for cy in (ylo, yhi)]
        proj = nx * xm + ny * wm
        cands = list(np.linspace(min(corners), max(corners), offsets))
        order = np.argsort(proj, axis=None, kind="stable")
        cum = np.cumsum(vals.ravel()[order]) * cell
        split = int(np.searchsorted(cum, 0.5 * total, side="right"))
        if 0 < split < order.size:
            pv = proj.ravel()[order]
            cands.append(0.5 * (pv[split - 1] + pv[split]))
        offs = np.array(cands)[:, None]
        boundaries = _polyline_integrals(
            xs, ys, vals, offs * nx - tline * ny, offs * ny + tline * nx)
        for c, boundary in zip(cands, boundaries.tolist()):
            inside = proj <= c
            mass = float(vals[inside].sum() * cell)
            consider("halfplane", {"theta": theta, "offset": c},
                     boundary, mass, inside)

    ratio, famname, params, mask = best
    return ratio, famname, params, mask, table
