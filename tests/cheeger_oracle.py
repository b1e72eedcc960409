"""Full-grid Cheeger sweep: the oracle for `geometry.cheeger_estimate`.

Every candidate builds its mask over the whole grid and sums `vals[mask]`;
every half-plane direction places its half-mass midpoint from one stable
argsort and one cumulative sum of the whole projection; contours come from
the per-case, full-grid `full_grid_marching_squares`. `cheeger_estimate`
touches only the cells a candidate can hold and must return the same table,
value, family, params and witness (`assert_same_sweep`).

Everything is compared with `==` except three numbers that the estimator
sums in another order: a half-plane row's mass and ratio, and the value
when a half-plane wins. The estimator takes a half-plane mass from row
prefix sums, so each row's count of cells under the line is compared
exactly with the full-grid mask, and the mass and ratio within
`mass_tolerance` of the correctly rounded masked sum's; the value is the
winning row's ratio.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from contour_oracle import full_grid_marching_squares
from stftlab.geometry import (
    _SMOOTHING,
    _cut_counts,
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


def mass_tolerance(tg):
    """(ncol + ceil(log2 nrow)) eps: the relative bound on a half-plane mass
    of the estimator against the correctly rounded masked sum.

    A sum of nonnegative terms is within k u of the exact sum (u = eps / 2)
    when no term passes through more than k additions. A prefix mass passes
    through at most ncol - 1 additions in its row's cumulative sum, then
    through numpy's pairwise sum of the nrow row prefixes (4, 10 and 19
    deep at 16, 64 and 256 rows; at most ceil(log2 nrow) + 17); `math.fsum`
    and the two scalings by the cell add a rounding each, a ratio one more.
    That is at most ncol + 7 u at 16 rows and ncol + ceil(log2 nrow) + 20 u
    in general: within the bound, 2 (ncol + ceil(log2 nrow)) u, at every
    grid the tests use (16 x 12 up to 256 x 256)."""
    nrow, ncol = tg.shape
    return (ncol + math.ceil(math.log2(nrow))) * np.finfo(float).eps


def _close(got, want, tol):
    return got == want or abs(got - want) <= tol * abs(want)


def assert_halfplane_row(W, row):
    """A half-plane row of the estimator's table: each grid row's count of
    cells under the line, from the estimator's bisection, is the full-grid
    mask's, and the mass and ratio are within mass_tolerance of the
    correctly rounded masked sum's."""
    tg = W.tfgrid
    nx, ny = math.cos(row["theta"]), math.sin(row["theta"])
    px, py = nx * tg.xgrid.points(), ny * tg.wgrid.points()
    counts = _cut_counts(px, py if ny >= 0.0 else py[::-1], [row["offset"]])
    inside = nx * tg.xmesh() + ny * tg.wmesh() <= row["offset"]
    assert np.array_equal(counts[0], inside.sum(axis=1)), row
    mass = math.fsum(np.maximum(W.values.real, 0.0)[inside]) * tg.cell
    ratio = row["boundary"] / mass if mass > 0 else float("inf")
    tol = mass_tolerance(tg)
    assert _close(row["mass"], mass, tol), (row, mass)
    assert _close(row["ratio"], ratio, tol), (row, ratio)


def assert_same_table(W, table, oracle_table):
    """The estimator's table against the oracle's: every row equal, except
    a half-plane row's mass and ratio (assert_halfplane_row)."""
    assert len(table) == len(oracle_table)
    for row, ref in zip(table, oracle_table):
        if row["family"] == "halfplane":
            assert row.keys() == ref.keys(), (row, ref)
            assert all(row[key] == ref[key] for key in row
                       if key not in ("mass", "ratio")), (row, ref)
            assert_halfplane_row(W, row)
        else:
            assert row == ref, (row, ref)


def assert_same_sweep(W, rep, oracle):
    """A CheegerReport against full_grid_cheeger's result: the tables
    (assert_same_table), the family, the params and the witness are equal,
    and the value is the ratio of the table row that the oracle's winner
    is; that ratio equals the oracle's unless a half-plane wins."""
    value, family, params, inside, table = oracle
    assert_same_table(W, rep.table, table)
    assert (rep.family, rep.params) == (family, params)
    win = next(k for k, ref in enumerate(table)
               if ref["family"] == family and ref["feasible"]
               and ref["ratio"] == value
               and all(ref[key] == params[key] for key in params))
    assert rep.value == rep.table[win]["ratio"]
    assert family == "halfplane" or rep.value == value
    assert np.array_equal(rep.witness.inside, inside)
