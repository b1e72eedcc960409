"""Full-grid Cheeger sweep: the oracle for `geometry.cheeger_estimate`.

Every candidate builds its mask over the whole grid and sums its cells;
every half-plane direction places its half-mass midpoint from one stable
argsort and one cumulative sum of the whole projection; contours come from
the per-case, full-grid `full_grid_marching_squares`. `cheeger_estimate`
touches only the cells a candidate can hold and must return the same table,
value, family, params and witness (`assert_same_sweep`).

Everything is compared with `==` except three numbers that the estimator
sums in another order: the mass and ratio of a disk, disk-complement or
half-plane row, and the value when such a row wins. The estimator takes
those masses from row prefix sums, so each grid row's run of cells is
compared exactly with the full-grid mask, and the mass and ratio within
`mass_tolerance` of the oracle's. That mass is the correctly rounded sum of
the mask's cells (`math.fsum`, vectorized in `masked_fsum`), never
total - mass. The value is the winning row's ratio.
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


def masked_fsum(vals):
    """mask -> math.fsum(vals[mask]) for a nonnegative array of at most
    2**26 cells, vectorized.

    Each cell v = m 2**e (np.frexp) splits exactly into hi, its leading 26
    bits, and lo = v - hi. Among the cells of one exponent e, every hi is a
    multiple of 2**(e - 26) below 2**e and every lo one of 2**(e - 53) below
    2**(e - 26) (a subnormal cell, a multiple of 2**-1074, has fewer bits),
    so any partial sum of up to 2**26 of them fits in 53 bits and bincount
    adds them exactly. fsum of those exact bucket sums is the correctly
    rounded total, which is what fsum of the cells returns."""
    m, e = np.frexp(vals)
    hi = np.ldexp(np.floor(np.ldexp(m, 26)), e - 26)
    lo = vals - hi
    e -= e.min()
    size = int(e.max()) + 1

    def fsum(mask):
        k = e[mask]
        return math.fsum(np.concatenate((np.bincount(k, hi[mask], size),
                                         np.bincount(k, lo[mask], size))))
    return fsum


def full_grid_cheeger(W, thresholds=256, centers=9, radii=16, directions=64,
                      offsets=33):
    """(value, family, params, witness mask, table) of the full-grid sweep."""
    vals = np.maximum(np.ascontiguousarray(W.values.real, dtype=float), 0.0)
    tg = W.tfgrid
    cell = tg.cell
    total = float(vals.sum() * cell)
    half_cap = 0.5 * total * (1.0 + 1e-6)
    fsum = masked_fsum(vals)

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
                for familyname, mask in (("disk", inside), ("diskc", ~inside)):
                    consider(familyname, {"cx": cx, "cy": cy, "r": r},
                             boundary, fsum(mask) * cell, mask)

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
            consider("halfplane", {"theta": theta, "offset": c}, boundary,
                     fsum(inside) * cell, inside)

    ratio, famname, params, mask = best
    return ratio, famname, params, mask, table


_PREFIX_FAMILIES = ("disk", "diskc", "halfplane")


def mass_tolerance(tg):
    """(ncol + ceil(log2 nrow)) eps: the relative bound on the mass of a
    disk, disk-complement or half-plane row of the estimator against the
    correctly rounded masked sum.

    A sum of nonnegative terms is within k u of the exact sum (u = eps / 2)
    when no term passes through more than k additions. In each grid row the
    estimator takes at most two row prefix sums, of p and q cells with
    p + q <= ncol (a half-plane's one prefix has q = 0), and adds them: a
    term passes through at most p - 1 additions in its prefix's cumulative
    sum and then the one that joins the prefixes, which is exact when the
    other prefix is empty, so at most ncol - 1 in all. Then it passes
    through numpy's pairwise sum of the nrow row masses (4, 10 and 19 deep
    at 16, 64 and 256 rows; at most ceil(log2 nrow) + 17); `math.fsum` and
    the two scalings by the cell add a rounding each, a ratio one more.
    That is at most ncol + 7 u at 16 rows and ncol + ceil(log2 nrow) + 20 u
    in general: within the bound, 2 (ncol + ceil(log2 nrow)) u, at every
    grid the tests use (16 x 12 up to 256 x 256)."""
    nrow, ncol = tg.shape
    return (ncol + math.ceil(math.log2(nrow))) * np.finfo(float).eps


def _close(got, want, tol):
    return got == want or abs(got - want) <= tol * abs(want)


def assert_prefix_row(W, row, mass=None):
    """A disk, disk-complement or half-plane row of the estimator's table.
    The estimator's bisection counts the cells as runs: a half-plane holds
    a prefix of each grid row in the order its projections ascend, a disk
    a run each way from its centre's column jc. Each count is the full-grid
    mask's count of cells in that row or half-row, where the predicate is
    monotone, so the cells are the mask's. The mass and ratio are within
    mass_tolerance of `mass`, by default the correctly rounded sum of the
    mask's cells, and of its ratio."""
    tg = W.tfgrid
    xs, ys = tg.xgrid.points(), tg.wgrid.points()
    xm, wm = tg.xmesh(), tg.wmesh()
    if row["family"] == "halfplane":
        nx, ny = math.cos(row["theta"]), math.sin(row["theta"])
        py = ny * ys if ny >= 0.0 else (ny * ys)[::-1]
        counts = _cut_counts(nx * xs, py, [row["offset"]])
        inside = nx * xm + ny * wm <= row["offset"]
        halves = [inside]
    else:
        cx, cy, r2 = row["cx"], row["cy"], row["r"] * row["r"]
        jc = int(np.searchsorted(ys, cy))
        dx2, dy2 = (xs - cx) ** 2, (ys - cy) ** 2
        counts = [_cut_counts(dx2, d2, [r2])[0]
                  for d2 in (dy2[jc:], dy2[:jc][::-1])]
        inside = (xm - cx) ** 2 + (wm - cy) ** 2 <= r2
        halves = [inside[:, jc:], inside[:, :jc]]
        if row["family"] == "diskc":
            inside = ~inside
    for n, half in zip(counts, halves):
        assert np.array_equal(n, half.sum(axis=1)), row
    if mass is None:
        mass = math.fsum(np.maximum(W.values.real, 0.0)[inside]) * tg.cell
    ratio = row["boundary"] / mass if mass > 0 else float("inf")
    tol = mass_tolerance(tg)
    assert _close(row["mass"], mass, tol), (row, mass)
    assert _close(row["ratio"], ratio, tol), (row, ratio)


def assert_same_table(W, table, oracle_table):
    """The estimator's table against the oracle's: every row equal, except
    the mass and ratio of a disk, disk-complement or half-plane row, whose
    cells and mass assert_prefix_row checks against the oracle's."""
    assert len(table) == len(oracle_table)
    for row, ref in zip(table, oracle_table):
        if row["family"] in _PREFIX_FAMILIES:
            assert row.keys() == ref.keys(), (row, ref)
            assert all(row[key] == ref[key] for key in row
                       if key not in ("mass", "ratio")), (row, ref)
            assert_prefix_row(W, row, ref["mass"])
        else:
            assert row == ref, (row, ref)


def assert_same_sweep(W, rep, oracle):
    """A CheegerReport against full_grid_cheeger's result: the tables
    (assert_same_table), the family, the params and the witness are equal,
    and the value is the ratio of the table row that the oracle's winner
    is; that ratio equals the oracle's when a level set wins."""
    value, family, params, inside, table = oracle
    assert_same_table(W, rep.table, table)
    assert (rep.family, rep.params) == (family, params)
    win = next(k for k, ref in enumerate(table)
               if ref["family"] == family and ref["feasible"]
               and ref["ratio"] == value
               and all(ref[key] == params[key] for key in params))
    assert rep.value == rep.table[win]["ratio"]
    assert family in _PREFIX_FAMILIES or rep.value == value
    assert np.array_equal(rep.witness.inside, inside)
