"""Isoperimetric and spectral geometry of time-frequency densities.

Everything here measures how a nonnegative field W on the TF plane can be
cut: Cheeger quotients over explicit candidate families, overlap connectivity
of two subdomains, the weighted Neumann-Poincare constant of a masked region,
and the certificate that stitches these into a stability bound for phase
retrieval on the region.

Cheeger values are upper bounds by construction (an infimum over a candidate
family is an upper bound for the infimum over all domains) and every report
says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.ndimage import binary_dilation, gaussian_filter
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  splu)

from . import rules
from .grids import DomainMask, TFField
from .norms import LqNorm, field_gradient, modulus, phase_inf_distance
from .transforms import fock_exponent


# ---------------------------------------------------------------------------
# marching squares

# case index bits: 1 = (i, j), 2 = (i+1, j), 4 = (i+1, j+1), 8 = (i, j+1)
# edges: S between corners 1-2, E between 2-4, N between 8-4, W between 1-8
_MS_SEGMENTS = {
    1: [("W", "S")],
    2: [("S", "E")],
    3: [("W", "E")],
    4: [("E", "N")],
    6: [("S", "N")],
    7: [("W", "N")],
    8: [("N", "W")],
    9: [("S", "N")],
    11: [("E", "N")],
    12: [("E", "W")],
    13: [("S", "E")],
    14: [("W", "S")],
}


def _emission_tables():
    """Output rank and edge pair (0 ... 3 index S, E, N, W) of the first and
    second segment of each cell kind, case + 16 * split. Segments are
    emitted by rank: every regular case in table order, then each saddle
    case with its corners joined, then split."""
    groups = list(_MS_SEGMENTS.items())
    for c in (5, 10):
        groups += [(c, [("S", "E"), ("N", "W")]),
                   (c + 16, [("W", "S"), ("E", "N")])]
    segments = [(kind, p, pair) for kind, pairs in groups
                for p, pair in enumerate(pairs)]
    rank = np.zeros((32, 2), dtype=np.int64)
    edge = np.zeros((32, 2, 2), dtype=np.int64)
    for r, (kind, p, (ea, eb)) in enumerate(segments):
        rank[kind, p] = r
        edge[kind, p] = "SENW".index(ea), "SENW".index(eb)
    return rank, edge


_MS_RANK, _MS_EDGE = _emission_tables()


def marching_squares(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                     level: float) -> np.ndarray:
    """Isocontour of a scalar field sampled on a rectilinear grid.

    Returns an (K, 4) array of segments (x0, y0, x1, y1) with linear
    interpolation along cell edges. Saddle cells (two opposite corners above
    the level) are resolved by the bilinear center value, which matches the
    contour of the bilinear interpolant.

    Cost: one pass over the given grid classifies every cell by which of its
    corners reach the level (`cheeger_estimate` passes only the box of the
    superlevel set grown by one cell); edge interpolation, the saddle test
    and the segment emission then run only on the cells that straddle it,
    usually a few hundred of tens of thousands. The segments are emitted by
    one stable gather on each segment's rank: grouped by case in table order
    and, within a case, in row-major cell order, exactly as a full-grid pass
    emits them.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (xs.size, ys.size):
        raise ValueError("values shape does not match the coordinate axes")
    b = (v >= level).view(np.int8)
    case = b[:-1, :-1] + 2 * b[1:, :-1] + 4 * b[1:, 1:] + 8 * b[:-1, 1:]
    flat = np.flatnonzero((case > 0) & (case < 15))
    if flat.size == 0:
        return np.empty((0, 4))
    case = case.ravel()[flat]
    i, j = np.divmod(flat, ys.size - 1)

    x0 = xs[i]
    x1 = xs[i + 1]
    y0 = ys[j]
    y1 = ys[j + 1]
    v00 = v[i, j]
    v10 = v[i + 1, j]
    v01 = v[i, j + 1]
    v11 = v[i + 1, j + 1]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ts = (level - v00) / (v10 - v00)
        te = (level - v10) / (v11 - v10)
        tn = (level - v01) / (v11 - v01)
        tw = (level - v00) / (v01 - v00)
    px = np.stack([x0 + ts * (x1 - x0), x1, x0 + tn * (x1 - x0), x0])
    py = np.stack([y0, y0 + te * (y1 - y0), y1, y0 + tw * (y1 - y0)])

    # case 5 holds corners 1 and 4; a center above the level joins them, so
    # the contour hugs the two excluded corners (and vice versa for case 10)
    center_in = (v00 + v10 + v01 + v11) >= 4.0 * level
    split = np.where(case == 5, ~center_in, (case == 10) & center_in)
    kind = case + 16 * split
    two = np.flatnonzero((case == 5) | (case == 10))
    cells = np.concatenate([np.arange(case.size), two])
    second = np.repeat([0, 1], [case.size, two.size])
    order = np.argsort(_MS_RANK[kind[cells], second], kind="stable")
    cells = cells[order]
    ea, eb = _MS_EDGE[kind[cells], second[order]].T
    return np.column_stack([px[ea, cells], py[ea, cells],
                            px[eb, cells], py[eb, cells]])


def _bilinear(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
              px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear sample of a grid field at arbitrary points; 0 outside."""
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    u = (px - xs[0]) / dx
    w = (py - ys[0]) / dy
    iu = np.floor(u).astype(int)
    iw = np.floor(w).astype(int)
    ok = (iu >= 0) & (iu <= xs.size - 2) & (iw >= 0) & (iw <= ys.size - 2)
    iu = np.clip(iu, 0, xs.size - 2)
    iw = np.clip(iw, 0, ys.size - 2)
    fu = u - iu
    fw = w - iw
    v = (
        values[iu, iw] * (1 - fu) * (1 - fw)
        + values[iu + 1, iw] * fu * (1 - fw)
        + values[iu, iw + 1] * (1 - fu) * fw
        + values[iu + 1, iw + 1] * fu * fw
    )
    return np.where(ok, v, 0.0)


# ---------------------------------------------------------------------------
# Cheeger estimate


@dataclass
class CheegerReport:
    """Upper bound on the Cheeger quotient of a density, with its witness.

    value is min over the candidate table of boundary / mass among candidates
    whose mass does not exceed half the total (the half-mass constraint);
    it is an upper bound on the true infimum, never the infimum itself.
    """

    value: float
    witness: DomainMask
    family: str
    params: dict
    total_mass: float
    table: list = field(repr=False, default_factory=list)


def _segment_integral(xs, ys, wvals, segments) -> float:
    mx = 0.5 * (segments[:, 0] + segments[:, 2])
    my = 0.5 * (segments[:, 1] + segments[:, 3])
    lengths = np.hypot(segments[:, 2] - segments[:, 0],
                       segments[:, 3] - segments[:, 1])
    return float(np.sum(_bilinear(xs, ys, wvals, mx, my) * lengths))


def _polyline_integrals(xs, ys, wvals, px, py) -> np.ndarray:
    """Integral of the field along each sampled path, the last axis running
    along the path (trapezoid in arclength). The integrand is C-contiguous,
    so each path's sum is the same pairwise sum a lone path gets, bit for
    bit."""
    seg = np.hypot(np.diff(px), np.diff(py))
    vals = _bilinear(xs, ys, wvals, px, py)
    return np.sum(0.5 * (vals[..., 1:] + vals[..., :-1]) * seg, axis=-1)


# width in cells of the Gaussian filter behind the level-set family
_SMOOTHING = 2.0


def _span(flags: np.ndarray) -> tuple[int, int]:
    """(first, last + 1) of the true entries of a 1-D mask; (0, 0) if none."""
    idx = np.flatnonzero(flags)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _row_prefix(vals: np.ndarray) -> np.ndarray:
    """prefix[i, n]: the sum of the first n cells of row i, in order."""
    prefix = np.zeros((vals.shape[0], vals.shape[1] + 1))
    np.cumsum(vals, axis=1, out=prefix[:, 1:])
    return prefix


def _cut_counts(px: np.ndarray, py: np.ndarray, offsets) -> np.ndarray:
    """counts[k, i] = #{j : px[i] + py[j] <= offsets[k]} for a nondecreasing
    py and finite offsets, so those j are 0 .. counts[k, i] - 1. Rounded
    addition is monotone, so this holds for the computed sums too; the
    bisection tests that exact sum, never py[j] <= offset - px[i], whose
    rounding can move a whole row when py is nearly flat. Branchless, over
    all rows and offsets at once."""
    offs = np.asarray(offsets, dtype=float)[:, None]
    m = py.size.bit_length()
    # a probe past the row reads +inf, which no finite offset reaches
    row = np.full(2 ** m - 1, np.inf)
    row[:py.size] = py
    n = np.zeros((offs.shape[0], px.size), dtype=np.intp)
    for b in reversed(range(m)):
        sums = row[n + ((1 << b) - 1)]
        sums += px
        np.add(n, 1 << b, out=n, where=sums <= offs)
    return n


def check_sweep(sweep: dict) -> None:
    """Refuse cheeger_estimate's candidate counts, a dict of its keywords
    (an absent one at its default), unless each is an integer >= 0 and some
    candidate family is left. The message starts with the keyword."""
    _SWEEP.check("", sweep)
    n = {**_SWEEP_DEFAULTS, **sweep}
    if (n["thresholds"] < 2 and n["directions"] < 1
            and min(n["centers"], n["radii"]) < 1):
        raise ValueError("thresholds < 2, directions 0 and centers or radii 0 "
                         "leave every candidate family empty")


def cheeger_estimate(W: TFField, *, thresholds: int = 256,
                     centers: int = 9, radii: int = 16,
                     directions: int = 64, offsets: int = 33) -> CheegerReport:
    """Scan candidate domains for a small boundary-to-mass quotient of W.

    Three families: super/sublevel sets of a smoothed copy of W at the
    uniform levels top * k / thresholds (k = 1 .. thresholds - 1, top the
    smoothed maximum), disks on a center-by-radius lattice, and
    half-planes over a direction-by-offset lattice. Boundary integrals use
    bilinear interpolation of the raw W along the candidate boundary; mass
    integrals are Riemann sums of raw W over the candidate; only candidates
    holding at most half the total mass count.

    The boundary integrals of all disks of one radius, and of all offsets of
    one half-plane direction, are evaluated in one batch. A level set's mass
    is an exact masked sum over its superlevel box (from the row and column
    maxima of the smoothed field) in the full-grid mask's order, so the bits
    agree; its contour runs on that box grown by one cell.

    Every other mass is a sum of row runs. Rounded addition is monotone, so
    in each grid row a half-plane px[i] + py[j] <= c (px = cos(theta) x,
    py = sin(theta) omega) is a prefix or a suffix, and a disk is a run each
    way from its centre's column jc, where (omega - cy)^2 ascends outward;
    its complement is the rest, a prefix and a suffix. A bisection on the
    full-grid predicate's own rounded sum (_cut_counts) gives each run's
    length, so the cells are the full-grid mask's. Row prefix sums anchored
    at the row's ends or at jc give the mass: at most two per row, added,
    then summed over the rows. Every term is nonnegative and no mass is a
    difference, so a mass is within (ncol + ceil(log2 nrow)) eps of the
    exact sum, relative.

    Each direction's half-mass midpoint sorts only the slab between the two
    lattice offsets whose masses bracket total / 2 (a side with no such
    offset is open), which in each row lies between their cut counts, and
    accumulates it on top of the lower offset's mass. The midpoint is
    therefore not a pinned value: it can move when the crossing lies within
    rounding of total / 2.
    """
    check_sweep(dict(thresholds=thresholds, centers=centers, radii=radii,
                     directions=directions, offsets=offsets))
    if np.iscomplexobj(W.values) and W.values.imag.any():
        raise ValueError("density must be real: its imaginary part is not 0")
    vals = np.ascontiguousarray(W.values.real, dtype=float)
    if (vals < -1e-12 * max(vals.max(), 1.0)).any():
        raise ValueError("density must be nonnegative")
    vals = np.maximum(vals, 0.0)
    tg = W.tfgrid
    cell = tg.cell
    total = float(vals.sum() * cell)
    if total <= 0.0:
        raise ValueError("density has no mass, so no Cheeger quotient")
    half = 0.5 * total
    half_cap = half * (1.0 + 1e-6)

    xs = tg.xgrid.points()
    ys = tg.wgrid.points()
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx
    nrow, ncol = vals.shape

    # bounding box of the bulk of the mass, for candidate placement
    bulk = vals >= 1e-3 * vals.max()
    bi, bj = np.nonzero(bulk)
    xlo, xhi = xs[bi.min()], xs[bi.max()]
    ylo, yhi = ys[bj.min()], ys[bj.max()]
    diag = math.hypot(xhi - xlo, yhi - ylo)

    best = None
    table = []

    def consider(familyname, params, boundary, mass):
        nonlocal best
        feasible = 0.0 < mass <= half_cap
        ratio = boundary / mass if mass > 0 else float("inf")
        table.append({
            "family": familyname, **params,
            "boundary": boundary, "mass": mass,
            "ratio": ratio, "feasible": feasible,
        })
        if feasible and (best is None or ratio < best[0]):
            best = (ratio, familyname, params)

    sm = gaussian_filter(vals, sigma=_SMOOTHING, mode="constant")
    top = sm.max()
    sm_rows = sm.max(axis=1)
    sm_cols = sm.max(axis=0)
    for k in range(1, thresholds):
        level = top * k / thresholds
        i0, i1 = _span(sm_rows >= level)
        j0, j1 = _span(sm_cols >= level)
        # a straddling cell has a corner in the box: grow it by one cell
        g0, g1 = max(i0 - 1, 0), min(i1 + 1, nrow)
        h0, h1 = max(j0 - 1, 0), min(j1 + 1, ncol)
        segments = marching_squares(xs[g0:g1], ys[h0:h1],
                                    sm[g0:g1, h0:h1], level)
        boundary = _segment_integral(xs, ys, vals, segments)
        box = (slice(i0, i1), slice(j0, j1))
        mass_above = float(vals[box][sm[box] >= level].sum() * cell)
        consider("superlevel", {"level": level}, boundary, mass_above)
        consider("sublevel", {"level": level}, boundary, total - mass_above)

    cxs = np.linspace(xlo, xhi, centers)
    cys = np.linspace(ylo, yhi, centers)
    rads = np.linspace(2.0 * max(dx, dy), 0.6 * diag, radii)
    # one (cx, cy) table of boundary integrals per radius
    disk_boundaries = []
    for r in rads:
        npts = max(64, int(4.0 * math.pi * r / max(dx, dy)))
        th = np.linspace(0.0, 2.0 * math.pi, npts + 1)
        disk_boundaries.append(_polyline_integrals(
            xs, ys, vals, cxs[:, None, None] + r * np.cos(th),
            cys[None, :, None] + r * np.sin(th)))
    # fwd[i, n], rev[i, n]: the sum of the first, the last n cells of row i
    fwd, rev = _row_prefix(vals), _row_prefix(vals[:, ::-1])
    rowix = np.arange(nrow)
    # masses[0, k, a, b]: the disk (cxs[a], cys[b], rads[k]); [1]: the rest
    masses = np.empty((2, radii, centers, centers))
    dx2 = ((xs - cxs[:, None]) ** 2).ravel()
    for b, cy in enumerate(cys):
        # dy2 ascends from column jc outward on both sides: in row i the disk
        # of centre a holds nr[k, a, i] cells from jc on, nl[k, a, i] before
        jc = int(np.searchsorted(ys, cy))
        dy2 = (ys - cy) ** 2
        right = _row_prefix(vals[:, jc:])
        left = _row_prefix(vals[:, :jc][:, ::-1])
        nr, nl = (_cut_counts(dx2, half_row, rads * rads).reshape(
            radii, centers, nrow) for half_row in (dy2[jc:], dy2[:jc][::-1]))
        masses[0, ..., b] = (right[rowix, nr] + left[rowix, nl]).sum(axis=-1)
        masses[1, ..., b] = (fwd[rowix, jc - nl]
                             + rev[rowix, ncol - jc - nr]).sum(axis=-1)
        del right, left  # freed before the next column's are built
    for a, b, k in np.ndindex(centers, centers, radii):
        for familyname, mass in zip(("disk", "diskc"), masses[:, k, a, b]):
            consider(familyname, {"cx": cxs[a], "cy": cys[b], "r": rads[k]},
                     float(disk_boundaries[k][a, b]), float(mass * cell))

    span = 0.75 * diag
    tline = np.linspace(-span, span, max(129, int(4.0 * span / max(dx, dy))))
    for k in range(directions):
        theta = 2.0 * math.pi * k / directions
        nx, ny = math.cos(theta), math.sin(theta)
        corners = [nx * cx + ny * cy for cx in (xlo, xhi) for cy in (ylo, yhi)]
        cands = list(np.linspace(min(corners), max(corners), offsets))
        # proj[i, j] = px[i] + py[j] ascends along each row in `order`
        px = nx * xs
        py = ny * ys
        forward = ny >= 0.0
        order = py if forward else py[::-1]
        prefix = fwd if forward else rev
        counts = _cut_counts(px, order, cands)
        sums = list(prefix[rowix, counts].sum(axis=1))
        # the best cut is usually the half-mass one, which falls between
        # lattice offsets; add the largest feasible projection midpoint,
        # found in the slab between the offsets that bracket total / 2
        s = next((i for i, inner in enumerate(sums)
                  if float(inner * cell) > half), len(cands))
        n_lo = counts[s - 1] if s > 0 else np.zeros(nrow, dtype=np.intp)
        n_hi = counts[s] if s < len(cands) else np.full(nrow, ncol)
        # the slab cells lo < proj <= hi, row-major: in row i, the columns
        # [a[i], a[i] + width[i])
        width = n_hi - n_lo
        a = n_lo if forward else ncol - n_hi
        flat = (np.repeat(rowix * ncol + a - (np.cumsum(width) - width), width)
                + np.arange(width.sum()))
        pv = px[flat // ncol] + py[flat % ncol]
        sort = np.argsort(pv, kind="stable")
        pv = pv[sort]
        base = sums[s - 1] if s > 0 else 0.0
        cum = np.cumsum(np.concatenate(([base], vals.ravel()[flat][sort])))
        cum *= cell
        # cum[0] <= total / 2 <= cum[-1] up to rounding, and the slab is
        # never empty: the crossing cell is pv[split - 1]
        split = min(int(np.searchsorted(cum, half, side="right")), pv.size)
        # the predecessor of the first slab cell is the largest projection
        # at or below lo: the last cell at or below lo of some row
        held = n_lo > 0
        prev = (pv[split - 2:split - 1] if split > 1
                else px[held] + order[n_lo[held] - 1])
        if prev.size:
            mid = 0.5 * (prev.max() + pv[split - 1])
            cands.append(mid)
            sums.append(prefix[rowix, _cut_counts(px, order, [mid])[0]].sum())
        offs = np.array(cands)[:, None]
        boundaries = _polyline_integrals(
            xs, ys, vals, offs * nx - tline * ny, offs * ny + tline * nx)
        for c, inner, boundary in zip(cands, sums, boundaries.tolist()):
            consider("halfplane", {"theta": theta, "offset": c},
                     boundary, float(inner * cell))

    if best is None:
        raise ValueError("no candidate satisfied the half-mass constraint")
    ratio, famname, params = best
    # the witness, rebuilt once on the full grid from the winner's params
    xm = tg.xmesh()
    wm = tg.wmesh()
    if famname in ("superlevel", "sublevel"):
        inside = sm >= params["level"]
    elif famname in ("disk", "diskc"):
        r = params["r"]
        inside = (xm - params["cx"]) ** 2 + (wm - params["cy"]) ** 2 <= r * r
    else:
        theta = params["theta"]
        inside = (math.cos(theta) * xm + math.sin(theta) * wm
                  <= params["offset"])
    if famname in ("sublevel", "diskc"):
        inside = ~inside
    return CheegerReport(
        value=ratio,
        witness=DomainMask(tg, inside),
        family=famname,
        params=params,
        total_mass=total,
        table=table,
    )


# taken at import: a wrapper put in the function's place carries no defaults
_SWEEP_DEFAULTS = dict(cheeger_estimate.__kwdefaults__)
_SWEEP = rules.Keyed({}, dict.fromkeys(_SWEEP_DEFAULTS, rules.SIZE))


# ---------------------------------------------------------------------------
# connectivity and gluing


def connectivity(W: TFField, A: DomainMask, B: DomainMask) -> float:
    """Overlap quotient ||W||_{L2(A and B)} / (||W||_{L2(A)} + ||W||_{L2(B)}).

    Always in (0, 1/2]; equals 1/2 exactly when A and B agree up to W-null
    cells. The caller is responsible for A and B jointly covering whatever
    domain the quotient is used on.
    """
    if A.tfgrid != W.tfgrid or B.tfgrid != W.tfgrid:
        raise ValueError("masks and field live on different grids")
    mod, l2 = modulus(W), LqNorm(2.0)
    num = l2(mod.restrict(A.inside & B.inside))
    if num == 0.0:
        raise ValueError("overlap carries no mass")
    den = l2(mod.restrict(A.inside)) + l2(mod.restrict(B.inside))
    # a masked sum can exceed its superset by rounding only; the quotient is
    # capped at the exact upper end of its range
    return min(num / den, 0.5)


def gluing_bound(c_a: float, c_b: float, lam: float) -> float:
    """Stability constant of a union from its parts: combine the two local
    constants in quadrature and pay the overlap factor 1/lam + sqrt(2).
    A constant may be inf (a disconnected patch), never NaN."""
    c_a, c_b = rules.CONSTANT(c_a, "c_a"), rules.CONSTANT(c_b, "c_b")
    lam = rules.POSITIVE(lam, "connectivity")
    return math.hypot(c_a, c_b) * (1.0 / lam + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Poincare constant


def _build_laplacian(mask: DomainMask, weight: TFField | None):
    """(lap, measure, clipped, box): the weighted 5-point Neumann Laplacian
    and vertex measure of the mask, built on its bounding box `box`.

    Edge conductances discretize the Dirichlet integral of w |grad u|^2,
    vertex measures the form integral of w |u|^2; the generalized eigenvalue
    problem A u = mu M u then approximates the Neumann spectrum of the
    w-weighted Laplacian on the masked region. w = |weight| (1 without
    one), clipped below at 1e-30; `clipped` counts the mask's cells that
    were clipped. Vertices and edges come in row-major order on the box,
    which is row-major order on the grid, so lap and measure hold the bits
    a build over the whole grid gives (tests/poincare_oracle.py); no array
    of the grid's size is made.
    """
    tg = mask.tfgrid
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx
    (r0, r1), (c0, c1) = (_span(mask.inside.any(axis=1)),
                          _span(mask.inside.any(axis=0)))
    box = (slice(r0, r1), slice(c0, c1))
    inside = mask.inside[box]
    w = (np.abs(weight.values[box]) if weight is not None
         else np.ones(inside.shape))
    clipped = int(np.count_nonzero((w < 1e-30) & inside))
    w = np.maximum(w, 1e-30)
    n = int(np.count_nonzero(inside))
    index = -np.ones(inside.shape, dtype=np.int64)
    index[inside] = np.arange(n)

    rows, cols, conds = [], [], []

    def add_edges(sa, sb, coeff):
        pair = inside[sa] & inside[sb]
        ia = index[sa][pair]
        ib = index[sb][pair]
        c = 0.5 * (w[sa][pair] + w[sb][pair]) * coeff
        rows.append(ia)
        cols.append(ib)
        conds.append(c)

    add_edges((slice(None, -1), slice(None)), (slice(1, None), slice(None)),
              dy / dx)
    add_edges((slice(None), slice(None, -1)), (slice(None), slice(1, None)),
              dx / dy)

    ia = np.concatenate(rows)
    ib = np.concatenate(cols)
    cc = np.concatenate(conds)

    deg = np.zeros(n)
    np.add.at(deg, ia, cc)
    np.add.at(deg, ib, cc)
    lap = sparse.coo_matrix(
        (np.concatenate([-cc, -cc, deg]),
         (np.concatenate([ia, ib, np.arange(n)]),
          np.concatenate([ib, ia, np.arange(n)]))),
        shape=(n, n),
    ).tocsr()
    measure = w[inside] * (dx * dy)
    return lap, measure, clipped, box


def poincare_constant(mask: DomainMask,
                      weight: TFField | None = None) -> tuple[float, dict]:
    """(C, report) with C = 1 / sqrt(mu_1), mu_1 the smallest nonzero Neumann
    eigenvalue of the weight-conducted grid Laplacian on the mask.

    Disconnected masks have mu_1 = 0 and are reported as C = inf rather than
    raised. Weights are clipped below at 1e-30 (count in the report).

    Everything is taken on the mask's bounding box (_build_laplacian): the
    weight, the graph, the measure M and the diameter that sets the shift
    s = 0.1 pi^2 / diam^2. The generalized problem (A + s M) u = (mu + s) M u
    is solved as the standard one for D (A + s M) D, D = M^{-1/2}, which has
    the same spectrum: eigsh takes its two eigenvalues nearest 0 by
    shift-invert, through one sparse LU of that matrix. The LU orders the
    unknowns by minimum degree on the symmetric pattern and does not pivot
    (SuperLU's symmetric mode, diagonal pivot threshold 0). The matrix is
    symmetric positive definite (A is positive semidefinite, s M positive
    definite), and Gaussian elimination without pivoting is stable on such
    a matrix: every pivot is positive, and the factors are the Cholesky
    factor's up to a diagonal scaling. Against the generalized solve
    through a pivoting LU of A + s M, the results move only by rounding:
    mu_1 of the 128 x 128-cell unit square at 1/128 spacing by 5.1e-13
    relative (it stays within 1.1e-12 of the exact discrete value), C on
    the certificate-polynomial domains by at most 5.9e-15. An eigensolve
    that does not converge raises a ValueError naming the vertex count.
    """
    if mask.is_empty():
        raise ValueError("empty domain")
    if weight is not None and weight.tfgrid != mask.tfgrid:
        raise ValueError("weight lives on a different grid")

    lap, measure, clipped, box = _build_laplacian(mask, weight)
    n = measure.size
    report = {"vertices": n, "clipped": clipped, "note": ""}

    # the off-diagonal pattern of the Laplacian is the grid graph of the mask
    ncomp, _ = connected_components(lap, directed=False)
    if ncomp > 1:
        report["note"] = f"disconnected ({ncomp} components), C_poinc = inf"
        report["mu1"] = 0.0
        return float("inf"), report

    if n == 1:
        report["mu1"] = float("inf")
        return 0.0, report

    if n == 2:
        # one edge of conductance c: the spectrum of A u = mu M u is
        # {0, c (1/m1 + 1/m2)}, and ARPACK needs more vertices than k = 2
        mu1 = float(-lap[0, 1] * (1.0 / measure[0] + 1.0 / measure[1]))
    else:
        # shift so the constant mode sits at a known positive level, then
        # take the second-smallest eigenvalue by shift-invert at zero
        pts_x = mask.tfgrid.xgrid.points()[box[0]]
        pts_y = mask.tfgrid.wgrid.points()[box[1]]
        diam = math.hypot(pts_x[-1] - pts_x[0], pts_y[-1] - pts_y[0])
        shift = 0.1 * math.pi ** 2 / max(diam, 1e-6) ** 2
        scale = sparse.diags(1.0 / np.sqrt(measure))
        op = (scale @ (lap + shift * sparse.diags(measure)) @ scale).tocsc()
        lu = splu(op, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        rng_free = np.cos(0.7 * np.arange(n)) + 1.0
        try:
            evals = eigsh(op, k=2, sigma=0.0, v0=rng_free,
                          OPinv=LinearOperator(op.shape, matvec=lu.solve,
                                               dtype=op.dtype),
                          return_eigenvectors=False)
        except ArpackNoConvergence:
            raise ValueError(f"the Neumann eigensolve on {n} vertices did "
                             "not converge") from None
        mu1 = float(np.sort(evals)[1] - shift)

    report["mu1"] = mu1
    if mu1 <= 0.0:
        report["note"] = "numerically zero spectral gap, C_poinc = inf"
        value = float("inf")
    else:
        value = 1.0 / math.sqrt(mu1)
    return value, report


# ---------------------------------------------------------------------------
# stability certificate


@dataclass
class CertificateReport:
    """Measured ingredients of the region-stability estimate.

    t1, t2, t3 are the Gaussian-weighted L^2 sizes of the modulus difference,
    the gradient difference, and the log-derivative coupling term; bound is
    poincare * (t1 + t2 + t3) and distance the measured phase distance it
    is meant to dominate.
    """

    t1: float
    t2: float
    t3: float
    poincare: float
    bound: float
    distance: float
    excised_cells: int
    poincare_report: dict = field(repr=False, default_factory=dict)


def _winding_zero_cells(values: np.ndarray) -> np.ndarray:
    """Cells adjacent to a plaquette that encloses a zero of the field.

    Zeros of the sampled field rarely land on grid points, so a magnitude
    threshold cannot find them. Two complementary detectors: the
    argument-principle winding (half a turn or more), and a quadrant
    straddle (Re and Im both change sign across the plaquette), which
    covers zeros sitting exactly on a grid line where antipodal phase
    differences make the winding orientation-ambiguous. Exact zeros
    (undefined phase) are flagged directly.
    """
    ph = np.angle(values)

    def dd(a, b):
        d = b - a
        return (d + np.pi) % (2.0 * np.pi) - np.pi

    p00 = ph[:-1, :-1]
    p10 = ph[1:, :-1]
    p11 = ph[1:, 1:]
    p01 = ph[:-1, 1:]
    wind = dd(p00, p10) + dd(p10, p11) + dd(p11, p01) + dd(p01, p00)
    plaq = np.abs(wind) >= 0.9 * np.pi

    def straddles(comp):
        c = np.stack([comp[:-1, :-1], comp[1:, :-1],
                      comp[1:, 1:], comp[:-1, 1:]])
        return (c.min(axis=0) <= 0.0) & (c.max(axis=0) >= 0.0)

    plaq |= straddles(values.real) & straddles(values.imag)

    zeros = np.zeros(values.shape, dtype=bool)
    zeros[:-1, :-1] |= plaq
    zeros[1:, :-1] |= plaq
    zeros[1:, 1:] |= plaq
    zeros[:-1, 1:] |= plaq
    zeros |= values == 0
    return zeros


# cells outside the excised zeros must keep |F| above this share of its max
_WEIGHT_FLOOR = 1e-6


def stability_certificate(f1: TFField, f2: TFField, mask: DomainMask,
                          excise_cells: int = 3) -> CertificateReport:
    """Measure the three-term stability estimate on a masked region.

    f1 and f2 sample two entire functions F, as fock_polynomial_field makes
    them. Zero cells of either field are dilated by excise_cells and
    removed, mirroring the reduction to the zero-free case: the phase
    difference the estimate controls is only single-valued when neither
    field winds inside the domain. All terms are evaluated with the
    Gaussian weight folded in: the substitutions m = |F| e^{-pi|z|^2/2}
    (exact even where the stored field was exponent-clamped: the clamp
    cancels), grad|F| e^{-pi|z|^2/2} = grad m + pi z m and grad|F|/|F| =
    grad log m + pi z make every ingredient finite-precision-safe and equal
    to its weighted-measure counterpart exactly. The discrete mu_1 behind
    the Poincare constant errs low against the closed forms of the uniform
    disk and of the Gaussian weight, so C_P errs high, the conservative
    side (tests/test_geometry.py,
    test_uniform_disk_gap_errs_low_within_one_percent and
    test_gaussian_weight_gap_meets_the_bakry_emery_floor).
    """
    if f1.tfgrid != f2.tfgrid:
        raise ValueError("fields live on different grids")
    if mask.tfgrid != f1.tfgrid:
        raise ValueError("mask lives on a different grid")
    tg = mask.tfgrid
    damp = np.exp(-fock_exponent(tg))
    m1 = np.abs(f1.values) * damp
    m2 = np.abs(f2.values) * damp
    omega = mask.inside
    if not omega.any():
        raise ValueError("empty domain mask")
    if float(m1[omega].max()) <= 0.0:
        raise ValueError("first field vanishes on the domain")

    zeros = (_winding_zero_cells(f1.values)
             | _winding_zero_cells(f2.values))
    excised = (binary_dilation(zeros, iterations=excise_cells)
               if zeros.any() else zeros)
    dom = omega & ~excised
    if not dom.any():
        raise ValueError("domain empty after zero excision")
    floor_hits = int(np.count_nonzero(
        dom & (m1 < _WEIGHT_FLOOR * float(m1[dom].max()))))
    if floor_hits:
        raise ValueError(
            f"field magnitude below {_WEIGHT_FLOOR:g} of max on "
            f"{floor_hits} cells outside the excised zeros")

    x = tg.xmesh()
    w = tg.wmesh()

    diff = m1 - m2
    gdx, gdy = field_gradient(TFField(tg, diff))
    grad_term = np.hypot(gdx + math.pi * x * diff, gdy + math.pi * w * diff)

    logm1 = np.log(np.maximum(m1, 1e-300))
    lx, ly = field_gradient(TFField(tg, logm1))
    log_deriv = np.hypot(lx + math.pi * x, ly + math.pi * w)

    l2 = LqNorm(2.0)
    t1 = l2(TFField(tg, diff).restrict(dom))
    t2 = l2(TFField(tg, grad_term).restrict(dom))
    t3 = l2(TFField(tg, log_deriv * np.abs(diff)).restrict(dom))

    c1 = TFField(tg, f1.values * damp).restrict(dom)
    c2 = TFField(tg, f2.values * damp).restrict(dom)
    distance = phase_inf_distance(c1, c2).distance

    cpoinc, preport = poincare_constant(
        DomainMask(tg, dom), TFField(tg, (m1 ** 2).astype(np.complex128)))
    bound = cpoinc * (t1 + t2 + t3)
    return CertificateReport(
        t1=t1, t2=t2, t3=t3,
        poincare=cpoinc, bound=bound, distance=distance,
        excised_cells=int(np.count_nonzero(excised & omega)),
        poincare_report=preport,
    )
