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
from scipy.sparse.linalg import eigsh

from .grids import TFField, TFGrid, riemann_lp
from .norms import field_gradient, modulus, phase_inf_distance
from .transforms import FockField, fock_exponent

__all__ = [
    "DomainMask",
    "CheegerReport",
    "CertificateReport",
    "marching_squares",
    "cheeger_estimate",
    "connectivity",
    "gluing_bound",
    "poincare_constant",
    "stability_certificate",
]


# ---------------------------------------------------------------------------
# masks


@dataclass
class DomainMask:
    """Boolean region on a TF grid."""

    tfgrid: TFGrid
    inside: np.ndarray

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.tfgrid.shape:
            raise ValueError(
                f"mask shape {self.inside.shape} does not match grid "
                f"{self.tfgrid.shape}"
            )

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.inside))

    def is_empty(self) -> bool:
        return not self.inside.any()

    @classmethod
    def disk(cls, tfgrid: TFGrid, center: complex, radius: float) -> "DomainMask":
        x = tfgrid.xmesh()
        w = tfgrid.wmesh()
        rr = (x - center.real) ** 2 + (w - center.imag) ** 2
        return cls(tfgrid, rr <= radius * radius)

    @classmethod
    def rectangle(cls, tfgrid: TFGrid, x0: float, x1: float,
                  w0: float, w1: float) -> "DomainMask":
        x = tfgrid.xmesh()
        w = tfgrid.wmesh()
        return cls(tfgrid, (x >= x0) & (x <= x1) & (w >= w0) & (w <= w1))


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


def marching_squares(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                     level: float) -> np.ndarray:
    """Isocontour of a scalar field sampled on a rectilinear grid.

    Returns an (K, 4) array of segments (x0, y0, x1, y1) with linear
    interpolation along cell edges. Saddle cells (two opposite corners above
    the level) are resolved by the bilinear center value, which matches the
    contour of the bilinear interpolant.

    Cost: one pass over the full grid classifies every cell by which of its
    corners reach the level; edge interpolation, the saddle test and the
    segment emission then run only on the cells that straddle it, usually a
    few hundred of tens of thousands. Segments come out grouped by case in
    table order and, within a case, in row-major cell order, exactly as a
    full-grid pass emits them.
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
    edge_pts = {
        "S": (x0 + ts * (x1 - x0), y0),
        "E": (x1, y0 + te * (y1 - y0)),
        "N": (x0 + tn * (x1 - x0), y1),
        "W": (x0, y0 + tw * (y1 - y0)),
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
        # case 5 holds corners 1 and 4; a center above the level joins them,
        # so the contour hugs the two excluded corners (and vice versa)
        joined = cells & (center_in if inside_corners else ~center_in)
        split = cells & ~(center_in if inside_corners else ~center_in)
        emit(joined, [("S", "E"), ("N", "W")])
        emit(split, [("W", "S"), ("E", "N")])

    return np.concatenate(out, axis=0)


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


def cheeger_estimate(W: TFField, thresholds: int = 256,
                     centers: int = 9, radii: int = 16,
                     directions: int = 64, offsets: int = 33) -> CheegerReport:
    """Scan candidate domains for a small boundary-to-mass quotient of W.

    Three families: super/sublevel sets of a smoothed copy of W across a
    dyadic threshold ladder, disks on a center-by-radius lattice, and
    half-planes over a direction-by-offset lattice. Boundary integrals use
    bilinear interpolation of the raw W along the candidate boundary; mass
    integrals are Riemann sums of raw W over the candidate; only candidates
    holding at most half the total mass count.

    The boundary integrals of all disks of one radius, and of all offsets of
    one half-plane direction, are evaluated in one batch. Masses stay exact
    masked sums, one per candidate in table order: a mass read from a sorted
    cumulative sum rounds differently, which flips near-tied half-plane
    winners on symmetric densities and, through total - mass, moves the
    complement masses by far more than rounding.
    """
    vals = np.ascontiguousarray(W.values.real, dtype=float)
    if (vals < -1e-12 * max(vals.max(), 1.0)).any():
        raise ValueError("density must be nonnegative")
    vals = np.maximum(vals, 0.0)
    tg = W.tfgrid
    cell = tg.cell
    total = float(vals.sum() * cell)
    if total <= 0.0:
        raise ValueError("zero field has no Cheeger quotient")
    half_cap = 0.5 * total * (1.0 + 1e-6)

    xs = tg.xgrid.points()
    ys = tg.wgrid.points()
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx

    # bounding box of the bulk of the mass, for candidate placement
    bulk = vals >= 1e-3 * vals.max()
    bi, bj = np.nonzero(bulk)
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
        segments = marching_squares(xs, ys, sm, level)
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
    # one (cx, cy) table of boundary integrals per radius
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
        # the best cut is usually the half-mass one, which falls between
        # lattice offsets; add the largest feasible projection midpoint
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

    if best is None:
        raise ValueError("no candidate satisfied the half-mass constraint")
    ratio, famname, params, mask = best
    return CheegerReport(
        value=ratio,
        witness=DomainMask(tg, mask.copy()),
        family=famname,
        params=params,
        total_mass=total,
        table=table,
    )


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
    mod = modulus(W)

    def l2_on(region):
        return riemann_lp(mod.restrict(region).values, W.tfgrid.cell, 2.0)

    num = l2_on(A.inside & B.inside)
    if num == 0.0:
        raise ValueError("overlap carries no mass")
    den = l2_on(A.inside) + l2_on(B.inside)
    # a masked sum can exceed its superset by rounding only; the quotient is
    # capped at the exact upper end of its range
    return min(num / den, 0.5)


def gluing_bound(c_a: float, c_b: float, lam: float) -> float:
    """Stability constant of a union from its parts: combine the two local
    constants in quadrature and pay the overlap factor 1/lam + sqrt(2).
    A constant may be inf (a disconnected patch), never NaN."""
    if not (c_a >= 0 and c_b >= 0):
        raise ValueError("local constants must be nonnegative numbers")
    if not lam > 0:
        raise ValueError("connectivity must be positive")
    return math.hypot(c_a, c_b) * (1.0 / lam + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Poincare constant


def _build_laplacian(mask: DomainMask, weights: np.ndarray):
    """Weighted 5-point Neumann Laplacian and vertex measure on the mask.

    Edge conductances discretize the Dirichlet integral of w |grad u|^2,
    vertex measures the form integral of w |u|^2; the generalized eigenvalue
    problem A u = mu M u then approximates the Neumann spectrum of the
    w-weighted Laplacian on the masked region.
    """
    tg = mask.tfgrid
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx
    inside = mask.inside
    n = int(np.count_nonzero(inside))
    index = -np.ones(inside.shape, dtype=np.int64)
    index[inside] = np.arange(n)

    rows, cols, conds = [], [], []

    def add_edges(sa, sb, coeff):
        pair = inside[sa] & inside[sb]
        ia = index[sa][pair]
        ib = index[sb][pair]
        c = 0.5 * (weights[sa][pair] + weights[sb][pair]) * coeff
        rows.append(ia)
        cols.append(ib)
        conds.append(c)

    add_edges((slice(None, -1), slice(None)), (slice(1, None), slice(None)),
              dy / dx)
    add_edges((slice(None), slice(None, -1)), (slice(None), slice(1, None)),
              dx / dy)

    ia = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    ib = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    cc = np.concatenate(conds) if conds else np.empty(0)

    deg = np.zeros(n)
    np.add.at(deg, ia, cc)
    np.add.at(deg, ib, cc)
    lap = sparse.coo_matrix(
        (np.concatenate([-cc, -cc, deg]),
         (np.concatenate([ia, ib, np.arange(n)]),
          np.concatenate([ib, ia, np.arange(n)]))),
        shape=(n, n),
    ).tocsr()
    measure = weights[inside] * (dx * dy)
    return lap, measure


def poincare_constant(mask: DomainMask,
                      weight: TFField | None = None) -> tuple[float, dict]:
    """(C, report) with C = 1 / sqrt(mu_1), mu_1 the smallest nonzero Neumann
    eigenvalue of the weight-conducted grid Laplacian on the mask.

    Disconnected masks have mu_1 = 0 and are reported as C = inf rather than
    raised. Weights are clipped below at 1e-30 (count in the report).
    """
    if mask.is_empty():
        raise ValueError("empty domain")
    if weight is not None and weight.tfgrid != mask.tfgrid:
        raise ValueError("weight lives on a different grid")
    w = (np.abs(weight.values) if weight is not None
         else np.ones(mask.inside.shape))
    clipped = int(np.count_nonzero((w < 1e-30) & mask.inside))
    w = np.maximum(w, 1e-30)

    lap, measure = _build_laplacian(mask, w)
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
        rows = np.any(mask.inside, axis=1)
        cols = np.any(mask.inside, axis=0)
        pts_x = mask.tfgrid.xgrid.points()[rows]
        pts_y = mask.tfgrid.wgrid.points()[cols]
        diam = math.hypot(pts_x.max() - pts_x.min(),
                          pts_y.max() - pts_y.min())
        shift = 0.1 * math.pi ** 2 / max(diam, 1e-6) ** 2
        mdiag = sparse.diags(measure)
        op = (lap + shift * mdiag).tocsc()
        rng_free = np.cos(0.7 * np.arange(n)) + 1.0
        evals = eigsh(op, k=2, M=mdiag, sigma=0.0, v0=rng_free,
                      return_eigenvectors=False)
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
    domain: DomainMask
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


def stability_certificate(f1: FockField, f2: FockField, mask: DomainMask,
                          excise_cells: int = 3) -> CertificateReport:
    """Measure the three-term stability estimate on a masked region.

    Zero cells of either field are dilated by excise_cells and removed,
    mirroring the reduction to the zero-free case: the phase difference the
    estimate controls is only single-valued when neither field winds inside
    the domain. All terms are evaluated with the Gaussian weight folded in:
    the substitutions m = |F| e^{-pi|z|^2/2} (exact even where the stored
    field was exponent-clamped: the clamp cancels),
    grad|F| e^{-pi|z|^2/2} = grad m + pi z m and grad|F|/|F| =
    grad log m + pi z make every ingredient finite-precision-safe and equal
    to its weighted-measure counterpart exactly.
    """
    if f1.field.tfgrid != f2.field.tfgrid:
        raise ValueError("fields live on different grids")
    if mask.tfgrid != f1.field.tfgrid:
        raise ValueError("mask lives on a different grid")
    tg = mask.tfgrid
    damp = np.exp(-fock_exponent(tg))
    m1 = np.abs(f1.field.values) * damp
    m2 = np.abs(f2.field.values) * damp
    omega = mask.inside
    if not omega.any():
        raise ValueError("empty domain mask")
    if float(m1[omega].max()) <= 0.0:
        raise ValueError("first field vanishes on the domain")

    zeros = (_winding_zero_cells(f1.field.values)
             | _winding_zero_cells(f2.field.values))
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

    cell = tg.cell
    x = tg.xmesh()
    w = tg.wmesh()

    diff = m1 - m2
    gdx, gdy = field_gradient(TFField(tg, diff))
    grad_term = np.hypot(gdx + math.pi * x * diff, gdy + math.pi * w * diff)

    logm1 = np.log(np.maximum(m1, 1e-300))
    lx, ly = field_gradient(TFField(tg, logm1))
    log_deriv = np.hypot(lx + math.pi * x, ly + math.pi * w)

    def l2_over(arr):
        return riemann_lp(TFField(tg, arr).restrict(dom).values, cell, 2.0)

    t1 = l2_over(diff)
    t2 = l2_over(grad_term)
    t3 = l2_over(log_deriv * np.abs(diff))

    c1 = TFField(tg, f1.field.values * damp).restrict(dom)
    c2 = TFField(tg, f2.field.values * damp).restrict(dom)
    distance = phase_inf_distance(c1, c2).distance

    cpoinc, preport = poincare_constant(
        DomainMask(tg, dom), TFField(tg, (m1 ** 2).astype(np.complex128)))
    bound = cpoinc * (t1 + t2 + t3)
    return CertificateReport(
        t1=t1, t2=t2, t3=t3,
        poincare=cpoinc, bound=bound, distance=distance,
        excised_cells=int(np.count_nonzero(excised & omega)),
        domain=DomainMask(tg, dom),
        poincare_report=preport,
    )
