import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import gaussian_filter, label
from scipy.sparse.csgraph import connected_components

from cheeger_oracle import (
    assert_prefix_row,
    assert_same_sweep,
    assert_same_table,
    full_grid_cheeger,
    masked_fsum,
)
from contour_oracle import full_grid_marching_squares
from fock_oracle import to_fock
from poincare_oracle import (
    bakry_emery_floor,
    dense_mu1,
    full_grid_laplacian,
    uniform_disk_mu1,
)
from stftlab import geometry
from stftlab.grids import Signal, TFField, TFGrid, gaussian, make_grid, tf_grid_of
from stftlab.transforms import fock_polynomial_field, stft
from stftlab.geometry import (
    CheegerReport,
    DomainMask,
    cheeger_estimate,
    connectivity,
    gluing_bound,
    marching_squares,
    poincare_constant,
    stability_certificate,
    _winding_zero_cells,
)


@pytest.fixture(scope="module")
def tfg():
    # isotropic 1/16 lattice over [-8, 8)^2
    g = make_grid(16.0, 256)
    return TFGrid(g, g)


@pytest.fixture(scope="module")
def tfg_dual():
    # canonical self-dual TF grid of the 256-point signal grid
    return tf_grid_of(make_grid(16.0, 256))


def radial_field(tg, fn):
    xm, wm = tg.xmesh(), tg.wmesh()
    r = np.sqrt(xm * xm + wm * wm) * np.ones(tg.shape)
    return TFField(tg, fn(r).astype(np.complex128))


@pytest.fixture(scope="module")
def gauss_density(tfg):
    # e^{-pi r^2}, the squared Gaussian weight
    return radial_field(tfg, lambda r: np.exp(-math.pi * r * r))


# ---------------------------------------------------------------------------
# masks


def _indicator_boundary(mask):
    """Length of the 0.5-isocontour of the mask indicator."""
    tg = mask.tfgrid
    seg = marching_squares(tg.xgrid.points(), tg.wgrid.points(),
                           mask.inside.astype(float), 0.5)
    return float(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1]).sum())


def test_full_mask_has_zero_boundary(tfg):
    full = DomainMask(tfg, np.ones(tfg.shape, dtype=bool))
    assert full.cell_count == tfg.shape[0] * tfg.shape[1]
    assert _indicator_boundary(full) == 0.0


def test_disk_mask_cell_count_tracks_area(tfg):
    disk = DomainMask.disk(tfg, 0j, 3.0)
    area = disk.cell_count * tfg.cell
    assert abs(area - math.pi * 9.0) < 0.2


def test_disk_needs_a_finite_center_and_a_nonnegative_radius(tfg):
    assert DomainMask.disk(tfg, 0j, 0.0).cell_count == 1
    for center, radius in ((0j, math.nan), (0j, -1.0),
                           (complex(math.nan, 0.0), 1.0)):
        with pytest.raises(ValueError, match="finite center and a radius"):
            DomainMask.disk(tfg, center, radius)


def test_rectangle_mask_contains_only_the_box(tfg):
    rect = DomainMask.rectangle(tfg, -1.0, 2.0, 0.5, 1.5)
    xm = tfg.xmesh() * np.ones(tfg.shape)
    wm = tfg.wmesh() * np.ones(tfg.shape)
    assert rect.inside.any()
    assert xm[rect.inside].min() >= -1.0 and xm[rect.inside].max() <= 2.0
    assert wm[rect.inside].min() >= 0.5 and wm[rect.inside].max() <= 1.5


def test_mask_shape_mismatch_rejected(tfg):
    with pytest.raises(ValueError):
        DomainMask(tfg, np.ones((3, 3), dtype=bool))


def test_empty_mask_reports_empty(tfg):
    m = DomainMask.rectangle(tfg, 50.0, 60.0, 50.0, 60.0)
    assert m.is_empty()
    assert m.cell_count == 0


def test_disk_mask_boundary_close_to_circumference(tfg):
    disk = DomainMask.disk(tfg, 0j, 3.0)
    # indicator staircase overshoots the smooth circle, but not wildly
    assert 2 * math.pi * 3.0 <= _indicator_boundary(disk) <= 2 * math.pi * 3.0 * 1.2


# ---------------------------------------------------------------------------
# marching squares


def test_contour_length_of_radial_level_set(tfg):
    xm, wm = tfg.xmesh(), tfg.wmesh()
    r = np.sqrt(xm * xm + wm * wm) * np.ones(tfg.shape)
    segs = marching_squares(tfg.xgrid.points(), tfg.wgrid.points(), r, 2.0)
    length = float(np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]).sum())
    assert abs(length - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3


def test_contour_of_linear_field_is_a_straight_cut(tfg):
    xm = tfg.xmesh() * np.ones(tfg.shape)
    level = 0.25 + tfg.xgrid.dx / 3.0
    segs = marching_squares(tfg.xgrid.points(), tfg.wgrid.points(), xm, level)
    length = float(np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]).sum())
    # the lattice of plaquettes spans one cell less than the declared box
    assert length == pytest.approx(tfg.wgrid.length - tfg.wgrid.dx)
    xs = np.concatenate([segs[:, 0], segs[:, 2]])
    assert np.allclose(xs, level, atol=1e-12)


def _same_contour(xs, ys, vals, level):
    fast = marching_squares(xs, ys, vals, level)
    slow = full_grid_marching_squares(xs, ys, vals, level)
    assert fast.shape == slow.shape
    assert np.array_equal(fast, slow)
    return fast


def test_no_contour_when_level_misses_the_range(tfg):
    xm = tfg.xmesh() * np.ones(tfg.shape)
    segs = marching_squares(tfg.xgrid.points(), tfg.wgrid.points(), xm, 100.0)
    assert segs.shape == (0, 4)
    xs = np.linspace(0.0, 1.0, 9)
    ys = np.linspace(0.0, 2.0, 5)
    ramp = np.add.outer(xs, ys)
    for level in (-1.0, 3.0 + 1e-12):
        assert _same_contour(xs, ys, ramp, level).shape == (0, 4)
    const = np.full((9, 5), 0.25)
    for level in (0.0, 0.25, 0.5):
        assert _same_contour(xs, ys, const, level).shape == (0, 4)


def test_saddle_plaquette_emits_two_segments():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    vals = np.array([[1.0, 0.0], [0.0, 1.0]])
    segs = marching_squares(xs, ys, vals, 0.5)
    assert segs.shape[0] == 2
    # both orientations, with the center above, exactly at and below the
    # level, and levels on the corner values
    ys = np.array([-1.0, 0.5])
    for vals in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                 [[0.9, 0.2], [0.1, 0.7]], [[0.3, 1.0], [0.8, 0.0]]):
        vals = np.array(vals)
        for level in (0.4, 0.5, 0.6, *vals.ravel()):
            _same_contour(xs, ys, vals, level)
        assert _same_contour(xs, ys, vals, 0.45).shape[0] == 2


def test_contour_is_the_full_grid_contour_on_random_fields():
    rng = np.random.default_rng(20251218)
    for nx, ny in ((17, 23), (40, 9), (64, 48), (2, 31)):
        xs = np.sort(rng.uniform(-3.0, 3.0, nx))
        ys = np.sort(rng.uniform(-1.0, 5.0, ny))
        smooth = gaussian_filter(rng.normal(size=(nx, ny)), 1.5)
        # small integers put many corners exactly on the level and many
        # saddle centers exactly at it
        ties = rng.integers(0, 4, size=(nx, ny)).astype(float)
        for vals in (smooth, ties):
            levels = [*np.quantile(vals, (0.1, 0.5, 0.9)), vals[1, 0],
                      vals[nx // 2, ny // 2], vals.max(), 1.0, 2.0]
            for level in levels:
                _same_contour(xs, ys, vals, float(level))


# ---------------------------------------------------------------------------
# Cheeger estimates


def _family_min(rep, *families):
    """Smallest feasible quotient among the table rows of the given families;
    the rows of one family do not depend on the others."""
    return min(row["ratio"] for row in rep.table
               if row["feasible"] and row["family"] in families)


def test_gaussian_weight_quotient_near_root_two(tfg):
    W = radial_field(tfg, lambda r: np.exp(-math.pi * r * r / 2.0))
    rep = cheeger_estimate(W)
    assert abs(rep.value - math.sqrt(2.0)) / math.sqrt(2.0) < 0.01


def test_gaussian_density_quotient_refinement_stable(gauss_density):
    rep = cheeger_estimate(gauss_density)
    fine = tf_grid_of(make_grid(16.0, 512))
    rep2 = cheeger_estimate(radial_field(fine, lambda r: np.exp(-math.pi * r * r)))
    assert abs(rep.value - 2.0) / 2.0 < 0.01
    assert abs(rep2.value - rep.value) / rep.value < 0.10


def test_two_bump_quotient_decays_with_separation(tfg):
    xm, wm = tfg.xmesh(), tfg.wmesh()

    def bumps(d):
        v = np.exp(-math.pi * ((xm - d / 2) ** 2 + wm**2)) + np.exp(
            -math.pi * ((xm + d / 2) ** 2 + wm**2)
        )
        return TFField(tfg, v * (1 + 0j) * np.ones(tfg.shape))

    h8 = cheeger_estimate(bumps(8.0)).value
    h10 = cheeger_estimate(bumps(10.0)).value
    assert h8 < math.exp(-(8.0**2) / 16.0)
    assert h10 < h8


def test_plateau_superlevel_cut_beats_all_half_planes(tfg):
    xm, wm = tfg.xmesh(), tfg.wmesh()
    r = np.sqrt(xm * xm + wm * wm) * np.ones(tfg.shape)
    vals = 1.0 / (1.0 + np.exp(8.0 * (r - 1.0))) + 0.045 / (
        1.0 + np.exp(4.0 * (r - 6.0))
    )
    W = TFField(tfg, vals.astype(np.complex128))
    rep = cheeger_estimate(W)
    sup = _family_min(rep, "superlevel")
    assert sup <= _family_min(rep, "sublevel")
    assert sup < _family_min(rep, "halfplane")


def test_cheeger_witness_obeys_half_mass(gauss_density):
    rep = cheeger_estimate(gauss_density)
    vals = gauss_density.values.real
    total = vals.sum() * gauss_density.tfgrid.cell
    witness_mass = vals[rep.witness.inside].sum() * gauss_density.tfgrid.cell
    assert witness_mass <= 0.5 * total * (1.0 + 1e-6)


def test_cheeger_table_records_candidates(gauss_density):
    rep = cheeger_estimate(gauss_density)
    assert isinstance(rep, CheegerReport)
    assert len(rep.table) > 100
    feas = [row["ratio"] for row in rep.table if row["feasible"]]
    assert min(feas) == rep.value


def test_threshold_ladder_refinement_never_increases(gauss_density):
    coarse = cheeger_estimate(gauss_density, thresholds=128)
    fine = cheeger_estimate(gauss_density, thresholds=256)
    levels = ("superlevel", "sublevel")
    assert _family_min(fine, *levels) <= _family_min(coarse, *levels) + 1e-12


def test_cheeger_rejects_zero_and_negative_fields(tfg):
    zero = TFField(tfg, np.zeros(tfg.shape, dtype=np.complex128))
    with pytest.raises(ValueError):
        cheeger_estimate(zero)
    neg = TFField(tfg, -np.ones(tfg.shape, dtype=np.complex128))
    with pytest.raises(ValueError):
        cheeger_estimate(neg)


@pytest.mark.parametrize("sweep, named", [
    ({"bogus": 3}, "bogus is unknown"),
    ({"thresholds": -4}, "thresholds must be an integer >= 0"),
    ({"offsets": 2.0}, "offsets must be an integer >= 0"),
    ({"radii": True}, "radii must be an integer >= 0"),
    ({"thresholds": 1, "directions": 0, "centers": 0},
     "thresholds < 2, directions 0 and centers or radii 0"),
])
def test_check_sweep_refuses_counts_naming_the_keyword(tfg, sweep, named):
    with pytest.raises(ValueError, match=named):
        geometry.check_sweep(sweep)
    density = TFField(tfg, np.ones(tfg.shape, dtype=np.complex128))
    if "bogus" not in sweep:
        with pytest.raises(ValueError, match=named):
            cheeger_estimate(density, **sweep)


def test_check_sweep_admits_a_single_family():
    # half-planes alone, with no offset lattice: each direction still
    # has its half-mass midpoint
    geometry.check_sweep({"thresholds": 0, "centers": 0, "directions": 1,
                          "offsets": 0})


def test_cheeger_refuses_a_density_with_an_imaginary_part(tfg):
    """A complex density is measured only when its imaginary part is zero;
    |V g| + 5i |V g| is refused, not measured as its real part."""
    mod = np.abs(stft(gaussian(tfg.xgrid)).values)
    sweep = {"thresholds": 8, "centers": 2, "radii": 2, "directions": 2}
    for values in (mod + 5j * mod, mod - 1e-300j * mod):
        with pytest.raises(ValueError, match="density must be real"):
            cheeger_estimate(TFField(tfg, values), **sweep)
    real = cheeger_estimate(TFField(tfg, mod), **sweep)
    lifted = cheeger_estimate(TFField(tfg, mod.astype(np.complex128)), **sweep)
    assert lifted.value == real.value and lifted.table == real.table


def _two_bumps(tg):
    xm, wm = tg.xmesh(), tg.wmesh()
    vals = (np.exp(-math.pi * ((xm + 1.5) ** 2 + wm ** 2))
            + 0.5 * np.exp(-math.pi * ((xm - 1.5) ** 2 + (wm - 0.5) ** 2)))
    return vals * np.ones(tg.shape)


# a square TF grid, and one whose x and omega axes differ in extent and count
_TABLE_GRIDS = {"square": TFGrid(make_grid(8.0, 64), make_grid(8.0, 64)),
                "non-square": TFGrid(make_grid(8.0, 64), make_grid(6.0, 48))}


@pytest.mark.parametrize("shape", sorted(_TABLE_GRIDS))
def test_cheeger_table_matches_candidates_computed_one_at_a_time(shape):
    """Every row of the table, rebuilt from its own candidate: the boundary
    from the full-grid contour or a lone path integral, the mass from a
    full-grid mask. Batched boundaries must not reorder a single sum."""
    tg = _TABLE_GRIDS[shape]
    xm, wm = tg.xmesh(), tg.wmesh()
    vals = _two_bumps(tg)
    sweep = {"thresholds": 32, "centers": 4, "radii": 5, "directions": 8,
             "offsets": 9}
    W = TFField(tg, vals.astype(np.complex128))
    rep = cheeger_estimate(W, **sweep)

    xs, ys, cell = tg.xgrid.points(), tg.wgrid.points(), tg.cell
    dx, dy = tg.xgrid.dx, tg.wgrid.dx
    total = float(vals.sum() * cell)
    assert rep.total_mass == total
    sm = gaussian_filter(vals, sigma=geometry._SMOOTHING, mode="constant")
    bi, bj = np.nonzero(vals >= 1e-3 * vals.max())
    diag = math.hypot(xs[bi.max()] - xs[bi.min()], ys[bj.max()] - ys[bj.min()])
    span = 0.75 * diag
    tline = np.linspace(-span, span, max(129, int(4.0 * span / max(dx, dy))))

    def path(px, py):
        seg = np.hypot(np.diff(px), np.diff(py))
        v = geometry._bilinear(xs, ys, vals, px, py)
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * seg))

    def candidate(row):
        fam = row["family"]
        if fam in ("superlevel", "sublevel"):
            segs = full_grid_marching_squares(xs, ys, sm, row["level"])
            boundary = geometry._segment_integral(xs, ys, vals, segs)
            inside = sm >= row["level"]
        elif fam in ("disk", "diskc"):
            cx, cy, r = row["cx"], row["cy"], row["r"]
            npts = max(64, int(4.0 * math.pi * r / max(dx, dy)))
            th = np.linspace(0.0, 2.0 * math.pi, npts + 1)
            boundary = path(cx + r * np.cos(th), cy + r * np.sin(th))
            inside = (xm - cx) ** 2 + (wm - cy) ** 2 <= r * r
        else:
            nx, ny = math.cos(row["theta"]), math.sin(row["theta"])
            c = row["offset"]
            boundary = path(c * nx - tline * ny, c * ny + tline * nx)
            inside = nx * xm + ny * wm <= c
        if fam == "diskc":
            inside = ~inside
        mass = float(vals[inside].sum() * cell)
        if fam == "sublevel":
            return boundary, total - mass, ~inside
        return boundary, mass, inside

    assert {row["family"] for row in rep.table} == {
        "superlevel", "sublevel", "disk", "diskc", "halfplane"}
    best = None
    for row in rep.table:
        boundary, mass, inside = candidate(row)
        assert row["boundary"] == boundary, row
        ratio = boundary / mass if mass > 0 else float("inf")
        if row["family"] in ("disk", "diskc", "halfplane"):
            # a prefix-sum mass: exact runs, mass and ratio in bound
            assert_prefix_row(W, row)
        else:
            assert row["mass"] == mass, row
            assert row["ratio"] == ratio, row
        assert row["feasible"] == (0.0 < mass <= 0.5 * total * (1.0 + 1e-6))
        if row["feasible"] and (best is None or ratio < best[0]):
            best = (ratio, row, inside)
    ratio, row, inside = best
    assert rep.value == row["ratio"] and rep.family == row["family"]
    assert np.array_equal(rep.witness.inside, inside)


def _atoms_density():
    """|V f| of a seeded sum of 6 Gaussian atoms on the 16/256 grid."""
    grid = make_grid(16.0, 256)
    rng = np.random.default_rng(6)
    x = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    for _ in range(6):
        weight = complex(rng.normal(), rng.normal())
        c, w = rng.uniform(-4.0, 4.0, size=2)
        vals += weight * np.exp(-math.pi * (x - c) ** 2 + 2j * math.pi * w * x)
    return TFField(tf_grid_of(grid), np.abs(stft(Signal(grid, vals)).values))


def _heavy_cell_density():
    """The two bumps plus a corner cell holding over half the mass: the
    directions in which that cell projects lowest have no midpoint."""
    tg = _TABLE_GRIDS["square"]
    vals = _two_bumps(tg)
    vals[0, 0] = 2.0 * vals.sum()
    return TFField(tg, vals)


def _heavy_first_slab_cell():
    """A 10 x 10 plateau and, just past its first row, a cell holding over
    half the mass at omega's lowest column: at theta = 0 with one offset
    (the plateau's first row) that cell opens the midpoint slab, and its
    predecessor lies in a row wholly below the offset."""
    tg = _TABLE_GRIDS["square"]
    vals = np.zeros(tg.shape)
    vals[20:30, 20:30] = 1.0
    vals[21, 0] = 200.0
    return TFField(tg, vals)


def _gaussian_non_square():
    tg = _TABLE_GRIDS["non-square"]
    xm, wm = tg.xmesh(), tg.wmesh()
    return TFField(tg, np.exp(-math.pi * ((xm - 0.3) ** 2
                                          + 2.0 * (wm + 0.2) ** 2))
                   * np.ones(tg.shape))


def _two_bumps_field():
    return TFField(_TABLE_GRIDS["square"], _two_bumps(_TABLE_GRIDS["square"]))


_ORACLE_CASES = {
    "two-bumps": (_two_bumps_field, {}),
    "gaussian-non-square": (_gaussian_non_square, {}),
    "atoms-16-256": (_atoms_density, {}),
    "heavy-cell": (_heavy_cell_density, {}),
    # no lattice offset, and one: the midpoint slab is open on a side
    "offsets-0": (_two_bumps_field, {"offsets": 0}),
    "offsets-1": (_two_bumps_field, {"offsets": 1}),
    # theta = 0 gives ny = 0 exactly: every row is wholly in or out
    "directions-4": (_two_bumps_field, {"directions": 4}),
    "heavy-first-slab-cell": (_heavy_first_slab_cell,
                              {"directions": 4, "offsets": 1}),
}


def test_the_oracles_masked_sum_is_math_fsum():
    """masked_fsum, the oracle's vectorized exact sum, returns math.fsum's
    bits on cells that span the whole exponent range, subnormals and zeros
    included, and on the 256 x 256 atoms density."""
    rng = np.random.default_rng(3)
    wide = np.ldexp(rng.random(4096), rng.integers(-1080, 1000, 4096))
    wide[rng.random(4096) < 0.1] = 0.0
    dense = np.maximum(_atoms_density().values.real, 0.0)
    for vals in (wide, wide[:64] * 1e-300, dense.ravel()):
        fsum = masked_fsum(vals)
        for _ in range(20):
            mask = rng.random(vals.size) < rng.random()
            assert fsum(mask) == math.fsum(vals[mask])


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_cheeger_estimate_matches_the_full_grid_sweep(case):
    """The boxed, prefix-summed sweep against the full-grid one
    (tests/cheeger_oracle.py): every table row, the family, the params and
    the witness are equal; a disk, diskc or half-plane row cuts each grid
    row (a disk each half-row) in the full grid's cell count, and its mass
    and ratio, and the value when such a row wins, lie within the bound of
    rounding."""
    build, sweep = _ORACLE_CASES[case]
    W = build()
    assert_same_sweep(W, cheeger_estimate(W, **sweep),
                      full_grid_cheeger(W, **sweep))


def test_cheeger_estimate_matches_the_full_grid_sweep_on_sparse_densities():
    """Seeded sparse densities on a 16 x 12 grid, each with one cell over
    half the mass: the crossing often opens the midpoint slab, so its
    predecessor comes from the rows the lower offset cuts."""
    tg = TFGrid(make_grid(4.0, 16), make_grid(3.0, 12))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        vals = rng.random(tg.shape) * (rng.random(tg.shape) < 0.3)
        vals.ravel()[rng.integers(vals.size)] = vals.sum() + 1.0
        W = TFField(tg, vals)
        sweep = {"thresholds": 4, "centers": 2, "radii": 2,
                 "directions": 12, "offsets": seed % 4}
        try:
            assert_same_table(W, cheeger_estimate(W, **sweep).table,
                              full_grid_cheeger(W, **sweep)[4])
        except AssertionError as e:
            raise AssertionError(f"seed {seed}: {e}") from None


def _off_centre_gaussian():
    """exp(-8 pi |z - z0|^2) on the 8/64 grid, z0 = 0.3 + 0.2i: its cells
    fall from 0.88 to subnormals, and to exact zeros in the corners."""
    tg = _TABLE_GRIDS["square"]
    z = tg.xmesh() + 1j * tg.wmesh()
    return TFField(tg, np.exp(-8.0 * math.pi * np.abs(z - (0.3 + 0.2j)) ** 2))


@pytest.mark.parametrize("build, sweep", [
    (_atoms_density, {"centers": 3, "radii": 4}),
    (_off_centre_gaussian, {}),
], ids=["atoms-16-256", "gaussian-8-64"])
def test_disk_complement_masses_are_direct_sums(build, sweep):
    """A diskc mass sums the cells outside its disk. As total - mass it
    cancels when the disk holds nearly all the mass: by 1e-3 relative on
    the atoms density and by 7e-11 on the Gaussian. Among disks alone a
    diskc row wins on both; every diskc row is within mass_tolerance of
    math.fsum of its cells, and so is the winner's ratio."""
    W = build()
    rep = cheeger_estimate(W, thresholds=0, directions=0, **sweep)
    assert rep.family == "diskc"
    for row in rep.table:
        if row["family"] == "diskc":
            assert_prefix_row(W, row)


def _sparse_tied_rows():
    """A seeded sparse density on the non-square grid with four whole rows
    of one value: at theta = 0 and pi the cells of a row tie in projection
    (or nearly), and in value."""
    tg = _TABLE_GRIDS["non-square"]
    rng = np.random.default_rng(29)
    vals = rng.random(tg.shape) * (rng.random(tg.shape) < 0.2)
    vals[rng.choice(tg.shape[0], size=4, replace=False)] = 0.5
    return TFField(tg, vals)


@pytest.mark.parametrize("directions", [2, 4])
@pytest.mark.parametrize("build", [_gaussian_non_square, _sparse_tied_rows])
def test_halfplane_cut_counts_near_theta_pi_are_the_full_grids(build,
                                                              directions):
    """At theta = pi, sin theta = 1.2e-16, so the projections along a row
    differ only in their last bits, and a search on offset - cos(theta) x
    moves whole rows. At every offset, the half-mass midpoint's included,
    each grid row's cut count is the full-grid mask's, and so the mass is
    the masked sum's up to rounding."""
    W = build()
    rep = cheeger_estimate(W, thresholds=0, centers=0,
                           directions=directions)
    thetas = [row["theta"] for row in rep.table]
    assert thetas.count(math.pi) == 34  # 33 lattice offsets and a midpoint
    for row in rep.table:
        assert_prefix_row(W, row)


def test_a_cell_over_half_the_mass_leaves_some_directions_no_midpoint():
    rep = cheeger_estimate(_heavy_cell_density())
    rows = sum(row["family"] == "halfplane" for row in rep.table)
    assert 64 * 33 < rows < 64 * 34


# ---------------------------------------------------------------------------
# connectivity and gluing


def test_connectivity_of_identical_masks_is_exactly_half(tfg, gauss_density):
    A = DomainMask.disk(tfg, 0j, 3.0)
    assert connectivity(gauss_density, A, A) == 0.5


def test_connectivity_matches_strip_quadrature(tfg, gauss_density):
    from scipy.integrate import quad

    A = DomainMask.rectangle(tfg, -8.0, 1.0, -8.0, 7.9)
    B = DomainMask.rectangle(tfg, -1.0, 7.9, -8.0, 7.9)
    lam = connectivity(gauss_density, A, B)

    def m2(lo, hi):
        return quad(lambda t: math.exp(-2 * math.pi * t * t), lo, hi)[0]

    full = m2(-10, 10)
    oracle = math.sqrt(m2(-1, 1) * full) / (
        math.sqrt(m2(-10, 1) * full) + math.sqrt(m2(-1, 10) * full)
    )
    assert abs(lam - oracle) / oracle < 1e-3


def test_connectivity_rejects_massless_overlap(tfg, gauss_density):
    A = DomainMask.rectangle(tfg, -8.0, -2.0, -8.0, 7.9)
    B = DomainMask.rectangle(tfg, 2.0, 7.9, -8.0, 7.9)
    with pytest.raises(ValueError, match="overlap"):
        connectivity(gauss_density, A, B)


def test_connectivity_rejects_foreign_grids(tfg, gauss_density):
    other = TFGrid(make_grid(8.0, 128), make_grid(8.0, 128))
    full = DomainMask(other, np.ones(other.shape, dtype=bool))
    with pytest.raises(ValueError):
        connectivity(gauss_density, full, full)


def test_gluing_bound_arithmetic():
    assert gluing_bound(1.0, 1.0, 0.5) == pytest.approx(
        math.sqrt(2.0) * (2.0 + math.sqrt(2.0)), rel=1e-12
    )
    assert gluing_bound(3.0, 4.0, 0.25) == pytest.approx(
        5.0 * (4.0 + math.sqrt(2.0)), rel=1e-12
    )
    assert gluing_bound(0.0, 0.0, 0.3) == 0.0


def test_gluing_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gluing_bound(-1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        gluing_bound(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gluing_bound(1.0, 1.0, -0.2)


def test_gluing_bound_rejects_nan_and_keeps_inf():
    for args in ((math.nan, 1.0, 0.3), (1.0, math.nan, 0.3),
                 (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            gluing_bound(*args)
    # a disconnected patch has C = inf, and so has the union
    assert gluing_bound(math.inf, 1.0, 0.3) == math.inf


@given(
    ca=st.floats(0.0, 50.0),
    cb=st.floats(0.0, 50.0),
    lam=st.floats(1e-3, 0.5),
)
def test_gluing_bound_formula_property(ca, cb, lam):
    v = gluing_bound(ca, cb, lam)
    assert v == pytest.approx(math.hypot(ca, cb) * (1.0 / lam + math.sqrt(2.0)))
    # tighter connectivity never worsens the bound
    assert gluing_bound(ca, cb, 0.5) <= v + 1e-12


# ---------------------------------------------------------------------------
# Poincare constants


def test_unit_square_spectral_gap_matches_separation(tfg):
    h = tfg.xgrid.dx
    sq = DomainMask.rectangle(tfg, 0.0, 1.0 - h / 2, 0.0, 1.0 - h / 2)
    val, rep = poincare_constant(sq)
    assert abs(rep["mu1"] - math.pi**2) / math.pi**2 < 0.02
    assert val == pytest.approx(1.0 / math.sqrt(rep["mu1"]))


def test_unit_square_gap_on_fine_lattice_within_two_percent():
    g = make_grid(16.0, 2048)  # 1/128 spacing, sparse eigensolve path
    tg = TFGrid(g, g)
    h = g.dx
    sq = DomainMask.rectangle(tg, 0.0, 1.0 - h / 2, 0.0, 1.0 - h / 2)
    assert sq.cell_count == 128 * 128
    _, rep = poincare_constant(sq)
    assert abs(rep["mu1"] - math.pi**2) / math.pi**2 < 0.02


def test_poincare_constant_scales_like_diameter(tfg):
    h = tfg.xgrid.dx
    small = DomainMask.rectangle(tfg, 0.0, 1.0 - h / 2, 0.0, 1.0 - h / 2)
    big = DomainMask.rectangle(tfg, 0.0, 2.0 - h / 2, 0.0, 2.0 - h / 2)
    c1, _ = poincare_constant(small)
    c2, _ = poincare_constant(big)
    assert abs(c2 / c1 - 2.0) < 0.05 * 2.0


def test_disconnected_domain_reports_infinity(tfg):
    m = DomainMask.rectangle(tfg, 0.0, 1.0, 0.0, 1.0)
    m.inside |= DomainMask.rectangle(tfg, 3.0, 4.0, 3.0, 4.0).inside
    val, rep = poincare_constant(m)
    assert val == float("inf")
    assert "disconnected" in rep["note"]


def test_laplacian_graph_has_the_mask_components(tfg):
    # the 5-point stencil links a cell to its 4 neighbours, as label() does
    split = DomainMask.rectangle(tfg, 0.0, 1.0, 0.0, 1.0)
    split.inside |= DomainMask.rectangle(tfg, 3.0, 4.0, 3.0, 4.0).inside
    masks = [DomainMask.disk(tfg, 0j, 2.0).inside, split.inside]
    rng = np.random.default_rng(5)
    masks += [rng.random(tfg.shape) < share for share in (0.3, 0.5, 0.7)]
    for inside in masks:
        mask = DomainMask(tfg, inside)
        lap, measure, _, _ = geometry._build_laplacian(mask, None)
        ncomp, labels = connected_components(lap, directed=False)
        ref, count = label(inside)
        assert measure.size == mask.cell_count and ncomp == count
        # the same partition of the cells, up to the names of the parts
        pairs = set(zip(labels.tolist(), ref[inside].tolist()))
        assert len(pairs) == count


def _edge_masks(tg, rng):
    """Masks that touch each grid edge, one cell, two cells, the split pair
    of unit squares, and random masks at 0.3, 0.5 and 0.7 fill."""
    n0, n1 = tg.shape
    masks = []
    for box in (np.s_[:5, 40:60], np.s_[n0 - 5:, 40:60],
                np.s_[40:60, :5], np.s_[40:60, n1 - 5:], np.s_[:, :],
                np.s_[n0 - 1:, n1 - 1:], np.s_[7:8, 9:11]):
        inside = np.zeros(tg.shape, dtype=bool)
        inside[box] = True
        masks.append(inside)
    split = DomainMask.rectangle(tg, 0.0, 1.0, 0.0, 1.0).inside
    masks.append(split | DomainMask.rectangle(tg, 3.0, 4.0, 0.0, 1.0).inside)
    masks += [rng.random(tg.shape) < share for share in (0.3, 0.5, 0.7)]
    return [DomainMask(tg, inside) for inside in masks]


def test_box_laplacian_keeps_the_full_grid_bits(tfg):
    """The Laplacian, the measure and the clipped count built on the mask's
    bounding box are those of the build over the whole grid, bit for bit,
    with weights below the 1e-30 clip inside and outside the mask."""
    rng = np.random.default_rng(11)
    masks = _edge_masks(tfg, rng)
    assert [m.cell_count for m in masks[5:7]] == [1, 2]
    for mask in masks:
        values = rng.uniform(0.1, 10.0, tfg.shape) * np.exp(
            2j * np.pi * rng.random(tfg.shape))
        values[rng.random(tfg.shape) < 0.05] = 1e-31
        values[rng.random(tfg.shape) < 0.02] = 0.0
        # the first cell inside the mask and the first outside it
        values.flat[np.argmax(mask.inside)] = 1e-31
        values.flat[np.argmin(mask.inside)] = 0.0
        tiny = np.abs(values) < 1e-30
        assert (tiny & mask.inside).any()
        assert (tiny & ~mask.inside).any() or mask.inside.all()
        for weight in (None, TFField(tfg, values)):
            full = (np.ones(tfg.shape) if weight is None
                    else np.maximum(np.abs(values), 1e-30))
            ref_lap, ref_measure = full_grid_laplacian(mask, full)
            lap, measure, clipped, _ = geometry._build_laplacian(mask, weight)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(lap, name),
                                      getattr(ref_lap, name)), name
            assert np.array_equal(measure, ref_measure)
            assert clipped == (0 if weight is None
                               else int(np.count_nonzero(tiny & mask.inside)))


def test_poincare_allocates_nothing_of_the_grid_size():
    """An 8 x 8-cell mask of a 2048^2 grid: a full-grid float64 or int64
    array alone would take 32 MiB."""
    tg = TFGrid(make_grid(16.0, 2048), make_grid(16.0, 2048))
    inside = np.zeros(tg.shape, dtype=bool)
    inside[1000:1008, 1000:1008] = True
    mask = DomainMask(tg, inside)
    tracemalloc.start()
    try:
        _, rep = poincare_constant(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["vertices"] == 64 and rep["mu1"] > 0.0
    assert peak < 4 * 2 ** 20, peak


def test_poincare_refuses_an_eigensolve_that_does_not_converge(tfg):
    """I.i.d. weights spread over 41 decades leave ARPACK short of
    convergence; the refusal names the vertex count."""
    w = 10 ** np.random.default_rng(3).uniform(-40, 1, tfg.shape)
    inside = np.zeros(tfg.shape, dtype=bool)
    inside[100:125, 100:120] = True
    with pytest.raises(ValueError, match="on 500 vertices did not converge"):
        poincare_constant(DomainMask(tfg, inside),
                          TFField(tfg, w.astype(np.complex128)))


def test_single_cell_domain_has_zero_constant(tfg):
    one = DomainMask.rectangle(tfg, 0.0, 0.01, 0.0, 0.01)
    assert one.cell_count == 1
    assert poincare_constant(one)[0] == 0.0


def _grown_mask(tg, rng, count: int) -> DomainMask:
    """A connected mask of `count` cells, grown from the centre by adding a
    random 4-neighbour of a random cell already inside."""
    inside = np.zeros(tg.shape, dtype=bool)
    cells = [(tg.shape[0] // 2, tg.shape[1] // 2)]
    inside[cells[0]] = True
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    while len(cells) < count:
        i, j = cells[rng.integers(len(cells))]
        di, dj = steps[rng.integers(4)]
        if not inside[i + di, j + dj]:
            inside[i + di, j + dj] = True
            cells.append((i + di, j + dj))
    return DomainMask(tg, inside)


@pytest.mark.parametrize("count", [2, 3, 4, 25, 600])
def test_poincare_gap_matches_the_dense_solve(tfg, count):
    rng = np.random.default_rng(count)
    mask = _grown_mask(tfg, rng, count)
    weights = rng.uniform(0.1, 10.0, tfg.shape)
    val, rep = poincare_constant(mask, TFField(tfg, weights.astype(np.complex128)))
    ref = dense_mu1(mask, weights)
    assert rep["vertices"] == count
    assert rep["mu1"] == pytest.approx(ref, rel=1e-9)
    assert val == 1.0 / math.sqrt(rep["mu1"])


# mu1 measured on tf_grid_of(make_grid(16, count)), disks centred at 0:
# (count, weight, radius) -> mu1. The uniform disk's closed form is
# (j'_{1,1} / R)^2; the weight e^{-pi |z|^2} is the constant-field pair's
# m1^2, whose Bakry-Emery floor is 2 pi.
_POINCARE_PINS = {
    (256, "uniform", 1.5): 1.505087,
    (256, "uniform", 2.5): 0.539401,
    (512, "uniform", 1.5): 1.500057,
    (512, "uniform", 2.5): 0.539323,
    (256, "gaussian", 1.5): 6.317882,
    (256, "gaussian", 2.5): 6.282876,
    (512, "gaussian", 1.5): 6.317321,
    (512, "gaussian", 2.5): 6.282876,
}


def _pinned_mu1(count, weight, radius):
    tg = tf_grid_of(make_grid(16.0, count))
    w = None
    if weight == "gaussian":
        w = TFField(tg, np.exp(-math.pi * (tg.xmesh() ** 2 + tg.wmesh() ** 2))
                    * np.ones(tg.shape))
    _, rep = poincare_constant(DomainMask.disk(tg, 0j, radius), w)
    # the pins carry six decimals
    assert rep["mu1"] == pytest.approx(
        _POINCARE_PINS[count, weight, radius], abs=1e-6)
    return rep["mu1"]


@pytest.mark.parametrize("count", [256, 512])
@pytest.mark.parametrize("radius", [1.5, 2.5])
def test_uniform_disk_gap_errs_low_within_one_percent(count, radius):
    """The discrete mu1 of a uniform disk sits below (j'_{1,1} / R)^2, by
    at most 1% at both refinements, so C_P = 1 / sqrt(mu1) errs high."""
    ratio = _pinned_mu1(count, "uniform", radius) / uniform_disk_mu1(radius)
    assert 0.99 < ratio < 1.0


@pytest.mark.parametrize("count", [256, 512])
def test_gaussian_weight_gap_meets_the_bakry_emery_floor(count):
    """Weight e^{-pi |z|^2}: mu1 >= 2 pi on every convex domain, with
    equality for large domains. On the disk of radius 2.5 the discrete mu1
    sits below 2 pi by less than 1e-4 relative (it errs low, so C_P errs
    high); the smaller disk of radius 1.5 lifts it less than 1% above."""
    floor = bakry_emery_floor(math.pi)
    assert 1.0 - 1e-4 < _pinned_mu1(count, "gaussian", 2.5) / floor < 1.0
    assert 1.0 < _pinned_mu1(count, "gaussian", 1.5) / floor < 1.01


def test_poincare_weight_clipping_is_reported(tfg):
    xm, wm = tfg.xmesh(), tfg.wmesh()
    vals = np.exp(-(xm**2 + wm**2)) * np.ones(tfg.shape)
    i = tfg.xgrid.index_of(0.5)
    j = tfg.wgrid.index_of(0.5)
    vals[i, j] = 0.0
    sq = DomainMask.rectangle(tfg, 0.0, 1.0, 0.0, 1.0)
    _, rep = poincare_constant(sq, TFField(tfg, vals.astype(np.complex128)))
    assert rep["clipped"] == 1


def test_poincare_rejects_empty_and_foreign_grid(tfg):
    with pytest.raises(ValueError, match="empty"):
        poincare_constant(DomainMask.rectangle(tfg, 50.0, 60.0, 50.0, 60.0))
    other = TFGrid(make_grid(8.0, 128), make_grid(8.0, 128))
    sq = DomainMask.rectangle(tfg, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        poincare_constant(sq, TFField(other, np.ones(other.shape, np.complex128)))


def test_poincare_grows_as_the_neck_thins(tfg):
    xm, wm = tfg.xmesh(), tfg.wmesh()
    mask = DomainMask.rectangle(tfg, -4.0, 4.0, -2.0, 2.0)
    values = []
    for height in (0.3, 0.1, 0.03):
        ridge = height * np.exp(-4.0 * math.pi * wm**2) * (np.abs(xm) <= 2.0)
        w = (
            np.exp(-math.pi * ((xm - 2.0) ** 2 + wm**2))
            + np.exp(-math.pi * ((xm + 2.0) ** 2 + wm**2))
            + ridge
        ) * np.ones(tfg.shape)
        values.append(poincare_constant(mask, TFField(tfg, w.astype(np.complex128)))[0])
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# zero detection and the stability certificate


def test_winding_detector_flags_roots_on_and_off_grid_lines(tfg_dual):
    for root in (0.4 + 0.0j, 0.4 + 0.025j, -1.0 + 0.8j, 0.375 + 0.0j):
        f, _ = fock_polynomial_field([root], tfg_dual)
        assert _winding_zero_cells(f.values).sum() > 0, root


def test_winding_detector_quiet_on_zero_free_field(tfg_dual):
    f = to_fock(stft(gaussian(tfg_dual.xgrid)))
    zeros = _winding_zero_cells(f.field.values)
    # no zeros anywhere the data is trusted
    assert not (zeros & f.trust).any()


def test_certificate_of_identical_fields_is_all_zero(tfg_dual):
    f, _ = fock_polynomial_field([0.4 + 0.3j], tfg_dual)
    mask = DomainMask.disk(tfg_dual, 0j, 2.5)
    rep = stability_certificate(f, f, mask)
    assert rep.t1 == rep.t2 == rep.t3 == 0.0
    assert rep.distance == 0.0 and rep.bound == 0.0
    assert rep.bound >= rep.distance


def test_certificate_log_term_vanishes_for_constant_field(tfg_dual):
    grid = tfg_dual.xgrid
    g = gaussian(grid)
    f1 = to_fock(stft(g)).field
    herm = np.polynomial.hermite_e.hermeval(
        math.sqrt(2.0 * math.pi) * grid.points(), [0.0, 0.0, 1.0]
    )
    pert = g.values * (1.0 + 0.02 * herm)
    pert = pert / math.sqrt(float(np.sum(np.abs(pert) ** 2)) * grid.dx)
    f2 = to_fock(stft(Signal(grid, pert))).field
    rep = stability_certificate(f1, f2, DomainMask.disk(tfg_dual, 0j, 2.0))
    assert rep.t3 < 1e-12 * max(rep.t1, 1e-30)
    assert rep.excised_cells == 0
    assert rep.t1 > 0.0 and rep.distance > 0.0
    assert rep.bound >= rep.distance


def test_certificate_bounds_distance_for_shifted_root(tfg_dual):
    fa, _ = fock_polynomial_field([0.4 + 0.0j], tfg_dual)
    fb, _ = fock_polynomial_field([0.5 + 0.0j], tfg_dual)
    rep = stability_certificate(fa, fb, DomainMask.disk(tfg_dual, 0j, 2.5))
    assert rep.excised_cells > 0
    assert rep.bound >= rep.distance > 0.0


def test_certificate_handles_multiple_roots(tfg_dual):
    fa, _ = fock_polynomial_field([0.4, -1.0 + 0.8j], tfg_dual)
    fb, _ = fock_polynomial_field([0.45, -1.05 + 0.82j], tfg_dual)
    rep = stability_certificate(fa, fb, DomainMask.disk(tfg_dual, 0j, 2.5))
    assert rep.excised_cells > 40
    assert rep.bound >= rep.distance


def test_certificate_rejects_domain_swallowed_by_excision(tfg_dual):
    fa, _ = fock_polynomial_field([0.4 + 0.0j], tfg_dual)
    fb, _ = fock_polynomial_field([0.5 + 0.0j], tfg_dual)
    tiny = DomainMask.disk(tfg_dual, 0.4 + 0j, 0.1)
    with pytest.raises(ValueError, match="excision"):
        stability_certificate(fa, fb, tiny)


def test_certificate_rejects_vanishing_first_field(tfg_dual):
    zero = TFField(tfg_dual, np.zeros(tfg_dual.shape, np.complex128))
    fb, _ = fock_polynomial_field([0.5 + 0.0j], tfg_dual)
    mask = DomainMask.disk(tfg_dual, 0j, 2.5)
    with pytest.raises(ValueError, match="vanishes"):
        stability_certificate(zero, fb, mask)


def test_certificate_rejects_foreign_grid(tfg_dual):
    fa, _ = fock_polynomial_field([0.4 + 0.0j], tfg_dual)
    mask = DomainMask.disk(tfg_dual, 0j, 2.5)
    other = tf_grid_of(make_grid(16.0, 1024))
    fo, _ = fock_polynomial_field([0.4 + 0.0j], other)
    with pytest.raises(ValueError):
        stability_certificate(fa, fo, mask)


def test_certificate_poincare_weight_follows_first_field(tfg_dual):
    fa, _ = fock_polynomial_field([0.4 + 0.0j], tfg_dual)
    fb, _ = fock_polynomial_field([0.5 + 0.0j], tfg_dual)
    rep = stability_certificate(fa, fb, DomainMask.disk(tfg_dual, 0j, 2.5))
    assert rep.poincare > 0.0
    assert rep.bound == pytest.approx(rep.poincare * (rep.t1 + rep.t2 + rep.t3))
    assert rep.excised_cells > 0
