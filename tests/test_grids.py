import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftlab.grids import (
    Signal,
    TFField,
    TFGrid,
    boundary_decay,
    cdft,
    cdft2,
    fourier,
    gaussian,
    hermite,
    icdft,
    make_grid,
    modulate,
    tf_grid_of,
    translate,
)

from centred_oracle import icdft2
from conftest import random_signal


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0.0, 16)
    with pytest.raises(ValueError):
        make_grid(-2.0, 16)
    with pytest.raises(ValueError):
        make_grid(8.0, 15)
    with pytest.raises(ValueError):
        make_grid(8.0, 6)


def test_make_grid_count_is_bounded():
    assert make_grid(16.0, 4096).count == 4096
    with pytest.raises(ValueError, match="limit"):
        make_grid(16.0, 4098)


def test_points_and_frequencies_are_centered(grid8):
    x = grid8.points()
    assert x[grid8.count // 2] == 0.0
    assert x[0] == -grid8.length / 2
    xi = grid8.dual().points()
    assert xi[grid8.count // 2] == 0.0
    assert np.isclose(xi[1] - xi[0], 1.0 / grid8.length)


def test_dual_roundtrip_is_identity_on_dyadic_grids():
    for length, count in [(16.0, 256), (512.0, 4096), (8.0, 64), (0.125, 16)]:
        g = make_grid(length, count)
        assert g.dual().dual() == g


def test_self_duality_flag():
    assert make_grid(16.0, 256).is_self_dual
    assert not make_grid(8.0, 256).is_self_dual


def test_index_of_on_and_off_grid(grid8):
    assert grid8.index_of(0.0) == grid8.count // 2
    assert grid8.index_of(grid8.dx) == grid8.count // 2 + 1
    assert grid8.index_of(-grid8.length / 2) == 0
    with pytest.raises(ValueError):
        grid8.index_of(grid8.dx * 0.5)


def test_cdft_matches_direct_sum():
    n = 12
    rng = np.random.default_rng(3)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    k = np.arange(n) - n // 2
    direct = np.array(
        [np.sum(a * np.exp(-2j * np.pi * k * (m - n // 2) / n)) for m in range(n)]
    )
    assert np.max(np.abs(cdft(a) - direct)) < 1e-12 * np.max(np.abs(direct))
    assert np.max(np.abs(icdft(cdft(a)) - a)) < 1e-13


def test_cdft2_is_separable():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 12)) + 1j * rng.normal(size=(8, 12))
    assert np.allclose(cdft2(a), cdft(cdft(a, axis=1), axis=0), atol=1e-12)
    assert np.max(np.abs(icdft2(cdft2(a)) - a)) < 1e-13


def test_fourier_matches_direct_transform(grid8):
    f = random_signal(grid8, seed=11)
    x = grid8.points()
    xi = grid8.dual().points()
    direct = np.array(
        [grid8.dx * np.sum(f.values * np.exp(-2j * np.pi * x * w)) for w in xi]
    )
    F = fourier(f)
    assert F.grid == grid8.dual()
    assert np.max(np.abs(F.values - direct)) < 1e-12 * np.max(np.abs(direct))


def test_fourier_inverse_roundtrip(rand16):
    F = fourier(rand16)
    back = Signal(F.grid.dual(), icdft(F.values) / rand16.grid.dx)
    assert back.grid == rand16.grid
    assert np.max(np.abs(back.values - rand16.values)) < 1e-12


def test_parseval(rand16):
    f = rand16
    F = fourier(f)
    a = f.grid.dx * np.sum(np.abs(f.values) ** 2)
    b = F.grid.dx * np.sum(np.abs(F.values) ** 2)
    assert abs(a - b) < 1e-10 * a


def test_shift_theorem(grid16):
    f = random_signal(grid16, seed=2)
    u = 5 * grid16.dx
    lhs = fourier(translate(f, u)).values
    xi = grid16.dual().points()
    rhs = np.exp(-2j * np.pi * u * xi) * fourier(f).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(rhs))


def test_modulation_theorem(grid16):
    f = random_signal(grid16, seed=3)
    eta = 3 * grid16.dual().dx
    lhs = fourier(modulate(f, eta))
    rhs = translate(fourier(f), eta)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11 * np.max(np.abs(rhs.values))


def test_translate_composition_and_rejection(grid8):
    f = random_signal(grid8, seed=4)
    a, b = 3 * grid8.dx, -7 * grid8.dx
    two = translate(translate(f, a), b)
    one = translate(f, a + b)
    assert np.array_equal(two.values, one.values)
    with pytest.raises(ValueError):
        translate(f, 0.3 * grid8.dx)
    with pytest.raises(ValueError):
        modulate(f, 0.3 * grid8.dual().dx)


def test_gaussian_unit_norm_and_self_duality(grid16):
    g = gaussian(grid16)
    assert abs(grid16.dx * np.sum(np.abs(g.values) ** 2) - 1.0) < 1e-10
    # the standard gaussian is its own transform on a self-dual grid
    err = np.max(np.abs(fourier(g).values - g.values))
    assert err < 1e-12


def test_gaussian_center_guard(grid16):
    with pytest.raises(ValueError):
        gaussian(grid16, center=grid16.length / 2 - 1.0)
    g = gaussian(grid16, center=2.0, modulation=1.0)
    assert abs(grid16.dx * np.sum(np.abs(g.values) ** 2) - 1.0) < 1e-8


def test_hermite_matches_gaussian_at_order_zero(grid16):
    h0 = hermite(grid16, 0)
    g = gaussian(grid16)
    assert np.max(np.abs(h0.values - g.values)) < 1e-12


def test_hermite_orthonormality(grid16):
    hs = [hermite(grid16, n) for n in range(6)]
    for i, hi in enumerate(hs):
        for j, hj in enumerate(hs):
            ip = grid16.dx * np.sum(hi.values * np.conj(hj.values))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-8


def test_hermite_fourier_eigenfunctions(grid16):
    # with F(xi) = int f e^{-2 pi i x xi}, order n maps to (-i)^n times itself
    for n in range(5):
        h = hermite(grid16, n)
        err = np.max(np.abs(fourier(h).values - (-1j) ** n * h.values))
        assert err < 1e-12


def test_hermite_guards(grid8):
    with pytest.raises(ValueError):
        hermite(grid8, -1)
    with pytest.raises(ValueError):
        hermite(grid8, 2.5)
    # high orders spread out and trip the boundary decay guard on a small grid
    with pytest.raises(ValueError):
        hermite(make_grid(8.0, 64), 40)


def test_boundary_decay_values(grid16):
    g = gaussian(grid16)
    assert boundary_decay(g) < 1e-10
    flat = Signal(grid16, np.ones(grid16.count))
    assert boundary_decay(flat) == 1.0


def test_signal_validation(grid8):
    with pytest.raises(ValueError):
        Signal(grid8, np.ones(grid8.count + 1))
    with pytest.raises(ValueError):
        Signal(grid8, np.full(grid8.count, np.nan))


def test_tf_grid_of(grid16):
    tg = tf_grid_of(grid16)
    assert tg.xgrid == grid16
    assert tg.wgrid == grid16.dual()
    assert np.isclose(tg.cell, grid16.dx * grid16.dual().dx)
    assert tg.shape == (grid16.count, grid16.count)


def test_sample_space_protocol_is_the_expressions_it_replaced():
    g = make_grid(8.0, 64)
    tg = TFGrid(g, make_grid(4.0, 32))  # not square
    assert (g.cell, g.dual_cell, g.shape) == (g.dx, g.dual().dx, (64,))
    assert np.array_equal(g.radius(), np.abs(g.points()))
    assert np.array_equal(g.freq_radius(), np.abs(g.dual().points()))
    assert g.axes == (g,)
    assert tg.cell == tg.xgrid.dx * tg.wgrid.dx
    assert tg.dual_cell == tg.xgrid.dual().dx * tg.wgrid.dual().dx
    assert tg.shape == (64, 32)
    assert np.array_equal(tg.radius(), np.hypot(tg.xmesh(), tg.wmesh()))
    assert tg.axes == (tg.xgrid, tg.wgrid)


def test_one_constructor_check_for_both_sample_types(grid8):
    from stftlab.grids import Sampled

    assert all("__post_init__" not in vars(cls) for cls in (Signal, TFField))
    assert "__post_init__" in vars(Sampled)
    n, tg = grid8.count, tf_grid_of(grid8)
    # the one rule that differs: a field keeps real samples real
    for vals, want in ((np.ones(n, np.float32), np.complex128),
                       (np.arange(n), np.complex128)):
        assert Signal(grid8, vals).values.dtype == want
    for vals, want in ((np.ones(tg.shape, np.float32), np.float64),
                       (np.ones(tg.shape, np.complex64), np.complex128),
                       (np.ones(tg.shape, int), np.complex128)):
        assert TFField(tg, vals).values.dtype == want
    for cls, space, shape in ((Signal, grid8, (n,)), (TFField, tg, (n, n))):
        with pytest.raises(ValueError, match="does not match the sample space"):
            cls(space, np.ones(shape[:-1] + (n + 1,)))
        bad = np.ones(shape, complex)
        bad.flat[3] = complex(1.0, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            cls(space, bad)


def test_signal_and_field_share_space_and_like(grid16):
    f, tg = random_signal(grid16, seed=4), tf_grid_of(grid16)
    field = TFField(tg, np.ones(tg.shape))
    assert f.space is f.grid and field.space is field.tfgrid
    twice = f.like(2.0 * f.values)
    assert type(twice) is Signal and np.array_equal(twice.values, 2.0 * f.values)
    real = field.like(np.zeros(tg.shape))
    assert type(real) is TFField and real.values.dtype == np.float64


def test_restrict_is_the_where_it_replaced(grid16):
    f = random_signal(grid16, seed=6)
    left = grid16.points() < 1.0
    cut = f.restrict(left)
    assert type(cut) is Signal and cut.grid is f.grid
    assert np.array_equal(cut.values, np.where(left, f.values, 0.0))
    tg = TFGrid(make_grid(8.0, 64), make_grid(4.0, 32))  # not square
    rng = np.random.default_rng(3)
    for vals in (rng.normal(size=tg.shape),
                 rng.normal(size=tg.shape) + 1j * rng.normal(size=tg.shape)):
        field = TFField(tg, vals)
        disk = tg.radius() <= 1.5
        cut = field.restrict(disk)
        assert type(cut) is TFField and cut.values.dtype == vals.dtype
        assert np.array_equal(cut.values, np.where(disk, vals, 0.0))
    with pytest.raises(ValueError, match="does not match"):
        field.restrict(disk.T)
    with pytest.raises(ValueError, match="does not match"):
        f.restrict(left[:-2])


@settings(max_examples=25, deadline=None)
@given(
    shift=st.integers(min_value=-32, max_value=32),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_translation_preserves_values_as_permutation(shift, seed):
    grid = make_grid(8.0, 64)
    f = random_signal(grid, seed=seed)
    t = translate(f, shift * grid.dx)
    assert np.array_equal(np.sort_complex(t.values), np.sort_complex(f.values))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_parseval_property(seed):
    grid = make_grid(8.0, 64)
    f = random_signal(grid, seed=seed)
    F = fourier(f)
    a = grid.dx * np.sum(np.abs(f.values) ** 2)
    b = F.grid.dx * np.sum(np.abs(F.values) ** 2)
    assert abs(a - b) <= 1e-10 * max(a, 1.0)
