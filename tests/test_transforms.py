import math
import tracemalloc

import numpy as np
import pytest

from stftlab.grids import (
    Signal,
    TFField,
    TFGrid,
    gaussian,
    hermite,
    make_grid,
    riemann_lp,
    tf_grid_of,
)
from stftlab.norms import field_gradient, japanese_bracket
from stftlab.transforms import (
    WindowSpec,
    _chirp,
    _measurement_fourier_side,
    ambiguity,
    ambiguity_relation_residuals,
    covariance_residuals,
    fock_polynomial_field,
    parse_window,
    phaseless,
    recover,
    _STFT_CHUNK,
    stft,
    window_comparison_ratio,
)

import ambiguity_oracle
import stft_oracle
from centred_oracle import cdft2, icdft2
from conftest import random_signal
from fock_oracle import (
    FockField,
    fock_cauchy_riemann_residual,
    fock_key_identity_residual,
    to_fock,
)
from zero_oracle import zero_points


def band_limited(grid, seed, width=1.0):
    """Smooth random fixture: white noise pushed through a Gaussian filter."""
    f = random_signal(grid, seed)
    tf = tf_grid_of(grid)
    spec = np.exp(-np.pi * (grid.dual().points() / width) ** 2)
    from stftlab.grids import cdft, icdft

    vals = icdft(cdft(f.values) * spec)
    vals = vals / riemann_lp(vals, grid.dx, 2.0)
    return Signal(grid, vals)


# ---------------------------------------------------------------------------
# window specs


def test_window_spec_build(grid16):
    assert np.array_equal(WindowSpec("gaussian").build(grid16).values,
                          gaussian(grid16).values)
    assert np.array_equal(WindowSpec("hermite", 2).build(grid16).values,
                          hermite(grid16, 2).values)


def test_window_spec_rejects_bad_input():
    for kind in ("boxcar", "sampled"):
        with pytest.raises(ValueError, match="unknown window kind"):
            WindowSpec(kind)
    with pytest.raises(ValueError):
        WindowSpec("hermite", -1)


def test_parse_window():
    assert parse_window("gaussian").kind == "gaussian"
    spec = parse_window("hermite:4")
    assert spec.kind == "hermite" and spec.order == 4
    for bad in ("boxcar", "hermite:x", "hermite"):
        with pytest.raises(ValueError):
            parse_window(bad)


# ---------------------------------------------------------------------------
# stft core


def test_stft_matches_direct_sum(grid8):
    f = random_signal(grid8, seed=11)
    w = gaussian(grid8)
    got = stft(f, WindowSpec("gaussian")).values
    n = grid8.count
    t = grid8.points()
    oms = grid8.dual().points()
    direct = np.empty((n, n), dtype=complex)
    for i in range(n):
        idx = (np.arange(n) - i + n // 2) % n
        windowed = f.values * np.conj(w.values[idx])
        for j, om in enumerate(oms):
            direct[i, j] = grid8.dx * np.sum(windowed * np.exp(-2j * np.pi * t * om))
    assert np.max(np.abs(got - direct)) < 1e-12


def test_stft_isometry(grid16):
    tf = tf_grid_of(grid16)
    for fixture in (gaussian(grid16), hermite(grid16, 3),
                    band_limited(grid16, seed=5)):
        v = stft(fixture, WindowSpec("gaussian"))
        num = riemann_lp(v.values, tf.cell, 2.0)
        den = riemann_lp(fixture.values, grid16.dx, 2.0)
        assert abs(num / den - 1.0) < 1e-4


def test_stft_of_zero_is_zero(grid16):
    zero = Signal(grid16, np.zeros(grid16.count))
    assert not np.any(stft(zero).values)


def test_stft_gaussian_pair_is_centered_bump(grid16):
    v = stft(gaussian(grid16))
    mag = np.abs(v.values)
    i, j = np.unravel_index(np.argmax(mag), mag.shape)
    assert (i, j) == (grid16.count // 2, grid16.count // 2)
    tf = v.tfgrid
    want = np.exp(-np.pi * (tf.xmesh() ** 2 + tf.wmesh() ** 2) / 2)
    assert np.max(np.abs(mag - want)) < 1e-10


def _u64(a):
    """The bits of a float or complex array, signed zeros included."""
    return np.ascontiguousarray(np.asarray(a)).view(np.uint64)


@pytest.mark.parametrize("length, count, windows", [
    (8.0, 8, []),
    (4.0, 16, []),
    (16.0, 384, ["gaussian", "hermite:2"]),
    (16.0, 1024, ["gaussian", "hermite:2"]),
    (32.0, 1024, ["gaussian"]),
], ids=["8/8", "4/16", "16/384-partial-chunk", "16/1024", "32/1024"])
def test_stft_and_ambiguity_are_the_gathered_transform(length, count,
                                                       windows):
    # the circulant view reads the same conjugated window entries as a
    # gather through an index matrix, so the fields agree bit for bit; the
    # ambiguity of the random complex signal drives the view with a window
    # that is neither real nor symmetric, on every grid
    grid = make_grid(length, count)
    f = random_signal(grid, 3)
    for name in windows:
        spec = parse_window(name)
        w = spec.build(grid)
        want = stft_oracle.stft_values(f.values, w.values, grid)
        assert np.array_equal(_u64(stft(f, spec).values), _u64(want)), name
    twist = ambiguity_oracle.chirp(tf_grid_of(grid), 1)
    # a named operand: numpy may reuse a temporary right operand in place,
    # which swaps the factors, and a fused complex product is not symmetric
    v = stft_oracle.stft_values(f.values, f.values, grid)
    assert np.array_equal(_u64(ambiguity(f).values), _u64(twist * v))


def test_stft_holds_its_output_and_about_one_chunk():
    # the product, the FFT and the scaled halves share one chunk buffer;
    # shifted copies around the FFT would hold three chunks at once
    grid = make_grid(16.0, 512)
    f = random_signal(grid, 5)
    window = WindowSpec("gaussian")
    tracemalloc.start()
    try:
        field = stft(f, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = _STFT_CHUNK * grid.count * 16
    assert peak <= field.values.nbytes + 1.5 * chunk


# ---------------------------------------------------------------------------
# covariance


def test_covariance_zero_shift_is_exact(grid16):
    assert covariance_residuals(gaussian(grid16), WindowSpec("gaussian"),
                                [(0.0, 0.0)]) == [0.0]


def test_covariance_on_grid_shifts(grid16):
    w = WindowSpec("gaussian")
    f = hermite(grid16, 2)
    scale = float(np.max(np.abs(stft(f, w).values)))
    shifts = [(2.0, 0.0), (0.0, 3 * grid16.dxi), (2.0, 1.0), (-1.5, -0.5)]
    residuals = covariance_residuals(f, w, shifts)
    assert len(residuals) == 4
    assert all(r < 1e-8 * scale for r in residuals)


def test_covariance_rejects_off_grid(grid16):
    with pytest.raises(ValueError):
        covariance_residuals(gaussian(grid16), WindowSpec("gaussian"),
                             [(0.0, 0.0), (0.3 * grid16.dx, 0.0)])


def test_covariance_residuals_are_the_per_shift_residuals(grid16):
    # V f is transformed once for all shifts; each entry keeps the bits of
    # the residual that transforms both sides anew
    f = random_signal(grid16, 4)
    shifts = [(k * 8 * grid16.dx, l * 8 * grid16.dxi)
              for k in (-2, 0, 1) for l in (-1, 0, 2)]
    for window in (WindowSpec("gaussian"), WindowSpec("hermite", 1)):
        want = [ambiguity_oracle.covariance_residual(f, window, u, eta)
                for u, eta in shifts]
        got = covariance_residuals(f, window, shifts)
        assert np.array_equal(_u64(got), _u64(want))


# ---------------------------------------------------------------------------
# ambiguity function


def test_ambiguity_gaussian_closed_form(grid16):
    a = ambiguity(gaussian(grid16))
    tf = a.tfgrid
    want = np.exp(-np.pi * (tf.xmesh() ** 2 + tf.wmesh() ** 2) / 2)
    assert np.max(np.abs(a.values - want)) < 1e-4


def test_ambiguity_origin_is_energy(grid16):
    for f in (gaussian(grid16), hermite(grid16, 1), random_signal(grid16, 9)):
        a = ambiguity(f)
        c = grid16.count // 2
        energy = riemann_lp(f.values, grid16.dx, 2.0) ** 2
        assert abs(a.values[c, c] - energy) < 1e-6 * energy


def test_ambiguity_cauchy_schwarz(grid16):
    for seed in (1, 2, 3):
        a = ambiguity(random_signal(grid16, seed))
        c = grid16.count // 2
        assert np.max(np.abs(a.values)) <= abs(a.values[c, c]) * (1 + 1e-12)


def test_ambiguity_of_zero(grid16):
    assert not np.any(ambiguity(Signal(grid16, np.zeros(grid16.count))).values)


@pytest.mark.parametrize("length, count", [
    (16.0, 256), (8.0, 256), (32.0, 512), (16.0, 64), (64.0, 2048)],
    ids=["16/256", "8/256-not-self-dual", "32/512", "16/64", "64/2048"])
@pytest.mark.parametrize("sign", [1, -1])
def test_chirp_is_the_expression_bit_for_bit(length, count, sign):
    # three blocks are mirrored from the quadrant x, omega >= 0, and the
    # x = 0 row and omega = 0 column carry signed zeros a mirror would flip
    tf = tf_grid_of(make_grid(length, count))
    assert np.array_equal(_u64(_chirp(tf, sign)),
                          _u64(ambiguity_oracle.chirp(tf, sign)))


def test_measurement_fourier_side_is_the_centred_spectrum_bit_for_bit():
    # real measurements (phaseless, negated) and a complex one, on 64 to
    # 1024 points per axis
    for grid in (make_grid(16.0, 256), make_grid(32.0, 1024),
                 make_grid(8.0, 64)):
        f = random_signal(grid, 6)
        real = phaseless(f)
        assert real.values.dtype == np.float64
        spun = TFField(real.tfgrid, real.values * np.exp(0.3j)
                       + stft(f).values)
        for m in (real, spun, TFField(real.tfgrid, -real.values)):
            assert np.array_equal(
                _u64(_measurement_fourier_side(m)),
                _u64(ambiguity_oracle.measurement_fourier_side(m)))


# ---------------------------------------------------------------------------
# phaseless measurements


def test_phaseless_nonnegative_and_phase_blind(grid16):
    f = band_limited(grid16, seed=13)
    m = phaseless(f)
    assert m.values.dtype == np.float64
    assert np.min(m.values) >= 0.0
    # exactly blind to negation and quarter turns (modulus is sign-symmetric)
    for lam in (-1.0, 1j, -1j):
        spun = Signal(grid16, lam * f.values)
        assert np.array_equal(phaseless(spun).values, m.values)
    spun = Signal(grid16, np.exp(0.7j) * f.values)
    assert np.max(np.abs(phaseless(spun).values - m.values)) < 1e-12 * np.max(m.values)


def test_phaseless_total_mass_is_energy_product(grid16):
    f = hermite(grid16, 2)
    m = phaseless(f, WindowSpec("gaussian"))
    total = float(np.sum(m.values)) * m.tfgrid.cell
    assert abs(total - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# ambiguity relation


def test_ambiguity_relation_fixture_set(grid16):
    signals = [gaussian(grid16), hermite(grid16, 1), hermite(grid16, 4),
               band_limited(grid16, seed=17)]
    residuals = ambiguity_relation_residuals(signals, [WindowSpec()])
    assert len(residuals) == 4
    assert all(row[0] < 1e-3 for row in residuals)


def test_ambiguity_relation_zero_signal(grid16):
    zero = Signal(grid16, np.zeros(grid16.count))
    assert ambiguity_relation_residuals([zero], [WindowSpec()]) == [[0.0]]


def test_ambiguity_relation_requires_self_dual_grid():
    grid = make_grid(8.0, 128)
    with pytest.raises(ValueError, match="self-dual"):
        ambiguity_relation_residuals([gaussian(grid)], [WindowSpec()])


def test_ambiguity_relation_takes_signals_on_one_grid(grid16):
    with pytest.raises(ValueError, match="one grid"):
        ambiguity_relation_residuals(
            [gaussian(grid16), gaussian(make_grid(32.0, 1024))],
            [WindowSpec()])


def test_ambiguity_relation_residuals_are_the_per_pair_residuals(grid16):
    # each A f and each A w is built once; every entry keeps the bits of
    # the residual that builds both ambiguities for its pair
    signals = [gaussian(grid16), hermite(grid16, 2), random_signal(grid16, 3),
               Signal(grid16, np.zeros(grid16.count))]
    windows = [WindowSpec(), WindowSpec("hermite", 1),
               WindowSpec("hermite", 2)]
    want = [[ambiguity_oracle.ambiguity_relation_residual(f, w)
             for w in windows] for f in signals]
    got = ambiguity_relation_residuals(signals, windows)
    assert np.array_equal(_u64(got), _u64(want))


# ---------------------------------------------------------------------------
# recovery


def align_error(f, rec):
    ip = np.vdot(rec.values, f.values)
    lam = 1.0 if ip == 0 else ip / abs(ip)
    diff = riemann_lp(f.values - lam * rec.values, f.grid.dx, 2.0)
    return diff / riemann_lp(f.values, f.grid.dx, 2.0)


def test_recover_noiseless_fixtures(grid16):
    for f, budget in ((gaussian(grid16), 1e-3), (hermite(grid16, 1), 1e-2),
                      (hermite(grid16, 2), 1e-2)):
        res = recover(phaseless(f))
        assert align_error(f, res.signal) < budget
        assert 0.0 < res.masked_fraction < 1.0
        assert res.threshold == pytest.approx(1e-6, rel=1e-6)


def test_recover_reports_masked_fraction_growth(grid16):
    m = phaseless(gaussian(grid16))
    low = recover(m, threshold=1e-8)
    high = recover(m, threshold=1e-2)
    assert high.masked_fraction > low.masked_fraction


def test_recover_error_paths(grid16):
    tf = tf_grid_of(grid16)
    with pytest.raises(ValueError, match="zero measurement"):
        recover(TFField(tf, np.zeros(tf.shape)))
    m = phaseless(gaussian(grid16))
    # |V_w f|^2 is real: a complex field is no measurement
    with pytest.raises(ValueError, match="measurement must be real"):
        recover(m.like(m.values + 1j * m.values))
    with pytest.raises(ValueError,
                       match=r"threshold must be a finite number in \(0, 1\)"):
        recover(m, threshold=2.0)
    with pytest.raises(ValueError):
        recover(m, threshold=-1.0)
    grid = make_grid(8.0, 128)
    with pytest.raises(ValueError, match="self-dual"):
        recover(phaseless(gaussian(grid)))


def _dented(m: TFField, value: float) -> TFField:
    vals = m.values.copy()
    vals[3, 5] = value
    return m.like(vals)


@pytest.mark.parametrize("spoil", ["negated", "dented"])
def test_recover_refuses_a_negative_measurement(grid16, spoil):
    """|V_w f|^2 has no negative sample: a negated measurement, or one
    sample below -1e-12 max(peak, 1), is refused as cheeger_estimate
    refuses such a density; rounding below 0 within that bound is not."""
    m = phaseless(gaussian(grid16))
    bad = m.like(-m.values) if spoil == "negated" else _dented(m, -1e-3)
    with pytest.raises(ValueError, match="measurement must be nonnegative"):
        recover(bad)
    assert recover(_dented(m, -1e-13)).masked_fraction == \
        recover(m).masked_fraction


def test_self_dual_rule_is_the_grid_flag_and_the_dual_axis():
    """A TF grid is self-dual iff its x-axis is (Grid1D.is_self_dual) and
    its omega-axis is that axis's dual: equal axes are not enough."""
    near = make_grid(math.sqrt(148), 148)
    assert near.is_self_dual and near != near.dual()
    assert ambiguity_relation_residuals([gaussian(near)],
                                        [WindowSpec()])[0][0] < 1e-3
    rec = recover(phaseless(gaussian(near))).signal
    assert align_error(gaussian(near), rec) < 1e-2
    flat = make_grid(10.0, 256)
    field = TFField(TFGrid(flat, flat), phaseless(gaussian(flat)).values)
    with pytest.raises(ValueError, match="self-dual"):
        recover(field)


def test_recover_refuses_a_nan_threshold(grid16):
    with pytest.raises(ValueError,
                       match=r"threshold must be a finite number in \(0, 1\)"):
        recover(phaseless(gaussian(grid16)), threshold=float("nan"))


@pytest.mark.parametrize("tau", [1e-6, 1e-2, 0.5])
def test_recover_threshold_is_the_fraction_of_the_window_peak(grid16, tau):
    """The reported level is peak * tau, bit for bit, with the peak read
    from the window ambiguity at the origin."""
    amb = ambiguity(WindowSpec().build(grid16)).values
    origin = grid16.count // 2
    want = abs(amb[origin, origin]) * tau
    got = recover(phaseless(gaussian(grid16)), threshold=tau).threshold
    assert _u64(np.float64(got)) == _u64(np.float64(want))


def test_recover_keeps_the_origin_at_the_largest_fraction(grid16):
    """tau = 1 - 2^-53, the largest fraction below 1, rounds peak * tau to
    at most the peak, so the origin stays in the mask: a gaussian window's
    ambiguity peaks there alone, and a signal still comes back."""
    res = recover(phaseless(gaussian(grid16)), threshold=1.0 - 2.0 ** -53)
    assert res.masked_fraction == 1.0 - 1.0 / grid16.count ** 2
    assert res.signal.grid == grid16


# ---------------------------------------------------------------------------
# Fock view


def test_to_fock_gaussian_is_constant(grid16):
    fock = to_fock(stft(gaussian(grid16)))
    tf = fock.field.tfgrid
    near = (np.hypot(tf.xmesh(), tf.wmesh()) <= 2.0) & fock.trust
    assert near.any()
    assert np.max(np.abs(fock.field.values[near] - 1.0)) < 1e-4
    assert fock_cauchy_riemann_residual(fock) == 0.0


def test_to_fock_hermite_is_monomial(grid16):
    tf = tf_grid_of(grid16)
    z = tf.xmesh() + 1j * tf.wmesh()
    for n in (1, 2, 3):
        fock = to_fock(stft(hermite(grid16, n)))
        region = (np.abs(z) <= 2.0) & fock.trust
        zz, vals = z[region], fock.field.values[region]
        coeff = np.vdot(zz ** n, vals) / np.vdot(zz ** n, zz ** n)
        resid = np.max(np.abs(vals - coeff * zz ** n)) / np.max(np.abs(vals))
        assert resid < 1e-3


def test_fock_residuals_on_fixture_set(grid16):
    for n in (1, 2, 3, 4):
        fock = to_fock(stft(hermite(grid16, n)))
        assert fock_cauchy_riemann_residual(fock) < 1e-2
        assert fock_key_identity_residual(fock) < 5e-2


def test_to_fock_rejects_non_gaussian_window(grid16):
    v = stft(hermite(grid16, 0), WindowSpec("hermite", 1))
    with pytest.raises(ValueError, match="Gaussian"):
        to_fock(v, WindowSpec("hermite", 1))


def test_fock_trust_mask_excludes_far_field(grid16):
    fock = to_fock(stft(gaussian(grid16)))
    assert fock.trust[grid16.count // 2, grid16.count // 2]
    assert not fock.trust.all()


def test_fock_view_is_the_two_exponent_form_it_replaced(grid16):
    """The clamp and the trust test read one exponent; the field and the
    trust mask stay bit-equal to the form that computed it twice, also on a
    grid whose corners pass the clamp."""
    far = tf_grid_of(make_grid(48.0, 256))
    rng = np.random.default_rng(3)
    noise = rng.normal(size=far.shape) + 1j * rng.normal(size=far.shape)
    for g in (stft(gaussian(grid16)), TFField(far, noise)):
        tf = g.tfgrid
        n = tf.shape[1]
        flipped = g.values[:, (n - np.arange(n)) % n]
        x, w = tf.xmesh(), tf.wmesh()
        expo = np.pi * (x * x + w * w) / 2.0
        vals = (np.exp(np.minimum(expo, 700.0)) * np.exp(-1j * np.pi * x * w)
                * flipped)
        mag = np.abs(flipped)
        trust = (mag >= 1e-6 * float(np.max(mag))) & (expo <= 700.0)
        fock = to_fock(g)
        assert np.array_equal(fock.field.values, vals)
        assert np.array_equal(fock.trust, trust)
    assert (expo > 700.0).any() and not fock.trust.all()


def test_fock_field_shape_guard(grid16):
    tf = tf_grid_of(grid16)
    with pytest.raises(ValueError, match="shape"):
        FockField(TFField(tf, np.ones(tf.shape)), np.ones((3, 3), dtype=bool))


# ---------------------------------------------------------------------------
# polynomial Fock fields


def test_fock_polynomial_trivial_cases(grid16):
    tf = tf_grid_of(grid16)
    poly, _ = fock_polynomial_field([], tf)
    assert np.array_equal(poly.values, np.ones(tf.shape))
    poly0, _ = fock_polynomial_field([0], tf)
    mags = np.abs(poly0.values)
    assert mags[grid16.count // 2, grid16.count // 2] == 0.0
    assert np.count_nonzero(mags == 0.0) == 1


def test_fock_polynomial_weighted_decay(grid16):
    tf = tf_grid_of(grid16)
    _, weighted = fock_polynomial_field([0.5 + 0.5j, -1.0], tf)
    rim = np.concatenate([weighted.values[0], weighted.values[-1],
                          weighted.values[:, 0], weighted.values[:, -1]])
    assert np.max(np.abs(rim)) < 1e-8 * np.max(np.abs(weighted.values))


def test_fock_polynomial_guards():
    small = tf_grid_of(make_grid(4.0, 16))
    with pytest.raises(ValueError, match="too small"):
        fock_polynomial_field([0.0], small)
    big = tf_grid_of(make_grid(16.0, 256))
    with pytest.raises(ValueError, match="interior"):
        fock_polynomial_field([9.0 + 0j], big)


def test_fock_polynomial_log_derivative_bound(grid16):
    roots = [0.5 + 0.5j, -0.5 - 0.25j]
    tf = tf_grid_of(grid16)
    poly, _ = fock_polynomial_field(roots, tf)
    z = tf.xmesh() + 1j * tf.wmesh()
    half = z.real >= 2.0
    p = poly.values
    dp = np.zeros_like(p)
    for i in range(len(roots)):
        term = np.ones_like(p)
        for j, r in enumerate(roots):
            if j != i:
                term = term * (z - r)
        dp += term
    dist = np.min([np.abs(z - r) for r in roots], axis=0)
    lhs = np.abs(dp[half] / p[half])
    rhs = len(roots) / dist[half]
    assert np.all(lhs <= rhs * (1 + 1e-12))


# ---------------------------------------------------------------------------
# window comparison


def _amb(grid, window):
    return ambiguity(parse_window(window).build(grid))


def test_window_ratio_refuses_ambiguities_on_two_grids(grid16):
    with pytest.raises(ValueError, match="on one grid"):
        window_comparison_ratio(_amb(grid16, "gaussian"),
                                _amb(make_grid(8.0, 64), "gaussian"))


def test_window_ratio_identical_windows(grid16):
    wc = window_comparison_ratio(_amb(grid16, "gaussian"), _amb(grid16, "gaussian"))
    tf = tf_grid_of(grid16)
    bracket = japanese_bracket(np.hypot(tf.xmesh(), tf.wmesh()))
    assert wc.sup == float(np.max(bracket))
    assert wc.n_zeros == 0


def test_window_ratio_reports_hermite_zero_circle(grid16):
    wc = window_comparison_ratio(_amb(grid16, "gaussian"), _amb(grid16, "hermite:1"))
    num = np.abs(ambiguity(WindowSpec("gaussian").build(grid16)).values)
    den = ambiguity(WindowSpec("hermite", 1).build(grid16))
    # a dropout counts where the numerator still carries signal
    dropouts = (den.values == 0) & (num > 1e-12 * num.max())
    zeros = zero_points(den.values, den.tfgrid, dropouts)
    assert wc.n_zeros == len(zeros) > 20
    radii = np.hypot(zeros[:, 0], zeros[:, 1])
    target = 1.0 / np.sqrt(np.pi)
    assert np.max(np.abs(radii - target)) < 2 * grid16.dx
    # no grid point sits on the circle, so the grid supremum stays finite
    # and at least the unit ratio at the origin; the zeros carry the warning
    assert 1.0 <= wc.sup < np.inf


def test_window_ratio_never_raises_on_zeros(grid16):
    wc = window_comparison_ratio(_amb(grid16, "hermite:1"), _amb(grid16, "gaussian"))
    assert np.isfinite(wc.sup)
    assert wc.n_zeros == 0


# ---------------------------------------------------------------------------
# gradient inequality for arbitrary complex fields


def test_modulus_gradient_never_exceeds_full_gradient(grid16):
    tf = tf_grid_of(grid16)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=tf.shape) + 1j * rng.normal(size=tf.shape)
    rho = np.hypot(tf.xmesh(), tf.wmesh())
    vals = icdft2(cdft2(raw) * np.exp(-0.5 * rho ** 2))
    gx, gw = field_gradient(TFField(tf, vals))
    ax, aw = field_gradient(TFField(tf, np.abs(vals)))
    lhs = np.hypot(ax, aw)[2:-2, 2:-2]
    rhs = np.hypot(np.abs(gx), np.abs(gw))[2:-2, 2:-2]
    assert np.all(lhs <= rhs * (1 + 1e-10) + 1e-12 * np.max(rhs))
