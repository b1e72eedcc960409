import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stftlab.grids import (
    Signal,
    TFField,
    TFGrid,
    cdft,
    gaussian,
    hermite,
    make_grid,
    modulate,
    tf_grid_of,
    translate,
)
from stftlab.norms import (
    IntersectionNorm,
    LqNorm,
    NormSpec,
    SobolevNorm,
    XpSigmaNorm,
    _derivative_term,
    _weighted,
    bessel_potential,
    disjointness_witness,
    field_gradient,
    frac_sobolev_norm,
    h1_magnitude,
    inner_l2,
    japanese_bracket,
    modulus,
    modulus_sobolev_ratio,
    parse_norm,
    phase_inf_distance,
    riemann_lp,
)
from stftlab.rng import SplitMix64
from stftlab.transforms import stft

import centred_oracle
import spectrum_oracle
from conftest import random_signal
from phase_scan_oracle import brute_force_distance, scan_distance


# ---------------------------------------------------------------------------
# riemann_lp


def test_riemann_lp_matches_plain_formula():
    rng = np.random.default_rng(1)
    v = rng.normal(size=100) + 1j * rng.normal(size=100)
    cell = 0.125
    for p in (1.0, 2.0, 3.7):
        plain = (cell * np.sum(np.abs(v) ** p)) ** (1.0 / p)
        assert abs(riemann_lp(v, cell, p) - plain) < 1e-12 * plain


def test_riemann_lp_survives_deep_tails():
    v = np.full(4, 1e-300)
    # plain formula: (0.25 * 4 * (1e-300)^2)^(1/2) underflows to 0
    assert (0.25 * np.sum(v**2)) ** 0.5 == 0.0
    assert riemann_lp(v, 0.25, 2.0) == 1e-300


def test_riemann_lp_edge_cases():
    assert riemann_lp(np.zeros(5), 0.1, 2.0) == 0.0
    assert riemann_lp(np.array([]), 0.1, 2.0) == 0.0
    assert riemann_lp(np.array([3.0, -4.0]), 0.5, math.inf) == 4.0
    with pytest.raises(ValueError):
        riemann_lp(np.ones(3), 0.1, 0.5)


def _max_rescaled_l2(values, cell):
    """The max-rescaled Riemann L2 sum that p != 2 still takes."""
    a = np.abs(np.asarray(values)).ravel()
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(cell * np.sum((a / m) ** 2)) ** 0.5


@pytest.mark.parametrize("p", [1, 1.5, 3, 4.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_riemann_lp_in_place_keeps_the_bits_and_the_operand(kind, p):
    # the quotient and the power are taken in the |values| array the norm
    # owns; the expression with fresh arrays is the reference, on values
    # over sixty decades, transposed, strided and integer input
    rng = np.random.default_rng(8)
    v = rng.normal(size=(48, 40)) * 10.0 ** rng.uniform(-30, 30, (48, 40))
    if kind == "complex":
        v = v + 1j * rng.normal(size=(48, 40))
    for x in (v, v.T, v[::3, 1::2], np.arange(-5, 7).reshape(3, 4)):
        before = x.copy()
        a = np.abs(x).ravel()
        m = float(a.max())
        want = m * float(0.125 * np.sum((a / m) ** p)) ** (1.0 / p)
        got = riemann_lp(x, 0.125, p)
        assert np.float64(got).view(np.uint64) == \
            np.float64(want).view(np.uint64), (x.shape, got, want)
        assert np.array_equal(x, before)


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.0, 1e300])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_riemann_l2_is_the_max_rescaled_sum_at_every_scale(kind, scale):
    # the BLAS nrm2 kernel is chosen per CPU: pin it on subnormal values,
    # near the underflow and overflow ends, and on transposed, strided,
    # empty and one-element input
    rng = np.random.default_rng(5)
    v = rng.normal(size=(48, 40))
    if kind == "complex":
        v = v + 1j * rng.normal(size=(48, 40))
    v = scale * v
    cell = 0.125
    for x in (v, v.T, v[::3, 1::2], v[5:6, 7:8]):
        want = _max_rescaled_l2(x, cell)
        got = riemann_lp(x, cell, 2.0)
        assert want > 0.0
        assert abs(got - want) <= 4 * np.spacing(want), (x.shape, got, want)
    assert riemann_lp(v[:0], cell, 2.0) == 0.0
    one = v[3, 4]
    assert riemann_lp(np.array([one]), cell, 2.0) == pytest.approx(
        abs(one) * cell**0.5, rel=4 * np.finfo(float).eps)


def test_riemann_l2_casts_other_dtypes():
    ints = np.array([[3, 0], [0, 4]], dtype=np.int16)
    assert riemann_lp(ints, 1.0, 2.0) == 5.0
    assert riemann_lp(ints.astype(np.float32), 0.25, 2.0) == 2.5
    assert riemann_lp(np.array([3 + 4j], dtype=np.complex64), 1.0, 2.0) == 5.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    scale=st.floats(min_value=1e-8, max_value=1e8),
)
def test_riemann_lp_homogeneity_and_triangle(seed, p, scale):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=50)
    w = rng.normal(size=50)
    cell = 0.2
    assert riemann_lp(scale * v, cell, p) == pytest.approx(
        scale * riemann_lp(v, cell, p), rel=1e-12
    )
    assert riemann_lp(v + w, cell, p) <= (
        riemann_lp(v, cell, p) + riemann_lp(w, cell, p)
    ) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# weighted norms against quadrature


def test_lp_weighted_norm_gaussian_against_quadrature(grid16):
    g = gaussian(grid16)
    p, r = 3.0, 1.5
    integrand = lambda x: ((1 + x * x) ** (r / 2) * 2**0.25 * np.exp(-np.pi * x * x)) ** p
    want = quad(integrand, -8, 8, epsabs=1e-14)[0] ** (1.0 / p)
    got = XpSigmaNorm(p, r)(g)
    assert abs(got - want) < 1e-8 * want


def test_lp_weighted_norm_monotone_in_r(rand16):
    vals = [XpSigmaNorm(2.0, r)(rand16) for r in (0.0, 0.5, 1.0, 2.0)]
    assert vals[0] == pytest.approx(riemann_lp(rand16.values, rand16.grid.dx, 2.0))
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_lp_weighted_norm_indicator_square_oracle():
    # integral of <z>^2 over the centered unit square is 1 + 2/12 + ... = 7/6
    tg = tf_grid_of(make_grid(16.0, 512))
    xm, wm = tg.xmesh(), tg.wmesh()
    inside = (xm >= -0.5) & (xm < 0.5) & (wm >= -0.5) & (wm < 0.5)
    field = TFField(tg, inside.astype(float))
    got = XpSigmaNorm(1.0, 2.0)(field)
    assert got == pytest.approx(7.0 / 6.0, rel=5e-2)


def test_ball_lp_limits(grid16):
    """L^2 on a centred ball is LqNorm of the restricted field."""
    g = gaussian(grid16)

    def ball(radius):
        return LqNorm(2.0)(g.restrict(grid16.radius() <= radius))

    assert abs(ball(5.0) - 1.0) < 1e-10
    from scipy.special import erf

    want = float(erf(np.sqrt(2 * np.pi))) ** 0.5
    assert abs(ball(1.0) - want) < 2e-3


def test_tail_weighted_lp(grid16):
    """The weighted tail mass is XpSigmaNorm of the restricted field."""
    g = gaussian(grid16)
    x = grid16.points()

    def tail(cutoff):
        return XpSigmaNorm(2.0, 1.0)(g.restrict(grid16.radius() >= cutoff))

    # independent direct expression at a scale safe for the plain formula
    w = np.where(np.abs(x) >= 2.0, (1 + x * x) ** 0.5 * np.abs(g.values), 0.0)
    plain = (grid16.dx * np.sum(w**2)) ** 0.5
    assert riemann_lp(w, grid16.dx, 2.0) == pytest.approx(plain, rel=1e-12)
    assert tail(2.0) == pytest.approx(plain, rel=1e-12)
    # decreasing in the cutoff, tiny far out
    t = [tail(c) for c in (1.0, 2.0, 3.0, 5.0)]
    assert t[0] > t[1] > t[2] > t[3]
    assert t[3] < 1e-30


# ---------------------------------------------------------------------------
# bessel potential and sobolev norms


def test_sobolev_norm_of_order_zero_is_twice_l2(rand16):
    # <D>^0 is the identity: the s = 0 derivative term is f itself
    want = 2.0 * riemann_lp(rand16.values, rand16.grid.dx, 2.0)
    assert frac_sobolev_norm(rand16, 0.0, 2.0) == want


def test_bessel_potential_second_order_oracle(grid16):
    # (1 + |xi|^2) multiplier equals 1 - d^2/dx^2 / (4 pi^2) on smooth signals
    g = gaussian(grid16)
    x = grid16.points()
    second = (4 * np.pi**2 * x**2 - 2 * np.pi) * g.values
    want = g.values - second / (4 * np.pi**2)
    got = bessel_potential(g, 2.0).values
    assert np.max(np.abs(got - want)) < 1e-9


def test_frac_sobolev_pure_wave_oracle(grid16):
    xi0 = 2.0
    w = Signal(grid16, np.exp(2j * np.pi * xi0 * grid16.points()))
    for s in (0.5, 1.0, 1.6):
        want = np.sqrt(grid16.length) * (1.0 + (1.0 + xi0**2) ** (s / 2))
        assert frac_sobolev_norm(w, s, 2.0) == pytest.approx(want, rel=1e-12)


def test_frac_sobolev_fast_paths_agree(rand16):
    f = rand16
    s, r = 0.8, 1.0
    # generic route: transform back to the sample side, then sum
    wpart = riemann_lp(japanese_bracket(np.abs(f.grid.points())) ** r * f.values, f.grid.dx, 2.0)
    dpart = riemann_lp(bessel_potential(f, s).values, f.grid.dx, 2.0)
    generic = wpart + dpart
    assert frac_sobolev_norm(f, s, 2.0, r) == pytest.approx(generic, rel=1e-10)
    # s = 0 collapses to twice the weighted part structure
    assert frac_sobolev_norm(f, 0.0, 3.0) == pytest.approx(
        2 * riemann_lp(f.values, f.grid.dx, 3.0), rel=1e-12
    )


def test_frac_sobolev_norm_is_sobolev_norm_object(rand16):
    tg = tf_grid_of(make_grid(8.0, 64))
    field = TFField(tg, np.exp(-np.pi * tg.radius() ** 2 + 2j * np.pi * tg.xmesh()))
    for obj in (rand16, field):
        for s, p, r in ((0.0, 2.0, 0.0), (0.7, 2.0, 0.0), (0.7, 2.0, 1.5),
                        (1.0, 3.0, 0.5), (2, 2, 1)):
            assert frac_sobolev_norm(obj, s, p, r) == SobolevNorm(s, p, r)(obj)


def test_field_l2_closed_form(grid16):
    tg = tf_grid_of(grid16)
    w = np.exp(-np.pi * (tg.xmesh() ** 2 + tg.wmesh() ** 2))
    field = TFField(tg, w)
    # int int e^{-2 pi (x^2 + w^2)} = 1/2
    assert riemann_lp(field.values, tg.cell, 2.0) == pytest.approx(
        np.sqrt(0.5), rel=1e-10
    )
    # frequency-side fast path matches the sample-side sum
    dpart_fast = frac_sobolev_norm(field, 1.0, 2.0) - riemann_lp(field.values, tg.cell, 2.0)
    dpart_slow = riemann_lp(bessel_potential(field, 1.0).values, tg.cell, 2.0)
    assert dpart_fast == pytest.approx(dpart_slow, rel=1e-10)


# ---------------------------------------------------------------------------
# norm objects


def test_norm_objects_and_labels(rand16):
    f = rand16
    l2 = LqNorm(2.0)
    assert l2(f) == pytest.approx(riemann_lp(f.values, f.grid.dx, 2.0), rel=1e-14)
    x21 = XpSigmaNorm(2.0, 1.0)
    bracket = japanese_bracket(np.abs(f.grid.points()))
    assert x21(f) == pytest.approx(
        riemann_lp(bracket * f.values, f.grid.dx, 2.0), rel=1e-14)
    w = SobolevNorm(0.5, 2.0, 1.0)
    assert w(f) == pytest.approx(frac_sobolev_norm(f, 0.5, 2.0, 1.0), rel=1e-14)
    both = IntersectionNorm([l2, x21])
    assert both(f) == max(l2(f), x21(f))
    assert "L2" in l2.label and "^" in both.label


def test_parse_norm():
    assert isinstance(parse_norm("lq:2"), LqNorm)
    for short, q in (("l2", 2.0), ("l4", 4.0), ("linf", math.inf)):
        got = parse_norm(short)
        assert isinstance(got, LqNorm) and got.q == q
    assert isinstance(parse_norm("x:2,1.5"), XpSigmaNorm)
    w = parse_norm("w:0.5,2,1")
    assert isinstance(w, SobolevNorm) and (w.s, w.p, w.r) == (0.5, 2.0, 1.0)
    both = parse_norm("w:1,2 ^ lq:4")
    assert isinstance(both, IntersectionNorm) and len(both.members) == 2
    for bad in ("", "zz:1", "lq:a", "w:1", "lq:1,2"):
        with pytest.raises(ValueError):
            parse_norm(bad)


def test_pair_evaluator_matches_direct_assembly(grid16):
    f = random_signal(grid16, seed=21)
    g = random_signal(grid16, seed=22)
    for norm in (LqNorm(3.0), XpSigmaNorm(2.0, 1.0), SobolevNorm(0.7, 2.0, 0.5),
                 IntersectionNorm([LqNorm(2.0), SobolevNorm(1.0, 2.0)])):
        ev = norm.pair_evaluator(f, g)
        for lam in (1.0, -1.0, np.exp(0.3j), 0.5 - 0.2j):
            direct = norm(Signal(grid16, f.values - lam * g.values))
            assert ev(lam) == pytest.approx(direct, rel=1e-11)


def test_pair_evaluator_rejects_mismatched_grids(grid16, grid8):
    with pytest.raises(ValueError):
        LqNorm(2.0).pair_evaluator(random_signal(grid16), random_signal(grid8))


# ---------------------------------------------------------------------------
# phase-invariant distance


def test_phase_distance_l2_closed_form(grid16):
    g = random_signal(grid16, seed=31)
    f = Signal(grid16, np.exp(0.7j) * g.values)
    res = phase_inf_distance(f, g)
    assert res.distance < 1e-12
    assert abs(res.phase - np.exp(0.7j)) < 1e-10
    assert not res.degenerate
    assert res.method == "closed-form"
    assert res.evaluations == 1


def test_phase_distance_degenerate_orthogonal(grid16):
    e0 = np.zeros(grid16.count, dtype=complex)
    e0[10] = 1.0
    e1 = np.zeros(grid16.count, dtype=complex)
    e1[20] = 1.0
    f, g = Signal(grid16, e0), Signal(grid16, e1)
    res = phase_inf_distance(f, g)
    assert res.degenerate
    assert res.phase == 1.0 + 0.0j
    assert res.method == "closed-form"
    want = riemann_lp(e0 - e1, grid16.dx, 2.0)
    assert res.distance == pytest.approx(want, rel=1e-12)


def test_phase_distance_degenerate_near_orthogonal(grid16):
    """|<f, g>| / (||f|| ||g||) is ~1e-18 on the signals and ~1e-16 on their
    transforms: rounding noise, so every phase ties in L2."""
    f, g = gaussian(grid16), hermite(grid16, 1)
    for a, b in ((f, g), (stft(f), stft(g))):
        ip, res = inner_l2(a, b), phase_inf_distance(a, b)
        assert ip != 0 and res.degenerate and res.phase == ip / abs(ip)
        assert res.distance == riemann_lp(a.values - res.phase * b.values, a.space.cell, 2.0)
        assert res.distance == pytest.approx(np.sqrt(2.0), rel=1e-8)
    assert not phase_inf_distance(f, Signal(grid16, f.values + g.values)).degenerate


def test_phase_distance_scan_path(grid16):
    g = random_signal(grid16, seed=33)
    f = Signal(grid16, np.exp(1.1j) * g.values)
    res = phase_inf_distance(f, g, LqNorm(4.0))
    assert res.distance < 1e-8 * LqNorm(4.0)(g)
    assert abs(res.phase - np.exp(1.1j)) < 1e-6
    assert res.method == "certified+refine"
    assert res.evaluations < 762


def test_phase_distance_scan_agrees_with_closed_form(grid16):
    f = random_signal(grid16, seed=35)
    g = random_signal(grid16, seed=36)
    closed = phase_inf_distance(f, g)
    # X^{2,0} is the same norm but takes the scan route
    scanned = phase_inf_distance(f, g, XpSigmaNorm(2.0, 0.0))
    assert scanned.distance == pytest.approx(closed.distance, rel=1e-9)
    assert abs(scanned.phase - closed.phase) < 1e-5


_SCAN_NORMS = ("lq:1.5", "lq:4", "linf", "w:0.5,2", "lq:4^x:2,1")


def _cli_pair(seed):
    """The STFT fields of the command-line distance pair of the benchmark's
    lab-suite: a shifted, modulated Gaussian against hermite:1 on 16/256."""
    grid = make_grid(16.0, 256)
    fc, fm, gc, gm = (float(k) / 16.0 for k in
                      np.random.default_rng(seed).integers(-32, 33, size=4))
    f = gaussian(grid, center=fc, modulation=fm)
    g = modulate(translate(hermite(grid, 1), gc), gm)
    return stft(f), stft(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certified_distance_matches_scan_on_cli_pair(seed):
    F, G = _cli_pair(seed)
    norm = LqNorm(4.0)
    res = phase_inf_distance(F, G, norm)
    want, scan_evaluations = scan_distance(norm, F, G)
    assert res.distance == pytest.approx(want, rel=1e-9)
    assert res.evaluations < scan_evaluations
    assert 0.0 < res.gap <= 1e-2 * res.distance


@pytest.mark.parametrize("spec", _SCAN_NORMS)
def test_certified_distance_matches_scan_on_field_pairs(spec):
    grid = make_grid(8.0, 64)
    norm = parse_norm(spec)
    for seed in (81, 83):
        F = stft(random_signal(grid, seed=seed))
        G = stft(random_signal(grid, seed=seed + 1))
        res = phase_inf_distance(F, G, norm)
        assert res.method == "certified+refine"
        assert res.distance == pytest.approx(scan_distance(norm, F, G)[0],
                                             rel=1e-9)
        assert abs(norm(F.like(F.values - res.phase * G.values))
                   - res.distance) <= 1e-12 * res.distance


@pytest.mark.parametrize("spec", _SCAN_NORMS)
def test_certified_distance_gap_is_sound(spec):
    grid = make_grid(8.0, 64)
    noise = random_signal(grid, seed=85).values
    left = grid.points() < 0
    # halves turned by nearly opposite phases: two wells of different depth
    # in the Lebesgue norms
    wells = np.where(left, np.exp(0.5j), 0.8 * np.exp(3.6j)) * noise
    norm = parse_norm(spec)
    for f, g in ((random_signal(grid, seed=86), Signal(grid, noise)),
                 (Signal(grid, noise), Signal(grid, wells))):
        res = phase_inf_distance(f, g, norm)
        brute = brute_force_distance(norm, f, g)
        assert res.gap >= 0.0
        assert res.distance - res.gap <= brute
        assert res.distance <= brute * (1 + 1e-9)


def test_phase_distance_zero_g_is_degenerate(grid16):
    f = random_signal(grid16, seed=87)
    zero = Signal(grid16, np.zeros(grid16.count))
    for spec in ("lq:4", "w:0.5,2"):
        norm = parse_norm(spec)
        res = phase_inf_distance(f, zero, norm)
        assert res.degenerate
        assert res.phase == 1.0 + 0.0j
        assert res.evaluations == 1
        assert res.gap == 0.0
        assert res.distance == norm(f)


# ---------------------------------------------------------------------------
# modulus-side quantities


def test_disjointness_witness_edges(grid16):
    g = random_signal(grid16, seed=41)
    half = Signal(grid16, 0.5 * g.values)
    assert disjointness_witness(g, half, half) == 1.0
    left = Signal(grid16, np.where(grid16.points() < 0, 1.0, 0.0))
    right = Signal(grid16, np.where(grid16.points() >= 0, 1.0, 0.0))
    whole = Signal(grid16, left.values + right.values)
    assert disjointness_witness(whole, left, right) == 0.0


def test_disjointness_witness_rejects_bad_decompositions(grid16):
    g = random_signal(grid16, seed=42)
    zero = Signal(grid16, np.zeros(grid16.count))
    with pytest.raises(ValueError, match="vanishing"):
        disjointness_witness(g, g, zero)
    other = random_signal(grid16, seed=43)
    with pytest.raises(ValueError, match="inexact"):
        disjointness_witness(g, g, other)


def test_disjointness_witness_decays_with_separation(grid16):
    base = gaussian(grid16)
    vals = []
    for c in (1.0, 2.0, 3.0):
        h = gaussian(grid16, center=c)
        f = Signal(grid16, base.values + h.values)
        vals.append(disjointness_witness(f, base, h))
    assert 0 < vals[2] < vals[1] < vals[0] < 1


def test_modulus_ratio_trivial_for_positive_signals(grid16):
    g = gaussian(grid16)
    assert modulus_sobolev_ratio(g, 0.8, 2.0) == 1.0
    # stripping a modulation lowers every positive-order ratio
    m = gaussian(grid16, modulation=3.0)
    assert modulus_sobolev_ratio(m, 0.8, 2.0) < 1.0


def test_modulus_preserves_type(grid16):
    g = gaussian(grid16, modulation=2.0)
    out = modulus(g)
    assert isinstance(out, Signal)
    assert np.array_equal(out.values, np.abs(g.values))


# ---------------------------------------------------------------------------
# field gradient and H1 on a region


def test_field_gradient_exact_on_linear_fields():
    tg = tf_grid_of(make_grid(8.0, 64))
    u = 2.0 * tg.xmesh() + 3.0 * tg.wmesh() + np.zeros(tg.shape)
    gx, gw = field_gradient(TFField(tg, u))
    assert np.max(np.abs(gx - 2.0)) < 1e-12
    assert np.max(np.abs(gw - 3.0)) < 1e-12


def test_masked_h1_constant_field(grid16):
    # H1 on a region: the L2 norm of the restricted pointwise magnitude
    tg = tf_grid_of(grid16)
    h = h1_magnitude(TFField(tg, np.ones(tg.shape)), 0.0)
    assert h.values.dtype == np.float64

    def on(region):
        return riemann_lp(h.restrict(region).values, tg.cell, 2.0)

    full = np.ones(tg.shape, dtype=bool)
    want = np.sqrt(tg.xgrid.length * tg.wgrid.length)
    assert on(full) == pytest.approx(want, rel=1e-12)
    half = np.zeros(tg.shape, dtype=bool)
    half[: tg.shape[0] // 2] = True
    assert on(half) == pytest.approx(want / np.sqrt(2), rel=1e-12)
    with pytest.raises(ValueError):
        on(np.ones((3, 3), dtype=bool))


def test_inner_l2_hermite_orthogonality(grid16):
    h0, h1 = hermite(grid16, 0), hermite(grid16, 1)
    assert abs(inner_l2(h0, h0) - 1.0) < 1e-10
    assert abs(inner_l2(h0, h1)) < 1e-10


# ---------------------------------------------------------------------------
# NormSpec parameter bundle


def test_norm_spec_validation():
    for bad in (dict(p=0.5), dict(p=math.inf), dict(q=0.0), dict(s=-1.0),
                dict(r=-0.5), dict(s=math.nan), dict(q=math.nan)):
        with pytest.raises(ValueError):
            NormSpec(**bad)


# ---------------------------------------------------------------------------
# phase distance invariants


def test_phase_distance_symmetry_and_unimodular_invariance(grid16):
    f = random_signal(grid16, seed=71)
    g = random_signal(grid16, seed=72)
    d_fg = phase_inf_distance(f, g).distance
    d_gf = phase_inf_distance(g, f).distance
    assert d_fg == pytest.approx(d_gf, rel=1e-8)
    spun = Signal(grid16, np.exp(0.4j) * g.values)
    assert phase_inf_distance(f, spun).distance == pytest.approx(d_fg, rel=1e-8)


def test_phase_distance_upper_bounds(grid16):
    f = random_signal(grid16, seed=73)
    g = random_signal(grid16, seed=74)
    norm = LqNorm(3.0)
    d = phase_inf_distance(f, g, norm).distance
    assert d <= norm(Signal(grid16, f.values - g.values)) * (1 + 1e-12)
    assert d <= norm(Signal(grid16, f.values + g.values)) * (1 + 1e-12)


def test_phase_distance_scan_against_brute_force():
    grid = make_grid(8.0, 64)
    f = random_signal(grid, seed=75)
    g = random_signal(grid, seed=76)
    norm = LqNorm(4.0)
    res = phase_inf_distance(f, g, norm)
    ev = norm.pair_evaluator(f, g)
    phases = np.exp(2j * np.pi * np.arange(100000) / 100000)
    brute = min(ev(lam) for lam in phases)
    assert res.distance <= brute + 1e-6 * brute


def test_phase_distance_domain_restriction(grid16):
    g = gaussian(grid16)
    h = gaussian(grid16, center=4.0)
    f = Signal(grid16, g.values + h.values)
    spun = Signal(grid16, g.values + np.exp(0.9j) * h.values)
    whole = phase_inf_distance(f, spun).distance
    left = grid16.points() < 2.0
    restricted = phase_inf_distance(f.restrict(left),
                                    spun.restrict(left)).distance
    assert restricted < 1e-6
    assert whole > 1e-2


# ---------------------------------------------------------------------------
# norm axioms as properties


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_norm_objects_triangle_and_homogeneity(sa, sb):
    grid = make_grid(8.0, 64)
    f = random_signal(grid, seed=sa)
    g = random_signal(grid, seed=sb)
    fg = Signal(grid, f.values + g.values)
    for norm in (LqNorm(2.0), XpSigmaNorm(2.0, 1.0), SobolevNorm(0.5, 2.0),
                 IntersectionNorm([LqNorm(2.0), LqNorm(4.0)])):
        assert norm(fg) <= norm(f) + norm(g) + 1e-10 * (norm(f) + norm(g) + 1)
        scaled = Signal(grid, (-2.5 + 0.5j) * f.values)
        assert norm(scaled) == pytest.approx(abs(-2.5 + 0.5j) * norm(f), rel=1e-10)


def test_p2_multiplier_term_is_plancherel_sum_bitwise(grid16):
    f = random_signal(grid16, seed=81)
    s_ord = 0.7
    dual = grid16.dual()
    rho = np.abs(dual.points())
    mult = (1.0 + np.square(rho)) ** (s_ord / 2.0)
    spectrum = grid16.dx * cdft(f.values)
    oracle = riemann_lp(f.values, grid16.dx, 2.0) + riemann_lp(
        mult * spectrum, dual.dx, 2.0
    )
    assert frac_sobolev_norm(f, s_ord, 2.0) == oracle


# ---------------------------------------------------------------------------
# half-spectrum Sobolev terms of real fields


def _full_spectrum_sobolev(field, s, r):
    """SobolevNorm(s, 2, r) through the full centred spectrum cdft2: the
    reference for the half-spectrum term of real fields."""
    tg = field.tfgrid
    weighted = japanese_bracket(tg.radius()) ** r * field.values
    mult = centred_oracle.multiplier(tg, s)
    spectrum = mult * (tg.cell * centred_oracle.cdft2(field.values))
    return riemann_lp(weighted, tg.cell, 2.0) + riemann_lp(spectrum, tg.dual_cell, 2.0)


def _real_field(tg, seed):
    return TFField(tg, SplitMix64(seed).normals(tg.shape[0] * tg.shape[1])
                   .reshape(tg.shape))


@pytest.mark.parametrize("tg", [
    tf_grid_of(make_grid(16.0, 256)),
    tf_grid_of(make_grid(32.0, 256)),
    # rectangular, so that swapped axes show
    TFGrid(make_grid(8.0, 64), make_grid(4.0, 32)),
], ids=["self-dual-16/256", "non-self-dual-32/256", "rectangular-64x32"])
def test_real_field_half_spectrum_matches_full_spectrum(tg):
    field = _real_field(tg, seed=sum(tg.shape))
    for s in (0.5, 1.0, 1.25):
        for r in (0.0, 1.0):
            assert SobolevNorm(s, 2.0, r)(field) == pytest.approx(
                _full_spectrum_sobolev(field, s, r), rel=1e-13)
    # a complex field keeps the full spectrum, bit for bit
    spun = field.like(np.exp(0.3j) * field.values)
    assert SobolevNorm(1.0, 2.0, 1.0)(spun) == _full_spectrum_sobolev(spun, 1.0, 1.0)


def test_pair_evaluator_on_real_fields_takes_the_complex_combination():
    tg = tf_grid_of(make_grid(8.0, 64))
    f, g = _real_field(tg, seed=91), _real_field(tg, seed=92)
    norm = SobolevNorm(1.0, 2.0, 1.0)
    ev = norm.pair_evaluator(f, g)
    for lam in (1.0, 1j, np.exp(0.3j)):
        assert ev(lam) == pytest.approx(norm(f.like(f.values - lam * g.values)),
                                        rel=1e-12)


def test_modulus_ratio_constant_phase(grid16):
    g = gaussian(grid16)
    spun = Signal(grid16, np.exp(0.3j) * g.values)
    assert modulus_sobolev_ratio(spun, 0.8, 2.0) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the fft-order spectral path against the centred one


def _oracle_operands():
    rng = SplitMix64(2512)
    grid = make_grid(16.0, 256)
    square = tf_grid_of(make_grid(8.0, 64))
    rect = TFGrid(make_grid(8.0, 64), make_grid(4.0, 32))
    signal = Signal(grid, rng.normals(256) + 1j * rng.normals(256))
    complex_field = TFField(square, (rng.normals(64 * 64)
                                     + 1j * rng.normals(64 * 64))
                            .reshape(square.shape))
    real_field = TFField(rect, rng.normals(64 * 32).reshape(rect.shape))
    return {"signal": signal, "complex-field": complex_field,
            "rectangular-real-field": real_field}


@pytest.mark.parametrize("name", ["signal", "complex-field",
                                  "rectangular-real-field"])
def test_fft_order_path_matches_the_centred_oracle(name):
    obj = _oracle_operands()[name]
    for s in (0.5, 1.25):
        for p in (2.0, 3.0):
            got = riemann_lp(*_derivative_term(obj, s, p))
            assert got == pytest.approx(
                centred_oracle.derivative_norm(obj, s, p), rel=1e-13)
        got = bessel_potential(obj, s).values
        want = centred_oracle.bessel_potential(obj, s).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# quadrant meshes and padded-stride spectra against the full-mesh oracle


def _spectrum_oracle_operands():
    rng = SplitMix64(2218)
    grids = {
        "self-dual-16/256": tf_grid_of(make_grid(16.0, 256)),
        "non-self-dual-32/256": tf_grid_of(make_grid(32.0, 256)),
        # rectangular, and its transpose, so that swapped axes show
        "rectangular-64x32": TFGrid(make_grid(8.0, 64), make_grid(4.0, 32)),
        "rectangular-32x64": TFGrid(make_grid(4.0, 32), make_grid(8.0, 64)),
    }
    grid = make_grid(16.0, 256)
    ops = {"signal": Signal(grid, rng.normals(256) + 1j * rng.normals(256))}
    for name, tg in grids.items():
        cells = tg.shape[0] * tg.shape[1]
        re = rng.normals(cells).reshape(tg.shape)
        im = rng.normals(cells).reshape(tg.shape)
        ops[f"{name}-real"] = TFField(tg, re)
        ops[f"{name}-complex"] = TFField(tg, re + 1j * im)
    return ops


@pytest.mark.parametrize("name", list(_spectrum_oracle_operands()))
def test_quadrant_meshes_and_padded_spectra_match_the_full_mesh_bitwise(name):
    obj = _spectrum_oracle_operands()[name]
    sp = obj.space
    for r in (0.5, 1.0, 2.0):
        assert np.array_equal(_weighted(obj.values, sp, r),
                              spectrum_oracle.weighted(obj.values, sp, r)), r
    for s in (0.5, 1.0, 1.25, 2.0):
        for p in (2.0, 3.0):
            got, cell, q = _derivative_term(obj, s, p)
            want, want_cell, want_q = spectrum_oracle.derivative_term(obj, s, p)
            assert (cell, q) == (want_cell, want_q)
            assert np.array_equal(got, want), (s, p)
            for r in (0.5, 1.0, 2.0):
                terms = [(spectrum_oracle.weighted(obj.values, sp, r),
                          sp.cell, p), (want, cell, q)]
                assert SobolevNorm(s, p, r)(obj) == float(
                    sum(riemann_lp(*t) for t in terms)), (s, p, r)
        got = bessel_potential(obj, s).values
        assert np.array_equal(
            got, spectrum_oracle.bessel_potential(obj, s).values), s
