"""Tests for the instability-pair construction."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from stftlab import experiments as ex
from stftlab import forge
from stftlab.forge import (
    InstabilityPair,
    assemble_pair,
    dichotomy_check,
    field_instability_ratio,
    instability_ratio,
    lp_reduction_rows,
    normalize_seed,
    select_annulus_schedule,
    stft_instability_family,
    verify_bump_bounds,
)
from stftlab.grids import (
    Signal,
    TFField,
    gaussian,
    hermite,
    make_grid,
    modulate,
    tf_grid_of,
    translate,
)
from stftlab.norms import (
    LqNorm,
    NormSpec,
    SobolevNorm,
    XpSigmaNorm,
    _derivative_term,
    disjointness_witness,
    frac_sobolev_norm,
    inner_l2,
    japanese_bracket,
    modulus,
    modulus_difference,
    phase_inf_distance,
    riemann_lp,
)
from stftlab.transforms import WindowSpec, parse_window, stft

import gabor_oracle


@pytest.fixture(scope="module")
def ladder_grid():
    return make_grid(256.0, 2048)


@pytest.fixture(scope="module")
def seed(ladder_grid):
    """The raw gaussian; the schedule normalizes it."""
    return gaussian(ladder_grid)


@pytest.fixture(scope="module")
def schedule(seed):
    return select_annulus_schedule(seed, 0.0, 2.0, 2.0, 5)


@pytest.fixture(scope="module")
def bumps(schedule):
    return schedule.bumps


# ---------------------------------------------------------------------------
# seed normalization


def test_normalize_seed_recenters_and_scales(ladder_grid):
    g = translate(gaussian(ladder_grid), 3.0)
    h = normalize_seed(g, 2.0, 4.0)
    assert int(np.argmax(np.abs(h.values))) == ladder_grid.count // 2
    ball = h.restrict(ladder_grid.radius() <= 1.0)
    floor = min(LqNorm(2.0)(ball), LqNorm(4.0)(ball))
    assert floor == pytest.approx(1.0, abs=1e-12)


def test_normalize_seed_rejects_zero(ladder_grid):
    z = Signal(ladder_grid, np.zeros(ladder_grid.count))
    with pytest.raises(ValueError, match="no mass"):
        normalize_seed(z, 2.0, 2.0)


# ---------------------------------------------------------------------------
# annulus schedule


def test_schedule_matches_continuum_oracle(seed, schedule):
    """Rebuild the ladder from the continuum integral of the seed profile.

    The seed is c . 2^{1/4} exp(-pi x^2) with c fixed by the unit-ball mass,
    so every tail is an explicit Gaussian integral and the radius recursion
    can be replayed without touching the discrete machinery.
    """
    ball = math.sqrt(
        quad(lambda x: math.sqrt(2.0) * math.exp(-2 * math.pi * x * x), -1, 1)[0]
    )
    c = 1.0 / ball

    def tail(a):
        v = quad(
            lambda x: math.sqrt(2.0) * math.exp(-2 * math.pi * x * x),
            a, math.inf,
        )[0]
        return c * math.sqrt(2.0 * v)

    expected = []
    prev = 0
    for n in range(1, 6):
        j = max(2, 2 * prev + 2)
        while tail(j / 2.0) > 2.0 ** (-3 * n):
            j += 2
        expected.append(j)
        prev = j
    assert list(schedule.radii) == expected
    assert list(schedule.radii) == [2, 6, 14, 30, 62]


def test_schedule_radii_even_and_disjoint(schedule):
    for j, jn in zip(schedule.radii, schedule.radii[1:]):
        assert 2 * j < jn
    for j in schedule.radii:
        assert j % 2 == 0


def _seed_tails(schedule):
    """The seed's mass beyond j_n / 2 on each rung, in the larger of the two
    weighted norms the ladder certifies it in."""
    h, sigma = schedule.seed, schedule.sigma
    tails = [h.restrict(h.grid.radius() >= j / 2.0) for j in schedule.radii]
    return [max(XpSigmaNorm(schedule.p, 2.0 * sigma)(t),
                XpSigmaNorm(schedule.q, sigma)(t)) for t in tails]


def test_schedule_tails_certified(schedule):
    for m, t in enumerate(_seed_tails(schedule)):
        assert t <= 2.0 ** (-3 * (m + 1))


def test_schedule_scales_formula(schedule):
    for m, (j, s) in enumerate(zip(schedule.radii, schedule.scales)):
        n = m + 1
        assert s == 2.0 ** (-n) * japanese_bracket(float(j)) ** (-schedule.sigma)


def test_schedule_weighted_seed_same_ladder(seed):
    """The Gaussian decays fast enough that polynomial weights never move
    the first radius, so the sigma = 1 ladder coincides with sigma = 0."""
    sch = select_annulus_schedule(seed, 1.0, 2.0, 2.0, 5)
    assert sch.radii == (2, 6, 14, 30, 62)
    assert sch.scales[0] == pytest.approx(0.5 / math.sqrt(5.0))


def test_schedule_normalizes_its_seed(ladder_grid, schedule):
    """An off-centre, rescaled seed gives the ladder of the plain gaussian:
    the schedule recentres and rescales it itself."""
    raw = translate(gaussian(ladder_grid), 3.0)
    sch = select_annulus_schedule(Signal(ladder_grid, 3.0 * raw.values),
                                  0.0, 2.0, 2.0, 5)
    assert sch.radii == schedule.radii
    assert np.max(np.abs(sch.seed.values - schedule.seed.values)) < 1e-12


def test_schedule_grid_too_small():
    grid = make_grid(16.0, 128)
    with pytest.raises(ValueError, match="grid too small") as exc:
        select_annulus_schedule(gaussian(grid), 0.0, 2.0, 2.0, 5)
    assert "length >=" in str(exc.value)


def test_schedule_rejects_bad_n_max(seed):
    with pytest.raises(ValueError, match="n_max"):
        select_annulus_schedule(seed, 0.0, 2.0, 2.0, 0)


def test_annulus_mask_geometry(schedule):
    # list index 1 is rung 2
    mask = schedule.annulus_mask(1)
    r = np.abs(schedule.seed.grid.points())
    assert np.array_equal(mask, (r >= 6) & (r <= 12))
    with pytest.raises(IndexError):
        schedule.annulus_mask(5)


# ---------------------------------------------------------------------------
# bumps


def test_bumps_are_scaled_translates(schedule, bumps):
    for j, s, eps in zip(schedule.radii, schedule.scales, bumps):
        ref = translate(schedule.seed, 1.5 * j)
        assert np.array_equal(eps.values, s * ref.values)
        peak = int(np.argmax(np.abs(eps.values)))
        assert peak == schedule.seed.grid.index_of(1.5 * j)


def test_bumps_nearly_orthogonal(bumps):
    worst = max(
        abs(inner_l2(a, b))
        for i, a in enumerate(bumps)
        for b in bumps[i + 1:]
    )
    assert worst < 1e-8


def test_bump_mass_outside_annulus_bounded_by_tail(schedule, bumps):
    """The annulus complement sits inside the translated tail region, so the
    leakage of eps_n is at most scale_n times the certified seed tail."""
    tails = _seed_tails(schedule)
    for m, eps in enumerate(bumps):
        mask = schedule.annulus_mask(m)
        outside = riemann_lp(np.where(mask, 0.0, eps.values),
                             eps.grid.dx, 2.0)
        cap = schedule.scales[m] * tails[m]
        assert outside <= cap * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# bound report


def _assert_bump_estimates_hold(rep):
    """The five bump-estimate predicates of lemma22-bounds, on every rung."""
    assert rep.rows
    for row in rep.rows:
        assert row.gub_lp_ratio == pytest.approx(1.0, abs=1e-10)
        assert row.mcb_product >= 1.0 - 1e-9
        assert row.mtb_ratio <= rep.c_impl
        assert row.sob_ratio <= rep.c_impl
        assert row.gub_x_scaled <= rep.c_impl


def test_bound_report_all_pass(schedule):
    _assert_bump_estimates_hold(verify_bump_bounds(schedule))


def test_bound_report_tail_decay_rate(schedule):
    rep = verify_bump_bounds(schedule)
    for slope in rep.mtb_slopes():
        assert slope <= -3.5


def test_bound_report_weighted_seed(seed):
    sch = select_annulus_schedule(seed, 1.0, 2.0, 2.0, 5)
    _assert_bump_estimates_hold(verify_bump_bounds(sch))


# ---------------------------------------------------------------------------
# pair assembly


def test_assemble_pair_exact_sums(schedule, bumps):
    pair = assemble_pair(schedule, 0.1, 2)
    assert np.array_equal(pair.k.values, pair.core.values + pair.tail.values)
    assert np.array_equal(pair.k_n.values, pair.core.values - pair.tail.values)
    # core carries the seed plus the first two bumps
    expect = schedule.seed.values + 0.1 * bumps[0].values
    expect = expect + 0.1 * bumps[1].values
    assert np.array_equal(pair.core.values, expect)


def test_assemble_pair_validates_arguments(schedule):
    for bad in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError, match="delta"):
            assemble_pair(schedule, bad, 1)
    with pytest.raises(ValueError, match="n must"):
        assemble_pair(schedule, 0.1, 6)
    with pytest.raises(ValueError, match="n must"):
        assemble_pair(schedule, 0.1, -1)


def test_assemble_pair_degenerate_top_rung(schedule):
    pair = assemble_pair(schedule, 0.1, 5)
    assert np.all(pair.tail.values == 0.0)
    res = instability_ratio(pair, 2.0, XpSigmaNorm(2.0, 0.0))
    assert res.degenerate
    assert math.isnan(res.ratio)
    assert not (not res.degenerate and res.ratio >= res.target)


# ---------------------------------------------------------------------------
# ratios


@pytest.fixture(scope="module")
def ratio_results(schedule):
    den = XpSigmaNorm(2.0, 0.0)
    return [
        instability_ratio(assemble_pair(schedule, 0.1, n), 2.0, den)
        for n in range(0, 5)
    ]


def test_ratios_meet_geometric_targets(ratio_results):
    for res in ratio_results:
        assert not res.degenerate and res.ratio >= res.target


def test_ratios_strictly_increase_to_saturation(schedule, ratio_results):
    finite = [r for r in ratio_results if not r.saturated]
    for a, b in zip(finite, finite[1:]):
        assert b.ratio > a.ratio
    assert ratio_results[-1].saturated
    assert math.isinf(ratio_results[-1].ratio)
    # saturation: the modulus difference underflows, the distance does not
    pair = assemble_pair(schedule, 0.1, 4)
    assert XpSigmaNorm(2.0, 0.0)(modulus_difference(pair.k, pair.k_n)) == 0.0
    assert phase_inf_distance(pair.k, pair.k_n, LqNorm(2.0)).distance > 0.0


def test_ratio_numerator_matches_closed_form(schedule, ratio_results):
    """For L^2 the phase infimum has the explicit value
    sqrt(||k||^2 + ||k_n||^2 - 2 |<k, k_n>|); the ratio is that distance
    over the modulus difference."""
    den = XpSigmaNorm(2.0, 0.0)
    for n in (0, 1, 2):
        pair = assemble_pair(schedule, 0.1, n)
        a = riemann_lp(pair.k.values, pair.k.grid.dx, 2.0)
        b = riemann_lp(pair.k_n.values, pair.k.grid.dx, 2.0)
        ip = abs(inner_l2(pair.k, pair.k_n))
        oracle = math.sqrt(max(0.0, a * a + b * b - 2.0 * ip))
        num = phase_inf_distance(pair.k, pair.k_n, LqNorm(2.0)).distance
        assert num == pytest.approx(oracle, rel=1e-10)
        assert ratio_results[n].ratio == num / den(
            modulus_difference(pair.k, pair.k_n))


def test_verified_window_spans_all_rungs(ratio_results):
    rows = [_row(r.n, r.ratio, r.degenerate) for r in ratio_results]
    assert _window_is(rows, (0, 4))


def test_instability_ratio_is_the_field_ratio(schedule, ratio_results):
    den = XpSigmaNorm(2.0, 0.0)
    for n, res in enumerate(ratio_results):
        pair = assemble_pair(schedule, 0.1, n)
        assert field_instability_ratio(pair.k, pair.k_n, pair.n, 2.0, den) == res


def test_disjointness_link_decays_geometrically(schedule):
    for n in range(1, 5):
        pair = assemble_pair(schedule, 0.1, n)
        rho = disjointness_witness(pair.k, pair.core, pair.tail)
        assert rho <= 1e-9 * 4.0 ** (-n)


def test_dichotomy_floor(schedule):
    pair = assemble_pair(schedule, 0.1, 2)
    out = dichotomy_check(pair, schedule)
    # measurements only: the verdict is the caller's predicate over them
    assert set(out) == {"min_far_distance", "floor"}
    assert out["floor"] > 0.25
    assert out["min_far_distance"] >= out["floor"]
    # a delta this large eats the floor
    loose = dichotomy_check(assemble_pair(schedule, 0.3, 2), schedule)
    assert loose["floor"] < 0.0
    assert not (loose["floor"] > 0.0
                and loose["min_far_distance"] >= loose["floor"])


def _far_arc_l2_min(k, k_n):
    """min over |lam - 1| >= 1/2 of ||k - lam k_n||_2 in closed form, with
    ||k - e^{it} k_n||^2 = ||k||^2 + ||k_n||^2 - 2 Re(e^{-it} <k, k_n>): the
    free optimum t = arg <k, k_n> when it lies on the arc, else the nearer
    arc end."""
    ip = inner_l2(k, k_n)
    sq = riemann_lp(k.values, k.grid.dx, 2.0) ** 2 \
        + riemann_lp(k_n.values, k.grid.dx, 2.0) ** 2
    end = 2.0 * math.asin(0.25)
    if end <= np.angle(ip) % (2.0 * np.pi) <= 2.0 * np.pi - end:
        return math.sqrt(sq - 2.0 * abs(ip))
    return min(math.sqrt(sq - 2.0 * (np.exp(-1j * t) * ip).real)
               for t in (end, 2.0 * np.pi - end))


def test_dichotomy_far_minimum_matches_the_closed_form(schedule):
    assert schedule.q == 2.0
    pairs = [assemble_pair(schedule, 0.1, n) for n in (1, 3)]
    # <k, k_n> is real and positive on the ladder pairs, so their minimum is
    # an arc end; a tail that outweighs the core puts it inside the arc
    core = pairs[0].core
    tail = Signal(core.grid, 2.0 * np.exp(0.3j) * core.values)
    pairs.append(InstabilityPair(core, tail, 1, 0.1))
    for pair in pairs:
        want = _far_arc_l2_min(pair.k, pair.k_n)
        got = dichotomy_check(pair, schedule)["min_far_distance"]
        assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# the verified window: the ratio_window check over ratios rows


def _row(n, ratio, degenerate=False):
    return {"n": n, "ratio": ratio, "target": 2.0 ** n,
            "degenerate": int(degenerate)}


def _window_is(rows, window):
    """The ratio_window check pins exactly this window; None: it fails."""
    check = ex.CHECKS["ratio_window"]
    if window is None:
        return not check(rows, {})
    return check(rows, {"pin": list(window)})


def test_window_none_when_last_rung_fails():
    rs = [_row(0, 3.0), _row(1, 1.5)]
    assert _window_is(rs, None)


def test_window_breaks_on_nonmonotone_prefix():
    rs = [_row(0, 5.0), _row(1, 3.0), _row(2, 9.0)]
    assert _window_is(rs, (1, 2))


def test_window_requires_contiguous_rungs():
    rs = [_row(0, 1.5), _row(2, 9.0)]
    assert _window_is(rs, (2, 2))


def test_window_two_saturated_rungs_not_increasing():
    rs = [_row(0, 2.0), _row(1, float("inf")), _row(2, float("inf"))]
    assert _window_is(rs, (2, 2))


def test_window_ignores_degenerate_rungs():
    rs = [_row(0, 3.0), _row(1, float("nan"), degenerate=True)]
    assert _window_is(rs, (0, 0))
    assert _window_is([_row(0, float("nan"), degenerate=True)], None)


# ---------------------------------------------------------------------------
# transform-side family


@pytest.fixture(scope="module")
def family():
    grid = make_grid(16.0, 1024)
    spec = NormSpec(s=1.0, p=2.0, r=1.0, q=2.0)
    return stft_instability_family(
        gaussian(grid), WindowSpec("gaussian"), closeness=0.5,
        spec=spec, n_max=2,
    )


def test_family_ladder_on_frequency_grid(family):
    # radii double as modulation offsets at 1.5 j_n; both rungs integers
    assert family.ladder == (6.0, 15.0)
    for m, a in enumerate(family.ladder):
        j = a / 1.5
        n = m + 1
        assert family.scales[m] == pytest.approx(
            2.0 ** (-n) * japanese_bracket(j) ** (-1.0)
        )


def test_family_meets_closeness(family):
    assert family.closeness < 0.5
    assert family.delta == 0.1


def test_family_delta_halves_for_tight_closeness():
    grid = make_grid(16.0, 1024)
    spec = NormSpec(s=1.0, p=2.0, r=1.0, q=2.0)
    fam = stft_instability_family(
        gaussian(grid), WindowSpec("gaussian"), closeness=0.05,
        spec=spec, n_max=2,
    )
    assert fam.delta == 0.05
    assert fam.closeness < 0.05


def test_family_member_structure(family):
    assert len(family.flipped) == 3
    assert len(family.truncations) == 3
    assert np.array_equal(family.flipped[-1].values, family.perturbed.values)
    assert np.array_equal(family.truncations[-1].values,
                          family.perturbed.values)
    assert np.array_equal(family.truncations[0].values, family.base.values)
    # flipping every sign mirrors the perturbation around the base
    mirrored = 2.0 * family.base.values - family.perturbed.values
    assert np.allclose(family.flipped[0].values, mirrored, atol=1e-15)


def test_family_members_match_the_ladder_loops(family):
    """Every member is bit-identical to its own loop: the bumps added to the
    base in ladder order, + or - per sign, the truncations stopping at n."""
    f = family.base
    bumps = [family.delta * s * modulate(f, a).values
             for s, a in zip(family.scales, family.ladder)]
    vals = f.values.copy()
    for b in bumps:
        vals = vals + b
    assert np.array_equal(family.perturbed.values, vals)
    for k, member in enumerate(family.flipped):
        vals = f.values.copy()
        for idx, b in enumerate(bumps):
            vals = vals + (b if idx < k else -b)
        assert np.array_equal(member.values, vals)
    for n, member in enumerate(family.truncations):
        vals = f.values.copy()
        for b in bumps[:n]:
            vals = vals + b
        assert np.array_equal(member.values, vals)


def test_family_field_ratios_clear_targets(family):
    w = WindowSpec("gaussian")
    va = stft(family.perturbed, w)
    den = SobolevNorm(1.0, 2.0, 1.0)
    for k in range(0, 2):
        vb = stft(family.flipped[k], w)
        res = field_instability_ratio(va, vb, k, 2.0, den)
        assert not res.degenerate and res.ratio >= res.target
        assert res.ratio >= 100.0 * res.target


def test_family_grid_too_small():
    grid = make_grid(16.0, 256)
    spec = NormSpec(s=1.0, p=2.0, r=1.0, q=2.0)
    with pytest.raises(ValueError, match="grid too small"):
        stft_instability_family(
            gaussian(grid), WindowSpec("gaussian"), closeness=0.5,
            spec=spec, n_max=2,
        )


def test_field_ratio_degenerate_on_equal_fields(family):
    w = WindowSpec("gaussian")
    va = stft(family.base, w)
    res = field_instability_ratio(va, va, 1, 2.0, SobolevNorm(1.0, 2.0))
    assert res.degenerate


# ---------------------------------------------------------------------------
# thm15's family against its closed-form transforms


def _thm15(reduced: bool) -> tuple:
    """(family, window, params, TF grid) of thm15-sobolev-ratio, built as the
    experiment builds it, at --reduced (16/1024) or default (16/2048) size."""
    mf = ex.default_manifest("thm15-sobolev-ratio", reduced=reduced)
    fx, pr = mf.fixture, mf.params
    grid = make_grid(fx["length"], fx["count"])
    window = parse_window(fx["window"])
    fam = stft_instability_family(
        parse_window(fx["signal"]).build(grid), window, pr["closeness"],
        NormSpec(s=pr["s"], p=pr["p"], r=pr["r"], q=pr["q"]), pr["n_max"],
        pr["delta"])
    return fam, window, pr, tf_grid_of(grid)


@pytest.fixture(scope="module", params=[True, False],
                ids=["reduced", "default"])
def thm15(request):
    return _thm15(request.param)


def test_closed_form_transforms_match_stft(thm15):
    fam, window, _, tf = thm15
    base = stft(fam.base, window).values
    assert np.max(np.abs(base - gabor_oracle.gabor_modulated(tf, 0.0))) < 1e-15
    p, q = gabor_oracle.rung_parts(fam, tf, 0)
    moved = stft(fam.perturbed, window).values
    assert np.max(np.abs(moved - (p + q))) < 1e-15


def test_closed_form_ratios_clear_their_targets(thm15):
    fam, _, pr, tf = thm15
    den = SobolevNorm(pr["s"], pr["p"], pr["r"])
    for k in range(pr["n_max"]):
        exact = gabor_oracle.exact_ratio(fam, tf, k, pr["q"], den)
        assert exact >= 2.0 ** k, k


def test_closed_form_rung_zero_is_the_stored_ratio():
    fam, window, pr, tf = _thm15(reduced=True)
    den = SobolevNorm(pr["s"], pr["p"], pr["r"])
    stored = field_instability_ratio(stft(fam.perturbed, window),
                                     stft(fam.flipped[0], window), 0,
                                     pr["q"], den).ratio
    exact = gabor_oracle.exact_ratio(fam, tf, 0, pr["q"], den)
    assert stored == pytest.approx(exact, rel=1e-4)


# ---------------------------------------------------------------------------
# band-split display


def test_lp_reduction_rows_structure_and_constant():
    grid = make_grid(16.0, 256)
    w = WindowSpec("gaussian")

    def modfield(sig):
        F = stft(sig, w)
        return TFField(F.tfgrid, np.abs(F.values).astype(np.complex128))

    a = modfield(gaussian(grid))
    members = [("hermite2", modfield(hermite(grid, 2))),
               ("shifted", modfield(translate(gaussian(grid), 1.0)))]
    rows = lp_reduction_rows(a, members, 1.0, 2.0)
    assert [r["pair"] for r in rows] == ["hermite2"] * 5 + ["shifted"] * 5
    assert [r["j"] for r in rows] == [2, 3, 4, 5, 6] * 2
    for r in rows:
        rhs = r["low_term"] + r["high_term"]
        assert r["constant_needed"] == pytest.approx(r["lhs"] / rhs)
        assert r["constant_needed"] <= 4.0


def test_lp_reduction_rows_takes_the_reference_norm_once(monkeypatch):
    grid = make_grid(16.0, 256)
    w = WindowSpec("gaussian")
    a = modulus(stft(gaussian(grid), w))
    members = [(f"hermite{n}", modulus(stft(hermite(grid, n), w)))
               for n in (1, 2, 3)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return frac_sobolev_norm(*args, **kwargs)

    monkeypatch.setattr(forge, "frac_sobolev_norm", counted)
    rows = lp_reduction_rows(a, members, 1.0, 2.0)
    # the reference A at order s + 1/4 once, then B per member; the norm of
    # D at order s is summed from the two terms that also give ||D||_p
    assert calls == [1.25] * (len(members) + 1)
    monkeypatch.undo()
    # each row is the band split of D = A - B, bit for bit
    high_a = frac_sobolev_norm(a, 1.25, 2.0)
    for i, (label, b) in enumerate(members):
        diff = TFField(a.tfgrid, a.values - b.values)
        high = high_a + frac_sobolev_norm(b, 1.25, 2.0)
        low = riemann_lp(diff.values, diff.space.cell, 2.0)
        for r in rows[5 * i:5 * i + 5]:
            assert r["pair"] == label
            assert r["lhs"] == frac_sobolev_norm(diff, 1.0, 2.0)
            assert r["low_term"] == 2.0 ** r["j"] * low
            assert r["high_term"] == 2.0 ** (-0.25 * r["j"]) * high


def test_lp_reduction_rows_takes_a_measured_derivative_as_it_is(monkeypatch):
    grid = make_grid(16.0, 256)
    w = WindowSpec("gaussian")
    a = modulus(stft(gaussian(grid), w))
    members = [(f"hermite{n}", modulus(stft(hermite(grid, n), w)))
               for n in (1, 2)]
    want = lp_reduction_rows(a, members, 1.0, 2.0)
    measured = [(label, b, riemann_lp(*_derivative_term(
        modulus_difference(a, b), 1.0, 2.0))) for label, b in members]
    calls = []

    def counted(*args):
        calls.append(args)
        return _derivative_term(*args)

    monkeypatch.setattr(forge, "_derivative_term", counted)
    assert lp_reduction_rows(a, measured, 1.0, 2.0) == want
    assert calls == []
    # a member without the third entry still takes its own term
    lp_reduction_rows(a, measured[:1] + members[1:], 1.0, 2.0)
    assert len(calls) == 1


def test_thm15_band_split_reads_the_ratio_denominators_term():
    fam, window, pr, _ = _thm15(reduced=True)
    rows, am, members = ex._sobolev_ratio_rows(fam, window, pr)
    flips = [m for m in members if m[0].startswith("flip")]
    assert [m[0] for m in flips] == [f"flip{k}" for k in range(pr["n_max"])]
    va = stft(fam.perturbed, window)
    den = SobolevNorm(pr["s"], pr["p"], pr["r"])
    for k, (_, b, derivative) in enumerate(flips):
        diff = modulus_difference(am, b)
        assert derivative == riemann_lp(*_derivative_term(diff, pr["s"],
                                                          pr["p"]))
        vb = stft(fam.flipped[k], window)
        want = field_instability_ratio(va, vb, k, pr["q"], den).ratio
        assert rows[k][3] == want


def test_modulus_difference_checks_grids():
    w = WindowSpec("gaussian")
    a = modulus(stft(gaussian(make_grid(16.0, 256)), w))
    b = modulus(stft(gaussian(make_grid(8.0, 256)), w))
    assert a.values.shape == b.values.shape
    with pytest.raises(ValueError, match="different grids"):
        modulus_difference(a, b)
    with pytest.raises(ValueError, match="different grids"):
        lp_reduction_rows(a, [("coarse", b)], 1.0, 2.0)
