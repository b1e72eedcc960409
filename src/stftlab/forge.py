"""Construction of phase-retrieval instability pairs.

The recipe: park scaled copies of a seed bump on a ladder of disjoint annuli,
attach them to the seed with alternating signs, and compare the two resulting
signals. Their moduli agree except for exponentially small overlaps, while the
signals themselves differ by twice the bump tail, so the ratio of
phase-infimum distance to modulus distance blows up geometrically.

The same ladder, driven through modulations instead of translations, yields a
family of signals whose transforms are close yet phase-retrieval-unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, Sampled, Signal, modulate, translate
from .norms import (
    IntersectionNorm,
    LqNorm,
    Norm,
    NormSpec,
    SobolevNorm,
    XpSigmaNorm,
    _certified_min,
    _derivative_term,
    frac_sobolev_norm,
    japanese_bracket,
    modulus_difference,
    phase_inf_distance,
    riemann_lp,
)
from .transforms import WindowSpec, stft

__all__ = [
    "AnnulusSchedule",
    "InstabilityPair",
    "BoundRow",
    "BoundReport",
    "RatioResult",
    "StftFamily",
    "normalize_seed",
    "select_annulus_schedule",
    "build_bumps",
    "verify_bump_bounds",
    "assemble_pair",
    "instability_ratio",
    "field_instability_ratio",
    "dichotomy_check",
    "stft_instability_family",
    "lp_reduction_rows",
]


def normalize_seed(h: Signal, p: float, q: float) -> Signal:
    """Recenter a bump at its modulus peak and scale it so the smaller of its
    unit-ball L^p and L^q masses is 1.

    The annulus machinery needs a seed whose unit ball carries order-one mass
    in both comparison norms; everything downstream is calibrated to that.
    """
    grid = h.grid
    peak = int(np.argmax(np.abs(h.values)))
    centered = np.roll(h.values, grid.count // 2 - peak)
    ball = Signal(grid, centered).restrict(grid.radius() <= 1.0)
    floor = min(LqNorm(p)(ball), LqNorm(q)(ball))
    if floor == 0.0:
        raise ValueError("seed has no mass in the unit ball after recentering")
    return Signal(grid, centered / floor)


@dataclass(frozen=True)
class AnnulusSchedule:
    """Ladder of disjoint annuli A_n = {j_n <= |x| <= 2 j_n} for one seed.

    scales[n] = 2^{-(n+1)} <j_n>^{-sigma} is the bump amplitude and bumps[n]
    the bump itself (build_bumps). The seed's mass outside |x| >= j_n / 2 in
    the doubly-weighted norm is certified <= 2^{-3(n+1)} during construction.
    Tuples are 0-based; index m is rung n = m + 1.
    """

    seed: Signal
    sigma: float
    p: float
    q: float
    radii: tuple
    scales: tuple
    bumps: tuple

    @property
    def n_max(self) -> int:
        return len(self.radii)

    def annulus_mask(self, m: int) -> np.ndarray:
        """Indicator of the annulus at list index m (rung m + 1)."""
        j = self.radii[m]
        r = self.seed.grid.radius()
        return (r >= j) & (r <= 2 * j)


def _seed_tail(h: Signal, p: float, q: float, sigma: float, cutoff: float) -> float:
    tail = h.restrict(h.grid.radius() >= cutoff)
    return max(XpSigmaNorm(p, 2.0 * sigma)(tail), XpSigmaNorm(q, sigma)(tail))


def select_annulus_schedule(h: Signal, sigma: float, p: float, q: float,
                            n_max: int) -> AnnulusSchedule:
    """Normalize the seed (normalize_seed), then choose the smallest
    even-integer radii j_1 < j_2 < ... with

        2 j_{n-1} < j_n       (annuli disjoint, with a one-unit gap)
        seed tail beyond j_n / 2  <=  2^{-3n}

    and the last annulus inside the grid with 4 units of margin. Radii are
    even integers so that the bump centers (3/2) j_n are integers, hence
    exactly on any grid whose spacing divides 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    h = normalize_seed(h, p, q)
    grid = h.grid
    half = grid.length / 2.0
    radii, scales = [], []
    prev = 0
    for n in range(1, n_max + 1):
        j = max(2, 2 * prev + 2)
        bound = 2.0 ** (-3 * n)
        while True:
            if 2 * j + 4 > half:
                need = 2 * (2 * j + 4)
                raise ValueError(
                    f"grid too small for rung {n}: need length >= {need}, "
                    f"have {grid.length:g}"
                )
            if _seed_tail(h, p, q, sigma, j / 2.0) <= bound:
                break
            j += 2
        radii.append(j)
        scales.append(2.0 ** (-n) * japanese_bracket(float(j)) ** (-sigma))
        prev = j
    return AnnulusSchedule(h, sigma, p, q, tuple(radii), tuple(scales),
                           build_bumps(h, radii, scales))


def build_bumps(seed: Signal, radii, scales) -> tuple:
    """eps_n = scale_n . (seed translated to the annulus midpoint (3/2) j_n)."""
    out = []
    for j, scale in zip(radii, scales):
        shifted = translate(seed, 1.5 * j)
        out.append(Signal(shifted.grid, scale * shifted.values))
    return tuple(out)


def _intersection_norm(schedule: AnnulusSchedule) -> Norm:
    return IntersectionNorm([
        XpSigmaNorm(schedule.p, schedule.sigma),
        LqNorm(schedule.q),
    ])


@dataclass(frozen=True)
class BoundRow:
    n: int
    j: float
    gub_lp_ratio: float
    gub_x_scaled: float
    mcb_product: float
    mtb_measured: float
    mtb_ratio: float
    sob_ratio: float


# the implementation constant of the bump estimates
_C_IMPL = 8.0


@dataclass(frozen=True)
class BoundReport:
    """Measured forms of the four bump estimates, one row per rung.

    gub_lp_ratio must be 1 to rounding (translation is an exact isometry);
    mcb_product must be >= 1 (one-sided); mtb_ratio and sob_ratio carry the
    implicit constants and must stay <= c_impl.
    """

    rows: list
    c_impl = _C_IMPL

    def mtb_slopes(self) -> list:
        """log2 of successive measured tail masses; decay rate certificate.

        Once the mass underflows to exact zero the decay is treated as
        infinitely fast (the bound holds with room to spare).
        """
        out = []
        for a, b in zip(self.rows, self.rows[1:]):
            if b.mtb_measured == 0.0:
                out.append(float("-inf"))
            elif a.mtb_measured == 0.0:
                out.append(float("inf"))
            else:
                out.append(math.log2(b.mtb_measured / a.mtb_measured))
        return out


def verify_bump_bounds(schedule: AnnulusSchedule) -> BoundReport:
    """Measure the four estimates the construction rests on.

    Per rung n: exact global L^p size of eps_n, its weighted size, the L^q
    mass it keeps on its own annulus, the weighted mass it leaks outside, and
    the worst leakage of earlier bumps into A_n.
    """
    h = schedule.seed
    grid = h.grid
    xnorm = _intersection_norm(schedule)
    h_lp = riemann_lp(h.values, grid.dx, schedule.p)
    rows = []
    for m, eps in enumerate(schedule.bumps):
        n = m + 1
        j = schedule.radii[m]
        scale = schedule.scales[m]
        bracket_sig = japanese_bracket(float(j)) ** schedule.sigma
        mask = schedule.annulus_mask(m)

        lp = riemann_lp(eps.values, grid.dx, schedule.p)
        gub_lp_ratio = lp / (scale * h_lp)
        gub_x_scaled = xnorm(eps) * 2.0 ** n

        mcb = riemann_lp(eps.restrict(mask).values, grid.dx, schedule.q)
        mcb_product = mcb * 2.0 ** n * bracket_sig

        mtb = xnorm(eps.restrict(~mask))
        mtb_bound = 2.0 ** (-4 * n) / bracket_sig
        mtb_ratio = mtb / mtb_bound

        sob = 0.0
        for earlier in schedule.bumps[:m]:
            sob = max(sob, xnorm(earlier.restrict(mask)))
        sob_bound = 2.0 ** (-3 * n) / bracket_sig
        sob_ratio = sob / sob_bound

        rows.append(BoundRow(n, float(j), gub_lp_ratio, gub_x_scaled,
                             mcb_product, mtb, mtb_ratio, sob_ratio))
    return BoundReport(rows)


@dataclass(frozen=True)
class InstabilityPair:
    """k = core + tail, k_n = core - tail: same modulus up to tiny overlap,
    far apart in every phase-blind sense once the tail is nontrivial."""

    core: Signal
    tail: Signal
    n: int
    delta: float

    @property
    def k(self) -> Signal:
        return self.core.like(self.core.values + self.tail.values)

    @property
    def k_n(self) -> Signal:
        return self.core.like(self.core.values - self.tail.values)


def assemble_pair(schedule: AnnulusSchedule, delta: float,
                  n: int) -> InstabilityPair:
    """core = seed + delta . (bumps up to n); tail = delta . (bumps past n).

    n may equal the ladder length, in which case the tail vanishes and the
    pair is degenerate (k = k_n); instability_ratio reports that rather than
    dividing by zero.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= n <= schedule.n_max:
        raise ValueError(f"n must lie in 0..{schedule.n_max}")
    grid = schedule.seed.grid
    core = schedule.seed.values.copy()
    for eps in schedule.bumps[:n]:
        core = core + delta * eps.values
    tail = np.zeros(grid.count, dtype=core.dtype)
    for eps in schedule.bumps[n:]:
        tail = tail + delta * eps.values
    return InstabilityPair(Signal(grid, core), Signal(grid, tail), n, delta)


@dataclass(frozen=True)
class RatioResult:
    n: int
    ratio: float
    target: float
    saturated: bool
    degenerate: bool


def instability_ratio(pair: InstabilityPair, q: float,
                      denominator: Norm) -> RatioResult:
    """field_instability_ratio of the pair (k, k_n) at rung pair.n."""
    return field_instability_ratio(pair.k, pair.k_n, pair.n, q, denominator)


def field_instability_ratio(a: Sampled, b: Sampled, n: int, q: float,
                            denominator: Norm) -> RatioResult:
    """inf over unit phases of ||a - lam b||_{L^q}, divided by the requested
    norm of |a| - |b|; a and b are signals or transform-plane fields.

    The denominator routinely underflows to exact zero once the bump overlaps
    drop below the floating-point floor; with a nonzero numerator that is
    reported as a saturated (infinite) ratio, which certifies the 2^n target.
    A zero numerator as well means b is a unimodular multiple of a and no
    instability statement can be extracted: degenerate.
    """
    num = phase_inf_distance(a, b, LqNorm(q)).distance
    den = denominator(modulus_difference(a, b))
    target = 2.0 ** n
    if den == 0.0:
        if num == 0.0:
            return RatioResult(n, float("nan"), target,
                               saturated=False, degenerate=True)
        return RatioResult(n, float("inf"), target,
                           saturated=True, degenerate=False)
    return RatioResult(n, num / den, target,
                       saturated=False, degenerate=False)


# the far arc |lam - 1| >= 1/2 is theta in [_FAR_END, 2 pi - _FAR_END]
_FAR_END = 2.0 * math.asin(0.25)


def dichotomy_check(pair: InstabilityPair, schedule: AnnulusSchedule) -> dict:
    """Far-phase lower bound: for |lam - 1| >= 1/2 the L^q distance
    ||k - lam k_n|| cannot dip below (1/2)||seed|| - 2 delta sum ||eps_j||.

    The minimum over the arc comes from the certified phase search (with the
    slope bound ||k_n||_q); returns it and the floor. The experiment decides
    from these two numbers.
    """
    q = schedule.q
    grid = pair.core.grid
    norm = LqNorm(q)
    _, measured, _, _ = _certified_min(norm.pair_evaluator(pair.k, pair.k_n),
                                       norm(pair.k_n), _FAR_END,
                                       2.0 * math.pi - _FAR_END)
    bump_mass = sum(riemann_lp(e.values, grid.dx, q) for e in schedule.bumps)
    floor = 0.5 * riemann_lp(schedule.seed.values, grid.dx, q) \
        - 2.0 * pair.delta * bump_mass
    return {
        "min_far_distance": float(measured),
        "floor": float(floor),
    }


# ---------------------------------------------------------------------------
# transform-level family


@dataclass(frozen=True)
class StftFamily:
    """Signals realizing the bump ladder in frequency.

    perturbed carries every bump with a plus sign; flipped[k] carries the
    first k bumps with plus and the rest with minus (flipped[-1] is
    perturbed); truncations[n] carries only the first n bumps (truncations[0]
    is the base). All members are genuine signals, so their transforms are
    exact transform-side families; a caller transforms each member it needs
    once. closeness is ||V perturbed - V base|| in W^{s+1/4,p}_r cap L^q.
    """

    base: Signal
    perturbed: Signal
    flipped: list
    truncations: list
    ladder: tuple
    scales: tuple
    delta: float
    closeness: float


def _omega_profile(field_values: np.ndarray, wgrid: Grid1D) -> Signal:
    """1D frequency profile of a transform magnitude: column L^2 masses."""
    prof = np.sqrt(np.sum(np.abs(field_values) ** 2, axis=0))
    return Signal(wgrid, prof.astype(np.complex128))


def _member(f: Signal, bumps: list, signs: list) -> Signal:
    """f plus each bump with its sign (+1, -1, or 0 to leave it out), added
    in ladder order."""
    vals = f.values.copy()
    for b, sign in zip(bumps, signs):
        if sign:
            vals = vals + (b if sign > 0 else -b)
    return Signal(f.grid, vals)


def stft_instability_family(f: Signal, window: WindowSpec, closeness: float,
                            spec: NormSpec, n_max: int,
                            delta: float = 0.1) -> StftFamily:
    """Build f_eps = f + delta . sum 2^{-n} <j_n>^{-r} M_{a_n} f and its
    sign-flipped relatives, with the modulation ladder a_n = (3/2) j_n chosen
    on the frequency profile of V f.

    Modulating the signal translates its transform in frequency, so each term
    parks a copy of V f on its own frequency annulus: the transform-side bump
    construction realized inside the image of the transform. delta is halved
    until the transform moves less than `closeness` in the stronger norm
    W^{s+1/4, p}_r intersect L^q.
    """
    base_field = stft(f, window)
    profile = _omega_profile(base_field.values, f.grid.dual())
    schedule = select_annulus_schedule(profile, spec.r, spec.p, spec.q, n_max)
    ladder = tuple(1.5 * j for j in schedule.radii)
    scales = schedule.scales

    strong = IntersectionNorm([
        SobolevNorm(spec.s + 0.25, spec.p, spec.r),
        LqNorm(spec.q),
    ])

    mods = [modulate(f, a) for a in ladder]

    for _ in range(60):
        bumps = [delta * s * m.values for s, m in zip(scales, mods)]
        perturbed = _member(f, bumps, [1] * n_max)
        moved = stft(perturbed, window)
        # the drift in place: moved is not read again
        moved.values -= base_field.values
        drift = strong(moved)
        if drift < closeness:
            break
        delta *= 0.5
    else:
        raise ValueError(
            f"could not meet closeness {closeness:g}; achieved {drift:g}"
        )

    flipped = [_member(f, bumps, [1] * k + [-1] * (n_max - k))
               for k in range(n_max + 1)]
    truncations = [_member(f, bumps, [1] * n + [0] * (n_max - n))
                   for n in range(n_max + 1)]

    return StftFamily(f, perturbed, flipped, truncations, ladder, scales,
                      float(delta), float(drift))


# the smoothness gain d of the band split, and its dyadic scales j
_LP_GAIN = 0.25
_LP_SCALES = range(2, 7)


def lp_reduction_rows(a: Sampled, members: list, s: float, p: float) -> list:
    """Band-split control of D = |A| - |B| (modulus_difference) for each
    (label, B) member against the one reference modulus field A:

        ||D||_{W^{s,p}} <= C ( 2^{js} ||D||_{L^p}
                               + 2^{-j d} (||A||_{W^{s+d,p}} + ||B||_{W^{s+d,p}}) )

    with d = _LP_GAIN; ||A||_{W^{s+d,p}} is taken once for all members, and
    ||D||_{W^{s,p}} is summed from ||D||_{L^p} and ||<D>^s D||_p. One row
    per member and j, labelled "pair", with both sides and the constant the
    inequality would need; the harness pins max(constant).

    A member (label, B, derivative) brings ||<D>^s D||_p of its D measured
    already: thm15's ratio denominators take that norm of the same D, bit
    for bit, so it is not transformed twice. The scalar travels, not the
    field: D is rebuilt here for its L^p norm, which costs one pass, while
    holding every D from the ratio loop until the band split would keep a
    full field per member alive.
    """
    high_a = frac_sobolev_norm(a, s + _LP_GAIN, p)
    norm = SobolevNorm(s, p)
    rows = []
    for label, b, *measured in members:
        diff = modulus_difference(a, b)
        low = riemann_lp(diff.values, diff.space.cell, norm.p)
        derivative = (measured[0] if measured else
                      riemann_lp(*_derivative_term(diff, norm.s, norm.p)))
        lhs = low + derivative
        high = high_a + frac_sobolev_norm(b, s + _LP_GAIN, p)
        for j in _LP_SCALES:
            low_term = 2.0 ** (j * s) * low
            high_term = 2.0 ** (-j * _LP_GAIN) * high
            rhs = low_term + high_term
            rows.append({"pair": label, "j": j, "lhs": lhs,
                         "low_term": float(low_term),
                         "high_term": float(high_term),
                         "constant_needed":
                             float(lhs / rhs) if rhs > 0 else math.inf})
    return rows
