"""Weighted Lebesgue and fractional Sobolev norms, and the phase distance.

All norms are Riemann sums over the grid. Sums of p-th powers are rescaled by
the max magnitude before exponentiation so that values down near the smallest
normal double remain measurable: m * (mu * sum (|v|/m)^p)^{1/p} never squares a
denormal, while the plain formula would underflow to zero around 1e-160 for
p = 2.

The fractional derivative <D>^s is the Fourier multiplier (1 + |xi|^2)^{s/2}
in the cycles-per-unit frequency variable; the spatial weight is the bracket
<x> = (1 + |x|^2)^{1/2} (radial |z| on two-dimensional fields).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .grids import Sampled, TFField, riemann_lp

__all__ = [
    "japanese_bracket",
    "inner_l2",
    "ball_lp",
    "tail_weighted_lp",
    "bessel_potential",
    "frac_sobolev_norm",
    "Norm",
    "LqNorm",
    "XpSigmaNorm",
    "SobolevNorm",
    "IntersectionNorm",
    "NormSpec",
    "parse_norm",
    "PhaseDistanceResult",
    "phase_inf_distance",
    "disjointness_witness",
    "modulus",
    "modulus_difference",
    "modulus_sobolev_ratio",
    "field_gradient",
    "masked_h1_norm",
]


def japanese_bracket(x: np.ndarray | float) -> np.ndarray | float:
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


def _weighted(values: np.ndarray, space, r: float) -> np.ndarray:
    """<x>^r . values, with the radial bracket |z| on two-dimensional fields."""
    return values if r == 0 else japanese_bracket(space.radius()) ** r * values


def _parameter(name: str, value: float, low: float = -math.inf) -> float:
    """float(value), once it is a number (not NaN) and at least low."""
    value = float(value)
    if math.isnan(value) or value < low:
        bound = f" >= {low:g}" if low > -math.inf else ""
        raise ValueError(f"{name} must be a number{bound}, got {value!r}")
    return value


def _same_geometry(f: Sampled, g: Sampled) -> None:
    if type(f) is not type(g):
        raise ValueError("operands live on different sample spaces")
    if f.space != g.space:
        raise ValueError("operands live on different grids")


def _as_complex(obj: Sampled) -> Sampled:
    """obj with complex128 samples (obj itself when they already are)."""
    if np.iscomplexobj(obj.values):
        return obj
    return obj.like(obj.values.astype(np.complex128))


def inner_l2(f: Sampled, g: Sampled) -> complex:
    """Riemann-sum inner product <f, g> = integral of f conj(g)."""
    _same_geometry(f, g)
    return complex(f.space.cell * np.vdot(g.values.ravel(), f.values.ravel()))


def ball_lp(obj: Sampled, p: float, radius: float = 1.0) -> float:
    """L^p norm restricted to the centered ball of the given radius."""
    sp = obj.space
    return riemann_lp(obj.restrict(sp.radius() <= radius).values, sp.cell, p)


def tail_weighted_lp(obj: Sampled, p: float, sigma: float, cutoff: float) -> float:
    """||<x>^sigma f||_p over the tail region |x| >= cutoff."""
    sp = obj.space
    tail = obj.restrict(sp.radius() >= cutoff).values
    return riemann_lp(_weighted(tail, sp, sigma), sp.cell, p)


def _multiplier(space, s: float, half: bool = False) -> np.ndarray:
    """(1 + |xi|^2)^{s/2} in fft order over every axis of space; half keeps
    the rfftn half [:N/2 + 1] of the last axis."""
    radii = [np.fft.ifftshift(ax.freq_radius()) for ax in space.axes]
    if half:
        radii[-1] = radii[-1][:radii[-1].size // 2 + 1]
    rho = functools.reduce(np.hypot, np.ix_(*radii))
    return (1.0 + np.square(rho)) ** (s / 2.0)


def bessel_potential(obj: Sampled, s: float) -> Sampled:
    """<D>^s f: multiply the spectrum by (1 + |xi|^2)^{s/2}, in fft order
    (the shifts of a centred DFT cancel in the round trip)."""
    if s == 0:
        return obj.like(np.asarray(obj.values, dtype=np.complex128).copy())
    return obj.like(np.fft.ifftn(_multiplier(obj.space, s)
                                 * np.fft.fftn(obj.values)))


def _derivative_term(obj: Sampled, s: float, p: float) -> tuple[np.ndarray, float, float]:
    """(array, cell, p) whose riemann_lp is ||<D>^s f||_p.

    For p = 2 the norm is evaluated on the frequency side (Parseval is exact on
    the grid, and one transform is cheaper than a round trip); s = 0 needs no
    transform at all. The norm reads only |F|, so no centred order is needed:
    the centred DFT fftshift(fft(ifftshift(a))) multiplies the spectrum by a
    unimodular phase (inner shift) and permutes it (outer shift), so |cdft(a)|
    is |fftn(a)| reordered, with the multiplier in the same fft order.

    A real operand needs only half of its spectrum. A real a has a Hermitian
    spectrum, F(-k) = conj F(k), and the multiplier is even in k, so the
    rfftn half [..., :N/2 + 1] of the last axis fixes the whole sum. Its
    first and last columns (frequencies 0 and -N/2) are their own mirrors;
    every other column also stands for its mirror column, so it is scaled by
    sqrt 2.
    """
    sp = obj.space
    if s == 0:
        return obj.values, sp.cell, p
    if p != 2:
        return bessel_potential(obj, s).values, sp.cell, p
    half = not np.iscomplexobj(obj.values)
    spectrum = (np.fft.rfftn if half else np.fft.fftn)(obj.values)
    term = _multiplier(sp, s, half) * (sp.cell * spectrum)
    if half:
        term[..., 1:-1] *= math.sqrt(2.0)
    return term, sp.dual_cell, 2.0


def frac_sobolev_norm(obj: Sampled, s: float, p: float = 2.0,
                      r: float = 0.0) -> float:
    """||<x>^r f||_p + ||<D>^s f||_p, the norm of SobolevNorm(s, p, r)."""
    return SobolevNorm(s, p, r)(obj)


# ---------------------------------------------------------------------------
# norm objects


class Norm:
    """A norm that is a sum of Riemann L^p norms of linear images of f.

    Subclasses implement _terms(); pair_evaluator() exploits linearity so that
    a phase scan over lambda costs no transforms inside the loop.
    """

    label: str = "norm"

    def _terms(self, obj) -> list[tuple[np.ndarray, float, float]]:
        raise NotImplementedError

    def __call__(self, obj) -> float:
        return float(sum(riemann_lp(a, c, p) for a, c, p in self._terms(obj)))

    def pair_evaluator(self, f, g):
        """Callable lam -> self(f - lam * g) with all transforms precomputed.

        Real operands are taken as complex: their half-spectrum terms do not
        combine, since |F(-k) - lam G(-k)| = |F(k) - conj(lam) G(k)|.
        """
        _same_geometry(f, g)
        tf, tg = (self._terms(_as_complex(x)) for x in (f, g))

        def ev(lam: complex) -> float:
            return float(
                sum(
                    riemann_lp(af - lam * ag, c, p)
                    for (af, c, p), (ag, _, _) in zip(tf, tg)
                )
            )

        return ev


class LqNorm(Norm):
    """Plain Lebesgue norm ||f||_q."""

    def __init__(self, q: float):
        self.q = _parameter("q", q, 1.0)
        self.label = f"L{self.q:g}"

    def _terms(self, obj):
        return [(obj.values, obj.space.cell, self.q)]


class XpSigmaNorm(Norm):
    """Weighted Lebesgue norm ||<x>^sigma f||_p."""

    def __init__(self, p: float, sigma: float):
        self.p = _parameter("p", p, 1.0)
        self.sigma = _parameter("sigma", sigma)
        self.label = f"X{self.p:g},{self.sigma:g}"

    def _terms(self, obj):
        return [(_weighted(obj.values, obj.space, self.sigma), obj.space.cell,
                 self.p)]


class SobolevNorm(Norm):
    """||<x>^r f||_p + ||<D>^s f||_p."""

    def __init__(self, s: float, p: float, r: float = 0.0):
        self.s = _parameter("s", s, 0.0)
        self.p = _parameter("p", p, 1.0)
        self.r = _parameter("r", r, 0.0)
        self.label = f"W{self.s:g},{self.p:g},{self.r:g}"

    def _terms(self, obj):
        wv = _weighted(obj.values, obj.space, self.r)
        return [(wv, obj.space.cell, self.p),
                _derivative_term(obj, self.s, self.p)]


class IntersectionNorm(Norm):
    """Norm of an intersection space: the max of the member norms."""

    def __init__(self, members):
        self.members = tuple(members)
        if not self.members:
            raise ValueError("intersection needs at least one member norm")
        self.label = " ^ ".join(m.label for m in self.members)

    def __call__(self, obj) -> float:
        return max(m(obj) for m in self.members)

    def pair_evaluator(self, f, g):
        evs = [m.pair_evaluator(f, g) for m in self.members]
        return lambda lam: max(e(lam) for e in evs)


@dataclass(frozen=True)
class NormSpec:
    """Parameter bundle for the norms a comparison experiment needs: s, p, r
    drive the Sobolev side and q is the plain comparison norm."""

    s: float = 0.0
    p: float = 2.0
    r: float = 0.0
    q: float = 2.0

    def __post_init__(self):
        for name, low in (("s", 0.0), ("p", 1.0), ("r", 0.0), ("q", 1.0)):
            _parameter(name, getattr(self, name), low)
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")


def parse_norm(text: str) -> Norm:
    """Textual norm grammar, '^' joins members of an intersection (max):

        l2, l4, linf     plain Lebesgue shorthand
        lq:Q             plain Lebesgue, e.g.  lq:1.5
        x:P,SIGMA        weighted Lebesgue     x:2,1.5
        w:S,P[,R]        Sobolev               w:0.5,2,1
    """
    members: list[Norm] = []
    for part in text.split("^"):
        part = part.strip().lower()
        head, colon, args = part.partition(":")
        if not colon and head.startswith("l") and len(head) > 1:
            tail = head[1:]
            try:
                members.append(LqNorm(math.inf if tail == "inf" else float(tail)))
                continue
            except ValueError:
                raise ValueError(f"bad norm spec {part!r}") from None
        try:
            nums = [float(t) for t in args.split(",")] if args else []
        except ValueError:
            raise ValueError(f"bad norm spec {part!r}") from None
        if head == "lq" and len(nums) == 1:
            members.append(LqNorm(nums[0]))
        elif head == "x" and len(nums) == 2:
            members.append(XpSigmaNorm(nums[0], nums[1]))
        elif head == "w" and len(nums) in (2, 3):
            members.append(SobolevNorm(*nums))
        else:
            raise ValueError(
                f"bad norm spec {part!r}; expected l<Q>, lq:Q, x:P,SIGMA or w:S,P[,R]"
            )
    if not members:
        raise ValueError("empty norm spec")
    if len(members) == 1:
        return members[0]
    return IntersectionNorm(members)


# ---------------------------------------------------------------------------
# phase-invariant distance


@dataclass(frozen=True)
class PhaseDistanceResult:
    """inf over |lambda| = 1 of ||f - lambda g||; distance - gap is a certified
    lower bound on that infimum (gap = 0.0 for the closed form)."""

    distance: float
    phase: complex
    method: str  # "closed-form" | "certified+refine"
    degenerate: bool
    evaluations: int
    gap: float


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the certified search: branch and bound from _START_SPLIT equal intervals
# until the gap is _GAP_REL of the best value, at most _CERTIFIED_BUDGET
# samples, then golden-section refinement down to this angular width
_START_SPLIT = 8
_GAP_REL = 1e-2
_CERTIFIED_BUDGET = 720
_SCAN_TOL = 1e-10
# relative raise of the Lipschitz constant over its computed value
_L_SLACK = 1e-9


def _golden_min(fun, a: float, b: float, tol: float) -> tuple[float, float, int]:
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    n = 2
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fun(d)
        n += 1
    return (c, fc, n) if fc <= fd else (d, fd, n)


def _certified_min(ev, L: float, lo: float, hi: float
                   ) -> tuple[float, float, float, int]:
    """(theta, value, gap, evaluations): the minimum over [lo, hi] of
    theta -> ev(e^{i theta}), an L-Lipschitz function of theta.

    Certified stage, Piyavskii-Shubert branch and bound (Shubert, SIAM J.
    Numer. Anal. 1972). On [a, b] with end values fa and fb, the function lies
    above both cones fa - L(t - a) and fb - L(b - t); they cross at
    t = (a + b)/2 + (fa - fb)/(2L) at height (fa + fb)/2 - L(b - a)/2. The
    interval with the lowest such floor is split at its crossing until the best
    sample is within _GAP_REL of that floor, the interval is narrower than
    _SCAN_TOL (an exact match has best value 0, where no relative gap closes),
    or _CERTIFIED_BUDGET samples are spent. Refine stage: golden-section
    search, down to _SCAN_TOL, over the two intervals next to the best sample
    taken together; the smaller of its result and that sample wins.
    gap = value - (lowest floor), so value - gap bounds the minimum from below.

    L is raised by the relative _L_SLACK, far above the rounding of a
    pairwise-summed Riemann norm, so a computed L never falls short of the
    true slope; the samples' own rounding (a few ulps of the value) moves the
    floor by as much and no more. L = 0 means every angle ties: one sample.
    A search over a whole turn wraps: its two end samples are one angle, so
    either one's neighbours are the second sample and the last but one.
    """
    def fun(theta):
        return ev(complex(np.exp(1j * theta)))

    def cone(a, fa, b, fb):  # heap entry: the floor of [a, b], then [a, b]
        return 0.5 * (fa + fb) - 0.5 * L * (b - a), a, fa, b, fb

    if L == 0.0:
        return lo, fun(lo), 0.0, 1
    L *= 1.0 + _L_SLACK
    angles = np.linspace(lo, hi, _START_SPLIT + 1).tolist()
    samples = [(t, fun(t)) for t in angles]
    heap = [cone(*s, *t) for s, t in zip(samples, samples[1:])]
    heapq.heapify(heap)
    best = min(v for _, v in samples)
    while len(samples) < _CERTIFIED_BUDGET:
        floor, a, fa, b, fb = heap[0]
        if best - floor <= _GAP_REL * best or b - a < _SCAN_TOL:
            break
        heapq.heappop(heap)
        t = min(max(0.5 * (a + b) + (fa - fb) / (2.0 * L), a), b)
        ft = fun(t)
        samples.append((t, ft))
        best = min(best, ft)
        heapq.heappush(heap, cone(a, fa, t, ft))
        heapq.heappush(heap, cone(t, ft, b, fb))
    samples.sort()
    ts = [t for t, _ in samples]
    i = min(range(len(samples)), key=lambda k: samples[k][1])
    last = len(ts) - 1
    if hi - lo >= 2.0 * math.pi and i in (0, last):
        a, b = ts[-2] - 2.0 * math.pi, ts[1]
    else:
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, last)]
    theta, value = samples[i]
    t, v, n = _golden_min(fun, a, b, _SCAN_TOL)
    if v < value:
        theta, value = t, v
    count = len(samples) + n
    return theta, value, max(value - heap[0][0], 0.0), count


def phase_inf_distance(f, g, norm: Norm | None = None) -> PhaseDistanceResult:
    """Minimize ||f - lambda g|| over unimodular lambda.

    The L2 case has the closed form lambda = <f, g> / |<f, g>| (lambda = 1 for
    an inner product of exactly zero). The pair is tagged degenerate when
    |<f, g>| <= n eps ||f||_2 ||g||_2 with n the sample count: the inner
    product is then rounding noise, every phase ties in L2, and the reported
    phase means nothing.

    Every other norm gets the certified search of _certified_min over the
    whole circle. Each norm here is a sum, or a max, of seminorms |.| (Riemann
    L^p norms of linear images). By the triangle inequality and homogeneity

        | |f - e^{ia} g| - |f - e^{ib} g| | <= |(e^{ib} - e^{ia}) g|
            = 2 |sin((a - b)/2)| |g| <= |a - b| |g|,

    and a sum or max of such terms keeps the bound with the sum or max of
    their |g|: theta -> ||f - e^{i theta} g|| is ||g||-Lipschitz. ||g|| is
    taken on the complex operand that pair_evaluator works on. A zero g ties
    every phase: degenerate, lambda = 1, one evaluation. The distance on a
    region is the distance of the restricted operands, f.restrict(mask) and
    g.restrict(mask).
    """
    if norm is None:
        norm = LqNorm(2.0)
    _same_geometry(f, g)
    if isinstance(norm, LqNorm) and norm.q == 2.0:
        ip = inner_l2(f, g)
        lam = ip / abs(ip) if ip != 0 else 1.0 + 0.0j
        cell = f.space.cell
        noise = (f.values.size * np.finfo(np.float64).eps
                 * riemann_lp(f.values, cell, 2.0) * riemann_lp(g.values, cell, 2.0))
        degenerate = bool(abs(ip) <= noise)
        ev = norm.pair_evaluator(f, g)
        return PhaseDistanceResult(ev(lam), lam, "closed-form", degenerate, 1,
                                   0.0)

    slope = norm(_as_complex(g))
    theta, best, gap, n = _certified_min(norm.pair_evaluator(f, g), slope,
                                         0.0, 2.0 * math.pi)
    return PhaseDistanceResult(best, complex(np.exp(1j * theta)),
                               "certified+refine", slope == 0.0, n, gap)


# ---------------------------------------------------------------------------
# modulus-side quantities


def modulus(obj: Sampled) -> Sampled:
    """|f| as a signal/field of the same shape."""
    return obj.like(np.abs(np.asarray(obj.values)))


def modulus_difference(a: Sampled, b: Sampled) -> Sampled:
    """|a| - |b| on the space of a: the modulus distance every stability
    constant divides by."""
    _same_geometry(a, b)
    return a.like(np.abs(a.values) - np.abs(b.values))


def disjointness_witness(f, g, h) -> float:
    """Overlap witness for a decomposition f = g + h:

        rho = || min(|g|, |h|) ||_2 / min(||g||_2, ||h||_2).

    A tiny rho certifies that the parts barely share support, which is the
    raw material of a local phase-retrieval instability (flip the sign of one
    part: the modulus barely moves). rho = 1 exactly when g = h, rho = 0
    exactly for disjoint supports. The decomposition must actually sum to f
    and neither part may vanish.
    """
    norm = LqNorm(2.0)
    _same_geometry(f, g)
    _same_geometry(g, h)
    vf, vg, vh = f.values, g.values, h.values
    cell = f.space.cell
    drift = riemann_lp(vf - (vg + vh), cell, 2.0)
    if drift > 1e-8 * riemann_lp(vf, cell, 2.0):
        raise ValueError("g + h does not reproduce f (decomposition inexact)")
    den = min(norm(g), norm(h))
    if den == 0.0:
        raise ValueError("decomposition has a vanishing part")
    overlap = g.like(np.minimum(np.abs(vg), np.abs(vh)))
    return norm(overlap) / den


def modulus_sobolev_ratio(obj: Sampled, s: float, p: float = 2.0,
                          r: float = 0.0) -> float:
    """||  |f|  ||_{W^{s,p}_r} / || f ||_{W^{s,p}_r}."""
    den = frac_sobolev_norm(obj, s, p, r)
    if den == 0.0:
        raise ValueError("zero input has no modulus ratio")
    return frac_sobolev_norm(modulus(obj), s, p, r) / den


def field_gradient(field: TFField) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference gradient along x and omega (one-sided at the frame
    edges); the one gradient every field-side estimate uses."""
    tg = field.tfgrid
    gx = np.gradient(field.values, tg.xgrid.dx, axis=0)
    gw = np.gradient(field.values, tg.wgrid.dx, axis=1)
    return gx, gw


def masked_h1_norm(field: TFField, mask: np.ndarray, r: float = 0.0) -> float:
    """Weighted H1 norm over a region X:

        ( integral_X <z>^{2r} (|u|^2 + |grad u|^2) )^{1/2}

    Gradients are taken on the full grid first, then restricted to the mask,
    so the region boundary does not inject one-sided difference artifacts.
    """
    tg = field.tfgrid
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != tg.shape:
        raise ValueError("mask shape does not match the field")
    gx, gw = field_gradient(field)
    dens = np.abs(field.values) ** 2 + np.abs(gx) ** 2 + np.abs(gw) ** 2
    dens = _weighted(dens, tg, 2.0 * r)
    return float(np.sqrt(tg.cell * np.sum(dens[mask])))
