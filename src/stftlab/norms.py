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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Sampled, TFField, riemann_lp

__all__ = [
    "japanese_bracket",
    "inner_l2",
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
    "h1_magnitude",
]


def japanese_bracket(x: np.ndarray | float) -> np.ndarray | float:
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


def _finite_at_edge(name: str, value: float, top) -> None:
    """Refuse the exponent of a weight or multiplier whose sample at the
    grid's largest radius, top, is not finite: for an exponent of at least 0
    it is the largest sample, and for a negative one none exceeds 1."""
    if not np.isfinite(top):
        raise ValueError(f"{name} = {value:g} overflows <.>^{name} on this grid")


def _apply_radial(base: np.ndarray, values: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """out = full * values, block by block, with the factors in that order;
    out may be values. full is the mirror-symmetric array that base lays
    out, and is never formed: along an axis of length N whose base holds
    indices 0 ... N/2, indices N/2 + 1 ... N - 1 repeat N/2 - 1 ... 1, and
    an axis whose base is whole is taken as it is."""
    per_axis = []
    for n, m in zip(values.shape, base.shape):
        h = n // 2
        per_axis.append([(slice(None), slice(None))] if m == n else
                        [(slice(0, h + 1), slice(None)),
                         (slice(h + 1, n), slice(h - 1, 0, -1))])
    for blocks in itertools.product(*per_axis):
        target, source = zip(*blocks)
        np.multiply(base[source], values[target], out=out[target])
    return out


def _one_plus_square(radii: list) -> np.ndarray:
    """1 + |z|^2 over the mesh of the per-axis radii, in place."""
    rho = functools.reduce(np.hypot, np.ix_(*radii))
    np.square(rho, out=rho)
    rho += 1.0
    return rho


def _weighted(values: np.ndarray, space, r: float,
              name: str = "r") -> np.ndarray:
    """<x>^r . values, with the radial bracket |z| on two-dimensional fields;
    r goes by name in the error raised when the weight overflows.

    The weight is built on the quadrant of indices 0 ... N/2 of each axis
    only. A centred axis holds x_k = (k - N/2) dx, so x_{N/2+j} = j dx and
    x_{N/2-j} = (-j) dx = -(j dx) exactly, and |x|, and |z| on the plane,
    take the same bits at both: the weight is mirror-symmetric about index
    N/2, and the rest of the grid multiplies by reversed views of the
    quadrant (_apply_radial).
    """
    if r == 0:
        return values
    edge = math.hypot(*(ax.length / 2.0 for ax in space.axes))
    with np.errstate(over="ignore"):
        _finite_at_edge(name, r, japanese_bracket(edge) ** r)
    weight = _one_plus_square([ax.radius()[:ax.count // 2 + 1]
                               for ax in space.axes])
    np.sqrt(weight, out=weight)
    weight **= r
    out = np.empty(values.shape, np.result_type(weight, values))
    return _apply_radial(weight, values, out)


def _parameter(name: str, value: float, low: float = -math.inf,
               allow_inf: bool = False) -> float:
    """float(value), once it is a number (not NaN), at least low and, unless
    allow_inf, finite."""
    value = float(value)
    if math.isnan(value) or value < low or (math.isinf(value) and not allow_inf):
        bound = f" >= {low:g}" if low > -math.inf else ""
        finite = "" if allow_inf else "finite "
        raise ValueError(f"{name} must be a {finite}number{bound}, got {value!r}")
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


# rows of |b| that modulus_difference holds at once
_ROW_BLOCK = 64

# columns added after each row of a 2-D spectrum buffer (see _spectrum)
_ROW_PAD = 8


def _spectrum(values: np.ndarray, half: bool = False,
              inverse: bool = False) -> np.ndarray:
    """fftn(values), rfftn(values) when half, or ifftn(values) when inverse
    (a 2-D one in place), bit for bit.

    numpy's n-D transforms run one 1-D transform per axis, the last axis
    first, and each 1-D line is transformed alone whatever its stride. Here
    a 2-D array takes the same 1-D passes in the same order: the last axis
    into a buffer whose rows are _ROW_PAD entries longer than the cols it
    holds (the result is the view [:, :cols]), then axis 0 in place in that
    view. The lines are the same, so are the bits; only the stride of the
    axis-0 pass changes. A row of 1024 complex samples is 16 KiB, and lines
    that step through memory by a power of two compete for the same cache
    sets. On a 2-core AMD EPYC host a complex 1024^2 fftn took 14.3 ms and
    this path 6.3 ms (83 and 31 ms at 2048^2), a real rfftn 5.0 and 4.3 ms
    (21 and 17 ms at 2048^2); pads of 1, 8 and 16 performed alike. The
    inverse runs axis 1, then axis 0, as ifftn does, in the array it is
    given.
    """
    first = (np.fft.ifft if inverse else np.fft.rfft if half
             else np.fft.fft)
    if values.ndim == 1:
        return first(values)
    rows, cols = values.shape
    if half:
        cols = cols // 2 + 1
    out = values if inverse else np.empty(
        (rows, cols + _ROW_PAD), np.complex128)[:, :cols]
    first(values, axis=1, out=out)
    (np.fft.ifft if inverse else np.fft.fft)(out, axis=0, out=out)
    return out


def _multiplier(space, s: float) -> np.ndarray:
    """(1 + |xi|^2)^{s/2} in fft order over every axis of space, on indices
    0 ... N/2 of each axis only: the base block that _apply_radial lays out
    over a full spectrum, and the whole of the rfftn half [:N/2 + 1] of the
    last axis.

    In fft order axis index k holds frequency k dxi for k <= N/2 and
    (k - N) dxi above, so |xi| at N - k is |(-k) dxi| = |-(k dxi)|, the
    same bits as at k: indices N/2 + 1 ... N - 1 repeat N/2 - 1 ... 1.
    """
    radii = [np.fft.ifftshift(ax.freq_radius())[:ax.count // 2 + 1]
             for ax in space.axes]
    edge = math.hypot(*(ax.dual().length / 2.0 for ax in space.axes))
    with np.errstate(over="ignore"):
        _finite_at_edge("s", s, (1.0 + np.square(edge)) ** (s / 2.0))
    mult = _one_plus_square(radii)
    mult **= s / 2.0
    return mult


def bessel_potential(obj: Sampled, s: float) -> Sampled:
    """<D>^s f: multiply the spectrum by (1 + |xi|^2)^{s/2}, in fft order
    (the shifts of a centred DFT cancel in the round trip)."""
    spectrum = _spectrum(obj.values)
    _apply_radial(_multiplier(obj.space, s), spectrum, spectrum)
    return obj.like(_spectrum(spectrum, inverse=True))


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
    # the product leaves the padded spectrum buffer for a contiguous array
    term = np.multiply(sp.cell, _spectrum(obj.values, half))
    _apply_radial(_multiplier(sp, s), term, term)
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

    Subclasses implement _terms(), which yields the (array, cell, p) of each
    image in turn; a call measures each image before the next is built, so
    one full-size image is alive at a time. pair_evaluator() exploits
    linearity so that a phase scan over lambda costs no transforms inside
    the loop.
    """

    label: str = "norm"

    def _terms(self, obj):
        raise NotImplementedError

    def __call__(self, obj) -> float:
        return float(sum(itertools.starmap(riemann_lp, self._terms(obj))))

    def pair_evaluator(self, f, g):
        """Callable lam -> self(f - lam * g) with all transforms precomputed.

        Real operands are taken as complex: their half-spectrum terms do not
        combine, since |F(-k) - lam G(-k)| = |F(k) - conj(lam) G(k)|.
        """
        _same_geometry(f, g)
        tf, tg = (list(self._terms(_as_complex(x))) for x in (f, g))

        def residual(af, ag, lam):
            """af - lam * ag, in the one array that lam * ag takes."""
            out = np.multiply(lam, ag)
            return np.subtract(af, out, out=out)

        def ev(lam: complex) -> float:
            return float(
                sum(
                    riemann_lp(residual(af, ag, lam), c, p)
                    for (af, c, p), (ag, _, _) in zip(tf, tg)
                )
            )

        return ev


class LqNorm(Norm):
    """Plain Lebesgue norm ||f||_q."""

    def __init__(self, q: float):
        self.q = _parameter("q", q, 1.0, allow_inf=True)
        self.label = f"L{self.q:g}"

    def _terms(self, obj):
        return [(obj.values, obj.space.cell, self.q)]


class XpSigmaNorm(Norm):
    """Weighted Lebesgue norm ||<x>^sigma f||_p."""

    def __init__(self, p: float, sigma: float):
        self.p = _parameter("p", p, 1.0, allow_inf=True)
        self.sigma = _parameter("sigma", sigma)
        self.label = f"X{self.p:g},{self.sigma:g}"

    def _terms(self, obj):
        return [(_weighted(obj.values, obj.space, self.sigma, "sigma"),
                 obj.space.cell, self.p)]


class SobolevNorm(Norm):
    """||<x>^r f||_p + ||<D>^s f||_p."""

    def __init__(self, s: float, p: float, r: float = 0.0):
        self.s = _parameter("s", s, 0.0)
        self.p = _parameter("p", p, 1.0, allow_inf=True)
        self.r = _parameter("r", r, 0.0)
        self.label = f"W{self.s:g},{self.p:g},{self.r:g}"

    def _terms(self, obj):
        yield _weighted(obj.values, obj.space, self.r), obj.space.cell, self.p
        yield _derivative_term(obj, self.s, self.p)


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
        for name, low in (("s", 0.0), ("p", 1.0), ("r", 0.0)):
            _parameter(name, getattr(self, name), low)
        _parameter("q", self.q, 1.0, allow_inf=True)


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
    constant divides by. One full-size array: |b| is subtracted in blocks
    of rows."""
    _same_geometry(a, b)
    diff = np.abs(a.values)
    for start in range(0, diff.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        diff[rows] -= np.abs(b.values[rows])
    return a.like(diff)


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


def h1_magnitude(field: TFField, r: float = 0.0) -> TFField:
    """Pointwise weighted H1 magnitude <z>^r (|u|^2 + |grad u|^2)^{1/2}, as
    a real field h. The weighted H1 norm over a region X,
    ( integral_X <z>^{2r} (|u|^2 + |grad u|^2) )^{1/2}, is the L2 norm of h
    on X: riemann_lp(h.restrict(X).values, cell, 2). Gradients are taken on
    the full grid first, so the region boundary does not inject one-sided
    difference artifacts, and h does not depend on X.
    """
    gx, gw = field_gradient(field)
    mag = np.sqrt(np.abs(field.values) ** 2 + np.abs(gx) ** 2
                  + np.abs(gw) ** 2)
    return field.like(_weighted(mag, field.tfgrid, r))
