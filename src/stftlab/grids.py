"""Uniform periodic grids, sampled signals, and their exact symmetries.

Conventions used by every module downstream:

    x_k  = (k - N/2) dx,   dx  = L / N        sample points, k = 0 .. N-1
    xi_m = (m - N/2) dxi,  dxi = 1 / L        frequency points
    F(xi) = dx * sum_k f(x_k) exp(-2 pi i x_k xi)

The model is circular: the grid samples one period of an L-periodic function,
translations and modulations are restricted to grid multiples and are then exact
permutations / unimodular multiplications. All norms are Riemann sums, so the
discrete quantities converge to their continuum counterparts under refinement.
Claims about continuum objects are only meaningful for signals whose mass at the
boundary is negligible; the constructors enforce a 1e-10 decay guard.

Sample spaces: a Signal lives on a Grid1D and a TFField on a TFGrid. Both grids
answer one protocol, so norms, distances and the binary container are written
once for both sides of the transform: `axes` (the Grid1D of each array axis,
each with its |xi| as `freq_radius()`), and built from them `cell` and
`dual_cell` (the measure of one sample and of one spectral sample) and
`shape`; `radius()` is |x|, or |z| on the plane. Both objects are one
Sampled: `space` is their grid, one constructor checks dtype, shape and
finiteness, `like(values)` rewraps, and `restrict(mask)` zeroes the values
outside a region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .rng import SplitMix64

BOUNDARY_DECAY_TOL = 1e-10

# Largest sample count of one grid axis: twice the largest count an
# experiment builds (2048), and a 4096^2 complex field is 256 MiB.
MAX_COUNT = 4096

__all__ = [
    "Grid1D",
    "Signal",
    "TFGrid",
    "TFField",
    "Sampled",
    "make_grid",
    "tf_grid_of",
    "gaussian",
    "hermite",
    "random",
    "translate",
    "modulate",
    "fourier",
    "cdft",
    "icdft",
    "cdft2",
    "boundary_decay",
    "riemann_lp",
]


class _SampleSpace:
    """The sample-space protocol of Grid1D and TFGrid, built from `axes`."""

    @property
    def cell(self) -> float:
        return math.prod(a.dx for a in self.axes)

    @property
    def dual_cell(self) -> float:
        return math.prod(a.dual().dx for a in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)


@dataclass(frozen=True)
class Grid1D(_SampleSpace):
    """Uniform periodic grid on [-L/2, L/2) with N samples."""

    length: float
    count: int

    @property
    def dx(self) -> float:
        return self.length / self.count

    @property
    def dxi(self) -> float:
        return 1.0 / self.length

    def points(self) -> np.ndarray:
        return (np.arange(self.count) - self.count // 2) * self.dx

    def dual(self) -> "Grid1D":
        # extent N * dxi = N / L, same count; dual of the dual is the original grid
        return Grid1D(self.count / self.length, self.count)

    @property
    def is_self_dual(self) -> bool:
        return abs(self.length * self.length - self.count) <= 1e-9 * self.count

    def index_of(self, x: float, what: str = "point") -> int:
        """Index of an on-grid coordinate; raises if x is off-grid."""
        s = x / self.dx
        k = round(s)
        if abs(s - k) > 1e-9 * max(1.0, abs(s)):
            raise ValueError(
                f"{what} {x!r} is not a grid multiple of dx={self.dx!r}; "
                "only on-grid values are supported"
            )
        return int(k) + self.count // 2

    @property
    def axes(self) -> tuple["Grid1D"]:
        return (self,)

    def radius(self) -> np.ndarray:
        return np.abs(self.points())

    def freq_radius(self) -> np.ndarray:
        return np.abs(self.dual().points())


def make_grid(length: float, count: int) -> Grid1D:
    """Validated Grid1D constructor: L > 0, N even, 8 <= N <= MAX_COUNT."""
    if not np.isfinite(length) or length <= 0:
        raise ValueError(f"grid length must be positive, got {length!r}")
    if int(count) != count or count < 8 or count % 2 != 0:
        raise ValueError(f"grid count must be an even integer >= 8, got {count!r}")
    if count > MAX_COUNT:
        raise ValueError(f"grid count {count!r} is above the limit of "
                         f"{MAX_COUNT}")
    return Grid1D(float(length), int(count))


class Sampled:
    """Values on a sample space: the common base of Signal and TFField.

    The constructor takes real samples as float64 where the subclass admits
    them (_admits_real) and every other input as complex128, then checks the
    shape against the space and that every sample is finite.
    """

    _admits_real = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        real = self._admits_real and v.dtype.kind == "f"
        v = v.astype(np.float64 if real else np.complex128, copy=False)
        name = type(self).__name__
        if v.shape != self.space.shape:
            raise ValueError(f"{name} shape {v.shape} does not match the "
                             f"sample space {self.space.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError(f"{name} contains non-finite values")
        self.values = v

    def like(self, values: np.ndarray) -> "Sampled":
        """The same kind of object on the same space, carrying new values."""
        return type(self)(self.space, values)

    def restrict(self, mask: np.ndarray) -> "Sampled":
        """Values zeroed outside a region: the one restriction to a subset."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.space.shape:
            raise ValueError(f"mask shape {mask.shape} does not match the "
                             f"sample space {self.space.shape}")
        return self.like(np.where(mask, self.values, 0.0))


@dataclass
class Signal(Sampled):
    """Complex samples on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    @property
    def space(self) -> Grid1D:
        return self.grid


@dataclass(frozen=True)
class TFGrid(_SampleSpace):
    """Product grid for time-frequency fields: x-axis times omega-axis."""

    xgrid: Grid1D
    wgrid: Grid1D

    def xmesh(self) -> np.ndarray:
        return self.xgrid.points()[:, None]

    def wmesh(self) -> np.ndarray:
        return self.wgrid.points()[None, :]

    @property
    def axes(self) -> tuple[Grid1D, Grid1D]:
        return (self.xgrid, self.wgrid)

    def radius(self) -> np.ndarray:
        return np.hypot(self.xmesh(), self.wmesh())


@dataclass
class TFField(Sampled):
    """Samples on a TFGrid; values[i, j] lives at (x_i, omega_j).

    Real dtype is allowed (phaseless measurements, weights); complex otherwise.
    """

    tfgrid: TFGrid
    values: np.ndarray
    _admits_real = True

    @property
    def space(self) -> TFGrid:
        return self.tfgrid


def tf_grid_of(grid: Grid1D) -> TFGrid:
    """Canonical TF grid of a signal grid: x-axis itself, omega-axis its dual."""
    return TFGrid(grid, grid.dual())


def cdft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Centered DFT along one axis (index k - N/2 <-> frequency index m - N/2).

    Exactly sum_k a_k exp(-2 pi i (k - N/2)(m - N/2) / N) for even N.
    """
    return np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis
    )


def icdft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of cdft (includes the 1/N factor)."""
    return np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis
    )


def cdft2(a: np.ndarray) -> np.ndarray:
    """Centered DFT over both axes of a 2D array."""
    return cdft(cdft(a, axis=0), axis=1)


def fourier(f: Signal) -> Signal:
    """Forward transform onto the dual grid; unitary for Riemann-sum L2 norms."""
    return Signal(f.grid.dual(), cdft(f.values) * f.grid.dx)


def boundary_decay(f: Signal) -> float:
    """Edge magnitude relative to the peak; small means periodization is harmless."""
    v = np.abs(f.values)
    peak = v.max()
    if peak == 0:
        return 0.0
    return float(max(v[0], v[-1]) / peak)


def riemann_lp(values: np.ndarray, cell: float, p: float) -> float:
    """Riemann-sum L^p norm, max-rescaled to keep deep tails measurable."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    a = np.abs(np.asarray(values)).ravel()
    if a.size == 0:
        return 0.0
    m = float(a.max())
    if m == 0.0:
        return 0.0
    if p == math.inf:
        return m
    return m * float(cell * np.sum((a / m) ** p)) ** (1.0 / p)


def _unit_norm(sig: Signal, tol: float, what: str) -> Signal:
    """sig, once its Riemann L2 norm is 1 within tol (a coarse grid fails)."""
    norm = riemann_lp(sig.values, sig.grid.dx, 2.0)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"grid too coarse for {what} (measured norm {norm!r})")
    return sig


def gaussian(grid: Grid1D, center: float = 0.0, modulation: float = 0.0) -> Signal:
    """Unit L2-norm Gaussian 2^{1/4} exp(-pi (x-c)^2) exp(2 pi i eta x).

    The center must sit at least 4 units inside the boundary so the periodized
    tails stay below the 1e-10 decay guard.
    """
    half = grid.length / 2.0
    if abs(center) > half - 4.0:
        raise ValueError(
            f"gaussian center {center!r} too close to the boundary of "
            f"[-{half}, {half}); need |center| <= L/2 - 4"
        )
    x = grid.points()
    vals = 2.0**0.25 * np.exp(-np.pi * (x - center) ** 2) * np.exp(
        2j * np.pi * modulation * x
    )
    return _unit_norm(Signal(grid, vals), 1e-8, "a unit-norm gaussian")


def hermite(grid: Grid1D, n: int) -> Signal:
    """n-th Hermite function, physicists' polynomials against the exp(-pi x^2)
    weight, normalized to unit L2 norm; hermite(grid, 0) == gaussian(grid)."""
    if int(n) != n or n < 0:
        raise ValueError(f"hermite order must be a nonnegative integer, got {n!r}")
    n = int(n)
    from scipy.special import eval_hermite

    x = grid.points()
    t = np.sqrt(2.0 * np.pi) * x
    # log of (2 pi)^{1/4} / sqrt(2^n n! sqrt(pi))
    logc = 0.25 * np.log(2.0 * np.pi) - 0.5 * (
        n * np.log(2.0) + gammaln(n + 1) + 0.5 * np.log(np.pi)
    )
    vals = np.exp(logc) * eval_hermite(n, t) * np.exp(-np.pi * x**2)
    sig = Signal(grid, vals)
    if boundary_decay(sig) > BOUNDARY_DECAY_TOL:
        raise ValueError(
            f"hermite order {n} does not decay below {BOUNDARY_DECAY_TOL} at the "
            f"grid boundary (edge ratio {boundary_decay(sig):.3e}); enlarge the grid"
        )
    return _unit_norm(sig, 1e-6, f"hermite({n})")


def random(grid: Grid1D, rng: SplitMix64) -> Signal:
    """Complex white noise (re + i im) / sqrt(2) with standard normal parts
    drawn from a SplitMix64 stream: real parts first, then imaginary parts."""
    parts = rng.normals(2 * grid.count)
    re, im = parts[:grid.count], parts[grid.count:]
    return Signal(grid, (re + 1j * im) / math.sqrt(2.0))


def translate(f: Signal, u: float) -> Signal:
    """Circular translation by an on-grid amount: (T_u f)(x) = f(x - u)."""
    shift = f.grid.index_of(u, "translation") - f.grid.count // 2
    return Signal(f.grid, np.roll(f.values, shift))


def modulate(f: Signal, eta: float) -> Signal:
    """Modulation by an on-grid frequency: (M_eta f)(x) = e^{2 pi i eta x} f(x)."""
    dual = f.grid.dual()
    dual.index_of(eta, "modulation")  # on-grid check against dxi
    return Signal(f.grid, f.values * np.exp(2j * np.pi * eta * f.grid.points()))
