"""Short-time Fourier analysis on periodic grids.

The pipeline: window a signal, transform per column, and study the resulting
time-frequency field through its modulus and its ambiguity function. The
Fock side enters only through its Gaussian weight and the polynomial fields
that the stability certificates compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (
    Grid1D,
    Signal,
    TFField,
    TFGrid,
    cdft2,
    gaussian,
    hermite,
    icdft,
    modulate,
    tf_grid_of,
    translate,
)
from .norms import japanese_bracket

__all__ = [
    "WindowSpec",
    "RecoveryResult",
    "WindowComparison",
    "parse_window",
    "stft",
    "covariance_residual",
    "ambiguity",
    "phaseless",
    "ambiguity_relation_residual",
    "fock_exponent",
    "fock_polynomial_field",
    "recover",
    "window_comparison_ratio",
]


# rows per FFT batch; bounds the (chunk x N) scratch block to a few MB
_STFT_CHUNK = 256

# e^700 is near the top of double range; larger weights are not representable
_FOCK_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class WindowSpec:
    """Analysis window: "gaussian", or "hermite" with its order."""

    kind: str = "gaussian"
    order: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "hermite"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind == "hermite":
            if not isinstance(self.order, (int, np.integer)) or self.order < 0:
                raise ValueError("hermite window order must be an integer >= 0")

    def build(self, grid: Grid1D) -> Signal:
        if self.kind == "gaussian":
            return gaussian(grid)
        return hermite(grid, self.order)


def parse_window(text: str) -> WindowSpec:
    """"gaussian" or "hermite:N"."""
    text = text.strip()
    if text == "gaussian":
        return WindowSpec("gaussian")
    if text.startswith("hermite:"):
        arg = text[len("hermite:"):]
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"bad hermite order {arg!r}") from None
        return WindowSpec("hermite", order=n)
    raise ValueError(f"bad window spec {text!r}")


def _stft_values(fv: np.ndarray, wv: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Rows indexed by window center x_i, columns by frequency.

    Row i is dx times the centred DFT of f(t) conj(w)(t - x_i). That DFT
    first rolls its input by -N/2 (ifftshift), so with fs = f rolled by
    -N/2 it transforms fs[t] conj(w)[(t - i) mod N]: the same products of
    the same numbers, with the shift folded into fs. The window factor is
    entry n - i of the sliding windows over conj(w) twice over, a strided
    view with no gather. Each batch of _STFT_CHUNK rows is multiplied and
    transformed in one reused buffer; the output shift (fftshift) only
    swaps the two halves of a row, so each half is scaled by dx straight
    into its place in out.
    """
    n = grid.count
    h = n // 2
    fs = np.roll(fv, -h)[None, :]
    cw = np.conj(wv)
    circ = sliding_window_view(np.concatenate([cw, cw]), n)[n:0:-1]
    out = np.empty((n, n), dtype=np.complex128)
    buf = np.empty((min(_STFT_CHUNK, n), n), dtype=np.complex128)
    for start in range(0, n, _STFT_CHUNK):
        rows = slice(start, start + _STFT_CHUNK)
        block = buf[:min(_STFT_CHUNK, n - start)]
        np.multiply(fs, circ[rows], out=block)
        np.fft.fft(block, axis=1, out=block)
        np.multiply(grid.dx, block[:, h:], out=out[rows, :h])
        np.multiply(grid.dx, block[:, :h], out=out[rows, h:])
    return out


def stft(f: Signal, window: WindowSpec = WindowSpec("gaussian")) -> TFField:
    """V_w f(x, omega) = integral of f(t) conj(w(t-x)) e^{-2 pi i t omega} dt.

    Row x is the Fourier transform of the windowed slice, so the whole field
    costs one batched FFT pass. With a unit window the map is an L2 isometry
    up to the boundary mass of the fixtures. The field lives on
    tf_grid_of(f.grid).
    """
    grid = f.grid
    w = window.build(grid)
    return TFField(tf_grid_of(grid), _stft_values(f.values, w.values, grid))


def covariance_residual(f: Signal, window: WindowSpec, u: float, eta: float) -> float:
    """Sup-norm defect of V(T_u M_eta f) = e^{-2 pi i u omega} V f(.-u, .-eta).

    Shifts must be on-grid; then both sides are exact index rolls and the
    residual is pure floating-point noise.
    """
    grid = f.grid
    shifted = translate(modulate(f, eta), u)
    lhs = stft(shifted, window).values
    base = stft(f, window)
    s = grid.index_of(u, "translation") - grid.count // 2
    m = grid.dual().index_of(eta, "modulation") - grid.count // 2
    rolled = np.roll(base.values, (s, m), axis=(0, 1))
    phase = np.exp(-2j * np.pi * u * base.tfgrid.wmesh())
    return float(np.max(np.abs(lhs - phase * rolled)))


def ambiguity(f: Signal) -> TFField:
    """A f(x, omega) = e^{pi i x omega} V_f f(x, omega); A f(0,0) = ||f||^2."""
    tf = tf_grid_of(f.grid)
    v = _stft_values(f.values, f.values, f.grid)
    twist = np.exp(1j * np.pi * tf.xmesh() * tf.wmesh())
    return TFField(tf, twist * v)


def phaseless(f: Signal, window: WindowSpec = WindowSpec("gaussian")) -> TFField:
    """|V_w f|^2, the measurement a phase-retrieval problem starts from."""
    v = stft(f, window)
    return TFField(v.tfgrid, np.abs(v.values) ** 2)


def _require_self_dual(tf: TFGrid, what: str) -> None:
    """Refuse a TF grid unless its x-axis is self-dual (Grid1D.is_self_dual)
    and its omega-axis is that axis's dual."""
    if not (tf.xgrid.is_self_dual and tf.wgrid == tf.xgrid.dual()):
        raise ValueError(
            f"{what} needs a self-dual square TF grid (L^2 = N); "
            f"got axes {tf.xgrid} and {tf.wgrid}"
        )


def _measurement_fourier_side(m: TFField) -> np.ndarray:
    """F(M)(omega, -x) arranged on the (x, omega) grid.

    Axis 0 of the 2D transform runs over the dual of x (= omega axis), axis 1
    over the dual of omega (= x axis); the (omega, -x) evaluation is then an
    index transpose plus a reflection.
    """
    n = m.tfgrid.shape[0]
    f2 = m.tfgrid.cell * cdft2(m.values)
    return f2[:, (n - np.arange(n)) % n].T


def ambiguity_relation_residual(f: Signal, window=WindowSpec("gaussian")) -> float:
    """Relative sup defect of F(|V_w f|^2)(omega, -x) = A f . conj(A w)."""
    w = window.build(f.grid)
    m = phaseless(f, window)
    _require_self_dual(m.tfgrid, "the ambiguity relation")
    lhs = _measurement_fourier_side(m)
    rhs = ambiguity(f).values * np.conj(ambiguity(w).values)
    den = float(np.max(np.abs(rhs)))
    num = float(np.max(np.abs(lhs - rhs)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


# ---------------------------------------------------------------------------
# Fock-space weight and polynomial fields


def fock_exponent(tf: TFGrid) -> np.ndarray:
    """pi |z|^2 / 2 on the grid, clamped at 700 so that e^{+-exponent} stays
    representable: the exponent of the Fock weight e^{pi|z|^2/2}."""
    x, w = tf.xmesh(), tf.wmesh()
    return np.minimum(np.pi * (x * x + w * w) / 2.0, _FOCK_EXP_CLAMP)


def fock_polynomial_field(roots, tf: TFGrid) -> tuple[TFField, TFField]:
    """F(z) = prod (z - z_i) together with its Gaussian-weighted field.

    The weighted field F(z) e^{-pi|z|^2/2} must decay below 1e-8 of its peak
    at the grid boundary, otherwise the grid is too small to hold the
    polynomial and periodization would lie.
    """
    x, w = tf.xmesh(), tf.wmesh()
    z = x + 1j * w
    half_x = tf.xgrid.length / 2.0
    half_w = tf.wgrid.length / 2.0
    vals = np.ones(tf.shape, dtype=np.complex128)
    for root in roots:
        root = complex(root)
        if abs(root.real) >= half_x or abs(root.imag) >= half_w:
            raise ValueError(f"root {root} outside the grid interior")
        vals = vals * (z - root)
    weighted = vals * np.exp(-fock_exponent(tf))
    peak = float(np.max(np.abs(weighted)))
    edge = np.zeros(tf.shape, dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    rim = float(np.max(np.abs(weighted[edge])))
    if peak == 0.0 or rim > 1e-8 * peak:
        raise ValueError(
            f"grid too small: boundary mass {rim:.3e} vs peak {peak:.3e}"
        )
    return TFField(tf, vals), TFField(tf, weighted)


# ---------------------------------------------------------------------------
# inversion


@dataclass(frozen=True)
class RecoveryResult:
    signal: Signal
    masked_fraction: float
    threshold: float


def recover(measurement: TFField, window: WindowSpec = WindowSpec("gaussian"),
            threshold: float | None = None) -> RecoveryResult:
    """Invert |V_w f|^2 up to a global phase.

    Fourier-transforming the measurement gives A f . conj(A w); dividing off
    the window ambiguity where it is safely nonzero and inverting row-wise
    yields the correlations f(t) conj(f(t - x)). The x = 0 row is |f|^2; the
    column through the modulus peak then determines f up to one phase.

    The division is the unstable step, so it is masked at `threshold`
    (absolute; default 1e-6 of the window ambiguity's peak) and the zeroed
    fraction of the plane is reported.
    """
    tf = measurement.tfgrid
    _require_self_dual(tf, "recovery")
    m = measurement.values
    if not np.any(m):
        raise ValueError("zero measurement")
    grid = tf.xgrid
    w = window.build(grid)
    amb_w = ambiguity(w).values
    origin = grid.count // 2
    peak = abs(amb_w[origin, origin])
    if threshold is None:
        threshold = 1e-6 * peak
    if not threshold > 0:
        raise ValueError(f"threshold must be a positive number, got {threshold!r}")
    if peak <= threshold:
        raise ValueError("window ambiguity peak does not clear the threshold")

    mask = np.abs(amb_w) >= threshold
    lhs = _measurement_fourier_side(measurement)
    amb_f = np.zeros_like(lhs)
    np.divide(lhs, np.conj(amb_w), out=amb_f, where=mask)
    masked_fraction = 1.0 - float(np.count_nonzero(mask)) / mask.size

    x, om = tf.xmesh(), tf.wmesh()
    v_ff = np.exp(-1j * np.pi * x * om) * amb_f
    corr = icdft(v_ff, axis=1) / grid.dx

    if not mask[origin].any():
        raise ValueError("threshold masks the entire x = 0 row; lower it")
    power = corr[origin].real
    t0 = int(np.argmax(np.abs(power)))
    amp2 = power[t0]
    if amp2 <= 0:
        raise ValueError("recovered modulus peak is not positive")
    k = np.arange(grid.count)
    rec = corr[(k - t0 + origin) % grid.count, k] / np.sqrt(amp2)
    return RecoveryResult(Signal(grid, rec), masked_fraction, float(threshold))


# ---------------------------------------------------------------------------
# window comparison diagnostic


@dataclass(frozen=True)
class WindowComparison:
    """Grid supremum of the growth field <(x,w)> |A_phi / A_Phi|.

    A finite sup means phase-retrieval stability transfers from phi to Phi
    with at most one extra weight order. sup is infinite exactly when the
    denominator ambiguity vanishes on a grid point where the numerator does
    not. A nonzero n_zeros (grid dropouts plus sign-change midpoints)
    signals the continuum supremum is infinite even when the grid one is not.
    Zeros are counted, never raised.
    """

    sup: float
    n_zeros: int


def window_comparison_ratio(phi: WindowSpec, big_phi: WindowSpec,
                            grid: Grid1D) -> WindowComparison:
    a_num = ambiguity(phi.build(grid)).values
    target = ambiguity(big_phi.build(grid))
    a_den = target.values
    tf = target.tfgrid
    bracket = japanese_bracket(tf.radius())

    if np.array_equal(a_num, a_den):
        # identical windows: the ratio is 1 by definition, even where both
        # ambiguities sit below the measurement floor
        return WindowComparison(float(np.max(bracket)),
                                _ambiguity_zero_count(a_den, 0))

    abs_num, abs_den = np.abs(a_num), np.abs(a_den)
    with np.errstate(over="ignore"):
        ratio = np.zeros(tf.shape)
        np.divide(abs_num, abs_den, out=ratio, where=abs_den > 0.0)
    # a cell is a genuine dropout only if the numerator still carries signal
    # there; shared underflow deep in the tails is dynamic range, not a zero
    informative = abs_num > 1e-12 * float(np.max(abs_num))
    genuine = informative & ((abs_den == 0.0) | ~np.isfinite(ratio))
    ratio[~np.isfinite(ratio)] = 0.0
    ratio[abs_den == 0.0] = 0.0
    field = bracket * ratio

    sup = float("inf") if genuine.any() else float(np.max(field))
    return WindowComparison(
        sup, _ambiguity_zero_count(a_den, int(np.count_nonzero(genuine))))


def _ambiguity_zero_count(a: np.ndarray, dropouts: int) -> int:
    """Approximate zero count of an ambiguity field: the genuine magnitude
    dropouts plus, for numerically real fields, the sign changes between
    neighbors that both sit above the noise floor. Dropouts lie on grid
    points, x-edge sign changes at x-midpoints and omega-edge ones at
    omega-midpoints, so no point is counted twice."""
    re = a.real
    if np.max(np.abs(a.imag)) > 1e-9 * np.max(np.abs(re)):
        return dropouts
    mag = np.abs(a)
    solid = mag > 1e-12 * float(np.max(mag))
    x_edges = (re[:-1, :] * re[1:, :] < 0) & solid[:-1, :] & solid[1:, :]
    w_edges = (re[:, :-1] * re[:, 1:] < 0) & solid[:, :-1] & solid[:, 1:]
    return (dropouts + int(np.count_nonzero(x_edges))
            + int(np.count_nonzero(w_edges)))
